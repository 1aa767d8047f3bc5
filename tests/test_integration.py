"""Cross-module consistency on random family members.

For gamma conj(z)^m + alpha z^m + beta and a shift lam, the following
must cohere: the ellipse region of lam, the winding number of the
boundary curve, the pencil classification of the shifted parameters, the
kernel dimension of the shifted operator, and the kernel dimension of its
adjoint (which carries the cokernel).  Region by region:

    exterior        -> Omega1, index 0,  dim ker 0, dim coker 0
    interior, |a|<1 -> Omega0, index m,  dim ker m, dim coker 0
    interior, |a|>1 -> Omega2, index -m, dim ker 0, dim coker m
"""

import numpy as np

from bergtoep import oracles, spectrum
from bergtoep.kernel import kernel_dimension
from bergtoep.spectrum import classify_projective, curve_windings
from bergtoep.symbols import SpecialFamilySymbol


def _sample_case(gen):
    m = int(gen.integers(1, 4))
    small = gen.uniform() < 0.5
    a = 0.75 * np.sqrt(gen.uniform()) if small else 1.0 / (0.75 * np.sqrt(gen.uniform()))
    alpha = a * np.exp(2j * np.pi * gen.uniform())
    beta = complex(*gen.uniform(-1, 1, 2))
    tau = np.angle(alpha)
    theta = 2 * np.pi * gen.uniform()
    A, B = 1 + a, abs(1 - a)
    edge = complex(A * np.cos(theta), B * np.sin(theta))
    return m, alpha, beta, tau, edge, A


def test_region_winding_kernel_coherence():
    gen = np.random.default_rng(99)
    checked = 0
    while checked < 25:
        m, alpha, beta, tau, edge, A = _sample_case(gen)
        sym = SpecialFamilySymbol(m, alpha, beta)
        nvec = edge / abs(edge)
        for lam, want_region in (
            (beta + np.exp(0.5j * tau) * 0.8 * edge, spectrum.INTERIOR),
            (beta + np.exp(0.5j * tau) * (edge + 0.2 * A * nvec), spectrum.EXTERIOR),
        ):
            region = oracles.family_region(sym, lam)
            if region != want_region:
                continue  # thin-ellipse normal offsets may re-enter; skip
            verdict = classify_projective(m, alpha, beta - lam, 1.0)
            if verdict.region == spectrum.NOT_FREDHOLM:
                continue
            wind = curve_windings(sym, [lam], 0.0)[1][0].winding
            assert -wind == verdict.index

            shifted = SpecialFamilySymbol(m, alpha, beta - lam)
            adjoint = SpecialFamilySymbol(m, 1.0, np.conj(beta - lam),
                                          np.conj(alpha))
            ker = kernel_dimension(shifted, K=4000)
            coker = kernel_dimension(adjoint, K=4000)
            assert not ker.undecided and not coker.undecided
            if verdict.region == spectrum.OMEGA1:
                assert (ker.dim, coker.dim) == (0, 0)
            elif verdict.region == spectrum.OMEGA0:
                assert (ker.dim, coker.dim) == (m, 0)
            else:
                assert (ker.dim, coker.dim) == (0, m)
            assert ker.dim - coker.dim == verdict.index
            checked += 1
    assert checked >= 25
