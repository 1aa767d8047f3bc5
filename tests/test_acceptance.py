"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Random corpora are seeded and all tolerances are fixed here;
finite-section thresholds are heuristic evidence (sections of non-normal
operators have no convergence guarantee) and are pinned to the values
validated during development.
"""

import time

import numpy as np

from bergtoep import cpoly, finsect, kernel, oracles, spectrum
from bergtoep.kernel import l2_membership, recursion_general
from bergtoep.odekernel import OdeKernelBasis
from bergtoep.oracles import coburn_classify, residual_check
from bergtoep.spectrum import classify_projective, curve_windings
from bergtoep.symbols import HarmonicPolySymbol, SpecialFamilySymbol, associated_poly


def _report(num, name, detail=""):
    print(f"\n[acceptance] criterion {num} ({name}): PASS {detail}")


def _sym_from_phi0_roots(m, n, roots):
    cs = np.array([1.0 + 0j])
    for r in roots:
        cs = np.convolve(cs, np.array([1.0, -1.0 / r]))
    return HarmonicPolySymbol(m, tuple(cs[1:m]), tuple(cs[m:m + n + 1]))


def _modulus_ladder(gen, count, lo, step):
    base = lo * step ** np.arange(count)
    return base * (1.0 + 0.04 * gen.uniform(size=count))


def test_criterion_1_coburn_table():
    """conj(z)^m + c z^n: kernel dim m for |c| < 1, 0 for |c| >= 1."""
    t0 = time.monotonic()
    ms, ns = (1, 2, 3), (0, 1, 2, 3)
    cs = [0.3, 0.5 * np.exp(1j * np.pi / 3), 0.9, 1.0, 1.5, 2.0 * np.exp(1j)]
    # recursion kernel dimensions (undecided counts as a mismatch) against
    # coburn_classify, and coburn_classify against the table itself
    assert oracles.coburn_mismatches(ms, ns, cs, K=20000) == []
    cases = 0
    for m in ms:
        for n in ns:
            for c in cs:
                cob = coburn_classify(m, n, c)
                assert cob.dim_ker == (m if abs(c) < 1 else 0)
                assert cob.dim_coker == (0 if abs(c) < 1 else n)
                assert cob.coburn
                cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(1, "coburn table", f"({cases} cases, {elapsed:.1f}s, K=20000)")


def test_criterion_2_schur_cohn_oracle():
    """Determinant zero counts match the root finder on 1000 random polys."""
    ok, detail = oracles.check_schur_cohn_vs_roots(np.random.default_rng(20240601), 1000)
    assert ok, detail["mismatches"]
    _report(2, "schur-cohn oracle equivalence", "(1000 polynomials, 0 mismatches)")


def test_criterion_3_winding_equals_zero_count():
    """wind(phi(T), lam) + m = m * (zeros of the t-quadratic in D), 500 cases."""
    ok, detail = oracles.check_winding_vs_zero_count(np.random.default_rng(20240602), 500)
    assert ok, detail["mismatches"]
    _report(3, "winding equals zero count", "(500 cases, exact)")


def test_criterion_4_ellipse_spectrum():
    """Interior/exterior probes of sigma(T_phi) for the gamma=1 family.

    lam is placed at relative ellipse-distance 0.15: interior points by
    radial scaling 0.85, exterior points offset along the outward normal
    by 0.15 * (1 + |alpha|).  Finite-section thresholds (0.05 collapse /
    0.01 floor / 20 percent stabilization) are heuristic.
    """
    gen = np.random.default_rng(20240603)
    interior_winding = 0
    interior_sigma = 0
    for trial in range(100):
        m = 1 + trial % 3
        a = 0.85 * np.sqrt(gen.uniform())
        alpha = a * np.exp(2j * np.pi * gen.uniform())
        beta = complex(*gen.uniform(-1, 1, 2))
        tau = np.angle(alpha) if alpha != 0 else 0.0
        theta = 2 * np.pi * gen.uniform()
        A, B = 1 + a, 1 - a
        edge = complex(A * np.cos(theta), B * np.sin(theta))
        sym = SpecialFamilySymbol(m, alpha, beta)

        lam_in = beta + np.exp(0.5j * tau) * (0.85 * edge)
        assert oracles.family_region(sym, lam_in) == spectrum.INTERIOR
        wind = curve_windings(sym, [lam_in], 0.0)[1][0].winding
        if wind != 0:
            interior_winding += 1
        else:
            s = finsect.min_singular_value(finsect.truncation(sym, 256), lam_in)
            assert s < 0.05, (m, alpha, beta, lam_in, s)
            interior_sigma += 1

        nvec = complex(B * np.cos(theta), A * np.sin(theta))
        nvec /= abs(nvec)
        lam_out = beta + np.exp(0.5j * tau) * (edge + 0.15 * A * nvec)
        assert oracles.family_region(sym, lam_out) == spectrum.EXTERIOR
        v = classify_projective(m, alpha, beta - lam_out, 1.0)
        assert v.region == spectrum.OMEGA1, (m, alpha, beta, lam_out, v.region)
        s128 = finsect.min_singular_value(finsect.truncation(sym, 128), lam_out)
        s256 = finsect.min_singular_value(finsect.truncation(sym, 256), lam_out)
        assert s256 > 0.01, (m, alpha, beta, lam_out, s256)
        assert abs(s128 - s256) <= 0.2 * s256, (m, alpha, beta, lam_out, s128, s256)
    _report(4, "ellipse spectrum probes",
            f"(100 members; interior: {interior_winding} by winding, "
            f"{interior_sigma} by sigma_min)")


_ODE_GRID = [
    (1, 0.25 + 0j, 0j),
    (1, 0.2 + 0.3j, 0.4 + 0j),
    (1, -0.35 + 0j, 0.2j),
    (2, 0.1 + 0j, 0.1 + 0j),
    (2, 0.3j, 0.2 + 0.1j),
    (2, -0.25 + 0j, 0.15 + 0j),
    (3, 0.2 + 0j, 0.1j),
    (3, 0.15 + 0.1j, 0.05 + 0j),
    (3, -0.1 + 0.2j, 0.1 + 0.1j),
]


def test_criterion_5_ode_kernel_agreement():
    """Closed-form basis vs recursion basis: angle < 1e-6, residuals <= 1e-6."""
    K = 50
    worst_angle = 0.0
    worst_resid = 0.0
    for m, alpha, beta in _ODE_GRID:
        # grid points satisfy |alpha| < 1 and 1 - |alpha|^2 > |alpha conj(beta) - beta|
        assert abs(alpha) < 1
        assert 1 - abs(alpha) ** 2 > abs(alpha * beta.conjugate() - beta)
        basis = OdeKernelBasis(m, alpha, beta)
        angle = oracles.span_angle(basis, K)
        assert angle < 1e-6, (m, alpha, beta, angle)
        worst_angle = max(worst_angle, angle)
        for j in range(1, m + 1):
            r = residual_check(basis, j, K=K)
            assert r <= 1e-6, (m, alpha, beta, j, r)
            worst_resid = max(worst_resid, r)
    _report(5, "ode kernel agreement",
            f"({len(_ODE_GRID)} parameter sets; worst angle {worst_angle:.2e}, "
            f"worst residual {worst_resid:.2e})")


def test_criterion_6_injectivity_evidence():
    """Unit-seed recursions escape the Bergman space when phi_0 is Poincare
    with interior zeros; finite sections match the winding index.

    Symbols are built from prescribed phi_0 zeros (geometric modulus
    ladders keep the Poincare gaps healthy: interior moduli from 0.30 with
    ratio 1.18, exterior from 1.6 with ratio 1.25).  About a fifth of the
    draws carry nonzero index.  sigma_min thresholds: index 0 needs
    sigma_min(256) > 1e-3 (invertible, no kernel collapse), nonzero index
    needs sigma_min(256) < 0.05 (a kernel or cokernel must show up).
    """
    gen = np.random.default_rng(20240604)
    index_zero = 0
    index_nonzero = 0
    for trial in range(50):
        m = int(gen.integers(1, 4))
        n = int(gen.integers(1, 4))
        if trial % 5 == 4 and m > 1:
            z = int(gen.integers(1, m))
        elif trial % 7 == 6:
            z = min(m + 1, m + n)
        else:
            z = m
        inside = _modulus_ladder(gen, z, 0.30, 1.18)
        outside = _modulus_ladder(gen, m + n - z, 1.6, 1.25)
        mods = np.concatenate([inside, outside])
        roots = mods * np.exp(2j * np.pi * gen.uniform(size=m + n))
        sym = _sym_from_phi0_roots(m, n, list(roots))

        zp = cpoly.zero_pattern(associated_poly(sym), 1e-6)
        assert zp.distinct()
        assert zp.in_disk == z

        for j in range(m):
            seed = [0j] * m
            seed[j] = 1.0
            s = recursion_general(sym, seed, 20000)
            v = l2_membership(s)
            assert v.status == kernel.NON_MEMBER, (m, n, z, j, v)
            assert v.estimated_ratio_modulus is not None
            assert v.estimated_ratio_modulus > 1.001, (m, n, z, j, v)
            assert s.log_norm_partials[-1] > np.log(1e6)

        idx = spectrum.fredholm_index(sym, 0.0)
        assert idx == m - z
        smin = finsect.min_singular_value(finsect.truncation(sym, 256), 0.0)
        if idx == 0:
            assert smin > 1e-3, (m, n, z, smin)
            index_zero += 1
        else:
            assert smin < 0.05, (m, n, z, smin)
            index_nonzero += 1
    _report(6, "injectivity evidence",
            f"(50 symbols: {index_zero} index-0, {index_nonzero} nonzero index)")


def test_criterion_7_integral_representation():
    """Three coefficient routes to T_{z^m}^* agree to 1e-12, 200 cases."""
    ok, detail = oracles.check_tstar_identity(np.random.default_rng(20240605), 200)
    assert ok, detail
    _report(7, "integral representation identity",
            f"(200 polynomials, worst residual {detail['worst_residual']:.2e})")


def test_criterion_8_region_classifier():
    """Root-count and inequality classification agree on a 40x40x3 grid."""
    m = 2
    golden = (np.sqrt(5) - 1) / 2
    ks = np.arange(40)
    alphas = 1.25 * np.sqrt((ks + 0.5) / 40) * np.exp(2j * np.pi * golden * ks)
    gammas = 1.25 * np.sqrt((ks + 0.5) / 40) * np.exp(2j * np.pi * (golden * ks + 0.37))
    betas = [0.3 + 0.1j, 1.2 - 0.4j, 1.7 * np.exp(0.4j)]
    compared = 0
    skipped_margin = 0
    band_conflicts = 0
    for alpha in alphas:
        for gamma in gammas:
            for beta in betas:
                v = classify_projective(m, alpha, beta, gamma)
                if v.region != spectrum.NOT_FREDHOLM:
                    assert v.index == {spectrum.OMEGA0: m, spectrum.OMEGA1: 0,
                                       spectrum.OMEGA2: -m}[v.region]
                region, margin = oracles.inequality_region(alpha, beta, gamma)
                if margin <= 1e-9:
                    skipped_margin += 1
                    continue
                if v.region == spectrum.NOT_FREDHOLM:
                    band_conflicts += 1
                    continue
                compared += 1
                assert region == v.region, (alpha, beta, gamma, v.region, region)
    assert band_conflicts == 0
    assert compared >= 4000
    _report(8, "region classifier cross-check",
            f"({compared} compared, {skipped_margin} below margin)")


def test_family_kernel_vs_t_quadratic():
    """Family kernels on the harmonic-symbol route match the t-quadratic, 1000 symbols."""
    t0 = time.monotonic()
    ok, detail = oracles.check_family_kernel_vs_t_quadratic(np.random.default_rng(20240609), 1000)
    assert ok, detail
    assert detail["undecided"] <= 10
    print(f"\n[acceptance] family kernel vs t-quadratic: PASS (1000 symbols, "
          f"{detail['undecided']} undecided, {time.monotonic() - t0:.1f}s)")
