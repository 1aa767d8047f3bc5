"""The checks: every second route to a result of the answer modules, shared
by `bergtoep validate` and the acceptance suite.

Schur-Cohn counts the zeros of p(z) = a_n z^n + ... + a_0 in the unit disk
without roots: with the upper triangular k x k matrices A_k[i, j] = a_{j-i}
and B_k[i, j] = conj(a_{n-j+i}), the determinants M_k = det(B_k* B_k -
A_k* A_k) are real, and when none vanishes the count is n - N(1, M_1, ...,
M_n), N the sign changes after dropping zeros; near-vanishing M_k (zeros
close to the circle) leave it indeterminate.

Each check(rng, trials) returns (ok, detail) with a JSON-ready detail.
ORACLES lists (name, check, trials) in the order validate runs them on one
generator; trials is the quick-suite count, which the fixed-corpus check
coburn-table ignores.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import cpoly, finsect, kernel, odekernel, spectrum, symbols
from .cpoly import CPoly, NumericIntegrityError
from .symbols import HarmonicPolySymbol, SpecialFamilySymbol


def sign_variations(seq: Sequence[float]) -> int:
    """Sign changes in a real sequence, ignoring zero entries."""
    signs = [1 if x > 0 else -1 for x in seq if x != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class SchurCohnReport:
    """Determinants M_1..M_n, the sign-variation count, and the zero count.

    in_disk_count is None when some |M_k| fell below the degeneracy
    tolerance (zeros too close to the circle for the test to resolve).
    """

    dets: tuple[float, ...]
    variations: int
    in_disk_count: Optional[int]

    @property
    def is_indeterminate(self) -> bool:
        return self.in_disk_count is None


# |M_k| / scale^(2k) at or below which schur_cohn's count is indeterminate
_DEGENERACY_TOL = 1e-10


def schur_cohn(p: CPoly) -> SchurCohnReport:
    """Count zeros of p inside the unit disk by the determinant test.

    The reported M_k come from the raw coefficients; the degeneracy test
    divides M_k by scale^(2k) with scale = max|a_j|, so _DEGENERACY_TOL is
    an absolute threshold on coefficient-normalized polynomials and the
    verdict is invariant under scaling p by a nonzero constant.
    """
    n = p.degree
    if n < 1:
        raise ValueError("schur_cohn requires degree >= 1")
    if p.coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    a = np.array(p.coeffs, dtype=complex)
    scale = float(np.max(np.abs(a)))

    dets: list[float] = []
    for k in range(1, n + 1):
        A = np.zeros((k, k), dtype=complex)
        B = np.zeros((k, k), dtype=complex)
        for i in range(k):
            A[i, i:] = a[: k - i]
            B[i, i:] = np.conj(a[n::-1][: k - i])
        H = B.conj().T @ B - A.conj().T @ A
        hmax = float(np.max(np.abs(H))) if H.size else 0.0
        asym = float(np.max(np.abs(H - H.conj().T)))
        if asym > 1e-9 * hmax + 1e-12 * scale**2:
            raise NumericIntegrityError(f"M_{k} matrix not Hermitian: asymmetry {asym:.3e}")
        H = (H + H.conj().T) / 2
        det = complex(np.linalg.det(H))
        if abs(det.imag) > 1e-9 * abs(det) + 1e-12 * scale ** (2 * k):
            raise NumericIntegrityError(f"M_{k} determinant not real: {det!r}")
        dets.append(det.real)

    variations = sign_variations([1.0] + dets)
    if any(abs(m) / scale ** (2 * k) <= _DEGENERACY_TOL
           for k, m in enumerate(dets, start=1)):
        return SchurCohnReport(tuple(dets), variations, None)
    count = n - variations
    if not 0 <= count <= n:
        raise NumericIntegrityError(f"zero count {count} outside [0, {n}]")
    return SchurCohnReport(tuple(dets), variations, count)


def circle_distance(zp: cpoly.ZeroPattern) -> float:
    """min |modulus - 1| over the zeros of zp, the margin of its circle
    test; inf without zeros."""
    return min((abs(mu - 1.0) for mu in zp.moduli), default=math.inf)


def special_to_quadratic(sym: SpecialFamilySymbol, lam: complex = 0j) -> CPoly:
    """The polynomial alpha t^2 + (beta - lam) t + gamma in t = z^m.

    Its zeros, taken to m-th roots, are exactly the zeros of
    z^m (phi(z) - lam); degree-deficient cases are trimmed (roots at
    infinity are dropped, a zero constant term keeps the root t = 0).
    """
    p = CPoly.make([sym.gamma, sym.beta - lam, sym.alpha])
    if p.is_zero:
        raise ValueError("phi - lam vanishes identically on the circle")
    return p


def apply_symbol(sym: symbols.Symbol, d: Sequence[complex]) -> np.ndarray:
    """Coefficient action of T_phi on d_0..d_K, truncated at K."""
    d = np.asarray(list(d), dtype=complex)
    K1 = len(d)
    out = np.zeros(K1, dtype=complex)
    anti, ana = finsect._terms(sym)
    k = np.arange(K1, dtype=float)
    for s, w in anti:
        if s < K1:
            out[: K1 - s] += w * ((k[: K1 - s] + 1.0) / (k[: K1 - s] + s + 1.0)) * d[s:]
    for s, w in ana:
        if s < K1:
            out[s:] += w * d[: K1 - s]
    return out


def tstar_zm_check(m: int, g_coeffs: Sequence[complex]) -> float:
    """Max pairwise discrepancy between three routes to T_{z^m}^* g.

    Requires g to vanish to order m at 0.  The routes are the direct
    projection rule, the integral z^{-(m+1)} int_0^z [w g' - (m-1) g] dw,
    and g/z^m - m z^{-(m+1)} int_0^z g, all evaluated coefficientwise.
    """
    d = np.asarray(list(g_coeffs), dtype=complex)
    if m < 1:
        raise ValueError("m must be positive")
    if len(d) <= m:
        raise ValueError("need coefficients beyond index m")
    if np.any(d[:m] != 0):
        raise ValueError("g must have an m-fold zero at the origin")
    K1 = len(d)
    j = np.arange(K1, dtype=float)

    # route 1: projection rule, c_k = ((k+1)/(m+k+1)) d_{m+k}
    k = np.arange(K1 - m, dtype=float)
    r1 = ((k + 1.0) / (m + k + 1.0)) * d[m:]

    # route 2: [w g' - (m-1) g], integrate, shift down by m+1
    wgp = j * d
    top = wgp - (m - 1) * d
    integ = top / (j + 1.0)          # coefficient of z^{j+1}
    r2 = integ[m:]                   # z^{j+1} / z^{m+1} = z^{j-m}

    # route 3: g/z^m - (m/z^{m+1}) int_0^z g
    gshift = d[m:]
    anti = d / (j + 1.0)             # int g, coefficient of z^{j+1}
    r3 = gshift - m * anti[m:]

    return float(max(np.max(np.abs(r1 - r2)), np.max(np.abs(r1 - r3)),
                     np.max(np.abs(r2 - r3))))


def closed_form_kernel_czn(m: int, n: int, c: complex, j: int,
                           K: int) -> kernel.CoefficientStream:
    """Closed-form kernel candidate for conj(z)^m + c z^n, seed slot j.

    Nonzero coefficients sit at positions k(m+n)+j with values

        (-c)^k  prod_{i=1}^{k} (i(m+n)+1+j) / (i n + (i-1) m + 1 + j),

    built as a sum of log magnitudes and a phase (-c/|c|)^k; the scale is
    the largest log magnitude, or 0 when every entry is at most 1.
    """
    if not 0 <= j <= m - 1:
        raise ValueError("j must lie in 0..m-1")
    if K < 1:
        raise ValueError("K must be positive")
    c = complex(c)
    step = m + n
    count = len(range(j, K + 1, step))
    i = np.arange(1, count, dtype=float)
    with np.errstate(divide="ignore"):   # c = 0: log|c| = -inf past k = 0
        ratios = (i * step + 1 + j) / (i * n + (i - 1) * m + 1 + j)
        lm = np.cumsum(np.concatenate(([0.0], np.log(abs(c)) + np.log(ratios))))[:count]
    phase = np.exp(1j * cmath.phase(-c) * np.arange(count))
    scale = float(lm.max(initial=0.0))
    mant = np.zeros(K + 1, dtype=complex)
    logmag = np.full(K + 1, -np.inf)
    mant[j::step] = np.exp(lm - scale) * phase
    logmag[j::step] = lm
    return kernel.CoefficientStream(mant, logmag, np.full(K + 1, scale), m)


@dataclass(frozen=True)
class CoburnVerdict:
    dim_ker: int
    dim_coker: int

    @property
    def coburn(self) -> bool:
        return self.dim_ker == 0 or self.dim_coker == 0


def coburn_classify(m: int, n: int, c: complex) -> CoburnVerdict:
    """Kernel/cokernel dimensions for conj(z)^m + c z^n.

    (m, 0) when |c| < 1 (including c = 0), else (0, n); one of the two is
    always trivial.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    if abs(c) < 1:
        return CoburnVerdict(m, 0)
    return CoburnVerdict(0, n)


class ExtractionError(Exception):
    """Coefficient extraction would amplify noise beyond usefulness."""


# taylor_coefficients samples g_j on the circle |z| = _RADIUS, taking
# eval noise of size _EVAL_NOISE
_RADIUS = 0.9
_EVAL_NOISE = 1e-12


def ode_exponents(basis: odekernel.OdeKernelBasis) -> tuple[complex, complex]:
    """e_1 = t_1/(t_0 - t_1) and e_2 = t_0/(t_0 - t_1) of the t-roots."""
    t0, t1 = basis.z0m, basis.z1m
    return t1 / (t0 - t1), t0 / (t0 - t1)


def _log1p(w: np.ndarray) -> np.ndarray:
    """Log(1 + w) for complex w, without cancellation for small w."""
    return 0.5 * np.log1p(2.0 * w.real + np.abs(w) ** 2) + 1j * np.arctan2(w.imag, 1.0 + w.real)


def g0_log_v(basis: odekernel.OdeKernelBasis, u) -> np.ndarray:
    """log V(u) = e_1 Log(1 - u/t_0) - e_2 Log(1 - u/t_1) at u = z^m.

    G_0 = z^m V(z^m) / H(0): since |t_i| > 1, 1 - u/t_i stays in the right
    half plane on the disk and the principal logarithm is the branch.
    """
    u = np.asarray(u, dtype=complex)
    e1, e2 = ode_exponents(basis)
    return e1 * _log1p(-u / basis.z0m) - e2 * _log1p(-u / basis.z1m)


def g0_eval(basis: odekernel.OdeKernelBasis, z):
    """The integrating factor G_0 = z^m (z^m - t_0)^{e_1} / (z^m - t_1)^{e_2}
    at z in the open unit disk, from the product formula in the t-roots,
    the exponents and the branch anchors Log(-t_i) at z = 0.

    It is the second route to the series of `odekernel`: `TestG0` checks
    it against closed forms and its logarithmic derivative m / (z (alpha
    z^{2m} + beta z^m + 1)), and g_1 = G_0 / (z phi_0(z^m)) against it.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("G_0 is defined on |z| < 1")
    e1, e2 = ode_exponents(basis)
    h0 = cmath.exp(-e1 * cmath.log(-basis.z0m) + e2 * cmath.log(-basis.z1m))
    zm = z**basis.m
    out = zm * np.exp(g0_log_v(basis, zm)) / h0
    return out if out.shape else complex(out)


def taylor_coefficients(basis: odekernel.OdeKernelBasis, j: int, K: int) -> np.ndarray:
    """First K Taylor coefficients of g_j by FFT at 4K points of the circle
    |z| = _RADIUS.

    The k-th coefficient is amplified by _RADIUS^-k, so eval noise of size
    _EVAL_NOISE reaches _EVAL_NOISE * _RADIUS^-(K-1) at the top; the call
    refuses K where that exceeds 1e-4 (K >= 176).
    """
    samples = 4 * K
    amp = _RADIUS ** (-(K - 1))
    if _EVAL_NOISE * amp > 1e-4:
        raise ExtractionError(
            f"amplification {amp:.3e} at k={K - 1} with eval noise {_EVAL_NOISE:.1e}")
    zs = _RADIUS * np.exp(2j * np.pi * np.arange(samples) / samples)
    vals = basis.eval_basis(j, zs)
    hat = np.fft.fft(vals) / samples
    k = np.arange(K)
    return hat[:K] / _RADIUS**k


def residual_check(basis: odekernel.OdeKernelBasis, j: int, K: int = 50) -> float:
    """Relative Bergman-norm residual of T_phi g_j on the first K-2m coefficients.

    g_j is sampled on a circle, its Taylor coefficients extracted, and the
    exact coefficient operator applied; only indices unaffected by the
    truncation are scored.
    """
    coeffs = taylor_coefficients(basis, j, K)
    out = apply_symbol(SpecialFamilySymbol(basis.m, basis.alpha, basis.beta), coeffs)
    cut = K - 2 * basis.m
    if cut < 1:
        raise ValueError("K too small relative to m")
    w = 1.0 / (np.arange(K) + 1.0)
    num = math.sqrt(float(np.sum(np.abs(out[:cut]) ** 2 * w[:cut])))
    den = math.sqrt(float(np.sum(np.abs(coeffs) ** 2 * w)))
    return num / den


def check_schur_cohn_vs_roots(rng, trials):
    bad = []
    done = 0
    while done < trials:
        deg = int(rng.integers(1, 9))
        cs = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
        p = cpoly.CPoly.make(list(cs))
        # a near-vanishing leading coefficient makes the degree ill-defined
        # (one root escapes to infinity and double precision cannot meet a
        # residual bound relative to max|a|); keep the degree honest
        if p.degree != deg or abs(p.coeffs[-1]) < 0.25:
            continue
        rep = schur_cohn(p)
        if rep.is_indeterminate:
            continue
        truth = cpoly.zero_pattern(p, 1e-6).in_disk
        if truth is None:
            continue
        done += 1
        if truth != rep.in_disk_count:
            bad.append({"coeffs": [[c.real, c.imag] for c in p.coeffs],
                        "roots_count": truth, "schur_cohn": rep.in_disk_count})
    return not bad, {"trials": trials, "mismatches": bad}


def check_winding_vs_zero_count(rng, trials):
    bad = []
    done = 0
    while done < trials:
        m = int(rng.integers(1, 4))
        alpha = complex(*rng.uniform(-1.5, 1.5, 2))
        beta = complex(*rng.uniform(-1.5, 1.5, 2))
        lam = complex(*rng.uniform(-3, 3, 2))
        sym = SpecialFamilySymbol(m, alpha, beta)
        _, winds = spectrum.curve_windings(sym, [lam], 1e-3)
        if not winds:
            continue
        quad = special_to_quadratic(sym, lam)
        count = cpoly.zero_pattern(quad, 1e-6).in_disk
        if count is None:
            continue
        done += 1
        if isinstance(winds[0], Exception):
            raise winds[0]
        wind = winds[0].winding
        if wind + m != m * count:
            bad.append({"m": m, "alpha": [alpha.real, alpha.imag],
                        "beta": [beta.real, beta.imag],
                        "lam": [lam.real, lam.imag],
                        "wind": wind, "count": count})
    return not bad, {"trials": trials, "mismatches": bad}


def check_recursion_vs_closed_form(rng, trials):
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(0, 4))
        c = complex(*rng.uniform(-1.5, 1.5, 2))
        j = int(rng.integers(0, m))
        seed = [0j] * m
        seed[j] = 1.0
        K = 120
        a = kernel.recursion_general(symbols.zbar_power_plus(m, [0j] * n + [c]), seed, K)
        b = closed_form_kernel_czn(m, n, c, j, K)
        diff = float(np.max(np.abs(a.coefficients() - b.coefficients())))
        scale = float(np.max(np.abs(b.coefficients()))) or 1.0
        worst = max(worst, diff / scale)
    return worst <= 1e-12, {"worst_rel_diff": worst}


def check_tstar_identity(rng, trials):
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 5))
        deg = int(rng.integers(m + 1, 51))
        d = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
        d[:m] = 0
        worst = max(worst, tstar_zm_check(m, d))
    return worst <= 1e-12, {"worst_residual": worst}


def inequality_region(alpha: complex, beta: complex, gamma: complex):
    """The pencil's Fredholm region from the closed-form inequalities, with
    the margin of the winning predicate: (region, margin), or (None, 0.0).

    d0 = |gamma|^2 - |alpha|^2, cross = |alpha conj(beta) - beta conj(gamma)|:
    Omega0 when d0 > cross, Omega2 when -d0 > cross, Omega1 when cross > |d0|
    > 0, and, for |alpha| = |gamma| (within 1e-9), Omega1 when |beta|^4 -
    4 alpha gamma conj(beta)^2 is not a nonpositive real number.
    """
    alpha, beta, gamma = complex(alpha), complex(beta), complex(gamma)
    d0 = abs(gamma) ** 2 - abs(alpha) ** 2
    cross = abs(alpha * beta.conjugate() - beta * gamma.conjugate())
    candidates = [(spectrum.OMEGA0, d0 - cross), (spectrum.OMEGA2, -d0 - cross),
                  (spectrum.OMEGA1, min(abs(d0), cross - abs(d0)))]
    if abs(abs(alpha) - abs(gamma)) <= 1e-9:
        q = abs(beta) ** 4 - 4 * alpha * gamma * beta.conjugate() ** 2
        candidates.append((spectrum.OMEGA1, max(q.real, abs(q.imag))))
    region, margin = max(candidates, key=lambda t: t[1])
    return (region, margin) if margin > 0 else (None, 0.0)


def check_region_agreement(rng, trials):
    bad = []
    for _ in range(trials):
        alpha = complex(*rng.uniform(-1.2, 1.2, 2))
        beta = complex(*rng.uniform(-1.5, 1.5, 2))
        gamma = complex(*rng.uniform(-1.2, 1.2, 2))
        v = spectrum.classify_projective(2, alpha, beta, gamma)
        region, margin = inequality_region(alpha, beta, gamma)
        if margin <= 1e-9 or v.region == spectrum.NOT_FREDHOLM:
            continue
        if region != v.region:
            bad.append({"alpha": [alpha.real, alpha.imag],
                        "beta": [beta.real, beta.imag],
                        "gamma": [gamma.real, gamma.imag],
                        "roots": v.region, "inequalities": region})
    return not bad, {"trials": trials, "mismatches": bad}


def coburn_mismatches(ms, ns, cs, K):
    """Cases of conj(z)^m + c z^n whose recursion kernel dimension at K
    (None when undecided) differs from `coburn_classify`."""
    bad = []
    for m in ms:
        for n in ns:
            for c in cs:
                rep = kernel.kernel_dimension((m, [0j] * n + [complex(c)]), K=K)
                want = coburn_classify(m, n, c).dim_ker
                if rep.dim != want:
                    bad.append({"m": m, "n": n, "c": [complex(c).real, complex(c).imag],
                                "got": rep.dim, "want": want})
    return bad


def check_coburn_table(rng, trials):
    cs = [0.3, 0.5 * np.exp(1j * np.pi / 3), 1.5]
    bad = coburn_mismatches((1, 2), (0, 1, 2), cs, K=4000)
    return not bad, {"mismatches": bad}


def check_family_kernel_vs_t_quadratic(rng, trials):
    """Decided kernel dims of gamma conj(z)^m + alpha z^m + beta against
    m [no zero of the t-quadratic alpha t^2 + beta t + gamma in the closed
    disk]; draws with a t-zero within 1e-6 of the circle are skipped."""
    bad = []
    undecided = done = 0
    while done < trials:
        m = int(rng.integers(1, 4))
        alpha, beta, gamma = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(3))
        sym = SpecialFamilySymbol(m, alpha, beta, gamma)
        count = cpoly.zero_pattern(special_to_quadratic(sym), 1e-6).in_disk
        if count is None:
            continue
        done += 1
        rep = kernel.kernel_dimension(sym)
        if rep.undecided:
            undecided += 1
        elif rep.dim != m * (count == 0):
            bad.append({"symbol": symbols.to_json(sym), "dim": rep.dim,
                        "t_zeros_in_disk": count})
    return not bad, {"trials": trials, "undecided": undecided, "mismatches": bad}


def _band(value: float, edge: float) -> str:
    # boundary within 1e-9 of the edge
    if value < edge - 1e-9:
        return spectrum.INTERIOR
    return spectrum.EXTERIOR if value > edge + 1e-9 else spectrum.BOUNDARY


def family_region(sym: SpecialFamilySymbol, lam: complex) -> str:
    """Position of lam against phi(closed disk), from its closed form.

    gamma = 0: the disk |w - beta| <= |alpha|.  Otherwise phi/gamma =
    conj(z)^m + a z^m + beta/gamma, a = |a| e^{i tau}, maps the disk onto
    the solid ellipse centered at beta/gamma with semi-axes 1 + |a| and
    |1 - |a|| along e^{i tau/2}, a segment (no interior) when |a| = 1.
    """
    if sym.gamma == 0:
        return _band(abs(complex(lam) - sym.beta), abs(sym.alpha))
    norm = sym.normalized()
    a = abs(norm.alpha)
    zeta = cmath.exp(-0.5j * cmath.phase(norm.alpha)) * (complex(lam) / sym.gamma - norm.beta)
    if abs(a - 1.0) <= 1e-12:   # the segment [-2, 2]: boundary on it, exterior off it
        return _band(max(abs(zeta.real), 2.0 + abs(zeta.imag)), 2.0)
    return _band((zeta.real / (1.0 + a)) ** 2 + (zeta.imag / (1.0 - a)) ** 2, 1.0)


def check_ellipse_vs_classify(rng, trials):
    """spectrum.family_verdict and family_region at beta + s (w - beta), w on
    phi(T), for gamma drawn in turn at random, as 0 and with |alpha| = |gamma|:
    at s = 0.8 interior with winding -m sign(|gamma| - |alpha|), at s = 1.2
    exterior with winding 0; on the segment (|alpha| = |gamma|) boundary."""
    bad = []
    for i in range(trials):
        kind = i % 3
        m = int(rng.integers(1, 4))
        beta = complex(*rng.uniform(-1, 1, 2))
        gamma = complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()))
        ratio = 1.0 if kind else rng.choice((rng.uniform(0, 0.85), rng.uniform(1.2, 3)))
        alpha = gamma * ratio * np.exp(2j * np.pi * rng.uniform())
        sym = SpecialFamilySymbol(m, alpha, beta, 0j if kind == 1 else gamma)
        w = complex(sym.eval(np.exp(2j * np.pi * rng.uniform())))
        wind = -m if abs(sym.gamma) > abs(sym.alpha) else m
        want = ({0.8: (spectrum.BOUNDARY, None)} if kind == 2 else
                {0.8: (spectrum.INTERIOR, wind), 1.2: (spectrum.EXTERIOR, 0)})
        for s, (region, wind) in want.items():
            lam = beta + s * (w - beta)
            got = spectrum.family_verdict(sym, lam)
            if got != (region, wind) or family_region(sym, lam) != region:
                bad.append({"symbol": symbols.to_json(sym), "s": s, "want": [region, wind],
                            "got": list(got), "image": family_region(sym, lam)})
    return not bad, {"trials": trials, "mismatches": bad}


def span_angle(basis: odekernel.OdeKernelBasis, K: int) -> float:
    """Largest principal angle between the spans of the first K Taylor
    coefficients of g_1..g_m and of the m unit-seed kernel recursions."""
    m = basis.m
    psi = SpecialFamilySymbol(m, basis.alpha, basis.beta).as_harmonic()
    ode = np.vstack([taylor_coefficients(basis, j, K) for j in range(1, m + 1)])
    rec = np.vstack([kernel.recursion_general(psi, np.eye(m)[j], K - 1).coefficients()
                     for j in range(m)])
    qa, _ = np.linalg.qr(ode.conj().T)
    qb, _ = np.linalg.qr(rec.conj().T)
    # the sine, ||(I - P_ode) Q_rec||, resolves small angles, where the
    # arccos of a cosine near 1 cannot go below about 2e-8
    sine = np.linalg.norm(qb - qa @ (qa.conj().T @ qb), 2)
    return float(np.arcsin(min(sine, 1.0)))


def check_odekernel_span(rng, trials):
    worst = 0.0
    for _ in range(trials):
        # t-roots of modulus 1.2..3 at random angles: alpha t^2 + beta t + 1
        t0, t1 = rng.uniform(1.2, 3.0, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
        basis = odekernel.OdeKernelBasis(int(rng.integers(1, 5)), 1.0 / (t0 * t1),
                                         -(t0 + t1) / (t0 * t1))
        # K = 60: the FFT's aliasing stays near 1e-13 even for m = 4 and |t| = 1.2
        worst = max(worst, span_angle(basis, 60))
    return worst < 1e-9, {"trials": trials, "worst_subspace_angle": worst}


def check_boundary_identity(rng, trials):
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(0, 4))
        anti = tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(m - 1))
        ana = [complex(*rng.uniform(-1, 1, 2)) for _ in range(n + 1)]
        if n >= 1 and ana[-1] == 0:
            ana[-1] = 1.0
        sym = HarmonicPolySymbol(m, anti, tuple(ana))
        lam = complex(*rng.uniform(-2, 2, 2))
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        phi = symbols.associated_poly(sym, lam)
        lhs = sym.eval(z) - lam
        rhs = cpoly.eval_poly_many(phi.coeffs, z) / z**m
        scale = float(np.max(np.abs(rhs))) or 1.0
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst <= 1e-12, {"worst_rel_diff": worst}


ORACLES = (
    ("boundary-identity", check_boundary_identity, 40),
    ("schur-cohn-vs-roots", check_schur_cohn_vs_roots, 100),
    ("winding-vs-zero-count", check_winding_vs_zero_count, 40),
    ("recursion-vs-closed-form", check_recursion_vs_closed_form, 40),
    ("tstar-integral-identity", check_tstar_identity, 40),
    ("region-inequality-agreement", check_region_agreement, 200),
    ("coburn-table", check_coburn_table, 1),
    ("ellipse-vs-classify", check_ellipse_vs_classify, 20),
    ("odekernel-span", check_odekernel_span, 4),
    ("family-kernel-vs-t-quadratic", check_family_kernel_vs_t_quadratic, 200),
)
