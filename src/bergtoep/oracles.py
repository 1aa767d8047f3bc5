"""Cross-module oracles, shared by `bergtoep validate` and the acceptance suite.

Each check(rng, trials) returns (ok, detail) with a JSON-ready detail.
ORACLES lists (name, check, trials) in the order validate runs them on one
generator; trials is the quick-suite count, which the two fixed-corpus
checks (coburn-table, odekernel-span) ignore.
"""

from __future__ import annotations

import cmath

import numpy as np

from . import cpoly, finsect, kernel, odekernel, spectrum, symbols
from .symbols import HarmonicPolySymbol, SpecialFamilySymbol


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
        rep = cpoly.schur_cohn(p)
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
        quad = symbols.special_to_quadratic(sym, lam)
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
        b = kernel.closed_form_kernel_czn(m, n, c, j, K)
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
        worst = max(worst, finsect.tstar_zm_check(m, d))
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
                want = kernel.coburn_classify(m, n, c).dim_ker
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
        count = cpoly.zero_pattern(symbols.special_to_quadratic(sym), 1e-6).in_disk
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
    ode = np.vstack([odekernel.taylor_coefficients(basis, j, K) for j in range(1, m + 1)])
    rec = np.vstack([kernel.recursion_general(psi, np.eye(m)[j], K - 1).coefficients()
                     for j in range(m)])
    qa, _ = np.linalg.qr(ode.conj().T)
    qb, _ = np.linalg.qr(rec.conj().T)
    sv = np.clip(np.linalg.svd(qa.conj().T @ qb, compute_uv=False), 0.0, 1.0)
    return float(np.arccos(sv.min()))


def check_odekernel_span(rng, trials):
    angle = span_angle(odekernel.OdeKernelBasis(2, 0.1 + 0j, 0.1 + 0j), 40)
    return angle < 1e-6, {"subspace_angle": angle}


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
    ("odekernel-span", check_odekernel_span, 1),
    ("family-kernel-vs-t-quadratic", check_family_kernel_vs_t_quadratic, 200),
)
