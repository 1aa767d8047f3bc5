"""Command-line front end: kernel, classify, spectrum, probe, index, validate.

Every subcommand is a thin shell over the library and echoes its effective
configuration into a JSON summary next to any CSV/SVG outputs.  Exit codes:
0 success, 1 computation-level failure (oracle mismatch, undecided verdict
under --strict, validation failure, or a library error: a point closer
to the sampled curve than a winding number resolves, an unresolved
winding number, a root set that fails its acceptance tests, a
non-Hermitian Schur-Cohn matrix), 2 usage errors.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, cpoly, finsect, kernel, odekernel, spectrum, symbols
from .symbols import HarmonicPolySymbol, SpecialFamilySymbol


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_family(text: str) -> SpecialFamilySymbol:
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(f"bad family item {part!r}")
        key, val = part.split("=", 1)
        fields[key.strip()] = val.strip()
    try:
        m = int(fields.pop("m"))
        alpha = complex(fields.pop("alpha", "0"))
        beta = complex(fields.pop("beta", "0"))
        gamma = complex(fields.pop("gamma", "1"))
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad --family value: {exc}") from exc
    if fields:
        raise argparse.ArgumentTypeError(f"unknown family keys {sorted(fields)}")
    try:
        return SpecialFamilySymbol(m, alpha, beta, gamma)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --family value: {exc}") from exc


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("grid must be re0,re1,im0,im1,res")
    re0, re1, im0, im1 = (float(p) for p in parts[:4])
    if not all(math.isfinite(x) for x in (re0, re1, im0, im1)):
        raise argparse.ArgumentTypeError("grid bounds must be finite")
    res = int(parts[4])
    if res < 16:
        raise argparse.ArgumentTypeError("grid resolution must be at least 16")
    return re0, re1, im0, im1, res


def _load_symbol(args) -> symbols.Symbol:
    if args.family is not None:
        return args.family
    if args.symbol is not None:
        text = args.symbol
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text(encoding="utf-8")
        return symbols.from_json(text)
    raise SystemExit(2)


def _require_symbol(parser, args) -> symbols.Symbol:
    if args.family is None and args.symbol is None:
        parser.error("one of --family or --symbol is required")
    try:
        return _load_symbol(args)
    except OSError as exc:
        parser.error(f"cannot read symbol file: {exc}")
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        parser.error(f"bad symbol JSON: {exc}")


def _outdir(args) -> Path | None:
    if args.out is None:
        return None
    p = Path(args.out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_summary(outdir: Path | None, name: str, config: dict, payload: dict) -> None:
    if outdir is None:
        return
    doc = {"command": name, "version": __version__, "config": config, "result": payload}
    (outdir / f"{name}_summary.json").write_text(
        json.dumps(doc, indent=2, default=_jsonable), encoding="utf-8")


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return str(v)


def _csv_open(path: Path, header: str, config: dict):
    fh = open(path, "w", encoding="utf-8")
    fh.write("# config: " + json.dumps(config, default=_jsonable, sort_keys=True) + "\n")
    fh.write(header + "\n")
    return fh


def _svg_scatter(path: Path, curve: np.ndarray, points, colors, size: int = 640) -> None:
    xs = np.concatenate([curve.real, np.array([p.real for p, _ in zip(points, colors)] or [0.0])])
    ys = np.concatenate([curve.imag, np.array([p.imag for p, _ in zip(points, colors)] or [0.0])])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    scale = size / max(x1 - x0, y1 - y0)

    def to_px(z):
        return (z.real - x0) * scale, (y1 - z.imag) * scale

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">']
    pts = " ".join("{:.2f},{:.2f}".format(*to_px(z)) for z in curve)
    pts += " {:.2f},{:.2f}".format(*to_px(curve[0]))
    lines.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>')
    for z, col in zip(points, colors):
        px, py = to_px(z)
        lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="{col}"/>')
    lines.append("</svg>")
    path.write_text("\n".join(lines), encoding="utf-8")


_VERDICT_COLORS = {
    spectrum.IN_ESSENTIAL: "red",
    spectrum.IN_BY_INDEX: "orange",
    spectrum.OUT_CERTIFIED: "green",
    spectrum.ASSUMPTION_FAILED: "gray",
    spectrum.INTERIOR: "orange",
    spectrum.BOUNDARY: "red",
    spectrum.EXTERIOR: "green",
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _write_gj_samples(outdir: Path, sym: SpecialFamilySymbol, config: dict) -> None:
    """|g_j| of the closed-form basis on a polar grid, when it applies."""
    if sym.gamma == 0:
        return
    norm = sym.normalized()
    try:
        basis = odekernel.OdeKernelBasis(norm.m, norm.alpha, norm.beta)
    except (ValueError, cpoly.NumericIntegrityError):
        return
    radii = np.linspace(0.05, 0.95, 10)
    angles = 2 * np.pi * np.arange(24) / 24
    zs = np.concatenate([r * np.exp(1j * angles) for r in radii])
    with _csv_open(outdir / "odekernel_gj_samples.csv",
                   "j,re_z,im_z,abs_gj", config) as fh:
        for j in range(1, norm.m + 1):
            vals = basis.eval_basis(j, zs)
            for z, v in zip(zs, vals):
                fh.write(f"{j},{float(z.real)!r},{float(z.imag)!r},{float(abs(v))!r}\n")


def cmd_kernel(parser, args) -> int:
    sym = _require_symbol(parser, args)
    config = {"symbol": symbols.to_json(sym), "K": args.K, "strict": args.strict}
    report = kernel.kernel_dimension(sym, K=args.K, ratio_tol=args.tol_ratio)
    outdir = _outdir(args)
    payload = {
        "dim": report.dim,
        "undecided": report.undecided,
        "seed_verdicts": [
            {"status": v.status, "estimated_ratio_modulus": v.estimated_ratio_modulus,
             "terms_used": v.terms_used, "tail_ratio": v.tail_ratio}
            for v in report.verdicts
        ],
    }
    if outdir is not None:
        for i, s in enumerate(report.basis):
            s.to_csv(outdir / f"kernel_basis_seed{i}.csv")
        if isinstance(sym, SpecialFamilySymbol):
            _write_gj_samples(outdir, sym, config)
    _write_summary(outdir, "kernel", config, payload)
    print(f"kernel dim: {report.dim if report.dim is not None else 'undecided'}")
    for i, v in enumerate(report.verdicts):
        rho = "" if v.estimated_ratio_modulus is None else f" rho={v.estimated_ratio_modulus:.6g}"
        print(f"  seed {i}: {v.status}{rho}")
    if report.undecided and args.strict:
        return 1
    return 0


def cmd_classify(parser, args) -> int:
    sym = _require_symbol(parser, args)
    if not isinstance(sym, SpecialFamilySymbol):
        parser.error("classify needs a --family symbol")
    config = {"symbol": symbols.to_json(sym), "grid": args.grid}
    outdir = _outdir(args)
    points = [(sym.alpha, sym.beta, sym.gamma)]
    if args.grid is not None:
        re0, re1, im0, im1, res = args.grid
        alphas = [complex(re, im)
                  for im in np.linspace(im0, im1, res)
                  for re in np.linspace(re0, re1, res)]
        points = [(a, sym.beta, sym.gamma) for a in alphas]
    rows = []
    counts: dict[str, int] = {}
    for a, b, g in points:
        verdict = spectrum.classify_projective(sym.m, a, b, g)
        counts[verdict.region] = counts.get(verdict.region, 0) + 1
        rows.append((a, b, g, verdict))
    if outdir is not None:
        with _csv_open(outdir / "classify.csv",
                       "alpha_re,alpha_im,beta_re,beta_im,gamma_re,gamma_im,region,index",
                       config) as fh:
            for a, b, g, v in rows:
                idx = "" if v.index is None else v.index
                fh.write(f"{a.real!r},{a.imag!r},{b.real!r},{b.imag!r},"
                         f"{g.real!r},{g.imag!r},{v.region},{idx}\n")
    _write_summary(outdir, "classify", config, {"counts": counts})
    if len(rows) == 1:
        v = rows[0][3]
        idx = "n/a" if v.index is None else v.index
        print(f"region: {v.region} index: {idx} root_moduli: {list(v.root_moduli)}")
    else:
        print("region counts: " + json.dumps(counts, sort_keys=True))
    return 0


def _special_spectrum_verdict(sym: SpecialFamilySymbol, lam: complex):
    if sym.gamma == 0:
        region = spectrum.analytic_family_region(sym.alpha, sym.beta, lam)
    else:
        norm = sym.normalized()
        region = spectrum.special_family_region(norm.m, norm.alpha, norm.beta,
                                                complex(lam) / sym.gamma)
    wind = None
    if region != spectrum.BOUNDARY:
        v = spectrum.classify_projective(sym.m, sym.alpha, sym.beta - lam, sym.gamma)
        if v.index is not None:
            wind = -v.index
    return region, wind


def cmd_spectrum(parser, args) -> int:
    sym = _require_symbol(parser, args)
    config = {"symbol": symbols.to_json(sym), "lambda": args.lam, "grid": args.grid}
    outdir = _outdir(args)
    if args.grid is None and args.lam is None:
        parser.error("spectrum needs --lambda or --grid")
    if args.grid is None:
        lams = [args.lam]
    else:
        re0, re1, im0, im1, res = args.grid
        lams = [complex(re, im)
                for im in np.linspace(im0, im1, res)
                for re in np.linspace(re0, re1, res)]
    if isinstance(sym, SpecialFamilySymbol):
        points = [_special_spectrum_verdict(sym, lam) for lam in lams]
    else:
        points = [(v.status, v.winding) for v in spectrum.membership_grid(
            sym, lams, curve_tol=args.tol_curve, rel_tol=args.tol_moduli)]

    if args.grid is None:
        status, wind = points[0]
        _write_summary(outdir, "spectrum", config, {"status": status, "winding": wind})
        if status == spectrum.INTERIOR:
            print("in (interior)")
        elif status == spectrum.BOUNDARY:
            print("in (boundary)")
        elif status == spectrum.EXTERIOR:
            print("out (exterior)")
        else:
            print(status)
        return 0

    rows = [(lam, status, wind, None if wind is None else -wind)
            for lam, (status, wind) in zip(lams, points)]
    if outdir is not None:
        with _csv_open(outdir / "spectrum_grid.csv",
                       "lam_re,lam_im,verdict,winding,index", config) as fh:
            for lam, status, wind, index in rows:
                w = "" if wind is None else wind
                i = "" if index is None else index
                fh.write(f"{lam.real!r},{lam.imag!r},{status},{w},{i}\n")
        curve = symbols.boundary_curve(sym, 1024)
        colors = [_VERDICT_COLORS.get(s, "blue") for _, s, _, _ in rows]
        _svg_scatter(outdir / "spectrum_grid.svg", curve,
                     [lam for lam, _, _, _ in rows], colors)
    counts: dict[str, int] = {}
    for _, status, _, _ in rows:
        counts[status] = counts.get(status, 0) + 1
    _write_summary(outdir, "spectrum", config, {"counts": counts})
    print("verdict counts: " + json.dumps(counts, sort_keys=True))
    return 0


def cmd_probe(parser, args) -> int:
    sym = _require_symbol(parser, args)
    if args.grid is None:
        parser.error("probe needs --grid")
    config = {"symbol": symbols.to_json(sym), "grid": args.grid, "N": args.N}
    outdir = _outdir(args)
    T = finsect.truncation(sym, args.N)
    re0, re1, im0, im1, res = args.grid
    rows = []
    for im in np.linspace(im0, im1, res):
        for re in np.linspace(re0, re1, res):
            lam = complex(re, im)
            rows.append((lam, finsect.min_singular_value(T, lam)))
    if outdir is not None:
        with _csv_open(outdir / "probe.csv", "lam_re,lam_im,sigma_min", config) as fh:
            for lam, s in rows:
                fh.write(f"{lam.real!r},{lam.imag!r},{s!r}\n")
        curve = symbols.boundary_curve(sym, 1024)
        smin = min(s for _, s in rows)
        smax = max(s for _, s in rows)
        span = max(smax - smin, 1e-30)
        colors = []
        for _, s in rows:
            level = int(255 * (s - smin) / span)
            colors.append(f"rgb({level},{level},255)")
        _svg_scatter(outdir / "probe.svg", curve, [lam for lam, _ in rows], colors)
    _write_summary(outdir, "probe", config,
                   {"sigma_min": min(s for _, s in rows),
                    "sigma_max": max(s for _, s in rows)})
    print(f"sigma_min over grid: {min(s for _, s in rows)!r}")
    return 0


def cmd_index(parser, args) -> int:
    sym = _require_symbol(parser, args)
    if args.lam is None:
        parser.error("index needs --lambda")
    config = {"symbol": symbols.to_json(sym), "lambda": args.lam}
    try:
        idx = spectrum.fredholm_index(sym, args.lam, curve_tol=args.tol_curve,
                                      degeneracy_tol=args.tol_degeneracy)
    except spectrum.OnCurveError as exc:
        print(f"not Fredholm: {exc}")
        return 1
    except spectrum.RouteMismatchError as exc:
        print(f"route mismatch: {exc}")
        return 1
    _write_summary(_outdir(args), "index", config, {"index": idx})
    print(f"index: {idx}")
    return 0


# ---------------------------------------------------------------------------
# validate: cross-module oracle suite
# ---------------------------------------------------------------------------

def _check_schur_cohn_vs_roots(rng, trials):
    bad = []
    done = 0
    while done < trials:
        deg = int(rng.integers(1, 9))
        cs = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
        p = cpoly.CPoly.make(list(cs))
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


def _check_winding_vs_zero_count(rng, trials):
    bad = []
    done = 0
    while done < trials:
        m = int(rng.integers(1, 4))
        alpha = complex(*rng.uniform(-1.5, 1.5, 2))
        beta = complex(*rng.uniform(-1.5, 1.5, 2))
        lam = complex(*rng.uniform(-3, 3, 2))
        sym = SpecialFamilySymbol(m, alpha, beta)
        if spectrum.curve_distance(sym, lam) < 1e-3:
            continue
        quad = symbols.special_to_quadratic(sym, lam)
        count = cpoly.zero_pattern(quad, 1e-6).in_disk
        if count is None:
            continue
        done += 1
        wind = spectrum.winding_of_symbol(sym, lam).winding
        if wind + m != m * count:
            bad.append({"m": m, "alpha": [alpha.real, alpha.imag],
                        "beta": [beta.real, beta.imag],
                        "lam": [lam.real, lam.imag],
                        "wind": wind, "count": count})
    return not bad, {"trials": trials, "mismatches": bad}


def _check_recursion_vs_closed_form(rng, trials):
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(0, 4))
        c = complex(*rng.uniform(-1.5, 1.5, 2))
        j = int(rng.integers(0, m))
        seed = [0j] * m
        seed[j] = 1.0
        K = 120
        f = [0j] * (n + 1)
        f[n] = c
        a = kernel.recursion_analytic_perturbation(m, f, seed, K)
        b = kernel.closed_form_kernel_czn(m, n, c, j, K)
        diff = float(np.max(np.abs(a.coefficients() - b.coefficients())))
        scale = float(np.max(np.abs(b.coefficients()))) or 1.0
        worst = max(worst, diff / scale)
    return worst <= 1e-12, {"worst_rel_diff": worst}


def _check_tstar_identity(rng, trials):
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 5))
        deg = int(rng.integers(m + 1, 51))
        d = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
        d[:m] = 0
        worst = max(worst, finsect.tstar_zm_check(m, d))
    return worst <= 1e-12, {"worst_residual": worst}


def _check_region_agreement(rng, trials):
    bad = []
    for _ in range(trials):
        alpha = complex(*rng.uniform(-1.2, 1.2, 2))
        beta = complex(*rng.uniform(-1.5, 1.5, 2))
        gamma = complex(*rng.uniform(-1.2, 1.2, 2))
        v = spectrum.classify_projective(2, alpha, beta, gamma)
        chk = v.inequality_checks
        if chk.region is None or chk.margin <= 1e-9 or v.region == spectrum.NOT_FREDHOLM:
            continue
        if not chk.agrees_with_roots:
            bad.append({"alpha": [alpha.real, alpha.imag],
                        "beta": [beta.real, beta.imag],
                        "gamma": [gamma.real, gamma.imag],
                        "roots": v.region, "inequalities": chk.region})
    return not bad, {"trials": trials, "mismatches": bad}


def _check_coburn_table(rng, trials):
    cs = [0.3, 0.5 * np.exp(1j * np.pi / 3), 1.5]
    bad = []
    for m in (1, 2):
        for n in (0, 1, 2):
            for c in cs:
                rep = kernel.kernel_dimension((m, [0j] * n + [complex(c)]), K=4000)
                want = kernel.coburn_classify(m, n, c).dim_ker
                if rep.dim != want:
                    bad.append({"m": m, "n": n, "c": [complex(c).real, complex(c).imag],
                                "got": rep.dim, "want": want})
    return not bad, {"mismatches": bad}


def _check_ellipse_vs_classify(rng, trials):
    bad = []
    for _ in range(trials):
        m = int(rng.integers(1, 4))
        a = 0.85 * np.sqrt(rng.uniform())
        alpha = a * np.exp(2j * np.pi * rng.uniform())
        beta = complex(*rng.uniform(-1, 1, 2))
        theta = 2 * np.pi * rng.uniform()
        tau = np.angle(alpha) if alpha != 0 else 0.0
        edge = complex((1 + a) * np.cos(theta), (1 - a) * np.sin(theta))
        for s, want_inside in ((0.8, True), (1.2, False)):
            lam = beta + np.exp(0.5j * tau) * (s * edge)
            region = spectrum.special_family_region(m, alpha, beta, lam)
            if want_inside and region != spectrum.INTERIOR:
                bad.append({"case": "interior", "m": m, "s": s})
                continue
            if not want_inside:
                if region != spectrum.EXTERIOR:
                    bad.append({"case": "exterior-region", "m": m, "s": s})
                    continue
                v = spectrum.classify_projective(m, alpha, beta - lam, 1.0)
                if v.region != spectrum.OMEGA1:
                    bad.append({"case": "exterior-classify", "m": m,
                                "got": v.region})
    return not bad, {"trials": trials, "mismatches": bad}


def _check_odekernel_span(rng, trials):
    m, alpha, beta = 2, 0.1 + 0j, 0.1 + 0j
    basis = odekernel.OdeKernelBasis(m, alpha, beta)
    K = 40
    ode = np.vstack([odekernel.taylor_coefficients(basis, j, K) for j in (1, 2)])
    rec = np.vstack([
        kernel.recursion_special_family(m, alpha, beta, j, K - 1).coefficients()
        for j in range(m)
    ])
    angle = _subspace_angle(ode, rec)
    return angle < 1e-6, {"subspace_angle": angle}


def _subspace_angle(A: np.ndarray, B: np.ndarray) -> float:
    qa, _ = np.linalg.qr(A.conj().T)
    qb, _ = np.linalg.qr(B.conj().T)
    sv = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    sv = np.clip(sv, 0.0, 1.0)
    return float(np.arccos(sv.min()))


def _check_boundary_identity(rng, trials):
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
        phi = symbols.associated_poly(sym, lam).poly
        lhs = sym.eval(z) - lam
        rhs = cpoly.eval_poly_many(phi.coeffs, z) / z**m
        scale = float(np.max(np.abs(rhs))) or 1.0
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst <= 1e-12, {"worst_rel_diff": worst}


_SUITES = {
    "quick": 1,
    "all": 5,
}


def cmd_validate(parser, args) -> int:
    if args.suite not in _SUITES:
        parser.error(f"unknown suite {args.suite!r} (use quick or all)")
    mult = _SUITES[args.suite]
    rng = np.random.default_rng(args.seed)
    checks = [
        ("boundary-identity", _check_boundary_identity, 40 * mult),
        ("schur-cohn-vs-roots", _check_schur_cohn_vs_roots, 100 * mult),
        ("winding-vs-zero-count", _check_winding_vs_zero_count, 40 * mult),
        ("recursion-vs-closed-form", _check_recursion_vs_closed_form, 40 * mult),
        ("tstar-integral-identity", _check_tstar_identity, 40 * mult),
        ("region-inequality-agreement", _check_region_agreement, 200 * mult),
        ("coburn-table", _check_coburn_table, 1),
        ("ellipse-vs-classify", _check_ellipse_vs_classify, 20 * mult),
        ("odekernel-span", _check_odekernel_span, 1),
    ]
    config = {"suite": args.suite, "seed": args.seed}
    results = []
    failures = []
    for name, fn, trials in checks:
        ok, detail = fn(rng, trials)
        results.append((name, ok, detail))
        if not ok:
            failures.append({"check": name, "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    outdir = _outdir(args)
    _write_summary(outdir, "validate", config,
                   {"results": [{"check": n, "ok": ok} for n, ok, _ in results]})
    if failures:
        target = (outdir or Path(".")) / "validate_failures.json"
        target.write_text(json.dumps(failures, indent=2, default=_jsonable),
                          encoding="utf-8")
        print(f"failures written to {target}")
        return 1
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergtoep",
        description="Bergman-space Toeplitz spectra: kernels, indices, regions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_lambda=False):
        p.add_argument("--family", type=_parse_family,
                       help="inline family m=..,alpha=..,beta=..[,gamma=..]")
        p.add_argument("--symbol",
                       help="symbol JSON: inline text starting with {, or a file path")
        p.add_argument("--grid", type=_parse_grid, default=None,
                       help="re0,re1,im0,im1,res")
        p.add_argument("--K", type=int, default=20000)
        p.add_argument("--N", type=int, default=128)
        p.add_argument("--lambda", dest="lam", type=_parse_complex, default=None)
        p.add_argument("--tol-ratio", type=float, default=1e-3)
        p.add_argument("--tol-curve", type=float, default=1e-6)
        p.add_argument("--tol-moduli", type=float, default=1e-6)
        p.add_argument("--tol-degeneracy", type=float, default=1e-10)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--strict", action="store_true")

    for name, fn in (("kernel", cmd_kernel), ("classify", cmd_classify),
                     ("spectrum", cmd_spectrum), ("probe", cmd_probe),
                     ("index", cmd_index)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("validate")
    common(p)
    p.add_argument("--suite", default="all")
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.K < 100:
        parser.error("K must be at least 100")
    for tol in (args.tol_ratio, args.tol_curve, args.tol_moduli, args.tol_degeneracy):
        if tol <= 0:
            parser.error("tolerances must be positive")
    try:
        return args.fn(parser, args)
    except (spectrum.OnCurveError, spectrum.CurveResolutionError,
            cpoly.RootFindingError, cpoly.NumericIntegrityError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
