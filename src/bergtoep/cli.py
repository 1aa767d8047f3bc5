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
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, cpoly, finsect, kernel, odekernel, oracles, spectrum, symbols
from .symbols import SpecialFamilySymbol


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _bounded(convert, ok, message: str):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from exc
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


_parse_K = _bounded(int, lambda K: K >= 100, "K must be at least 100")
_parse_tol = _bounded(float, lambda tol: math.isfinite(tol) and tol > 0,
                      "tolerances must be positive and finite")


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


def _grid_points(grid) -> list[complex]:
    re0, re1, im0, im1, res = grid
    return [complex(re, im) for im in np.linspace(im0, im1, res)
            for re in np.linspace(re0, re1, res)]


def _require_symbol(parser, args) -> symbols.Symbol:
    if args.family is not None:
        return args.family
    if args.symbol is None:
        parser.error("one of --family or --symbol is required")
    text = args.symbol
    try:
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text(encoding="utf-8")
        return symbols.from_json(text)
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
    zs = np.array([p for p, _ in zip(points, colors)], dtype=complex)
    xs = np.concatenate([curve.real, zs.real if len(zs) else [0.0]])
    ys = np.concatenate([curve.imag, zs.imag if len(zs) else [0.0]])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    scale = size / max(x1 - x0, y1 - y0)

    def to_px(z: np.ndarray) -> list:
        """Pixel coordinates of the complex array z, x and y interleaved."""
        px = np.empty(2 * len(z))
        px[0::2] = (z.real - x0) * scale
        px[1::2] = (y1 - z.imag) * scale
        return px.tolist()

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">']
    closed = np.append(curve, curve[0])
    pts = " ".join(["%.2f,%.2f"] * len(closed)) % tuple(to_px(closed))
    lines.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>')
    px = to_px(zs)
    for cx, cy, col in zip(px[0::2], px[1::2], colors):
        lines.append('<circle cx="%.2f" cy="%.2f" r="2.5" fill="%s"/>' % (cx, cy, col))
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

def _write_gj_samples(outdir: Path, sym: symbols.HarmonicPolySymbol, config: dict) -> None:
    """|g_j| of the closed-form basis of sym on a polar grid, when it applies."""
    radii = np.linspace(0.05, 0.95, 10)
    angles = 2 * np.pi * np.arange(24) / 24
    zs = np.concatenate([r * np.exp(1j * angles) for r in radii])
    try:
        basis = odekernel.OdeKernelBasis(sym)
        # every g_j before the file opens: a series that refuses (too
        # much rounding near the circle) writes no samples at all
        gs = [[float(abs(v)) for v in basis.eval_basis(j, zs)] for j in range(1, sym.m + 1)]
    except (ValueError, cpoly.RootFindingError):
        return
    points = list(zip(zs.real.tolist(), zs.imag.tolist()))
    with _csv_open(outdir / "odekernel_gj_samples.csv",
                   "j,re_z,im_z,abs_gj", config) as fh:
        fh.writelines(f"{j},{x!r},{y!r},{a!r}\n"
                      for j, g in enumerate(gs, start=1) for (x, y), a in zip(points, g))


def cmd_kernel(parser, args) -> int:
    sym = _require_symbol(parser, args)
    if args.K < sym.m:
        parser.error(f"K must be at least m = {sym.m}")
    config = {"symbol": symbols.to_json(sym), "K": args.K, "strict": args.strict}
    report = kernel.kernel_dimension(sym, K=args.K, ratio_tol=args.tol_ratio)
    outdir = _outdir(args)
    payload = {
        "dim": report.dim,
        "undecided": report.undecided,
        "seed_verdicts": [
            {"status": v.status, "estimated_ratio_modulus": v.estimated_ratio_modulus,
             "terms_used": v.terms_used, "tail_ratio": v.tail_ratio, "route": v.route}
            for v in report.verdicts
        ],
        "reason": report.reason,
        "dim_route": report.dim_route,
        "bounds": report.bounds,
    }
    if outdir is not None:
        for i, s in enumerate(report.basis):
            s.to_csv(outdir / f"kernel_basis_seed{i}.csv")
        if not isinstance(sym, SpecialFamilySymbol):
            _write_gj_samples(outdir, sym, config)
        elif sym.gamma != 0:
            _write_gj_samples(outdir, sym.as_harmonic(), config)
    _write_summary(outdir, "kernel", config, payload)
    print(f"kernel dim: {report.dim if report.dim is not None else 'undecided'}")
    for i, v in enumerate(report.verdicts):
        rho = "" if v.estimated_ratio_modulus is None else f" rho={v.estimated_ratio_modulus:.6g}"
        print(f"  seed {i}: {v.status}{rho}")
    if report.reason is not None:
        print(f"undecided: {report.reason}", file=sys.stderr)
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
        points = [(a, sym.beta, sym.gamma) for a in _grid_points(args.grid)]
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


def cmd_spectrum(parser, args) -> int:
    sym = _require_symbol(parser, args)
    config = {"symbol": symbols.to_json(sym), "lambda": args.lam, "grid": args.grid}
    outdir = _outdir(args)
    if args.grid is None and args.lam is None:
        parser.error("spectrum needs --lambda or --grid")
    lams = [args.lam] if args.grid is None else _grid_points(args.grid)
    if isinstance(sym, SpecialFamilySymbol):
        points = [spectrum.family_verdict(sym, lam) for lam in lams]
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
    least = finsect.min_dimension(sym)
    if args.N < least:
        parser.error(f"N must be at least {least} (twice the bandwidth "
                     f"{finsect.bandwidth(sym)}, and at least 2)")
    config = {"symbol": symbols.to_json(sym), "grid": args.grid, "N": args.N}
    outdir = _outdir(args)
    T = finsect.truncation(sym, args.N)
    lams = _grid_points(args.grid)
    grid = finsect.min_singular_values(T, lams)
    sigmas = grid.sigma.tolist()
    # below N eps ||T - lam|| the dense SVD returns rounding noise; bounded
    # points report a proven upper bound there instead
    resolved = (grid.sigma > args.N * np.finfo(float).eps * grid.nu).tolist()
    if outdir is not None:
        with _csv_open(outdir / "probe.csv", "lam_re,lam_im,sigma_min,resolved", config) as fh:
            for lam, s, ok in zip(lams, sigmas, resolved):
                fh.write(f"{lam.real!r},{lam.imag!r},{s!r},{int(ok)}\n")
        curve = symbols.boundary_curve(sym, 1024)
        smin = min(sigmas)
        smax = max(sigmas)
        span = max(smax - smin, 1e-30)
        colors = []
        for s in sigmas:
            level = int(255 * (s - smin) / span)
            colors.append(f"rgb({level},{level},255)")
        _svg_scatter(outdir / "probe.svg", curve, lams, colors)
    certified, bounded = int(grid.certified.sum()), int(grid.bounded.sum())
    _write_summary(outdir, "probe", config,
                   {"sigma_min": min(sigmas), "sigma_max": max(sigmas),
                    "certified": certified, "bounded": bounded,
                    "dense": len(lams) - certified - bounded,
                    "unresolved": resolved.count(False), "passes": grid.passes,
                    "delta": finsect.DELTA, "classes": grid.classes})
    print(f"sigma_min over grid: {min(sigmas)!r}")
    return 0


def cmd_index(parser, args) -> int:
    sym = _require_symbol(parser, args)
    if args.lam is None:
        parser.error("index needs --lambda")
    config = {"symbol": symbols.to_json(sym), "lambda": args.lam}
    try:
        idx = spectrum.fredholm_index(sym, args.lam, curve_tol=args.tol_curve)
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

_SUITES = {"quick": 1, "all": 5}


def cmd_validate(parser, args) -> int:
    mult = _SUITES[args.suite]
    rng = np.random.default_rng(args.seed)
    config = {"suite": args.suite, "seed": args.seed}
    results = []
    failures = []
    for name, check, trials in oracles.ORACLES:
        ok, detail = check(rng, trials * mult)
        results.append({"check": name, "ok": ok})
        if not ok:
            failures.append({"check": name, "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    outdir = _outdir(args)
    _write_summary(outdir, "validate", config, {"results": results})
    if failures:
        target = (outdir or Path(".")) / "validate_failures.json"
        target.write_text(json.dumps(failures, indent=2, default=_jsonable),
                          encoding="utf-8")
        print(f"failures written to {target}")
        return 1
    return 0


# ---------------------------------------------------------------------------

# every option once; each subcommand declares only the ones it reads
_OPTIONS = {
    "--family": dict(type=_parse_family,
                     help="inline family m=..,alpha=..,beta=..[,gamma=..]"),
    "--symbol": dict(help="symbol JSON: inline text starting with {, or a file path"),
    "--grid": dict(type=_parse_grid, help="re0,re1,im0,im1,res"),
    "--K": dict(type=_parse_K, default=20000),
    "--N": dict(type=int, default=128),
    "--lambda": dict(dest="lam", type=_parse_complex),
    "--tol-ratio": dict(type=_parse_tol, default=1e-3),
    "--tol-curve": dict(type=_parse_tol, default=1e-6),
    "--tol-moduli": dict(type=_parse_tol, default=1e-6),
    "--strict": dict(action="store_true"),
    "--suite": dict(choices=tuple(_SUITES), default="all"),
    "--seed": dict(type=int, default=0),
    "--out": dict(help="output directory"),
}

_SYMBOL = ("--family", "--symbol")

# the options of each subcommand besides --out, which every one takes
_COMMANDS = (
    ("kernel", cmd_kernel, _SYMBOL + ("--K", "--tol-ratio", "--strict")),
    ("classify", cmd_classify, _SYMBOL + ("--grid",)),
    ("spectrum", cmd_spectrum, _SYMBOL + ("--grid", "--lambda", "--tol-curve", "--tol-moduli")),
    ("probe", cmd_probe, _SYMBOL + ("--grid", "--N")),
    ("index", cmd_index, _SYMBOL + ("--lambda", "--tol-curve")),
    ("validate", cmd_validate, ("--suite", "--seed")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergtoep", allow_abbrev=False,
        description="Bergman-space Toeplitz spectra: kernels, indices, regions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, options in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in options + ("--out",):
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(fn=fn)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(parser, args)
    except (spectrum.OnCurveError, spectrum.CurveResolutionError,
            cpoly.RootFindingError, cpoly.NumericIntegrityError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
