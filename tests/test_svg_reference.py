"""The SVG scatter writer against a per-point reference.

The reference below maps every curve sample and every point to pixels one
numpy scalar at a time and formats each pair with ``{:.2f}``, as the CLI
once did.  ``cli._svg_scatter`` maps whole arrays and formats them with
``%.2f``; it must write byte-identical files on a seeded corpus of family
and general curves, 16² and 64² grids, an empty point list and fewer
colors than points.
"""

from pathlib import Path

import numpy as np
import pytest

from bergtoep import cli
from bergtoep.symbols import HarmonicPolySymbol, SpecialFamilySymbol, boundary_curve


def ref_svg_scatter(path: Path, curve: np.ndarray, points, colors, size: int = 640) -> None:
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


def _pair(rng, s=1.0) -> complex:
    re, im = rng.normal(scale=s, size=2)
    return complex(re, im)


def _symbol(rng, family: bool):
    m = int(rng.integers(1, 4))
    if family:
        return SpecialFamilySymbol(m, _pair(rng), _pair(rng, 0.3), _pair(rng))
    n = int(rng.integers(0, 3))
    return HarmonicPolySymbol(m, tuple(_pair(rng) for _ in range(m - 1)),
                              tuple(_pair(rng) for _ in range(n + 1)))


def _corpus():
    rng = np.random.default_rng(20240607)
    cases = []
    for i in range(24):
        sym = _symbol(rng, family=i % 2 == 0)
        res = 16 if i % 4 < 2 else 64
        r = float(rng.uniform(0.5, 4.0))
        points = cli._grid_points((-r, r, -r * 0.8, r * 1.2, res))
        colors = [("red", "green", "orange", "gray", f"rgb({i},{i},255)")[k % 5]
                  for k in range(len(points))]
        cases.append((f"{type(sym).__name__}-{res}-{i}", sym, points, colors))
    fam = SpecialFamilySymbol(1, 0.5, 0.0)
    cases.append(("empty-points", fam, [], []))
    cases.append(("no-colors", fam, cli._grid_points((-2, 2, -2, 2, 16)), []))
    cases.append(("fewer-colors", fam, cli._grid_points((-2, 2, -2, 2, 16)),
                  ["red"] * 37))
    # points far outside the curve set the frame
    cases.append(("wide-points", fam, [complex(-50, 3), 0j, complex(7, -80)],
                  ["blue", "blue", "blue"]))
    return cases


CORPUS = _corpus()


@pytest.mark.parametrize("name,sym,points,colors", CORPUS, ids=[c[0] for c in CORPUS])
def test_svg_matches_reference(tmp_path, name, sym, points, colors):
    curve = boundary_curve(sym, 1024)
    ref_svg_scatter(tmp_path / "ref.svg", curve, points, colors)
    cli._svg_scatter(tmp_path / "new.svg", curve, points, colors)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_cli_grid_svgs_match_reference(tmp_path, capsys):
    """The files that spectrum --out and probe --out write."""
    fam = SpecialFamilySymbol(1, 0.5, 0.0)
    argvs = {
        "spectrum_grid.svg": ["spectrum", "--family", "m=1,alpha=0.5,beta=0",
                              "--grid=-2,2,-2,2,16"],
        "probe.svg": ["probe", "--family", "m=1,alpha=0.5,beta=0",
                      "--grid=-2,2,-2,2,16", "--N", "32"],
    }
    for name, argv in argvs.items():
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        text = (tmp_path / name).read_text(encoding="utf-8")
        colors = [line.rsplit('fill="', 1)[1].split('"')[0]
                  for line in text.splitlines() if line.startswith("<circle")]
        ref_svg_scatter(tmp_path / "ref.svg", boundary_curve(fam, 1024),
                        cli._grid_points((-2, 2, -2, 2, 16)), colors)
        assert text == (tmp_path / "ref.svg").read_text(encoding="utf-8")
