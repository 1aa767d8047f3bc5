"""`spectrum.family_verdict` against the route `spectrum --family` once took.

The reference below reads the region from the closed-form image of
phi = gamma conj(z)^m + alpha z^m + beta: the ellipse of phi/gamma (a
segment when |alpha| = |gamma|), or the disk |w - beta| <= |alpha| when
gamma = 0, with a boundary band of 1e-9.  Off the boundary it takes the
winding from `classify_projective`.  `family_verdict` reads the region and
the winding from that one zero count.  The two must give the same
(region, winding) at every node of padded 16² and 64² grids on a seeded
corpus of families: m from 1 to 3, and gamma at random, 0, or with
|alpha| = |gamma|.  Points placed 1e-7 and 1e-10 (relative) off the curve
may change, but only into or out of `boundary`, and only where the
ellipse value is within 1e-6 of 1.
"""

import cmath
import math

import numpy as np
import pytest

from bergtoep import cli
from bergtoep.spectrum import BOUNDARY, EXTERIOR, INTERIOR, classify_projective, family_verdict
from bergtoep.symbols import SpecialFamilySymbol, boundary_curve

_BOUNDARY_TOL = 1e-9


def ref_ellipse_region(alpha: complex, beta: complex, lam: complex) -> str:
    a = abs(alpha)
    tau = cmath.phase(alpha) if a > 0 else 0.0
    zeta = cmath.exp(-0.5j * tau) * (complex(lam) - complex(beta))
    if abs(a - 1.0) <= 1e-12:
        if abs(zeta.imag) <= _BOUNDARY_TOL and abs(zeta.real) <= 2.0 + _BOUNDARY_TOL:
            return BOUNDARY
        return EXTERIOR
    v = (zeta.real / (1.0 + a)) ** 2 + (zeta.imag / (1.0 - a)) ** 2
    if v < 1.0 - _BOUNDARY_TOL:
        return INTERIOR
    if v > 1.0 + _BOUNDARY_TOL:
        return EXTERIOR
    return BOUNDARY


def ref_disk_region(alpha: complex, beta: complex, lam: complex) -> str:
    r = abs(complex(lam) - complex(beta))
    a = abs(complex(alpha))
    if r < a - _BOUNDARY_TOL:
        return INTERIOR
    if r > a + _BOUNDARY_TOL:
        return EXTERIOR
    return BOUNDARY


def ref_verdict(sym: SpecialFamilySymbol, lam: complex):
    if sym.gamma == 0:
        region = ref_disk_region(sym.alpha, sym.beta, lam)
    else:
        norm = sym.normalized()
        region = ref_ellipse_region(norm.alpha, norm.beta, complex(lam) / sym.gamma)
    wind = None
    if region != BOUNDARY:
        v = classify_projective(sym.m, sym.alpha, sym.beta - lam, sym.gamma)
        if v.index is not None:
            wind = -v.index
    return region, wind


def ellipse_value(sym: SpecialFamilySymbol, lam: complex) -> float:
    """1 on the image's edge: the normalized ellipse value, |w - beta| / |alpha|
    for the disk, and |zeta| / 2 along the segment (inf off its line)."""
    if sym.gamma == 0:
        return abs(lam - sym.beta) / abs(sym.alpha)
    norm = sym.normalized()
    a = abs(norm.alpha)
    zeta = cmath.exp(-0.5j * cmath.phase(norm.alpha)) * (lam / sym.gamma - norm.beta)
    if abs(a - 1.0) <= 1e-12:
        return abs(zeta.real) / 2 if abs(zeta.imag) <= _BOUNDARY_TOL else math.inf
    return (zeta.real / (1.0 + a)) ** 2 + (zeta.imag / (1.0 - a)) ** 2


KINDS = ("random", "analytic", "segment")


def family(rng, m: int, kind: str) -> SpecialFamilySymbol:
    beta = complex(*rng.uniform(-1, 1, 2))
    scale = complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()))
    rot = complex(np.exp(2j * np.pi * rng.uniform()))
    if kind == "random":
        return SpecialFamilySymbol(m, scale * rng.uniform(0, 3) * rot, beta, scale)
    if kind == "analytic":
        return SpecialFamilySymbol(m, scale, beta, 0j)
    return SpecialFamilySymbol(m, scale * rot, beta, scale)


def corpus(count: int, seed: int = 20240610) -> list[SpecialFamilySymbol]:
    """count families, m and the kind of gamma in turn."""
    rng = np.random.default_rng(seed)
    return [family(rng, 1 + i % 3, KINDS[i // 3 % 3]) for i in range(count)]


def padded_grid(sym: SpecialFamilySymbol, res: int) -> list[complex]:
    curve = boundary_curve(sym, 256)
    re0, re1 = float(curve.real.min()), float(curve.real.max())
    im0, im1 = float(curve.imag.min()), float(curve.imag.max())
    pad = 0.2 * max(re1 - re0, im1 - im0)
    return cli._grid_points((re0 - pad, re1 + pad, im0 - pad, im1 + pad, res))


def near_curve(sym: SpecialFamilySymbol, angles: int = 64) -> list[complex]:
    """beta + (1 +- d)(w - beta) for w on phi(T) and d = 1e-7, 1e-10."""
    w = sym.eval(np.exp(2j * np.pi * (np.arange(angles) + 0.5) / angles))
    return [complex(sym.beta + (1 + s * d) * (p - sym.beta))
            for p in w for d in (1e-7, 1e-10) for s in (-1, 1)]


def grid_differences(syms, resolutions=(16, 64)):
    """(nodes compared, nodes where family_verdict and the reference differ)."""
    nodes, diffs = 0, []
    for sym in syms:
        for res in resolutions:
            for lam in padded_grid(sym, res):
                nodes += 1
                if family_verdict(sym, lam) != ref_verdict(sym, lam):
                    diffs.append((sym, lam))
    return nodes, diffs


def near_curve_changes(syms):
    """(points compared, [(sym, lam, new, ref)] where the verdicts differ)."""
    points, changes = 0, []
    for sym in syms:
        for lam in near_curve(sym):
            points += 1
            new, ref = family_verdict(sym, lam), ref_verdict(sym, lam)
            if new != ref:
                changes.append((sym, lam, new, ref))
    return points, changes


CORPUS = corpus(18)


@pytest.mark.parametrize("kind", KINDS)
def test_grid_nodes_match_reference(kind):
    syms = [s for i, s in enumerate(CORPUS) if KINDS[i // 3 % 3] == kind]
    nodes, diffs = grid_differences(syms)
    assert nodes == len(syms) * (16 ** 2 + 64 ** 2)
    assert diffs == []


def test_near_curve_changes_are_boundary_band_only():
    points, changes = near_curve_changes(CORPUS)
    assert points == len(CORPUS) * 256
    for sym, lam, new, ref in changes:
        assert BOUNDARY in (new[0], ref[0]), (sym, lam, new, ref)
        assert abs(ellipse_value(sym, lam) - 1) <= 1e-6, (sym, lam, new, ref)


def test_constant_symbol_is_a_point():
    # gamma = alpha = 0: the image is {beta}; only beta itself is boundary
    sym = SpecialFamilySymbol(2, 0j, 0.5, 0j)
    assert family_verdict(sym, 0.5) == ref_verdict(sym, 0.5) == (BOUNDARY, None)
    assert family_verdict(sym, 1.5) == ref_verdict(sym, 1.5) == (EXTERIOR, 0)
