"""Winding numbers, Fredholm indices, spectrum membership, region maps.

The essential spectrum of T_phi for a symbol continuous on the closed
disk is the boundary curve phi(unit circle), and off that curve the
Fredholm index is minus the winding number of the curve about the point.
For the special family gamma conj(z)^m + alpha z^m + beta the symbol is
(alpha z^{2m} + (beta-lam) z^m + gamma)/z^m on the circle, so the index is
also m - m * (number of zeros of the t-quadratic in the unit disk).

The parameter space of the pencil gamma T_{conj(z)^m} + alpha T_{z^m} +
beta I splits into three Fredholm regions by that zero count:

    Omega0 (no zeros in D):   index  m,
    Omega1 (one zero in D):   index  0, invertible,
    Omega2 (two zeros in D):  index -m,

with the remaining parameters (a zero on the circle) not Fredholm.  The
zero count (classify_projective) answers every family question: the
pencil regions, spectrum membership (family_verdict: sigma(T_phi) is the
closure of phi(D), where the index is nonzero) and the cross-check of
fredholm_index.  The closed forms, the image of phi (an ellipse, a disk
or a segment) and the region inequalities in |gamma|^2 - |alpha|^2
versus |alpha conj(beta) - beta conj(gamma)|, are independent checks in
`oracles`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cpoly
from .cpoly import CPoly
from .symbols import (HarmonicPolySymbol, SpecialFamilySymbol, Symbol,
                      associated_poly, boundary_curve)


class OnCurveError(Exception):
    """The query point is (numerically) on the boundary curve."""


class CurveResolutionError(Exception):
    """The sampled curve is too coarse for a safe winding number."""


class RouteMismatchError(Exception):
    """Two independent computations of the same quantity disagree."""


@dataclass(frozen=True)
class WindingResult:
    winding: int
    min_distance_to_curve: float


# phi(T) is sampled at _CURVE_SAMPLES roots of unity, and a winding that
# sampling cannot resolve is retried on twice as many, up to _MAX_SAMPLES
_CURVE_SAMPLES = 512
_MAX_SAMPLES = 1 << 16
_ZOOM_ROUNDS = 3
# entries of one (points x samples) array in the grid engine: blocks of 32
# points at 512 samples run as fast as a whole grid at once, in a small
# fraction of its memory
_BLOCK_ENTRIES = 32 * 512


def _blocks(points: int, samples: int):
    rows = max(1, _BLOCK_ENTRIES // samples)
    return (slice(i, i + rows) for i in range(0, points, rows))


def winding_numbers(curve, lams) -> list:
    """Winding of a closed sampled curve about each lam, by argument
    increments, computed for blocks of points at once.

    Each entry is the WindingResult, or the exception that decides the
    point: OnCurveError within 1e-9 of a sample, and CurveResolutionError
    when an increment reaches pi/2 (the polygon may alias) or the
    accumulated angle lands farther than 0.1 from an integer multiple of
    2 pi.  The curve needs at least 64 samples (ValueError).
    """
    curve = np.asarray(curve, dtype=complex)
    if len(curve) < 64:
        raise ValueError("need at least 64 samples")
    lams = np.asarray(lams, dtype=complex)
    out: list = []
    for blk in _blocks(len(lams), len(curve)):
        rel = curve - lams[blk, None]
        dist = np.abs(rel).min(axis=1)
        ang = np.arctan2(rel.imag, rel.real)
        del rel     # in place from here: a 65536-sample curve is 1 MB per point
        inc = np.empty_like(ang)
        np.subtract(ang[:, 1:], ang[:, :-1], out=inc[:, :-1])
        np.subtract(ang[:, :1], ang[:, -1:], out=inc[:, -1:])
        del ang
        inc += np.pi
        np.mod(inc, 2 * np.pi, out=inc)
        inc -= np.pi
        steep = np.abs(inc).max(axis=1) >= np.pi / 2
        total = inc.sum(axis=1) / (2 * np.pi)
        for d, s, t in zip(dist.tolist(), steep.tolist(), total.tolist()):
            if d < 1e-9:
                out.append(OnCurveError(f"point within {d:.2e} of the sampled curve"))
            elif s:
                out.append(CurveResolutionError("argument increment >= pi/2; refine the curve"))
            else:
                w = round(t)
                out.append(CurveResolutionError(f"accumulated angle {t:.4f} not near an integer")
                           if abs(t - w) > 0.1 else WindingResult(w, d))
    return out


def _windings(sym: Symbol, curve: np.ndarray, lams: np.ndarray) -> list:
    """Winding of phi(unit circle) about each lam, from phi sampled as
    curve: the points the samples cannot resolve are retried on twice as
    many, up to _MAX_SAMPLES."""
    out = winding_numbers(curve, lams)
    samples = len(curve)
    retry = [i for i, r in enumerate(out) if isinstance(r, CurveResolutionError)]
    while retry and samples < _MAX_SAMPLES:
        samples *= 2
        for i, r in zip(retry, winding_numbers(boundary_curve(sym, samples), lams[retry])):
            out[i] = r
        retry = [i for i in retry if isinstance(out[i], CurveResolutionError)]
    return out


@functools.lru_cache(maxsize=8)
def _zoom_windows(samples: int) -> tuple[np.ndarray, ...]:
    # angle offsets of the zoom rounds around a point's closest sample,
    # the same for every point
    windows = []
    width = 2 * np.pi / samples
    for _ in range(_ZOOM_ROUNDS):
        window = np.linspace(-width, width, 129)
        window.flags.writeable = False
        windows.append(window)
        width /= 32.0
    return tuple(windows)


def curve_distances(sym: Symbol, curve: np.ndarray, lams) -> np.ndarray:
    """Distance from each lam to phi(unit circle), given phi sampled at the
    len(curve)-th roots of unity (boundary_curve): the closest sample, then
    _ZOOM_ROUNDS rounds of 129 points around the closest angle so far, each
    window 1/32 as wide as the last.  Blocks of points are zoomed at once."""
    samples = len(curve)
    lams = np.asarray(lams, dtype=complex)
    best = np.empty(len(lams))
    for blk in _blocks(len(lams), samples):
        lam = lams[blk, None]
        d = np.abs(curve - lam)
        rows = np.arange(len(d))
        i = d.argmin(axis=1)
        dist, center = d[rows, i], 2 * np.pi * i / samples
        for window in _zoom_windows(samples):
            local = center[:, None] + window
            d = np.abs(sym.eval(np.exp(1j * local)) - lam)
            i = d.argmin(axis=1)
            di = d[rows, i]
            closer = di < dist
            dist = np.where(closer, di, dist)
            center = np.where(closer, local[rows, i], center)
        best[blk] = dist
    return best


def curve_windings(sym: Symbol, lams, curve_tol: float):
    """The curve stage of every symbol-level answer: the distance from each
    lam to phi(T), and, by index into lams, the winding of phi(T) about
    each point farther than curve_tol (a WindingResult, or the exception
    that decides the point).

    phi is sampled once at _CURVE_SAMPLES roots of unity, for the distances
    and the first winding pass alike; only the points that sampling cannot
    resolve are refined (see _windings)."""
    lams = np.array(lams, dtype=complex)
    curve = boundary_curve(sym, _CURVE_SAMPLES)
    dist = curve_distances(sym, curve, lams)
    off = np.flatnonzero(~(dist <= curve_tol))
    return dist.tolist(), dict(zip(off.tolist(), _windings(sym, curve, lams[off])))


def fredholm_index(sym: Symbol, lam: complex = 0j, curve_tol: float = 1e-6) -> int:
    """Index of T_phi - lam as minus the winding number of phi(T) about lam.

    For the special family the zero-count route (classify_projective on
    the shifted pencil) answers as well, and a disagreement raises
    RouteMismatchError; a t-zero within 1e-9 of the circle leaves the
    count undecided and the winding answers alone.
    """
    dist, winds = curve_windings(sym, [complex(lam)], curve_tol)
    if not winds:
        raise OnCurveError(f"lam within {dist[0]:.2e} of phi(T); not Fredholm")
    wind = winds[0]
    if isinstance(wind, Exception):
        raise wind
    index = -wind.winding
    if isinstance(sym, SpecialFamilySymbol):
        other = classify_projective(sym.m, sym.alpha, sym.beta - lam, sym.gamma).index
        if other is not None and other != index:
            raise RouteMismatchError(f"winding route gives {index}, zero-count "
                                     f"route gives {other}")
    return index


IN_ESSENTIAL = "in_essential"
IN_BY_INDEX = "in_by_index"
OUT_CERTIFIED = "out_certified"
ASSUMPTION_FAILED = "assumption_failed"


@dataclass(frozen=True)
class SpectrumVerdict:
    status: str
    distance: float
    winding: Optional[int] = None
    poincare_moduli: tuple[float, ...] = ()


def membership_grid(sym: HarmonicPolySymbol, lams, curve_tol: float = 1e-6,
                    rel_tol: float = 1e-6) -> list[SpectrumVerdict]:
    """Classify each lam against sigma(T_phi), in the order of lams.

    Within curve_tol of the boundary curve: in_essential.  Nonzero winding:
    in_by_index.  Winding zero: the point is out of the spectrum provided
    the shifted associated polynomial phi_lam has zeros of distinct moduli
    (rel_tol; the recursion asymptotics then certify invertibility); when
    that hypothesis fails no verdict is claimed (assumption_failed).

    The points share the curve stage (curve_windings), and the zeros of
    every winding-zero phi_lam come from one cpoly.roots_many call.  Each
    point gets exactly the floating-point operations it gets alone, so a
    verdict does not depend on the other points.  When points raise, the
    exception of the first of them in the order of lams is raised.
    """
    lams = [complex(lam) for lam in lams]
    dist, winds = curve_windings(sym, lams, curve_tol)
    failed = [i for i, r in winds.items() if isinstance(r, Exception)]
    stop = min(failed, default=len(lams))
    zero = [i for i, r in winds.items() if i < stop and r.winding == 0]
    # the disk count goes unread, so the circle tolerance is 0
    zps = dict(zip(zero, cpoly.zero_patterns(
        [associated_poly(sym, lams[i]) for i in zero], 0.0)))
    if failed:
        raise winds[stop]
    verdicts = []
    for i, d in enumerate(dist):
        if i not in winds:
            verdicts.append(SpectrumVerdict(IN_ESSENTIAL, d))
        elif i not in zps:
            verdicts.append(SpectrumVerdict(IN_BY_INDEX, d, winds[i].winding))
        else:
            status = OUT_CERTIFIED if zps[i].distinct(rel_tol) else ASSUMPTION_FAILED
            verdicts.append(SpectrumVerdict(status, d, 0, zps[i].moduli))
    return verdicts


OMEGA0 = "Omega0"
OMEGA1 = "Omega1"
OMEGA2 = "Omega2"
NOT_FREDHOLM = "NotFredholm"

# a t-zero within _CIRCLE_TOL of the circle makes the pencil NotFredholm
_CIRCLE_TOL = 1e-9


@dataclass(frozen=True)
class RegionVerdict:
    region: str
    index: Optional[int]
    root_moduli: tuple[float, ...]


def classify_projective(m: int, alpha: complex, beta: complex, gamma: complex) -> RegionVerdict:
    """Fredholm-region classification of the pencil parameters (alpha, beta, gamma).

    The zero count of alpha t^2 + beta t + gamma in the unit disk decides
    the region, NotFredholm inside the _CIRCLE_TOL band.
    """
    if m < 1:
        raise ValueError("m must be positive")
    alpha, beta, gamma = complex(alpha), complex(beta), complex(gamma)
    if alpha == 0 and beta == 0 and gamma == 0:
        return RegionVerdict(NOT_FREDHOLM, None, ())

    # roots missing from a degree-deficient quadratic lie at infinity
    zp = cpoly.zero_pattern(CPoly.make([gamma, beta, alpha]), _CIRCLE_TOL)
    moduli = zp.moduli + (math.inf,) * (2 - len(zp.moduli))
    if zp.in_disk is None:
        return RegionVerdict(NOT_FREDHOLM, None, moduli)
    return RegionVerdict((OMEGA0, OMEGA1, OMEGA2)[zp.in_disk], m * (1 - zp.in_disk), moduli)


INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


def family_verdict(sym: SpecialFamilySymbol, lam: complex) -> tuple[str, Optional[int]]:
    """lam against sigma(T_phi), the closure of phi(D), for the special
    family, and the winding of phi(T) about lam, from classify_projective
    on the pencil (alpha, beta - lam, gamma): boundary and None when it is
    NotFredholm, else interior (index != 0) or exterior, and -index."""
    index = classify_projective(sym.m, sym.alpha, sym.beta - lam, sym.gamma).index
    if index is None:
        return BOUNDARY, None
    return (INTERIOR if index else EXTERIOR), -index
