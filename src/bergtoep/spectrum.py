"""Winding numbers, Fredholm indices, spectrum membership, region maps.

The essential spectrum of T_phi for a symbol continuous on the closed
disk is the boundary curve phi(unit circle), and off that curve the
Fredholm index is minus the winding number of the curve about the point.
For the special family gamma conj(z)^m + alpha z^m + beta the symbol is
(alpha z^{2m} + (beta-lam) z^m + gamma)/z^m on the circle, so the index is
also m - m * (number of zeros of the t-quadratic in the unit disk); both
routes are computed and must agree.

The parameter space of the pencil gamma T_{conj(z)^m} + alpha T_{z^m} +
beta I splits into three Fredholm regions by that zero count:

    Omega0 (no zeros in D):   index  m,
    Omega1 (one zero in D):   index  0, invertible,
    Omega2 (two zeros in D):  index -m,

with the remaining parameters (a zero on the circle) not Fredholm.  The
root count is authoritative; the closed-form inequalities in terms of
|gamma|^2 - |alpha|^2 versus |alpha conj(beta) - beta conj(gamma)| are
evaluated alongside as diagnostics, with the equal-modulus branch using
the predicate "|beta|^4 - 4 alpha gamma conj(beta)^2 is not a nonpositive
real number".
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cpoly
from .cpoly import CPoly
from .symbols import (HarmonicPolySymbol, SpecialFamilySymbol, Symbol,
                      associated_poly, boundary_curve, poincare_condition,
                      special_to_quadratic)


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


def winding_number(curve, lam: complex = 0j) -> WindingResult:
    """Winding of a closed sampled curve about lam by argument increments.

    Requires at least 64 samples and all increments below pi/2, otherwise
    the polygon may alias; the accumulated angle must land within 0.1 of
    an integer multiple of 2 pi.
    """
    curve = np.asarray(curve, dtype=complex)
    if len(curve) < 64:
        raise ValueError("need at least 64 samples")
    rel = curve - complex(lam)
    dist = float(np.min(np.abs(rel)))
    if dist < 1e-9:
        raise OnCurveError(f"point within {dist:.2e} of the sampled curve")
    ang = np.angle(rel)
    inc = np.diff(np.concatenate([ang, ang[:1]]))
    inc = np.mod(inc + np.pi, 2 * np.pi) - np.pi
    if np.max(np.abs(inc)) >= np.pi / 2:
        raise CurveResolutionError("argument increment >= pi/2; refine the curve")
    total = float(np.sum(inc)) / (2 * np.pi)
    w = round(total)
    if abs(total - w) > 0.1:
        raise CurveResolutionError(f"accumulated angle {total:.4f} not near an integer")
    return WindingResult(int(w), dist)


def winding_of_symbol(sym: Symbol, lam: complex = 0j, samples: int = 512,
                      max_samples: int = 1 << 16) -> WindingResult:
    """Winding of phi(unit circle) about lam, refining until resolved."""
    while True:
        try:
            return winding_number(boundary_curve(sym, samples), lam)
        except CurveResolutionError:
            if samples >= max_samples:
                raise
            samples *= 2


def curve_distance(sym: Symbol, lam: complex, samples: int = 512,
                   zoom_rounds: int = 3) -> float:
    """Distance from lam to phi(unit circle), by sampling plus local zoom."""
    thetas = 2 * np.pi * np.arange(samples) / samples
    vals = sym.eval(np.exp(1j * thetas))
    d = np.abs(vals - lam)
    best = int(np.argmin(d))
    best_d = float(d[best])
    center = thetas[best]
    width = 2 * np.pi / samples
    for _ in range(zoom_rounds):
        local = center + np.linspace(-width, width, 129)
        vals = sym.eval(np.exp(1j * local))
        d = np.abs(vals - lam)
        i = int(np.argmin(d))
        if d[i] < best_d:
            best_d = float(d[i])
            center = local[i]
        width /= 32.0
    return best_d


def fredholm_index(sym: Symbol, lam: complex = 0j, curve_tol: float = 1e-6,
                   samples: int = 512, degeneracy_tol: float = 1e-10) -> int:
    """Index of T_phi - lam as minus the winding number of phi(T) about lam.

    For the special family the zero-count route m(1 - N_t) is computed as
    well and a disagreement raises RouteMismatchError.
    """
    dist = curve_distance(sym, lam, samples)
    if dist <= curve_tol:
        raise OnCurveError(f"lam within {dist:.2e} of phi(T); not Fredholm")
    wind = winding_of_symbol(sym, lam, samples).winding
    index = -wind
    if isinstance(sym, SpecialFamilySymbol):
        quad = special_to_quadratic(sym, lam)
        report_count = None
        if quad.degree >= 1:
            try:
                rep = cpoly.schur_cohn(quad, degeneracy_tol)
                report_count = rep.in_disk_count
            except cpoly.NumericIntegrityError:
                report_count = None
        if report_count is None:
            report_count = cpoly.zero_pattern(quad, 1e-12).in_disk
        if report_count is not None:
            index2 = sym.m * (1 - report_count)
            if index2 != index:
                raise RouteMismatchError(
                    f"winding route gives {index}, zero-count route gives {index2}")
    return index


IN_ESSENTIAL = "in_essential"
IN_BY_INDEX = "in_by_index"
OUT_CERTIFIED = "out_certified"
IN_BY_EIGENVALUE_UNRESOLVED = "in_by_eigenvalue_unresolved"
ASSUMPTION_FAILED = "assumption_failed"


@dataclass(frozen=True)
class SpectrumVerdict:
    status: str
    distance: float
    winding: Optional[int] = None
    poincare_moduli: tuple[float, ...] = ()


def spectrum_membership(sym: HarmonicPolySymbol, lam: complex,
                        curve_tol: float = 1e-6, rel_tol: float = 1e-6,
                        samples: int = 512) -> SpectrumVerdict:
    """Classify lam against sigma(T_phi).

    On the boundary curve: in_essential.  Nonzero winding: in_by_index.
    Winding zero: the point is out of the spectrum provided the shifted
    associated polynomial phi_lam has zeros of distinct moduli (the
    recursion asymptotics then certify invertibility); when that
    hypothesis fails no verdict is claimed (assumption_failed).
    """
    dist = curve_distance(sym, lam, samples)
    if dist <= curve_tol:
        return SpectrumVerdict(IN_ESSENTIAL, dist)
    wind = winding_of_symbol(sym, lam, samples).winding
    if wind != 0:
        return SpectrumVerdict(IN_BY_INDEX, dist, wind)
    chk = poincare_condition(sym, lam, rel_tol)
    if chk.ok:
        return SpectrumVerdict(OUT_CERTIFIED, dist, wind, chk.moduli)
    return SpectrumVerdict(ASSUMPTION_FAILED, dist, wind, chk.moduli)


INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


def special_family_region(m: int, alpha: complex, beta: complex, lam: complex,
                          boundary_tol: float = 1e-9) -> str:
    """Position of lam relative to the closed image of conj(z)^m + alpha z^m + beta.

    The image is the solid ellipse centered at beta with semi-axes
    1 + |alpha| and |1 - |alpha|| along e^{i tau/2} where alpha =
    |alpha| e^{i tau}; for |alpha| = 1 it degenerates to a segment.
    """
    alpha = complex(alpha)
    a = abs(alpha)
    tau = cmath.phase(alpha) if a > 0 else 0.0
    zeta = cmath.exp(-0.5j * tau) * (complex(lam) - complex(beta))
    if abs(a - 1.0) <= 1e-12:
        if abs(zeta.imag) <= boundary_tol and abs(zeta.real) <= 2.0 + boundary_tol:
            return BOUNDARY
        return EXTERIOR
    v = (zeta.real / (1.0 + a)) ** 2 + (zeta.imag / (1.0 - a)) ** 2
    if v < 1.0 - boundary_tol:
        return INTERIOR
    if v > 1.0 + boundary_tol:
        return EXTERIOR
    return BOUNDARY


def analytic_family_region(alpha: complex, beta: complex, lam: complex,
                           boundary_tol: float = 1e-9) -> str:
    """Same classification for gamma = 0, image = closed disk |w - beta| <= |alpha|."""
    r = abs(complex(lam) - complex(beta))
    a = abs(complex(alpha))
    if r < a - boundary_tol:
        return INTERIOR
    if r > a + boundary_tol:
        return EXTERIOR
    return BOUNDARY


OMEGA0 = "Omega0"
OMEGA1 = "Omega1"
OMEGA2 = "Omega2"
NOT_FREDHOLM = "NotFredholm"

_REGION_INDEX = {OMEGA0: 1, OMEGA1: 0, OMEGA2: -1}


@dataclass(frozen=True)
class InequalityChecks:
    """Closed-form predicates evaluated as diagnostics.

    d0 = |gamma|^2 - |alpha|^2, cross = |alpha conj(beta) - beta conj(gamma)|,
    q is the equal-modulus discriminant |beta|^4 - 4 alpha gamma conj(beta)^2.
    margin is the satisfaction margin of the winning predicate (0 when no
    strict predicate holds).
    """

    d0: float
    cross: float
    q: complex
    region: Optional[str]
    margin: float
    agrees_with_roots: Optional[bool]


def _inequality_region(alpha: complex, beta: complex, gamma: complex,
                       eq_tol: float = 1e-9):
    d0 = abs(gamma) ** 2 - abs(alpha) ** 2
    cross = abs(alpha * beta.conjugate() - beta * gamma.conjugate())
    q = abs(beta) ** 4 - 4 * alpha * gamma * beta.conjugate() ** 2
    candidates: list[tuple[str, float]] = [
        (OMEGA0, d0 - cross),
        (OMEGA2, -d0 - cross),
        (OMEGA1, min(abs(d0), cross - abs(d0))),
    ]
    if abs(abs(alpha) - abs(gamma)) <= eq_tol:
        # not a nonpositive real number, with margin
        q_margin = max(q.real, abs(q.imag))
        candidates.append((OMEGA1, q_margin))
    region, margin = max(candidates, key=lambda t: t[1])
    if margin <= 0:
        return d0, cross, q, None, 0.0
    return d0, cross, q, region, margin


@dataclass(frozen=True)
class RegionVerdict:
    region: str
    index: Optional[int]
    root_moduli: tuple[float, ...]
    inequality_checks: InequalityChecks


def classify_projective(m: int, alpha: complex, beta: complex, gamma: complex,
                        circle_tol: float = 1e-9, eq_tol: float = 1e-9) -> RegionVerdict:
    """Fredholm-region classification of the pencil parameters (alpha, beta, gamma).

    The zero count of alpha t^2 + beta t + gamma in the unit disk decides
    the region (NotFredholm inside the circle_tol band); the inequality
    predicates ride along in inequality_checks.
    """
    if m < 1:
        raise ValueError("m must be positive")
    alpha, beta, gamma = complex(alpha), complex(beta), complex(gamma)
    d0, cross, q, ineq_region, margin = _inequality_region(alpha, beta, gamma, eq_tol)

    if alpha == 0 and beta == 0 and gamma == 0:
        checks = InequalityChecks(d0, cross, q, ineq_region, margin, None)
        return RegionVerdict(NOT_FREDHOLM, None, (), checks)

    # roots missing from a degree-deficient quadratic lie at infinity
    zp = cpoly.zero_pattern(CPoly.make([gamma, beta, alpha]), circle_tol)
    moduli = zp.moduli + (math.inf,) * (2 - len(zp.moduli))

    if zp.in_disk is None:
        checks = InequalityChecks(d0, cross, q, ineq_region, margin, None)
        return RegionVerdict(NOT_FREDHOLM, None, moduli, checks)

    region = (OMEGA0, OMEGA1, OMEGA2)[zp.in_disk]
    agrees = (ineq_region == region) if ineq_region is not None else None
    checks = InequalityChecks(d0, cross, q, ineq_region, margin, agrees)
    return RegionVerdict(region, m * _REGION_INDEX[region], moduli, checks)


@dataclass(frozen=True)
class InvertibilityReport:
    applicable: bool
    invertible: Optional[bool]
    in_disk_count: Optional[int]
    root_moduli: tuple[float, ...]
    poincare: bool
    on_circle: bool


def invertibility_criterion(sym: HarmonicPolySymbol, rel_tol: float = 1e-6,
                            circle_tol: float = 1e-6) -> InvertibilityReport:
    """Invertibility of T_phi from the zero pattern of phi_0.

    Applicable when phi_0 has zeros of pairwise distinct moduli; then
    T_phi is invertible exactly when phi_0 has m zeros in the disk and
    none near the circle.  A zero within circle_tol of the circle is
    returned as not-Fredholm evidence (invertible False, on_circle True).
    """
    zp = cpoly.zero_pattern(associated_poly(sym, 0j).poly, circle_tol)
    if not zp.distinct(rel_tol):
        return InvertibilityReport(False, None, None, zp.moduli, False, False)
    if zp.in_disk is None:
        return InvertibilityReport(True, False, None, zp.moduli, True, True)
    return InvertibilityReport(True, zp.in_disk == sym.m, zp.in_disk, zp.moduli,
                               True, False)
