"""Harmonic polynomial symbols on the closed unit disk.

A symbol is phi = conj(q) + p with q monic of degree m >= 1 and p an
analytic polynomial.  We store the data in the form that drives every
downstream computation: ``anti[i-1]`` (i = 1..m-1) is the coefficient of
z^i in the associated polynomial, and its conjugate is the z^(m-i)
coefficient of q; ``ana`` holds p's coefficients a_0..a_n.

For any shift lam, the associated polynomial is

    phi_lam(z) = 1 + sum_{i=1}^{m-1} anti[i-1] z^i
                   + (a_0 - lam) z^m + sum_{i=1}^{n} a_i z^{m+i},

with phi_lam(0) = 1, and on the unit circle phi(z) - lam = phi_lam(z)/z^m.
The zero pattern of phi_lam therefore controls Fredholmness, the index,
and the growth of the kernel coefficient recursions.

The special one-parameter family gamma*conj(z)^m + alpha*z^m + beta gets
its own type; on the circle it reduces to the quadratic
alpha*t^2 + (beta-lam)*t + gamma in t = z^m, divided by z^m.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import cpoly
from .cpoly import CPoly


def _require_finite(coeffs: Sequence[complex]) -> None:
    if not all(cmath.isfinite(c) for c in coeffs):
        raise ValueError("symbol coefficients must be finite")


@dataclass(frozen=True)
class HarmonicPolySymbol:
    m: int
    anti: tuple[complex, ...] = ()
    ana: tuple[complex, ...] = (0j,)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if len(self.anti) != self.m - 1:
            raise ValueError(f"anti must have length m-1 = {self.m - 1}")
        anti = tuple(complex(c) for c in self.anti)
        ana = [complex(c) for c in self.ana]
        _require_finite(anti + tuple(ana))
        while len(ana) > 1 and ana[-1] == 0:
            ana.pop()
        if not ana:
            ana = [0j]
        object.__setattr__(self, "anti", anti)
        object.__setattr__(self, "ana", tuple(ana))

    @property
    def n(self) -> int:
        """Degree of the analytic part p (0 for p constant or zero)."""
        return len(self.ana) - 1

    def q_coeffs(self) -> tuple[complex, ...]:
        """Coefficients of q, ascending; q is monic of degree m."""
        cs = [0j] * (self.m + 1)
        cs[self.m] = 1.0 + 0j
        for i in range(1, self.m):
            cs[self.m - i] = self.anti[i - 1].conjugate()
        return tuple(cs)

    def eval(self, z):
        """phi(z) = conj(q(z)) + p(z), vectorized over z."""
        z = np.asarray(z, dtype=complex)
        qv = cpoly.eval_poly_many(self.q_coeffs(), z)
        pv = cpoly.eval_poly_many(self.ana, z)
        return np.conj(qv) + pv


@dataclass(frozen=True)
class SpecialFamilySymbol:
    """gamma*conj(z)^m + alpha*z^m + beta (gamma defaults to 1)."""

    m: int
    alpha: complex
    beta: complex
    gamma: complex = 1.0 + 0j

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))
        _require_finite((self.alpha, self.beta, self.gamma))
        if self.alpha == 0 and self.beta == 0 and self.gamma == 0:
            raise ValueError("alpha, beta, gamma cannot all vanish")

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        zm = z**self.m
        return self.gamma * np.conj(zm) + self.alpha * zm + self.beta

    def normalized(self) -> "SpecialFamilySymbol":
        """Divide through by gamma; requires gamma != 0."""
        if self.gamma == 0:
            raise ValueError("gamma = 0 has no normalized form")
        return SpecialFamilySymbol(self.m, self.alpha / self.gamma,
                                   self.beta / self.gamma, 1.0 + 0j)


Symbol = Union[HarmonicPolySymbol, SpecialFamilySymbol]


def zbar_power_plus(m: int, f_coeffs: Sequence[complex]) -> HarmonicPolySymbol:
    """Symbol conj(z)^m + f for an analytic polynomial f."""
    return HarmonicPolySymbol(m, (0j,) * (m - 1), tuple(f_coeffs) or (0j,))


@dataclass(frozen=True)
class AssociatedPoly:
    poly: CPoly
    lam: complex = 0j

    def __post_init__(self):
        if self.poly.coeffs[0] != 1:
            raise ValueError("associated polynomial must have constant term 1")


# roots of unity evaluated at a time: the finest curve a winding number
# refines to (65536 samples) then takes a quarter of the temporary memory
_CURVE_CHUNK = 1 << 14


def boundary_curve(sym: Symbol, samples: int) -> np.ndarray:
    """phi evaluated at the `samples`-th roots of unity, in order."""
    if samples < 16:
        raise ValueError("need at least 16 samples")
    curve = np.empty(samples, dtype=complex)
    for start in range(0, samples, _CURVE_CHUNK):
        k = np.arange(start, min(start + _CURVE_CHUNK, samples))
        curve[start:start + len(k)] = sym.eval(np.exp(2j * np.pi * k / samples))
    return curve


def associated_poly(sym: HarmonicPolySymbol, lam: complex = 0j) -> AssociatedPoly:
    """The degree <= m+n polynomial phi_lam with phi - lam = phi_lam/z^m on |z|=1."""
    m, n = sym.m, sym.n
    cs = [0j] * (m + n + 1)
    cs[0] = 1.0 + 0j
    for i in range(1, m):
        cs[i] = sym.anti[i - 1]
    cs[m] = sym.ana[0] - lam
    for i in range(1, n + 1):
        cs[m + i] = sym.ana[i]
    return AssociatedPoly(CPoly.make(cs), complex(lam))


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


@dataclass(frozen=True)
class PoincareCheck:
    ok: bool
    moduli: tuple[float, ...]


def poincare_conditions(sym: HarmonicPolySymbol, lams: Sequence[complex],
                        rel_tol: float = 1e-6) -> list[PoincareCheck]:
    """poincare_condition() at each lam, the roots found together."""
    zps = cpoly.zero_patterns([associated_poly(sym, lam).poly for lam in lams],
                              0.0)  # disk count unread
    return [PoincareCheck(zp.distinct(rel_tol), zp.moduli) for zp in zps]


def poincare_condition(sym: HarmonicPolySymbol, lam: complex = 0j,
                       rel_tol: float = 1e-6) -> PoincareCheck:
    """Whether phi_lam has zeros with pairwise distinct moduli.

    Degree zero (no zeros at all) passes vacuously.  The sorted root
    moduli are returned as evidence.
    """
    return poincare_conditions(sym, [lam], rel_tol)[0]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _pairs(values) -> list[list[float]]:
    return [[complex(v).real, complex(v).imag] for v in values]


def _pair(v) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def to_json(sym: Symbol) -> dict:
    if isinstance(sym, HarmonicPolySymbol):
        return {"m": sym.m, "anti": _pairs(sym.anti), "ana": _pairs(sym.ana)}
    return {"family": {"m": sym.m, "alpha": _pair(sym.alpha),
                       "beta": _pair(sym.beta), "gamma": _pair(sym.gamma)}}


def from_json(data: Union[str, dict]) -> Symbol:
    if isinstance(data, str):
        data = json.loads(data)
    if "family" in data:
        f = data["family"]
        return SpecialFamilySymbol(int(f["m"]), complex(*f["alpha"]),
                                   complex(*f["beta"]),
                                   complex(*f.get("gamma", [1.0, 0.0])))
    m = int(data["m"])
    anti = tuple(complex(re, im) for re, im in data.get("anti", []))
    ana = tuple(complex(re, im) for re, im in data.get("ana", [])) or (0j,)
    return HarmonicPolySymbol(m, anti, ana)
