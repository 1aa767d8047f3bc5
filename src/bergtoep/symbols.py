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
alpha*t^2 + (beta-lam)*t + gamma in t = z^m, divided by z^m.  For
gamma != 0 it is gamma times the harmonic symbol `as_harmonic` returns.
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

    def as_harmonic(self) -> HarmonicPolySymbol:
        """psi = conj(z)^m + beta/gamma + (alpha/gamma) z^m, so that phi = gamma psi
        and T_phi has the kernel of T_psi; requires gamma != 0."""
        norm = self.normalized()
        f = [0j] * (self.m + 1)
        f[0], f[self.m] = norm.beta, norm.alpha
        return zbar_power_plus(self.m, f)


Symbol = Union[HarmonicPolySymbol, SpecialFamilySymbol]


def zbar_power_plus(m: int, f_coeffs: Sequence[complex]) -> HarmonicPolySymbol:
    """Symbol conj(z)^m + f for an analytic polynomial f."""
    return HarmonicPolySymbol(m, (0j,) * (m - 1), tuple(f_coeffs) or (0j,))


def adjoint_symbol(sym: HarmonicPolySymbol) -> HarmonicPolySymbol:
    """psi = conj(phi)/conj(a_n) for phi = conj(q) + p with n >= 1.

    T_psi is T_phi* = T_{conj phi} up to the scalar 1/conj(a_n), so its
    kernel is the cokernel of T_phi.  conj(phi) = conj(p) + q, so psi is
    monic-q with m' = n: q' = p/a_n (its constant a_0/a_n joins the
    analytic part, as q has none) and p' = q/conj(a_n).  Its associated
    polynomial is the reversed conjugate of phi_0 up to a constant, so its
    zeros are 1/conj(z) and its index is -index.
    """
    m, n = sym.m, sym.n
    if n < 1:
        raise ValueError("the adjoint of a symbol with n = 0 is analytic")
    a_n = sym.ana[n]
    anti = tuple((sym.ana[n - i] / a_n).conjugate() for i in range(1, n))
    q = sym.q_coeffs()
    scale = a_n.conjugate()
    ana = ((sym.ana[0] / a_n).conjugate(),) + tuple(q[j] / scale for j in range(1, m + 1))
    return HarmonicPolySymbol(n, anti, ana)


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


def associated_poly(sym: HarmonicPolySymbol, lam: complex = 0j) -> CPoly:
    """The degree <= m+n polynomial phi_lam with phi - lam = phi_lam/z^m on |z|=1."""
    m, n = sym.m, sym.n
    cs = [0j] * (m + n + 1)
    cs[0] = 1.0 + 0j
    for i in range(1, m):
        cs[i] = sym.anti[i - 1]
    cs[m] = sym.ana[0] - lam
    for i in range(1, n + 1):
        cs[m + i] = sym.ana[i]
    return CPoly.make(cs)


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


def _json_int(value) -> int:
    # int() would truncate 1.9 and accept true; JSON booleans are not integers
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"m must be a JSON integer, got {value!r}")
    return value


def _json_complex(value) -> complex:
    # complex(*value) would take true, a bare "1" and a one-element list
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in value)):
        raise ValueError(f"a coefficient must be a [re, im] pair of JSON numbers, "
                         f"got {value!r}")
    try:
        return complex(*value)
    except OverflowError:   # an integer beyond the double range
        raise ValueError("symbol coefficients must be finite") from None


def from_json(data: Union[str, dict]) -> Symbol:
    if isinstance(data, str):
        data = json.loads(data)
    if "family" in data:
        f = data["family"]
        return SpecialFamilySymbol(_json_int(f["m"]), _json_complex(f["alpha"]),
                                   _json_complex(f["beta"]),
                                   _json_complex(f.get("gamma", [1.0, 0.0])))
    m = _json_int(data["m"])
    anti = tuple(_json_complex(v) for v in data.get("anti", []))
    ana = tuple(_json_complex(v) for v in data.get("ana", [])) or (0j,)
    return HarmonicPolySymbol(m, anti, ana)
