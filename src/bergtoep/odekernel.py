"""Closed-form kernel basis for conj(z)^m + f.

When phi_0(z) = 1 + z^m f(z) has no zero in the closed unit disk, the
kernel of the operator is m-dimensional and is carried by the integrating
factor G_0, the solution of G_0'/G_0 = m / (z phi_0(z)) with G_0 = z^m
V(z), V(0) = 1.  Write phi_0(z) = P(t), t = z^g, with g the gcd of the
exponents of phi_0's nonconstant terms (`cpoly.CPoly.split`), and W = 1/V
as a series in t.  Then t P W' = (m/g) (P - 1) W, so W = sum_k w_k t^k
with w_0 = 1 and, for P = sum_i p_i t^i,

    g (n + 1) w_{n+1} = sum_{i >= 1} p_i (m - g (n + 1 - i)) w_{n+1-i}.

For the family (P = 1 + beta t + alpha t^2, g = m) this is the three-term
recurrence (n + 1) w_{n+1} = beta (1 - n) w_n + alpha (2 - n) w_{n-1}.
The basis functions are

    g_1(z) = G_0(z) / (z phi_0(z)) = z^{m-1} / (P(t) W(t)),
    g_j(z) = -g_1(z) int_0^z s^{j-2} / G_0(s) ds
           = -z^{j-2} sum_k w_k t^k / (j - 1 - m + g k) / (P(t) W(t)),

for 2 <= j <= m, with the integral's additive constant fixed to zero (the
constant direction is g_1 itself).  No logarithm occurs: phi_0 - 1 =
O(z^m), so W - 1 = O(z^m), and w_k is exactly zero wherever j - 1 - m +
g k vanishes (0 < g k < m); those terms are skipped.

Both series converge like (|t| / r)^k, r the smallest zero modulus of P
(infinite for a constant P, as for conj(z)^m alone), so eval_basis starts
from D = ceil(log eps / log(max |t| / r)) + _MARGIN terms.  At a zero of
P of order q >= 2, W has an essential singularity and |w_k| grows like
exp(c k^((q-1)/q)) r^-k, so D grows by _MARGIN while the last _MARGIN
terms at max |t| exceed eps times the sum of all.  It sums by Horner at
all points at once, and refuses with ValueError when D exceeds
_MAX_TERMS (a point too close to the circle for a zero too close to
it), or when a sum's running error bound eps sum_k |c_k| |t|^k (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 5) exceeds
_EVAL_BOUND times its value at some point: the series then cancels too
much to be trusted, as for zeros within a few hundredths of the circle.
The checks on the basis (the family's product formula, Taylor
coefficients, residual, span) are in `bergtoep.oracles`.
"""

from __future__ import annotations

import math

import numpy as np

from . import cpoly
from .symbols import HarmonicPolySymbol, associated_poly

_EPS = float(np.finfo(float).eps)
# terms beyond the geometric estimate of D
_MARGIN = 8
_MAX_TERMS = 4096
# largest running error bound of a series, relative to its value
_EVAL_BOUND = 1e-10


def _horner(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k c_k u^k at every u, refused where its running error bound
    exceeds _EVAL_BOUND relative."""
    acc = np.zeros_like(u)
    bound = np.zeros(u.shape)
    au = np.abs(u)
    for ck in c[::-1]:
        acc = acc * u + ck
        bound = bound * au + abs(ck)
    if np.any(_EPS * bound > _EVAL_BOUND * np.abs(acc)):
        raise ValueError(f"series rounding exceeds {_EVAL_BOUND:.0e} relative")
    return acc


class OdeKernelBasis:
    """g_1..g_m of sym = conj(z)^m + f from phi_0 = P(z^g) (g, P) and the
    smallest zero modulus of P (radius, inf for a constant P).

    Construction refuses (ValueError) a symbol with a nonzero anti
    coefficient or a zero of phi_0 in the closed unit disk; the zero count
    may raise cpoly.RootFindingError.
    """

    def __init__(self, sym: HarmonicPolySymbol):
        if any(sym.anti):
            raise ValueError("the closed-form basis needs conj(z)^m + f")
        self.sym = sym
        self.m = sym.m
        self.g, self.P = associated_poly(sym).split()
        self.radius = min(cpoly.zero_pattern(self.P, 0.0).moduli, default=math.inf)
        if self.radius <= 1.0:
            raise ValueError(f"phi_0 has a zero of modulus {self.radius ** (1 / self.g):.6f} "
                             f"in the closed unit disk")
        self._p = [(i, c) for i, c in enumerate(self.P.coeffs) if i and c]
        self._w = [1.0 + 0j]   # w_0, w_1, ..., as many as a call has needed

    def _coefficients(self, t: np.ndarray) -> np.ndarray:
        """w_0..w_{D-1} of W, D enough terms for every t."""
        rho = float(np.max(np.abs(t), initial=0.0))
        ratio = rho / self.radius
        terms = _MARGIN + (math.ceil(math.log(_EPS) / math.log(ratio)) if ratio else 0)
        m, g, w = self.m, self.g, self._w
        while True:
            if terms > _MAX_TERMS:
                raise ValueError(f"the series needs {terms} terms, more than {_MAX_TERMS}")
            for k in range(len(w), terms):   # w_k from w_{k-i}, k = n + 1; none before w_0
                w.append(sum(c * (m - g * (k - i)) * w[k - i] for i, c in self._p if i <= k) / (g * k))
            size = np.abs(w[:terms]) * rho ** np.arange(terms)
            if size[-_MARGIN:].sum() <= _EPS * size.sum():
                return np.array(w[:terms])
            terms += _MARGIN

    def eval_basis(self, j: int, z):
        """g_j at points z inside the unit disk, 1 <= j <= m."""
        if not 1 <= j <= self.m:
            raise ValueError(f"j must lie in 1..{self.m}")
        z = np.asarray(z, dtype=complex)
        scalar = z.shape == ()
        z = np.atleast_1d(z)
        if np.any(np.abs(z) >= 1.0):
            raise ValueError("basis functions are evaluated on |z| < 1")
        m = self.m
        t = z**self.g
        w = self._coefficients(t)
        den = cpoly.eval_poly_many(self.P.coeffs, t) * _horner(w, t)
        if j == 1:
            out = z ** (m - 1) / den
        else:
            e = j - 1 - m + self.g * np.arange(w.size)
            c = np.divide(w, e, out=np.zeros_like(w), where=e != 0)   # w_k = 0 where e = 0
            out = -z ** (j - 2) * _horner(c, t) / den
        return complex(out[0]) if scalar else out
