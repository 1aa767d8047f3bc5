"""Closed-form kernel basis for conj(z)^m + alpha z^m + beta.

When the quadratic phi_0(u) = alpha u^2 + beta u + 1 has two distinct
roots t_0, t_1 with |t_i| > 1, the kernel of the operator is
m-dimensional and is carried by the integrating factor G_0, the solution
of G_0'/G_0 = m / (z phi_0(z^m)) that behaves like z^m / H(0) at the
origin, H(0) = (-t_0)^{-e_1} (-t_1)^{e_2} with e_1 = t_1/(t_0 - t_1) and
e_2 = t_0/(t_0 - t_1) (the product formula in the roots is
`oracles.g0_eval`).  In u = z^m, G_0 = u / (H(0) W(u)), where W(0) = 1
and phi_0 W' = (beta + alpha u) W, so W = sum_k w_k u^k with the
three-term recurrence

    w_0 = 1,  w_{-1} = 0,  (n + 1) w_{n+1} = beta (1 - n) w_n + alpha (2 - n) w_{n-1}.

The basis functions are

    g_1(z) = G_0(z) / (z phi_0(z^m)) = z^{m-1} / (H(0) phi_0(u) W(u)),
    g_j(z) = -g_1(z) int_0^z t^{j-2} / G_0(t) dt
           = -z^{j-2} sum_k w_k u^k / (j - 1 - m + mk) / (phi_0(u) W(u)),

for 2 <= j <= m, with the integral's additive constant fixed to zero (the
constant direction is g_1 itself).  The k = 0 term is the singular
monomial's closed form, and j - 1 - m + mk never vanishes, so no
logarithm occurs.

Both series converge like (|u| / min |t_i|)^k, so eval_basis sums D =
ceil(log eps / log(max |u| / min |t_i|)) + _MARGIN terms by Horner at all
points at once.  It refuses with ValueError when D exceeds _MAX_TERMS (a
point too close to the circle for a t-root too close to it), or when a
sum's running error bound eps sum_k |c_k| |u|^k (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 5) exceeds _EVAL_BOUND times its
value at some point: the series then cancels too much to be trusted, as
for t-roots within a few hundredths of the circle.  The checks on the basis
(the product formula, Taylor coefficients, residual, span) are in
`bergtoep.oracles`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import cpoly

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
    """The t-roots and the normalisation H(0) behind g_1..g_m.

    Construction checks the factorization alpha (t - t_0)(t - t_1) of
    alpha t^2 + beta t + 1, and that the roots are distinct and of
    modulus greater than one.
    """

    def __init__(self, m: int, alpha: complex, beta: complex):
        if m < 1:
            raise ValueError("m must be positive")
        alpha = complex(alpha)
        beta = complex(beta)
        if alpha == 0:
            raise ValueError("alpha must be nonzero for the closed-form basis")
        t0, t1 = cpoly.roots(cpoly.CPoly.make([1.0, beta, alpha]))
        if abs(t0 - t1) <= 1e-12 * max(abs(t0), abs(t1)):
            raise ValueError("repeated root t_0 = t_1 is not supported")
        if min(abs(t0), abs(t1)) <= 1.0:
            raise ValueError(
                f"roots must lie outside the closed unit disk, got moduli "
                f"{abs(t0):.6f}, {abs(t1):.6f}")
        self.m = m
        self.alpha = alpha
        self.beta = beta
        self.z0m = t0
        self.z1m = t1
        # factorization sanity: alpha (t-t0)(t-t1) == alpha t^2 + beta t + 1
        scale = max(1.0, abs(alpha), abs(beta))
        if abs(alpha * t0 * t1 - 1.0) > 1e-10 * scale or \
           abs(alpha * (t0 + t1) + beta) > 1e-10 * scale:
            raise cpoly.NumericIntegrityError("quadratic factorization check failed")
        e1 = t1 / (t0 - t1)
        e2 = t0 / (t0 - t1)
        if abs(e2 - e1 - 1.0) > 1e-9:
            raise cpoly.NumericIntegrityError("exponent pair does not differ by 1")
        # H(0) = (-t0)^{-e1} (-t1)^{e2} with principal anchors
        self._h0 = cmath.exp(-e1 * cmath.log(-t0) + e2 * cmath.log(-t1))

    def _coefficients(self, u: np.ndarray) -> np.ndarray:
        """w_0..w_{D-1} of W, D enough terms for every u."""
        ratio = float(np.max(np.abs(u), initial=0.0)) / min(abs(self.z0m), abs(self.z1m))
        terms = _MARGIN + (math.ceil(math.log(_EPS) / math.log(ratio)) if ratio else 0)
        if terms > _MAX_TERMS:
            raise ValueError(f"the series needs {terms} terms, more than {_MAX_TERMS}")
        w = [1.0 + 0j, self.beta]
        for n in range(1, terms - 1):
            w.append((self.beta * (1 - n) * w[n] + self.alpha * (2 - n) * w[n - 1]) / (n + 1))
        return np.array(w)

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
        u = z**m
        w = self._coefficients(u)
        den = (1.0 + self.beta * u + self.alpha * u * u) * _horner(w, u)
        if j == 1:
            out = z ** (m - 1) / (self._h0 * den)
        else:
            out = -z ** (j - 2) * _horner(w / (j - 1 - m + m * np.arange(w.size)), u) / den
        return complex(out[0]) if scalar else out
