"""Closed-form kernel basis for conj(z)^m + alpha z^m + beta.

When the quadratic alpha t^2 + beta t + 1 has two distinct roots t_0, t_1
with |t_i| > 1, the kernel of the operator is m-dimensional and is carried
by the integrating factor

    G_0(z) = z^m (z^m - t_0)^{e_1} / (z^m - t_1)^{e_2},
    e_1 = t_1/(t_0 - t_1),   e_2 = t_0/(t_0 - t_1)   (e_2 - e_1 = 1),

whose logarithmic derivative is m / (z (alpha z^{2m} + beta z^m + 1)).
The basis functions are

    g_1(z) = G_0(z) / (alpha z (z^m - t_0)(z^m - t_1)),
    g_j(z) = -g_1(z) * int_0^z t^{j-2} / G_0(t) dt,   2 <= j <= m,

with the integral's additive constant fixed to zero (the constant
direction is g_1 itself).  Powers are taken with the branch continuous on
the unit disk: since |t_i| > 1, the factor 1 - z^m/t_i stays in the right
half plane and the principal logarithm applies, anchored at Log(-t_i)
for z = 0.

The integrand t^{j-2}/G_0(t) = t^{j-2-m} H(t) has H analytic in t^m, so
its only singular monomial is H(0) t^{j-2-m}; that part is integrated in
closed form and the remainder t^{j-2-m}(H(t) - H(0)) goes through
adaptive Gauss-Kronrod quadrature along the radial segment, with the
difference H - H(0) evaluated by a complex expm1 to avoid cancellation
near the origin.  The quadrature runs lane-wise: every nonzero point is a
lane with its own panel list, error test and panel budget, and each round
evaluates the 15 Kronrod nodes of the new panels of all unconverged lanes
in one array, so a point's integral is bitwise the one it would get alone.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import cpoly, finsect
from .symbols import SpecialFamilySymbol


class QuadratureError(Exception):
    """Adaptive quadrature failed to meet its tolerance."""


class ExtractionError(Exception):
    """Coefficient extraction would amplify noise beyond usefulness."""


# 15-point Kronrod nodes/weights on [-1, 1] with the embedded 7-point Gauss rule
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)
# lanes integrated at once, which bounds the (2 lanes x 15) node arrays
_LANE_BLOCK = 4096
_MAX_PANELS = 512
# error tolerance of each radial integral of eval_basis
_QUAD_TOL = 1e-12
# taylor_coefficients samples g_j on the circle |z| = _RADIUS
_RADIUS = 0.9


def _gk_panels(f, lanes: np.ndarray, a: np.ndarray, b: np.ndarray):
    """K15 values and |K15 - G7| errors of panels [a_i, b_i] of lanes[i].

    f(lanes, x) returns the integrand of each lane at the rows of x, one
    row of 15 Kronrod nodes per panel.
    """
    h = 0.5 * (b - a)
    x = a[:, None] + h[:, None] * (_XK + 1.0)
    fx = f(lanes, x)
    k15 = h * np.sum(_WK * fx, axis=1)
    g7 = h * np.sum(_WG * fx[:, _GAUSS_IDX], axis=1)
    return k15, np.abs(k15 - g7)


def _adaptive_gk_lanes(f, n: int, a: float, b: float, tol: float,
                       max_panels: int) -> np.ndarray:
    """Adaptive Gauss-Kronrod integrals of n lanes on [a, b], in rounds.

    Each lane keeps its own panel list and, while its summed error is
    above tol, splits its first worst panel; every round evaluates the new
    panels of all unconverged lanes in one f call.  A lane does exactly
    the floating-point operations it would do alone.
    """
    val, err = _gk_panels(f, np.arange(n), np.full(n, float(a)), np.full(n, float(b)))
    panels = [[(a, b, val[i], err[i])] for i in range(n)]
    out = np.empty(n, dtype=complex)
    active = list(range(n))
    for _ in range(max_panels):
        lanes, lo, hi = [], [], []
        for i in active:
            ps = panels[i]
            if sum(p[3] for p in ps) <= tol:
                out[i] = sum(p[2] for p in ps)
                continue
            worst = max(range(len(ps)), key=lambda k: ps[k][3])
            a0, b0, _, _ = ps.pop(worst)
            mid = 0.5 * (a0 + b0)
            lanes += (i, i)
            lo += (a0, mid)
            hi += (mid, b0)
        active = lanes[::2]
        if not active:
            return out
        val, err = _gk_panels(f, np.array(lanes), np.array(lo), np.array(hi))
        for r, i in enumerate(lanes):
            panels[i].append((lo[r], hi[r], val[r], err[r]))
    if active:
        raise QuadratureError(f"did not reach tol {tol:.1e} within {max_panels} panels")
    return out


def _cexpm1(w: np.ndarray) -> np.ndarray:
    """exp(w) - 1 without cancellation for small complex w."""
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    small = np.abs(w) < 0.5
    out[~small] = np.exp(w[~small]) - 1.0
    ws = w[small]
    acc = np.zeros_like(ws)
    # nested Horner for sum_{k>=1} w^k/k!, 18 terms covers |w| < 0.5 to eps
    for k in range(18, 0, -1):
        acc = ws / k * (1.0 + acc)
    out[small] = acc
    return out


def _clog1p(w: np.ndarray) -> np.ndarray:
    """log(1 + w) without cancellation for small complex w."""
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    small = np.abs(w) < 0.25
    out[~small] = np.log(1.0 + w[~small])
    ws = w[small]
    acc = np.zeros_like(ws)
    # sum_{k>=1} (-1)^{k+1} w^k / k by nested Horner, 40 terms for |w| < 1/4
    for k in range(40, 0, -1):
        acc = ws * (1.0 / k - acc)
    out[small] = acc
    return out


class OdeKernelBasis:
    """The data (roots, exponents, branch anchors) behind g_1..g_m.

    Construction checks the factorization alpha (t - t_0)(t - t_1) of
    alpha t^2 + beta t + 1, that the roots are distinct and of modulus
    greater than one, and records the chosen principal m-th roots z_0,
    z_1 (only t_i = z_i^m enters any formula).
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
        self.z0 = t0 ** (1.0 / m)
        self.z1 = t1 ** (1.0 / m)
        self.e1 = t1 / (t0 - t1)
        self.e2 = t0 / (t0 - t1)
        # factorization sanity: alpha (t-t0)(t-t1) == alpha t^2 + beta t + 1
        scale = max(1.0, abs(alpha), abs(beta))
        if abs(alpha * t0 * t1 - 1.0) > 1e-10 * scale or \
           abs(alpha * (t0 + t1) + beta) > 1e-10 * scale:
            raise cpoly.NumericIntegrityError("quadratic factorization check failed")
        if abs(self.e2 - self.e1 - 1.0) > 1e-9:
            raise cpoly.NumericIntegrityError("exponent pair does not differ by 1")
        # H(0) = (-t0)^{-e1} (-t1)^{e2} with principal anchors
        self._h0 = cmath.exp(-self.e1 * cmath.log(-t0) + self.e2 * cmath.log(-t1))

    @property
    def exponents(self) -> tuple[complex, complex]:
        return (self.e1, self.e2)

    # -- branch-consistent building blocks -------------------------------

    def _v(self, zm: np.ndarray) -> np.ndarray:
        """V(z) = exp(e1 log(1 - z^m/t0) - e2 log(1 - z^m/t1)), V(0) = 1."""
        return np.exp(self.e1 * np.log(1.0 - zm / self.z0m)
                      - self.e2 * np.log(1.0 - zm / self.z1m))

    def _dh(self, t: np.ndarray) -> np.ndarray:
        """H(t) - H(0) where 1/G_0 = t^{-m} H(t), cancellation-free."""
        tm = np.asarray(t, dtype=complex) ** self.m
        psi = (-self.e1 * _clog1p(-tm / self.z0m)
               + self.e2 * _clog1p(-tm / self.z1m))
        return self._h0 * _cexpm1(psi)

    def g0_eval(self, z):
        """The integrating factor G_0 at z in the open unit disk.

        The basis never evaluates G_0 itself (g_1 and the integrand use
        V and H - H(0)); this is the ODE oracle: `TestG0` checks its
        closed form and its logarithmic derivative m / (z (alpha z^{2m} +
        beta z^m + 1)), which pins the roots, exponents and branch anchors
        that every basis function shares.
        """
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) >= 1.0):
            raise ValueError("G_0 is defined on |z| < 1")
        zm = z**self.m
        c = 1.0 / self._h0
        out = zm * c * self._v(zm)
        return out if out.shape else complex(out)

    def _g1(self, z: np.ndarray) -> np.ndarray:
        zm = z**self.m
        c = 1.0 / self._h0
        return (z ** (self.m - 1) * c * self._v(zm)
                / (self.alpha * (zm - self.z0m) * (zm - self.z1m)))

    def eval_basis(self, j: int, z):
        """g_j at points z inside the unit disk, 1 <= j <= m."""
        if not 1 <= j <= self.m:
            raise ValueError(f"j must lie in 1..{self.m}")
        z = np.asarray(z, dtype=complex)
        scalar = z.shape == ()
        z = np.atleast_1d(z)
        if np.any(np.abs(z) >= 1.0):
            raise ValueError("basis functions are evaluated on |z| < 1")
        if j == 1:
            out = self._g1(z)
            return complex(out[0]) if scalar else out

        p = j - 2 - self.m            # singular monomial exponent, always <= -2
        nz = np.flatnonzero(z != 0)
        q = np.zeros(len(z), dtype=complex)
        for start in range(0, nz.size, _LANE_BLOCK):
            part = nz[start:start + _LANE_BLOCK]
            zc = z[part, None]

            def integrand(lanes, s, zc=zc):
                t = zc[lanes] * s
                return (t ** p) * self._dh(t) * zc[lanes]
            q[part] = _adaptive_gk_lanes(integrand, part.size, 0.0, 1.0, _QUAD_TOL,
                                         _MAX_PANELS)
        out = np.empty(len(z), dtype=complex)
        g1v = self._g1(z)
        zm = z**self.m
        v = self._v(zm)
        for idx, zv in enumerate(z):
            # g1 * H(0) * z^{j-1-m} collapses: the branch constants cancel;
            # the head stays a scalar expression, whose rounding the array
            # form does not reproduce
            head = (zv ** (j - 2) * v[idx]
                    / ((j - 1 - self.m) * self.alpha
                       * (zm[idx] - self.z0m) * (zm[idx] - self.z1m)))
            out[idx] = -(head + g1v[idx] * q[idx])
        return complex(out[0]) if scalar else out

    def symbol(self) -> SpecialFamilySymbol:
        return SpecialFamilySymbol(self.m, self.alpha, self.beta, 1.0 + 0j)


def taylor_coefficients(basis: OdeKernelBasis, j: int, K: int) -> np.ndarray:
    """First K Taylor coefficients of g_j by FFT at 4K points of the circle
    |z| = _RADIUS.

    The k-th coefficient is amplified by _RADIUS^-k, so eval noise of size
    _QUAD_TOL reaches _QUAD_TOL * _RADIUS^-(K-1) at the top; the call
    refuses K where that exceeds 1e-4 (K >= 176).
    """
    samples = 4 * K
    amp = _RADIUS ** (-(K - 1))
    if _QUAD_TOL * amp > 1e-4:
        raise ExtractionError(
            f"amplification {amp:.3e} at k={K - 1} with eval tol {_QUAD_TOL:.1e}")
    zs = _RADIUS * np.exp(2j * np.pi * np.arange(samples) / samples)
    vals = basis.eval_basis(j, zs)
    hat = np.fft.fft(vals) / samples
    k = np.arange(K)
    return hat[:K] / _RADIUS**k


def residual_check(basis: OdeKernelBasis, j: int, K: int = 50) -> float:
    """Relative Bergman-norm residual of T_phi g_j on the first K-2m coefficients.

    g_j is sampled on a circle, its Taylor coefficients extracted, and the
    exact coefficient operator applied; only indices unaffected by the
    truncation are scored.
    """
    coeffs = taylor_coefficients(basis, j, K)
    out = finsect.apply_symbol(basis.symbol(), coeffs)
    cut = K - 2 * basis.m
    if cut < 1:
        raise ValueError("K too small relative to m")
    w = 1.0 / (np.arange(K) + 1.0)
    num = math.sqrt(float(np.sum(np.abs(out[:cut]) ** 2 * w[:cut])))
    den = math.sqrt(float(np.sum(np.abs(coeffs) ** 2 * w)))
    return num / den
