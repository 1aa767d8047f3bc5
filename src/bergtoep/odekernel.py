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
The checks on the basis (Taylor coefficients, residual, span) are in
`bergtoep.oracles`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import cpoly


class QuadratureError(Exception):
    """Adaptive quadrature failed to meet its tolerance."""


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

    Each lane keeps its own panel list and, while the left-to-right sum of
    its panel errors (Python's sum() before 3.12) is above tol, splits its
    first worst panel into halves at the end of the list; every round
    evaluates the new panels of all unconverged lanes in one f call.  A
    lane does exactly the floating-point operations it would do alone.
    The lists are array rows, a split panel's error and value zeroed:
    adding +0.0 to a sum that is not -0.0 is exact, so sequential row sums
    (ufunc accumulate does not sum pairwise) are the list sums.
    """
    val, err = _gk_panels(f, np.arange(n), np.full(n, float(a)), np.full(n, float(b)))
    out = np.empty(n, dtype=complex)
    lane = np.arange(n)                       # the lane of each row
    ends = np.zeros((n, 8, 2))                # each row's panels in list order
    vals = np.zeros((n, 8), dtype=complex)
    errs = np.zeros((n, 8))                   # errs and vals 0 once split
    live = np.zeros((n, 8), dtype=bool)
    ends[:, 0], vals[:, 0], errs[:, 0], live[:, 0] = (a, b), val, err, True
    w = 1
    for _ in range(max_panels):
        with np.errstate(over="ignore"):
            s = np.add.accumulate(errs[:, :w], axis=1)[:, -1]
        done = s <= tol
        if done.any():
            # sum() in list order from 0; split values are +0j, and a sum
            # from 0 is never -0.0, so adding them is exact
            out[lane[done]] = 0j + np.add.accumulate(vals[done, :w], axis=1)[:, -1]
            lane, ends, vals, errs, live, s = (x[~done] for x in (lane, ends, vals, errs, live, s))
        if not lane.size:
            return out
        worst = np.where(live[:, :w], errs[:, :w], -math.inf).argmax(axis=1)
        for r in np.flatnonzero(np.isnan(s)):   # argmax would take the first NaN
            worst[r] = max(np.flatnonzero(live[r, :w]), key=lambda j, r=r: errs[r, j])
        rows = np.arange(lane.size)
        a0, b0 = ends[rows, worst].T
        mid = 0.5 * (a0 + b0)
        errs[rows, worst], vals[rows, worst], live[rows, worst] = 0.0, 0.0, False
        if w + 2 > errs.shape[1]:
            ends, vals, errs, live = (np.concatenate([x, np.zeros_like(x)], axis=1)
                                      for x in (ends, vals, errs, live))
        ends[:, w], ends[:, w + 1] = np.column_stack([a0, mid]), np.column_stack([mid, b0])
        val, err = _gk_panels(f, np.repeat(lane, 2), ends[:, w:w + 2, 0].ravel(),
                              ends[:, w:w + 2, 1].ravel())
        vals[:, w:w + 2], errs[:, w:w + 2] = val.reshape(-1, 2), err.reshape(-1, 2)
        live[:, w:w + 2] = True
        w += 2
    if lane.size:
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
        that every basis function shares.  It stays on the class, not in
        `oracles`, because it reads the basis's private branch data.
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
