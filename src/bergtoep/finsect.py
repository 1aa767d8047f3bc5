"""Finite truncation matrices of T_phi and their smallest singular values.

On the Bergman space the monomials satisfy ||z^k||^2 = 1/(k+1), and the
projection of conj(z)^s z^k is ((k-s+1)/(k+1)) z^{k-s} for k >= s and 0
otherwise.  For a symbol with anti-analytic terms w_s conj(z)^s and
analytic terms a_i z^i this gives the exact coefficient map

    c_k = sum_s w_s ((k+1)/(s+k+1)) d_{s+k} + sum_i a_i d_{k-i},

which `oracles.apply_symbol` applies to coefficient lists, the route that
checks these truncations.

Truncations are assembled in the orthonormal basis e_k = sqrt(k+1) z^k:
the conj(z)^s band has entries sqrt(k-s+1)/sqrt(k+1) at (k-s, k) and the
z^s band sqrt(k+1)/sqrt(k+s+1) at (k+s, k).  Spectral quantities of
truncations are heuristic evidence only; finite sections of non-normal
Toeplitz operators may have spurious near-kernels.

sigma_min(T - lam) over a grid of lam (min_singular_values) is certified
without a dense SVD where it can be, by banded bisection on each residue
class of T (see min_singular_values).  Forming M = (T - lam)^H (T - lam)
squares the conditioning, which sets the threshold of that certificate at
2e-3 to 5e-3 nu; below it one inverse-iteration step can prove an upper
bound (_bound), and below N eps nu no method here resolves sigma_min: the
dense SVD returns rounding noise there, and probe marks such points
unresolved.  Everything else falls back to the dense min_singular_value,
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .symbols import SpecialFamilySymbol, Symbol


def _terms(sym: Symbol):
    """(anti_terms, ana_terms) as lists of (shift, coefficient)."""
    if isinstance(sym, SpecialFamilySymbol):
        anti = [(sym.m, sym.gamma)] if sym.gamma != 0 else []
        ana = [(s, w) for s, w in ((sym.m, sym.alpha), (0, sym.beta)) if w != 0]
        return anti, ana
    anti = [(sym.m, 1.0 + 0j)]
    anti += [(sym.m - i, c) for i, c in enumerate(sym.anti, start=1) if c != 0]
    ana = [(i, a) for i, a in enumerate(sym.ana) if a != 0]
    return anti, ana


def bandwidth(sym: Symbol) -> int:
    """Largest anti-analytic shift plus largest analytic shift of the symbol."""
    anti, ana = _terms(sym)
    return max([s for s, _ in anti], default=0) + max([s for s, _ in ana], default=0)


def min_dimension(sym: Symbol) -> int:
    """Smallest section size `truncation` accepts: twice the bandwidth, at least 2."""
    return max(2 * bandwidth(sym), 2)


def truncation(sym: Symbol, n: int) -> np.ndarray:
    """Banded n x n section of T_phi in the basis e_k; n >= twice the bandwidth."""
    anti, ana = _terms(sym)
    if n < min_dimension(sym):
        raise ValueError(f"dimension {n} too small for bandwidth {bandwidth(sym)}")
    E = np.zeros((n, n), dtype=complex)
    k = np.arange(n, dtype=float)
    for s, w in anti:
        if s == 0:
            E += w * np.eye(n)
            continue
        rows = np.arange(n - s)
        E[rows, rows + s] += w * np.sqrt((k[: n - s] + 1.0) / (k[s:] + 1.0))
    for s, w in ana:
        if s == 0:
            E += w * np.eye(n)
            continue
        rows = np.arange(n - s)
        E[rows + s, rows] += w * np.sqrt((k[: n - s] + 1.0) / (k[s:] + 1.0))
    return E


def min_singular_value(T: np.ndarray, lam: complex = 0j) -> float:
    """Smallest singular value of T - lam*I (dense SVD); NaN if it is not finite."""
    E = np.asarray(T, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        A = E - complex(lam) * np.eye(E.shape[0])
    if not np.isfinite(A).all():
        return math.nan
    return float(np.linalg.svd(A, compute_uv=False)[-1])


# ---------------------------------------------------------------------------
# certified smallest singular values over a grid of shifts
# ---------------------------------------------------------------------------

DELTA = 1e-9
_EPS = float(np.finfo(float).eps)
# bytes of the bands of M and the factorization buffer for one block of lanes
_BLOCK_BYTES = 2 << 20
# rows streamed through the factorization window at a time
_CHUNK = 8
# lams whose bands are filled at once, which bounds the temporaries
_FILL_LANES = 32
# nu outside this range goes dense: inside it nu^2, the shifts s^2 and the
# band entries of M neither overflow nor underflow to a loss above eps*nu^2
_NU_RANGE = (1e-100, 1e100)
# a bracket [t, nu] closes to 1 + 2*DELTA in at most 33 halvings of its log
_MAX_PASSES = 64


@dataclass(frozen=True)
class SigmaGrid:
    """Smallest singular values of T - lam over a list of shifts lam.

    `sigma[i]` belongs to `lams[i]`.  Where `certified[i]` it is the
    geometric mean of a bisection bracket and within 2*DELTA relative of
    sigma_min(T - lam).  Where `bounded[i]` it is a proven upper bound
    t >= sigma_min(T - lam) with t <= N eps nu[i], below the floor where
    sigma_min is resolved.  Elsewhere it is `min_singular_value(T, lam)`,
    bit for bit, which is NaN where T - lam is not finite.  `nu[i]` = sqrt(||T - lam||_1 ||T - lam||_inf) bounds
    ||T - lam||_2.  `classes` is g, and `passes` counts the banded LDL^H
    factorizations, one per lane block and bisection step, plus one per
    block of the bounding stage's prefilter.
    """

    sigma: np.ndarray
    certified: np.ndarray
    bounded: np.ndarray
    nu: np.ndarray
    classes: int
    passes: int


class _Classes:
    """T split exactly into its g residue classes mod g, each padded to L rows.

    Arrays run over (class row i, class r).  col(t)[i, r] is the entry of
    column i of class r that lies t class rows below the diagonal,
    T[r + g(i + t), r + g i], zero outside the class and for t = 0;
    diag holds the diagonal.  fixed[k, i, r] is the part of
    M[i, i+k] = sum_t conj(A[i+t, i]) A[i+t, i+k], A = T - lam, that does
    not involve the diagonal, so not lam; bands k > h = max(upper, lower)
    have no other part.
    """

    def __init__(self, E: np.ndarray):
        n = self.n = E.shape[0]
        rows, cols = np.nonzero(E)
        # np.unique would import numpy.ma, about 1 MB
        offsets = np.flatnonzero(np.bincount(cols - rows + n, minlength=2 * n)) - n
        offsets = offsets[offsets != 0]
        g = self.g = int(np.gcd.reduce(np.abs(offsets))) if offsets.size else n
        self.upper = int(offsets.max(initial=0)) // g
        self.lower = -int(offsets.min(initial=0)) // g
        self.w = self.upper + self.lower
        self.h = max(self.upper, self.lower)
        L = self.L = -(-n // g)
        idx = g * np.arange(L)[:, None] + np.arange(g)[None, :]
        self.valid = idx < n
        self.cols = np.zeros((self.w + 1, L, g), dtype=complex)
        for j, t in enumerate(range(-self.upper, self.lower + 1)):
            r = idx + g * t
            ok = self.valid & (r >= 0) & (r < n)
            self.cols[j][ok] = E[r[ok], idx[ok]]
        self.diag = self.col(0).copy()
        self.col(0)[:] = 0
        self.fixed = np.zeros((self.w + 1, L, g), dtype=complex)
        for k in range(self.w + 1):
            for t in range(k - self.upper, self.lower + 1):
                self.fixed[k, :L - k] += np.conj(self.col(t)[:L - k]) * self.col(t - k)[k:]
        absc = np.abs(self.cols)
        self.colsum = absc.sum(axis=0)
        self.rowsum = np.zeros_like(self.colsum)
        for j, t in enumerate(range(-self.upper, self.lower + 1)):
            if t >= 0:
                self.rowsum[t:] += absc[j, :L - t]
            else:
                self.rowsum[:t] += absc[j, -t:]

    def col(self, t: int) -> np.ndarray:
        return self.cols[t + self.upper]


def _c_w(w: int) -> float:
    """Rounding constant C_w of the certificate, in units of eps * nu^2.

    With u = eps/2 and gamma_k = k u / (1 - k u), the computed quantities
    differ from exact ones by at most (each term in units of eps nu^2):
      1.5         forming A = T - lam (|dA| <= u|A|, so sigma^2 moves by
                  at most 3 u nu^2);
      w + 2       forming M = A^H A, each entry a sum of at most w + 1
                  complex products (|dM| <= 2 gamma_{w+2} |A|^H |A|, and
                  || |A| ||_2 <= nu);
      1           subtracting s^2 on the diagonal;
      (2w+1)(w+2) the banded LDL^H factorization of H = M - s^2 I: Demmel's
                  theorem (Higham, Accuracy and Stability of Numerical
                  Algorithms, Thm 10.7) with the inner-product length w + 1
                  and the band count 2w + 1 of |R|^H |R| in place of n,
                  complex rounding doubling gamma, and max H_ii <= nu^2.
                  It bounds both the backward error of a completed
                  factorization and lambda_min(H) of one that breaks down.
    The sum is doubled, which absorbs the 1/(1 - gamma) factors, the
    rounding of nu and of s^2, and second-order terms.
    """
    return 2.0 * ((2 * w + 1) * (w + 2) + w + 4.5)


def _fill(cl: _Classes, lams: np.ndarray, diag: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Write the lam-dependent bands of M for `lams` and return nu per lam.

    diag[i, j, r] = M[i, i] and near[i, k-1, j, r] = M[i, i+k] (k = 1..h) of
    class r at lams[j]; rows of a class shorter than L hold 2 nu^2 on the
    diagonal, above any s^2 tried.
    """
    L, valid = cl.L, cl.valid[:, None, :]
    Dc = np.where(valid, np.conj(cl.diag)[:, None, :] - np.conj(lams)[None, :, None], 0)
    absD = np.abs(Dc)
    absD += cl.colsum[:, None, :]
    norm1 = absD.max(axis=(0, 2))
    absD += (cl.rowsum - cl.colsum)[:, None, :]
    nu = np.sqrt(norm1 * absD.max(axis=(0, 2)))
    del absD
    np.add(cl.fixed[0].real[:, None, :], Dc.real ** 2, out=diag)
    diag += Dc.imag ** 2
    np.copyto(diag, (2 * nu * nu)[:, None], where=~valid)
    tmp = np.empty_like(Dc)
    for k in range(1, cl.h + 1):
        n = L - k
        out, part = near[:n, k - 1], tmp[:n]
        out[...] = cl.fixed[k, :n, None, :]
        near[n:, k - 1] = 0
        if k <= cl.upper:
            out += np.multiply(Dc[:n], cl.col(-k)[k:, None, :], out=part)
        if k <= cl.lower:
            np.multiply(cl.col(k)[:n, None, :], Dc[k:], out=part)
            out += np.conjugate(part, out=part)
    return nu


class _Block:
    """Bands of M = (T - lam)^H (T - lam) for every class and a block of lams.

    Lane j*g + r is class r at lams[j]; rows are class rows, with w rows of
    padding.  diag[i, lane] = M[i, i], near[i, k-1, lane] = M[i, i+k] for
    k = 1..h, and far[i, k-h-1, r] = M[i, i+k] for the bands k > h, which
    do not depend on lam.  hi per lane is the smallest column norm of the
    class, an upper bound on its sigma_min.
    """

    def __init__(self, cl: _Classes, lams: np.ndarray):
        L, w, h, g = cl.L, cl.w, cl.h, cl.g
        diag = np.ones((L + w, lams.size, g))
        near = np.zeros((L + w, h, lams.size, g), dtype=complex)
        self.nu = np.empty(lams.size)
        for j in range(0, lams.size, _FILL_LANES):
            part = slice(j, j + _FILL_LANES)
            self.nu[part] = _fill(cl, lams[part], diag[:L, part], near[:L, :, part])
        self.hi = np.sqrt(diag[:L].min(axis=0)).reshape(-1)
        self.diag = diag.reshape(L + w, lams.size * g)
        self.near = near.reshape(L + w, h, lams.size * g)
        self.far = np.zeros((L + w, w - h, 1, g), dtype=complex)
        self.far[:L] = cl.fixed[h + 1:].transpose(1, 0, 2)[:, :, None, :]
        self.g = g

    def keep(self, lams: np.ndarray) -> None:
        """Drop the lams not in the boolean mask, in place, rows a chunk at a time."""
        lanes = np.repeat(lams, self.g)
        k = int(lanes.sum())
        for r in range(0, self.diag.shape[0], _CHUNK):
            rows = slice(r, r + _CHUNK)
            self.diag[rows, :k] = self.diag[rows, lanes]
            self.near[rows, :, :k] = self.near[rows][:, :, lanes]
        self.diag, self.near = self.diag[:, :k], self.near[:, :, :k]
        self.hi = self.hi[lanes]


class _Sweep:
    """Lane-wise test: does banded LDL^H of M - s^2 I keep every pivot > 0?

    The factorization runs right-looking: the pivot p of row i updates only
    the next w rows, M[i+a, i+a+d] -= conj(M[i, i+a]) M[i, i+a+d] / p, so
    each step works in a (w+1)^2 Schur-complement window.  Rows of M stream
    through a buffer of _CHUNK + w rows, zero past the band, and only the
    signs of the pivots are kept.  A NaN pivot counts as a breakdown.
    """

    def __init__(self, block: _Block):
        self.block = block
        rows, h, lanes = block.near.shape
        w = h + block.far.shape[1]
        self.w, self.L = w, rows - w
        self.chunk = min(_CHUNK, self.L)
        w1 = w + 1
        buf = self.buf = np.zeros((self.chunk + w, 2 * w + 1, lanes), dtype=complex)
        self.far_view = buf.reshape(self.chunk + w, 2 * w + 1, lanes // block.g,
                                    block.g)[:, h + 1:w1]
        st = buf.strides
        # shifted[j, a, d] = buf[j, 1 + a + d], zero where a + d >= w
        shifted = as_strided(buf[:, 1:], shape=(self.chunk, w, w1, lanes),
                             strides=(st[0], st[1], st[1], st[2]), writeable=False)
        self.steps = [(buf[j, 0].real, buf[j, 1:w1], shifted[j], buf[j + 1:j + w1, :w1])
                      for j in range(self.chunk)]
        self.inv = np.zeros(lanes, dtype=complex)
        self.c = np.empty((w, lanes), dtype=complex)
        self.update = np.empty((w, w1, lanes), dtype=complex)

    def _load(self, dst: slice, src: slice, s2: np.ndarray) -> None:
        b, buf = self.block, self.buf
        h = b.near.shape[1]
        np.subtract(b.diag[src], s2, out=buf[dst, 0])
        buf[dst, 1:h + 1] = b.near[src]
        self.far_view[dst] = b.far[src]

    def __call__(self, s2: np.ndarray) -> np.ndarray:
        buf, w, L, chunk = self.buf, self.w, self.L, self.chunk
        w1 = w + 1
        inv, inv_re, c, update = self.inv, self.inv.real, self.c, self.update
        c_col = c[:, None]
        ok = np.ones(buf.shape[2], dtype=bool)
        self._load(slice(0, chunk + w), slice(0, chunk + w), s2)
        for start in range(0, L, chunk):
            n = min(chunk, L - start)
            if start:
                buf[:w, :w1] = buf[chunk:chunk + w, :w1]
                self._load(slice(w, w + n), slice(start + w, start + w + n), s2)
            for pivot, row, shifted, target in self.steps[:n]:
                np.divide(1.0, pivot, out=inv_re)
                np.conjugate(row, out=c)
                c *= inv
                np.multiply(c_col, shifted, out=update)
                target -= update
            ok &= np.all(buf[:n, 0].real > 0, axis=0)
        return ok


def _blocks(count: int, per_item: int) -> list:
    """Equal slices of range(count) whose items take at most _BLOCK_BYTES each."""
    blocks = max(1, -(-count * per_item // _BLOCK_BYTES))
    size = max(1, -(-count // blocks))
    return [slice(start, start + size) for start in range(0, count, size)]


def min_singular_values(T: np.ndarray, lams: Sequence[complex]) -> SigmaGrid:
    """sigma_min(T - lam) for every lam, certified by banded bisection.

    T is split exactly into its residue classes mod g, the gcd of its
    nonzero diagonal offsets.  For each class and lam, bisection on s tests
    whether M - s^2 I is positive definite, M = (T - lam)^H (T - lam),
    with a banded LDL^H factorization.  With nu >= ||T - lam||_2 and the
    rounding constant C_w of `_c_w`, a success at s proves sigma_min >=
    s sqrt(1 - DELTA) and a breakdown proves sigma_min <= s sqrt(1 + DELTA)
    once s >= t = nu sqrt(C_w eps / DELTA).  Each lane first tests its
    threshold t; a success opens the bracket [t, smallest column norm],
    which is halved in log scale until hi/lo <= 1 + 2 DELTA, and
    sqrt(lo hi) is reported.  A lam whose threshold test breaks down in any
    class or whose bracket does not close in _MAX_PASSES goes to `_bound`,
    which reports a proven upper bound t <= N eps nu where one inverse
    iteration step finds it (`bounded`).  The remaining lams, and those
    whose nu is outside _NU_RANGE (non-finite data included), are answered
    by the dense `min_singular_value` instead; a lam for which T - lam is
    not finite gets NaN there, without an SVD.
    """
    E = np.asarray(T, dtype=complex)
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    sigma = np.empty(lams.size)
    certified = np.zeros(lams.size, dtype=bool)
    bounded = np.zeros(lams.size, dtype=bool)
    nu = np.empty(lams.size)
    passes = 0
    with np.errstate(all="ignore"):
        cl = _Classes(E)
        w = cl.w
        per_lam = cl.g * ((cl.L + w) * (8 + 16 * cl.h) + (_CHUNK + w) * (2 * w + 1) * 16)
        for part in _blocks(lams.size, per_lam):
            passes += _bisect(cl, lams[part], sigma[part], certified[part], nu[part])
        rest = np.flatnonzero(~certified & (nu > _NU_RANGE[0]) & (nu < _NU_RANGE[1]))
        if rest.size:
            passes += _bound(cl, lams, nu, rest, per_lam, sigma, bounded)
    for i in np.flatnonzero(~certified & ~bounded):
        sigma[i] = min_singular_value(E, lams[i])
    return SigmaGrid(sigma, certified, bounded, nu, cl.g, passes)


def _bisect(cl: _Classes, lams: np.ndarray, sigma: np.ndarray, certified: np.ndarray,
            nu: np.ndarray) -> int:
    """Certify one block of lams in place; return the factorizations run."""
    g = cl.g
    block = _Block(cl, lams)
    nu[:] = block.nu
    lo = np.repeat(math.sqrt(_c_w(cl.w) * _EPS / DELTA) * nu, g)
    ok = np.repeat((nu > _NU_RANGE[0]) & (nu < _NU_RANGE[1]), g)
    ok &= _Sweep(block)(lo * lo)
    passes = 1
    keep = ok.reshape(-1, g).all(axis=1)
    if not keep.any():
        return passes
    block.keep(keep)
    lo, hi = lo[np.repeat(keep, g)], block.hi
    sweep = _Sweep(block)
    for _ in range(_MAX_PASSES):
        active = hi > lo * (1 + 2 * DELTA)
        if not active.any():
            break
        s = np.sqrt(lo * hi)
        good = sweep(s * s)
        passes += 1
        lo = np.where(active & good, s, lo)
        hi = np.where(active & ~good, s, hi)
    closed = (hi <= lo * (1 + 2 * DELTA)).reshape(-1, g).all(axis=1)
    idx = np.flatnonzero(keep)[closed]
    sigma[idx] = np.sqrt(lo * hi).reshape(-1, g).min(axis=1)[closed]
    certified[idx] = True
    return passes


# phases of the fixed start vector b_i = exp(2 pi i frac(_PHASE i^2)), the
# same in every class, lane and block
_PHASE = 0.6180339887498949


def _bound(cl: _Classes, lams: np.ndarray, nu: np.ndarray, rest: np.ndarray,
           per_lam: int, sigma: np.ndarray, bounded: np.ndarray) -> int:
    """Bound sigma_min from above at lams[rest] in place; return the sweeps run.

    One `_Sweep` at s^2 = 2 C_w eps nu^2 per block succeeds in a class only
    if its sigma_min >= sqrt(C_w eps) nu > N eps nu (see `_c_w`), so such a
    class cannot bring its lam below the floor and skips the factorization.
    Every other class gets `_inverse_step`; a lam whose smallest bound is at
    most N eps nu reports it.  The prefilter only saves work: any class's
    bound bounds sigma_min of the whole section.
    """
    g, w = cl.g, cl.w
    parts = _blocks(rest.size, per_lam)
    lanes = []  # lane lam * g + r: class r of lams[lam]
    for part in parts:
        idx = rest[part]
        s2 = np.repeat(2 * _c_w(w) * _EPS * nu[idx] ** 2, g)
        low = np.flatnonzero(~_Sweep(_Block(cl, lams[idx]))(s2))
        lanes.append(idx[low // g] * g + low % g)
    lanes = np.concatenate(lanes)
    t = np.empty(lanes.size)
    # bytes per lane of _inverse_step's band, factors and vectors
    per_lane = 16 * (cl.L + 2 * w) * (2 * cl.lower + 4 * w + 8)
    for part in _blocks(lanes.size, per_lane):
        j, r = np.divmod(lanes[part], g)
        t[part] = _inverse_step(cl, lams[j], nu[j], r)
    best = np.full(lams.size, np.nan)  # NaN fails the floor test: lams not in rest
    np.fmin.at(best, lanes // g, t)
    ok = best <= cl.n * _EPS * nu
    sigma[ok] = best[ok]
    bounded[ok] = True
    return len(parts)


def _inverse_step(cl: _Classes, lams: np.ndarray, nu: np.ndarray,
                  r: np.ndarray) -> np.ndarray:
    """Upper bounds t on sigma_min of class r[j] of T - lams[j], lane-wise.

    A is the class block of T - lam, padded with nu on the diagonal to L
    rows; its sigma_min is min(sigma_min of the class, nu), and nu is above
    every accepted t.  A banded LU with partial pivoting, PA = LU, stores U
    with w = upper + lower superdiagonals (pivots below eps nu are raised to
    eps nu).  One inverse iteration step on A^H A solves A^H y = b and
    A x = y from the fixed b, scaling y and x to largest modulus 1 on the
    way.  The bound then rests on x alone, whatever the LU's accuracy:
    sigma_min(A) <= ||A x|| / ||x|| for any x != 0.  With u = eps/2,
    gamma_k = k u / (1 - k u) and A' = fl(T - lam) as formed here:
      ||(A' - A) x||     <= u nu ||x||, since |A' - A| <= u |A| and
                            || |A| ||_2 <= nu;
      ||fl(A' x) - A' x|| <= 2 gamma_{w+2} nu ||x||, each entry a sum of at
                            most w + 1 complex products (complex rounding
                            doubling gamma, as in _c_w);
      ||y||, ||x||        computed to relative gamma_{2L+1} each; squares
                            that underflow lose at most sqrt(L) 1e-154,
                            far below eps nu for nu in _NU_RANGE.
    So sigma_min <= (r / q)(1 + 3 gamma_{2L+1}) + (2 gamma_{w+2} + u) nu,
    r and q the computed norms of A' x and x.  The bound doubles both
    terms, which absorbs the rounding of nu and of the sum itself:
    t = (r / q)(1 + 8 (L + 1) eps) + (2w + 5) eps nu.
    """
    L, kl, w = cl.L, cl.lower, cl.w
    n = lams.size
    ar = np.arange(n)
    diag = np.where(cl.valid[:, r], cl.diag[:, r] - lams, nu)
    # (d, rows, values): A[i, i + d] for i in rows, d = -lower..upper
    offdiag = [(d, slice(max(-d, 0), L - max(d, 0)), cl.col(-d)[max(d, 0):L + min(d, 0), r])
               for d in range(-kl, cl.upper + 1) if d]
    # band[i, kl + d] = A[i, i + d]; d up to w leaves room for U's fill-in
    band = np.zeros((L + kl, kl + w + 1, n), dtype=complex)
    band[:L, kl] = diag
    for d, rows, vals in offdiag:
        band[rows, kl + d] = vals
    st = band.strides
    # win[j, a, e] = band[j + a, kl - a + e] = A[j + a, j + e] at step j
    win = as_strided(band[:, kl:], shape=(L, kl + 1, w + 1, n),
                     strides=(st[0], st[0] - st[1], st[1], st[2]))
    tiny = _EPS * nu
    piv = np.zeros((L, n), dtype=np.intp)
    mult = np.empty((L, kl, n), dtype=complex)
    for j in range(L):
        W = win[j]
        if kl:
            p = np.abs(W[:, 0]).argmax(axis=0)
            top = W[0].copy()
            W[0] = W[p, :, ar].T
            W[p, :, ar] = top.T
            piv[j] = p
        pivot = W[0, 0]
        np.copyto(pivot, tiny, where=np.abs(pivot) < tiny)
        if kl:
            np.divide(W[1:, 0], pivot, out=mult[j])
            W[1:, 1:] -= mult[j][:, None] * W[0, 1:]
    U = band[:L, kl:]
    piv += np.arange(L)[:, None]
    # A^H y = b: U^H z = b by columns, then L^H and the swaps backwards
    Uc = np.conj(U)
    inv = 1.0 / Uc[:, 0]
    z = np.zeros((L + w, n), dtype=complex)
    z[:L] = np.exp(2j * np.pi * ((_PHASE * np.arange(L) ** 2) % 1.0))[:, None]
    for j in range(L):
        zj = z[j]
        zj *= inv[j]
        z[j + 1:j + 1 + w] -= Uc[j, 1:] * zj
    lc = np.conj(mult)
    for j in range(L - 1, -1, -1) if kl else ():
        acc = lc[j, 0] * z[j + 1]
        for a in range(1, kl):
            acc += lc[j, a] * z[j + 1 + a]
        z[j] -= acc
        zj = z[j].copy()
        z[j] = z[piv[j], ar]
        z[piv[j], ar] = zj
    # A x = y: the swaps and L forwards, then U x = y by columns
    v = np.zeros((L + 2 * w, n), dtype=complex)
    v[w:w + L] = z[:L] / np.abs(z[:L]).max(axis=0)
    for j in range(L) if kl else ():
        vj = v[w + j].copy()
        v[w + j] = v[w + piv[j], ar]
        v[w + piv[j], ar] = vj
        v[w + j + 1:w + j + 1 + kl] -= mult[j] * v[w + j]
    ucol = np.zeros((L, w, n), dtype=complex)  # ucol[j, k] = U[j - w + k, j]
    for k in range(w):
        ucol[w - k:, k] = U[:L - w + k, w - k]
    inv = 1.0 / U[:, 0]
    for j in range(L - 1, -1, -1):
        xj = v[w + j]
        xj *= inv[j]
        v[j:j + w] -= ucol[j] * xj
    x = v[w:w + L] / np.abs(v[w:w + L]).max(axis=0)
    ax = diag * x
    for d, rows, vals in offdiag:
        ax[rows] += vals * x[max(d, 0):L + min(d, 0)]
    return (_norms(ax) / _norms(x) * (1 + 8 * (L + 1) * _EPS)
            + (2 * w + 5) * _EPS * nu)


def _norms(a: np.ndarray) -> np.ndarray:
    """2-norms of the columns of a, each summed along its own contiguous row."""
    sq = np.ascontiguousarray((a.real * a.real + a.imag * a.imag).T)
    return np.sqrt(sq.sum(axis=1))
