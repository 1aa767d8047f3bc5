"""Complex polynomial arithmetic and zero localization at the unit circle.

Polynomials are stored densely by ascending power.  Zero counting inside
the open unit disk uses the Schur-Cohn determinant test: for

    p(z) = a_n z^n + ... + a_1 z + a_0

build, for k = 1..n, the upper triangular k x k matrices

    A_k[i, j] = a_{j-i}            (first row a_0, a_1, ..., a_{k-1}),
    B_k[i, j] = conj(a_{n-j+i})    (first row conj(a_n), ..., conj(a_{n-k+1})),

and the determinants M_k = det(B_k* B_k - A_k* A_k), which are real because
the matrix is Hermitian.  When every M_k is nonzero the number of zeros of
p inside the unit disk equals n - N(1, M_1, ..., M_n), where N counts sign
changes after dropping zero entries.  Near-vanishing M_k means zeros close
to the circle; the count is then reported as indeterminate rather than
guessed.

The root finder is an Ehrlich-Aberth simultaneous iteration with a
companion-matrix fallback, returning roots sorted by (modulus, argument).
It runs lane-wise over many polynomials of one degree at once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np


class RootFindingError(Exception):
    """Raised when the root finder cannot meet the residual tolerance."""


class NumericIntegrityError(Exception):
    """Raised when a quantity that must be real/Hermitian is visibly not."""


@dataclass(frozen=True)
class CPoly:
    """Dense complex polynomial, coefficients by ascending power."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("CPoly needs at least one coefficient")
        for c in self.coeffs:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("non-finite coefficient")

    @classmethod
    def make(cls, coeffs: Sequence[complex]) -> "CPoly":
        """Build with exact trailing zeros trimmed."""
        cs = [complex(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0j]
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, z: complex) -> complex:
        return eval_poly(self, z)

    def scale(self) -> float:
        return max(abs(c) for c in self.coeffs)


def eval_poly(p: CPoly, z: complex) -> complex:
    """Horner evaluation of p at z."""
    acc = 0j
    for a in reversed(p.coeffs):
        acc = acc * z + a
    return acc


def eval_poly_many(coeffs: Sequence[complex], z: np.ndarray) -> np.ndarray:
    """Horner evaluation at an array of points."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for a in reversed(list(coeffs)):
        acc = acc * z + a
    return acc


def derivative(p: CPoly) -> CPoly:
    if p.degree == 0:
        return CPoly.make([0j])
    return CPoly.make([k * c for k, c in enumerate(p.coeffs)][1:])


def _spread(desc: np.ndarray) -> np.ndarray:
    # coefficient j of each row of desc (highest power first), repeated over
    # the row's n points: (n + 1, rows, n), so that Horner's rule adds arrays
    # of one shape, which numpy does fastest
    return np.repeat(desc.T[:, :, None], desc.shape[1] - 1, axis=2)


def _horner_with_derivative(coef: np.ndarray, z: np.ndarray):
    # each polynomial of _spread(desc) at the points in its row of z
    p = np.zeros(z.shape, z.dtype)
    dp = np.zeros(z.shape, z.dtype)
    for a in coef:
        dp = dp * z + p
        p = p * z + a
    return p, dp


def _solve_quadratic(a: complex, b: complex, c: complex) -> list[complex]:
    # roots of a z^2 + b z + c, stable branch choice in the quadratic formula
    if c == 0:
        return [0j, -b / a]
    disc = b * b - 4 * a * c
    s = cmath.sqrt(disc)
    if abs(b + s) < abs(b - s):
        s = -s
    q = -(b + s) / 2
    return [q / a, c / q]


def _aberth(desc: np.ndarray, max_iter: int = 80) -> tuple[np.ndarray, np.ndarray]:
    """Ehrlich-Aberth iteration on every row of desc (highest power first).

    A row stops at the iteration where its own steps become negligible, or
    where it stops being finite, and then takes no further part.  Returns
    the final iterates and the mask of rows that stayed finite.
    """
    rows, n = desc.shape[0], desc.shape[1] - 1
    r0 = np.empty(rows)
    for i, (an, a0) in enumerate(zip(desc[:, 0], desc[:, -1])):
        r = abs(a0 / an) ** (1.0 / n) if a0 != 0 else 0.5
        r0[i] = min(max(r, 1e-6), 1e6)
    k = np.arange(n)
    # spiral start breaks symmetric stagnation
    z = r0[:, None] * (1.0 + 0.05 * k / max(n - 1, 1)) * np.exp(1j * (2 * np.pi * k / n + 0.4))
    out = np.empty_like(z)
    finite = np.ones(rows, dtype=bool)
    live = np.arange(rows)
    coef = _spread(desc)
    for _ in range(max_iter):
        p, dp = _horner_with_derivative(coef, z)
        dp = np.where(np.abs(dp) < 1e-300, 1e-300, dp)
        w = p / dp
        diff = z[:, :, None] - z[:, None, :]
        diff.reshape(len(z), n * n)[:, ::n + 1] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            # minus the 1/1 of the unit diagonal
            sums = (1.0 / diff).sum(axis=2) - 1.0
        denom = 1.0 - w * sums
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = w / denom
        z = z - step
        bad = ~np.isfinite(z).all(axis=1)
        done = bad | (np.abs(step) <= 1e-14 * (1.0 + np.abs(z))).all(axis=1)
        if done.any():
            out[live[done]] = z[done]
            finite[live[bad]] = False
            live, coef, z = live[~done], coef[:, ~done], z[~done]
            if not live.size:
                return out, finite
    out[live] = z
    return out, finite


def _newton_polish(desc: np.ndarray, roots: np.ndarray, rounds: int = 2) -> np.ndarray:
    z = roots.copy()
    coef = _spread(desc)
    for _ in range(rounds):
        p, dp = _horner_with_derivative(coef, z)
        mask = np.abs(dp) > 1e-200
        step = np.zeros_like(z)
        step[mask] = p[mask] / dp[mask]
        cand = z - step
        pc, _ = _horner_with_derivative(coef, cand)
        better = np.abs(pc) < np.abs(p)
        z = np.where(better, cand, z)
    return z


# normwise backward error accepted by roots().  Horner's rule alone may
# leave n eps of it at degree n (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., sec. 5.1); np.roots reached 31 eps on
# Gaussian polynomials of degree <= 12
BACKWARD_ERROR_TOL = 64 * np.finfo(float).eps


def _back(zs: np.ndarray, reverse: np.ndarray) -> np.ndarray:
    # roots of the polynomials from those of the rows the iteration ran on
    with np.errstate(divide="ignore", invalid="ignore"):
        inverted = np.where(np.abs(zs) < 1e-300, 1e300, 1.0 / zs)
    return np.where(reverse[:, None], inverted, zs)


def _residual(desc, zs, reverse) -> np.ndarray:
    return np.abs(_horner_with_derivative(_spread(desc), _back(zs, reverse))[0]).max(axis=1)


def _accepted(desc, work, zs, reverse, tol) -> np.ndarray:
    ok = _residual(desc, zs, reverse) <= tol
    if not ok.all():
        # the backward error is the same for work at zs as for p at
        # _back(zs), and evaluating work cannot overflow
        err = np.abs(_horner_with_derivative(_spread(work), zs)[0])
        bound = _horner_with_derivative(_spread(np.abs(work)), np.abs(zs))[0]
        ok |= (err <= BACKWARD_ERROR_TOL * bound).all(axis=1)
    return ok


def _solve_degree(norms: list[list[complex]], tol: float) -> list:
    """Roots of scale-normalized polynomials of one degree >= 3 (ascending
    coefficients), or the RootFindingError of each that fails."""
    deg = len(norms[0]) - 1
    desc = np.array([nm[::-1] for nm in norms], dtype=complex)
    # a small leading coefficient means large roots; those are the small
    # roots of the reversed polynomial, where evaluation is far better
    # conditioned
    reverse = np.array([abs(nm[-1]) < abs(nm[0]) for nm in norms])
    work = np.where(reverse[:, None], desc[:, ::-1], desc)
    cand, finite = _aberth(work)
    cand[finite] = _newton_polish(work[finite], cand[finite])
    ok = np.zeros(len(norms), dtype=bool)
    ok[finite] = _accepted(desc[finite], work[finite], cand[finite], reverse[finite], tol)
    failed = {}
    for i in np.flatnonzero(~ok):
        # companion-matrix fallback, one polynomial at a time
        one = slice(i, i + 1)
        cand[one] = _newton_polish(work[one], np.asarray(np.roots(work[i]), dtype=complex)[None])
        if not _accepted(desc[one], work[one], cand[one], reverse[one], tol)[0]:
            failed[i] = RootFindingError(
                f"degree {deg} roots fail the residual tol {tol:.3e} (residual "
                f"{_residual(desc[one], cand[one], reverse[one])[0]:.3e}) and the "
                f"backward error test")
    found = _back(cand, reverse)
    return [failed.get(i) or [complex(z) for z in found[i]] for i in range(len(norms))]


# polynomials per Aberth iteration: bounds its (lanes x n x n) work arrays,
# 2.4 MB each at degree 12
_LANE_BLOCK = 1024


def roots_many(polys: Sequence[CPoly], tol: float = 1e-9) -> list[list[complex]]:
    """All roots of each polynomial with multiplicity, sorted by (modulus, argument).

    From degree 3 on, a root set is accepted when |p(z)| <= tol * max|a_k|
    at every root, or else when every root has normwise backward error
    |p(z)| / sum |a_k| |z|^k <= BACKWARD_ERROR_TOL (good roots of large
    modulus fail the absolute test).  Aberth roots that fail both tests
    fall back to the companion matrix, and RootFindingError is raised when
    those fail both as well.

    The polynomials of one degree share one Aberth iteration, in which
    each does exactly the floating-point operations it would do alone and
    stops at the same step, so its roots do not depend on the others.
    When some polynomials fail, the error of the first is raised.
    """
    found: list = []
    errors: dict[int, Exception] = {}
    by_degree: dict[int, dict[int, list[complex]]] = {}   # degree -> {index: norm}
    for i, p in enumerate(polys):
        out: list[complex] = []
        found.append(out)
        if p.is_zero:
            errors[i] = ValueError("zero polynomial has no well-defined roots")
            continue
        if p.degree < 1:
            errors[i] = ValueError("degree must be at least 1")
            continue
        cs = list(p.coeffs)
        while cs[0] == 0 and len(cs) > 1:
            cs.pop(0)
            out.append(0j)
        deg = len(cs) - 1
        if deg >= 1:
            scale = max(abs(c) for c in cs)
            norm = [c / scale for c in cs]
            if deg == 1:
                out.append(-norm[0] / norm[1])
            elif deg == 2:
                out.extend(_solve_quadratic(norm[2], norm[1], norm[0]))
            else:
                by_degree.setdefault(deg, {})[i] = norm
    for group in by_degree.values():
        lanes = list(group)
        for start in range(0, len(lanes), _LANE_BLOCK):
            block = lanes[start:start + _LANE_BLOCK]
            for i, res in zip(block, _solve_degree([group[i] for i in block], tol)):
                if isinstance(res, Exception):
                    errors[i] = res
                else:
                    found[i].extend(res)
    if errors:
        raise errors[min(errors)]
    for out in found:
        out.sort(key=lambda z: (abs(z), cmath.phase(z)))
    return found


def roots(p: CPoly, tol: float = 1e-9) -> list[complex]:
    """All roots of p with multiplicity, sorted by (modulus, argument);
    see roots_many for the acceptance tests."""
    return roots_many([p], tol)[0]


class ZeroPattern(NamedTuple):
    """Zeros of a polynomial located against the unit circle.

    roots are sorted as roots() returns them and moduli ascend.  in_disk
    counts the zeros of modulus below 1, and is None when some modulus
    lies within the circle tolerance of 1.
    """

    roots: tuple[complex, ...]
    moduli: tuple[float, ...]
    in_disk: Optional[int]

    def distinct(self, rel_tol: float = 1e-6) -> bool:
        """Pairwise distinct moduli (the Poincare condition); vacuous without zeros."""
        return not self.roots or distinct_moduli(self.roots, rel_tol)


def _located(rs: tuple[complex, ...], circle_tol: float) -> ZeroPattern:
    mods = tuple(sorted(map(abs, rs)))
    count = 0
    for mu in mods:
        if abs(mu - 1.0) <= circle_tol:
            return ZeroPattern(rs, mods, None)
        count += mu < 1.0
    return ZeroPattern(rs, mods, count)


def zero_patterns(polys: Sequence[CPoly], circle_tol: float) -> list[ZeroPattern]:
    """zero_pattern() of each polynomial, the roots found by one roots_many call."""
    polys = list(polys)
    solve = [i for i, p in enumerate(polys) if p.degree > 0 or p.is_zero]
    found = dict(zip(solve, roots_many([polys[i] for i in solve])))
    return [_located(tuple(found.get(i, ())), circle_tol) for i in range(len(polys))]


def zero_pattern(p: CPoly, circle_tol: float) -> ZeroPattern:
    """Roots of p, their moduli, and the count inside the unit disk.

    A nonzero constant has no zeros; the zero polynomial raises ValueError.
    """
    return zero_patterns([p], circle_tol)[0]


def sign_variations(seq: Sequence[float]) -> int:
    """Sign changes in a real sequence, ignoring zero entries."""
    signs = [1 if x > 0 else -1 for x in seq if x != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class SchurCohnReport:
    """Determinants M_1..M_n, the sign-variation count, and the zero count.

    in_disk_count is None when some |M_k| fell below the degeneracy
    tolerance (zeros too close to the circle for the test to resolve).
    """

    dets: tuple[float, ...]
    variations: int
    in_disk_count: Optional[int]

    @property
    def is_indeterminate(self) -> bool:
        return self.in_disk_count is None


def schur_cohn(p: CPoly, degeneracy_tol: float = 1e-10) -> SchurCohnReport:
    """Count zeros of p inside the unit disk by the determinant test.

    The reported M_k come from the raw coefficients; the degeneracy test
    divides M_k by scale^(2k) with scale = max|a_j|, so degeneracy_tol is
    an absolute threshold on coefficient-normalized polynomials and the
    verdict is invariant under scaling p by a nonzero constant.
    """
    n = p.degree
    if n < 1:
        raise ValueError("schur_cohn requires degree >= 1")
    if p.coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    a = np.array(p.coeffs, dtype=complex)
    scale = float(np.max(np.abs(a)))

    dets: list[float] = []
    for k in range(1, n + 1):
        A = np.zeros((k, k), dtype=complex)
        B = np.zeros((k, k), dtype=complex)
        for i in range(k):
            A[i, i:] = a[: k - i]
            B[i, i:] = np.conj(a[n::-1][: k - i])
        H = B.conj().T @ B - A.conj().T @ A
        hmax = float(np.max(np.abs(H))) if H.size else 0.0
        asym = float(np.max(np.abs(H - H.conj().T)))
        if asym > 1e-9 * hmax + 1e-12 * scale**2:
            raise NumericIntegrityError(f"M_{k} matrix not Hermitian: asymmetry {asym:.3e}")
        H = (H + H.conj().T) / 2
        det = complex(np.linalg.det(H))
        if abs(det.imag) > 1e-9 * abs(det) + 1e-12 * scale ** (2 * k):
            raise NumericIntegrityError(f"M_{k} determinant not real: {det!r}")
        dets.append(det.real)

    variations = sign_variations([1.0] + dets)
    if any(abs(m) / scale ** (2 * k) <= degeneracy_tol
           for k, m in enumerate(dets, start=1)):
        return SchurCohnReport(tuple(dets), variations, None)
    count = n - variations
    if not 0 <= count <= n:
        raise NumericIntegrityError(f"zero count {count} outside [0, {n}]")
    return SchurCohnReport(tuple(dets), variations, count)


def distinct_moduli(root_list: Sequence[complex], rel_tol: float = 1e-6) -> bool:
    """True when all pairwise modulus gaps exceed rel_tol * max modulus."""
    if len(root_list) == 0:
        raise ValueError("empty root list")
    mods = sorted(abs(z) for z in root_list)
    top = mods[-1]
    if top == 0:
        return len(mods) == 1
    return all(b - a > rel_tol * top for a, b in zip(mods, mods[1:]))


def to_json_coeffs(p: CPoly) -> list[list[float]]:
    """JSON form: array of [re, im] pairs, ascending powers."""
    return [[c.real, c.imag] for c in p.coeffs]


def from_json_coeffs(data: Sequence[Sequence[float]]) -> CPoly:
    return CPoly.make([complex(re, im) for re, im in data])
