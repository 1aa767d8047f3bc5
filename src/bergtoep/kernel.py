"""Kernel and range computations for T_phi via coefficient recursions.

Writing a candidate kernel element as g = sum d_k z^k, the equation
T_phi g = 0 becomes an explicit linear recursion on the Taylor
coefficients.  For phi = conj(z)^m + f with f = sum a_k z^k:

    d_{m+k} = -((m+1+k)/(k+1)) * sum_{i=0}^{k} a_{k-i} d_i,    k >= 0,

with the seed block d_0..d_{m-1} free.  For a general monic-q symbol the
same elimination gives

    (k+1)/(m+k+1) d_{m+k}
        + sum_{i=1}^{m-1} anti_i (k+1)/(m-i+k+1) d_{m-i+k}
        + sum_{i=0}^{n} a_i d_{k-i} = 0,

(d_j = 0 for j < 0).  Membership of the resulting power series in the
Bergman space is decided from the asymptotics of the recursion: the
coefficient functions converge, so consecutive-term ratios stabilize at a
characteristic root (the reciprocals of the associated-polynomial zeros),
and geometric growth or decay of |d_k| is the observable that separates
square-summable streams from divergent ones.  Streams on the exact
boundary are reported as undecided, never rounded.

Growth can exceed the double range long before K = 20000, so streams are
generated with block renormalization: stored values are mantissas with a
shared log scale, and true log magnitudes follow from the moduli and the
scale in force when each entry was created.  A rescale multiplies only the
recursion's lookback window (m + n + 1 entries for a general symbol, m +
the largest shift + 1 for conj(z)^m + f); the older entries owe the factor,
and the owed factors are applied in order, with Python's complex-by-float
rounding, when the stream is finished.  The mantissas are therefore the
same as if every rescale had rewritten the whole history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import cpoly as _cp
from .symbols import HarmonicPolySymbol, SpecialFamilySymbol, associated_poly

_BLOCK = 512
_BLOCK_LIMIT = 1e100
_HARD_LIMIT = 1e250
_TINY = 1e-280

MEMBER = "member"
NON_MEMBER = "non_member"
UNDECIDED = "undecided"


class CoefficientStream:
    """Taylor coefficients d_0..d_K with scale bookkeeping.

    True coefficients are ``mant * exp(log_scale)``; ``logmag`` holds the
    true log magnitudes recorded before any renormalization could
    underflow the mantissas.  ``stride`` is the index step at which ratio
    diagnostics are taken (the anti-analytic degree m for the kernel
    recursions).
    """

    def __init__(self, mant: np.ndarray, logmag: np.ndarray,
                 log_scale: float, stride: int):
        self.mant = np.asarray(mant, dtype=complex)
        self.logmag = np.asarray(logmag, dtype=float)
        self.log_scale = float(log_scale)
        self.stride = int(stride)
        self._log_norm = None

    def __len__(self) -> int:
        return len(self.mant)

    @classmethod
    def from_coefficients(cls, values: Sequence[complex], stride: int = 1) -> "CoefficientStream":
        mant = np.asarray(list(values), dtype=complex)
        with np.errstate(divide="ignore"):
            logmag = np.log(np.abs(mant))
        return cls(mant, logmag, 0.0, stride)

    @property
    def log_norm_partials(self) -> np.ndarray:
        """log of the running sums sum_{j<=k} |d_j|^2 / (j+1)."""
        if self._log_norm is None:
            k = np.arange(len(self.mant), dtype=float)
            terms = 2.0 * self.logmag - np.log(k + 1.0)
            self._log_norm = np.logaddexp.accumulate(terms)
        return self._log_norm

    @property
    def norm_partials(self) -> np.ndarray:
        ln = self.log_norm_partials
        out = np.exp(np.minimum(ln, 700.0))
        out[np.isneginf(ln)] = 0.0
        return out

    def ratio_trace(self):
        """(indices k, ratios d_{k+stride}/d_k) where both entries are nonzero."""
        s = self.stride
        den = self.mant[:-s] if s < len(self.mant) else self.mant[:0]
        num = self.mant[s:]
        mask = (np.abs(den) > _TINY) & (np.abs(num) > _TINY)
        ks = np.nonzero(mask)[0]
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = num[mask] / den[mask]
        return ks, ratios

    def coefficients(self) -> np.ndarray:
        """True coefficient values; fails when the scale exceeds float range."""
        if self.log_scale > 690.0:
            raise OverflowError("stream exceeds float range; use mant/logmag")
        return self.mant * math.exp(self.log_scale)

    def to_csv(self, path) -> None:
        """Columns k, re, im, norm_partial, log_scale.

        re/im are mantissas; the true coefficient is (re+1j*im)*exp(log_scale).
        """
        tail = f",{self.log_scale!r}\n"
        rows = zip(self.mant.tolist(), self.norm_partials.tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,re,im,norm_partial,log_scale\n")
            fh.writelines(f"{k},{v.real!r},{v.imag!r},{p!r}{tail}"
                          for k, (v, p) in enumerate(rows))


def _log_moduli(mods: np.ndarray, scales: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """log(mod) + scale where ``nonzero``, -inf elsewhere.

    Each entry is ``math.log(mod) + scale``, the value a per-term
    ``math.log`` call gives; numpy's vectorized log may round differently.
    """
    out = np.full(len(mods), -np.inf)
    idx = np.flatnonzero(nonzero)
    logs = np.fromiter(map(math.log, mods[idx].tolist()), dtype=float, count=len(idx))
    out[idx] = logs + scales[idx]
    return out


# Whether complex * float promotes the float to complex(f, 0.0), as CPython
# before 3.14 does; the promoted zero can flip the sign of a zero part.
_PROMOTES_REAL = math.copysign(1.0, (complex(-0.0, -1.0) * 1.0).real) > 0.0


def _apply_owed(mant: np.ndarray, owed: Sequence[tuple[int, float]]) -> None:
    """In place: mant[:cut] *= factor for each (cut, factor), in order.

    Every product is rounded as the Python ``complex * float`` the factor
    would have been applied with at rescale time, zero signs included.
    """
    re, im = mant.real, mant.imag
    with np.errstate(invalid="ignore"):
        for cut, f in owed:
            r, i = re[:cut], im[:cut]
            r0 = r * 0.0
            i0 = i * 0.0
            r *= f
            i *= f
            if _PROMOTES_REAL:
                # re*f - im*0.0 and re*0.0 + im*f, operands in CPython's order
                r -= i0
                np.add(r0, i, out=i)


class _StreamBuilder:
    """Appends coefficients with overflow-safe block renormalization.

    A rescale multiplies only the trailing ``window`` entries, the lookback
    the recursion still reads.  Older entries owe the factor: each rescale
    records (cut, factor), and ``finish`` applies the owed factors to the
    entries below each cut in the order they were recorded, so every
    mantissa is rounded exactly as if the whole history had been rescaled
    each time.  Moduli are recorded at creation and turned into log
    magnitudes, with the scale in force at creation, by ``finish``.

    Hot loops may append to ``vals`` and ``mods`` directly and track the
    block state (``since``, ``blockmax``) in locals, calling ``rescale``
    when ``append`` would have.
    """

    def __init__(self, stride: int, window: int):
        self.vals: list[complex] = []
        self.mods: list[float] = []
        self.scale = 0.0
        self.stride = stride
        self.window = window
        self.since = 0
        self.blockmax = 0.0
        self._owed: list[tuple[int, float]] = []
        self._scale_from: list[tuple[int, float]] = [(0, 0.0)]

    def append(self, v: complex) -> None:
        v = complex(v)
        a = abs(v)
        self.vals.append(v)
        self.mods.append(a)
        if a > self.blockmax:
            self.blockmax = a
        self.since += 1
        if a > _HARD_LIMIT or (self.since >= _BLOCK and self.blockmax > _BLOCK_LIMIT):
            self.rescale(self.blockmax)
            self.blockmax = 1.0
            self.since = 0
        elif self.since >= _BLOCK:
            self.since = 0

    def rescale(self, blockmax: float) -> None:
        """Divide the stream by blockmax: the window now, older entries at finish."""
        shift = math.log(blockmax)
        f = math.exp(-shift)
        vals = self.vals
        cut = max(len(vals) - self.window, 0)
        vals[cut:] = [x * f for x in vals[cut:]]
        if cut:
            self._owed.append((cut, f))
        self.scale += shift
        self._scale_from.append((len(vals), self.scale))

    def finish(self) -> CoefficientStream:
        mant = np.array(self.vals, dtype=complex)
        _apply_owed(mant, self._owed)
        starts, scales = zip(*self._scale_from)
        counts = np.diff(starts + (len(mant),))
        mods = np.array(self.mods, dtype=float)
        logmag = _log_moduli(mods, np.repeat(scales, counts), mods > 0.0)
        return CoefficientStream(mant, logmag, self.scale, self.stride)


class _ScaledScatter:
    """Sparse emission of (position, value, value-scale) into a stream.

    Stored mantissas share one stream scale (raised when emissions grow);
    entries far below the stream scale underflow to zero mantissas, but
    their true log magnitudes are kept exactly.  Raising the scale shrinks
    no stored entry at once: ``shrink`` records the factor the entries
    emitted so far owe, and ``finish`` applies the owed factors in order.

    Hot loops may append to ``pos``, ``vals``, ``mods`` and ``vscales``
    directly, calling ``shrink`` when ``emit`` would have.
    """

    def __init__(self, K: int, stride: int):
        self.K = K
        self.pos: list[int] = []
        self.vals: list[complex] = []
        self.mods: list[float] = []
        self.vscales: list[float] = []
        self.scale = 0.0
        self.stride = stride
        self._owed: list[tuple[int, float]] = []

    def emit(self, pos: int, v: complex, vscale: float) -> None:
        rel = vscale - self.scale
        if rel > 230.0:
            self.shrink(vscale)
            rel = 0.0
        self.pos.append(pos)
        self.vals.append(v * math.exp(rel) if rel > -745.0 else 0j)
        self.mods.append(abs(v))
        self.vscales.append(vscale)

    def shrink(self, vscale: float) -> None:
        """Raise the stream scale to vscale; the entries emitted so far owe the factor."""
        self._owed.append((len(self.vals), math.exp(-(vscale - self.scale))))
        self.scale = vscale

    def finish(self) -> CoefficientStream:
        emitted = np.array(self.vals, dtype=complex)
        _apply_owed(emitted, self._owed)
        mant = np.zeros(self.K + 1, dtype=complex)
        mant[self.pos] = emitted
        mods = np.array(self.mods, dtype=float)
        logmag = np.full(self.K + 1, -np.inf)
        logmag[self.pos] = _log_moduli(mods, np.array(self.vscales, dtype=float), mods != 0.0)
        return CoefficientStream(mant, logmag, self.scale, self.stride)


def recursion_analytic_perturbation(m: int, f_coeffs: Sequence[complex],
                                    seed: Sequence[complex], K: int) -> CoefficientStream:
    """Kernel recursion for conj(z)^m + f from the seed block d_0..d_{m-1}."""
    if m < 1:
        raise ValueError("m must be positive")
    if len(seed) != m:
        raise ValueError(f"seed must have length m = {m}")
    if K < m:
        raise ValueError("K must be at least m")
    pairs = [(i, complex(a)) for i, a in enumerate(f_coeffs) if a != 0]
    b = _StreamBuilder(stride=m, window=m + max((i for i, _ in pairs), default=0) + 1)
    vals = b.vals
    for v in seed:
        b.append(v)
    for k in range(K - m + 1):
        s = 0j
        for i, a in pairs:
            if i <= k:
                s += a * vals[k - i]
        b.append(-((m + 1 + k) / (k + 1)) * s)
    return b.finish()


def recursion_general(sym: HarmonicPolySymbol, seed: Sequence[complex],
                      K: int) -> CoefficientStream:
    """Kernel recursion for a general monic-q harmonic symbol."""
    m, n = sym.m, sym.n
    if len(seed) != m:
        raise ValueError(f"seed must have length m = {m}")
    if K < m:
        raise ValueError("K must be at least m")
    anti = [(m - i, complex(c)) for i, c in enumerate(sym.anti, start=1) if c != 0]
    ana = [(i, complex(a)) for i, a in enumerate(sym.ana) if a != 0]
    b = _StreamBuilder(stride=m, window=m + n + 1)
    for v in seed:
        b.append(v)
    # _StreamBuilder.append, inlined: the builder only sees the rare rescale
    vals, mods = b.vals, b.mods
    since, blockmax = b.since, b.blockmax
    for k in range(K - m + 1):
        s = 0j
        for off, c in anti:
            s += c * vals[off + k] / (off + k + 1)
        t = 0j
        for i, a in ana:
            if i <= k:
                t += a * vals[k - i]
        v = -(m + k + 1) * (s + t / (k + 1))
        mod = abs(v)
        vals.append(v)
        mods.append(mod)
        if mod > blockmax:
            blockmax = mod
        since += 1
        if mod > _HARD_LIMIT or (since >= _BLOCK and blockmax > _BLOCK_LIMIT):
            b.rescale(blockmax)
            blockmax = 1.0
            since = 0
        elif since >= _BLOCK:
            since = 0
    return b.finish()


def recursion_special_family(m: int, alpha: complex, beta: complex,
                             seed_index: int, K: int) -> CoefficientStream:
    """Kernel recursion for conj(z)^m + alpha z^m + beta on one residue class.

    With b_k = d_k/(k+1) the recursion decouples along k = seed_index mod m:

        b_{k+m} = -beta b_k - alpha ((k-m+1)/(k+1)) b_{k-m},

    started from b_{seed_index} = 1 (so b_{seed_index+m} = -beta).  All
    other coefficients vanish.
    """
    if not 0 <= seed_index <= m - 1:
        raise ValueError("seed_index must lie in 0..m-1")
    if K < m:
        raise ValueError("K must be at least m")
    alpha = complex(alpha)
    beta = complex(beta)
    sink = _ScaledScatter(K, m)
    # _ScaledScatter.emit, inlined: the sink only sees the rare shrink
    pos, vals, mods, vscales = sink.pos, sink.vals, sink.mods, sink.vscales
    b_prev: Optional[complex] = None
    b_cur = 1.0 + 0j
    wscale = 0.0  # window scale: true b = stored b * exp(wscale)
    for k in range(seed_index, K + 1, m):
        v = (k + 1) * b_cur
        rel = wscale - sink.scale
        if rel > 230.0:
            sink.shrink(wscale)
            rel = 0.0
        pos.append(k)
        vals.append(v * math.exp(rel) if rel > -745.0 else 0j)
        mods.append(abs(v))
        vscales.append(wscale)
        if b_prev is None:
            b_next = -beta * b_cur
        else:
            b_next = -beta * b_cur - alpha * ((k - m + 1) / (k + 1)) * b_prev
        b_prev, b_cur = b_cur, b_next
        mx = max(abs(b_prev), abs(b_cur))
        if mx > _BLOCK_LIMIT or 0.0 < mx < 1.0 / _BLOCK_LIMIT:
            shift = math.log(mx)
            f = math.exp(-shift)
            b_prev *= f
            b_cur *= f
            wscale += shift
    return sink.finish()


def closed_form_kernel_czn(m: int, n: int, c: complex, j: int, K: int) -> CoefficientStream:
    """Closed-form kernel candidate for conj(z)^m + c z^n, seed slot j.

    Nonzero coefficients sit at positions k(m+n)+j with values

        (-c)^k  prod_{i=1}^{k} (i(m+n)+1+j) / (i n + (i-1) m + 1 + j),

    accumulated by running multiplication.
    """
    if not 0 <= j <= m - 1:
        raise ValueError("j must lie in 0..m-1")
    if K < 1:
        raise ValueError("K must be positive")
    c = complex(c)
    step = m + n
    sink = _ScaledScatter(K, m)
    val = 1.0 + 0j
    wscale = 0.0
    k = 0
    pos = j
    while pos <= K:
        sink.emit(pos, val, wscale)
        k += 1
        val = val * (-c) * (k * step + 1 + j) / (k * n + (k - 1) * m + 1 + j)
        a = abs(val)
        if a > _BLOCK_LIMIT or 0.0 < a < 1.0 / _BLOCK_LIMIT:
            shift = math.log(a)
            val *= math.exp(-shift)
            wscale += shift
        pos = k * step + j
    return sink.finish()


@dataclass(frozen=True)
class MembershipVerdict:
    status: str
    estimated_ratio_modulus: Optional[float]
    terms_used: int
    tail_ratio: Optional[float] = None  # dyadic tail-sum comparison, 1.0 is the boundary


_R_CONVERGENT = 0.9
_R_DIVERGENT = 1.1
_TAIL_NEGLIGIBLE = 1e-9


def l2_membership(stream: CoefficientStream, ratio_tol: float = 1e-3,
                  tail_window: int = 32) -> MembershipVerdict:
    """Decide square-summability of the stream in the Bergman norm.

    Protocol: if the trailing `tail_window` stride ratios have relative
    modulus spread below ratio_tol and their common modulus rho (per index
    step) is outside the band [1-ratio_tol, 1+ratio_tol], the ratio
    decides.  Otherwise partial sums decide: a negligible relative tail
    means member; for the rest, the dyadic comparison

        R = (S_K - S_{K/2}) / (S_{K/2} - S_{K/4})

    separates convergent tails (R < 1) from divergent ones (R > 1), with
    the harmonic boundary profile at R = 1 left undecided.
    """
    K = len(stream) - 1
    terms = len(stream)
    rho = None

    # ratio moduli from the exact log magnitudes (mantissa underflow safe)
    s = stream.stride
    lm = stream.logmag
    with np.errstate(invalid="ignore"):
        dl = lm[s:] - lm[:-s]
    ks = np.nonzero(np.isfinite(dl))[0]
    if len(ks) >= tail_window and ks[-1] >= K - 3 * s:
        win = dl[ks[-tail_window:]]
        spread = -np.expm1(float(win.min() - win.max()))
        if spread < ratio_tol:
            rho = math.exp(float(np.mean(win)) / s)
            if rho < 1.0 - ratio_tol:
                return MembershipVerdict(MEMBER, rho, terms)
            if rho > 1.0 + ratio_tol:
                return MembershipVerdict(NON_MEMBER, rho, terms)

    logS = stream.log_norm_partials
    s_end = logS[-1]
    if not np.isfinite(s_end):
        # identically zero stream
        return MembershipVerdict(MEMBER, rho, terms)
    s_half = logS[K // 2]
    s_quarter = logS[K // 4]

    if np.isfinite(s_half):
        tail_frac = -np.expm1(min(s_half - s_end, 0.0))
        if tail_frac < _TAIL_NEGLIGIBLE:
            return MembershipVerdict(MEMBER, rho, terms, tail_ratio=0.0)
    elif np.isneginf(s_half):
        # all mass in the last half: no usable comparison window
        return MembershipVerdict(UNDECIDED, rho, terms)

    logA = s_end + math.log1p(-math.exp(min(s_half - s_end, -1e-300)))
    if np.isfinite(s_quarter) and s_half > s_quarter:
        logB = s_half + math.log1p(-math.exp(min(s_quarter - s_half, -1e-300)))
    elif np.isneginf(s_quarter) and np.isfinite(s_half):
        logB = s_half
    else:
        return MembershipVerdict(UNDECIDED, rho, terms)

    logR = logA - logB
    R = math.exp(logR) if logR < 700 else math.inf
    if R < _R_CONVERGENT:
        return MembershipVerdict(MEMBER, rho, terms, tail_ratio=R)
    if R > _R_DIVERGENT:
        return MembershipVerdict(NON_MEMBER, rho, terms, tail_ratio=R)
    return MembershipVerdict(UNDECIDED, rho, terms, tail_ratio=R)


@dataclass(frozen=True)
class KernelReport:
    dim: Optional[int]
    undecided: bool
    verdicts: tuple[MembershipVerdict, ...]
    basis: tuple[CoefficientStream, ...]


KernelInput = Union[HarmonicPolySymbol, SpecialFamilySymbol, tuple]


def kernel_dimension(sym: KernelInput, K: int = 20000, ratio_tol: float = 1e-3,
                     tail_window: int = 32) -> KernelReport:
    """Run the kernel recursion from each unit seed and count members.

    For the decoupled families (conj(z)^m + f and the special family) the
    member seeds span the kernel; for general coupled symbols the per-seed
    verdicts are generic-direction evidence.  Any undecided seed makes the
    overall dimension undecided (dim None), never a silent 0 or 1.
    """
    streams: list[CoefficientStream] = []
    if isinstance(sym, SpecialFamilySymbol):
        if sym.gamma == 0:
            # analytic symbol alpha z^m + beta: multiplication operator,
            # injective whenever the symbol is not identically zero
            return KernelReport(0, False, (), ())
        norm = sym.normalized()
        for j in range(norm.m):
            streams.append(recursion_special_family(norm.m, norm.alpha, norm.beta, j, K))
        m = norm.m
    elif isinstance(sym, HarmonicPolySymbol):
        m = sym.m
        for j in range(m):
            seed = [0j] * m
            seed[j] = 1.0 + 0j
            streams.append(recursion_general(sym, seed, K))
    else:
        m, f_coeffs = sym
        for j in range(m):
            seed = [0j] * m
            seed[j] = 1.0 + 0j
            streams.append(recursion_analytic_perturbation(m, f_coeffs, seed, K))

    verdicts = tuple(l2_membership(s, ratio_tol, tail_window) for s in streams)
    if any(v.status == UNDECIDED for v in verdicts):
        return KernelReport(None, True, verdicts, tuple(streams))
    members = tuple(s for s, v in zip(streams, verdicts) if v.status == MEMBER)
    return KernelReport(len(members), False, verdicts, members)


@dataclass(frozen=True)
class CoburnVerdict:
    dim_ker: int
    dim_coker: int

    @property
    def coburn(self) -> bool:
        return self.dim_ker == 0 or self.dim_coker == 0


def coburn_classify(m: int, n: int, c: complex) -> CoburnVerdict:
    """Kernel/cokernel dimensions for conj(z)^m + c z^n.

    (m, 0) when |c| < 1 (including c = 0), else (0, n); one of the two is
    always trivial.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    if abs(c) < 1:
        return CoburnVerdict(m, 0)
    return CoburnVerdict(0, n)


def range_solve(m: int, f_coeffs: Sequence[complex], h_coeffs: Sequence[complex],
                seed: Sequence[complex]) -> CoefficientStream:
    """Formal solution of T_{conj(z)^m + f} g = h given the free seed block.

        d_{m+k} = ((m+k+1)/(k+1)) (c_k - sum_{i=0}^{k} a_{k-i} d_i)

    With h = 0 this reproduces the kernel recursion.
    """
    if len(seed) != m:
        raise ValueError(f"seed must have length m = {m}")
    pairs = [(i, complex(a)) for i, a in enumerate(f_coeffs) if a != 0]
    h = [complex(c) for c in h_coeffs]
    b = _StreamBuilder(stride=m, window=m + max((i for i, _ in pairs), default=0) + 1)
    vals = b.vals
    for v in seed:
        b.append(v)
    for k in range(len(h)):
        s = 0j
        for i, a in pairs:
            if i <= k:
                s += a * vals[k - i]
        # h lives at true scale; bring it to the builder's mantissa scale
        hk = h[k] if b.scale == 0.0 else h[k] * math.exp(-min(b.scale, 745.0))
        b.append(((m + k + 1) / (k + 1)) * (hk - s))
    return b.finish()


TRIVIAL_KERNEL_CERTIFIED = "trivial_kernel_certified"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class InjectivityReport:
    status: str
    poincare: bool
    in_disk_count: Optional[int]
    root_moduli: tuple[float, ...]


def injectivity_test(sym: HarmonicPolySymbol, rel_tol: float = 1e-6,
                     circle_tol: float = 1e-6) -> InjectivityReport:
    """Certify ker T_phi = {0} from the associated polynomial phi_0.

    The certificate requires phi_0 to have zeros of pairwise distinct
    moduli and at least m of them inside the unit disk (all at a safe
    distance from the circle).  Fewer than m interior zeros forces a
    positive Fredholm index and hence a nontrivial kernel, so no
    certificate is possible there; such symbols come back not_applicable.
    Root-finder failure yields undecided.
    """
    phi = associated_poly(sym, 0j).poly
    if phi.degree == 0:
        return InjectivityReport(NOT_APPLICABLE, True, 0, ())
    try:
        rs = _cp.roots(phi)
    except _cp.RootFindingError:
        return InjectivityReport(UNDECIDED, False, None, ())
    mods = tuple(sorted(abs(r) for r in rs))
    poincare = _cp.distinct_moduli(rs, rel_tol)
    if any(abs(mu - 1.0) <= circle_tol for mu in mods):
        return InjectivityReport(NOT_APPLICABLE, poincare, None, mods)
    count = sum(1 for mu in mods if mu < 1.0)
    if poincare and count >= sym.m:
        return InjectivityReport(TRIVIAL_KERNEL_CERTIFIED, True, count, mods)
    return InjectivityReport(NOT_APPLICABLE, poincare, count, mods)
