"""Kernel computations for T_phi via coefficient recursions.

Writing a candidate kernel element as g = sum d_k z^k, the equation
T_phi g = 0 becomes an explicit linear recursion on the Taylor
coefficients.  For a monic-q symbol with p = sum a_k z^k it reads

    (k+1)/(m+k+1) d_{m+k}
        + sum_{i=1}^{m-1} anti_i (k+1)/(m-i+k+1) d_{m-i+k}
        + sum_{i=0}^{n} a_i d_{k-i} = 0,

(d_j = 0 for j < 0), with the seed block d_0..d_{m-1} free.  For
phi = conj(z)^m + f (q = z^m, every anti_i zero) it is

    d_{m+k} = -((m+1+k)/(k+1)) * sum_{i=0}^{k} a_{k-i} d_i,    k >= 0,

and kernel_dimension takes (m, f) as shorthand for zbar_power_plus(m, f),
and a family symbol with gamma != 0 as psi = phi/gamma (same kernel), so
one recursion serves all.  d_{m+k} reads d_{m+k-i} (anti_i != 0) and
d_{k-i} (a_i != 0) only, so the positions split into residue classes mod
the gcd g of the shifts i and m + i (g = m + n for conj(z)^m + c z^n, and
g = m for the family with beta != 0: its t = z^m), each a recursion of
its own.  A unit seed lies in one class, and only that class is
computed and stored; every other entry is the signed zero the full
recursion computes from zeros.
Membership of the resulting power series in the Bergman space is decided
from the asymptotics of the recursion: the coefficient functions
converge, so consecutive-term ratios stabilize at a characteristic root
(the reciprocals of the associated-polynomial zeros), and geometric
growth or decay of |d_k| is the observable that separates square-summable
streams from divergent ones.  Streams on the exact boundary are reported
as undecided, never rounded.

Growth can exceed the double range long before K = 20000, so streams are
generated with block renormalization: each stored mantissa has its own log
scale, and true log magnitudes use the scale in force at creation.  A
rescale divides only the recursion's lookback window, its last m + n + 1
entries, and raises the scale from there on; older entries keep theirs.
A product past the double range makes the stream non-finite, and
l2_membership then answers undecided rather than read it.

How many terms a verdict needs follows from the zeros, not from the
stream.  By the Poincare theorem each seed stream behaves like
k^p rho^k, with rates rho = |t|^(-1/g) over the zeros t of the P with
phi_0(z) = P(z^g) (the t-quadratic for the family with beta != 0, 1 + c t
for conj(z)^m + c z^n).  With
eps = |1 - rho| for the rate nearest 1 and x = K eps, the terms
|d_k|^2/(k+1) ~ k^(2p-1) exp(-2 eps k) give the dyadic comparison of
l2_membership the limit

    R(x) = int_{1/2}^{1} u^(2p-1) e^(-2xu) du / int_{1/4}^{1/2} u^(2p-1) e^(-2xu) du,

which starts at the boundary value 4^p at x = 0 and falls below the
non-member threshold 1.1 only at x = 1.8 for p = 1 (2.2 for p = 1.24).
Until then a member stream is reported non_member.  The ratio route has
the same bias: its estimate rho (1 + p/K) lies on the wrong side of 1
while x < p.  A verdict is therefore trusted only once K eps reaches
RESOLUTION.  On the corpus c = 1 +- 10^-j, j = 1..5 (conj(z)^m + c z^n
with p = m/(m+n) <= 1, and family symbols with one t-zero at
e^0.7i/c and p up to 1.24) the largest K eps with a wrong verdict is
2.23, and RESOLUTION doubles it, so that K/2 is past it as well.  p grows
without bound as the two t-zeros of a family symbol approach each other,
so the constant is a calibration, not a bound; kernel_dimension also asks
the verdicts at K and K/2 to agree.

When the seeds couple (0 < index < m for a general symbol), the kernel
vectors can combine non-member unit seeds, and the member count falls
short of the index.  Forward recursion cannot hold such a subdominant
combination (Miller's instability), so a longer run does not help.  The
adjoint does: T_phi* = T_{conj phi}, and psi = conj(phi)/conj(a_n) is a
monic-q symbol with m' = n and index -index whose kernel is the cokernel
of T_phi.  The seed block fixes a kernel element, so the member seeds of
either operator bound its kernel from below and a non_member seed bounds
it by the seed count less one.  With dim ker = index + dim coker,

    max(members, index + coker members) <= dim ker
        <= min(m - [a seed is non_member], index + n - [a coker seed is non_member]),

and for n = 0 the adjoint is analytic and injective, so dim ker = index.
When the two sides meet, that is the dimension; sides that cross show a
seed verdict that is still wrong at that K.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from . import cpoly as _cp
from .symbols import (HarmonicPolySymbol, SpecialFamilySymbol, adjoint_symbol,
                      associated_poly, zbar_power_plus)

_BLOCK = 512
_BLOCK_LIMIT = 1e100
_HARD_LIMIT = 1e250

MEMBER = "member"
NON_MEMBER = "non_member"
UNDECIDED = "undecided"


class CoefficientStream:
    """Taylor coefficients d_0..d_K with scale bookkeeping.

    True coefficients are ``mant * exp(log_scale)``, with one log scale per
    entry; ``logmag`` holds the true log magnitudes recorded when each
    entry was created.  ``stride`` is the index step at which ratio
    diagnostics are taken (the anti-analytic degree m for the kernel
    recursions).
    """

    def __init__(self, mant: np.ndarray, logmag: np.ndarray,
                 log_scale: np.ndarray, stride: int):
        self.mant = np.asarray(mant, dtype=complex)
        self.logmag = np.asarray(logmag, dtype=float)
        self.log_scale = np.asarray(log_scale, dtype=float)
        self.stride = int(stride)
        self._log_norm = None

    def __len__(self) -> int:
        return len(self.mant)

    @property
    def log_norm_partials(self) -> np.ndarray:
        """log of the running sums sum_{j<=k} |d_j|^2 / (j+1)."""
        if self._log_norm is None:
            k = np.arange(len(self.mant), dtype=float)
            terms = 2.0 * self.logmag - np.log(k + 1.0)
            with np.errstate(invalid="ignore"):   # an overflowed stream's NaN carries on
                self._log_norm = np.logaddexp.accumulate(terms)
        return self._log_norm

    @property
    def norm_partials(self) -> np.ndarray:
        ln = self.log_norm_partials
        out = np.exp(np.minimum(ln, 700.0))
        out[np.isneginf(ln)] = 0.0
        return out

    def coefficients(self) -> np.ndarray:
        """True coefficient values; fails when a scale exceeds float range."""
        if self.log_scale.max(initial=0.0) > 690.0:
            raise OverflowError("stream exceeds float range; use mant/logmag")
        return self.mant * np.exp(self.log_scale)

    def to_csv(self, path) -> None:
        """Columns k, re, im, norm_partial, log_scale.

        re/im are mantissas; row k's coefficient is (re+1j*im)*exp(log_scale).
        """
        scales = self.log_scale
        starts = np.flatnonzero(np.r_[True, scales[1:] != scales[:-1]])   # runs of equal scale
        tails = np.array([f",{x!r}\n" for x in scales[starts].tolist()], dtype=object)
        rows = zip(self.mant.tolist(), self.norm_partials.tolist(),
                   np.repeat(tails, np.diff(starts, append=len(self))).tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,re,im,norm_partial,log_scale\n")
            fh.writelines(f"{k},{v.real!r},{v.imag!r},{p!r}{t}"
                          for k, (v, p, t) in enumerate(rows))


def _log_moduli(mods: list, scales: np.ndarray) -> np.ndarray:
    """log(mod) + scale where mod is a normal double, -inf where it is zero
    or subnormal (a decaying stream stalls there at a few ulps, whose
    ratios read as rate 1).

    Each entry is ``math.log(mod) + scale``, the value a per-term
    ``math.log`` call gives; numpy's vectorized log may round differently.
    A NaN or infinite modulus (an overflowed product) stays NaN or inf, so
    it never reads as a zero entry.
    """
    tiny = sys.float_info.min
    if min(mods, default=tiny) >= tiny:   # every modulus normal (a NaN first reads as not)
        return np.fromiter(map(math.log, mods), dtype=float, count=len(mods)) + scales
    mods = np.array(mods, dtype=float)
    out = np.full(len(mods), -np.inf)
    idx = np.flatnonzero(~(mods < tiny))
    logs = np.fromiter(map(math.log, mods[idx].tolist()), dtype=float, count=len(idx))
    out[idx] = logs + scales[idx]
    return out


def _shift_gcd(sym: HarmonicPolySymbol) -> int:
    """The gcd g (1 for none) of the shifts the kernel recursion reads back
    by: i for anti_i != 0 and m + i for a_i != 0, the exponents of phi_0's
    nonconstant terms, so that phi_0(z) = P(z^g)."""
    m = sym.m
    return math.gcd(*(i for i, c in enumerate(sym.anti, start=1) if c != 0),
                    *(m + i for i, a in enumerate(sym.ana) if a != 0)) or 1


def _class_run(vals: list, mods: list, q: int, hi: int, p: int, stride: int, m: int,
               anti: list, ana: list, hard: float) -> int:
    """Class entries q..hi-1, at positions p, p + stride, ...; every read
    that anti and ana name, by class offset, lands on an entry already made.

    Returns the index after the last entry made: hi, or earlier when an
    entry passed hard.
    """
    n = hi - q
    # each position's -(p + 1) and k + 1 = p - m + 1
    steps = zip(range(q, hi), range(-p - 1, -p - 1 - n * stride, -stride),
                range(p - m + 1, p - m + 1 + n * stride, stride))
    if not anti and len(ana) == 1:
        # one analytic read: the general expression with its empty sums kept
        (da, a), = ana
        for q, u, k1 in steps:
            v = u * (0j + (0j + a * vals[q - da]) / k1)
            mod = abs(v)
            vals[q] = v
            mods[q] = mod
            if mod > hard:
                return q + 1
        return hi
    for q, u, k1 in steps:
        s = 0j
        for di, c, off in anti:
            s += c * vals[q - di] / (k1 + off)
        t = 0j
        for da, a in ana:
            t += a * vals[q - da]
        v = u * (s + t / k1)
        mod = abs(v)
        vals[q] = v
        mods[q] = mod
        if mod > hard:
            return q + 1
    return hi


def recursion_general(sym: HarmonicPolySymbol, seed: Sequence[complex],
                      K: int) -> CoefficientStream:
    """Kernel recursion for a monic-q harmonic symbol from the seed d_0..d_{m-1}.

    zbar_power_plus(m, f) gives the recursion for conj(z)^m + f.  The seed
    must be finite.

    With g as in the module docstring, when every nonzero seed slot lies in
    one class r, only the positions p = r (mod g) are computed and stored,
    in compact lists indexed by class step, where every read is a fixed
    offset (shift / g) back.  At any other position the full recursion
    reads zeros alone: its sums stay 0j, and -(p + 1) * 0j is one signed
    zero for every p (complex(-0.0, 0.0) on CPython 3.11), which no rescale
    factor changes.  The finished stream holds that zero there (the seed's
    own zero below m) and log magnitude -inf.  A zero seed slot whose
    imaginary part is -0.0 would change under a factor, so it counts as a
    nonzero slot.  The block bookkeeping stays positional: a block that
    closes on a skipped position, after the last computed entry too,
    rescales there, so the stream is bitwise that of the full recursion.
    With g = 1, a seed over several classes, or no shifts at all
    (conj(z)^m alone) the same walk runs with stride 1.  A rescale at the
    block's last position p divides the window, positions cut = max(0, p -
    m - n) on, and raises the scale: an entry's log_scale is the scale
    after the last rescale whose cut is at or below it.
    """
    m, n = sym.m, sym.n
    if len(seed) != m:
        raise ValueError(f"seed must have length m = {m}")
    if K < m:
        raise ValueError("K must be at least m")
    seed = [complex(v) for v in seed]
    if not all(map(cmath.isfinite, seed)):
        raise ValueError("seed must be finite")
    g = _shift_gcd(sym)
    classes = {j % g for j, v in enumerate(seed) if v or math.copysign(1.0, v.imag) < 0}
    stride, r = (g, classes.pop()) if len(classes) == 1 else (1, 0)
    # the reads as class offsets back, (i / stride, c, m - i) and ((m + i) / stride, a);
    # d_{p-i} divides by p - i + 1 = (k + 1) + (m - i)
    anti = [(i // stride, complex(c), m - i) for i, c in enumerate(sym.anti, start=1) if c != 0]
    ana = [((m + i) // stride, complex(a)) for i, a in enumerate(sym.ana) if a != 0]
    # entries stay below `hard` (or 1 after a rescale), so the next one is at
    # most (m + K + 1) * size * hard <= 1e300: large coefficients lower it
    size = sum(abs(c) for _, c, _ in anti) + sum(abs(a) for _, a in ana)
    hard = min(_HARD_LIMIT, max(1.0, 1e300 / ((m + K + 1) * max(size, 1.0))))
    count = (K - r) // stride + 1       # class entries, at positions r + q * stride
    vals = seed[r:m:stride]             # the seed's own entries come first
    qm = len(vals)
    mods = [abs(v) for v in vals] + [0.0] * (count - qm)   # moduli at creation
    vals += [0j] * (count - qm)
    steps = [(0, 0, 0.0)]               # (first entry made at this scale, cut, log scale)
    blockmax, closed = 0.0, False
    q, bend = 0, _BLOCK - 1             # the next entry; the position closing its block
    while True:
        # the entries up to the block end; one past `hard` closes the block there
        q0, q1 = q, (min(bend, K) - r) // stride + 1
        while q < q1 and not closed:
            if q < qm:
                hi = min(q1, qm)
                q = next((j + 1 for j in range(q, hi) if mods[j] > hard), hi)
            else:
                # an analytic read joins once it lands on an entry (d_j = 0 for j < 0)
                hi = min([q1] + [da for da, _ in ana if da > q])
                live = [(da, a) for da, a in ana if da <= q]
                q = _class_run(vals, mods, q, hi, r + q * stride, stride, m, anti, live, hard)
            closed = mods[q - 1] > hard
        if closed:
            bend = r + (q - 1) * stride
        blockmax = max([blockmax] + mods[q0:q])   # blockmax first: a NaN never wins
        if bend > K:
            break
        if closed or blockmax > _BLOCK_LIMIT:
            # divide the window by blockmax; older entries keep their scale
            shift = math.log(blockmax)
            f = math.exp(-shift)
            cut = max(0, bend - m - n)      # the start of the lookback window
            qc = (cut - r + stride - 1) // stride   # the window's first class entry
            vals[qc:q] = [x * f for x in vals[qc:q]]
            steps.append((q, cut, steps[-1][2] + shift))
            blockmax, closed = 1.0, False
        bend += _BLOCK
    made, cuts, scales = zip(*steps)
    # every other position holds the full recursion's value there, by its own
    # expression, so it follows this interpreter's int-by-complex rounding
    full = np.full(K + 1, -(m + 1) * (0j + 0j / 1))
    full[:m] = seed
    full[r::stride] = vals
    logmag = np.full(K + 1, -np.inf)
    logmag[r::stride] = _log_moduli(mods, np.repeat(scales, np.diff(made + (count,))))
    return CoefficientStream(full, logmag, np.repeat(scales, np.diff(cuts + (K + 1,))), m)


@dataclass(frozen=True)
class MembershipVerdict:
    """One stream's verdict, the route that gave it and the terms it used.

    route is ratio, tail or dyadic for the test of l2_membership that
    decided (dyadic also when none could), and non_finite, with status
    undecided, for a stream that holds a NaN or infinite entry;
    kernel_dimension sets on_circle for a rate on the unit circle, and
    unresolved, with status undecided, for a stream it cannot resolve
    within its cap or a non_member seed at index m.  terms_used is the
    index K of the last coefficient read.
    """

    status: str
    estimated_ratio_modulus: Optional[float]
    terms_used: int
    tail_ratio: Optional[float] = None  # dyadic tail-sum comparison, 1.0 is the boundary
    route: Optional[str] = None


NON_FINITE = "non_finite"

_R_CONVERGENT = 0.9
_R_DIVERGENT = 1.1
_TAIL_NEGLIGIBLE = 1e-9
_TAIL_WINDOW = 32


def l2_membership(stream: CoefficientStream, ratio_tol: float = 1e-3) -> MembershipVerdict:
    """Decide square-summability of the stream in the Bergman norm.

    Protocol: if the trailing _TAIL_WINDOW stride ratios have relative
    modulus spread below ratio_tol and their common modulus rho (per index
    step) is outside the band [1-ratio_tol, 1+ratio_tol], the ratio
    decides.  Otherwise partial sums decide: a negligible relative tail
    means member; for the rest, the dyadic comparison

        R = (S_K - S_{K/2}) / (S_{K/2} - S_{K/4})

    separates convergent tails (R < 1) from divergent ones (R > 1), with
    the harmonic boundary profile at R = 1 left undecided.  A stream with a
    NaN or infinite entry (an overflowed product) is undecided.
    """
    K = len(stream) - 1
    terms = K
    rho = None
    lm = stream.logmag
    if not lm.max() < math.inf:   # NaN or +inf: -inf entries are zeros
        return MembershipVerdict(UNDECIDED, rho, terms, route=NON_FINITE)

    # ratio moduli from the exact log magnitudes (mantissa underflow safe)
    s = stream.stride
    with np.errstate(invalid="ignore"):
        dl = lm[s:] - lm[:-s]
    ks = np.nonzero(np.isfinite(dl))[0]
    if len(ks) >= _TAIL_WINDOW and ks[-1] >= K - 3 * s:
        win = dl[ks[-_TAIL_WINDOW:]]
        spread = -np.expm1(float(win.min() - win.max()))
        if spread < ratio_tol:
            rho = math.exp(float(np.mean(win)) / s)
            if rho < 1.0 - ratio_tol:
                return MembershipVerdict(MEMBER, rho, terms, route="ratio")
            if rho > 1.0 + ratio_tol:
                return MembershipVerdict(NON_MEMBER, rho, terms, route="ratio")

    logS = stream.log_norm_partials
    s_end = logS[-1]
    if np.isneginf(s_end):
        # identically zero stream
        return MembershipVerdict(MEMBER, rho, terms, route="tail")
    s_half = logS[K // 2]
    s_quarter = logS[K // 4]

    if np.isfinite(s_half):
        tail_frac = -np.expm1(min(s_half - s_end, 0.0))
        if tail_frac < _TAIL_NEGLIGIBLE:
            return MembershipVerdict(MEMBER, rho, terms, 0.0, "tail")
    elif np.isneginf(s_half):
        # all mass in the last half: no usable comparison window
        return MembershipVerdict(UNDECIDED, rho, terms, route="dyadic")

    logA = s_end + math.log1p(-math.exp(min(s_half - s_end, -1e-300)))
    if np.isfinite(s_quarter) and s_half > s_quarter:
        logB = s_half + math.log1p(-math.exp(min(s_quarter - s_half, -1e-300)))
    elif np.isneginf(s_quarter) and np.isfinite(s_half):
        logB = s_half
    else:
        return MembershipVerdict(UNDECIDED, rho, terms, route="dyadic")

    logR = logA - logB
    R = math.exp(logR) if logR < 700 else math.inf
    if R < _R_CONVERGENT:
        return MembershipVerdict(MEMBER, rho, terms, R, "dyadic")
    if R > _R_DIVERGENT:
        return MembershipVerdict(NON_MEMBER, rho, terms, R, "dyadic")
    return MembershipVerdict(UNDECIDED, rho, terms, R, "dyadic")


@dataclass(frozen=True)
class KernelReport:
    """dim_route says how a decided dim was found: seed_count (the member
    seeds span the kernel, and basis holds their streams), adjoint_bounds
    (the adjoint bounds meet; basis is empty, because the kernel vectors
    combine non-member seeds) or analytic (an injective multiplication
    operator).  bounds is (lo, hi) when the adjoint ran and lo <= hi;
    bounds that meet decide only when every seed on both sides is decided.
    """

    dim: Optional[int]
    undecided: bool
    verdicts: tuple[MembershipVerdict, ...]
    basis: tuple[CoefficientStream, ...]
    reason: Optional[str] = None  # why the report is undecided
    dim_route: Optional[str] = None
    bounds: Optional[tuple[int, int]] = None


KernelInput = Union[HarmonicPolySymbol, SpecialFamilySymbol, tuple]

# A zero whose modulus is within CIRCLE_TOL of 1 is taken to lie on the
# circle, where the rho = 1 profile decides at any K.  Coefficients such as
# c = 1 and unimodular c computed in floating point land within a few ulps
# of it.  A zero farther off is off the circle, on one side or the other:
# at |1 - rho| = 1e-12 no K up to the cap resolves which, so such a symbol
# is below resolution and undecided, never decided as on the circle.
CIRCLE_TOL = 64 * sys.float_info.epsilon
RESOLUTION = 4.5   # K |1 - rho| a verdict needs; see the module docstring
K_START = 256      # fewest terms a resolvable verdict is read from

ON_CIRCLE = "on_circle"
UNRESOLVED = "unresolved"

SEED_COUNT = "seed_count"
ADJOINT_BOUNDS = "adjoint_bounds"
ANALYTIC = "analytic"


def _unit_seed(m: int, j: int) -> list[complex]:
    seed = [0j] * m
    seed[j] = 1.0 + 0j
    return seed


def _prefix(stream: CoefficientStream, K: int) -> CoefficientStream:
    """d_0..d_K of a longer stream.

    l2_membership reads only the log magnitudes, which each entry records
    when it is created, so the prefix gets the verdict a run to K gets.
    """
    return CoefficientStream(stream.mant[:K + 1], stream.logmag[:K + 1],
                             stream.log_scale[:K + 1], stream.stride)


def kernel_dimension(sym: KernelInput, K: int = 20000, ratio_tol: float = 1e-3) -> KernelReport:
    """Run the kernel recursion from each unit seed and count members.

    For the decoupled families (conj(z)^m + f and the special family) the
    member seeds span the kernel; for general coupled symbols the per-seed
    verdicts are generic-direction evidence.  Any undecided seed makes the
    overall dimension undecided (dim None), never a silent 0 or 1.

    K is a cap.  One zero_pattern call on the P with phi_0(z) = P(z^g)
    gives the growth rate rho nearest 1 and the index m - g N(P) at
    lambda = 0, and the rule is the same for every symbol:

    * resolvable: start at the smallest power of two >= max(K_START,
      RESOLUTION/|1 - rho|), and double, up to the cap, until every seed's
      verdict at K equals its verdict at K/2; a seed that still changes at
      the cap is undecided (route unresolved).  Settled verdicts that count
      fewer members than the index first get bounds from the adjoint (see
      _adjoint_bounds), once per call.  When the bounds meet and every
      seed on both sides is decided, dim is their common value (dim_route
      adjoint_bounds, empty basis: the kernel vectors combine non-member
      seeds).  Otherwise the seeds get one more run, at the cap: a large
      k^p prefactor (nearly equal zeros) can hold a member stream on the
      non-member side well past RESOLUTION;
    * on the circle (a zero of P within CIRCLE_TOL of it): the rho = 1
      profile decides, read at K_START terms (route on_circle);
    * below resolution (cap |1 - rho| < RESOLUTION): one run at the cap,
      every seed undecided (route unresolved);
    * zeros not found: one run at the cap, as l2_membership decides.

    A count below max(index, 0) contradicts dim ker >= index, so the report
    is then undecided, and its reason names the adjoint bounds when they
    were recorded.  At index m every unit seed lies in the kernel, so a
    non_member seed is then undecided (route unresolved).  A seed stream
    that overflows (route non_finite) makes the report undecided at once.
    Every undecided report carries a reason; a decided one says how dim was
    found (dim_route).  bounds holds (lo, hi) when the adjoint ran and
    lo <= hi.

    A tuple (m, f) is shorthand for zbar_power_plus(m, f); a family symbol
    runs as psi = phi/gamma, or for gamma = 0 is an injective
    multiplication (dim_route analytic).
    """
    if isinstance(sym, SpecialFamilySymbol):
        if sym.gamma == 0:
            # analytic symbol alpha z^m + beta: multiplication operator,
            # injective whenever the symbol is not identically zero
            return KernelReport(0, False, (), (), dim_route=ANALYTIC)
        sym = sym.as_harmonic()
    elif not isinstance(sym, HarmonicPolySymbol):
        sym = zbar_power_plus(*sym)
    m = sym.m
    g = _shift_gcd(sym)
    poly = _cp.CPoly.make(associated_poly(sym).coeffs[::g])   # phi_0(z) = P(z^g)

    def run(k):
        return [recursion_general(sym, _unit_seed(m, j), k) for j in range(m)]

    def judge(streams):
        return [l2_membership(s, ratio_tol) for s in streams]

    try:
        zp = _cp.zero_pattern(poly, CIRCLE_TOL)
    except _cp.RootFindingError:
        streams = run(K)
        return _count(streams, judge(streams), None)
    if zp.in_disk is None:
        streams = run(min(K, K_START))
        return _count(streams, _override(judge(streams), route=ON_CIRCLE), None)
    index = m - g * zp.in_disk   # a zero t of P is g zeros z = t^(1/g)
    gap = min((abs(1.0 - mu ** (-1.0 / g)) for mu in zp.moduli), default=math.inf)
    if K * gap < RESOLUTION:
        streams = run(K)
        verdicts = _override(judge(streams), status=UNDECIDED, route=UNRESOLVED)
        return _count(streams, verdicts, f"below resolution: K |1 - rho| = {K * gap:.3g}"
                                         f" < {RESOLUTION} at the cap K = {K}")
    k = K_START
    while k * gap < RESOLUTION:
        k *= 2
    k = min(k, K)
    bounds, adjoint_ran = None, False
    while True:
        streams = run(k)
        verdicts = judge(streams)
        if any(v.route == NON_FINITE for v in verdicts):
            # a longer run overflows too
            return _count(streams, verdicts, None, bounds=bounds)
        halves = judge([_prefix(s, k // 2) for s in streams])
        unsettled = [j for j, (v, h) in enumerate(zip(verdicts, halves))
                     if v.status != h.status]
        short = not unsettled and sum(v.status == MEMBER for v in verdicts) < index
        if short and not adjoint_ran:
            adjoint_ran = True
            lo, hi, decided = _adjoint_bounds(sym, verdicts, index, K, ratio_tol)
            if lo <= hi:   # lo > hi: some seed verdict at this K is wrong
                bounds = (lo, hi)
                if decided and lo == hi:
                    return KernelReport(lo, False, tuple(verdicts), (),
                                        dim_route=ADJOINT_BOUNDS, bounds=bounds)
        if k == K or not (unsettled or short):
            break
        # an unsettled seed doubles K; a count below the index that the
        # bounds leave open looks once more, at the cap
        k = min(2 * k, K) if unsettled else K
    for j in unsettled:
        verdicts[j] = replace(verdicts[j], status=UNDECIDED, route=UNRESOLVED)
    reason = (f"seed verdicts at K = {k // 2} and K = {k} differ at the cap"
              if unsettled else None)
    return _count(streams, verdicts, reason, index, bounds)


def _adjoint_bounds(sym: HarmonicPolySymbol, verdicts: list[MembershipVerdict],
                    index: int, K: int, ratio_tol: float) -> tuple[int, int, bool]:
    """(lo, hi, decided): lo <= dim ker T_phi <= hi from its settled seed
    verdicts and those of psi = adjoint_symbol(sym), by the rule in the
    module docstring; decided says every seed on both sides is decided.

    psi has index -index < 0 here, so its own count never calls this.  For
    n = 0, T_phi* is analytic and nonzero, hence injective, and nothing runs.
    """
    coker = () if sym.n == 0 else kernel_dimension(adjoint_symbol(sym), K, ratio_tol).verdicts

    def count(vs, status):
        return sum(v.status == status for v in vs)

    lo = max(count(verdicts, MEMBER), index + count(coker, MEMBER))
    hi = min(sym.m - (count(verdicts, NON_MEMBER) > 0),
             index + sym.n - (count(coker, NON_MEMBER) > 0))
    return lo, hi, count(verdicts, UNDECIDED) + count(coker, UNDECIDED) == 0


def _override(verdicts: list[MembershipVerdict], **changes) -> list[MembershipVerdict]:
    """The verdicts with these fields replaced, except those of overflowed streams."""
    return [v if v.route == NON_FINITE else replace(v, **changes) for v in verdicts]


def _count(streams: list[CoefficientStream], verdicts: list[MembershipVerdict],
           reason: Optional[str], index: Optional[int] = None,
           bounds: Optional[tuple[int, int]] = None) -> KernelReport:
    """The report for these seed verdicts, checked against the index.

    bounds, when the adjoint ran, are recorded and named in the reason.
    """
    verdicts = tuple(verdicts)
    overflowed = [j for j, v in enumerate(verdicts) if v.route == NON_FINITE]
    if overflowed:
        j = overflowed[0]
        k = int(np.argmax(~(streams[j].logmag < math.inf)))
        reason = (f"seed {j} stream is not finite from k = {k}: the recursion "
                  "overflowed the double range")
    undecided = [j for j, v in enumerate(verdicts) if v.status == UNDECIDED]
    if undecided:
        reason = reason or (f"seed {undecided[0]} undecided at "
                            f"K = {verdicts[undecided[0]].terms_used}")
    else:
        members = tuple(s for s, v in zip(streams, verdicts) if v.status == MEMBER)
        if index is None or len(members) >= index:
            return KernelReport(len(members), False, verdicts, members,
                                dim_route=SEED_COUNT, bounds=bounds)
        reason = f"{len(members)} member seeds but index {index}: "
        if index < len(verdicts):
            reason += "kernel vectors may combine non-member seeds"
        else:   # dim ker >= m: every unit seed lies in the kernel
            reason += f"the seed verdicts are wrong at K = {verdicts[0].terms_used}"
            verdicts = tuple(replace(v, status=UNDECIDED, route=UNRESOLVED)
                             if v.status == NON_MEMBER else v for v in verdicts)
    if bounds is not None:
        reason += f"; adjoint bounds [{bounds[0]}, {bounds[1]}]"
    return KernelReport(None, True, verdicts, tuple(streams), reason, bounds=bounds)
