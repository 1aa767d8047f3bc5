"""The kernel stream generator against a whole-history reference.

The reference below rescales the whole history at every block-limit
rescale, as the generator once did, and records where each rescale's
lookback window started and its factor.  recursion_general rescales only
the window, and an older entry keeps its mantissa and scale.  On a seeded
corpus that exercises every rescale path, the two must give byte-identical
log magnitudes and final log scales, and each new mantissa, times the
factors of the later rescales whose window started above it, applied in
order, must be the reference mantissa bit for bit (zero signs included).
recursion_general runs only the seed's residue class when the recursion
splits into classes; the reference runs every position, so the skipped
positions are checked as well.  Both read a zero or subnormal modulus as
log magnitude -inf.
"""

import cmath
import math
import sys

import numpy as np
import pytest

from bergtoep import kernel
from bergtoep.kernel import CoefficientStream
from bergtoep.symbols import HarmonicPolySymbol, SpecialFamilySymbol, zbar_power_plus

_BLOCK = 512
_BLOCK_LIMIT = 1e100
_HARD_LIMIT = 1e250


class RefStreamBuilder:
    """Block renormalization that rescales every stored entry."""

    events = {"block": 0, "hard": 0, "zero": 0}

    def __init__(self, stride: int, window: int):
        self.vals: list[complex] = []
        self.window = window
        self.rescales: list[tuple[int, float]] = []   # (window start, factor)
        self.logmag: list[float] = []
        self.scale = 0.0
        self.stride = stride
        self._since = 0
        self._blockmax = 0.0

    def append(self, v: complex) -> None:
        v = complex(v)
        a = abs(v)
        self.vals.append(v)
        self.logmag.append(float("-inf") if a < sys.float_info.min else math.log(a) + self.scale)
        if a > self._blockmax:
            self._blockmax = a
        self._since += 1
        if a > _HARD_LIMIT or (self._since >= _BLOCK and self._blockmax > _BLOCK_LIMIT):
            self.events["hard" if a > _HARD_LIMIT else "block"] += 1
            if a == 0.0:   # a block closed on a zero (skipped) entry
                self.events["zero"] += 1
            self._rescale()
        elif self._since >= _BLOCK:
            self._since = 0

    def _rescale(self) -> None:
        shift = math.log(self._blockmax)
        f = math.exp(-shift)
        self.vals = [x * f for x in self.vals]
        self.rescales.append((max(0, len(self.vals) - self.window), f))
        self.scale += shift
        self._blockmax = 1.0
        self._since = 0

    def __getitem__(self, k: int) -> complex:
        return self.vals[k]

    def finish(self) -> CoefficientStream:
        return CoefficientStream(np.array(self.vals, dtype=complex),
                                 np.array(self.logmag, dtype=float),
                                 np.full(len(self.vals), self.scale), self.stride)


def ref_general(sym, seed, K):
    m = sym.m
    anti = [(m - i, complex(c)) for i, c in enumerate(sym.anti, start=1) if c != 0]
    ana = [(i, complex(a)) for i, a in enumerate(sym.ana) if a != 0]
    b = RefStreamBuilder(stride=m, window=m + sym.n + 1)
    for v in seed:
        b.append(v)
    for k in range(K - m + 1):
        s = 0j
        for off, c in anti:
            s += c * b[off + k] / (off + k + 1)
        t = 0j
        for i, a in ana:
            if i <= k:
                t += a * b[k - i]
        b.append(-(m + k + 1) * (s + t / (k + 1)))
    return b.finish(), b.rescales


def ref_to_csv(stream: CoefficientStream, path) -> None:
    npart = stream.norm_partials
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,re,im,norm_partial,log_scale\n")
        for k in range(len(stream.mant)):
            v = stream.mant[k]
            fh.write(f"{k},{float(v.real)!r},{float(v.imag)!r},"
                     f"{float(npart[k])!r},{float(stream.log_scale[k])!r}\n")


def _coeffs(gen, count, real):
    mags = (0.1, 1.0, 3.0, 50.0)
    out = []
    for _ in range(count):
        c = complex(*gen.normal(size=2)) * mags[int(gen.integers(len(mags)))]
        out.append(complex(c.real, 0.0) if real else c)
    return out


def _corpus():
    """(name, new generator call, reference call) over a seeded corpus."""
    gen = np.random.default_rng(2024)
    K = 1500
    cases = []
    for trial in range(12):
        real = trial % 3 == 0   # real data: zero imaginary parts of both signs
        m = int(gen.integers(1, 4))
        n = int(gen.integers(0, 4))
        anti = tuple(_coeffs(gen, m - 1, real))
        ana = tuple(_coeffs(gen, n + 1, real))
        sym = HarmonicPolySymbol(m, anti, ana)
        seed = [0j] * m
        seed[int(gen.integers(m))] = 1.0 + 0j
        unit = [0j] * m
        unit[int(gen.integers(m))] = 1.0 + 0j
        alpha, beta, _ = _coeffs(gen, 3, real)
        psi = SpecialFamilySymbol(m, alpha, beta).as_harmonic()
        _coeffs(gen, K // 2, real)   # unused draws: they keep the later trials' data fixed
        cases += [
            ("general", lambda s=sym, d=seed: kernel.recursion_general(s, d, K),
             lambda s=sym, d=seed: ref_general(s, d, K)),
            ("analytic",
             lambda f=ana, d=seed, m=m: kernel.recursion_general(zbar_power_plus(m, f), d, K),
             lambda f=ana, d=seed, m=m: ref_general(zbar_power_plus(m, f), d, K)),
            ("family", lambda s=psi, d=unit: kernel.recursion_general(s, d, K),
             lambda s=psi, d=unit: ref_general(s, d, K)),
        ]
    # growth of 1e6 per term passes the hard limit inside one block
    cases.append(("hard", lambda: kernel.recursion_general(zbar_power_plus(1, [1e6]), [1.0], 600),
                  lambda: ref_general(zbar_power_plus(1, [1e6]), [1.0], 600)))
    w = cmath.exp(0.7j)
    split = [
        # g = 2, seed class 0: the blocks close on odd, skipped positions
        (zbar_power_plus(1, [0, 3 * w]), [1.0], K),
        # ... and K = 1535 closes a block among the last, skipped positions
        (zbar_power_plus(1, [0, 3 * w]), [1.0], 1535),
        # hard-limit rescales between skipped positions
        (zbar_power_plus(1, [0, 1e6 * w]), [1.0], 600),
        # an anti term on the gcd: conj(z)^4 + a conj(z)^2 + ..., g = 2
        (HarmonicPolySymbol(4, (0, 0.5 * w, 0), (3 * w, 0, 2.0)), [1, 0, 0, 0], K),
        # g = 2 < m = 4: the zero seed slot 3 lies in slot 1's class
        (zbar_power_plus(4, [2 * w, 0, 3.0]), [0, 1, 0, 0], K),
        # a seed over two classes of g = 4 runs every position
        (zbar_power_plus(2, [0, 0, 3 * w]), [1.0, 0.5], K),
        # g = 5 over eight blocks, the class's last position 4096 below K
        (zbar_power_plus(3, [0, 0, (1 - 1e-6) * w]), [0, 1.0, 0], 4097),
        # the family's t = z^3 with beta != 0: g = 3, the seed in class 2,
        # t-zeros inside the disk, so the stream grows and rescales
        (SpecialFamilySymbol(3, 1.0, 0.3 * w, 0.02).as_harmonic(), [0, 0, 1.0], K),
        # g = 1, growth of 1e45 per term: the first hard-limit close, at
        # p = 7, comes while the a_10 read still falls before d_0
        (HarmonicPolySymbol(2, (1e45 * w,), (1e45,) + (0,) * 9 + (2.0,)), [1.0, 0], 600),
    ]
    cases += [("split", lambda s=sym, d=seed, k=k: kernel.recursion_general(s, d, k),
               lambda s=sym, d=seed, k=k: ref_general(s, d, k)) for sym, seed, k in split]
    return cases


CORPUS = _corpus()


def _owing(stream: CoefficientStream, rescales) -> np.ndarray:
    """The mantissas times the factors each entry owes: those of the
    rescales whose window started above it, in order."""
    vals = stream.mant.tolist()
    for start, f in rescales:
        vals[:start] = [x * f for x in vals[:start]]
    return np.array(vals, dtype=complex)


def test_streams_byte_identical_to_reference(tmp_path):
    RefStreamBuilder.events.update(block=0, hard=0, zero=0)
    underflowed = 0
    mismatched = []
    for idx, (name, new, ref) in enumerate(CORPUS):
        got, (want, rescales) = new(), ref()
        if not (got.logmag.tobytes() == want.logmag.tobytes()
                and got.log_scale[-1:].tobytes() == want.log_scale[-1:].tobytes()
                and _owing(got, rescales).tobytes() == want.mant.tobytes()
                and got.stride == want.stride):
            mismatched.append((idx, name))
            continue
        underflowed += int(np.sum((want.mant == 0) & np.isfinite(want.logmag)))
        got.to_csv(tmp_path / "got.csv")
        ref_to_csv(got, tmp_path / "want.csv")
        if (tmp_path / "got.csv").read_bytes() != (tmp_path / "want.csv").read_bytes():
            mismatched.append((idx, name + " csv"))
    assert not mismatched
    # the corpus reaches every rescale path, and the whole-history
    # rescale underflows entries to zero mantissas
    events = RefStreamBuilder.events
    assert events["block"] > 0 and events["hard"] > 0
    assert events["zero"] > 0
    assert underflowed > 0
