"""The kernel stream generators against a whole-history reference.

The reference below rescales the whole history at every block-limit
rescale and shrinks every stored entry when a scattered stream outgrows
its scale, as the generators once did.  The generators in
``bergtoep.kernel`` rescale only the recursion's lookback window and
apply the owed factors once, when the stream is finished; they must give
byte-identical streams and CSV files (zero signs included) on a seeded
corpus that exercises every rescale path.
"""

import math
from typing import Optional

import numpy as np
import pytest

from bergtoep import kernel
from bergtoep.kernel import CoefficientStream
from bergtoep.symbols import HarmonicPolySymbol

_BLOCK = 512
_BLOCK_LIMIT = 1e100
_HARD_LIMIT = 1e250


class RefStreamBuilder:
    """Block renormalization that rescales every stored entry."""

    events = {"block": 0, "hard": 0, "shrink": 0}

    def __init__(self, stride: int):
        self.vals: list[complex] = []
        self.logmag: list[float] = []
        self.scale = 0.0
        self.stride = stride
        self._since = 0
        self._blockmax = 0.0

    def append(self, v: complex) -> None:
        v = complex(v)
        a = abs(v)
        self.vals.append(v)
        self.logmag.append(math.log(a) + self.scale if a > 0.0 else float("-inf"))
        if a > self._blockmax:
            self._blockmax = a
        self._since += 1
        if a > _HARD_LIMIT or (self._since >= _BLOCK and self._blockmax > _BLOCK_LIMIT):
            self.events["hard" if a > _HARD_LIMIT else "block"] += 1
            self._rescale()
        elif self._since >= _BLOCK:
            self._since = 0

    def _rescale(self) -> None:
        shift = math.log(self._blockmax)
        f = math.exp(-shift)
        self.vals = [x * f for x in self.vals]
        self.scale += shift
        self._blockmax = 1.0
        self._since = 0

    def __getitem__(self, k: int) -> complex:
        return self.vals[k]

    def finish(self) -> CoefficientStream:
        return CoefficientStream(np.array(self.vals, dtype=complex),
                                 np.array(self.logmag, dtype=float),
                                 self.scale, self.stride)


class RefScaledScatter:
    """Sparse emission that shrinks every stored entry when the scale rises."""

    def __init__(self, K: int, stride: int):
        self.vals = [0j] * (K + 1)
        self.logmag = [float("-inf")] * (K + 1)
        self.scale = 0.0
        self.stride = stride
        self._emitted: list[int] = []

    def emit(self, pos: int, v: complex, vscale: float) -> None:
        if v != 0:
            self.logmag[pos] = math.log(abs(v)) + vscale
        rel = vscale - self.scale
        if rel > 230.0:
            RefStreamBuilder.events["shrink"] += 1
            f = math.exp(-rel)
            for idx in self._emitted:
                self.vals[idx] *= f
            self.scale = vscale
            rel = 0.0
        self.vals[pos] = v * math.exp(rel) if rel > -745.0 else 0j
        self._emitted.append(pos)

    def finish(self) -> CoefficientStream:
        return CoefficientStream(np.array(self.vals, dtype=complex),
                                 np.array(self.logmag, dtype=float),
                                 self.scale, self.stride)


def ref_analytic_perturbation(m, f_coeffs, seed, K):
    pairs = [(i, complex(a)) for i, a in enumerate(f_coeffs) if a != 0]
    b = RefStreamBuilder(stride=m)
    for v in seed:
        b.append(v)
    for k in range(K - m + 1):
        s = 0j
        for i, a in pairs:
            if i <= k:
                s += a * b[k - i]
        b.append(-((m + 1 + k) / (k + 1)) * s)
    return b.finish()


def ref_general(sym, seed, K):
    m = sym.m
    anti = [(m - i, complex(c)) for i, c in enumerate(sym.anti, start=1) if c != 0]
    ana = [(i, complex(a)) for i, a in enumerate(sym.ana) if a != 0]
    b = RefStreamBuilder(stride=m)
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
    return b.finish()


def ref_special_family(m, alpha, beta, seed_index, K):
    alpha = complex(alpha)
    beta = complex(beta)
    sink = RefScaledScatter(K, m)
    b_prev: Optional[complex] = None
    b_cur = 1.0 + 0j
    wscale = 0.0
    for k in range(seed_index, K + 1, m):
        sink.emit(k, (k + 1) * b_cur, wscale)
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


def ref_closed_form(m, n, c, j, K):
    c = complex(c)
    step = m + n
    sink = RefScaledScatter(K, m)
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


def ref_range_solve(m, f_coeffs, h_coeffs, seed):
    pairs = [(i, complex(a)) for i, a in enumerate(f_coeffs) if a != 0]
    h = [complex(c) for c in h_coeffs]
    b = RefStreamBuilder(stride=m)
    for v in seed:
        b.append(v)
    for k in range(len(h)):
        s = 0j
        for i, a in pairs:
            if i <= k:
                s += a * b[k - i]
        hk = h[k] if b.scale == 0.0 else h[k] * math.exp(-min(b.scale, 745.0))
        b.append(((m + k + 1) / (k + 1)) * (hk - s))
    return b.finish()


def ref_to_csv(stream: CoefficientStream, path) -> None:
    npart = stream.norm_partials
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,re,im,norm_partial,log_scale\n")
        for k in range(len(stream.mant)):
            v = stream.mant[k]
            fh.write(f"{k},{float(v.real)!r},{float(v.imag)!r},"
                     f"{float(npart[k])!r},{stream.log_scale!r}\n")


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
        j = int(gen.integers(m))
        alpha, beta, c = _coeffs(gen, 3, real)
        h = _coeffs(gen, K // 2, real)
        cases += [
            ("general", lambda s=sym, d=seed: kernel.recursion_general(s, d, K),
             lambda s=sym, d=seed: ref_general(s, d, K)),
            ("analytic", lambda f=ana, d=seed, m=m: kernel.recursion_analytic_perturbation(m, f, d, K),
             lambda f=ana, d=seed, m=m: ref_analytic_perturbation(m, f, d, K)),
            ("family", lambda m=m, a=alpha, b=beta, j=j: kernel.recursion_special_family(m, a, b, j, K),
             lambda m=m, a=alpha, b=beta, j=j: ref_special_family(m, a, b, j, K)),
            ("closed", lambda m=m, n=n, c=c, j=j: kernel.closed_form_kernel_czn(m, n, c, j, K),
             lambda m=m, n=n, c=c, j=j: ref_closed_form(m, n, c, j, K)),
            ("range", lambda f=ana, h=h, d=seed, m=m: kernel.range_solve(m, f, h, d),
             lambda f=ana, h=h, d=seed, m=m: ref_range_solve(m, f, h, d)),
        ]
    # growth of 1e6 per term passes the hard limit inside one block
    cases.append(("hard", lambda: kernel.recursion_analytic_perturbation(1, [1e6], [1.0], 600),
                  lambda: ref_analytic_perturbation(1, [1e6], [1.0], 600)))
    cases.append(("hard-range", lambda: kernel.range_solve(2, [0, -1e6], [1e-3] * 600, [1.0, -1.0]),
                  lambda: ref_range_solve(2, [0, -1e6], [1e-3] * 600, [1.0, -1.0])))
    return cases


CORPUS = _corpus()


def _same(a: CoefficientStream, b: CoefficientStream) -> bool:
    return (a.mant.tobytes() == b.mant.tobytes()
            and a.logmag.tobytes() == b.logmag.tobytes()
            and np.float64(a.log_scale).tobytes() == np.float64(b.log_scale).tobytes()
            and a.stride == b.stride)


def test_streams_byte_identical_to_reference(tmp_path):
    RefStreamBuilder.events.update(block=0, hard=0, shrink=0)
    underflowed = 0
    mismatched = []
    for idx, (name, new, ref) in enumerate(CORPUS):
        got, want = new(), ref()
        if not _same(got, want):
            mismatched.append((idx, name))
            continue
        underflowed += int(np.sum((want.mant == 0) & np.isfinite(want.logmag)))
        got.to_csv(tmp_path / "got.csv")
        ref_to_csv(want, tmp_path / "want.csv")
        if (tmp_path / "got.csv").read_bytes() != (tmp_path / "want.csv").read_bytes():
            mismatched.append((idx, name + " csv"))
    assert not mismatched
    # the corpus reaches every rescale path and the zero-mantissa case
    events = RefStreamBuilder.events
    assert events["block"] > 0 and events["hard"] > 0 and events["shrink"] > 0
    assert underflowed > 0


@pytest.mark.parametrize("f", [math.exp(-230.5), 1e-300, 0.5])
def test_owed_factor_rounds_like_python(f):
    parts = (0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324, math.inf, -math.inf, math.nan)
    values = [complex(re, im) for re in parts for im in parts]
    owed = [(len(values), f), (len(values) // 2, f)]
    want = [x * f for x in values]
    want = [x * f for x in want[: len(values) // 2]] + want[len(values) // 2:]
    got = np.array(values, dtype=complex)
    kernel._apply_owed(got, owed)
    assert got.tobytes() == np.array(want, dtype=complex).tobytes()
