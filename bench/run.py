"""Closed-loop benchmark of the bergtoep command line, checked by oracles.

Usage, from the root of a checkout:

    python3 bench/run.py --workload kernel --seed 1 --seconds 30 --trace 0

One client calls ``bergtoep.cli.main(argv)`` in this process, one query
after another, with argv lists shaped like the README commands and
generated from ``--seed``.  Stdout and stderr are captured, SystemExit is
caught, and every verdict is checked against an oracle computed outside
the timed region (see ``workloads.py``).  The run measures whole decks of
queries until the time spent inside ``cli.main`` reaches ``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see ``tracing.py``).  The traced run
first replays its queries untraced for half the time, then traced, and
reports the difference as ``trace.overhead_share``.  The last line of
stdout is one JSON object; the lines before it are a readable report.  A
record with the environment, every failed query and all metrics goes to
``.bench_runs/`` in the checkout, with the spans of a traced run.

End-to-end metrics, per workload:

    setup_s          fresh interpreter: ``import bergtoep.cli`` plus
                     ``build_parser()``, median of 7 processes
    verdicts_per_s   verdicts per second spent in ``cli.main``; a verdict
                     is one kernel seed, grid point, sigma_min point or
                     single-point answer
    query_p50_ms     median latency of one ``cli.main`` call
    query_tail_ms    the workload's tail percentile, fixed per workload as
                     the highest of p50/p90/p95/p99 that keeps at least 10
                     samples beyond it in every run at the seed commit: p95
                     for kernel and spectrum, p50 for probe; the count
                     beyond is printed beside it
    ok_share         1 - failed_share: queries that did not raise, print a
                     traceback, exit with a code the oracle did not expect,
                     or return a verdict that contradicts the oracle
    decided_share    1 - undecided_share: decided verdicts over verdicts on
                     resolvable inputs (every relevant zero at least 0.05
                     from the unit circle)
    peak_rss_mb      peak resident memory of this process

The four timings are scaled to a reference speed, at which a fixed
pure-Python loop (``reference_loop``) takes 1 ms; the loop is timed around
every segment of queries.  On a shared two-vCPU host the same queries ran
up to 80% slower from one minute to the next; over ten seeds per
workload the scaled timings spread 5-12% (IQR over median) where the raw
ones spread 7-39%.  The raw timings are printed beside the scaled ones.

The shares are reported as their complements so that no metric is 0;
failed_share and undecided_share themselves are printed in the report.
``correct`` in the JSON line is false when a query fails outside the
documented known-defect classes of ``workloads.py``.

BLAS runs on one thread, pinned before numpy is imported: on two cores a
16^2 probe at N=256 took 3.4 s at one thread and 5.1 s at two, with a
wider spread.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".bench_runs"
SETUP_RUNS = 7
REF_S = 1e-3            # reference speed: reference_loop() takes 1 ms
REF_BATCH = 5           # reference samples at each segment boundary
SEGMENT_S = 0.25        # a segment closes after this much time in cli.main


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of complex arithmetic.

    The host of this benchmark shares its cores with other tenants: the
    same deck of kernel queries ran 3.2 s and 5.7 s a minute apart.  The
    loop is sampled between queries (see ``Segments``), and query times are
    scaled by REF_S / median(samples), which removes most of that drift.
    It does not touch bergtoep, so no change to the program can move it.
    """
    t0 = time.perf_counter()
    s, prev, z = 0j, 1j, 0.5 + 0.1j
    for k in range(5000):
        s, prev = -(s * z + prev * (k + 1) / (k + 2)), s
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    tail_pct: int
    why: str


# Each workload stresses different layers; the comment says why it exists
# and which workloads a change to its layers should leave unchanged.
WORKLOADS = {
    # `kernel` at K=20000 over Coburn, near-boundary Coburn, phi_0-root and
    # family symbols, 12% with --out.  A profile puts 75% of self time in
    # kernel.py and 12% in odekernel.py, so a kernel-recursion or adaptive-K
    # change shows in query_p50_ms and verdicts_per_s here; --out queries
    # set the tail.  A change confined to kernel or odekernel predicts no
    # change on `spectrum` or `probe`.
    "kernel": Workload(95, "kernel recursion and l2 membership at K=20000"),
    # lambda-grid queries (spectrum --grid --out, classify --grid) beside
    # single-point spectrum --lambda and index answers.  Root finding,
    # sampled winding and curve distance dominate (cpoly 38%, spectrum 17%,
    # symbols 5%).  A batched grid path shows in verdicts_per_s; any
    # per-call overhead it adds shows in query_p50_ms, which falls on the
    # single-point class.  About 900-1000 queries fit in a run, so p99 has
    # fewer than 10 samples beyond it in slower runs; the tail is p95,
    # inside the general-grid class (the top 10%).  A cpoly or spectrum
    # change predicts no change on `kernel` or `probe`.
    "spectrum": Workload(95, "root finding, winding and curve distance per point"),
    # probe at the minimum 16^2 grid with N in {128, 256}: dense SVDs in
    # finsect take 91% of self time.  Only about 30 queries fit in a run,
    # so the tail percentile with 10 samples beyond it is the median.  A
    # finsect change predicts no change outside `probe`.
    "probe": Workload(50, "dense finite-section SVDs"),
}


@dataclass
class Pass:
    """Counters of one pass over a sequence of decks."""

    latencies: list = field(default_factory=list)      # scaled to REF_S
    raw_latencies: list = field(default_factory=list)
    scales: list = field(default_factory=list)         # one per segment
    busy: float = 0.0
    verdicts: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    undecided: int = 0
    resolvable: int = 0
    checked: int = 0
    unchecked: int = 0
    bytes_out: int = 0
    decks: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    by_kind: dict = field(default_factory=dict)


def execute(cli, q):
    out, err = io.StringIO(), io.StringIO()
    rc = raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(q.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a traceback the user would see; the loop goes on
            raised = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    outdir = Path(q.argv[q.argv.index("--out") + 1]) if q.out else None
    return wl.Result(rc, raised, out.getvalue(), err.getvalue(), outdir), elapsed


class Segments:
    """Scales query times by the reference loop sampled around them.

    Queries are grouped into segments of at least SEGMENT_S in cli.main,
    closed early at the end of a deck.  REF_BATCH reference samples are
    taken at every segment boundary, and each query is scaled by the median
    of the samples at the two ends of its segment: a probe query is its own
    segment, a spectrum segment holds about a hundred single-point answers.
    """

    def __init__(self, p: Pass):
        self.p = p
        self.refs = self._batch()
        self.busy = 0.0
        self.start = 0

    @staticmethod
    def _batch() -> list[float]:
        return [reference_loop() for _ in range(REF_BATCH)]

    def add(self, elapsed: float) -> None:
        self.busy += elapsed
        if self.busy >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        raw = self.p.raw_latencies[self.start:]
        if not raw:
            return
        after = self._batch()
        scale = REF_S / statistics.median(self.refs + after)
        self.p.scales.append(scale)
        self.p.latencies += [t * scale for t in raw]
        self.refs, self.busy, self.start = after, 0.0, len(self.p.raw_latencies)


def run_pass(cli, decks, seconds, tracer=None) -> Pass:
    p = Pass()
    segments = Segments(p)
    for deck in decks:
        p.decks.append(deck)
        for q in deck:
            if tracer is not None:
                tracer.qid = p.attempted
            res, elapsed = execute(cli, q)
            outcome = q.check(res)
            if tracer is not None:
                p.bytes_out += len(res.stdout.encode()) + len(res.stderr.encode())
                if res.outdir is not None and res.outdir.is_dir():
                    p.bytes_out += sum(f.stat().st_size for f in res.outdir.iterdir())
            if res.outdir is not None:
                shutil.rmtree(res.outdir, ignore_errors=True)
            p.raw_latencies.append(elapsed)
            p.by_kind.setdefault(q.kind, []).append(elapsed)
            p.busy += elapsed
            segments.add(elapsed)
            p.attempted += 1
            p.verdicts += q.verdicts
            p.undecided += outcome.undecided
            p.resolvable += outcome.resolvable
            p.checked += outcome.checked
            p.unchecked += outcome.unchecked
            if outcome.failure is not None:
                tag = wl.known_defect(q, outcome.failure)
                p.failed += 1
                p.unexpected += tag is None
                p.failures.append({"kind": q.kind, "known_defect": tag,
                                   "reason": outcome.failure, "argv": q.argv, **q.meta})
        segments.close()
        if p.busy >= seconds:
            break
    return p


def decks_for(name, seed_seq, out_dir):
    rng = np.random.default_rng(seed_seq)
    while True:
        yield wl.DECKS[name](rng, out_dir)


def warm_up(cli, name, seed_seq, out_dir) -> None:
    """One query per command, from a stream the measured run does not use."""
    seen = set()
    for q in next(decks_for(name, seed_seq, out_dir)):
        if q.argv[0] not in seen and q.known_defect is None:
            seen.add(q.argv[0])
            execute(cli, q)
            shutil.rmtree(out_dir, ignore_errors=True)


def measure_setup() -> tuple[list[float], float]:
    """Wall times of fresh interpreters that import the CLI and build its
    parser, and the reference scale over the reference loops between them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import bergtoep.cli as c; c.build_parser()"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)  # bytecode
    raw, refs = [], []
    for _ in range(SETUP_RUNS):
        refs += [reference_loop() for _ in range(5)]
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
    return raw, REF_S / statistics.median(refs)


def environment() -> dict:
    def git_rev():
        if not (ROOT / ".git").exists():
            return None
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        return done.stdout.strip() or None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((SRC / "bergtoep").glob("*.py"))
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ[k] for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
    }


def end_to_end(p: Pass, tail_pct: int, setup: list[float]) -> dict:
    lat = np.array(p.latencies)
    return {
        "setup_s": (statistics.median(setup[0]) * setup[1], "s"),
        "verdicts_per_s": (p.verdicts / sum(p.latencies), "1/s"),
        "query_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
        "query_tail_ms": (1e3 * float(np.percentile(lat, tail_pct)), "ms"),
        "ok_share": (1.0 - p.failed / p.attempted, "ratio"),
        "decided_share": (1.0 - p.undecided / p.resolvable if p.resolvable else 1.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report(name, args, env, p: Pass, metrics: dict, extra: dict) -> None:
    print(f"bergtoep CLI benchmark: workload {name}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"  {WORKLOADS[name].why}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"queries {p.attempted} in {len(p.decks)} decks, verdicts {p.verdicts}, "
          f"time in cli.main {p.busy:.3f} s")
    for key, val in extra.items():
        print(f"  {key:<28} {val}")
    print(f"{'metric':<30} {'value':>16}  unit")
    for key, (val, unit) in metrics.items():
        print(f"{key:<30} {val:>16.6g}  {unit}")
    if p.failures:
        print(f"failed queries: {p.failed}, of which {p.unexpected} outside the "
              "known-defect classes; first of each class:")
        groups: dict = {}
        for f in p.failures:
            groups.setdefault((f["argv"][0], f["kind"], f["known_defect"]), []).append(f)
        for (command, kind, tag), fs in groups.items():
            print(f"  {len(fs):5d}  {command} {kind} [{tag or 'UNEXPECTED'}]: {fs[0]['reason']}")
            print(f"         bergtoep {' '.join(fs[0]['argv'])}"[:300])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "bergtoep" / "cli.py").is_file():
        print(f"no bergtoep sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import bergtoep
    from bergtoep import cli, cpoly, finsect, kernel, odekernel, spectrum, symbols
    if Path(bergtoep.__file__).resolve().parent != (SRC / "bergtoep").resolve():
        print(f"imported bergtoep from {bergtoep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    name = args.workload
    RECORDS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RECORDS))
    out_dir = workdir / "out"
    try:
        env = environment()
        setup = measure_setup() if args.trace == 0 else ([], 1.0)
        warm_seq, run_seq = np.random.SeedSequence(args.seed).spawn(2)
        warm_up(cli, name, warm_seq, out_dir)
        decks = decks_for(name, run_seq, out_dir)
        tail_pct = WORKLOADS[name].tail_pct
        if args.trace == 0:
            p = run_pass(cli, decks, args.seconds)
            metrics = end_to_end(p, tail_pct, setup)
            lat = np.array(p.latencies)
            extra = {
                "setup_s runs, raw": " ".join(f"{t:.4f}" for t in setup[0]),
                "setup_s reference scale": f"{setup[1]:.4f}",
                "reference scale per segment": (f"median {statistics.median(p.scales):.4f}, "
                                             f"range {min(p.scales):.4f}..{max(p.scales):.4f}"),
                "raw query_p50_ms": f"{1e3 * statistics.median(p.raw_latencies):.4f}",
                "raw query_tail_ms": f"{1e3 * np.percentile(p.raw_latencies, tail_pct):.4f}",
                "raw verdicts_per_s": f"{p.verdicts / p.busy:.6g}",
                "failed_share": f"{p.failed / p.attempted:.6f}",
                "undecided_share": (f"{p.undecided / p.resolvable:.6f} of {p.resolvable} "
                                    "resolvable verdicts" if p.resolvable else
                                    "n/a, no verdict here can be undecided"),
                "tail percentile": (f"p{tail_pct}, {int(np.sum(lat > np.percentile(lat, tail_pct)))}"
                                    f" of {len(lat)} samples beyond it"),
                "oracle unchecked share": f"{p.unchecked / max(p.checked + p.unchecked, 1):.6f}",
            }
            for kind, ts in sorted(p.by_kind.items()):
                extra[f"{kind} queries"] = f"{len(ts)}, median {1e3 * statistics.median(ts):.3f} ms"
        else:
            plain = run_pass(cli, decks, args.seconds / 2)
            tracer = tracing.Tracer()
            modules = (cli, kernel, odekernel, spectrum, symbols, cpoly, finsect)
            undo = tracing.install(tracer, bergtoep, modules)
            try:
                p = run_pass(cli, plain.decks, float("inf"), tracer)
            finally:
                tracing.uninstall(undo)
            metrics, times = tracing.layer_metrics(tracer, p.attempted, p.bytes_out)
            metrics["trace.overhead_share"] = (sum(p.latencies) / sum(plain.latencies) - 1.0,
                                               "ratio")
            extra = {key: f"{val:.6g} {unit}" for key, (val, unit) in times.items()}
            extra |= {"untraced time": f"{plain.busy:.3f} s", "traced time": f"{p.busy:.3f} s",
                     "raw traced verdicts_per_s": f"{p.verdicts / p.busy:.6g}",
                     "raw untraced verdicts_per_s": f"{plain.verdicts / plain.busy:.6g}"}
            np.savez_compressed(RECORDS / f"{name}-spans.npz", **tracer.arrays())
        report(name, args, env, p, metrics, extra)
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, "report": extra,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  "attempted": p.attempted, "failed": p.failed, "unexpected": p.unexpected,
                  "failures": p.failures}
        (RECORDS / f"{name}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": p.unexpected == 0, "attempted": p.attempted,
                      "failed": p.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
