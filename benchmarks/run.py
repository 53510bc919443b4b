"""Layered benchmark of chankey, run from the root of a checkout.

    python3 benchmarks/run.py --workload keygen_10db --seed 1 --seconds 15 --trace 0

Each workload runs in one process and thread as a closed loop: the next
operation starts only when the previous one returns.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
The line before it is a JSON report with every metric the benchmark derives
(per workload), the environment stamp, the digests and any failures.

chankey is imported from ``src/`` of the checkout this file sits in, never
from an installed copy; without it the benchmark exits 1 and prints no
result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Set-up is timed in this many fresh processes and reported as the median.
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 150

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

# On a shared host the speed of one core drifts by tens of percent over
# seconds.  A fixed kernel is timed after every CALIBRATION_EVERY_S of
# operation time, and ``throughput_per_s`` rescales each stretch of
# operations to the speed at which the kernel takes CALIBRATION_REF_S.  The
# kernel never calls chankey, so a change to chankey moves the figure in
# full, while the host's drift largely cancels.  The raw rates are in the
# report.
CALIBRATION_EVERY_S = 0.2
CALIBRATION_REF_S = 0.5e-3


def pin_threads():
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_workloads():
    """Import the workloads, and chankey from this checkout's ``src/``."""
    if not (SRC / "chankey" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no chankey sources under {SRC}")
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import chankey
    if Path(chankey.__file__).resolve().parent != SRC / "chankey":
        raise SystemExit(f"benchmark: chankey imported from "
                         f"{chankey.__file__}, not {SRC}")
    import workloads
    return workloads


def golden_workload(wl, name):
    w = wl.WORKLOADS[name](**wl.GOLDEN_PARAMS[name])
    w.prepare(wl.GOLDEN_SEED)
    return w


def setup_child(name):
    """One set-up: import, template build, systemization, first call.

    The first call is the golden fixture, so every set-up also checks it.
    """
    t0 = time.perf_counter()
    wl = import_workloads()
    w = golden_workload(wl, name)
    ops = [w.op(i) for i in range(w.golden_ops)]
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "digest": wl.digest(ops),
                      "problems": [p for op in ops for p in op.problems]}))
    return 0


def timed_setups(wl, name, reference):
    """Set-up times of fresh processes, failed set-ups, and why they failed."""
    times, failed, problems = [], 0, []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", name],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            failed += 1
            problems.append(f"set-up process exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
            continue
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(child["setup_s"])
        found = child["problems"] + wl.golden_problems(name, child["digest"],
                                                       reference)
        failed += bool(found)
        problems += found
    return times, failed, problems


def golden_check(wl, name, reference):
    """Run the golden fixture in this process: its digest and failures."""
    w = golden_workload(wl, name)
    ops = [timed_op(wl, w, i) for i in range(w.golden_ops)]
    got = wl.digest(ops)
    return got, ([p for op in ops for p in op.problems]
                 + wl.golden_problems(name, got, reference))


def timed_op(wl, w, i):
    """Run operation ``i``; an exception is recorded as a failed operation."""
    t0 = time.perf_counter()
    try:
        op = w.op(i)
    except Exception as exc:  # the loop must keep running and count it
        traceback.print_exc(file=sys.stderr)
        op = wl.Op(records=[("error", i, type(exc).__name__)], work=0,
                   problems=[f"op {i}: {exc!r}"])
    op.seconds = time.perf_counter() - t0
    return op


class Calibration:
    """A fixed kernel whose time tracks the host's momentary speed.

    It mixes what chankey's operations spend their time on: interpreter
    loops, many small numpy calls, and a pass over a mid-size array.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(64)
        self.vec = rng.standard_normal(16384)

    def _kernel(self):
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(2000):
            acc += i * 0.5
        for _ in range(60):
            np.tanh(self.small).sum()
        np.sort(self.vec)
        return time.perf_counter() - t0

    def sample(self):
        """Median of three kernel times, robust to a stray interrupt."""
        return statistics.median(self._kernel() for _ in range(3))


def closed_loop(wl, w, seconds, calibration=None):
    """Operations until ``seconds`` have passed, ending on a round boundary
    and never before the first ``quality_ops`` operations are done.

    Returns the operations, the wall time, and with a calibration the
    operation time rescaled to the reference speed.
    """
    ops = []
    scaled_s = stretch_s = 0.0
    before = calibration.sample() if calibration else None

    def rescale():
        nonlocal scaled_s, stretch_s, before
        after = calibration.sample()
        scaled_s += stretch_s * CALIBRATION_REF_S * 2.0 / (before + after)
        stretch_s, before = 0.0, after

    t0 = time.perf_counter()
    while (len(ops) < w.quality_ops or len(ops) % w.cycle
           or time.perf_counter() - t0 < seconds):
        ops.append(timed_op(wl, w, len(ops)))
        stretch_s += ops[-1].seconds
        if calibration and stretch_s >= CALIBRATION_EVERY_S:
            rescale()
    wall = time.perf_counter() - t0
    if calibration and stretch_s:
        rescale()
    return ops, wall, (scaled_s if calibration else None)


def percentiles(seconds):
    """Median and the highest of p99/p90/p75 with enough samples beyond it."""
    n = len(seconds)
    cuts = statistics.quantiles(seconds, n=100, method="inclusive")
    out = {"p50": cuts[49]}
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= TAIL_SAMPLES:
            out[f"p{p}"] = cuts[p - 1]
            break
    return out


def workload_metrics(w, ops, scaled_s):
    """Every end-to-end figure the workload defines, ``{name: (v, unit)}``.

    Raw rates are per second of operation time; ``throughput_per_s`` is per
    second of operation time at the calibration's reference speed.
    """
    busy = sum(op.seconds for op in ops)
    work = sum(op.work for op in ops)
    quality = ops[:w.quality_ops]
    out = {}
    sessions = sum(op.sessions for op in ops)
    if sessions:
        out["sessions_per_s"] = (sessions / busy, "1/s")
        if all(op.sessions == 1 for op in ops):
            for p, v in percentiles([op.seconds for op in ops]).items():
                out[f"session_{p}_ms"] = (v * 1e3, "ms")
            out["session_count"] = (len(ops), "count")
        out["key_bits_per_s"] = (sum(op.key_bits for op in ops) / busy,
                                 "bit/s")
        out["agreed_frac"] = (sum(op.agreed for op in quality)
                              / max(1, sum(op.sessions for op in quality)),
                              "ratio")
    else:
        out["mc_samples_per_s"] = (work / busy, "1/s")
        out["capacity_abs_err_bits"] = (
            max((op.abs_err for op in quality if op.abs_err is not None),
                default=float("nan")), "bit")
    out["throughput_per_s"] = (work / scaled_s, "1/s")
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    """What produced the result: code, interpreter, libraries, threads."""
    import numpy
    import scipy
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            git_sha = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "chankey").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "machine": platform.machine()}


def run_untraced(wl, name, seed, seconds, reference):
    setup_times, failed, problems = timed_setups(wl, name, reference)
    if not setup_times:
        raise SystemExit("benchmark: no set-up process succeeded:\n"
                         + "\n".join(problems))
    attempted = SETUP_RUNS + 1
    # the golden fixture in this process also fills lazy caches before timing
    golden_digest, found = golden_check(wl, name, reference)
    failed += bool(found)
    problems += found

    w = wl.WORKLOADS[name]()
    w.prepare(seed)
    ops, wall, scaled_s = closed_loop(wl, w, seconds, Calibration())
    attempted += len(ops)
    failed += sum(1 for op in ops if op.problems)
    problems += [p for op in ops for p in op.problems]

    figures = workload_metrics(w, ops, scaled_s)
    figures["setup_s"] = (statistics.median(setup_times), "s")
    figures["peak_rss_mb"] = (peak_rss_mb(), "MB")
    figures["failed_frac"] = (failed / attempted, "ratio")
    report = {"setup_runs_s": setup_times, "ops": len(ops), "wall_s": wall,
              "digests": {"golden": golden_digest,
                          "outputs": wl.digest(ops)}}
    return figures, report, attempted, failed, problems


def run_traced(wl, name, seed, seconds, reference):
    """Untraced then traced window over the same operations.

    The difference of their wall times is the tracing overhead, and their
    output digests must agree: tracing must never change outputs.
    """
    import tracing
    setup, window = tracing.Tracer(), tracing.Tracer()
    with setup.patched():
        golden_digest, problems = golden_check(wl, name, reference)
        w = wl.WORKLOADS[name]()
        w.prepare(seed)
    failed = int(bool(problems))

    plain, plain_wall, _ = closed_loop(wl, w, seconds / 2.0)
    t0 = time.perf_counter()
    with window.patched():
        traced = [timed_op(wl, w, i) for i in range(len(plain))]
    traced_wall = time.perf_counter() - t0
    attempted = 1 + 2 * len(plain)
    failed += sum(1 for op in plain + traced if op.problems)
    problems += [p for op in plain + traced for p in op.problems]
    if wl.digest(plain) != wl.digest(traced):
        failed += 1
        problems.append("traced outputs differ from untraced outputs")

    ops = sum(op.sessions for op in traced) or len(traced)
    figures = tracing.per_layer_metrics(window, setup, ops)
    zero = tracing.zero_call_spans(window, setup)
    overhead_s = traced_wall - plain_wall
    figures["trace.overhead_ms"] = (overhead_s * 1e3, "ms")
    figures["trace.overhead_pct"] = (100.0 * overhead_s / plain_wall, "%")
    figures["trace.zero_call_spans"] = (len(zero), "count")
    report = {"ops": ops, "untraced_wall_s": plain_wall,
              "traced_wall_s": traced_wall, "zero_call_spans": zero,
              "digests": {"golden": golden_digest,
                          "untraced": wl.digest(plain),
                          "traced": wl.digest(traced)}}
    return figures, report, attempted, failed, problems


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()
    if args.setup_child:
        return setup_child(args.workload)
    wl = import_workloads()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(wl.WORKLOADS)}")
    reference = wl.load_reference()
    run = run_traced if args.trace else run_untraced
    figures, report, attempted, failed, problems = run(
        wl, args.workload, args.seed, args.seconds, reference)

    declared = declared_metrics(args.trace)
    metrics = {m["name"]: {"value": figures[m["name"]][0],
                           "unit": m["unit"]} for m in declared}
    report.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(figures.items())},
        "problems": problems[:50]})
    for k, (v, u) in sorted(figures.items()):
        print(f"{k:45s} {v:>16.6g} {u}", file=sys.stderr)
    for p in problems[:50]:
        print(f"FAILED: {p}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
