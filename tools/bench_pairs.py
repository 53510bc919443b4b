"""Alternating before/after pairs of the benchmark, written as one BENCH file.

    python3 tools/bench_pairs.py --before PARENT_CHECKOUT --after CHECKOUT \\
        --topic streams --workload keygen_10db --workload capacity_mc \\
        --pairs 10 --seed 3471

Runs ``benchmarks/run.py`` of each checkout in that checkout, at the
benchmark's own run length, so each side imports its own ``src/`` and runs
its own benchmark.  Pair i runs both sides
at seed ``--seed + i``, the before side first for even i and the after side
first for odd i; pairs go round the workloads in turn, so a drift in the
host's speed spreads over every workload.  Uses the standard library only.

Writes ``BENCH_<topic>.json`` in the current directory with one schema:

* ``command``: the benchmark command, with ``<workload>`` and ``<seed>``;
* ``environment``: each side's environment stamp from the benchmark report
  (git commit when the checkout has one, hash of ``src/``, interpreter and
  library versions, CPUs, thread pins);
* ``runs``: per ``<workload>.trace<0|1>``, every pair's seed, order and each
  side's metrics, ``correct``, ``attempted`` and ``failed``; each side's
  ``failed_share`` (failed over attempted operations, summed over its
  runs); and a ``summary`` per metric:

  - each side's median and quartiles (inclusive method) and the change of
    the median in percent;
  - the pairs the after side won (ties count for neither side);
  - ``gain_shown``: at least nine tenths of the pairs won, the medians
    apart by more than the before side's interquartile range, and no
    larger failed share on the after side;
  - for the end-to-end metrics that have a bound in ``BENCHMARK.json``:
    ``within_bound``, whether the after median is no worse than the before
    median by more than the bound, and ``unresolved``, true when the before
    side's full range (largest minus smallest run, over its median) is
    wider than the bound and the runs do not separate (not every after run
    better than every before run): such runs are too spread to tell the
    bound check either way.

An existing output file keeps the runs of other workloads and trace levels,
so traced and untraced pairs can be recorded by separate invocations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")
RUN_TIMEOUT_S = 1800


def run_side(checkout: Path, workload: str, trace: int,
             seed: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and the report line before it."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload,
               "--trace", str(trace), "--seed", str(seed)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def failed_share(pairs: list[dict], side: str) -> float:
    attempted = sum(p[side]["attempted"] for p in pairs)
    return sum(p[side]["failed"] for p in pairs) / attempted if attempted \
        else 0.0


def summarize(pairs: list[dict], declared: dict) -> dict:
    """Per metric, each side's median and quartiles, the pair wins, whether
    a gain is shown and the bound check."""
    more_failed = failed_share(pairs, "after") > failed_share(pairs, "before")
    summary = {}
    for name in pairs[0]["before"]["metrics"]:
        spec = declared.get(name, {})
        higher = spec.get("better") == "higher"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        before, after = stats["before"]["median"], stats["after"]["median"]
        wins = sum((a > b) if higher else (a < b)
                   for b, a in zip(values["before"], values["after"]))
        gain = (after - before) if higher else (before - after)
        iqr = stats["before"]["q3"] - stats["before"]["q1"]
        entry = {
            "before": stats["before"], "after": stats["after"],
            "change_pct": (100.0 * (after - before) / before
                           if before else None),
            "after_better_pairs": wins, "pairs": len(pairs),
            "gain_shown": (wins >= 0.9 * len(pairs) and gain > iqr
                           and not more_failed),
        }
        if "bound" in spec:
            limit = before * (1 - spec["bound"] if higher else
                              1 + spec["bound"])
            entry["within_bound"] = after >= limit if higher else after <= limit
            spread = max(values["before"]) - min(values["before"])
            separated = (min(values["after"]) > max(values["before"])
                         if higher else
                         max(values["after"]) < min(values["before"]))
            entry["unresolved"] = (spread > spec["bound"] * abs(before)
                                   and not separated)
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--after", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--topic", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"before": args.before, "after": args.after}
    out = Path(f"BENCH_{args.topic}.json")

    spec = json.loads((args.after / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    pairs = {w: [] for w in args.workload}
    environment = {}
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            pair = {"seed": seed, "order": f"{order[0]} first"}
            for side in order:
                result, report = run_side(checkouts[side], workload,
                                          args.trace, seed)
                pair[side] = result
                environment.setdefault(side, report["environment"])
                metric = next(iter(result["metrics"]))
                print(f"pair {i + 1}/{args.pairs} {workload} {side}: "
                      f"{metric} {result['metrics'][metric]['value']:.6g}, "
                      f"failed {result['failed']}", file=sys.stderr)
            pairs[workload].append(pair)

    document = json.loads(out.read_text()) if out.exists() else {}
    document.update({
        "topic": args.topic,
        "schema": ("BENCH_<topic>.json as tools/bench_pairs.py writes it: "
                   "'before' is the parent commit, 'after' the change, each "
                   "run from its own checkout; see the tool's docstring"),
        "command": ("python3 benchmarks/run.py --workload <workload> "
                    "--trace <trace> --seed <seed>"),
        "environment": environment,
    })
    runs = document.setdefault("runs", {})
    for workload, workload_pairs in pairs.items():
        runs[f"{workload}.trace{args.trace}"] = {
            "pairs": workload_pairs,
            "failed_share": {side: failed_share(workload_pairs, side)
                             for side in SIDES},
            "summary": summarize(workload_pairs, declared),
        }
    out.write_text(json.dumps(document, indent=1) + "\n")
    for key in sorted(runs):
        for name, entry in runs[key]["summary"].items():
            print(f"{key:26s} {name:40s} {entry['before']['median']:>12.6g}"
                  f" -> {entry['after']['median']:>12.6g}  won "
                  f"{entry['after_better_pairs']}/{entry['pairs']}"
                  f"{'  gain shown' if entry['gain_shown'] else ''}"
                  f"{'  unresolved' if entry.get('unresolved') else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
