"""Recompute the golden fixture digests and write golden.json.

    python3 benchmarks/make_golden.py

Run it only when a change is meant to alter fixed-seed outputs (for example
a new random-stream layout), and say so where the change is recorded: the
committed digests are what keeps every other change bit-identical.
"""

import json
import sys

import run


def main():
    run.pin_threads()
    wl = run.import_workloads()
    out = {}
    for name in wl.WORKLOADS:
        w = run.golden_workload(wl, name)
        ops = [w.op(i) for i in range(w.golden_ops)]
        problems = [p for op in ops for p in op.problems]
        if problems:
            raise SystemExit(f"{name}: golden fixture fails its checks: "
                             f"{problems}")
        out[name] = {"seed": wl.GOLDEN_SEED, "ops": w.golden_ops,
                     "params": wl.GOLDEN_PARAMS[name],
                     "sha256": wl.digest(ops)}
        print(name, out[name]["sha256"], file=sys.stderr)
    wl.REFERENCE.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
