"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/test_bench.py

Not part of the repository's test suite (``testpaths`` names ``tests/``
only), so it adds nothing to the tier-1 run.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for _path in (str(BENCH_DIR), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {"keygen_10db": functools.partial(wl.Keygen, blocks=4),
        "waterfall_mix": functools.partial(wl.Waterfall, trials=1, blocks=4),
        "capacity_mc": functools.partial(wl.CapacityMC, samples=100_000)}

# figures each kind of workload must report besides the declared ones
SESSION_FIGURES = {"sessions_per_s": "1/s", "key_bits_per_s": "bit/s",
                   "agreed_frac": "ratio", "failed_frac": "ratio"}
CAPACITY_FIGURES = {"mc_samples_per_s": "1/s", "capacity_abs_err_bits": "bit",
                    "failed_frac": "ratio"}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads, a matching golden reference, and in-process set-up."""
    monkeypatch.setattr(wl, "WORKLOADS", dict(TINY))
    monkeypatch.setattr(wl, "GOLDEN_PARAMS", {name: {} for name in TINY})
    reference = {name: {"sha256": run.golden_check(wl, name, {})[0]}
                 for name in TINY}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(wl, "REFERENCE", path)

    def in_process_setups(_wl, name, ref):
        digest, problems = run.golden_check(_wl, name, ref)
        return [0.5], int(bool(problems)), problems

    monkeypatch.setattr(run, "timed_setups", in_process_setups)
    return path


def _run_main(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    report, result = _run_main(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert report["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        wanted = CAPACITY_FIGURES if workload == "capacity_mc" \
            else SESSION_FIGURES
        for name, unit in wanted.items():
            assert report["metrics"][name]["unit"] == unit
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0
    env = report["environment"]
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"git_sha", "python", "numpy", "scipy", "nproc"} <= env.keys()


def test_keygen_reports_session_percentiles(tiny, capsys):
    report, _ = _run_main(capsys, "keygen_10db", 0)
    count = report["metrics"]["session_count"]["value"]
    assert count >= wl.Keygen.quality_ops
    assert report["metrics"]["session_p50_ms"]["unit"] == "ms"
    assert report["metrics"]["session_p90_ms"]["unit"] == "ms"


def test_percentile_needs_ten_samples_beyond_it():
    assert set(run.percentiles([0.001 * i for i in range(100)])) \
        == {"p50", "p90"}
    assert set(run.percentiles([0.001 * i for i in range(99)])) \
        == {"p50", "p75"}


def test_trace_lists_zero_call_spans(tiny, capsys):
    report, result = _run_main(capsys, "keygen_10db", 1)
    zero = report["zero_call_spans"]
    # the pipeline sounds inline today, and keygen estimates no capacity
    assert "sounding.two_way_sound" in zero
    assert "capacity.mi_estimate" in zero
    assert "channel.sample_paths" not in zero
    assert result["metrics"]["trace.zero_call_spans"]["value"] == len(zero)
    assert result["metrics"]["rng.split_streams.streams"]["value"] == 5


def test_trace_restores_every_wrapped_function():
    before = tracing.patch_targets()
    assert {name for name, *_ in before} == {s[0] for s in tracing.SPANS}
    with pytest.raises(RuntimeError):
        with tracing.Tracer().patched():
            for _, _, holder, key, orig in before:
                assert getattr(holder, key) is not orig
            raise RuntimeError("leave the context by an error")
    for _, _, holder, key, orig in before:
        assert vars(holder)[key] is orig


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_and_untraced_digests_are_identical(workload):
    w = TINY[workload]()
    w.prepare(5)
    plain = [w.op(i) for i in range(w.cycle)]
    tracer = tracing.Tracer()
    with tracer.patched():
        traced = [w.op(i) for i in range(w.cycle)]
    assert wl.digest(plain) == wl.digest(traced)
    assert sum(st.calls for st in tracer.stats.values()) > 0


@pytest.mark.parametrize("content", ["{not json", "[]",
                                     json.dumps({"keygen_10db":
                                                 {"sha256": "0" * 64}})])
def test_corrupted_reference_counts_as_failures(tiny, capsys, content):
    tiny.write_text(content)
    report, result = _run_main(capsys, "keygen_10db", 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("golden digest" in p for p in report["problems"])
    assert report["metrics"]["failed_frac"]["value"] > 0


def test_setup_child_reports_its_time_and_digest(tiny, capsys):
    assert run.setup_child("keygen_10db") == 0
    child = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert child["setup_s"] > 0 and child["problems"] == []
    assert child["digest"] == json.loads(tiny.read_text())[
        "keygen_10db"]["sha256"]


def test_committed_golden_digests_match():
    reference = wl.load_reference()
    for name in wl.WORKLOADS:
        digest, problems = run.golden_check(wl, name, reference)
        assert problems == [], problems


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "keygen_10db", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
