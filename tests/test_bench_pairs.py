"""``tools/bench_pairs.py``'s verdicts on synthetic pairs of benchmark runs.

The tool decides whether a claimed gain is shown and whether a metric kept
its bound, so its rules are pinned here: the gain needs nine tenths of the
pairs won, a median gain above the parent's interquartile range and no
larger failed share; ties count for neither side; a lower-is-better metric
wins downwards; and a bound check is unresolved only when the parent's runs
spread wider than the bound and the change's runs do not all beat them.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = {
    "throughput_per_s": {"better": "higher", "bound": 0.25},
    "setup_s": {"better": "lower", "bound": 0.25},
    "agreed_frac": {"better": "higher"},
}


def _side(value, name, attempted=100, failed=0):
    return {"metrics": {name: {"value": value}}, "attempted": attempted,
            "failed": failed}


def _pairs(before, after, name="throughput_per_s", failed=(0, 0)):
    return [{"seed": 100 + i, "before": _side(b, name, failed=failed[0]),
             "after": _side(a, name, failed=failed[1])}
            for i, (b, a) in enumerate(zip(before, after))]


def _summary(before, after, name="throughput_per_s", **kw):
    return bench_pairs.summarize(_pairs(before, after, name, **kw),
                                 DECLARED)[name]


BEFORE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def test_clear_gain_is_shown():
    entry = _summary(BEFORE, [b + 5.0 for b in BEFORE])
    assert entry["after_better_pairs"] == 10 and entry["pairs"] == 10
    assert entry["gain_shown"]
    assert entry["change_pct"] == pytest.approx(5.0, rel=1e-3)


@pytest.mark.parametrize("losses, shown", [(1, True), (2, False)])
def test_gain_needs_nine_tenths_of_the_pairs(losses, shown):
    after = [b + 5.0 for b in BEFORE]
    for i in range(losses):
        after[i] = BEFORE[i] - 1.0
    entry = _summary(BEFORE, after)
    assert entry["after_better_pairs"] == 10 - losses
    assert entry["gain_shown"] is shown


def test_gain_must_exceed_the_parents_iqr():
    # every pair won, but by less than the before side's quartile spread
    entry = _summary(BEFORE, [b + 0.05 for b in BEFORE])
    iqr = entry["before"]["q3"] - entry["before"]["q1"]
    assert entry["after_better_pairs"] == 10
    assert entry["after"]["median"] - entry["before"]["median"] < iqr
    assert not entry["gain_shown"]


def test_larger_failed_share_blocks_a_gain():
    after = [b + 5.0 for b in BEFORE]
    assert _summary(BEFORE, after, failed=(1, 1))["gain_shown"]
    assert not _summary(BEFORE, after, failed=(0, 1))["gain_shown"]


@pytest.mark.parametrize("ties, shown", [(1, True), (2, False)])
def test_ties_count_for_neither_side(ties, shown):
    after = [b + 5.0 for b in BEFORE]
    after[:ties] = BEFORE[:ties]
    entry = _summary(BEFORE, after)
    assert entry["after_better_pairs"] == 10 - ties
    assert entry["gain_shown"] is shown


def test_lower_is_better_metric():
    before = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.005, 0.995, 1.0, 1.0]
    faster = _summary(before, [b - 0.1 for b in before], name="setup_s")
    assert faster["after_better_pairs"] == 10 and faster["gain_shown"]
    assert faster["change_pct"] == pytest.approx(-10.0, rel=1e-3)
    slower = _summary(before, [b + 0.1 for b in before], name="setup_s")
    assert slower["after_better_pairs"] == 0 and not slower["gain_shown"]
    assert slower["within_bound"] and not slower["unresolved"]
    worse = _summary(before, [b * 1.3 for b in before], name="setup_s")
    assert not worse["within_bound"] and not worse["unresolved"]


def test_metric_without_bound_has_no_bound_check():
    entry = _summary(BEFORE, BEFORE, name="agreed_frac")
    assert "within_bound" not in entry and "unresolved" not in entry
    assert entry["after_better_pairs"] == 0 and not entry["gain_shown"]


def test_bound_check_on_tight_runs():
    within = _summary(BEFORE, [b * 0.8 for b in BEFORE])
    assert within["within_bound"] and not within["unresolved"]
    beyond = _summary(BEFORE, [b * 0.7 for b in BEFORE])
    assert not beyond["within_bound"] and not beyond["unresolved"]


def test_spread_parent_leaves_the_bound_check_unresolved():
    # the parent's runs span more than the 25% bound around their median
    spread = [60.0, 140.0, 100.0, 70.0, 130.0, 95.0, 105.0, 80.0, 120.0, 100.0]
    overlapping = _summary(spread, [v * 0.9 for v in spread[::-1]])
    assert overlapping["unresolved"]
    # the same spread, but every after run beats every before run
    separated = _summary(spread, [v + 100.0 for v in spread])
    assert separated["within_bound"] and not separated["unresolved"]
    # only separation in the after side's favour resolves a spread parent:
    # runs all worse still read as unresolved, though out of bound
    worse = _summary(spread, [v / 10.0 for v in spread])
    assert not worse["within_bound"] and worse["unresolved"]


def test_quartiles_of_one_run():
    assert bench_pairs.quartiles([3.0]) == {"median": 3.0, "q1": 3.0,
                                            "q3": 3.0}
