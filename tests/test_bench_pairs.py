"""``scripts/bench_pairs.py``: the claim verdict and the per-metric summary on hand-made numbers."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [0.030, 0.029, 0.031, 0.028, 0.030, 0.032, 0.029, 0.030, 0.031, 0.029]
NO_FAILS = [0] * 10


def verdict(parent, change, better="lower", parent_failed=None, change_failed=None):
    zeros = [0] * len(parent)
    return bench_pairs.claim_verdict(parent, change, better, parent_failed or zeros, change_failed or zeros)


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == [1.75, 2.5, 3.25]


def test_a_clear_gain_is_met():
    change = [p - 0.008 for p in PARENT]
    v = verdict(PARENT, change)
    assert v["met"] and v["change_wins"] == "10/10"
    assert v["parent_median"] == 0.030 and v["change_median"] == pytest.approx(0.022)
    assert v["median_gap"] == pytest.approx(0.008) and v["parent_iqr"] == pytest.approx(0.00175)


def test_nine_wins_of_ten_is_enough_and_eight_is_not():
    change = [p - 0.008 for p in PARENT]
    change[0] = PARENT[0]  # a tie counts for neither side
    assert verdict(PARENT, change)["change_wins"] == "9/10"
    assert verdict(PARENT, change)["met"]
    change[1] = PARENT[1] + 0.001
    v = verdict(PARENT, change)
    assert v["change_wins"] == "8/10" and not v["met"]


def test_a_gap_inside_the_parent_spread_is_not_met():
    # every pair won, but the medians differ by less than the parent's IQR
    change = [p - 0.001 for p in PARENT]
    v = verdict(PARENT, change)
    assert v["change_wins"] == "10/10" and v["median_gap"] < v["parent_iqr"]
    assert not v["met"]


def test_fewer_than_ten_pairs_never_meet_a_claim():
    change = [p - 0.008 for p in PARENT]
    assert not verdict(PARENT[:9], change[:9])["met"]


def test_higher_is_better_metrics_win_upwards():
    parent = [1000.0 + 10 * i for i in range(10)]
    v = verdict(parent, [p + 500.0 for p in parent], "higher")
    assert v["met"] and v["median_gap"] == pytest.approx(500.0)
    assert not verdict(parent, [p - 500.0 for p in parent], "higher")["met"]


def test_a_change_that_fails_more_operations_meets_no_claim():
    change = [p - 0.008 for p in PARENT]
    assert verdict(PARENT, change, parent_failed=[2] * 10, change_failed=[2] * 10)["met"]
    assert verdict(PARENT, change, parent_failed=[3] * 10, change_failed=[1] * 10)["met"]
    more = [2] * 10
    more[7] = 3
    v = verdict(PARENT, change, parent_failed=[2] * 10, change_failed=more)
    assert v["change_wins"] == "10/10" and v["median_gap"] > v["parent_iqr"]
    assert not v["change_fails_no_more"] and not v["met"]
    with pytest.raises(ValueError):
        bench_pairs.claim_verdict(PARENT, change, "lower", NO_FAILS, NO_FAILS[:9])


def test_summary_reports_the_bound_in_the_metric_direction():
    slower = [p * 1.3 for p in PARENT]
    s = bench_pairs.summarise(PARENT, slower, "lower", 0.25)
    assert s["median_change_rel"] == pytest.approx(0.3) and s["bound_verdict"] == "outside"
    assert s["change_wins"] == "0/10"
    assert s["parent_q1_median_q3"] == bench_pairs.quartiles(PARENT)
    assert bench_pairs.summarise(PARENT, slower, "higher", 0.25)["bound_verdict"] == "within"
    same = bench_pairs.summarise([1.0] * 10, [1.0] * 10, "higher", 0.2)
    assert same["change_wins"] == "0/10" and same["bound_verdict"] == "within" and same["median_gap"] == 0.0


def test_a_parent_spread_wider_than_the_bound_leaves_the_bound_unresolved():
    # parent IQR 0.35 of its median 1.0 against a 0.25 bound
    parent = [0.7, 0.8, 0.85, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]
    assert bench_pairs.quartiles(parent)[2] - bench_pairs.quartiles(parent)[0] > 0.25
    for change in ([p * 1.15 for p in parent], [p * 0.95 for p in parent], [p * 2.0 for p in parent]):
        assert bench_pairs.bound_verdict(parent, change, "lower", 0.25) == "unresolved"
    # unless every change run beats every parent run
    assert bench_pairs.bound_verdict(parent, [0.5] * 10, "lower", 0.25) == "within"
    assert bench_pairs.bound_verdict(parent, [0.5] * 10, "higher", 0.25) == "unresolved"
    assert bench_pairs.bound_verdict(parent, [1.5] * 10, "higher", 0.25) == "within"
    # the same moves resolve once the parent spread is inside the bound
    assert bench_pairs.bound_verdict(PARENT, [p * 1.15 for p in PARENT], "lower", 0.25) == "within"
    assert bench_pairs.bound_verdict(PARENT, [p * 2.0 for p in PARENT], "lower", 0.25) == "outside"


def test_seed_ranges_expand():
    assert bench_pairs._seeds(["601-603", "610"]) == [601, 602, 603, 610]


def test_run_length_and_workloads_come_from_benchmark_json(tmp_path, monkeypatch):
    spec = {"run_seconds": 3, "workloads": [{"name": "w1"}, {"name": "w2"}],
            "end_to_end": [{"name": "op_s.p50", "better": "lower", "bound": 0.25}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(tree, workload, seed, seconds, trace=0):
        calls.append((os.path.basename(tree), workload, seconds))
        value = 0.02 if tree.endswith("change") else 0.03
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": {"op_s.p50": value + 1e-4 * seed}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds", "1-10",
            "--claim", "w2:op_s.p50", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    got = json.loads(out.read_text())
    assert list(got["workloads"]) == ["w1", "w2"] and "--seconds 3 " in got["command"]
    timed = [c for c in calls if c[2] != bench_pairs.WARMUP_SECONDS]
    assert len(timed) == 2 * 2 * 10 and {c[2] for c in timed} == {3}
    assert got["claim"]["met"] and got["workloads"]["w1"]["metrics"]["op_s.p50"]["bound_verdict"] == "within"
    with pytest.raises(SystemExit):
        bench_pairs.main(argv[:2] + ["--workloads", "w3", "--seeds", "1", "--out", str(out)])
