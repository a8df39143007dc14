"""Tests of the benchmark itself: workloads run, metrics print, the gate bites.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import kreintwist  # noqa: E402

import gate  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMOKE_SUITES = workloads.SWEEP_SUITES
SMOKE_SIG = (2, 0)


@pytest.fixture(scope="module")
def expected():
    return gate.load_expected_ids()


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _smoke_payload() -> str:
    cfg = kreintwist.SuiteConfig(suites=SMOKE_SUITES, signatures=(SMOKE_SIG,))
    return json.dumps(kreintwist.run(cfg).to_json_dict(), indent=2)


@pytest.mark.parametrize("name", ["seed_sweep", "high_dim", "geometry_fd"])
def test_in_process_workload_smoke(name, expected):
    w = workloads.WORKLOADS[name]
    result = workloads.InProcessRunner(w, kreintwist, expected).run(w.warmup_signature, workloads.WARMUP_SEED)
    assert result.outcome.passed, result.outcome.causes
    assert result.outcome.passing_records == len(expected[result.label])


def test_cli_workload_smoke(tmp_path, expected):
    runner = workloads.CliRunner(ROOT, str(tmp_path), expected)
    first = runner.run()
    second = runner.run()
    assert first.outcome.passed, first.outcome.causes
    assert second.outcome.passed, second.outcome.causes  # byte-identical to the first
    assert first.outcome.passing_records == 599


def test_rounds_cover_every_signature_once():
    import random

    w = workloads.WORKLOADS["high_dim"]
    ops = w.round(random.Random(3))
    assert sorted(sig for sig, _ in ops) == sorted(w.signatures)
    assert ops == w.round(random.Random(3))


def test_schedule_numbers_its_inputs_and_depends_on_the_seed_alone():
    import random

    w = workloads.WORKLOADS["seed_sweep"]
    rounds = w.schedule(random.Random(5))
    assert len(rounds) == w.schedule_rounds
    assert [slot for ops in rounds for slot, _, _ in ops] == list(range(w.schedule_rounds * len(w.signatures)))
    assert rounds == w.schedule(random.Random(5))


def test_inputs_are_counted_once_and_a_changed_verdict_is_caught():
    import run

    def op(slot, causes):
        return workloads.OpResult("x", slot, 0.1, gate.Outcome(causes), slot=slot)

    boom = [{"cause": "RandomDegenerateError", "detail": "degenerate"}]
    inputs, irreproducible = run.by_input([op(1, boom), op(0, []), op(1, boom), op(0, [])])
    assert [r.slot for r in inputs] == [0, 1] and not irreproducible
    _, irreproducible = run.by_input([op(0, []), op(0, boom)])
    assert [r.slot for r in irreproducible] == [0]


def test_scaler_scales_each_op_by_the_reference_around_it():
    scaler = speed.Scaler()
    ops = [workloads.OpResult("x", 0, wall, gate.Outcome([])) for wall in (0.1, 0.2)]
    for op in ops:
        scaler.add(op)
    scaler.flush()
    first, last = scaler.samples[0], scaler.samples[-1]
    for op in ops:
        assert op.scaled_s == pytest.approx(op.wall_s * speed.NOMINAL_S / ((first + last) / 2))


def test_gate_passes_an_untouched_report(expected):
    outcome = gate.check_payload(_smoke_payload(), expected[gate.config_key(SMOKE_SUITES, SMOKE_SIG)])
    assert outcome.passed and not outcome.incorrect


def test_gate_fails_a_residual_raised_above_tolerance(expected):
    doc = json.loads(_smoke_payload())
    victim = doc["records"][3]
    victim["residual"] = victim["tolerance"] * 10.0  # "passed" left true on purpose
    outcome = gate.check_payload(json.dumps(doc), expected[gate.config_key(SMOKE_SUITES, SMOKE_SIG)])
    assert not outcome.passed
    assert [c["check_id"] for c in outcome.causes] == [victim["check_id"]]
    assert gate.cause_key(outcome.causes[0]) == "record_failed:" + victim["check_id"].replace(".p2q0.", ".*.")


def test_gate_fails_a_dropped_check_id(expected):
    doc = json.loads(_smoke_payload())
    del doc["records"][5]
    doc["summary"]["total"] -= 1
    doc["summary"]["passed"] -= 1
    outcome = gate.check_payload(json.dumps(doc), expected[gate.config_key(SMOKE_SUITES, SMOKE_SIG)])
    assert not outcome.passed and outcome.incorrect
    assert [c["cause"] for c in outcome.causes] == ["check_ids_differ"]


def test_gate_rejects_bare_infinity(expected):
    doc = json.loads(_smoke_payload())
    doc["records"][0]["residual"] = float("inf")
    outcome = gate.check_payload(json.dumps(doc), expected[gate.config_key(SMOKE_SUITES, SMOKE_SIG)])
    assert {c["cause"] for c in outcome.causes} == {"json_not_strict", "record_failed"}


def test_tracer_restores_bindings_and_accounts_for_wall_time(expected):
    originals = (kreintwist.linalg.residual_norm, kreintwist.krein.residual_norm, kreintwist.suites.SUITE_BUILDERS["krein"])
    w = workloads.WORKLOADS["seed_sweep"]
    rec = tracer.Recorder()
    rec.install()
    try:
        assert kreintwist.krein.residual_norm is not originals[1]
        result = workloads.InProcessRunner(w, kreintwist, expected).run((4, 0), workloads.WARMUP_SEED, rec, 0)
    finally:
        rec.uninstall()
    assert (kreintwist.linalg.residual_norm, kreintwist.krein.residual_norm, kreintwist.suites.SUITE_BUILDERS["krein"]) == originals
    assert result.outcome.passed
    m = tracer.layer_metrics(rec, 1)
    assert m["clifford.builds_per_signature"] == 3.0
    assert m["suites.check.calls"] == result.outcome.records
    assert 0.9 < m["trace.coverage_share"] <= 1.0
    assert 0.0 < m["krein.draw_accept_ratio"] <= 1.0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(trace, section):
    spec = _bench_spec()
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "geometry_fd", "--seed", "0",
            "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines), name


def test_benchmark_spec_lists_the_workloads():
    spec = _bench_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(tracer.layer_metric_units())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "seed_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
