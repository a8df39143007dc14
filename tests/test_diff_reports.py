"""``scripts/diff_reports.py``: identical reports pass, moved or changed records fail."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "diff_reports", os.path.join(ROOT, "scripts", "diff_reports.py"))
diff_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_reports)
compare, main, MAX_SHIFT = diff_reports.compare, diff_reports.main, diff_reports.MAX_SHIFT


def _records():
    return [
        {"suite": "clifford", "check_id": "clifford.p2q0.twist_parity", "anchor": "Sec3",
         "residual": 0.0, "tolerance": 1e-12, "passed": True, "runtime_ms": 1.5},
        {"suite": "clifford", "check_id": "clifford.p2q0.trace_metric", "anchor": "EqMetTrace",
         "residual": 2.5e-16, "tolerance": 1e-12, "passed": True, "runtime_ms": 0.7},
    ]


def _write(tmp_path, name, records):
    path = tmp_path / name
    path.write_text(json.dumps({"records": records}))
    return str(path)


def test_identical_reports_exit_zero(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _records())
    changed_time = _records()
    changed_time[0]["runtime_ms"] = 99.0
    b = _write(tmp_path, "b.json", changed_time)
    assert main([a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "2 records compared, max |dresidual|/tol = 0.000e+00"
    assert compare(_records(), changed_time) == ([], [(0.0, r["check_id"]) for r in _records()])


def _moved(records):
    records[1]["residual"] += 2 * MAX_SHIFT * records[1]["tolerance"]


def _infinite(records):
    records[0]["residual"] = float("inf")


def _renamed(records):
    records[1]["check_id"] = "clifford.p2q0.trace_metric_renamed"


@pytest.mark.parametrize("change", [_moved, _infinite, _renamed])
def test_changed_reports_exit_one(tmp_path, capsys, change):
    records = _records()
    change(records)
    assert main([_write(tmp_path, "a.json", _records()), _write(tmp_path, "b.json", records)]) == 1
    assert "DIFF" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_string_encoded_nonfinite_residuals_compare_as_floats(tmp_path, capsys, value):
    written, legacy = _records(), _records()
    written[0]["residual"], legacy[0]["residual"] = value, float(value)
    a = _write(tmp_path, "a.json", written)
    assert main([a, _write(tmp_path, "b.json", written)]) == 0
    assert main([a, _write(tmp_path, "c.json", legacy)]) == 0
    assert main([a, _write(tmp_path, "d.json", _records())]) == 1
    assert "DIFF clifford.p2q0.twist_parity: residual" in capsys.readouterr().out
