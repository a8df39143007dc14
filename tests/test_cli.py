import json
import re
import subprocess

import numpy as np
import pytest

from kreintwist import suites
from kreintwist.report import (
    ConfigError,
    SuiteConfig,
    emit,
    parse_config_file,
)
from kreintwist.suites import run
from kreintwist.cli import config_from_args, main

QUICK = ["--suite", "clifford", "--signature", "2", "0"]


def _strip_runtime(text: str) -> str:
    return re.sub(r'"runtime_ms": [0-9.]+', '"runtime_ms": 0', text)


def test_exit_zero_on_quick_pass(capsys):
    assert main(QUICK) == 0
    out = capsys.readouterr().out
    assert "summary:" in out


def test_text_table_line_count(capsys):
    assert main(QUICK) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    cfg = config_from_args(QUICK)
    n_records = len(run(cfg).records)
    assert len(lines) == n_records + 2  # header + records + summary
    assert n_records >= 6


def test_exit_one_on_forced_failure(capsys):
    code = main(["--suite", "geometry", "--tol", "fd=1e-300"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_exit_two_on_config_errors(capsys):
    assert main(["--suite", "nosuch"]) == 2
    assert main(["--suite", "clifford", "--signature", "1", "2"]) == 2
    assert main(["--suite", "clifford", "--fd-step", "1"]) == 2
    assert main(["--suite", "clifford", "--tol", "nosuchclass=1"]) == 2
    assert main(["--suite", "clifford", "--format", "json",
                 "--out", "/nonexistent-dir/r.json", "--signature", "2", "0"]) == 2


def test_json_deterministic_modulo_runtime(tmp_path):
    args = ["--suite", "clifford", "--suite", "krein", "--signature", "1", "3",
            "--format", "json", "--seed", "9"]
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert _strip_runtime(p1.read_text()) == _strip_runtime(p2.read_text())


def test_json_round_trip(tmp_path):
    cfg = config_from_args(QUICK + ["--format", "json"])
    report = run(cfg)
    path = tmp_path / "r.json"
    emit(report, "json", str(path))
    parsed = json.loads(path.read_text())
    direct = report.to_json_dict()
    for rec_a, rec_b in zip(parsed["records"], direct["records"]):
        rec_a.pop("runtime_ms")
        rec_b.pop("runtime_ms")
    assert parsed["records"] == direct["records"]
    assert parsed["summary"] == direct["summary"]
    assert parsed["config"] == direct["config"]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("outcome", ["raise", "nan"])
def test_json_is_strict_when_a_kernel_fails(outcome, tmp_path, monkeypatch):
    def broken(ctx, spins):
        if outcome == "raise":
            raise RuntimeError("broken kernel")
        return np.nan

    monkeypatch.setattr(suites, "spin_k_unitarity", broken)
    report = run(SuiteConfig(suites=("krein",), signatures=((1, 3),), seed=0))
    path = tmp_path / "r.json"
    emit(report, "json", str(path))
    doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    failed = [r for r in doc["records"] if not r["passed"]]
    assert [r["check_id"] for r in failed] == ["krein.p1q3.spin_k_unitarity"]
    assert failed[0]["residual"] == ("inf" if outcome == "raise" else "nan")


# the config echo passed numpy scalars through, and emit raised TypeError
@pytest.mark.parametrize("values, key, want", [
    ({"seed": np.int64(5)}, "seed", 5),
    ({"signatures": ((np.int64(1), np.int64(3)),)}, "signatures", [[1, 3]]),
    ({"fd_step": np.float32(1e-3)}, "fd_step", float(np.float32(1e-3))),
    ({"metric_params": {"amp": np.float32(0.1)}}, "metric_params", {"amp": float(np.float32(0.1))}),
], ids=["seed", "signature", "fd step", "param"])
def test_numpy_scalars_in_an_api_config_give_strict_json(values, key, want, tmp_path):
    report = run(SuiteConfig(**{"suites": ("emergence",), **values}))
    path = tmp_path / "r.json"
    emit(report, "json", str(path))
    doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert doc["config"][key] == want
    assert len(doc["records"]) == doc["summary"]["total"] > 0


def test_a_failed_report_write_leaves_no_temp_file(tmp_path, capsys):
    taken = tmp_path / "report"
    taken.mkdir()  # a directory: the temp file is written, the replace fails
    assert main(["--suite", "emergence", "--out", str(taken)]) == 2
    assert "cannot write report" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report"]


def test_json_of_finite_residuals_is_the_plain_encoding(tmp_path):
    # strict encoding changes nothing while every residual is finite
    report = run(SuiteConfig(seed=1234))
    path = tmp_path / "r.json"
    emit(report, "json", str(path))
    plain = {"tool_version": report.tool_version, "config": report.config,
             "records": [vars(r) for r in report.records], "summary": report.summary}
    assert path.read_text() == json.dumps(plain, indent=2) + "\n"


def test_empty_suite_list_gives_empty_report():
    cfg = SuiteConfig(suites=())
    report = run(cfg)
    assert report.records == []
    assert report.summary == {"total": 0, "passed": 0, "failed": 0}
    assert report.all_passed


def test_records_follow_declared_suite_order():
    cfg = config_from_args(
        ["--suite", "emergence", "--suite", "clifford", "--signature", "2", "0"]
    )
    report = run(cfg)
    suites_seen = [r.suite for r in report.records]
    first_clifford = suites_seen.index("clifford")
    assert all(s == "emergence" for s in suites_seen[:first_clifford])
    assert all(s == "clifford" for s in suites_seen[first_clifford:])


def test_record_fields_and_anchors():
    cfg = config_from_args(QUICK)
    report = run(cfg)
    for rec in report.records:
        assert rec.suite == "clifford"
        assert rec.check_id.startswith("clifford.")
        assert rec.anchor
        assert rec.residual >= 0.0
        assert rec.passed == (rec.residual <= rec.tolerance)
    assert report.summary["passed"] == sum(1 for r in report.records if r.passed)


def test_config_file_and_overrides(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\n"
        "suites = clifford, emergence\n"
        "signatures = 2,0; 1,3\n"
        "seed = 5\n"
        "tol.fd = 2e-5\n"
        "metric = lorentz4d\n"
        "param.amp = 0.05\n"
        "format = json\n"
    )
    cfg = config_from_args(["--config", str(cfg_file)])
    assert cfg.resolved_suites() == ("clifford", "emergence")
    assert cfg.signatures == ((2, 0), (1, 3))
    assert cfg.seed == 5
    assert cfg.tol("fd") == 2e-5
    assert cfg.metric_params == {"amp": 0.05}
    # flags read with the file's grammar give the same config
    flags = config_from_args(["--suite", "clifford", "--suite", "emergence", "--signature", "2", "0",
                              "--signature", "1", "3", "--seed", "5", "--tol", "fd=2e-5",
                              "--metric", "lorentz4d", "--param", "amp=0.05", "--format", "json"])
    assert flags.echo() == cfg.echo()
    # CLI flags override file values
    cfg2 = config_from_args(["--config", str(cfg_file), "--seed", "11", "--suite", "krein"])
    assert cfg2.seed == 11
    assert cfg2.resolved_suites() == ("krein",)
    # environment variable names the default config
    monkeypatch.setenv("KREINTWIST_CONFIG", str(cfg_file))
    cfg3 = config_from_args([])
    assert cfg3.seed == 5


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))
    bad.write_text("seed = notanint\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))
    bad.write_text("unknownkey = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))
    with pytest.raises(ConfigError):
        parse_config_file(str(tmp_path / "missing.cfg"))


def test_repeated_signature_flag_is_a_config_error(capsys):
    code = main(["--suite", "clifford", "--signature", "1", "3", "--signature", "1", "3"])
    assert code == 2
    assert "(1,3)" in capsys.readouterr().err


def test_repeated_signature_in_config_file_is_a_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("suites = clifford\nsignatures = 1,3; 2,0; 1,3\n")
    assert parse_config_file(str(cfg_file))["signatures"] == ((1, 3), (2, 0), (1, 3))
    assert main(["--config", str(cfg_file)]) == 2
    assert "(1,3)" in capsys.readouterr().err


def test_repeated_suite_is_a_config_error(tmp_path, capsys):
    # a repeat would run its suite twice and give every check id twice
    for argv, suite in ((["--suite", "emergence", "--suite", "emergence"], "emergence"),
                        (["--suite", "all", "--suite", "product"], "product")):
        assert main(argv) == 2
        assert f"suite '{suite}' is listed more than once" in capsys.readouterr().err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("suites = krein, krein\n")
    assert main(["--config", str(cfg_file)]) == 2
    assert "suite 'krein' is listed more than once" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="suite 'krein' is listed more than once"):
        run(SuiteConfig(suites=("krein", "all")))


@pytest.mark.parametrize("values", [
    {"signatures": ((1, 3, 5),)},
    {"signatures": ("13",)},
    {"signatures": ((1.0, 3.0),)},
    {"fd_step": "0.001"},
    {"fd_step": None},
    {"metric_params": [("amp", 0.1)]},
    {"tolerances": [("build", 1e-12)]},
    # a non-sequence suites or signatures value raised TypeError; a bool passed
    # as an integer or a real number and came back in the config echo as true
    {"suites": None},
    {"signatures": 5},
    {"signatures": ((True, True),)},
    {"seed": True},
    {"metric_params": {"amp": True}},
    {"tolerances": {"build": True}},
    # validated, after which emit raised TypeError and left 5.tmp.<pid> behind
    {"output_path": 5},
], ids=["triple", "string", "float pair", "string step", "no step", "param pairs", "tolerance pairs",
        "no suites", "int signatures", "bool signature", "bool seed", "bool param", "bool tolerance",
        "int output path"])
def test_malformed_api_config_is_a_config_error(values, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError):
        run(SuiteConfig(**{"suites": ("clifford",), **values}))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra", [
    ["--seed", "-1"],
    ["--suite", "geometry", "--seed", "-1"],
    ["--suite", "product", "--seed", "-1"],
    ["--param", "typo=1"],
    ["--metric", "exp2d", "--param", "amp=0.2"],
    ["--metric", "flat4d", "--param", "amp=0.2"],
    ["--metric", "flat2d"],  # a family the geometry suite does not check
    ["--param", "amp=nan"],
    ["--param", "amp=inf"],
    ["--tol", "build=nan"],
    ["--tol", "build=-1"],
    ["--tol", "build=0"],
    ["--tol", "fd=inf"],
    # argparse rejected these with a usage dump and SystemExit
    ["--seed", "x"],
    ["--fd-step", "abc"],
    ["--signature", "1", "x"],
    ["--format", "xml"],
    ["--out", ""],
])
def test_bad_values_are_config_errors(extra, capsys):
    assert main(["--suite", "clifford", "--signature", "2", "0", *extra]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_an_empty_output_path_is_rejected_before_any_suite_runs(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(suites, "SUITE_BUILDERS", {name: ran.append for name in suites.SUITE_BUILDERS})
    assert main(["--out", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ran == []


def test_values_a_family_reads_are_accepted():
    cfg = config_from_args(["--metric", "lorentz2d", "--param", "amp=0.2", "--tol", "fd=1e-300"])
    assert cfg.metric_params == {"amp": 0.2}
    assert cfg.tol("fd") == 1e-300
    assert config_from_args(["--seed", "0"]).seed == 0


@pytest.mark.parametrize("line", [
    "seed = -3", "param.typo = 1", "param.amp = nan", "tol.build = 0", "tol.fd = -1e-5",
    "metric = flat2d", "out =",
])
def test_bad_values_in_config_file_are_config_errors(tmp_path, line, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"suites = clifford, geometry\nsignatures = 2,0\n{line}\n")
    assert main(["--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_installed_entry_point():
    proc = subprocess.run(
        ["verify", "--suite", "emergence"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "emergence" in proc.stdout
