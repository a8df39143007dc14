"""The suite tables against pinned records.

``tests/data/parent_records_all.json`` holds every record of all six suites
at four seeds (``scripts/pin_parent_records.py``).  The records outside the
spin-dependent checks were pinned from the hand-written suites, before they
became tables; the tables must reproduce them exactly, and a seed that
aborted the run must abort it with the same exception type.
"""

import json
import math
import os

import numpy as np
import pytest

from kreintwist import clifford as cl
from kreintwist import krein as kr
from kreintwist import suites as su
from kreintwist.clifford import Signature
from kreintwist.report import SuiteConfig
from kreintwist.suites import run

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "parent_records_all.json")

with open(FIXTURE, encoding="utf-8") as _fh:
    _DOC = json.load(_fh)
SUITES = tuple(_DOC["suites"])
PINNED = {entry["seed"]: entry for entry in _DOC["seeds"]}


def _pinned_form(rec) -> dict:
    return {
        "check_id": rec.check_id,
        "anchor": rec.anchor,
        "tolerance": rec.tolerance,
        "passed": rec.passed,
        "residual": rec.residual if math.isfinite(rec.residual) else repr(rec.residual),
    }


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_records_equal_the_pinned_run(seed):
    pinned = PINNED[seed]
    cfg = SuiteConfig(suites=SUITES, seed=seed)
    if "raised" in pinned:
        with pytest.raises(Exception) as exc:
            run(cfg)
        assert type(exc.value).__name__ == pinned["raised"]
        return
    got = [_pinned_form(rec) for rec in run(cfg).records]
    assert [g["check_id"] for g in got] == [p["check_id"] for p in pinned["records"]]
    for g, p in zip(got, pinned["records"]):
        assert g == p, g["check_id"]


def test_list_form_signatures_run():
    def records(signatures):
        cfg = SuiteConfig(suites=("clifford", "krein", "morphism"), signatures=signatures, seed=0)
        return [_pinned_form(rec) for rec in run(cfg).records]

    listed = records([[1, 3], [2, 0]])
    assert listed == records(((1, 3), (2, 0)))
    assert listed[0]["check_id"] == "clifford.p1q3.anticommutator_table"


def test_a_nan_residual_fails_its_row(monkeypatch):
    def one_nan(stack):
        norms = np.zeros(len(stack))
        norms[-1] = np.nan
        return norms

    monkeypatch.setattr(su, "op_norms", one_nan)
    r = su._Runner(SuiteConfig(seed=0), "krein")
    row = next(row for row in su.KREIN if row.id == "k_fixed_under_spin")
    su._add_rows(r, [row], su.SignatureContext(Signature(1, 3), 0, 0))
    (rec,) = r.records
    assert math.isnan(rec.residual) and not rec.passed

    # a NaN at the second of a family's five points fails that family's row
    calls = []

    def nan_at_second_point(metric, x):
        calls.append(metric.name)
        return math.nan if calls.count(metric.name) == 2 else 0.0

    monkeypatch.setattr(su.geo, "reflection_isometry_residual", nan_at_second_point)
    recs = [rec for rec in run(SuiteConfig(suites=("geometry",), seed=0)).records
            if rec.check_id.endswith(".reflection_isometry")]
    assert len(recs) == 4
    assert all(math.isnan(rec.residual) and not rec.passed for rec in recs)

    # a NaN from the second of three gaps is the largest gap of a gamma table
    rep = cl.build_gammas(Signature(1, 3))
    norms = iter([0.0, math.nan, 0.0])
    monkeypatch.setattr(cl, "table_norm", lambda *args: next(norms))
    gap = lambda g, s: g
    assert math.isnan(rep.gamma_table_norm(gap, gap, gap))


def test_inf_entries_in_a_kernel_fail_its_row_silently(monkeypatch, capfd):
    # kernels trust their operands: infs that arise inside one reach op_norms,
    # which norms them NaN without the SVD; LAPACK, given two infs in a matrix,
    # prints "On entry to DLASCL ..." to a standard stream of the process
    fluctuate = kr.fluctuate

    def with_inf(*args):
        out = fluctuate(*args).copy()
        out[0, 0] = out[1, 1] = np.inf
        return out

    monkeypatch.setattr(kr, "fluctuate", with_inf)
    report = run(SuiteConfig(suites=("krein",), signatures=((1, 3),), seed=0))
    failed = [rec for rec in report.records if not rec.passed]
    assert [rec.check_id for rec in failed] == ["krein.p1q3.gauge_equals_form"]
    assert math.isnan(failed[0].residual)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("seed", [0, 4, 71])
def test_every_generator_is_keyed_by_the_run_seed(seed, monkeypatch):
    # one keying rule: every generator of a run is built from an entropy
    # sequence that starts with the run's seed, so runs of two seeds share none
    keys = []
    default_rng = np.random.default_rng

    def recorded(*args, **kwargs):
        keys.append(args[0] if args else kwargs.get("seed"))
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", recorded)
    run(SuiteConfig(seed=seed))
    assert keys
    assert all(isinstance(key, (list, tuple)) and key[0] == seed for key in keys), keys


def _reads_13(check_id: str) -> bool:
    """Whether a default-config record reads an operator of signature (1,3)."""
    return ("p1q3." in check_id
            or (check_id.startswith("product.") and check_id != "product.finite_ko6_invariants")
            or check_id in ("geometry.flat4d.plane_wave_dirac", "geometry.lorentz4d.dirac_decomposition"))


@pytest.mark.parametrize("builder", ["build_gammas", "build_structural"])
def test_a_construction_error_on_1_3_gives_failed_records(builder, monkeypatch):
    ids = [rec.check_id for rec in run(SuiteConfig(seed=0)).records]
    original = getattr(cl, builder)

    def broken(arg):  # a Signature for build_gammas, a CliffordRep for build_structural
        sig = getattr(arg, "sig", arg)
        if (sig.p, sig.q) == (1, 3):
            raise cl.ConstructionError(f"{builder} fails on (1,3)")
        return original(arg)

    monkeypatch.setattr(cl, builder, broken)
    records = run(SuiteConfig(seed=0)).records
    assert [rec.check_id for rec in records] == ids
    failed = [rec for rec in records if not rec.passed]
    assert failed and all(math.isinf(rec.residual) for rec in failed)
    assert all(_reads_13(rec.check_id) for rec in failed)
