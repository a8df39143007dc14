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
