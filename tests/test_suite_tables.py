"""The suite tables against the records of the hand-written suites.

``tests/data/parent_records_all.json`` holds every record of all six suites
at four seeds, pinned before the suites became tables
(``scripts/pin_parent_records.py``); the tables must reproduce them
exactly, and a seed that aborted the run must abort it with the same
exception type.
"""

import json
import math
import os

import pytest

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
