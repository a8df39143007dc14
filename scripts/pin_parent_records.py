"""Pin the records of all six suites of the current tree as a fixture.

Writes ``tests/data/parent_records_all.json``: for each pinned seed, either
the exception type that aborted the run or every record's check id, anchor,
tolerance, pass flag and residual (non-finite residuals as strings).  The
suite-table tests require the current code to reproduce it exactly.  The
committed fixture was written by the hand-written suites, before they
became tables; rewrite it only with a change that is meant to alter the
records.

``tests/data/parent_records.json`` (clifford, krein and morphism, compared
by the batched-engine tests) was written the same way by the per-sample
checks, before they were batched, and is kept as written.

Run from the repository root:

    PYTHONPATH=src python scripts/pin_parent_records.py
"""

from __future__ import annotations

import json
import math
import os

from kreintwist import SuiteConfig, run

SUITES = ("clifford", "krein", "morphism", "geometry", "product", "emergence")
SEEDS = (0, 1, 4, 1234)
OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "data", "parent_records_all.json")


def pin_seed(seed: int) -> dict:
    try:
        report = run(SuiteConfig(suites=SUITES, seed=seed))
    except Exception as exc:  # the fixture records which type aborted the run
        return {"seed": seed, "raised": type(exc).__name__}
    records = []
    for rec in report.records:
        res = rec.residual if math.isfinite(rec.residual) else repr(rec.residual)
        records.append(
            {
                "check_id": rec.check_id,
                "anchor": rec.anchor,
                "tolerance": rec.tolerance,
                "passed": rec.passed,
                "residual": res,
            }
        )
    return {"seed": seed, "records": records}


def dumps(doc: dict) -> str:
    """Strict JSON with one record per line."""
    def line(obj) -> str:
        return json.dumps(obj, allow_nan=False)

    seeds = []
    for entry in doc["seeds"]:
        if "records" in entry:
            body = ",\n   ".join(line(r) for r in entry["records"])
            seeds.append(f'  {{"seed": {entry["seed"]}, "records": [\n   {body}\n  ]}}')
        else:
            seeds.append("  " + line(entry))
    return f'{{"suites": {line(doc["suites"])}, "seeds": [\n' + ",\n".join(seeds) + "\n]}\n"


def main() -> None:
    doc = {"suites": list(SUITES), "seeds": [pin_seed(s) for s in SEEDS]}
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


if __name__ == "__main__":
    main()
