"""Pin the records of the current tree as fixtures.

Writes two files, each holding, for every pinned seed, either the exception
type that aborted the run or every record's check id, anchor, tolerance,
pass flag and residual (non-finite residuals as strings):

* ``tests/data/parent_records_all.json``: all six suites on the default
  signatures (dimension 2-6) at four seeds.  Its records outside the
  spin-dependent checks were first written by the hand-written suites,
  before they became tables.
* ``tests/data/parent_records_high_dim.json``: the clifford, krein, morphism
  and product suites on five signatures of dimension 8 and 10 at one seed,
  so that the FLOP-bound paths are pinned too: 16x16 and 32x32 operand
  stacks, and the 128x128 product triples of the dimension-10 gauge rows.

The tests require the current code to reproduce both exactly.  Rewrite them
only with a change that is meant to alter the records, and compare the old
and the new fixtures record by record.

Run from the repository root:

    PYTHONPATH=src python scripts/pin_parent_records.py
"""

from __future__ import annotations

import json
import math
import os

from kreintwist import SuiteConfig, run

DATA = os.path.join(os.path.dirname(__file__), "..", "tests", "data")
# (file, suites, signatures or None for the default ones, seeds)
FIXTURES = (
    ("parent_records_all.json",
     ("clifford", "krein", "morphism", "geometry", "product", "emergence"), None, (0, 1, 4, 1234)),
    ("parent_records_high_dim.json",
     ("clifford", "krein", "morphism", "product"), ((5, 5), (10, 0), (0, 10), (4, 4), (1, 7)), (0,)),
)


def pin_seed(suites: tuple, signatures, seed: int) -> dict:
    sigs = {} if signatures is None else {"signatures": signatures}
    try:
        report = run(SuiteConfig(suites=suites, seed=seed, **sigs))
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
    head = f'"suites": {line(doc["suites"])}'
    if "signatures" in doc:
        head += f', "signatures": {line(doc["signatures"])}'
    return f'{{{head}, "seeds": [\n' + ",\n".join(seeds) + "\n]}\n"


def main() -> None:
    for name, suites, signatures, seeds in FIXTURES:
        doc = {"suites": list(suites)}
        if signatures is not None:
            doc["signatures"] = [list(sig) for sig in signatures]
        doc["seeds"] = [pin_seed(suites, signatures, s) for s in seeds]
        with open(os.path.join(DATA, name), "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))


if __name__ == "__main__":
    main()
