"""Compare two ``verify --format json`` reports record by record.

    python scripts/diff_reports.py A.json B.json

``runtime_ms`` is ignored.  Prints, per check, max |residual_B - residual_A|
divided by the tolerance, largest first, and exits 1 if the check ids,
anchors, tolerances or pass flags differ, or if any residual moved by more
than ``MAX_SHIFT`` times its tolerance (a residual that is inf, -inf or nan
in one report must be the same in the other); exits 0 otherwise.  Reports
write non-finite residuals as the strings "inf", "-inf" and "nan"; bare
JSON constants of older reports are read too.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

MAX_SHIFT = 1e-2  # allowed |residual change| as a fraction of the tolerance


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["records"]


def compare(a: list[dict], b: list[dict]) -> tuple[list[str], list[tuple[float, str]]]:
    """Return (structural differences, [(shift / tolerance, check id)])."""
    ids_a = [r["check_id"] for r in a]
    ids_b = [r["check_id"] for r in b]
    if ids_a != ids_b:
        missing = sorted(set(ids_a) - set(ids_b))
        extra = sorted(set(ids_b) - set(ids_a))
        return [f"check ids differ (missing {missing[:5]}, extra {extra[:5]}, order or count otherwise)"], []
    problems, shifts = [], []
    for ra, rb in zip(a, b):
        cid = ra["check_id"]
        for key in ("anchor", "tolerance", "passed"):
            if ra[key] != rb[key]:
                problems.append(f"{cid}: {key} {ra[key]!r} -> {rb[key]!r}")
        va, vb = float(ra["residual"]), float(rb["residual"])  # float("inf") and float("nan") parse
        if math.isfinite(va) and math.isfinite(vb):
            shifts.append((abs(vb - va) / float(ra["tolerance"]), cid))
        elif repr(va) != repr(vb):  # nan matches nan
            problems.append(f"{cid}: residual {va!r} -> {vb!r}")
            shifts.append((math.inf, cid))
        else:
            shifts.append((0.0, cid))
    return problems, shifts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="reference report (JSON)")
    parser.add_argument("b", help="report to compare (JSON)")
    args = parser.parse_args(argv)
    problems, shifts = compare(_load(args.a), _load(args.b))
    shifts.sort(key=lambda item: item[0], reverse=True)
    print(f"{'max |dresidual|/tol':>20}  check")
    for shift, cid in shifts:
        print(f"{shift:20.3e}  {cid}")
    for problem in problems:
        print(f"DIFF {problem}")
    moved = [cid for shift, cid in shifts if shift > MAX_SHIFT]
    if moved:
        print(f"DIFF {len(moved)} residual(s) moved by more than {MAX_SHIFT:g} x tolerance")
    worst = shifts[0][0] if shifts else 0.0
    print(f"{len(shifts)} records compared, max |dresidual|/tol = {worst:.3e}")
    return 1 if problems or moved else 0


if __name__ == "__main__":
    sys.exit(main())
