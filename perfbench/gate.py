"""Correctness gate: decides whether one benchmark operation passed.

An operation fails when it raises or exits non-zero, when any record fails
(residual above tolerance, or a record marked failed), when its check-id
list differs from the list pinned for its configuration in
``expected_ids.json``, or when its JSON is not strict (a bare ``Infinity``
or ``NaN``).  A failure carries its causes, so every failed operation can be
attributed to the input that produced it.

Some causes cannot come from an honest run of a correct verifier at all: a
check-id list that differs from the pinned one, a summary that disagrees
with the records, an exit code that disagrees with the summary, or CLI
output that differs between identical runs.  Those mark the result
*incorrect*, not just failed.
"""

from __future__ import annotations

import json
import os
import re

EXPECTED_IDS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_ids.json")

# causes that mean the output itself is wrong, not that a check failed
INCORRECT_CAUSES = ("check_ids_differ", "summary_inconsistent", "exit_code_mismatch", "output_not_identical")

_SIG_TAG = re.compile(r"\.p\d+q\d+\.")
_RUNTIME = re.compile(rb'"runtime_ms": [^,\n}]+')


def load_expected_ids(path: str = EXPECTED_IDS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def config_key(suites, signature=None) -> str:
    """Key of a configuration in the pinned check-id table."""
    tag = "default" if signature is None else f"p{signature[0]}q{signature[1]}"
    return f"{'+'.join(suites)}@{tag}"


class Outcome:
    """Gate verdict for one operation."""

    def __init__(self, causes: list, passing_records: int = 0, records: int = 0):
        self.causes = causes
        self.records = records
        self.passing_records = passing_records

    @property
    def passed(self) -> bool:
        return not self.causes

    @property
    def incorrect(self) -> bool:
        return any(c["cause"] in INCORRECT_CAUSES for c in self.causes)


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def cause_key(cause: dict) -> str:
    """Grouping key for the failure summary: signature tags are folded."""
    if cause["cause"] == "record_failed":
        return "record_failed:" + _SIG_TAG.sub(".*.", cause["check_id"])
    return cause["cause"]


def check_payload(payload: str, expected_ids: list) -> Outcome:
    """Gate a report given as the JSON text the verifier emits."""
    causes = []
    try:
        doc = json.loads(payload, parse_constant=_reject_constant)
    except ValueError as exc:
        causes.append({"cause": "json_not_strict", "detail": str(exc)})
        doc = json.loads(payload)
    records = doc["records"]
    ids = [r["check_id"] for r in records]
    if ids != expected_ids:
        missing = sorted(set(expected_ids) - set(ids))
        extra = sorted(set(ids) - set(expected_ids))
        causes.append(
            {
                "cause": "check_ids_differ",
                "detail": f"{len(ids)} ids vs {len(expected_ids)} pinned; "
                f"missing {missing[:5]}, extra {extra[:5]}",
            }
        )
    passing = 0
    for r in records:
        ok = r["passed"] and r["residual"] <= r["tolerance"]
        if ok:
            passing += 1
        else:
            causes.append(
                {
                    "cause": "record_failed",
                    "check_id": r["check_id"],
                    "residual": r["residual"],
                    "tolerance": r["tolerance"],
                }
            )
    summary = doc["summary"]
    if summary["total"] != len(records) or summary["passed"] != sum(1 for r in records if r["passed"]):
        causes.append({"cause": "summary_inconsistent", "detail": json.dumps(summary)})
    return Outcome(causes, passing_records=passing, records=len(records))


def raised(exc: BaseException) -> Outcome:
    return Outcome([{"cause": type(exc).__name__, "detail": str(exc)}])


def exited(code: int, stderr: str) -> Outcome:
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    last = lines[-1] if lines else ""
    # a traceback ends in "pkg.module.ErrorType: message"
    name = last.split(":", 1)[0].rsplit(".", 1)[-1] if ":" in last else f"exit_{code}"
    return Outcome([{"cause": name or f"exit_{code}", "detail": f"exit {code}: {last}"}])


def strip_runtime(payload: bytes) -> bytes:
    """Report bytes with every runtime_ms value blanked."""
    return _RUNTIME.sub(b'"runtime_ms": 0', payload)
