"""Regenerate ``expected_ids.json``, the check-id list pinned per configuration.

    python3 perfbench/pin_ids.py

Check ids depend on the suites and the signature, never on the seed.  A
seed whose run aborts yields no list, so each configuration takes the first
of the seeds 1234, 1235, ... whose run completes, and every later completed
seed tried must agree with it.  Run this only when a change to the verifier
changes its check set on purpose; the gate compares every benchmark op
against this file.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import kreintwist  # noqa: E402

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1234, 1244)


def ids_for(suites, signature) -> list:
    lists = []
    for seed in SEEDS:
        kwargs = {} if signature is None else {"signatures": (signature,)}
        try:
            report = kreintwist.run(kreintwist.SuiteConfig(suites=suites, seed=seed, **kwargs))
        except kreintwist.krein.RandomDegenerateError:
            continue
        lists.append([r.check_id for r in report.records])
    if not lists or any(ids != lists[0] for ids in lists):
        raise SystemExit(f"no stable check-id list for {gate.config_key(suites, signature)}")
    return lists[0]


def main() -> int:
    table = {}
    for w in WORKLOADS.values():
        for sig in w.signatures or (None,):
            table[gate.config_key(w.suites, sig)] = ids_for(w.suites, sig)
    with open(gate.EXPECTED_IDS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"pinned {sum(map(len, table.values()))} ids for {len(table)} configurations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
