#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised as a BENCH_<n>.json.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --seeds 601-610 \\
        --claim geometry_fd:op_s.p50 --out BENCH_13.json

PARENT_TREE and CHANGE_TREE are complete checkouts of the two commits (for
example ``git archive`` of each); ``perfbench/run.py --trace 0`` runs inside
each with its own ``src/``.  The change tree's ``BENCHMARK.json`` gives the
run length (``run_seconds``), the workloads (all of them unless
``--workloads`` names some) and the end-to-end metrics with their better
direction and bounds.  Pair i of a workload runs seed i on both sides, the
parent first when i is even and the change first otherwise.  Before the
pairs every workload runs once per side for ``WARMUP_SECONDS``, so both
sides time the same compiled files.

Per workload and metric the output holds both sides' values, their quartiles,
the median move relative to the parent, the change's wins (a tie counts for
neither side), the parent's interquartile range and a bound verdict:
``unresolved`` when the parent's IQR is wider than the bound relative to its
median (unless every change run beats every parent run), otherwise
``within`` or ``outside`` by the median move.  A claim is met when the change
wins at least nine tenths of at least ten pairs, its median is better than
the parent's by more than the parent's IQR, and in no pair does it fail more
operations than the parent.  With ``--traced-seed`` each side also runs the
claimed workload once with ``--trace 1``, and its per-layer metrics are
stored.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
WARMUP_SECONDS = 2.0


def quartiles(values) -> list[float]:
    """[q1, median, q3], interpolated between order statistics."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def _wins(parent, change, better: str) -> int:
    return sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))


def _spread(parent, change, better: str) -> dict:
    """Medians, the change's wins, the median gap in the better direction and the parent's IQR."""
    pq, cq = quartiles(parent), quartiles(change)
    wins = _wins(parent, change, better)
    return {
        "parent_median": pq[1],
        "change_median": cq[1],
        "change_wins": f"{wins}/{len(parent)}",
        "parent_iqr": pq[2] - pq[0],
        "median_gap": pq[1] - cq[1] if better == "lower" else cq[1] - pq[1],
    }


def claim_verdict(parent, change, better: str, parent_failed, change_failed) -> dict:
    """Whether the change's gain on one metric resolves from its pairs.

    ``parent_failed`` and ``change_failed`` are the failed operations of each
    pair; a change that fails more than the parent in any pair meets no claim.
    """
    if not len(parent) == len(change) == len(parent_failed) == len(change_failed):
        raise ValueError("one value and one failure count per pair and side")
    s = _spread(parent, change, better)
    n = len(parent)
    wins = _wins(parent, change, better)
    fails_no_more = all(c <= p for p, c in zip(parent_failed, change_failed))
    return {
        "met": n >= MIN_PAIRS and wins >= WIN_SHARE * n and s["median_gap"] > s["parent_iqr"] and fails_no_more,
        **s,
        "change_fails_no_more": fails_no_more,
    }


def bound_verdict(parent, change, better: str, bound: float) -> str:
    """``within``, ``outside`` or ``unresolved`` for one metric's bound.

    A parent whose IQR is wider than ``bound`` relative to its median cannot
    show a move of that size, so the verdict is ``unresolved`` unless every
    change run beats every parent run.  Otherwise the relative median move in
    the worse direction decides.
    """
    pq, cq = quartiles(parent), quartiles(change)
    pm = pq[1]
    iqr = pq[2] - pq[0]
    if iqr > bound * abs(pm):
        clear = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
        if not clear:
            return "unresolved"
    rel = (cq[1] - pm) / pm if pm else 0.0
    return "within" if (rel if better == "lower" else -rel) <= bound else "outside"


def summarise(parent, change, better: str, bound: float) -> dict:
    """One metric of one workload: values, quartiles, wins and the bound verdict."""
    s = _spread(parent, change, better)
    pm = s["parent_median"]
    return {
        "parent": list(parent),
        "change": list(change),
        "parent_q1_median_q3": quartiles(parent),
        "change_q1_median_q3": quartiles(change),
        "median_change_rel": (s["change_median"] - pm) / pm if pm else 0.0,
        "change_wins": s["change_wins"],
        "bound": bound,
        "bound_verdict": bound_verdict(parent, change, better, bound),
        "parent_iqr": s["parent_iqr"],
        "median_gap": s["median_gap"],
    }


def _seeds(items) -> list[int]:
    out = []
    for item in items:
        lo, _, hi = item.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _command(workload: str, seed, seconds, trace: int) -> list[str]:
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The JSON result ``perfbench/run.py`` prints last, run inside ``tree``."""
    proc = subprocess.run(_command(workload, seed, seconds, trace), cwd=tree, capture_output=True,
                          text=True, timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def _hardware(tree: str, workload: str, seed: int) -> str:
    path = os.path.join(tree, ".perfbench_out", f"result-{workload}-seed{seed}-trace0.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return " | ".join(json.load(fh)["environment"][:3])
    except (OSError, KeyError, ValueError):
        return ""


def _failure_note(workload: str, runs: dict) -> str:
    parent = sum(r["parent_failed"] for r in runs.values())
    change = sum(r["change_failed"] for r in runs.values())
    more = sum(r["change_failed"] > r["parent_failed"] for r in runs.values())
    attempted = sum(r["attempted"] for r in runs.values())
    incorrect = sum(not (r["parent_correct"] and r["change_correct"]) for r in runs.values())
    return (f"{workload}: failed operations parent {parent}, change {change} of {attempted} attempted by the change; "
            f"the change failed more than the parent in {more} of {len(runs)} pairs"
            + (f"; {incorrect} incorrect pair(s)" if incorrect else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", help="a subset of BENCHMARK.json's workloads (default: all)")
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges such as 601-610")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--traced-seed", type=int, help="seed of one traced run per side of the claimed workload")
    parser.add_argument("--parent-commit", default="")
    parser.add_argument("--change-note", default="", help="one line on what the change does")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seeds = _seeds(args.seeds)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    unknown = sorted(set(args.workloads or ()) - set(names))
    if unknown:
        parser.error(f"not in BENCHMARK.json: {', '.join(unknown)}")
    selected = args.workloads or names
    sides = {"parent": args.parent, "change": args.change}
    for workload in selected:
        for tree in sides.values():
            run_once(tree, workload, 0, WARMUP_SECONDS)

    workloads = {}
    for workload in selected:
        runs, values = {}, {side: {name: [] for name in spec} for side in sides}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {side: run_once(sides[side], workload, seed, seconds) for side in order}
            runs[str(seed)] = {"order": f"{order[0]} first",
                               "parent_correct": got["parent"]["correct"],
                               "change_correct": got["change"]["correct"],
                               "attempted": got["change"]["attempted"],
                               "parent_failed": got["parent"]["failed"],
                               "change_failed": got["change"]["failed"]}
            for side in sides:
                for name in spec:
                    values[side][name].append(got[side]["metrics"][name])
            print(f"{workload} seed {seed}: parent op_s.p50 {got['parent']['metrics']['op_s.p50']:.4f}"
                  f" change {got['change']['metrics']['op_s.p50']:.4f}", file=sys.stderr, flush=True)
        workloads[workload] = {"runs": runs, "metrics": {
            name: summarise(values["parent"][name], values["change"][name], m["better"], m["bound"])
            for name, m in spec.items()}}

    out = {
        "change": args.change_note,
        "parent_commit": args.parent_commit,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "hardware": _hardware(args.change, selected[-1], seeds[-1]),
        "seeds": seeds,
        "pairs": "one parent and one change run per (workload, seed), parent first on even pair index; "
                 f"each side ran every workload once for {WARMUP_SECONDS:g} s before the pairs",
    }
    notes = []
    if args.claim:
        workload, metric = args.claim.split(":")
        m, runs = workloads[workload]["metrics"][metric], workloads[workload]["runs"].values()
        verdict = claim_verdict(m["parent"], m["change"], spec[metric]["better"],
                                [r["parent_failed"] for r in runs], [r["change_failed"] for r in runs])
        out["claim"] = {"workload": workload, "metric": metric, "direction": spec[metric]["better"], **verdict}
        notes.append(f"claim {'met' if verdict['met'] else 'not met'}: {workload} {metric} "
                     f"{verdict['parent_median']:.4g} -> {verdict['change_median']:.4g} in the median, "
                     f"the change wins {verdict['change_wins']}, median gap {verdict['median_gap']:.4g} "
                     f"against a parent IQR of {verdict['parent_iqr']:.4g}"
                     + ("" if verdict["change_fails_no_more"] else "; the change failed more operations in some pair"))
    out["workloads"] = workloads
    if args.claim and args.traced_seed is not None:
        workload = args.claim.split(":")[0]
        traced = {side: run_once(tree, workload, args.traced_seed, seconds, 1) for side, tree in sides.items()}
        out["traced_per_op"] = {
            "command": " ".join(["python3", *_command(workload, args.traced_seed, seconds, 1)[1:]]),
            "values": {workload: {side: {"correct": r["correct"], **r["metrics"]} for side, r in traced.items()}}}
    for workload, w in workloads.items():
        by_verdict = {v: [name for name, m in w["metrics"].items() if m["bound_verdict"] == v]
                      for v in ("outside", "unresolved")}
        p50 = w["metrics"]["op_s.p50"]
        verdicts = "; ".join(f"{v}: {', '.join(bad)}" for v, bad in by_verdict.items() if bad)
        notes.append(f"{workload}: op_s.p50 median {p50['median_change_rel']:+.1%} ({p50['change_wins']} wins); "
                     + (verdicts or "every end-to-end metric within its bound"))
        notes.append(_failure_note(workload, w["runs"]))
    out["notes"] = notes
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for note in notes:
        print(note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
