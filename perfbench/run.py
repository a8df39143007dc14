"""Benchmark of the kreintwist verifier: end-to-end op time, goodput, pass share.

    python3 perfbench/run.py --workload seed_sweep --seed 0 --seconds 27 --trace 0

Run from the repository root; the package is taken from ``src/``.  Workloads
(``perfbench/workloads.py``): ``cli_default``, ``seed_sweep``, ``high_dim``
and ``geometry_fd``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of import plus the workload's
  first, untimed op (for ``high_dim`` an op on a dimension-10 signature, so a
  first-call BLAS stall lands here and not in ``op_s``);
* ``op_s.p50`` and ``op_s.tail``: median and a fixed per-workload percentile
  of the op times, a failed op ranking as the slowest (the percentile and
  the count beyond it are printed);
* ``records_per_s``: passing records of passing ops over the summed op time;
* ``pass_share``: passing inputs over the inputs of the run's schedule
  (``fail_share`` is 1 minus it, printed here and reported by the traced run);
* ``peak_rss_mb``: peak RSS of this process, or of the largest CLI child.

Times are wall times scaled to a fixed machine speed by a reference kernel
timed around the ops (``speed.py``); the unscaled figures are printed too.

``--trace 1`` spends half the time untraced and half traced (``tracer.py``)
and reports per-layer metrics per op, plus the tracing overhead.

The ops cycle through a schedule of inputs drawn from ``--seed``
(``workloads.py``); inputs the timed loops did not reach are run untimed
afterwards.  Every op goes through the correctness gate (``gate.py``).
``attempted`` and ``failed`` count the schedule's inputs, so they depend on
the seed alone; an input whose verdict differs between two of its runs makes
the result incorrect.  Failures are attributed to the input's seed and
summarised by cause.  The last line of standard output is
the JSON result; details and the span file go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from time import perf_counter

import numpy as np

import gate
import speed
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 5  # fresh interpreters per run; setup_s is their median
CLI_SETUP_RUNS = 3  # a cli_default set-up is a whole CLI op, about 1.7 s

E2E_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "records_per_s": "1/s",
    "pass_share": "share",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def op_percentile(results: list, pct: float, attr: str = "scaled_s") -> tuple:
    """Nearest-rank percentile of op times, and the samples beyond it.

    A failed op missed any latency limit, so it ranks above every passed op.
    Should the rank land on a failed op, the slowest measured op time stands
    in for it.
    """
    ranked = sorted(getattr(r, attr) if r.outcome.passed else math.inf for r in results)
    rank = max(1, math.ceil(pct / 100.0 * len(ranked)))
    value = ranked[rank - 1]
    if math.isinf(value):
        value = max(getattr(r, attr) for r in results)
    return value, len(ranked) - rank


def _cache_sizes() -> str:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                sizes[f"L{level}"] = fh.read().strip()
        except OSError:
            continue
    return ", ".join(f"{k} {sizes[k]}" for k in ("L2", "L3") if k in sizes) or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        name = "unknown"
    threads = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*"))
    for lib in libs:
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = str(fn())
                break
    return f"{name}, {threads} threads"


def environment() -> list:
    return [
        f"nproc {len(os.sched_getaffinity(0))}, Python {platform.python_version()}, numpy {np.__version__}",
        f"BLAS {_blas()}",
        f"CPU {_cpu_model()}; caches {_cache_sizes()}",
        "largest working set: a few 128x128 complex128 matrices (256 KiB each, from the "
        "dimension-10 products), which fit in L2, so no bandwidth metric is reported",
    ]


def measure_setups(workload, runner_cli, n: int) -> tuple:
    """Wall times of ``n`` fresh interpreters doing import plus the first op,
    and the reference-kernel samples taken around them."""
    walls, refs, ok = [], [speed.reference_s()], True
    env = workloads.child_env(ROOT)
    for _ in range(n):
        if workload.in_process:
            argv = [sys.executable, "-c", workload.setup_code()]
        else:
            argv = runner_cli.argv()
        wall, code, _, stderr = workloads.spawn(argv, env, os.path.join(runner_cli.tmp, "setup-stderr.txt"))
        if code != 0:
            ok = False
            print(f"setup child failed (exit {code}): {stderr.strip()[-300:]}")
        walls.append(wall)
        refs.append(speed.reference_s())
    return walls, refs, ok


def measure_imports(runner_cli, n: int) -> list:
    """Time to import kreintwist.cli in a fresh interpreter, measured inside it."""
    code = (
        "import time; t = time.perf_counter(); import kreintwist.cli; "
        "import sys; sys.stderr.write(repr(time.perf_counter() - t))"
    )
    env = workloads.child_env(ROOT)
    out = []
    for _ in range(n):
        _, _, _, stderr = workloads.spawn([sys.executable, "-c", code], env, os.path.join(runner_cli.tmp, "import.txt"))
        out.append(float(stderr.strip()))
    return out


def closed_loop(runner, schedule: list, cursor: int, seconds: float, recorder=None, first_op: int = 0) -> tuple:
    """Whole rounds of the schedule, cycling from round ``cursor``, until the
    budget is nearest to spent.

    Returns the op results, the reference-kernel samples taken among them and
    the round to go on from.
    """
    results = []
    scaler = speed.Scaler()
    start = perf_counter()
    while True:
        t_round = perf_counter()
        for slot, signature, seed in schedule[cursor % len(schedule)]:
            result = runner.run(signature, seed, recorder, first_op + len(results))
            result.slot = slot
            results.append(result)
            scaler.add(result)
        cursor += 1
        now = perf_counter()
        if now - start + (now - t_round) / 2 >= seconds:
            scaler.flush()
            return results, scaler.samples, cursor


def complete(runner, schedule: list, results: list) -> list:
    """Untimed runs of the scheduled inputs the timed loops did not reach."""
    done = {r.slot for r in results}
    extra = []
    for slot, signature, seed in (op for ops in schedule for op in ops):
        if slot not in done:
            result = runner.run(signature, seed)
            result.slot = slot
            extra.append(result)
    return extra


def _verdict(result) -> list:
    return sorted({gate.cause_key(c) for c in result.outcome.causes})


def by_input(results: list) -> tuple:
    """First result of each scheduled input, in slot order, and the results
    whose verdict differs from an earlier run of the same input."""
    first, irreproducible = {}, []
    for r in results:
        if _verdict(first.setdefault(r.slot, r)) != _verdict(r):
            irreproducible.append(r)
    return [first[k] for k in sorted(first)], irreproducible


def records_per_s(results: list, attr: str = "scaled_s") -> float:
    seconds = sum(getattr(r, attr) for r in results)
    return sum(r.outcome.passing_records for r in results if r.outcome.passed) / seconds


def failure_lines(results: list) -> list:
    lines = []
    for r in results:
        if r.outcome.passed:
            continue
        first = r.outcome.causes[0]
        what = first.get("detail") or f"{first['check_id']} residual {first['residual']!r} > tol {first['tolerance']!r}"
        more = f" (+{len(r.outcome.causes) - 1} more)" if len(r.outcome.causes) > 1 else ""
        lines.append(f"failed input: {r.label} seed {r.seed}: {first['cause']}: {what}{more}")
    return lines


def cause_counts(results: list) -> dict:
    counts = Counter()
    for r in results:
        for key in {gate.cause_key(c) for c in r.outcome.causes}:
            counts[key] += 1
    return dict(sorted(counts.items()))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kreintwist", "__init__.py")):
        print(f"error: no kreintwist sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    expected = gate.load_expected_ids()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        return _run(args, w, expected, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, w, expected, tmp) -> int:
    env = environment()
    for line in env:
        print(f"# {line}")
    print(f"# workload {w.name}: {w.why}")
    print(f"# seed {args.seed}, {args.seconds:g} s, trace {args.trace}, closed loop, one client")

    cli = workloads.CliRunner(ROOT, tmp, expected)
    schedule = w.schedule(random.Random(args.seed))
    metrics, units = {}, {}
    correct = True
    if w.in_process:
        import kreintwist

        runner = workloads.InProcessRunner(w, kreintwist, expected)
    else:
        runner = cli

    if args.trace == 0:
        setups, setup_refs, setups_ok = measure_setups(w, cli, SETUP_RUNS if w.in_process else CLI_SETUP_RUNS)
        correct &= setups_ok
        if w.in_process:
            runner.run(w.warmup_signature, workloads.WARMUP_SEED)
        results, loop_refs, _ = closed_loop(runner, schedule, 0, args.seconds)
        inputs, irreproducible = by_input(results + complete(runner, schedule, results))
        refs = setup_refs + loop_refs
        p50, _ = op_percentile(results, 50)
        tail, beyond = op_percentile(results, w.tail_pct)
        if w.in_process:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = max(r.rss_kb for r in results)
        metrics = {
            "setup_s": statistics.median(setups) * speed.NOMINAL_S / statistics.median(refs),
            "op_s.p50": p50,
            "op_s.tail": tail,
            "records_per_s": records_per_s(results),
            "pass_share": sum(r.outcome.passed for r in inputs) / len(inputs),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = E2E_UNITS
        print(f"# setup runs: {', '.join(f'{t:.4f}' for t in setups)} s wall")
        print(
            f"# wall, unscaled: op_s.p50 {op_percentile(results, 50, 'wall_s')[0]!r} s, op_s.tail "
            f"{op_percentile(results, w.tail_pct, 'wall_s')[0]!r} s, records_per_s {records_per_s(results, 'wall_s')!r} 1/s"
        )
        print(
            f"# reference kernel: median {statistics.median(refs) * 1e3:.3f} ms over {len(refs)} samples "
            f"(min {min(refs) * 1e3:.3f}, max {max(refs) * 1e3:.3f}); times are scaled to {speed.NOMINAL_S * 1e3:g} ms"
        )
        short = "" if beyond >= 10 else " (no percentile above the median has ten samples beyond it at this run length)"
        print(f"# op_s.tail is p{w.tail_pct}: {len(results)} samples, {beyond} beyond it{short}")
    else:
        imports = measure_imports(cli, SETUP_RUNS)
        if w.in_process:
            runner.run(w.warmup_signature, workloads.WARMUP_SEED)
        untraced, _, cursor = closed_loop(runner, schedule, 0, args.seconds / 2)
        rec = tracer.Recorder()
        if w.in_process:
            rec.install()
        try:
            traced, _, _ = closed_loop(runner, schedule, cursor, args.seconds / 2, rec, first_op=len(untraced))
        finally:
            rec.uninstall()
        results = untraced + traced
        inputs, irreproducible = by_input(results + complete(runner, schedule, results))
        metrics = tracer.layer_metrics(rec, len(traced))
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["fail_share"] = sum(not r.outcome.passed for r in inputs) / len(inputs)
        metrics["trace.overhead_records_per_s"] = records_per_s(traced) - records_per_s(untraced)
        units = tracer.layer_metric_units()
        spans_path = os.path.join(OUT_DIR, f"spans-{w.name}-seed{args.seed}.npz")
        rec.save(spans_path)
        print(f"# {len(untraced)} untraced and {len(traced)} traced ops; spans in {os.path.relpath(spans_path, ROOT)}")

    failed = sum(not r.outcome.passed for r in inputs)
    incorrect = [r for r in results if r.outcome.incorrect]
    correct &= not incorrect and not irreproducible
    records = sorted({r.outcome.records for r in results if r.outcome.records})
    print(
        f"# {len(results)} timed ops over {len(inputs)} scheduled inputs, {failed} inputs failed "
        f"(fail_share {failed / len(inputs):.4f}); records per completed op: {records}"
    )
    for key, n in cause_counts(inputs).items():
        print(f"# failures by cause: {key}: {n}")
    for line in failure_lines(inputs):
        print(f"# {line}")
    for r in irreproducible:
        print(f"# irreproducible: {r.label} seed {r.seed} gave {_verdict(r)} after an earlier run of it did not")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]!r} {units[name]}")

    detail = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "failures_by_cause": cause_counts(inputs),
        "ops": [
            {"slot": r.slot, "config": r.label, "seed": r.seed, "wall_s": r.wall_s, "scaled_s": r.scaled_s, "passed": r.outcome.passed, "causes": r.outcome.causes}
            for r in results
        ],
    }
    with open(os.path.join(OUT_DIR, f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": len(inputs),
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
