"""The four benchmark workloads and how one operation of each is run.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  In ``cli_default`` an operation is one
``verify`` process; in the others it is one ``kreintwist.run`` call in the
benchmark's own process.  Operations are issued in rounds, each round
covering the workload's configurations once in an order shuffled from the
workload seed, so every run measures the same mix of signatures.

A run draws a fixed schedule of rounds from its seed and cycles through it
for as long as it measures, so the inputs it gates, and hence which of them
fail, depend on the seed alone and not on how fast the machine is.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import gate

SWEEP_SUITES = ("clifford", "krein", "morphism")
GEOMETRY_SUITES = ("geometry",)
WARMUP_SEED = 1234  # the verifier's default seed

CLI_CODE = "import sys; from kreintwist.cli import main; sys.exit(main(sys.argv[1:]))"
TRACED_CLI_CODE = "import sys, tracer; sys.exit(tracer.cli_child(sys.argv[1], sys.argv[2:]))"
CLI_ARGS = ("--suite", "all", "--format", "json")


def _signatures(dims) -> tuple:
    return tuple((p, n - p) for n in dims for p in range(n, -1, -1))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    suites: tuple
    signatures: tuple  # one op per signature and round; () runs the default config
    warmup_signature: tuple
    # fixed so that a run of the verifier as first benchmarked has >= 10
    # samples beyond it (cli_default cannot: about 15 ops per run) and the
    # rank stays clear of the failed ops, which rank slowest
    tail_pct: int
    # rounds in a run's schedule: roughly half to three quarters of a run's
    # ops at the speed the verifier was first benchmarked at
    schedule_rounds: int

    @property
    def in_process(self) -> bool:
        return self.name != "cli_default"

    def round(self, rng: random.Random) -> list:
        """One round of (signature, seed) operations."""
        if not self.signatures:
            return [(None, rng.randrange(2**31))]
        sigs = list(self.signatures)
        rng.shuffle(sigs)
        return [(sig, rng.randrange(2**31)) for sig in sigs]

    def schedule(self, rng: random.Random) -> list:
        """A run's rounds of (slot, signature, seed), slots numbering its inputs."""
        rounds = []
        for _ in range(self.schedule_rounds):
            start = sum(map(len, rounds))
            rounds.append([(start + i, sig, seed) for i, (sig, seed) in enumerate(self.round(rng))])
        return rounds

    def config(self, kreintwist, signature, seed):
        if signature is None:
            return kreintwist.SuiteConfig(suites=self.suites, seed=seed)
        return kreintwist.SuiteConfig(suites=self.suites, signatures=(signature,), seed=seed)

    def setup_code(self) -> str:
        """Program a fresh interpreter runs: import, then the first op."""
        sigs = "" if self.warmup_signature is None else f", signatures=({self.warmup_signature!r},)"
        return (
            "import sys\n"
            "from kreintwist import SuiteConfig, run\n"
            f"report = run(SuiteConfig(suites={self.suites!r}{sigs}, seed={WARMUP_SEED}))\n"
            "sys.exit(0 if report.all_passed else 1)\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli_default",
            "the command users run: one verify process per op, so start-up, import and emit count",
            ("all",), (), None, 50, 6,
        ),
        Workload(
            "seed_sweep",
            "clifford/krein/morphism over the 15 signatures of dimension 2-6: per-call overhead, sampler aborts",
            SWEEP_SUITES, _signatures((2, 4, 6)), (6, 0), 90, 12,
        ),
        Workload(
            "high_dim",
            "the same suites on the 20 signatures of dimension 8 and 10: FLOP-bound construction and products",
            SWEEP_SUITES, _signatures((8, 10)), (10, 0), 75, 3,
        ),
        Workload(
            "geometry_fd",
            "geometry suite per seed: FD stencils and Christoffel loops, algebra modules idle",
            GEOMETRY_SUITES, (), None, 90, 80,
        ),
    )
}


@dataclass
class OpResult:
    label: str
    seed: int
    wall_s: float
    outcome: gate.Outcome
    rss_kb: int = 0
    scaled_s: float = 0.0  # wall_s at the reference machine speed (speed.py)
    slot: int = -1  # the input's place in the run's schedule


def child_env(root: str, extra_path: str = "") -> dict:
    paths = [os.path.join(root, "src")] + ([extra_path] if extra_path else [])
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths + ([old] if old else [])))


def spawn(argv: list, env: dict, stderr_path: str) -> tuple:
    """Run a child to completion: (wall seconds, exit code, peak RSS in KiB, stderr)."""
    with open(stderr_path, "w+", encoding="utf-8") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return wall, proc.returncode, usage.ru_maxrss, err.read()


class InProcessRunner:
    """Runs ``kreintwist.run`` in this process and gates each report."""

    def __init__(self, workload: Workload, kreintwist, expected: dict):
        self.w = workload
        self.kt = kreintwist
        self.expected = expected

    def run(self, signature, seed: int, recorder=None, op_id: int = 0) -> OpResult:
        cfg = self.w.config(self.kt, signature, seed)
        key = gate.config_key(self.w.suites, signature)
        root = None if recorder is None else recorder.start_op(op_id)
        t0 = perf_counter()
        try:
            report = self.kt.run(cfg)
        except Exception as exc:  # the op boundary: record the failure and go on
            wall = perf_counter() - t0
            outcome = gate.raised(exc)
        else:
            wall = perf_counter() - t0
            outcome = gate.check_payload(json.dumps(report.to_json_dict(), indent=2), self.expected[key])
        finally:
            if root is not None:
                recorder.end(root)
        return OpResult(key, seed, wall, outcome)


class CliRunner:
    """Runs ``verify --suite all --format json --out <tmp>`` as a fresh process."""

    def __init__(self, root: str, tmp_dir: str, expected: dict):
        self.root = root
        self.tmp = tmp_dir
        self.out_path = os.path.join(tmp_dir, "report.json")
        self.expected = expected[gate.config_key(("all",))]
        self.reference = None
        self.n = 0

    def argv(self, traced_spans: str = "") -> list:
        args = list(CLI_ARGS) + ["--out", self.out_path]
        if traced_spans:
            return [sys.executable, "-c", TRACED_CLI_CODE, traced_spans] + args
        return [sys.executable, "-c", CLI_CODE] + args

    def run(self, signature=None, seed: int = 0, recorder=None, op_id: int = 0) -> OpResult:
        self.n += 1
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        spans = os.path.join(self.tmp, f"spans-{self.n}.npz") if recorder is not None else ""
        perfbench = os.path.dirname(os.path.abspath(__file__))
        env = child_env(self.root, perfbench if spans else "")
        root = None if recorder is None else recorder.start_op(op_id)
        wall, code, rss, stderr = spawn(self.argv(spans), env, os.path.join(self.tmp, "stderr.txt"))
        if root is not None:
            recorder.end(root)
            if os.path.exists(spans):
                recorder.absorb(spans, root)
                os.remove(spans)
        if code not in (0, 1) or not os.path.exists(self.out_path):
            return OpResult("all@default", 0, wall, gate.exited(code, stderr), rss)
        with open(self.out_path, "rb") as fh:
            payload = fh.read()
        outcome = gate.check_payload(payload.decode("utf-8"), self.expected)
        all_passed = json.loads(payload)["summary"]["failed"] == 0
        if (code == 0) != all_passed:
            outcome.causes.append({"cause": "exit_code_mismatch", "detail": f"exit {code}"})
        stripped = gate.strip_runtime(payload)
        if self.reference is None:
            self.reference = stripped
        elif stripped != self.reference:
            outcome.causes.append({"cause": "output_not_identical", "detail": "differs from the first op"})
        return OpResult("all@default", 0, wall, outcome, rss)
