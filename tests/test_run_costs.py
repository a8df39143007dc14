"""Run-level bounds on the batched kernels: stack sizes and SVD calls.

``linalg.STACK_ENTRIES`` caps the entries of every operand stack a sampled
check or the spin sampler builds; wrapping ``op_norms`` and
``represent_stack`` wherever the package binds them shows every stack a run
norms or represents.  The zero fast path of ``op_norms`` keeps all-zero
stacks out of the SVD, and ``norm_within`` decides threshold-only norms
without one; the call count of a default run shows both.
"""

import sys

import numpy as np

from kreintwist import clifford, linalg
from kreintwist.linalg import STACK_ENTRIES
from kreintwist.report import SuiteConfig
from kreintwist.suites import run


def _wrap_everywhere(monkeypatch, original, record):
    def wrapped(*args, **kwargs):
        out = original(*args, **kwargs)
        record(args, out)
        return out

    for name, mod in list(sys.modules.items()):
        if name == "kreintwist" or name.startswith("kreintwist."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapped)


def test_high_dimensional_runs_stay_within_the_entry_cap(monkeypatch):
    normed, represented = [], []
    _wrap_everywhere(monkeypatch, linalg.op_norms, lambda args, out: normed.append(np.asarray(args[0]).size))
    _wrap_everywhere(monkeypatch, clifford.represent_stack, lambda args, out: represented.append(out.size))
    cfg = SuiteConfig(suites=("clifford", "krein", "morphism"), signatures=((5, 5), (10, 0), (0, 10)), seed=0)
    assert run(cfg).all_passed
    assert max(normed) <= STACK_ENTRIES
    assert max(represented) == STACK_ENTRIES  # dimension 10 fills whole chunks


def test_default_run_skips_the_svd_of_zero_stacks(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert run(SuiteConfig(seed=1234)).all_passed
    # 312 when written; 840 while threshold-only norms took an SVD, and 2,239
    # when every zero stack went through it
    assert len(calls) <= 343
