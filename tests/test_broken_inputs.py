"""Failure branches of the construction and K-unitarity guards, pinned.

Threshold guards and sign measurements decide ``|A| <= tol``; on a broken
input they raise with a message that prints the exact operator norm.  This
module pins what a set of broken and borderline inputs gives, the exception
type and message or a digest of the returned value, and the report of a run
whose (1,3) Dirac matrix is perturbed by 1e-6, in
``tests/data/broken_inputs.json``; the current code must reproduce it
exactly.  Several inputs sit between tol/2 and 2 tol sqrt(n) in Frobenius
norm, where only the SVD decides.

Rewrite the fixture only with a change meant to alter these outcomes:

    PYTHONPATH=src python tests/test_broken_inputs.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from functools import partial

import numpy as np
import pytest

from kreintwist import clifford as cl
from kreintwist import suites as su
from kreintwist.clifford import (
    Signature,
    build_gammas,
    build_structural,
    canonical_dirac_pair,
    measure_sign,
    sign_table,
)
from kreintwist.krein import KreinSpace, canonical_twisted_triple, gauge_transform
from kreintwist.linalg import max_norm, op_norms, sign_of_pair
from kreintwist.morphism import MorphismPair, apply_k_morphism, fluctuation_correspondence_gaps
from kreintwist.product import assemble_product, build_finite_triple_ko6, product_fluctuation_gaps
from kreintwist.report import SuiteConfig

from conftest import SIGMA1, SIGMA3

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "broken_inputs.json")


def _digest(value) -> str:
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_digest(v) for v in value) + ")"
    if isinstance(value, np.ndarray):
        return f"array{value.shape}:{hashlib.sha256(value.tobytes()).hexdigest()[:16]}"
    if isinstance(value, (int, float)):
        return repr(value)
    return type(value).__name__


def _outcome(fn) -> str:
    try:
        return "returned " + _digest(fn())
    except Exception as exc:  # the pinned outcome is the exception itself
        return f"raised {type(exc).__name__}: {exc}"


def _hermitian(seed: int, n: int) -> np.ndarray:
    h = np.random.default_rng(seed).normal(size=(2, n, n))
    h = h[0] + 1j * h[1]
    return (h + h.conj().T) / np.linalg.norm(h + h.conj().T, 2)


_canonical_dirac = cl.canonical_dirac_pair


def _perturbed_dirac(rep, K):
    d, dk = _canonical_dirac(rep, K)
    if (rep.sig.p, rep.sig.q) == (1, 3):
        h = np.random.default_rng(0).normal(size=(2, *d.shape))
        h = h[0] + 1j * h[1]
        d = d + 1e-6 * (h + h.conj().T)
    return d, dk


def perturbed_dirac_records() -> list:
    """(check id, passed, residual) of every record of a krein, morphism and
    product run on (1,3) whose twisted Dirac matrix is perturbed by 1e-6."""
    cl.canonical_dirac_pair = _perturbed_dirac
    try:
        report = su.run(SuiteConfig(suites=("krein", "morphism", "product"), signatures=((1, 3),), seed=0))
    finally:
        cl.canonical_dirac_pair = _canonical_dirac
    return [[r.check_id, r.passed, repr(r.residual)] for r in report.records]


def _fluctuation_residuals(pair, u_k) -> np.ndarray:
    """The larger norm of the two fluctuation-correspondence gaps of each u_K of a stack."""
    left, right = fluctuation_correspondence_gaps(pair, u_k)
    return np.maximum(op_norms(left), op_norms(right))


def guard_outcomes() -> dict:
    """Outcome of each broken or borderline input, by name."""
    rep = build_gammas(Signature(1, 3))
    ops = build_structural(rep)
    d, _ = canonical_dirac_pair(rep, ops.K)
    t = canonical_twisted_triple(rep, ops, d)
    pair = MorphismPair(t, apply_k_morphism(t))
    finite = build_finite_triple_ko6(1.0 + 2.0j)
    product = assemble_product(t, finite)
    eye, eye_f = np.eye(4, dtype=np.complex128), np.eye(finite.dimF, dtype=np.complex128)
    h = _hermitian(1, 4)
    # (1 + delta) 1 has K-unitarity residual about 2 delta against the tolerance 1e-9
    near, just_out, far = (1 + 4e-10) * eye, (1 + 6e-10) * eye, 2.0 * eye
    nan_entry, inf_entry = eye.copy(), eye.copy()
    nan_entry[0, 1], inf_entry[0, 1] = np.nan, np.inf
    cases = {
        "sign_of_pair: no sign": lambda: sign_of_pair(SIGMA1, SIGMA1 + SIGMA3),
        "sign_of_pair: gap 3e-12": lambda: sign_of_pair(SIGMA1, SIGMA1 + 3e-12 * h[:2, :2]),
        "sign_of_pair: gap 6e-13": lambda: sign_of_pair(SIGMA1, SIGMA1 + 6e-13 * h[:2, :2]),
        "sign_of_pair: anti gap 9e-13": lambda: sign_of_pair(SIGMA1, -SIGMA1 + 9e-13 * h[:2, :2]),
        "sign_of_pair: nan entry": lambda: sign_of_pair(nan_entry, eye),
        "sign_of_pair: inf entry": lambda: sign_of_pair(inf_entry, eye),
        "measure_sign: gamma_0, gamma_0 + gamma_1": lambda: measure_sign(rep.gammas[0], rep.gammas[0] + rep.gammas[1]),
        "gauge_transform: 2": lambda: gauge_transform(t.D, far, t.J, t.space),
        "gauge_transform: 1 + 6e-10": lambda: gauge_transform(t.D, just_out, t.J, t.space),
        "gauge_transform: 1 + 4e-10": lambda: gauge_transform(t.D, near, t.J, t.space),
        "fluctuation: [1, 2, 1 + 6e-10]": lambda: _fluctuation_residuals(pair, np.array([eye, far, just_out])),
        "fluctuation: [1, 1 + 6e-10]": lambda: _fluctuation_residuals(pair, np.array([eye, just_out])),
        "fluctuation: [1 + 4e-10, 1]": lambda: _fluctuation_residuals(pair, np.array([near, eye])),
        "product_fluctuation: u_k = 2": lambda: max_norm(product_fluctuation_gaps(product, far, eye_f)),
        "product_fluctuation: u_k = 1 + 6e-10": lambda: max_norm(product_fluctuation_gaps(product, just_out, eye_f)),
        "product_fluctuation: u = 2": lambda: max_norm(product_fluctuation_gaps(product, eye, 2.0 * eye_f)),
        "product_fluctuation: u = 1 + 6e-10": lambda: max_norm(product_fluctuation_gaps(product, eye, (1 + 6e-10) * eye_f)),
        "product_fluctuation: u = 1 + 4e-10": lambda: max_norm(product_fluctuation_gaps(product, eye, (1 + 4e-10) * eye_f)),
        "assemble_product: D = K": lambda: assemble_product(dataclasses.replace(t, D=ops.K), finite),
        "assemble_product: canonical": lambda: assemble_product(t, finite).sign_row,
        "KreinSpace: K + 1e-12 h": lambda: KreinSpace(4, ops.K + 1e-12 * h),
        "KreinSpace: K + 1e-13 h": lambda: KreinSpace(4, ops.K + 1e-13 * h).K,
        "canonical_dirac_pair: K = i": lambda: canonical_dirac_pair(rep, 1j * eye),
        "canonical_dirac_pair: K + 1e-11 i h": lambda: canonical_dirac_pair(rep, ops.K + 1e-11j * h),
        "canonical_dirac_pair: K + 2e-11 i h": lambda: canonical_dirac_pair(rep, ops.K + 2e-11j * h),
        "sign_table: d + 1e-10 i h": lambda: sign_table(rep, ops, d + 1e-10j * h),
        "sign_table: d + 1e-7 h": lambda: sign_table(rep, ops, d + 1e-7 * h),
        "TwistedTripleData: D + 1e-12 i h": lambda: dataclasses.replace(t, D=d + 1e-12j * h).D,
        "PseudoTripleData: Dk + 1e-11 i h": lambda: dataclasses.replace(pair.pseudo, Dk=pair.pseudo.Dk + 1e-11j * h).Dk,
        "MorphismPair: Dk + 1e-13 h": lambda: MorphismPair(t, dataclasses.replace(pair.pseudo, Dk=pair.pseudo.Dk + 1e-13 * h)),
    }
    return {name: _outcome(fn) for name, fn in cases.items()}


def current() -> dict:
    return {"perturbed_dirac_13": perturbed_dirac_records(), "guards": guard_outcomes()}


def test_perturbed_dirac_report_is_pinned():
    want = json.load(open(FIXTURE, encoding="utf-8"))["perturbed_dirac_13"]
    got = perturbed_dirac_records()
    assert (len(got), sum(not passed for _, passed, _ in got)) == (35, 27)
    assert got == want


def test_guard_outcomes_are_pinned():
    want = json.load(open(FIXTURE, encoding="utf-8"))["guards"]
    got = guard_outcomes()
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


# Scaling gamma_0 of (1,3) breaks the rows that measure the gammas, at the
# scale of the edit; K, Gamma and Chat are built from the signature alone, so
# the twist rows stay exact (rho is an involution, and K c(v) K = c(rv) holds
# for a scaled gamma too).
@pytest.mark.parametrize("factor, failing", [
    (1 + 1e-9, {"anticommutator_table", "gamma_unitarity", "trace_metric"}),
    (1 + 7e-13, {"anticommutator_table", "gamma_unitarity", "trace_metric"}),
    (1 + 4e-13, {"anticommutator_table", "trace_metric"}),
], ids=["1e-9", "7e-13", "4e-13"])
def test_a_scaled_gamma_fails_the_rows_that_measure_the_gammas(factor, failing):
    cfg = SuiteConfig()
    ctx = su._Contexts(cfg)[(1, 3)]
    ctx.rep = dataclasses.replace(ctx.rep, gammas=(factor * ctx.rep.gammas[0], *ctx.rep.gammas[1:]))
    r = su._Runner(cfg, "clifford")
    su._add_rows(r, su.CLIFFORD, ctx, "", partial(ctx.rng, 0))
    assert {rec.check_id for rec in r.records if not rec.passed} == {f"clifford.{row}" for row in failing}


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(current(), fh, indent=1)
        fh.write("\n")
