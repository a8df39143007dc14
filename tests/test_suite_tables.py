"""The suite tables against pinned records.

``tests/data/parent_records_all.json`` holds every record of all six suites
at four seeds (``scripts/pin_parent_records.py``).  The records outside the
spin-dependent checks were pinned from the hand-written suites, before they
became tables; the tables must reproduce them exactly, and a seed that
aborted the run must abort it with the same exception type.
``tests/data/parent_records_high_dim.json`` pins the clifford, krein,
morphism and product records on five signatures of dimension 8 and 10, where
the residual kernels multiply and norm 16x16 to 128x128 matrices.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from kreintwist import clifford as cl
from kreintwist import krein as kr
from kreintwist import linalg
from kreintwist import product as pr
from kreintwist import suites as su
from kreintwist.clifford import Signature
from kreintwist.report import SuiteConfig
from kreintwist.suites import run

DATA = os.path.join(os.path.dirname(__file__), "data")

with open(os.path.join(DATA, "parent_records_all.json"), encoding="utf-8") as _fh:
    _DOC = json.load(_fh)
SUITES = tuple(_DOC["suites"])
PINNED = {entry["seed"]: entry for entry in _DOC["seeds"]}

with open(os.path.join(DATA, "parent_records_high_dim.json"), encoding="utf-8") as _fh:
    _HIGH_DIM = json.load(_fh)


def _pinned_form(rec) -> dict:
    return {
        "check_id": rec.check_id,
        "anchor": rec.anchor,
        "tolerance": rec.tolerance,
        "passed": rec.passed,
        "residual": rec.residual if math.isfinite(rec.residual) else repr(rec.residual),
    }


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_records_equal_the_pinned_run(seed):
    pinned = PINNED[seed]
    cfg = SuiteConfig(suites=SUITES, seed=seed)
    if "raised" in pinned:
        with pytest.raises(Exception) as exc:
            run(cfg)
        assert type(exc.value).__name__ == pinned["raised"]
        return
    got = [_pinned_form(rec) for rec in run(cfg).records]
    assert [g["check_id"] for g in got] == [p["check_id"] for p in pinned["records"]]
    for g, p in zip(got, pinned["records"]):
        assert g == p, g["check_id"]


@pytest.mark.parametrize("entry", _HIGH_DIM["seeds"], ids=lambda e: f"seed{e['seed']}")
def test_high_dimensional_records_equal_the_pinned_run(entry):
    sigs = tuple(tuple(sig) for sig in _HIGH_DIM["signatures"])
    cfg = SuiteConfig(suites=tuple(_HIGH_DIM["suites"]), signatures=sigs, seed=entry["seed"])
    got = [_pinned_form(rec) for rec in run(cfg).records]
    assert len(entry["records"]) == 188
    assert [g["check_id"] for g in got] == [p["check_id"] for p in entry["records"]]
    for g, p in zip(got, entry["records"]):
        assert g == p, g["check_id"]


def test_list_form_signatures_run():
    def records(signatures):
        cfg = SuiteConfig(suites=("clifford", "krein", "morphism"), signatures=signatures, seed=0)
        return [_pinned_form(rec) for rec in run(cfg).records]

    listed = records([[1, 3], [2, 0]])
    assert listed == records(((1, 3), (2, 0)))
    assert listed[0]["check_id"] == "clifford.p1q3.anticommutator_table"


def test_a_nan_residual_fails_its_row(monkeypatch):
    def one_nan(*stacks):  # as if the last matrix of a stack normed NaN
        return math.nan

    ctx = su.SignatureContext(Signature(1, 3), 0, 0)
    ctx.krein_spins, ctx.ops  # built before the patch: their guards norm too
    r = su._Runner(SuiteConfig(seed=0), "krein")
    row = next(row for row in su.KREIN if row.id == "k_fixed_under_spin")
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "max_norm", one_nan)
        su._add_rows(r, [row], ctx)
    (rec,) = r.records
    assert math.isnan(rec.residual) and not rec.passed

    # a metric reading that is NaN at the second of a family's five points
    # makes that family's reflection residual NaN, which fails its row
    cfg = SuiteConfig(suites=("geometry",), seed=0)
    second = {name: su._family_points(su.geo.metric_family(name), 5, su._stream(cfg.seed, 3, fi),
                                      cfg.fd_step)[1]
              for fi, name in enumerate(su.CHECKED_FAMILIES)}
    g_at = su.geo.MetricField.g_at

    def nan_at_second_point(metric, x):  # the NaN goes to the second point's row of each stack
        g = g_at(metric, x)
        if metric.name not in second:
            return g
        return np.where(np.all(np.asarray(x) == second[metric.name], axis=-1)[..., None, None], math.nan, g)

    monkeypatch.setattr(su.geo.MetricField, "g_at", nan_at_second_point)
    recs = [rec for rec in run(cfg).records if rec.check_id.endswith(".reflection_isometry")]
    assert len(recs) == 4
    assert all(math.isnan(rec.residual) and not rec.passed for rec in recs)

    # a NaN from the second of three gaps is the largest gap of a gamma table
    rep = cl.build_gammas(Signature(1, 3))
    norms = iter([0.0, math.nan, 0.0])
    monkeypatch.setattr(cl, "table_norm", lambda *args: next(norms))
    gap = lambda g, s: g
    assert math.isnan(rep.gamma_table_norm(gap, gap, gap))


def test_a_bad_family_point_fails_exactly_the_rows_that_read_its_jet(monkeypatch):
    # one family's jets are built once and shared: a point that fails
    # validation fails every row that reads the jets or the connection, and
    # only those; rows that read the metric directly keep their values
    cfg = SuiteConfig(suites=("geometry",), seed=0)
    family = "lorentz2d"
    fi = su.CHECKED_FAMILIES.index(family)
    third = su._family_points(su.geo.metric_family(family), 5, su._stream(cfg.seed, 3, fi), cfg.fd_step)[2]
    validate = su.geo.MetricField.validate

    def raise_at_third(metric, x, readings):
        if metric.name == family and np.all(x == third, axis=-1).any():
            raise su.geo.SingularMetricError("injected at the third sample point")
        return validate(metric, x, readings)

    want = {rec.check_id: rec.residual for rec in run(cfg).records}
    monkeypatch.setattr(su.geo.MetricField, "validate", raise_at_third)
    got = {rec.check_id: rec.residual for rec in run(cfg).records}
    changed = {check_id for check_id in want if got[check_id] != want[check_id]}
    rows = ("christoffel_symmetry", "relat_christos", "metric_compatibility",
            "rewrit_tgamma", "frame_connection_relation")
    assert changed == {f"geometry.{family}.{row}" for row in rows}
    assert all(got[check_id] == math.inf for check_id in changed)


def test_a_bad_decomposition_point_fails_that_row_alone(monkeypatch):
    # a Dirac decomposition row builds one stacked jet over its own points: a
    # point that fails validation fails that row, and no other record moves
    cfg = SuiteConfig(suites=("geometry",), seed=0)
    family, row = "lorentz2d", "geometry.lorentz2d.dirac_decomposition"
    metric = su.geo.metric_family(family)
    rng = su._stream(cfg.seed, 3, 5)  # the row's stream: its spinor, then its three points
    su.geo.trig_spinor(cl.build_gammas(Signature(1, 1)).dim, metric.dim, rng)
    second = su._family_points(metric, 3, rng, cfg.fd_step)[1]
    validate = su.geo.MetricField.validate

    def raise_at_second(m, x, readings):
        if m.name == family and np.all(x == second, axis=-1).any():
            raise su.geo.SingularMetricError("injected at the second decomposition point")
        return validate(m, x, readings)

    want = {rec.check_id: rec.residual for rec in run(cfg).records}
    monkeypatch.setattr(su.geo.MetricField, "validate", raise_at_second)
    got = {rec.check_id: rec.residual for rec in run(cfg).records}
    assert {check_id for check_id in want if got[check_id] != want[check_id]} == {row}
    assert got[row] == math.inf


def test_inf_entries_in_a_kernel_fail_its_row_silently(monkeypatch, capfd):
    # kernels trust their operands: infs that arise inside one reach op_norms,
    # which norms them NaN without the SVD; LAPACK, given two infs in a matrix,
    # prints "On entry to DLASCL ..." to a standard stream of the process
    fluctuate = kr.fluctuate

    def with_inf(*args):
        out = fluctuate(*args).copy()
        out[0, 0] = out[1, 1] = np.inf
        return out

    monkeypatch.setattr(kr, "fluctuate", with_inf)
    report = run(SuiteConfig(suites=("krein",), signatures=((1, 3),), seed=0))
    failed = [rec for rec in report.records if not rec.passed]
    assert [rec.check_id for rec in failed] == ["krein.p1q3.gauge_equals_form"]
    assert math.isnan(failed[0].residual)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("seed", [0, 4, 71])
def test_every_generator_is_keyed_by_the_run_seed(seed, monkeypatch):
    # one keying rule: every generator of a run is built from an entropy
    # sequence that starts with the run's seed, so runs of two seeds share none
    keys = []
    default_rng = np.random.default_rng

    def recorded(*args, **kwargs):
        keys.append(args[0] if args else kwargs.get("seed"))
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", recorded)
    run(SuiteConfig(seed=seed))
    assert keys
    assert all(isinstance(key, (list, tuple)) and key[0] == seed for key in keys), keys


def _reads_13(check_id: str) -> bool:
    """Whether a default-config record reads an operator of signature (1,3)."""
    return ("p1q3." in check_id
            or (check_id.startswith("product.") and check_id != "product.finite_ko6_invariants")
            or check_id in ("geometry.flat4d.plane_wave_dirac", "geometry.lorentz4d.dirac_decomposition"))


@pytest.mark.parametrize("builder", ["build_gammas", "build_structural"])
def test_a_construction_error_on_1_3_gives_failed_records(builder, monkeypatch):
    ids = [rec.check_id for rec in run(SuiteConfig(seed=0)).records]
    original = getattr(cl, builder)

    def broken(arg):  # a Signature for build_gammas, a CliffordRep for build_structural
        sig = getattr(arg, "sig", arg)
        if (sig.p, sig.q) == (1, 3):
            raise cl.ConstructionError(f"{builder} fails on (1,3)")
        return original(arg)

    monkeypatch.setattr(cl, builder, broken)
    records = run(SuiteConfig(seed=0)).records
    assert [rec.check_id for rec in records] == ids
    failed = [rec for rec in records if not rec.passed]
    assert failed and all(math.isinf(rec.residual) for rec in failed)
    assert all(_reads_13(rec.check_id) for rec in failed)


def _emergence_table():
    rep = cl.build_gammas(Signature(4, 0))
    return pr.signature_emergence(rep, cl.build_structural(rep))


def _edited(indices, **changes):
    rows = _emergence_table()
    i = next(i for i, row in enumerate(rows) if row.indices == indices)
    if changes:
        rows[i] = dataclasses.replace(rows[i], **changes)
    else:
        del rows[i]
    return rows


# each edit of the (4,0) candidate table and the records it fails, with the
# values the summary-dict rows of the earlier code gave on the same table
@pytest.mark.parametrize("rows, failing", [
    (_edited((0, 1)), {"table_complete": 1.0}),
    (_edited((3,)), {"table_complete": 1.0, "lorentz_class_eps_minus": 1.0, "ko6_selects_lorentz": 1.0}),
    (_edited((2,), diag_scalar_residual=1e-6),
     {"candidate.g1_2.eps_m.sig_mmpm": 1e-6, "diag_metric_scalar": 1e-6}),
    (_edited((1,), plus_count=3),
     {"candidate.g1_1.eps_m.sig_mpmm": 1.0, "lorentz_class_eps_minus": 1.0, "ko6_selects_lorentz": 1.0}),
    (_edited((0, 1, 2), plus_count=1),
     {"candidate.g3_012.eps_p.sig_pppm": 1.0, "lorentz_class_eps_plus": 1.0, "ko6_selects_lorentz": 1.0}),
    (_edited((0, 1, 3), eps0_emergent=1, eps2_emergent=-1), {"ko6_selects_lorentz": 1.0}),
    (_edited((), eps=-1), {"riemannian_row_listed": 1.0}),
    (_edited((), eps_prime=-1),
     {"candidate.g0_id.eps_p.sig_pppp": 1.0, "lorentz_class_eps_plus": 1.0, "ko6_selects_lorentz": 1.0}),
    (_edited((0,), signature=(-1, 1, -1, -1)), {"gamma_time_candidate": 1.0}),
    (_edited((0,), eps=1),
     {"candidate.g1_0.eps_p.sig_pmmm": 1.0, "lorentz_class_eps_minus": 1.0, "lorentz_class_eps_plus": 1.0,
      "ko6_selects_lorentz": 1.0, "gamma_time_candidate": 1.0}),
], ids=["drop grade 2", "drop grade 1", "diag residual", "plus count eps-", "plus count eps+",
        "grade 3 KO-6 pair", "grade 0 eps-", "grade 0 odd", "time row signature", "time row eps+"])
def test_every_emergence_row_fails_on_an_edited_table(rows, failing):
    values = {su._candidate_label(row): su._candidate(row) for row in rows}
    values.update({check.id: check.fn(rows) for check in su.EMERGENCE})
    assert len(values) == len(rows) + len(su.EMERGENCE)
    assert {k: v for k, v in values.items() if v != 0.0} == failing
