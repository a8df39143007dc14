"""Run-level bounds on the batched kernels: stack sizes and SVD calls.

``linalg.STACK_ENTRIES`` caps the entries of every operand stack a sampled
check or the spin sampler builds; wrapping ``op_norms``, ``max_norm`` and
``represent_stack`` wherever the package binds them shows every stack a run
norms or represents.  The zero fast path of ``op_norms`` keeps all-zero
stacks out of the SVD, and ``norm_within`` decides threshold-only norms
without one; the call count of a default run shows both.  ``max_norm``
takes the SVD only of the matrices of a row's stacks that can hold its
largest norm; the count of matrices the SVD sees shows that.  Operands are
coerced and checked for NaN and inf where they enter the constructors, not in
every kernel; the ``as_cmat`` count of a default run shows that too.  A
geometry sample set builds one stacked metric jet and every row over the set
reads it; the ``geometry._stacked_jet`` builds of a geometry run and the
points they hold show that, and the ``geometry._frames`` count that the
frames of g and of the stencil points are built in one call per sample set.
The gammas are checked exactly on their Pauli strings when they are built,
so only the clifford rows evaluate the gamma and generator-pair tables
(``CliffordRep.gamma_table_norm`` and ``pair_table_norm``), each table row
its own, once per signature.  The
metric and the spinor are read in one call per sample set, each point once,
as the counts of ``MetricField.g_at`` and ``SpinorField`` calls and the
points they hold show, and each side of a Dirac decomposition is assembled
once over its points (``geometry._dirac_sum``).
"""

import sys

import numpy as np

from kreintwist import clifford, geometry, linalg, suites
from kreintwist.linalg import STACK_ENTRIES
from kreintwist.report import SuiteConfig
from kreintwist.suites import run

from conftest import TABLE_ROWS


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


def _count_svd_matrices(monkeypatch) -> list:
    """One entry per SVD call: the number of matrices it norms."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_high_dimensional_runs_stay_within_the_entry_cap(monkeypatch):
    normed, represented = [], []
    _wrap_everywhere(monkeypatch, linalg.op_norms, lambda args, out: normed.append(np.asarray(args[0]).size))
    _wrap_everywhere(monkeypatch, linalg.max_norm, lambda args, out: normed.extend(np.size(a) for a in args))
    _wrap_everywhere(monkeypatch, clifford.represent_stack, lambda args, out: represented.append(out.size))
    svd_calls = _count_svd_matrices(monkeypatch)
    cfg = SuiteConfig(suites=("clifford", "krein", "morphism"), signatures=((5, 5), (10, 0), (0, 10)), seed=0)
    assert run(cfg).all_passed
    assert max(normed) <= STACK_ENTRIES
    assert max(represented) == STACK_ENTRIES  # dimension 10 fills whole chunks
    # 254 when written, 213 since the gauge rows norm all their gaps in one
    # ``max_norm`` call with a Gram bound squared once more, 219 (in 33 SVD
    # calls, down from 41) since every gap row does; 361 while the
    # gauge rows and spin_k_unitarity normed one sample at a time or every
    # matrix, 790 while every sampled row took the SVD of every matrix
    assert sum(svd_calls) <= 254


def test_default_run_skips_the_svd_of_zero_stacks(monkeypatch):
    calls = _count_svd_matrices(monkeypatch)
    assert run(SuiteConfig(seed=1234)).all_passed
    # 151 since the vielbein row norms its nonzero gaps in one ``max_norm``
    # call, not one SVD each; 180 when written; 294 while the gauge,
    # product-fluctuation and derivation-splitting rows normed one sample at a
    # time, 312 while every sampled row took the SVD of every matrix, 840 while
    # threshold-only norms took an SVD, and 2,239 when every zero stack went
    # through it
    assert len(calls) <= 151
    # 1,642 matrices since ``max_norm`` leaves out every all-zero matrix; 1,790
    # when written, 1,782 since the gauge rows norm all their gaps in one
    # ``max_norm`` call (1,791 if its Gram bound were not squared once more);
    # 2,088 while those rows normed one sample at a time, 3,785 while every
    # sampled row took the SVD of every matrix
    assert sum(calls) <= 1642


def test_gauge_rows_take_the_svd_of_few_matrices(monkeypatch):
    calls, inside = [], []
    svd, gauge_vs_form = np.linalg.svd, suites._gauge_vs_form

    def counted(a, *args, **kwargs):
        if inside:
            calls.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    def row(*args):
        inside.append(1)
        try:
            return gauge_vs_form(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(suites, "_gauge_vs_form", row)
    sigs = tuple((p, dim - p) for dim in (8, 10) for p in range(dim + 1))
    assert run(SuiteConfig(suites=("krein",), signatures=sigs, seed=0)).all_passed
    # the gauge_equals_form rows of the 20 dimension-8/10 signatures, product
    # assembly included: 29 matrices in 20 SVD calls when written, since their
    # gauge elements are diagonals and all five gaps of a row go to one
    # ``max_norm`` call; 56 matrices in 50 calls while each chunk of dense
    # gaps went to its own ``max_norm`` call with the floor of those before it
    assert sum(calls) <= 29


def test_default_run_checks_operands_only_where_they_enter(monkeypatch):
    calls = []
    suites._finite_ko6.cache_clear()  # every process counts the build of the shared finite triple
    _wrap_everywhere(monkeypatch, linalg.as_cmat, lambda args, out: calls.append(1))
    assert run(SuiteConfig(seed=1234)).all_passed
    # 284 when written; 312 since product triples coerce their operators at
    # entry (307 in a process that had built the shared finite triple before,
    # until the count cleared its cache); 1,516, next to 2,817 finite scans of
    # stacks and matrices together, while every kernel coerced its own operands
    assert len(calls) <= 312


def test_geometry_run_builds_one_jet_per_point(monkeypatch):
    points = []
    _wrap_everywhere(monkeypatch, geometry._stacked_jet, lambda args, out: points.append(len(out.x)))
    assert run(SuiteConfig(suites=("geometry",), seed=1234)).all_passed
    # 4 families x 5 points, 5 points for the oracles and 8 for the three Dirac
    # decompositions; 113 while each family row built its own jets
    assert sum(points) <= 33
    # one stacked jet per sample set: 4 families, 3 decompositions (3, 3 and 2
    # points) and 5 one-point oracle jets; 33 builds while every point had its own
    assert len(points) <= 12


def test_geometry_run_builds_the_frames_of_g_once_per_point(monkeypatch):
    calls = []
    _wrap_everywhere(monkeypatch, geometry._frames, lambda args, out: calls.append(1))
    assert run(SuiteConfig(suites=("geometry",), seed=1234)).all_passed
    # 12 since every sample set builds the frames of g and of its stencil
    # points in one call over the jet's readings: 7 for the 4 families and the
    # 3 decompositions, 1 for the plane-wave oracle, and 4 for the vielbein
    # row, one per family; 28 while each jet built them in three calls (g, up
    # and down), 44 while that row built the frames point by point, 107 while
    # the jets were built per point, 124 while the Dirac kernels built the
    # frames of g three times per point
    assert len(calls) <= 12


def _count_gamma_tables(monkeypatch) -> list:
    """One entry per evaluation of a gamma or generator-pair table: the id of
    the row that evaluates it, None outside a row."""
    calls, row = [], [None]
    add = suites._Runner.add

    def noting(runner, check_id, *args):
        row[0] = check_id
        try:
            return add(runner, check_id, *args)
        finally:
            row[0] = None

    monkeypatch.setattr(suites._Runner, "add", noting)
    for name in ("gamma_table_norm", "pair_table_norm"):
        def counted(rep, *gaps, table=getattr(clifford.CliffordRep, name)):
            calls.append(row[0])
            return table(rep, *gaps)

        monkeypatch.setattr(clifford.CliffordRep, name, counted)
    return calls


def test_only_the_clifford_rows_evaluate_the_relation_tables(monkeypatch):
    calls = _count_gamma_tables(monkeypatch)
    assert run(SuiteConfig(suites=("geometry",), seed=1234)).all_passed
    # 0 since ``build_gammas`` checks the relations exactly on the strings; 3,
    # one per geometry context ((1,3), (1,1) and (2,0)), while it took the
    # dense SVD tables as its guard
    assert calls == []
    sigs = ((1, 3), (2, 2), (4, 0), (3, 3))
    assert run(SuiteConfig(suites=("clifford",), signatures=sigs, seed=1234)).all_passed
    # each table row evaluates its own table, once per signature; the first
    # structural row evaluated all four structural tables while one aggregate
    # computed them
    assert calls == [f"p{p}q{q}.{row}" for p, q in sigs for row in TABLE_ROWS]


def _count_points(monkeypatch, cls, name) -> list:
    """One entry per call of the field reader ``cls.name``: the points it reads."""
    calls = []
    read = getattr(cls, name)

    def counted(field, x):
        calls.append(int(np.prod(np.shape(x)[:-1])))
        return read(field, x)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_geometry_run_reads_the_metric_once_per_family_row_point(monkeypatch):
    calls = _count_points(monkeypatch, geometry.MetricField, "g_at")
    assert run(SuiteConfig(suites=("geometry",), seed=1234)).all_passed
    # 20 calls since the metric reads a stack: one per jet (12) and one per
    # vielbein and reflection row of the 4 families (8); 241 calls, one per
    # point, while it read one point at a time
    assert len(calls) <= 20
    # 241 points: 201 for the 12 jets over 33 points (each point and its 2 dim
    # stencil points) and 40 for the 4 families' vielbein and reflection rows,
    # one reading per row and point; 301 while those rows read g three times
    # and twice per point
    assert sum(calls) <= 241


def test_geometry_run_reads_each_spinor_stack_in_one_call(monkeypatch):
    calls = _count_points(monkeypatch, geometry.SpinorField, "__call__")
    assert run(SuiteConfig(suites=("geometry",), seed=1234)).all_passed
    # 5 calls since the spinor reads a stack: one per decomposition, one for
    # the plane-wave oracle's spinor jet and one for its symbol side; 62 calls,
    # one per point, while it read one point at a time
    assert len(calls) <= 5
    # 62 points: the 3, 3 and 2 decomposition points with their stencils in
    # dimension 4, 2 and 2 (27 + 15 + 10), the oracle's point with its
    # stencil (9) and its symbol side's point (1)
    assert sum(calls) <= 62


def test_geometry_run_assembles_each_dirac_side_once_over_its_points(monkeypatch):
    calls = []
    _wrap_everywhere(monkeypatch, geometry._dirac_sum, lambda args, out: calls.append(len(out)))
    assert run(SuiteConfig(suites=("geometry",), seed=1234)).all_passed
    # 7: both sides of the 3 decompositions over their 3, 3 and 2 points, and
    # the plane-wave oracle's one point; 17 one-point assemblies while each
    # decomposition point assembled both sides on its own
    assert len(calls) <= 7
    assert sum(calls) == 17
