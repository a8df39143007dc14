import timeit
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreintwist import linalg
from kreintwist.clifford import Signature, build_gammas
from kreintwist.linalg import (
    FROBENIUS_TOL_FLOOR,
    AntilinearOp,
    NotASignError,
    ShapeError,
    adjoint,
    as_cmat,
    kron,
    max_residual,
    norm_within,
    op_norm,
    op_norms,
    residual_norm,
    sign_of_pair,
    table_norm,
)
from kreintwist.report import SuiteConfig
from kreintwist.suites import _Runner

from conftest import SIGMA1, SIGMA2, SIGMA3


def _random_matrix(seed, n, scale=10.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.uniform(-1, 1, size=(n, n)) + 1j * rng.uniform(-1, 1, size=(n, n)))


matrix_params = st.tuples(st.integers(0, 2**31 - 1), st.sampled_from([2, 3, 4, 8]))


def test_adjoint_examples():
    assert np.array_equal(adjoint(np.eye(2)), np.eye(2))
    a = np.array([[0, 1j], [0, 0]])
    assert np.array_equal(adjoint(a), np.array([[0, 0], [-1j, 0]]))
    assert np.array_equal(adjoint(SIGMA2), SIGMA2)


@settings(max_examples=60, deadline=None)
@given(matrix_params, matrix_params)
def test_adjoint_involution_and_antihom(pa, pb):
    n = pa[1]
    a = _random_matrix(pa[0], n)
    b = _random_matrix(pb[0], n)
    assert residual_norm(adjoint(adjoint(a)), a) == 0.0
    assert residual_norm(adjoint(a @ b), adjoint(b) @ adjoint(a)) <= 1e-14 * 100


def test_kron_examples():
    b = _random_matrix(3, 3)
    assert np.allclose(kron(np.array([[2.0]]), b), 2.0 * b)
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    # singular values of sigma1 (x) sigma3: oracle is the explicit 4x4 product
    m = kron(SIGMA1, SIGMA3)
    sv = np.sqrt(np.linalg.eigvalsh(adjoint(m) @ m))
    assert np.allclose(sv, 1.0, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 4]))
def test_kron_mixed_product(seed, n):
    rng = np.random.default_rng(seed)
    a, b, c, d = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(4))
    lhs = kron(a, b) @ kron(c, d)
    assert residual_norm(lhs, kron(a @ c, b @ d)) <= 1e-13 * max(1.0, op_norm(lhs))


def test_op_norm_examples():
    assert op_norm(np.eye(5)) == pytest.approx(1.0)
    assert op_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0)
    # (sigma1 + sigma3)^2 = 2 I, so the norm is sqrt(2)
    m = SIGMA1 + SIGMA3
    assert np.allclose(m @ m, 2 * np.eye(2))
    assert op_norm(m) == pytest.approx(np.sqrt(2.0))


def test_op_norm_rejects_nonsquare():
    with pytest.raises(ShapeError):
        op_norm(np.ones((2, 3)))


def _svd_norms(m):
    return np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)[..., 0]


@pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4), (2, 3, 1, 1), (0, 5, 5)])
@pytest.mark.parametrize("zero", [0.0, complex(-0.0, -0.0)])
def test_op_norms_of_zero_stacks_are_the_svd_zeros(shape, zero):
    m = np.full(shape, zero, dtype=np.complex128)
    got, want = op_norms(m), _svd_norms(m)
    assert np.shape(got) == np.shape(want) == shape[:-2]
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert not np.any(np.signbit(got))


NONFINITE = [np.nan, np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)]


def _forbid_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("a non-finite matrix reached the SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)


@pytest.mark.parametrize("bad", NONFINITE)
def test_op_norms_of_a_lone_nonfinite_entry_are_nan_without_the_svd(bad, monkeypatch, capfd):
    # the SVD raises on NaN and prints LAPACK text on inf; op_norms asks it neither
    m = np.zeros((3, 4, 4), dtype=np.complex128)
    m[1, 2, 0] = bad
    _forbid_svd(monkeypatch)
    got = op_norms(m)
    assert got[0] == got[2] == 0.0 and np.isnan(got[1])
    assert np.isnan(op_norms(m[1])) and np.isnan(op_norm(m[1]))
    assert capfd.readouterr() == ("", "")


def test_op_norms_of_a_mixed_stack_norm_the_finite_matrices_as_the_svd():
    m = np.array([_random_matrix(s, 4) for s in range(5)]).reshape(5, 1, 4, 4)
    m[1, 0, 3, 3], m[4, 0, 0, 1] = np.inf, np.nan
    got, want = op_norms(m), _svd_norms(m[[0, 2, 3]])
    assert got.shape == (5, 1) and np.isnan(got[[1, 4]]).all()
    assert got[[0, 2, 3]].tobytes() == want.tobytes()


def test_op_norms_of_empty_matrices():
    assert op_norms(np.zeros((3, 0, 0))).tolist() == [0.0, 0.0, 0.0]
    assert op_norm(np.zeros((0, 0))) == 0.0


@settings(max_examples=50, deadline=None)
@given(matrix_params)
def test_op_norm_matches_eig_oracle(p):
    a = _random_matrix(p[0], p[1])
    oracle = float(np.sqrt(np.max(np.linalg.eigvalsh(adjoint(a) @ a))))
    assert op_norm(a) == pytest.approx(oracle, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(matrix_params, matrix_params)
def test_op_norm_submultiplicative(pa, pb):
    n = pa[1]
    a = _random_matrix(pa[0], n)
    b = _random_matrix(pb[0], n)
    assert op_norm(a @ b) <= op_norm(a) * op_norm(b) * (1 + 1e-12)


def test_antilinear_conjugate_examples():
    a = _random_matrix(11, 3)
    j_id = AntilinearOp(np.eye(3))
    assert residual_norm(j_id.sandwich(a), np.conj(a)) == 0.0
    j = AntilinearOp(_random_matrix(7, 3, scale=1.0) + 3 * np.eye(3))
    assert residual_norm(j.sandwich(np.eye(3)), np.eye(3)) <= 1e-13
    assert residual_norm(j.sandwich(1j * np.eye(3)), -1j * np.eye(3)) <= 1e-13


def test_antilinear_composition_and_square():
    rng = np.random.default_rng(2)
    ja = AntilinearOp(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    jb = AntilinearOp(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    # same algebra, different matmul association: equal to rounding
    assert np.allclose(ja(jb(psi)), (ja.mat @ np.conj(jb.mat)) @ psi, atol=1e-13)
    assert np.allclose(ja(ja(psi)), ja.square() @ psi, atol=1e-13)


def test_antilinear_singular_rejected():
    j = AntilinearOp(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        j.sandwich(np.eye(2))


def test_antilinear_requires_square():
    with pytest.raises(ShapeError):
        AntilinearOp(np.ones((2, 3)))


def test_as_cmat_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_cmat(np.array([[np.nan, 0], [0, 1]]))


def test_residual_pass_contract():
    # A residual passes at or below its row's tolerance; NaN never passes.
    r = _Runner(SuiteConfig(tolerances={"build": 1e-12}), "linalg")
    for value in (1e-13, 1e-12, 2e-12, np.nan):
        r.add("x", "", "build", lambda v=value: v)
    assert [rec.passed for rec in r.records] == [True, True, False, False]
    assert all(rec.tolerance == 1e-12 for rec in r.records)


def test_sign_of_pair():
    assert sign_of_pair(SIGMA1 @ SIGMA3, SIGMA1 @ SIGMA3) == 1
    assert sign_of_pair(SIGMA1 @ SIGMA3, SIGMA3 @ SIGMA1) == -1
    with pytest.raises(NotASignError):
        sign_of_pair(SIGMA1, SIGMA1 + SIGMA3)


def test_max_residual_keeps_nan():
    # one chunk at dimension 2, one sample per chunk at dimension 128
    assert np.isnan(max_residual(lambda r: r, [np.array([1.0, np.nan])], 2))
    assert np.isnan(max_residual(lambda r: r, [np.array([np.nan, 1.0])], 128))
    assert max_residual(lambda r: r, [np.array([1.0, 2.0, 0.5])], 128) == 2.0


def test_table_norm_of_an_inf_entry_is_nan():
    stack = np.array([np.eye(2), np.eye(2), np.eye(2)], dtype=np.complex128)
    stack[1, 0, 0] = np.inf
    assert np.isnan(table_norm(lambda i: stack[i], (3,), 2))


# ---------------------------------------------------------------- norm_within

def _unitary(seed, n):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _rank_one(seed, n):
    """A rank-one matrix of Frobenius (and operator) norm 1."""
    rng = np.random.default_rng(seed)
    x, y = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    a = np.outer(x, y.conj())
    return a / np.sqrt(np.vdot(a, a).real)


def _agrees(a, tol):
    got = norm_within(a, tol)
    want = op_norms(a) <= tol
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want), (got, want)
    return got


# multipliers around a threshold: the threshold itself and a few ulps and ppm either side
AROUND = [1 - 1e-6, 1 - 4e-16, 1.0, 1 + 4e-16, 1 + 1e-6]


@pytest.mark.parametrize("n", [2, 3, 8, 32])
@pytest.mark.parametrize("tol", [1e-13, 1e-9, 0.5, 3.0])
def test_norm_within_at_the_thresholds(n, tol):
    # rank one: |A|_2 = |A|_F, placed at tol/2, tol and 2 tol sqrt(n)
    r = _rank_one(n, n)
    for edge in (tol / 2, tol, 2 * tol * np.sqrt(n)):
        for f in AROUND:
            _agrees(edge * f * r, tol)
    # scaled unitary: |A|_2 = |A|_F / sqrt(n), Frobenius norm placed at the same edges
    u = _unitary(n, n) / np.sqrt(n)
    for edge in (tol / 2, tol, 2 * tol * np.sqrt(n)):
        for f in AROUND:
            _agrees(edge * f * u, tol)
    # the operator norm itself at tol
    for f in AROUND:
        _agrees(tol * f * _unitary(n + 1, n), tol)
    assert _agrees(np.zeros((n, n)), tol)


def test_norm_within_decides_clear_cases_without_an_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("decided by the Frobenius norm")

    u = _unitary(0, 4)
    for tol in (1e-12, 1.0):
        decided = [np.zeros((4, 4)), 0.2 * tol * u, 5.0 * tol * u, 0.5 * tol * _rank_one(0, 4)]
        want = [op_norm(a) <= tol for a in decided]
        monkeypatch.setattr(linalg, "op_norms", no_svd)
        assert [norm_within(a, tol) for a in decided] == want == [True, True, False, True]
        assert norm_within(np.array(decided), tol).tolist() == want
        monkeypatch.undo()


def test_norm_within_sends_only_the_undecided_entries_to_the_svd(monkeypatch):
    tol, r, u = 1e-10, _rank_one(3, 4), _unitary(3, 4)
    stack = np.array([np.zeros((4, 4)), 0.8 * tol * r, 10 * tol * u, 1.2 * tol * r, 0.1 * tol * u, 0.9 * tol * u])
    normed = []
    original = linalg.op_norms

    def recording(m):
        normed.append(np.asarray(m).shape)
        return original(m)

    monkeypatch.setattr(linalg, "op_norms", recording)
    got = norm_within(stack, tol)
    monkeypatch.undo()
    assert got.tolist() == (op_norms(stack) <= tol).tolist() == [True, True, False, False, True, True]
    assert normed == [(3, 4, 4)]
    # a stack of stacks keeps its leading shape
    assert norm_within(stack.reshape(2, 3, 4, 4), tol).tolist() == [[True, True, False], [False, True, True]]


@pytest.mark.parametrize("bad", NONFINITE)
def test_norm_within_rejects_nonfinite_entries_without_the_svd(bad, monkeypatch, capfd):
    _forbid_svd(monkeypatch)
    for tol in (1e-12, np.inf):
        m = np.zeros((3, 4, 4), dtype=np.complex128)
        m[1, 2, 0] = bad
        assert _agrees(m, tol).tolist() == [True, False, True]
        assert norm_within(m[1], tol) is False
    assert capfd.readouterr() == ("", "")
    monkeypatch.undo()
    # entries whose squares overflow are decided by the SVD too
    big = np.full((2, 2), 1e200)
    assert norm_within(big, 1e300) is True and norm_within(big, 1e199) is False


def test_norm_within_below_the_tolerance_floor_asks_the_svd():
    tiny = np.full((3, 3), 1e-170)  # squares underflow: |A|_F reads 0
    assert np.vdot(tiny, tiny).real == 0.0
    for tol in (0.0, 1e-300, FROBENIUS_TOL_FLOOR / 2):
        assert _agrees(tiny, tol) == (op_norm(tiny) <= tol)
        assert _agrees(np.zeros((3, 3)), tol)
    assert not _agrees(np.eye(2), -1.0) and not _agrees(np.eye(2), np.nan)


def test_norm_within_rejects_nonsquare():
    with pytest.raises(ShapeError):
        norm_within(np.ones((2, 3)), 1.0)
    with pytest.raises(ShapeError):
        norm_within(np.ones(3), 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([1, 2, 3, 4, 8, 16]),
    st.sampled_from([1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-6, 1.0]),
    st.floats(-1.0, 1.0),
    st.sampled_from(["gaussian", "rank_one", "unitary", "diagonal"]),
)
def test_norm_within_agrees_with_the_svd(seed, n, tol, log_ratio, kind):
    # norms spread over tol/10 .. 10 tol around the threshold
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    elif kind == "rank_one":
        a = _rank_one(seed, n)
    elif kind == "unitary":
        a = _unitary(seed, n)
    else:
        a = np.diag(rng.normal(size=n) * (rng.random(n) < 0.5) + 0j)
    norm = op_norm(a)
    if norm > 0:
        a = a * (tol * 10.0 ** log_ratio / norm)
    _agrees(a, tol)
    stack = np.array([a, 0.5 * a, 2 * a, np.zeros_like(a)])
    _agrees(stack, tol)


def test_norm_within_is_no_slower_than_the_svd_at_dimension_2():
    a = SIGMA1 + 0.5 * SIGMA3

    def best(fn):
        return min(timeit.repeat(fn, number=500, repeat=5))

    for tol in (1e-12, 10.0):  # decided no, decided yes
        assert best(lambda: norm_within(a, tol)) <= best(lambda: op_norm(a) <= tol)


# ---------------------------------------------------------------- signed permutations

def _signed_permutation(seed, n):
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n), dtype=np.complex128)
    m[np.arange(n), rng.permutation(n)] = rng.choice(np.array([1, -1, 1j, -1j]), n)
    return m


def _operands(seed, n):
    """Operands of a product with an n x n matrix: C- and F-ordered matrices,
    a transposed view, 2-D and 3-D stacks, vectors, a real matrix, a stack
    with exact +-0 entries and the gammas of a dimension-10 signature, each
    with exact +-0 entries, as they are and negated."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    stack = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    signed_zeros = np.empty((4, n, n), dtype=np.complex128)
    signed_zeros.real = rng.choice([0.0, -0.0, 1.0, -1.0], size=(4, n, n))
    signed_zeros.imag = rng.choice([0.0, -0.0, 2.0], size=(4, n, n))
    gammas = {}
    if n == 32:
        gammas = {"gammas": build_gammas(Signature(3, 7)).gamma_stack}
        gammas["negated gammas"] = -gammas["gammas"]
    return {**gammas,
        "C": a, "F": np.asfortranarray(a), "transposed": a.T, "stack": stack,
        "stack of stacks": stack.reshape(3, 1, n, n), "transposed stack": stack.swapaxes(-1, -2),
        "vector": a[0], "column stack": stack[:, :, :1], "real": a.real.copy(), "signed zeros": signed_zeros,
    }


@pytest.mark.parametrize("n", [32, 64, 128])
def test_signed_permutation_products_equal_blas_byte_for_byte(n):
    dense = _signed_permutation(n, n)
    p = linalg.signed_permutation(dense)
    assert isinstance(p, linalg.SignedPermutation) and not p.flags.writeable
    assert np.array_equal(p, dense) and np.asarray(p).tobytes() == dense.tobytes()
    for name, x in _operands(n, n).items():
        products = [(p @ x, dense @ x)] + ([(x @ p, x @ dense)] if x.shape[-1] == n else [])
        for got, want in products:
            assert type(got) is np.ndarray and got.flags.c_contiguous, name
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    # other operations act on the dense matrix and return plain arrays
    for got, want in ((p - adjoint(p), dense - adjoint(dense)), (np.conj(p), np.conj(dense)),
                      (p @ p, dense @ dense), (np.linalg.inv(p), np.linalg.inv(dense))):
        assert type(got) is np.ndarray and got.tobytes() == want.tobytes()


def test_signed_permutation_classifies_only_exact_unit_patterns(monkeypatch):
    n = linalg.GATHER_MIN_DIM
    good = _signed_permutation(1, n)
    assert isinstance(linalg.signed_permutation(good), linalg.SignedPermutation)
    doubled = good.copy()
    doubled[0] = good[1]  # two rows share a column
    near = good * (1 + 1e-16j)
    extra = np.eye(n, dtype=np.complex128)
    extra[0, 1] = 1e-300
    for m in (good[:, :-1], 2 * good, near, doubled, good.real, _signed_permutation(1, n - 1), extra):
        assert type(linalg.signed_permutation(m)) is np.ndarray
    # the size gate reads GATHER_MIN_DIM
    monkeypatch.setattr(linalg, "GATHER_MIN_DIM", 2)
    small = linalg.signed_permutation(_signed_permutation(2, 4))
    assert small.cols.tolist() == np.argmax(small != 0, axis=1).tolist()
    assert np.array_equal(small.phases, small[np.arange(4), small.cols])


@pytest.mark.parametrize("bad", NONFINITE)
def test_signed_permutation_products_carry_nonfinite_entries_silently(bad, capfd):
    p = linalg.signed_permutation(_signed_permutation(3, 32))
    x = np.ones((32, 32), dtype=np.complex128)
    x[5, 7] = bad
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert np.isnan(op_norm(p @ x)) and np.isnan(op_norm(x @ p))
    assert not caught and capfd.readouterr() == ("", "")


# ---------------------------------------------------------------- max_norm

def _max_norm_cases():
    rng = np.random.default_rng(7)
    noise = lambda k, n, s=1.0: s * (rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))
    spread = noise(20, 16, 1e-15) * rng.uniform(0.05, 1, size=(20, 1, 1))
    single = noise(1, 128, 1e-16)
    tie = noise(1, 32)
    return {
        "spread": (spread,),
        "spread chunks": (spread[:12], spread[12:]),
        "one large": (np.concatenate([noise(30, 8, 1e-3), noise(1, 8, 1.0)]),),
        "single": (single,),
        "single 2-D": (single[0],),
        "tie": (np.concatenate([tie, tie, tie]),),
        "stack of stacks": (noise(24, 8).reshape(4, 6, 8, 8),),
        "unit scale": (noise(64, 4),),
        "huge": (noise(40, 8, 1e200),),
        "tiny": (noise(40, 8, 1e-200),),
        "mixed zeros": (np.concatenate([np.zeros((10, 16, 16)), noise(5, 16, 1e-9)]),),
        "small": (noise(3, 2),),
    }


@pytest.mark.parametrize("case", list(_max_norm_cases()))
def test_max_norm_is_the_max_of_op_norms_bit_for_bit(case):
    stacks = _max_norm_cases()[case]
    want = max(float(np.max(op_norms(s))) for s in stacks)
    got = linalg.max_norm(*stacks)
    assert type(got) is float and got == want


def test_max_norm_leaves_out_the_matrices_that_cannot_hold_the_maximum(monkeypatch):
    stacks = _max_norm_cases()["spread"]
    seen = []
    svd = np.linalg.svd

    def counted(m, *args, **kwargs):
        seen.append(len(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    linalg.max_norm(*stacks)
    assert len(seen) == 1 and seen[0] < len(stacks[0])


def _gram_case(kind, seed, n):
    """A stack of three n x n matrices of one kind, with Frobenius norms near 1."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    if kind == "rank one":
        u, v = (rng.normal(size=(3, n, 1)) + 1j * rng.normal(size=(3, n, 1)) for _ in range(2))
        m = u @ np.conj(v).swapaxes(1, 2)
    elif kind == "near identity":
        m = np.eye(n) + 1e-8 * noise
    else:  # roundoff: a gap whose Frobenius norm is about sqrt(n) / 2 times its operator norm
        m = 1e-16 * noise
    return m / np.linalg.norm(m, axis=(1, 2), keepdims=True)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["rank one", "near identity", "roundoff"]), st.integers(0, 2**31 - 1),
       st.sampled_from([8, 32, 128]), st.integers(-99, 99), st.floats(0.5, 1.0))
def test_gram_bound_is_at_least_the_svd_value(kind, seed, n, exponent, cut_share):
    m = _gram_case(kind, seed, n) * (0.75 * 2.0 ** exponent)  # |A|_F = 0.75 2^exponent
    fro, lo = linalg._norm_bounds(np.ascontiguousarray(m))
    assert np.all((fro >= linalg._BOUND_RANGE[0]) & (fro <= linalg._BOUND_RANGE[1]))
    svd = op_norms(m)
    bound = linalg._gram_bound(m, fro)
    assert np.all(bound >= svd) and np.all(bound <= fro * (1 + 1e-10))
    # a cut decides which matrices get the second squaring, never the bound's validity
    cut = cut_share * float(svd.max())
    assert np.all(linalg._gram_bound(m, fro, cut) >= bound)
    assert np.all(linalg._gram_bound(m, fro, cut) >= svd)
    assert linalg.max_norm(m) == float(np.max(svd))
    assert linalg.max_norm(m[:1], m[1:]) == float(np.max(svd))


def test_second_squaring_tightens_the_gram_bound_of_roundoff_gaps():
    m = _gram_case("roundoff", 4, 128)
    fro, _ = linalg._norm_bounds(np.ascontiguousarray(m))
    first = linalg._gram_bound(m, fro, cut=np.inf)  # the cut leaves no matrix a second squaring
    both = linalg._gram_bound(m, fro)
    assert np.all(both < 0.9 * first) and np.all(both >= op_norms(m))


@pytest.mark.parametrize("shape", [(5, 4, 4), (40, 8, 8), (4, 0, 0), (0, 3, 3)])
def test_max_norm_of_zero_stacks_needs_no_svd(shape, monkeypatch):
    _forbid_svd(monkeypatch)
    zeros = np.full(shape, complex(-0.0, -0.0))
    assert linalg.max_norm(zeros) == 0.0 and not np.signbit(linalg.max_norm(zeros))


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("k", [3, 40])
def test_max_norm_of_a_nonfinite_entry_is_nan_without_the_svd(bad, k, monkeypatch, capfd):
    m = np.ones((k, 8, 8), dtype=np.complex128)
    m[1, 2, 0] = bad
    _forbid_svd(monkeypatch)
    assert np.isnan(linalg.max_norm(m))
    assert np.isnan(linalg.max_norm(np.ones((2, 8, 8)), m))
    assert capfd.readouterr() == ("", "")


def test_max_gap_norm_norms_every_chunk_in_one_call(monkeypatch):
    rng = np.random.default_rng(11)
    # three chunks of 16 32 x 32 matrices
    stack = np.concatenate([s * (rng.normal(size=(16, 32, 32)) + 1j * rng.normal(size=(16, 32, 32)))
                            for s in (1e-3, 2.0, 0.5)])
    calls, max_norm = [], linalg.max_norm

    def recording(*chunks):
        calls.append(len(chunks))
        return max_norm(*chunks)

    monkeypatch.setattr(linalg, "max_norm", recording)
    got = linalg.max_gap_norm(lambda m: (m[:5], m[5:]), [stack], 32)
    assert calls == [6]
    assert type(got) is float and got == float(np.max(op_norms(stack)))
    stack[16 + 3, 2, 1] = np.nan
    assert np.isnan(linalg.max_gap_norm(lambda m: m, [stack], 32)) and calls == [6, 3]


@pytest.mark.parametrize("mat, singular", [
    (0.01 * np.eye(8), False),           # determinant 1e-16, condition number 1
    (np.diag([1e8, 1e-8]), True),        # determinant 1, condition number 1e16
    (np.diag([1.0, 0.0]), True),
])
def test_antilinear_singularity_does_not_depend_on_scale(mat, singular):
    j = AntilinearOp(mat)
    eye = np.eye(len(mat))
    if singular:
        with pytest.raises(ValueError, match="singular"):
            j.sandwich(eye)
    else:
        assert residual_norm(j.sandwich(eye), eye) <= 1e-13


@pytest.mark.parametrize("n", [4, linalg.GATHER_MIN_DIM])
def test_a_signed_permutation_antilinear_op_inverts_exactly_without_a_test(n, monkeypatch):
    mat = _signed_permutation(5, n)
    j = AntilinearOp(mat)
    assert isinstance(j.mat, linalg.SignedPermutation) == (n >= linalg.GATHER_MIN_DIM)
    a = _random_matrix(5, n)
    lu = np.linalg.inv(mat)
    want = mat @ np.conj(a) @ lu
    _forbid_svd(monkeypatch)
    monkeypatch.setattr(np.linalg, "inv", lambda m: pytest.fail("LU of a signed permutation"))
    inverse = j._mat_inv
    assert isinstance(inverse, linalg.SignedPermutation) == (n >= linalg.GATHER_MIN_DIM)
    assert j.sandwich(a).tobytes() == want.tobytes()
    # the conjugate transpose: LU's values, and +0.0 wherever LU leaves -0.0
    assert np.array_equal(inverse, lu) and np.array_equal(inverse @ mat, np.eye(n))
    parts = inverse.view(np.float64)
    assert inverse.flags.c_contiguous and not np.signbit(parts[parts == 0]).any()
