import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreintwist.linalg import (
    AntilinearOp,
    NotASignError,
    ShapeError,
    adjoint,
    as_cmat,
    kron,
    max_residual,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)])
def test_op_norms_send_a_lone_nonfinite_entry_to_the_svd(bad):
    # the SVD raises on NaN and returns NaN on inf; neither may read as a zero norm
    m = np.zeros((3, 4, 4), dtype=np.complex128)
    m[1, 2, 0] = bad
    if np.isnan(bad):
        with pytest.raises(np.linalg.LinAlgError):
            op_norms(m)
        return
    got = op_norms(m)
    assert got[0] == got[2] == 0.0 and np.isnan(got[1])
    assert got.tobytes() == _svd_norms(m).tobytes()


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
    assert np.isnan(max_residual([(np.array([1.0, np.nan]),)], lambda r: r))
    assert np.isnan(max_residual([(np.array([np.nan]),), (np.array([1.0]),)], lambda r: r))
    assert max_residual([(np.array([1.0, 2.0]),), (np.array([0.5]),)], lambda r: r) == 2.0


def test_table_norm_of_an_inf_entry_is_nan():
    stack = np.array([np.eye(2), np.eye(2), np.eye(2)], dtype=np.complex128)
    stack[1, 0, 0] = np.inf
    assert np.isnan(table_norm(lambda i: stack[i], (3,), 2))
