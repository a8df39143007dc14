"""The gauge rows' diagonal kernel against the dense reference kernels.

The gauge elements of the ``gauge_equals_form`` and ``gauge_vs_form`` rows
are diagonal, so the rows pass their diagonals to
``krein.diagonal_gauge_form_gaps`` (through
``product.diagonal_gauge_vs_form_gaps`` on a product triple), which forms no
dense matrix product.  The dense ``krein.gauge_form_gaps`` and
``product.gauge_vs_form_gaps`` stay as the reference: the gaps agree entry by
entry but for the order of roundoff, a broken Dirac operator fails both, and
the K-unitarity guard names the same first bad member.
"""

import dataclasses
import re

import numpy as np
import pytest

from kreintwist import suites as su
from kreintwist.clifford import Signature, all_signatures
from kreintwist.krein import (KreinSpace, NotKUnitaryError, diagonal_gauge_form_gaps, gauge_form_gaps,
                              k_unitarity_residuals)
from kreintwist.linalg import AntilinearOp, diagonal_sandwich, kron, max_norm
from kreintwist.product import (diagonal_gauge_vs_form_gaps, finite_algebra_unitary, gauge_vs_form_gaps)
from kreintwist.report import SuiteConfig

PRODUCT_SIGS = [(s.p, s.q) for s in all_signatures() if s.dim >= 4] + [
    (p, d - p) for d in (8, 10) for p in range(d + 1)]


def _diagonals(rng, ft, m, count):
    """Diagonals of ``count`` gauge elements exp(i lam) 1_m and algebra unitaries of ``ft``."""
    draws = rng.uniform(0, 2 * np.pi, size=(count, 3))
    u_k = np.exp(1j * draws[:, 2:]) * np.ones(m)
    u = np.array([np.diagonal(finite_algebra_unitary(ft, th1, th2)) for th1, th2, _ in draws])
    return u_k, u


def _bound(d) -> float:
    """Entrywise agreement fixed from the dtype: 32 n u max|D|."""
    return 32 * len(d) * np.finfo(np.float64).eps / 2 * float(np.max(np.abs(d)))


def _dense(diagonals):
    return np.array([np.diag(x) for x in diagonals])


@pytest.mark.parametrize("sig", PRODUCT_SIGS, ids=lambda s: f"p{s[0]}q{s[1]}")
def test_diagonal_kernel_equals_the_dense_one_on_product_triples(sig):
    ctx = su.SignatureContext(Signature(*sig))
    pt = ctx.product
    u_k, u = _diagonals(np.random.default_rng(sig), pt.finite, ctx.rep.dim, 3)
    got = diagonal_gauge_vs_form_gaps(pt, u_k, u)
    want = gauge_vs_form_gaps(pt, _dense(u_k), _dense(u))
    assert got.shape == want.shape == (3, pt.dim, pt.dim)
    assert np.max(np.abs(got - want)) <= _bound(pt.Dp)
    assert max_norm(got) <= 1e-12  # the identity holds on algebra gauge elements


def test_diagonal_kernel_equals_the_dense_one_on_the_finite_branch():
    ft = su.SignatureContext(Signature(1, 1)).finite
    space = KreinSpace(ft.dimF, np.eye(ft.dimF))
    _, u = _diagonals(np.random.default_rng(3), ft, 1, 5)
    got = diagonal_gauge_form_gaps(ft.DF, u, ft.JF, space, +1)
    want = gauge_form_gaps(ft.DF, _dense(u), ft.JF, space, +1)
    assert np.max(np.abs(got - want)) <= _bound(ft.DF) and max_norm(got) <= 1e-14


def test_diagonal_sandwich_equals_the_dense_product():
    ctx = su.SignatureContext(Signature(3, 3))
    pt, rng = ctx.product, np.random.default_rng(8)
    x = rng.normal(size=(4, pt.dim)) + 1j * rng.normal(size=(4, pt.dim))
    for p, q in ((pt.Kp, pt.Kp), (pt.Jp.mat, pt.Jp._mat_inv), (ctx.ops.K, ctx.ops.K)):
        n = len(p)
        want = np.diagonal(np.asarray(p) @ _dense(x[:, :n]) @ np.asarray(q), axis1=1, axis2=2)
        assert np.array_equal(diagonal_sandwich(p, x[:, :n], q), want)
    j = AntilinearOp(pt.Jp.mat)
    assert np.array_equal(j.sandwich_diagonal(x), np.diagonal(j.sandwich(_dense(x)), axis1=1, axis2=2))


def test_a_structural_operator_that_is_no_signed_permutation_raises():
    ctx = su.SignatureContext(Signature(1, 3))
    pt = ctx.product
    x = np.ones((1, pt.dim), dtype=np.complex128)
    rotated = np.asarray(pt.Kp) @ np.kron(np.eye(ctx.rep.dim), np.array(
        [[1, 0, 0, 0], [0, 0.6, 0.8, 0], [0, -0.8, 0.6, 0], [0, 0, 0, 1]]))
    with pytest.raises(ValueError, match="not a signed permutation"):
        diagonal_sandwich(rotated, x, pt.Kp)
    with pytest.raises(ValueError, match="not diagonal"):
        diagonal_sandwich(pt.Kp, x, np.roll(np.eye(pt.dim), 1, axis=1))
    with pytest.raises(ValueError, match="not a signed permutation"):
        diagonal_gauge_form_gaps(pt.Dp, x, AntilinearOp(rotated), pt.space, pt.sign_row[1])


@pytest.mark.parametrize("sig", [(1, 3), (3, 5)], ids=lambda s: f"p{s[0]}q{s[1]}")
def test_a_dirac_operator_off_the_first_order_condition_fails_the_diagonal_row(sig):
    # a Hermitian perturbation of Dp breaks the first-order condition: the
    # gauge orbit and the one-form formula differ, densely and diagonally
    ctx = su.SignatureContext(Signature(*sig), 0, 0)
    pt, rng = ctx.product, np.random.default_rng(12)
    h = rng.normal(size=(pt.dim, pt.dim)) + 1j * rng.normal(size=(pt.dim, pt.dim))
    broken = dataclasses.replace(pt, Dp=pt.Dp + 0.1 * (h + h.conj().T))
    u_k, u = _diagonals(rng, pt.finite, ctx.rep.dim, 3)
    got = diagonal_gauge_vs_form_gaps(broken, u_k, u)
    want = gauge_vs_form_gaps(broken, _dense(u_k), _dense(u))
    assert np.max(np.abs(got - want)) <= _bound(broken.Dp)
    assert max_norm(got) > 1e-8
    ctx.product = broken  # the row reads the broken triple
    r = su._Runner(SuiteConfig(seed=0), "krein")
    rows = [row for row in su.KREIN if row.id == "gauge_equals_form"]
    su._add_rows(r, rows, ctx, streams=lambda k: ctx.rng(1, k))
    (rec,) = r.records
    assert rec.residual > 1e-8 and not rec.passed


@pytest.mark.parametrize("sig", [(1, 3), (3, 5)], ids=lambda s: f"p{s[0]}q{s[1]}")
def test_k_unitarity_guard_of_the_diagonal_kernel_names_the_first_bad_member(sig):
    ctx = su.SignatureContext(Signature(*sig))
    pt = ctx.product
    u_k, u = _diagonals(np.random.default_rng(5), pt.finite, ctx.rep.dim, 6)
    u_k[2] *= 1 + 6e-10  # residual about 1.2e-9, just above the tolerance
    u_k[4] *= 2.0
    first = k_unitarity_residuals(pt.space, kron(np.diag(u_k[2]), np.diag(u[2]))[None])[0]
    message = "gauge element is not K-unitary " + re.escape(f"({first:.3e})")
    assert first > 1e-9
    with pytest.raises(NotKUnitaryError, match=message):
        diagonal_gauge_vs_form_gaps(pt, u_k, u)
    with pytest.raises(NotKUnitaryError, match=message):
        gauge_vs_form_gaps(pt, _dense(u_k), _dense(u))
    # the finite branch: the same guard on the finite triple alone
    ft = pt.finite
    space = KreinSpace(ft.dimF, np.eye(ft.dimF))
    scaled = u.copy()
    scaled[1] *= 1 + 6e-10
    scaled[3] *= 2.0
    first_f = k_unitarity_residuals(space, np.diag(scaled[1])[None])[0]
    with pytest.raises(NotKUnitaryError, match=re.escape(f"({first_f:.3e})")):
        diagonal_gauge_form_gaps(ft.DF, scaled, ft.JF, space, +1)
    with pytest.raises(NotKUnitaryError, match=re.escape(f"({first_f:.3e})")):
        gauge_form_gaps(ft.DF, _dense(scaled), ft.JF, space, +1)
