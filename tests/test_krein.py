import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreintwist.clifford import Signature, build_gammas, build_structural, represent
from kreintwist.krein import (
    KreinSpace,
    NotKUnitaryError,
    canonical_twisted_triple,
    fluctuate,
    gauge_transform,
    k_adjoint,
    k_product,
    k_unitarity_residuals,
    require_k_unitary,
    sample_spin_plus,
    twisted_commutator,
    twisted_first_order_residual,
)
from kreintwist.linalg import ShapeError, adjoint, op_norm, residual_norm

from conftest import SIGMA3


def _space(rep, ops):
    return KreinSpace(rep.dim, ops.K)


def test_k_product_identity_reduces_to_standard():
    space = KreinSpace(2, np.eye(2))
    psi = np.array([1.0 + 2j, -0.5])
    phi = np.array([0.25, 1j])
    assert k_product(space, psi, phi) == pytest.approx(complex(np.vdot(psi, phi)))


def test_k_product_diagonal_signs():
    space = KreinSpace(2, SIGMA3)
    assert k_product(space, [1, 0], [1, 0]) == pytest.approx(1.0)
    assert k_product(space, [0, 1], [0, 1]) == pytest.approx(-1.0)


def test_k_product_indefinite_for_lorentz(rep13):
    rep, ops = rep13
    space = _space(rep, ops)
    ev = np.linalg.eigvalsh(ops.K)
    assert np.any(ev > 0) and np.any(ev < 0)
    rng = np.random.default_rng(0)
    values = []
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        values.append(k_product(space, psi, psi).real)
    assert min(values) < 0 < max(values)


def test_k_product_hermitian(rep13):
    rep, ops = rep13
    space = _space(rep, ops)
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert abs(k_product(space, a, b) - np.conj(k_product(space, b, a))) <= 1e-12


def test_k_product_length_mismatch(rep13):
    rep, ops = rep13
    with pytest.raises(ShapeError):
        k_product(_space(rep, ops), np.ones(3), np.ones(4))


def test_kreinspace_validates_k():
    with pytest.raises(ValueError):
        KreinSpace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_k_adjoint_examples(rep13):
    rep, ops = rep13
    space = _space(rep, ops)
    # K = identity reduces to the plain adjoint
    triv = KreinSpace(4, np.eye(4))
    a = np.arange(16).reshape(4, 4) + 1j
    assert residual_norm(k_adjoint(triv, a), adjoint(a)) == 0.0
    # K itself is K-self-adjoint
    assert residual_norm(k_adjoint(space, ops.K), ops.K) == 0.0
    # spatial gammas are K-self-adjoint: oracle gamma0 gamma1^dag gamma0
    g0, g1 = rep.gammas[0], rep.gammas[1]
    oracle = g0 @ adjoint(g1) @ g0
    assert residual_norm(oracle, g1) <= 1e-14
    assert residual_norm(k_adjoint(space, g1), g1) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_k_adjoint_involution_and_pairing(seed):
    rep = build_gammas(Signature(1, 1))
    ops = build_structural(rep)
    space = KreinSpace(2, ops.K)
    rng = np.random.default_rng(seed)
    o = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert residual_norm(k_adjoint(space, k_adjoint(space, o)), o) == 0.0
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    lhs = k_product(space, psi, o @ phi)
    rhs = k_product(space, k_adjoint(space, o) @ psi, phi)
    assert abs(lhs - rhs) <= 1e-11


def test_k_unitarity_trivial_cases(rep13):
    rep, ops = rep13
    space = _space(rep, ops)
    assert k_unitarity_residuals(space, np.eye(4)[None])[0] == 0.0
    # a standard unitary commuting with K stays K-unitary
    u = np.cos(0.3) * np.eye(4) + 1j * np.sin(0.3) * ops.K
    assert k_unitarity_residuals(space, u[None])[0] <= 1e-10


def _passes_guard(space, us) -> bool:
    try:
        require_k_unitary(space, us, NotKUnitaryError, "not K-unitary")
    except NotKUnitaryError:
        return False
    return True


def test_require_k_unitary_raises_on_the_residual_verdict(rep13):
    # K-unitary and plain-unitary (space None) verdicts against the residuals,
    # with residuals of about 2 delta on both sides of the tolerance 1e-9
    rep, ops = rep13
    space = _space(rep, ops)
    spins = [s.matrix for s in sample_spin_plus(rep, 6, np.random.default_rng(3))]
    boost = spins[np.argmax([op_norm(s) for s in spins])]
    assert op_norm(boost) > 1.0 + 1e-6  # K-unitary, not unitary
    mats = [f * m for m in (np.eye(4), boost) for f in (1.0, 1 + 4e-10, 1 + 6e-10, 2.0)]
    for where in (space, None):
        residuals = k_unitarity_residuals(where, np.array(mats))
        want = residuals <= 1e-9
        assert [_passes_guard(where, m) for m in mats] == want.tolist()
        assert want[:3].tolist() == [True, True, False]
        # a stack passes when every member does, and names the first that does not
        assert _passes_guard(where, np.array(mats)[want])
        first = residuals[np.argmin(want)]
        with pytest.raises(NotKUnitaryError, match=re.escape(f"not K-unitary ({first:.3e})")):
            require_k_unitary(where, np.array(mats), NotKUnitaryError, "not K-unitary")
    assert _passes_guard(space, boost) and not _passes_guard(None, boost)


def test_spin_sampler_deterministic(rep13):
    rep, _ = rep13
    a = sample_spin_plus(rep, 6, np.random.default_rng(99))
    b = sample_spin_plus(rep, 6, np.random.default_rng(99))
    for x, y in zip(a, b):
        assert np.array_equal(x.matrix, y.matrix)
    assert all(len(s.factors) % 2 == 0 for s in a)


def test_spin_identity_element(rep13):
    rep, _ = rep13
    e0 = np.zeros(4)
    e0[0] = 1.0
    m = represent(rep, e0) @ represent(rep, e0)
    assert residual_norm(m, np.eye(4)) == 0.0


def test_spin_rotation_is_unitary(reps):
    # two distinct positive-norm unit vectors give a standard unitary
    rep, ops = reps[(2, 0)]
    els = sample_spin_plus(rep, 8, np.random.default_rng(3))
    for s in els:
        assert op_norm(s.matrix) == pytest.approx(1.0, abs=1e-12)
        assert residual_norm(s.matrix @ adjoint(s.matrix), np.eye(2)) <= 1e-13


def test_spin_boost_nonunitary_but_k_unitary(rep11):
    rep, ops = rep11
    space = _space(rep, ops)
    els = sample_spin_plus(rep, 12, np.random.default_rng(5))
    norms = [op_norm(s.matrix) for s in els]
    assert max(norms) > 1.0 + 1e-6  # a genuine boost appeared
    for s in els:
        res = k_unitarity_residuals(space, s.matrix[None])[0]
        assert res <= 1e-10, res
        # oracle: matrix inverse against K x^dag K
        assert residual_norm(np.linalg.inv(s.matrix), ops.K @ adjoint(s.matrix) @ ops.K) <= 1e-11


def test_spin_even_negative_norm_count(rep13):
    rep, _ = rep13
    for s in sample_spin_plus(rep, 10, np.random.default_rng(7)):
        neg = sum(
            1
            for v in s.factors
            if np.real(np.sum(rep.signs * np.asarray(v) ** 2)) < 0
        )
        assert neg % 2 == 0


def test_spin_sampler_degenerate_request(reps):
    # a positive-definite signature has no negative-norm vector to build
    from kreintwist.krein import RandomDegenerateError, _draw_unit_vector

    rep, _ = reps[(2, 0)]
    rng = np.random.default_rng(0)
    with pytest.raises(RandomDegenerateError):
        _draw_unit_vector(rep, rng, want_negative=True)


def test_spin_sampler_negative_definite(reps):
    rep, ops = reps[(0, 2)]
    els = sample_spin_plus(rep, 6, np.random.default_rng(2))
    space = _space(rep, ops)
    for s in els:
        assert k_unitarity_residuals(space, s.matrix[None])[0] <= 1e-10


def test_spin_invariance_of_k_product(rep13):
    rep, ops = rep13
    space = _space(rep, ops)
    rng = np.random.default_rng(8)
    for s in sample_spin_plus(rep, 20, np.random.default_rng(13)):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi = rng.normal(size=4) + 1j * rng.normal(size=4)
        d = k_product(space, s.matrix @ psi, s.matrix @ phi) - k_product(space, psi, phi)
        assert abs(d) <= 1e-10
        assert residual_norm(adjoint(s.matrix) @ ops.K @ s.matrix, ops.K) <= 1e-10


def test_twisted_commutator_trivials(rep11):
    rep, ops = rep11
    d = rep.gammas[0]
    assert residual_norm(twisted_commutator(d, np.eye(2), ops.K)) == 0.0
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    ordinary = d @ a - a @ d
    assert residual_norm(twisted_commutator(d, a, np.eye(2)), ordinary) == 0.0


def test_twisted_commutator_flipped_gamma(rep11):
    # [D, a]_rho = 2 a^2 when rho(a) = -a and D = a: here a is the minus
    # direction gamma with a^2 = -1, so the twisted commutator is -2 I.
    rep, ops = rep11
    g_minus = rep.gammas[1]
    assert residual_norm(ops.K @ g_minus @ ops.K, -g_minus) == 0.0
    got = twisted_commutator(g_minus, g_minus, ops.K)
    oracle = g_minus @ g_minus - (ops.K @ g_minus @ ops.K) @ g_minus
    assert residual_norm(got, oracle) == 0.0
    assert np.allclose(got, -2.0 * np.eye(2))


def test_twisted_one_form_from_stacked_commutators(rep11):
    # A = sum_i a_i [D, b_i]_rho formed as the gauge kernels form it, one
    # stacked product per pair: zero for no pairs, [D, b]_rho for (1, b)
    rep, ops = rep11
    d = rep.gammas[0]
    none = np.zeros((0, 2, 2))
    assert residual_norm(np.sum(none @ twisted_commutator(d, none, ops.K), axis=0)) == 0.0
    b = np.array([[0.5, 1j], [-1j, 2.0]])
    lhs = np.sum(np.eye(2) @ twisted_commutator(d, b[None], ops.K), axis=0)
    assert residual_norm(lhs, twisted_commutator(d, b, ops.K)) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_twisted_leibniz(seed):
    rep = build_gammas(Signature(1, 3))
    ops = build_structural(rep)
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(4, 4))
    d = d + d.T
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = twisted_commutator(d, a @ b, ops.K)
    rhs = twisted_commutator(d, a, ops.K) @ b + (ops.K @ a @ ops.K) @ twisted_commutator(
        d, b, ops.K
    )
    assert residual_norm(lhs, rhs) <= 1e-11 * max(1.0, op_norm(lhs))


def test_first_order_scalars_vanish(pair13):
    t = pair13.twisted
    for a in t.algebra_gens:
        for b in t.algebra_gens:
            assert twisted_first_order_residual(t.D, a, b, t.J, t.K) <= 1e-14


def test_fluctuate_trivial_and_real_case(pair13):
    t = pair13.twisted
    assert residual_norm(fluctuate(t.D, np.zeros_like(t.D), t.J, 1), t.D) == 0.0
    # build a J-real self-adjoint A: B + J B J^-1 is J-fixed since J^2 = +1
    rng = np.random.default_rng(3)
    b = rng.normal(size=(4, 4))
    b = b + b.T
    a = b + t.J.sandwich(b)
    assert residual_norm(t.J.sandwich(a), a) <= 1e-13
    assert residual_norm(fluctuate(t.D, a, t.J, 1), t.D + 2 * a) <= 1e-12


def test_gauge_transform_identity(pair13):
    t = pair13.twisted
    assert residual_norm(gauge_transform(t.D, np.eye(4), t.J, t.space), t.D) <= 1e-14


def test_gauge_transform_spin_elements_stay_selfadjoint(pair13, rep13):
    rep, ops = rep13
    t = pair13.twisted
    for s in sample_spin_plus(rep, 10, np.random.default_rng(21)):
        out = gauge_transform(t.D, s.matrix, t.J, t.space)
        assert residual_norm(out, adjoint(out)) <= 1e-11


def test_gauge_transform_rejects_non_k_unitary(pair13):
    t = pair13.twisted
    bad = np.diag([2.0, 1.0, 1.0, 1.0])
    with pytest.raises(NotKUnitaryError):
        gauge_transform(t.D, bad, t.J, t.space)


def test_twisted_triple_requires_hermitian_dirac(rep13):
    rep, ops = rep13
    with pytest.raises(ValueError):
        canonical_twisted_triple(rep, ops, rep.gammas[1])


def test_plus_adjoint_branch_consistency_example(pair13, rep13):
    # single documented instance of the other fluctuation branch,
    # Ad(u) D Ad(u)^+: when Ad(u) commutes with K the twisted adjoint
    # equals the plain one and both branches produce the same operator
    rep, ops = rep13
    t = pair13.twisted
    space = KreinSpace(rep.dim, ops.K)
    u = np.cos(0.35) * np.eye(rep.dim) + 1j * np.sin(0.35) * ops.K
    ad = u @ t.J.sandwich(u)
    assert residual_norm(ad @ ops.K, ops.K @ ad) <= 1e-13
    dagger_branch = ad @ t.D @ adjoint(ad)
    plus_branch = ad @ t.D @ k_adjoint(space, ad)
    assert residual_norm(dagger_branch, plus_branch) <= 1e-13
