import numpy as np
import pytest

from kreintwist.clifford import canonical_dirac_pair, metric_pairing, represent
from kreintwist.krein import (
    NotKUnitaryError,
    canonical_twisted_triple,
    k_adjoint,
    sample_spin_plus,
)
from kreintwist.linalg import adjoint, op_norm, residual_norm
from kreintwist.morphism import (
    MorphismPair,
    apply_k_morphism,
    commutator_correspondence_gaps,
    first_order_correspondence_gaps,
    fluctuation_correspondence_check,
    generalized_clifford_check,
    invert_k_morphism,
    selfadjoint_equivalence_check,
    symbol_norm_probes,
    trace_metric_morph_check,
    twisted_clifford_check,
)


def _pair(rep, ops):
    d, _ = canonical_dirac_pair(rep, ops.K)
    t = canonical_twisted_triple(rep, ops, d)
    return MorphismPair(t, apply_k_morphism(t))


def test_identity_twist_recovers_plain_triple(reps):
    rep, ops = reps[(4, 0)]
    pair = _pair(rep, ops)
    assert residual_norm(pair.pseudo.Dk, pair.twisted.D) == 0.0


def test_morphism_involutive(reps):
    for (p, q), (rep, ops) in reps.items():
        pair = _pair(rep, ops)
        back = invert_k_morphism(pair.pseudo)
        assert residual_norm(back.D, pair.twisted.D) <= 1e-13
        again = apply_k_morphism(back)
        assert residual_norm(again.Dk, pair.pseudo.Dk) <= 1e-13


def test_dk_is_k_selfadjoint(rep13):
    rep, ops = rep13
    pair = _pair(rep, ops)
    dk = pair.pseudo.Dk
    assert residual_norm(dk, k_adjoint(pair.pseudo.space, dk)) <= 1e-12


def test_selfadjoint_equivalence_passing(rep13):
    rep, ops = rep13
    pair = _pair(rep, ops)
    # the larger of the two residuals and their gap
    assert selfadjoint_equivalence_check(pair) <= 1e-12


def test_selfadjoint_equivalence_fails_together(rep13):
    # deliberately non-Hermitian D: both sides fail by the same amount
    # (K is unitary, so |D - D^dag| = |K(D - D^dag)|)
    rep, ops = rep13
    d = rep.gammas[1] + 1j * np.eye(4)
    r1 = residual_norm(d, adjoint(d))
    dk = ops.K @ d
    r2 = residual_norm(dk, ops.K @ adjoint(dk) @ ops.K)
    assert r1 > 0.5 and r2 > 0.5
    assert abs(r1 - r2) <= 1e-12


def test_commutator_correspondence(reps):
    rng = np.random.default_rng(3)
    for (p, q), (rep, ops) in reps.items():
        pair = _pair(rep, ops)
        eye = np.eye(rep.dim)
        assert op_norm(commutator_correspondence_gaps(pair, eye[None])[0]) == 0.0
        assert op_norm(commutator_correspondence_gaps(pair, 0.7j * eye[None])[0]) <= 1e-14
        a = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
        assert op_norm(commutator_correspondence_gaps(pair, a[None])[0]) <= 1e-12


def test_first_order_correspondence(rep13):
    rep, ops = rep13
    pair = _pair(rep, ops)
    eye = np.eye(4)
    assert op_norm(first_order_correspondence_gaps(pair, eye[None], eye[None])[0]) <= 1e-14
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert op_norm(first_order_correspondence_gaps(pair, a[None], b[None])[0]) <= 1e-12


def test_fluctuation_correspondence(reps):
    for (p, q) in [(1, 1), (1, 3), (2, 2)]:
        rep, ops = reps[(p, q)]
        pair = _pair(rep, ops)
        assert fluctuation_correspondence_check(pair, np.eye(rep.dim)) <= 1e-14
        # a standard unitary commuting with K
        u = np.cos(0.4) * np.eye(rep.dim) + 1j * np.sin(0.4) * ops.K
        assert fluctuation_correspondence_check(pair, u) <= 1e-12
        for s in sample_spin_plus(rep, 20, np.random.default_rng(31 + p)):
            assert fluctuation_correspondence_check(pair, s.matrix) <= 1e-10


def test_fluctuation_correspondence_rejects_bad_input(rep13):
    rep, ops = rep13
    pair = _pair(rep, ops)
    with pytest.raises(NotKUnitaryError):
        fluctuation_correspondence_check(pair, np.diag([2.0, 1.0, 1.0, 1.0]))


def test_twisted_clifford_basis_cases(rep13):
    rep, ops = rep13
    for a in range(4):
        e = np.zeros(4)
        e[a] = 1.0
        # diagonal case: rho(ct ct) + ct ct = 2 g(e, re) = 2 for every a
        assert twisted_clifford_check(rep, ops, e, e) <= 1e-14
    e0 = np.array([1.0, 0, 0, 0])
    e1 = np.array([0, 1.0, 0, 0])
    assert twisted_clifford_check(rep, ops, e0, e1) <= 1e-14


def test_twisted_clifford_random_vs_metric_oracle(reps):
    rng = np.random.default_rng(11)
    for (p, q), (rep, ops) in reps.items():
        for _ in range(25):
            u = rng.normal(size=rep.n_gen)
            v = rng.normal(size=rep.n_gen)
            # oracle: {c(u), rho(c(v))} = 2 g(u, rv) expanded directly
            cu = represent(rep, u)
            rcv = ops.K @ represent(rep, v) @ ops.K
            lhs = cu @ rcv + rcv @ cu
            target = 2.0 * metric_pairing(rep, u, rep.signs * v) * np.eye(rep.dim)
            assert residual_norm(lhs, target) <= 1e-11
            assert twisted_clifford_check(rep, ops, u, v) <= 1e-11


def test_generalized_clifford(reps):
    for (p, q), (rep, ops) in reps.items():
        assert generalized_clifford_check(rep, ops) <= 1e-11


def test_generalized_clifford_mixed_pair_is_commutator(rep13):
    # s_01 = -1 turns the anticommutator into a commutator for the (0,1) pair
    rep, ops = rep13
    gt0 = ops.K @ rep.gammas[0]
    gt1 = ops.K @ rep.gammas[1]
    s01 = rep.signs[0] * rep.signs[1]
    assert s01 == -1.0
    assert residual_norm(gt0 @ gt1 - gt1 @ gt0, np.zeros((4, 4))) <= 1e-12


def test_euclidean_collapse_to_plain_clifford(reps):
    # s_ab = 1 throughout and K = 1: the twisted relation is the plain one
    for n in (2, 4, 6):
        rep, ops = reps[(n, 0)]
        assert residual_norm(ops.K, np.eye(rep.dim)) == 0.0
        assert all(rep.signs[a] * rep.signs[b] == 1.0 for a in range(n) for b in range(n))
        assert generalized_clifford_check(rep, ops) <= 1e-12


def test_trace_metric_morph(reps):
    for key in [(2, 2), (1, 3), (3, 3)]:
        rep, ops = reps[key]
        assert trace_metric_morph_check(rep, ops, 100, np.random.default_rng(17)) <= 1e-11
    # twisted diagonal value: (1/2^m) Tr(ct(e_a) ct(e_a)) = 1 for every a
    rep, ops = reps[(2, 2)]
    for a in range(4):
        e = np.zeros(4)
        e[a] = 1.0
        ct = ops.K @ represent(rep, e)
        assert np.trace(ct @ ct) / rep.dim == pytest.approx(1.0, abs=1e-13)


def test_symbol_norm_probe_cases(rep11, reps):
    rep, ops = rep11
    axis = symbol_norm_probes(rep, ops, np.array([1.0, 0.0])[None])
    assert abs(axis["norm"][0] - axis["gR_norm"][0]) <= 1e-10
    assert axis["norm"][0] == pytest.approx(1.0)
    # mixed-direction discrepancy: norm 2 vs sqrt(2), recorded not asserted
    mixed = symbol_norm_probes(rep, ops, np.array([1.0, 1.0])[None])
    assert mixed["norm"][0] == pytest.approx(2.0, abs=1e-12)
    assert mixed["gR_norm"][0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert not abs(mixed["norm"][0] - mixed["gR_norm"][0]) <= 1e-10
    # oracle for the mixed case: eigenvalues of c(rk)^dag-free product
    cv = represent(rep, [1.0, 1.0])
    crv = represent(rep, rep.signs * np.array([1.0, 1.0]))
    eigs = np.linalg.eigvals(crv @ cv)
    assert np.max(np.abs(eigs)) == pytest.approx(4.0, abs=1e-12)  # (sqrt a + sqrt b)^2
    # pure positive block in a mixed signature
    rep22, ops22 = reps[(2, 2)]
    k = np.array([0.3, -1.2, 0.0, 0.0])
    probe = symbol_norm_probes(rep22, ops22, k[None])
    assert probe["pure_block"][0]
    assert abs(probe["norm"][0] - probe["gR_norm"][0]) <= 1e-10


def test_twisted_grading_relation(reps):
    # when the Krein side anticommutes with the grading, the twisted side
    # satisfies D Gamma + eps' Gamma D = 0
    from kreintwist.clifford import sign_table

    for (p, q), (rep, ops) in reps.items():
        d, dk = canonical_dirac_pair(rep, ops.K)
        tab = sign_table(rep, ops, d)
        assert tab.eps3K == -1
        assert residual_norm(d @ ops.Gamma + tab.eps_prime * ops.Gamma @ d) <= 1e-12
