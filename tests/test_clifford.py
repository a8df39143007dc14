import itertools

import numpy as np
import pytest

from kreintwist.clifford import (
    PauliString,
    Signature,
    all_signatures,
    build_gammas,
    build_structural,
    canonical_dirac_pair,
    metric_pairing,
    represent,
    sigma_strings,
    sign_table,
    string_product,
    verify_structural,
)
from kreintwist import linalg
from kreintwist.krein import canonical_twisted_triple
from kreintwist.linalg import ShapeError, SignedPermutation, adjoint, residual_norm
from kreintwist.product import assemble_product, build_finite_triple_ko6

from conftest import SIGMA1, SIGMA2, dense_product, phase_scan


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(1, 2)  # odd total dimension
    with pytest.raises(ValueError):
        Signature(-1, 3)
    with pytest.raises(ValueError):
        Signature(0, 0)
    assert Signature(1, 3).m == 2


def test_all_signatures_enumeration():
    sigs = all_signatures()
    assert len(sigs) == 3 + 5 + 7
    assert all((s.p + s.q) in (2, 4, 6) for s in sigs)


def test_euclidean_2d_is_pauli():
    rep = build_gammas(Signature(2, 0))
    assert np.array_equal(rep.gammas[0], SIGMA1)
    assert np.array_equal(rep.gammas[1], SIGMA2)
    assert residual_norm(SIGMA1 @ SIGMA2 + SIGMA2 @ SIGMA1) == 0.0


def test_lorentz_2d_gammas():
    rep = build_gammas(Signature(1, 1))
    assert np.array_equal(rep.gammas[0], SIGMA1)
    assert np.array_equal(rep.gammas[1], 1j * SIGMA2)
    g1 = rep.gammas[1]
    assert np.allclose(g1 @ g1, -np.eye(2))
    for g in rep.gammas:
        assert residual_norm(g @ adjoint(g), np.eye(2)) == 0.0


def test_signature_13_anticommutator_table():
    rep = build_gammas(Signature(1, 3))
    assert rep.dim == 4
    assert list(rep.signs) == [1.0, -1.0, -1.0, -1.0]
    # oracle: loop over all 16 pairs, entrywise comparison
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for a in range(4):
        for b in range(4):
            anti = rep.gammas[a] @ rep.gammas[b] + rep.gammas[b] @ rep.gammas[a]
            assert np.allclose(anti, 2.0 * eta[a, b] * np.eye(4), atol=1e-12)


def test_gamma_dagger_follows_metric_sign(reps):
    for (p, q), (rep, _) in reps.items():
        for a, g in enumerate(rep.gammas):
            assert residual_norm(adjoint(g), rep.signs[a] * g) == 0.0


def test_represent_basis_and_zero(rep11):
    rep, _ = rep11
    e0 = np.array([1.0, 0.0])
    assert np.array_equal(represent(rep, e0), rep.gammas[0])
    assert np.array_equal(represent(rep, np.zeros(2)), np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        represent(rep, np.ones(3))


def test_represent_null_vector_squares_to_zero(rep11):
    # (1,1) with v = (1,1): c(v)^2 = (g0 + g1) I = 0; oracle via anticommutators
    rep, _ = rep11
    v = np.array([1.0, 1.0])
    cv = represent(rep, v)
    expected_square = sum(
        v[a] * v[b] * 0.5 * (rep.gammas[a] @ rep.gammas[b] + rep.gammas[b] @ rep.gammas[a])
        for a in range(2)
        for b in range(2)
    )
    assert np.allclose(cv @ cv, expected_square, atol=1e-14)
    assert np.allclose(cv @ cv, np.zeros((2, 2)), atol=1e-14)
    assert np.allclose(cv, np.array([[0.0, 2.0], [0.0, 0.0]]))


def test_euclidean_twist_is_identity(reps):
    for n in (2, 4, 6):
        rep, ops = reps[(n, 0)]
        assert residual_norm(ops.K, np.eye(rep.dim)) == 0.0


def test_lorentz_13_twist_is_time_gamma(rep13):
    rep, ops = rep13
    # K = gamma_0 up to sign; conjugation flips exactly the spatial gammas
    assert min(
        residual_norm(ops.K, rep.gammas[0]), residual_norm(ops.K, -rep.gammas[0])
    ) == 0.0
    assert residual_norm(ops.K @ rep.gammas[0] @ ops.K, rep.gammas[0]) == 0.0
    for i in (1, 2, 3):
        assert residual_norm(ops.K @ rep.gammas[i] @ ops.K, -rep.gammas[i]) == 0.0


def test_grading_operator_11(rep11):
    rep, ops = rep11
    # Gamma is proportional to gamma_0 gamma_1 with a unit phase fixing
    # Hermiticity; its square is the identity by construction.
    prod = rep.gammas[0] @ rep.gammas[1]
    assert any(
        residual_norm(ops.Gamma, (1j**k) * prod) < 1e-14 for k in range(4)
    )
    assert residual_norm(ops.Gamma @ ops.Gamma, np.eye(2)) == 0.0


def test_structural_residuals_all_signatures(reps):
    for (p, q), (rep, ops) in reps.items():
        res = verify_structural(rep, ops)
        for name, r in res.items():
            assert r <= 1e-12, f"({p},{q}) {name}: {r}"


def test_structural_exact_for_euclidean_2d(reps):
    rep, ops = reps[(2, 0)]
    res = verify_structural(rep, ops)
    assert all(r == 0.0 for r in res.values())


def test_twist_parity_on_random_vectors(reps):
    rng = np.random.default_rng(42)
    for (p, q), (rep, ops) in reps.items():
        for _ in range(100):
            v = rng.normal(size=rep.n_gen)
            lhs = ops.K @ represent(rep, v) @ ops.K
            rhs = represent(rep, rep.signs * v)
            assert residual_norm(lhs, rhs) <= 1e-12


def test_k_is_hermitian_involution(reps):
    for (p, q), (rep, ops) in reps.items():
        assert residual_norm(ops.K, adjoint(ops.K)) == 0.0
        assert residual_norm(ops.K @ ops.K, np.eye(rep.dim)) <= 1e-15


def test_rho_is_involution_on_generators(reps):
    for (p, q), (rep, ops) in reps.items():
        for g in rep.gammas:
            assert residual_norm(ops.K @ (ops.K @ g @ ops.K) @ ops.K, g) == 0.0


def test_trace_metric_identity(reps):
    rng = np.random.default_rng(7)
    for (p, q), (rep, _) in reps.items():
        for _ in range(20):
            u = rng.normal(size=rep.n_gen)
            v = rng.normal(size=rep.n_gen)
            tr = np.trace(represent(rep, u) @ represent(rep, v)) / rep.dim
            assert abs(tr - metric_pairing(rep, u, v)) <= 1e-12


def test_sign_table_euclidean_trivial(reps):
    for n in (2, 4, 6):
        rep, ops = reps[(n, 0)]
        tab = sign_table(rep, ops, canonical_dirac_pair(rep, ops.K)[0])
        assert tab.eps == 1 and tab.eps_prime == 1


def test_sign_table_13_eps_is_minus_one(rep13):
    rep, ops = rep13
    # oracle: explicit K(J psi) vs J(K psi) matrices
    kj = ops.K @ ops.C
    jk = ops.C @ np.conj(ops.K)
    assert residual_norm(kj, -jk) <= 1e-14
    tab = sign_table(rep, ops, canonical_dirac_pair(rep, ops.K)[0])
    assert tab.eps == -1
    assert tab.eps_prime == -1


def test_sign_table_13_is_ko6(rep13):
    rep, ops = rep13
    d, _ = canonical_dirac_pair(rep, ops.K)
    tab = sign_table(rep, ops, d)
    assert tab.pseudo_row() == (1, 1, -1, -1)


def test_sign_cross_relations_all_signatures(reps):
    for (p, q), (rep, ops) in reps.items():
        d, _ = canonical_dirac_pair(rep, ops.K)
        tab = sign_table(rep, ops, d)  # raises if a cross-relation fails
        assert tab.eps1K == tab.eps * tab.eps1
        assert tab.eps3 == tab.eps_prime * tab.eps3K


def test_sign_table_rejects_nonhermitian_dirac(rep13):
    rep, ops = rep13
    with pytest.raises(ValueError):
        sign_table(rep, ops, rep.gammas[1])  # anti-Hermitian


def test_canonical_dirac_pair_properties(reps):
    for (p, q), (rep, ops) in reps.items():
        d, dk = canonical_dirac_pair(rep, ops.K)
        assert residual_norm(d, adjoint(d)) <= 1e-12
        assert residual_norm(dk, ops.K @ adjoint(dk) @ ops.K) <= 1e-12
        # odd Dirac: anticommutes with the grading on the Krein side
        assert residual_norm(dk @ ops.Gamma, -ops.Gamma @ dk) <= 1e-12
        assert residual_norm(ops.K @ dk, d) == 0.0


@pytest.mark.parametrize("pq", [(1, 3), (4, 0)], ids=["p1q3", "p4q0"])
def test_normalized_matches_the_phase_scan(reps, pq):
    rep, _ = reps[pq]
    strings = [h if s > 0 else PauliString(1, 0, 0) @ h
               for h, s in zip(sigma_strings(rep.m), rep.signs)]
    for r in range(rep.n_gen + 1):
        for idx in itertools.combinations(range(rep.n_gen), r):
            k = string_product(strings[a] for a in idx).normalized().matrix(rep.m)
            assert np.array_equal(k, phase_scan(dense_product(rep.gammas, idx))), idx
            assert np.array_equal(k, adjoint(k)) and np.array_equal(k @ k, np.eye(rep.dim))


def _structural_and_product_operators(sig):
    """K, Gamma, C, Chat, J and its inverse of a signature, as built and as
    the twisted triple holds them, and Kp, Gammap, Jp and its inverse of its
    product with the finite KO-6 triple (dimension >= 4)."""
    rep = build_gammas(sig)
    ops = build_structural(rep)
    t = canonical_twisted_triple(rep, ops, canonical_dirac_pair(rep, ops.K)[0])
    out = {"K": ops.K, "Gamma": ops.Gamma, "C": ops.C, "Chat": ops.Chat, "J": ops.J.mat,
           "J^-1": ops.J._mat_inv, "Jhat^-1": ops.Jhat._mat_inv, "triple K": t.K, "triple Gamma": t.Gamma,
           "space K": t.space.K}
    if sig.dim >= 4:
        pt = assemble_product(t, build_finite_triple_ko6(1.0 + 2.0j))
        out.update({"Kp": pt.Kp, "Gammap": pt.Gammap, "Jp": pt.Jp.mat, "Jp^-1": pt.Jp._mat_inv,
                    "product space K": pt.space.K})
    return out


@pytest.mark.parametrize("dim", [2, 4, 6, 8, 10])
def test_structural_operators_are_signed_permutations(dim, monkeypatch):
    # every structural and product operator is a phase times a Pauli string;
    # with the size gate at 1 all of them are classified where they are built
    monkeypatch.setattr(linalg, "GATHER_MIN_DIM", 1)
    for p in range(dim, -1, -1):
        for name, op in _structural_and_product_operators(Signature(p, dim - p)).items():
            assert isinstance(op, SignedPermutation) and op.cols is not None, (p, name)
            assert np.count_nonzero(op) == len(op)
            assert np.array_equal(op[np.arange(len(op)), op.cols], op.phases)
    # at the default gate, exactly the operators of size 32 and more are
    monkeypatch.undo()
    for p in range(dim, -1, -1):
        for name, op in _structural_and_product_operators(Signature(p, dim - p)).items():
            assert isinstance(op, SignedPermutation) == (len(op) >= linalg.GATHER_MIN_DIM), (p, name)
