import dataclasses

import numpy as np
import pytest

from kreintwist.clifford import (
    Signature,
    build_gammas,
    build_structural,
    sign_table,
)
from kreintwist.krein import (
    canonical_twisted_triple,
    sample_spin_plus,
    twisted_commutator,
    twisted_first_order_residual,
)
from kreintwist.linalg import AntilinearOp, ShapeError, SignedPermutation, adjoint, kron, max_norm, residual_norm
from kreintwist.product import (
    ConstraintViolationError,
    assemble_product,
    build_finite_triple_ko6,
    constraint_check_O,
    derivation_split_gaps,
    dirac_mass_shape_check,
    fermionic_action,
    finite_algebra_unitary,
    finite_first_order_residual,
    gauge_vs_form_residual,
    product_fluctuation_gaps,
    signature_emergence,
)

from conftest import dense_product, phase_scan


# ---------------------------------------------------------------- finite side

def test_finite_triple_massless():
    ft = build_finite_triple_ko6(0.0)
    assert np.array_equal(ft.DF, np.zeros((4, 4)))


def test_finite_triple_signs_by_hand():
    ft = build_finite_triple_ko6(1.0)
    # J DF = DF J checked entrywise: P conj(DF) against DF P
    lhs = ft.JF.mat @ np.conj(ft.DF)
    rhs = ft.DF @ ft.JF.mat
    assert np.array_equal(lhs, rhs)
    ft2 = build_finite_triple_ko6(1.0 + 2.0j)
    assert residual_norm(ft2.GammaF @ ft2.DF + ft2.DF @ ft2.GammaF) == 0.0
    assert residual_norm(ft2.JF.square(), np.eye(4)) == 0.0


def test_finite_first_order_with_nonzero_commutator():
    ft = build_finite_triple_ko6(1.0 + 2.0j)
    p1, p2 = ft.algebra_gens
    assert residual_norm(ft.DF @ p1 - p1 @ ft.DF) > 1.0  # derivation is nonzero
    assert finite_first_order_residual(ft) <= 1e-14


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("mass", [complex(np.inf, 0.0), complex(np.nan, 0.0)])
def test_finite_triple_with_a_nonfinite_mass_is_rejected(mass):
    # the KO-6 residuals of such a DF are NaN, which no threshold guard accepts
    with pytest.raises(ConstraintViolationError):
        build_finite_triple_ko6(mass)


def test_finite_triple_checks_its_operands_at_entry():
    ko6 = build_finite_triple_ko6(1.0 + 2.0j)
    nan_df = ko6.DF.copy()
    nan_df[0, 1] = np.nan
    with pytest.raises(ValueError, match="NaN/Inf"):
        dataclasses.replace(ko6, DF=nan_df)
    with pytest.raises(ValueError, match="NaN/Inf"):
        dataclasses.replace(ko6, algebra_gens=(ko6.algebra_gens[0], np.full((4, 4), np.inf)))
    with pytest.raises(ShapeError):
        dataclasses.replace(ko6, dimF=3)
    with pytest.raises(ShapeError):
        dataclasses.replace(ko6, GammaF=np.ones(4))
    # a list DF is coerced to the complex matrix the kernels expect
    listed = dataclasses.replace(ko6, DF=ko6.DF.tolist())
    assert listed.DF.dtype == np.complex128 and np.array_equal(listed.DF, ko6.DF)
    assert finite_first_order_residual(listed) == finite_first_order_residual(ko6)


def test_two_dim_mass_block_violates_first_order():
    # the single 2x2 mass block with a faithfully acting two-point algebra
    # breaks the first-order condition; this is why the finite model needs
    # the two conjugate blocks
    m = 1.0 + 2.0j
    df = np.array([[0, np.conj(m)], [m, 0]])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    jf = AntilinearOp(swap)
    a = np.diag([1.0, 0.0])
    b = np.diag([1.0, 0.0])
    b_op = jf.sandwich(adjoint(b))
    comm = df @ a - a @ df
    resid = residual_norm(comm @ b_op - b_op @ comm)
    assert resid > 1.0


def test_finite_algebra_unitary():
    ft = build_finite_triple_ko6(1.0)
    u = finite_algebra_unitary(ft, 0.3, 1.2)
    assert residual_norm(u @ adjoint(u), np.eye(4)) <= 1e-15
    # stays inside the represented algebra: diag(a1, a2, a2, a2) pattern
    d = np.diag(u)
    assert d[1] == d[2] == d[3]


# ------------------------------------------------------------ O-constraints

def test_o_constraint_k_passes(rep13, pair13):
    rep, ops = rep13
    tab = sign_table(rep, ops, pair13.twisted.D)
    res = constraint_check_O(ops.K, ops.J, ops.Gamma, tab.eps, tab.eps_prime)
    assert all(r <= 1e-12 for r in res.values())


def test_o_constraint_identity_trivial(rep13):
    rep, ops = rep13
    res = constraint_check_O(np.eye(4), ops.J, ops.Gamma, 1, 1)
    assert all(r <= 1e-12 for r in res.values())


def test_o_constraint_gamma_control_fails(rep13, pair13):
    rep, ops = rep13
    tab = sign_table(rep, ops, pair13.twisted.D)
    res = constraint_check_O(ops.Gamma, ops.J, ops.Gamma, tab.eps, tab.eps_prime)
    assert max(res.values()) > 0.5


# ------------------------------------------------------------- product data

def test_product_invariants(product13, pair13, finite_ko6):
    pt = product13
    m = pair13.twisted
    eye_f = np.eye(4)
    assert residual_norm(pt.Dp, kron(m.D, eye_f) + kron(m.K, finite_ko6.DF)) == 0.0
    assert residual_norm(pt.Jp.mat, kron(m.J.mat, finite_ko6.JF.mat)) == 0.0
    assert residual_norm(pt.Gammap, kron(m.Gamma, finite_ko6.GammaF)) == 0.0
    assert residual_norm(pt.Kp, kron(m.K, eye_f)) == 0.0
    grading = pt.Dp @ pt.Gammap + pt.Kp @ pt.Gammap @ pt.Kp @ pt.Dp
    assert residual_norm(grading) <= 1e-11


def test_product_grading_oracle(product13, pair13, rep13, finite_ko6):
    # oracle: expand with D Gamma = eps3 Gamma D and GammaF DF = -DF GammaF
    rep, ops = rep13
    pt = product13
    m = pair13.twisted
    tab = sign_table(rep, ops, m.D)
    assert tab.eps3 == 1  # manifold Dirac commutes with the grading here
    assert tab.eps_prime == -1
    # so Kp Gammap Kp = -Gammap and the twisted bracket is the commutator
    assert residual_norm(pt.Kp @ pt.Gammap @ pt.Kp, -pt.Gammap) == 0.0
    assert residual_norm(pt.Dp @ pt.Gammap - pt.Gammap @ pt.Dp) <= 1e-12


def test_kp_rewrite(product13, pair13, finite_ko6):
    pt = product13
    m = pair13.twisted
    dk = m.K @ m.D
    rhs = pt.Kp @ (kron(dk, np.eye(4)) + kron(np.eye(4), finite_ko6.DF))
    assert residual_norm(pt.Dp, rhs) <= 1e-14


def test_massless_product_keeps_manifold_dirac_rows(pair13):
    ft0 = build_finite_triple_ko6(0.0)
    pt0 = assemble_product(pair13.twisted, ft0)
    assert residual_norm(pt0.Dp, kron(pair13.twisted.D, np.eye(4))) == 0.0
    rep = build_gammas(Signature(1, 3))
    ops = build_structural(rep)
    tab = sign_table(rep, ops, pair13.twisted.D)
    # Dirac rows of the product match the manifold values when DF = 0
    assert pt0.sign_row[1] == tab.eps1
    assert pt0.sign_row[3] == tab.eps3


def test_product_triple_data_validates_its_operators(product13, finite_ko6):
    nan_entry = np.array(product13.Dp)
    nan_entry[0, 1] = np.nan
    for name in ("Dp", "Gammap", "Kp"):
        with pytest.raises(ValueError, match="NaN"):
            dataclasses.replace(product13, **{name: nan_entry})
        with pytest.raises(ShapeError):
            dataclasses.replace(product13, **{name: np.eye(8)})
    listed = dataclasses.replace(product13, Dp=product13.Dp.tolist())
    assert listed.Dp.dtype == np.complex128 and np.array_equal(listed.Dp, product13.Dp)
    # classified signed permutations pass through as they are
    rep = build_gammas(Signature(2, 6))
    ops = build_structural(rep)
    t = canonical_twisted_triple(rep, ops, np.zeros((rep.dim, rep.dim)))
    pt = assemble_product(t, finite_ko6)
    assert isinstance(pt.Kp, SignedPermutation) and isinstance(pt.Gammap, SignedPermutation)
    assert dataclasses.replace(pt).Kp is pt.Kp and pt.space.K is pt.Kp


def test_product_sign_row(product13):
    # measured composite row for the (1,3) x finite model
    assert product13.sign_row == (1, -1, 1, 1)


# ------------------------------------------------------ derivations & forms

def test_derivation_split_trivials(product13):
    eye4 = np.eye(4)
    assert residual_norm(derivation_split_gaps(product13, eye4, eye4)) <= 1e-14


def test_derivation_split_finite_only(product13, finite_ko6):
    # a1 = 1: the twisted commutator reduces to K (x) [DF, a2]
    eye4 = np.eye(4)
    for a2 in finite_ko6.algebra_gens:
        lhs = twisted_commutator(product13.Dp, kron(eye4, a2), product13.Kp)
        want = kron(
            product13.manifold.K, finite_ko6.DF @ a2 - a2 @ finite_ko6.DF
        )
        assert residual_norm(lhs, want) <= 1e-14
        assert residual_norm(derivation_split_gaps(product13, eye4, a2)) <= 1e-14


def test_derivation_split_full_expansion(product13, finite_ko6):
    # oracle: expand both sides in full tensor coordinates
    rng = np.random.default_rng(12)
    m = product13.manifold
    for _ in range(5):
        a1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for a2 in finite_ko6.algebra_gens:
            lhs = twisted_commutator(product13.Dp, kron(a1, a2), product13.Kp)
            oracle = (
                kron(m.D @ a1, a2)
                + kron(m.K @ a1, finite_ko6.DF @ a2)
                - kron(m.K @ a1 @ m.K @ m.D, a2)
                - kron(m.K @ a1, a2 @ finite_ko6.DF)
            )
            assert residual_norm(lhs, oracle) <= 1e-13
            assert residual_norm(derivation_split_gaps(product13, a1, a2)) <= 1e-12


def test_product_first_order(product13, finite_ko6):
    eye4 = np.eye(4)
    for a2 in finite_ko6.algebra_gens:
        for b2 in finite_ko6.algebra_gens:
            r = twisted_first_order_residual(
                product13.Dp,
                kron(eye4, a2),
                kron(eye4, b2),
                product13.Jp,
                product13.Kp,
            )
            assert r <= 1e-12


def test_product_fluctuation(product13, rep13):
    rep, _ = rep13
    rng = np.random.default_rng(2)
    assert max_norm(product_fluctuation_gaps(product13, np.eye(4), np.eye(4))) <= 1e-14
    # finite-only fluctuation with an algebra phase
    u_phase = finite_algebra_unitary(product13.finite, 0.8, -0.4)
    assert max_norm(product_fluctuation_gaps(product13, np.eye(4), u_phase)) <= 1e-12
    for s in sample_spin_plus(rep, 10, np.random.default_rng(41)):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(z)
        assert max_norm(product_fluctuation_gaps(product13, s.matrix, u)) <= 1e-10


def test_product_fluctuation_rejects_nonunitary(product13):
    with pytest.raises(ConstraintViolationError):
        product_fluctuation_gaps(product13, np.eye(4), 2.0 * np.eye(4))


# --------------------------------------------------------- fermionic pairing

def test_fermionic_action_splits(product13):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        psi1, phi1 = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
        psi2, phi2 = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
        out = fermionic_action(product13, psi1, psi2, phi1, phi2)
        worst = max(worst, out["residual"])
    assert worst <= 1e-12


def test_fermionic_action_massless_reduces_to_kinetic(pair13):
    ft0 = build_finite_triple_ko6(0.0)
    pt0 = assemble_product(pair13.twisted, ft0)
    rng = np.random.default_rng(4)
    psi1, phi1 = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
    psi2, phi2 = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
    out = fermionic_action(pt0, psi1, psi2, phi1, phi2)
    dk = pair13.twisted.K @ pair13.twisted.D
    kinetic = complex(np.vdot(psi1, pair13.twisted.K @ (dk @ phi1))) * complex(
        np.vdot(psi2, phi2)
    )
    assert out["lhs"] == pytest.approx(kinetic, abs=1e-12)


def test_fermionic_action_mass_term_survival(pair13, finite_ko6):
    # zero manifold Dirac: only the mass pairing survives
    t0 = canonical_twisted_triple(
        build_gammas(Signature(1, 3)),
        build_structural(build_gammas(Signature(1, 3))),
        np.zeros((4, 4)),
    )
    pt = assemble_product(t0, finite_ko6)
    rng = np.random.default_rng(5)
    psi1, phi1 = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
    psi2 = np.array([1.0, 0, 0, 0])
    phi2 = np.array([0, 1.0, 0, 0])
    out = fermionic_action(pt, psi1, psi2, phi1, phi2)
    # finite factor is the DF entry <e1, DF e2> = conj(mass)
    want = complex(np.vdot(psi1, t0.K @ phi1)) * np.conj(1.0 + 2.0j)
    assert out["lhs"] == pytest.approx(want, abs=1e-12)


def test_dirac_mass_shape(product13):
    assert dirac_mass_shape_check(product13, np.random.default_rng(23)) <= 1e-12
    ft0 = build_finite_triple_ko6(0.0)
    pt0 = assemble_product(product13.manifold, ft0)
    assert dirac_mass_shape_check(pt0, np.random.default_rng(23)) == 0.0


# ----------------------------------------------------------- gauge vs form

def test_gauge_vs_form_on_algebra_unitaries(product13):
    rng = np.random.default_rng(6)
    for _ in range(5):
        th1, th2, lam = rng.uniform(0, 2 * np.pi, size=3)
        u_f = finite_algebra_unitary(product13.finite, th1, th2)
        r = gauge_vs_form_residual(product13, np.exp(1j * lam) * np.eye(4), u_f)
        assert r <= 1e-10


def test_gauge_vs_form_fails_off_axioms(product13, rep13):
    # a boost-type K-unitary is not an algebra gauge element: the first-order
    # condition does not protect the one-form formula and the two
    # constructions genuinely differ
    rep, _ = rep13
    boost = sample_spin_plus(rep, 3, np.random.default_rng(77))[1].matrix
    if residual_norm(boost @ adjoint(boost), np.eye(4)) < 1e-9:
        boost = sample_spin_plus(rep, 6, np.random.default_rng(91))[4].matrix
    r = gauge_vs_form_residual(product13, boost, np.eye(4))
    assert r > 1e-8


# ------------------------------------------------------------- emergence

@pytest.fixture(scope="module")
def emergence_rows():
    rep4 = build_gammas(Signature(4, 0))
    return signature_emergence(rep4, build_structural(rep4))


def test_emergence_enumerates_sixteen(emergence_rows):
    assert len(emergence_rows) == 16
    by_grade = [sum(1 for r in emergence_rows if r.grade == g) for g in range(5)]
    assert by_grade == [1, 4, 6, 4, 1]
    assert all(r.diag_scalar_residual <= 1e-12 for r in emergence_rows)


def test_emergence_riemannian_row(emergence_rows):
    row = next(r for r in emergence_rows if r.grade == 0)
    assert row.signature == (1, 1, 1, 1)
    assert row.eps == 1 and row.eps_prime == 1


def test_emergence_time_gamma_row(emergence_rows):
    row = next(r for r in emergence_rows if r.indices == (0,))
    assert row.signature == (1, -1, -1, -1)
    assert row.eps == -1
    assert (row.eps0_emergent, row.eps2_emergent) == (1, -1)


def test_emergence_grade3_row_oracle(emergence_rows):
    # independent oracle for one grade-3 candidate: direct anticommutators
    rep4 = build_gammas(Signature(4, 0))
    k = phase_scan(dense_product(rep4.hat_gammas, (1, 2, 3)))
    diag = []
    for a in range(4):
        gk = k @ rep4.hat_gammas[a]
        anti = gk @ gk  # half the anticommutator of gk with itself
        diag.append(1 if np.allclose(anti, np.eye(4)) else -1)
    assert diag == [-1, 1, 1, 1]
    row = next(r for r in emergence_rows if r.indices == (1, 2, 3))
    assert row.signature == tuple(diag)
    assert row.eps == 1
    assert row.plus_count == 3


def test_emergence_epsilon_signature_map(emergence_rows):
    odd = [r for r in emergence_rows if r.eps_prime == -1]
    lorentzian = [r for r in odd if r.eps == -1]
    anti_lorentzian = [r for r in odd if r.eps == 1]
    ko6 = [r for r in emergence_rows if (r.eps0_emergent, r.eps2_emergent) == (1, -1)]
    assert len(odd) == 8
    assert len(lorentzian) == 4
    assert all(r.plus_count == 1 for r in lorentzian)
    assert len(anti_lorentzian) == 4
    assert all(r.plus_count == 3 for r in anti_lorentzian)
    assert len(ko6) == 4
    assert all(r.grade == 1 and r.plus_count == 1 for r in ko6)
    assert any(r.grade == 0 and r.signature == (1, 1, 1, 1) and r.eps == 1 for r in emergence_rows)


def test_emergence_even_grades_excluded(emergence_rows):
    # eps' = +1 (the candidate commutes with the grading) exactly on the even grades
    for row in emergence_rows:
        assert (row.eps_prime == 1) == (row.grade % 2 == 0)


def test_emergence_rejects_wrong_signature():
    rep = build_gammas(Signature(1, 3))
    with pytest.raises(ValueError):
        signature_emergence(rep, build_structural(rep))
