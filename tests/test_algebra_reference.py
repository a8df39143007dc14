"""The generator-table kernels against loop-wise references, bit for bit.

The references below are the loops the kernels were first written as: one
``residual_norm`` (one SVD) per generator or generator pair, in loop order,
with a running maximum.  The kernels evaluate each identity as stacked
tables (``linalg.table_norm``) and must give exactly the same floating-point
results, on the built operators of every signature of dimension 2-10 and on
perturbed operators whose residuals are nonzero, where a changed
association of any product shows in the last bits.
"""

import itertools

import numpy as np
import pytest

from kreintwist import linalg
from kreintwist import suites as su
from kreintwist.clifford import (
    CliffordRep,
    Signature,
    StructuralOps,
    all_signatures,
    build_gammas,
    build_structural,
)
from kreintwist.krein import twisted_first_order_residual
from kreintwist.linalg import TABLE_ENTRIES, AntilinearOp, sign_of_pair
from kreintwist.morphism import generalized_clifford_check
from kreintwist.product import (
    FiniteTriple,
    build_finite_triple_ko6,
    finite_first_order_residual,
    finite_ko6_residuals,
    signature_emergence,
)

from conftest import STRUCTURAL_ROWS, TABLE_ROWS, clifford_rows, dense_product, kron_gammas, phase_scan

SIGS = all_signatures((2, 4, 6, 8, 10))
NOISE = 1e-3


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


# ---------------------------------------------------------------- references

def _rn(a, b=None):
    m = np.asarray(a, dtype=np.complex128)
    if b is not None:
        m = m - np.asarray(b, dtype=np.complex128)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _adj(a):
    return np.conj(a).T


def _sandwich(j, a):
    return j.mat @ np.conj(a) @ np.linalg.inv(j.mat)


def ref_relation_residuals(rep):
    eye = np.eye(rep.dim)
    gam = rep.gammas
    anticomm = 0.0
    for a in range(rep.n_gen):
        for b in range(rep.n_gen):
            target = 2.0 * rep.signs[a] * eye if a == b else np.zeros_like(eye)
            anticomm = max(anticomm, _rn(gam[a] @ gam[b] + gam[b] @ gam[a], target))
    return anticomm, max(_rn(g @ _adj(g), eye) for g in gam)


def ref_verify_structural(rep, ops):
    k_inv, g_inv = ops.K, ops.Gamma
    c_inv, chat_inv = np.linalg.inv(ops.C), np.linalg.inv(ops.Chat)
    out = {
        "charge_conjugation": max(_rn(ops.C @ g @ c_inv, -np.conj(g)) for g in rep.gammas),
        "c_equals_k_chat": _rn(ops.C, ops.K @ ops.Chat),
    }
    r_kappa = 0.0
    for g in rep.gammas:
        for x in (g, np.conj(g)):
            lhs = ops.C @ x @ c_inv
            rhs = ops.Chat @ (ops.K @ x @ k_inv) @ chat_inv
            r_kappa = max(r_kappa, _rn(lhs, rhs))
    out["kappa_factorization"] = r_kappa

    def rho(x):
        return ops.K @ x @ k_inv

    def chi(x):
        return ops.Gamma @ x @ g_inv

    def kap(x):
        return ops.C @ x @ c_inv

    r_comm = 0.0
    for g in rep.gammas:
        r_comm = max(r_comm, _rn(rho(chi(g)), chi(rho(g))))
        r_comm = max(r_comm, _rn(rho(kap(g)), kap(rho(g))))
        r_comm = max(r_comm, _rn(kap(chi(g)), chi(kap(g))))
    out["automorphism_commutation"] = r_comm
    return out


def ref_generalized_clifford(rep, ops):
    eye = np.eye(rep.dim)
    worst = 0.0
    gt = [ops.K @ g for g in rep.gammas]
    for a in range(rep.n_gen):
        for b in range(rep.n_gen):
            s_ab = rep.signs[a] * rep.signs[b]
            target = 2.0 * eye if a == b else np.zeros_like(eye)
            worst = max(worst, _rn(gt[a] @ gt[b] + s_ab * gt[b] @ gt[a], target))
    return worst


def ref_gamma_rows(rep, ops):
    K = ops.K
    return {
        "gamma_dagger_sign": max(_rn(_adj(g), rep.signs[a] * g) for a, g in enumerate(rep.gammas)),
        "rho_involution": max(_rn(K @ (K @ g @ K) @ K, g) for g in rep.gammas),
    }


def ref_finite_pairs(t):
    """(order zero, first order) of a finite triple."""
    eye = np.eye(t.dimF)
    order_zero, first_order = [], 0.0
    for a in t.algebra_gens:
        for b in t.algebra_gens:
            b_op = _sandwich(t.JF, _adj(b))
            order_zero.append(_rn(a @ b_op - b_op @ a, 0 * eye))
            da = t.DF @ a - a @ t.DF
            first_order = max(first_order, _rn(da @ b_op - b_op @ da))
    return max(order_zero), first_order


def ref_twisted_first_order(d, pairs, j, K):
    worst = 0.0
    for a, b in pairs:
        x = d @ a - K @ a @ K @ d
        b_op = _sandwich(j, _adj(b))
        rho_b_op = _sandwich(j, _adj(K @ b @ K))
        worst = max(worst, _rn(x @ b_op - rho_b_op @ x))
    return worst


def ref_emergence_diagonals(rep4):
    """The candidates' diagonal residuals; each candidate is the phase-scanned
    product of the exact (4,0) sigma strings, so noise enters through the
    hats of ``rep4`` alone."""
    eye, exact = np.eye(rep4.dim), kron_gammas(2)
    out = []
    for r in range(5):
        for subset in itertools.combinations(range(4), r):
            k_cand = phase_scan(dense_product(exact, subset))
            diag_resid = 0.0
            for a in range(4):
                gk = k_cand @ rep4.hat_gammas[a]
                sq = gk @ gk
                tau = sign_of_pair(sq, eye)
                diag_resid = max(diag_resid, _rn(sq, tau * eye))
            out.append(diag_resid)
    return out


# ---------------------------------------------------------------- operators

def _noisy(m, rng, scale):
    return m + scale * (rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape))


def _operators(sig, perturbed, scale=NOISE):
    """The built gammas and structural operators of ``sig``, or copies of them
    with complex Gaussian noise of size ``scale``."""
    rep = build_gammas(sig)
    ops = build_structural(rep)
    if not perturbed:
        return rep, ops
    rng = np.random.default_rng([sig.p, sig.q])
    rep = CliffordRep(sig, rep.m, tuple(_noisy(g, rng, scale) for g in rep.gammas), rep.signs,
                      tuple(_noisy(h, rng, scale) for h in rep.hat_gammas))
    K, Gamma, C, Chat = (_noisy(x, rng, scale) for x in (ops.K, ops.Gamma, ops.C, ops.Chat))
    return rep, StructuralOps(K, Gamma, C, Chat, AntilinearOp(C), AntilinearOp(Chat))


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("perturbed", [False, True], ids=["built", "perturbed"])
@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_generator_tables_match_loops(sig, perturbed):
    rep, ops = _operators(sig, perturbed)
    want = dict(zip(("anticommutator_table", "gamma_unitarity"), ref_relation_residuals(rep)),
                **ref_verify_structural(rep, ops), **ref_gamma_rows(rep, ops))
    got = clifford_rows(rep, ops, want)
    assert sorted(got) == sorted(want)
    for key in want:
        assert bits(got[key]) == bits(want[key]), key
    if perturbed:
        assert all(want[key] > 0 for key in STRUCTURAL_ROWS)

    got = generalized_clifford_check(rep, ops)
    assert bits(got) == bits(ref_generalized_clifford(rep, ops))


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_first_order_over_pairs_matches_loops(sig):
    rep, ops = _operators(sig, perturbed=True)
    rng = np.random.default_rng([sig.p, sig.q, 1])
    d = _noisy(rep.gammas[0] @ rep.gammas[1], rng, 1.0)
    gens = [_noisy(np.eye(rep.dim), rng, 0.5) for _ in range(5)]
    pairs = [(a, b) for a in gens for b in gens]
    a, b = (np.array(side) for side in zip(*pairs))
    got = twisted_first_order_residual(d, a, b, ops.J, ops.K)
    assert got > 0
    assert bits(got) == bits(ref_twisted_first_order(d, pairs, ops.J, ops.K))
    single = twisted_first_order_residual(d, pairs[1][0], pairs[1][1], ops.J, ops.K)
    assert bits(single) == bits(ref_twisted_first_order(d, pairs[1:2], ops.J, ops.K))

    ctx = su.SignatureContext(sig)
    t = ctx.triple
    want = ref_twisted_first_order(t.D, [(x, y) for x in t.algebra_gens for y in t.algebra_gens],
                                   t.J, t.K)
    assert bits(su._first_order_scalars(ctx)) == bits(want)


def test_product_first_order_matches_loop():
    ctx = su.SignatureContext(Signature(1, 3))
    pt, eye_m, gens = ctx.product, np.eye(ctx.rep.dim), ctx.finite.algebra_gens
    pairs = [(np.kron(eye_m, a2), np.kron(eye_m, b2)) for a2 in gens for b2 in gens]
    pairs += [(np.kron(lam * eye_m, a2), np.kron(eye_m, a2)) for lam in (1.0, 0.3 + 0.4j)
              for a2 in gens]
    want = ref_twisted_first_order(pt.Dp, pairs, pt.Jp, pt.Kp)
    assert bits(su._product_first_order(ctx)) == bits(want)


@pytest.mark.parametrize("perturbed", [False, True], ids=["built", "perturbed"])
def test_finite_pair_tables_match_loops(perturbed):
    t = build_finite_triple_ko6(1.0 + 2.0j)
    if perturbed:
        rng = np.random.default_rng(3)
        t = FiniteTriple(tuple(_noisy(a, rng, NOISE) for a in t.algebra_gens), t.dimF,
                         _noisy(t.DF, rng, NOISE), AntilinearOp(_noisy(t.JF.mat, rng, NOISE)),
                         t.GammaF)
    order_zero, first_order = ref_finite_pairs(t)
    assert bits(finite_ko6_residuals(t)["order zero"]) == bits(order_zero)
    assert bits(finite_first_order_residual(t)) == bits(first_order)
    assert (order_zero > 0 and first_order > 0) == perturbed


@pytest.mark.parametrize("scale", [0.0, 1e-14])
def test_emergence_diagonals_match_loops(scale):
    # noise far below the 1e-12 sign tolerance keeps every candidate measurable
    rep4, ops = _operators(Signature(4, 0), perturbed=scale > 0, scale=scale)
    got = [row.diag_scalar_residual for row in signature_emergence(rep4, ops)]
    want = ref_emergence_diagonals(rep4)
    assert bits(got) == bits(want)
    assert any(w > 0 for w in want) == (scale > 0)


@pytest.mark.parametrize("sig", [Signature(5, 5), Signature(6, 6)], ids=str)
def test_tables_stay_within_the_table_cap(sig, monkeypatch):
    normed = []

    def capped(a):
        normed.append(np.asarray(a).size)
        return np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)[..., 0]

    monkeypatch.setattr(linalg, "op_norms", capped)
    rep, ops = _operators(sig, perturbed=False)
    clifford_rows(rep, ops, STRUCTURAL_ROWS + TABLE_ROWS)
    generalized_clifford_check(rep, ops)
    assert normed and max(normed) <= TABLE_ENTRIES
