"""Batched residual engine against per-sample reference loops.

Every sampled check evaluates stacks of samples.  The reference loops below
draw and evaluate one sample at a time with plain numpy, the way the checks
were first written.  The batched check must leave its generator in the same
state and find the same residual: bit for bit where the per-sample
arithmetic is unchanged, within 1e-2 of the tolerance where the K-product
now sums in another order than ``np.vdot``.
"""

import numpy as np
import pytest

from kreintwist import suites as su
from kreintwist.clifford import Signature, all_signatures, build_gammas, represent, represent_stack
from kreintwist.krein import NotKUnitaryError, sample_spin_plus
from kreintwist.linalg import STACK_ENTRIES, AntilinearOp, chunk_sizes, gaussian_stacks
from kreintwist.morphism import fluctuation_correspondence_residuals, trace_metric_morph_check
from kreintwist.report import DEFAULT_TOLERANCES, SuiteConfig
from kreintwist.suites import run

SIGS = [(s.p, s.q) for s in all_signatures()] + [(4, 4), (5, 5)]
AGREE = 1e-2  # allowed |batched - loop| as a fraction of the tolerance


@pytest.fixture(scope="module")
def contexts():
    return {sig: su.SignatureContext(Signature(*sig)) for sig in SIGS}


# ---------------------------------------------------------------- references

def _c(rep, v):
    out = np.zeros((rep.dim, rep.dim), dtype=np.complex128)
    for coeff, g in zip(np.asarray(v, dtype=np.complex128), rep.gammas):
        out += coeff * g
    return out


def _g(rep, u, v):
    return complex(np.sum(rep.signs * np.asarray(u, dtype=np.complex128) * np.asarray(v, dtype=np.complex128)))


def _norm(m):
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _cvec(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _cmat(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _kprod(K, psi, phi):
    return complex(np.vdot(psi, K @ phi))


def _kadj(K, o):
    return K @ np.conj(o).T @ K


def _tc(D, a, K):
    return D @ a - K @ a @ K @ D


def _sandwich(J, a):
    return J.mat @ np.conj(a) @ np.linalg.inv(J.mat)


def ref_twist_parity(ctx, rng):
    rep, K = ctx.rep, ctx.ops.K
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=rep.n_gen)
        worst = max(worst, _norm(K @ _c(rep, v) @ K - _c(rep, rep.signs * v)))
    return worst


def ref_trace_metric(ctx, rng):
    rep = ctx.rep
    worst = 0.0
    for _ in range(50):
        u = rng.normal(size=rep.n_gen)
        v = rng.normal(size=rep.n_gen)
        worst = max(worst, abs(np.trace(_c(rep, u) @ _c(rep, v)) / rep.dim - _g(rep, u, v)))
    return worst


def ref_k_product_hermitian(ctx, rng):
    K, d = ctx.ops.K, ctx.rep.dim
    worst = 0.0
    for _ in range(50):
        a, b = _cvec(rng, d), _cvec(rng, d)
        worst = max(worst, abs(_kprod(K, a, b) - np.conj(_kprod(K, b, a))))
    return worst


def ref_adjoint_pairing(ctx, rng):
    K, d = ctx.ops.K, ctx.rep.dim
    worst = 0.0
    for _ in range(100):
        psi, phi, o = _cvec(rng, d), _cvec(rng, d), _cmat(rng, d)
        worst = max(worst, abs(_kprod(K, psi, o @ phi) - _kprod(K, _kadj(K, o) @ psi, phi)))
    return worst


def ref_spin_inverse_rule(ctx, spins):
    K = ctx.ops.K
    return max(_norm(np.linalg.inv(s.matrix) - _kadj(K, s.matrix)) for s in spins)


def ref_spin_k_unitarity(ctx, spins):
    eye = np.eye(ctx.rep.dim)
    worst = 0.0
    for s in spins:
        plus = _kadj(ctx.ops.K, s.matrix)
        worst = max(worst, _norm(s.matrix @ plus - eye), _norm(plus @ s.matrix - eye))
    return worst


def ref_spin_product_invariance(ctx, spins, rng):
    K, d = ctx.ops.K, ctx.rep.dim
    worst = 0.0
    for s in spins:
        psi, phi = _cvec(rng, d), _cvec(rng, d)
        worst = max(worst, abs(_kprod(K, s.matrix @ psi, s.matrix @ phi) - _kprod(K, psi, phi)))
    return worst


def ref_k_fixed_under_spin(ctx, spins):
    K = ctx.ops.K
    return max(_norm(np.conj(s.matrix).T @ K @ s.matrix - K) for s in spins)


def ref_twisted_leibniz(ctx, rng):
    t, d = ctx.triple, ctx.rep.dim
    worst = 0.0
    for _ in range(20):
        a, b = _cmat(rng, d), _cmat(rng, d)
        lhs = _tc(t.D, a @ b, t.K)
        rhs = _tc(t.D, a, t.K) @ b + t.K @ a @ t.K @ _tc(t.D, b, t.K)
        worst = max(worst, _norm(lhs - rhs))
    return worst


def ref_bimodule_action(ctx, rng):
    t, d = ctx.triple, ctx.rep.dim
    rho = lambda x: t.K @ x @ t.K
    worst = 0.0
    for _ in range(10):
        a, b, c = _cmat(rng, d), _cmat(rng, d), _cmat(rng, d)
        lhs = rho(a) @ _tc(t.D, b, t.K) @ c
        rhs = rho(a) @ (_tc(t.D, b @ c, t.K) - rho(b) @ _tc(t.D, c, t.K))
        worst = max(worst, _norm(lhs - rhs))
    return worst


def ref_commutator_correspondence(ctx, rng):
    t, dk, d = ctx.triple, ctx.pair.pseudo.Dk, ctx.rep.dim
    worst = 0.0
    for _ in range(20):
        a = _cmat(rng, d)
        worst = max(worst, _norm(t.K @ _tc(t.D, a, t.K) - (dk @ a - a @ dk)))
    return worst


def ref_first_order_correspondence(ctx, rng):
    t, dk, d = ctx.triple, ctx.pair.pseudo.Dk, ctx.rep.dim
    K = t.K
    worst = 0.0
    for _ in range(10):
        a, b = _cmat(rng, d), _cmat(rng, d)
        x = _tc(t.D, a, K)
        b_op = _sandwich(t.J, np.conj(b).T)
        rho_b_op = _sandwich(t.J, np.conj(K @ b @ K).T)
        comm = dk @ a - a @ dk
        lhs = x @ b_op - rho_b_op @ x
        worst = max(worst, _norm(lhs - K @ (comm @ b_op - b_op @ comm)))
    return worst


def ref_fluctuation_correspondence(ctx, spins):
    t, dk = ctx.triple, ctx.pair.pseudo.Dk
    K = t.K
    worst = 0.0
    for s in spins:
        big_u = s.matrix @ _sandwich(t.J, s.matrix)
        v_k = K @ big_u @ K
        lhs = big_u @ dk @ _kadj(K, big_u)
        rhs = K @ (v_k @ t.D @ np.conj(v_k).T)
        rho_u = K @ s.matrix @ K
        worst = max(worst, _norm(lhs - rhs), _norm(v_k - rho_u @ _sandwich(t.J, rho_u)))
    return worst


def ref_twisted_clifford(ctx, rng):
    rep, K = ctx.rep, ctx.ops.K
    worst = 0.0
    for _ in range(100):
        u = rng.normal(size=rep.n_gen)
        v = rng.normal(size=rep.n_gen)
        cu, cv = K @ _c(rep, u), K @ _c(rep, v)
        lhs = K @ (cu @ cv) @ K + cv @ cu
        worst = max(worst, _norm(lhs - 2.0 * _g(rep, u, rep.signs * v) * np.eye(rep.dim)))
    return worst


def ref_symbol_norm_pure_block(ctx, rng):
    rep, K = ctx.rep, ctx.ops.K
    p, q = rep.sig.p, rep.sig.q

    def gap(k):
        g_r = float(np.real(_g(rep, k, rep.signs * k)))
        return abs(_norm(K @ _c(rep, k)) - np.sqrt(max(g_r, 0.0)))

    worst = max(gap(e) for e in np.eye(rep.n_gen))
    for _ in range(10):
        k = np.zeros(rep.n_gen)
        if rng.uniform() < 0.5 and p > 0:
            k[:p] = rng.normal(size=p)
        elif q > 0:
            k[p:] = rng.normal(size=q)
        else:
            k[:p] = rng.normal(size=p)
        if min(np.sum(k[rep.signs > 0] ** 2), np.sum(k[rep.signs < 0] ** 2)) < 1e-14:
            worst = max(worst, gap(k))
    return worst


def ref_trace_metric_morph(ctx, rng):
    rep, K = ctx.rep, ctx.ops.K
    worst = 0.0
    for _ in range(100):
        u = rng.normal(size=rep.n_gen)
        v = rng.normal(size=rep.n_gen)
        plain = np.trace(_c(rep, u) @ _c(rep, v)) / rep.dim
        twisted = np.trace((K @ _c(rep, u)) @ (K @ _c(rep, v))) / rep.dim
        worst = max(worst, abs(plain - _g(rep, u, v)), abs(twisted - _g(rep, rep.signs * u, v)))
    return worst


# (batched check, reference loop, tolerance class or None where bit-identical)
RNG_CHECKS = [
    (su.twist_parity, ref_twist_parity, None),
    (su.trace_metric, ref_trace_metric, None),
    (su.k_product_hermitian, ref_k_product_hermitian, "build"),
    (su.adjoint_pairing, ref_adjoint_pairing, "chain"),
    (su.twisted_leibniz, ref_twisted_leibniz, None),
    (su.bimodule_action, ref_bimodule_action, None),
    (su.commutator_correspondence, ref_commutator_correspondence, None),
    (su.first_order_correspondence, ref_first_order_correspondence, None),
    (su.twisted_clifford, ref_twisted_clifford, None),
    (su.symbol_norm_pure_block, ref_symbol_norm_pure_block, None),
]
SPIN_CHECKS = [
    (su.spin_inverse_rule, ref_spin_inverse_rule, None),
    (su.spin_k_unitarity, ref_spin_k_unitarity, None),
    (su.k_fixed_under_spin, ref_k_fixed_under_spin, None),
    (su.fluctuation_correspondence, ref_fluctuation_correspondence, None),
]


def _agree(got, want, tol_class):
    if tol_class is None:
        return got == want
    return abs(got - want) <= AGREE * DEFAULT_TOLERANCES[tol_class]


def _spins(ctx):
    return sample_spin_plus(ctx.rep, 20, seed=0)


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"p{s[0]}q{s[1]}")
@pytest.mark.parametrize("check, ref, tol_class", RNG_CHECKS, ids=lambda x: getattr(x, "__name__", x))
def test_sampled_check_matches_per_sample_loop(contexts, sig, check, ref, tol_class):
    ctx = contexts[sig]
    rng_batched, rng_loop = np.random.default_rng([7, *sig]), np.random.default_rng([7, *sig])
    got = check(ctx, rng_batched)
    want = ref(ctx, rng_loop)
    assert _agree(got, want, tol_class), (got, want)
    assert rng_batched.normal() == rng_loop.normal()


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"p{s[0]}q{s[1]}")
def test_spin_checks_match_per_sample_loops(contexts, sig):
    ctx = contexts[sig]
    spins = _spins(ctx)
    for check, ref, tol_class in SPIN_CHECKS:
        assert _agree(check(ctx, spins), ref(ctx, spins), tol_class), check.__name__
    rng_batched, rng_loop = np.random.default_rng(3), np.random.default_rng(3)
    got = su.spin_product_invariance(ctx, spins, rng_batched)
    want = ref_spin_product_invariance(ctx, spins, rng_loop)
    assert _agree(got, want, "sampled")
    assert rng_batched.normal() == rng_loop.normal()


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"p{s[0]}q{s[1]}")
def test_trace_metric_morph_matches_per_sample_loop(contexts, sig):
    ctx = contexts[sig]
    got = trace_metric_morph_check(ctx.rep, ctx.ops, pairs=100, seed=5).value
    want = ref_trace_metric_morph(ctx, np.random.default_rng(5))
    assert got == want


def test_stacks_are_chunked_at_the_entry_cap():
    assert chunk_sizes(100, 8) == [100]
    assert chunk_sizes(100, 16) == [64, 36]
    assert chunk_sizes(100, 32) == [16] * 6 + [4]
    assert chunk_sizes(3, 256) == [1, 1, 1]
    assert chunk_sizes(0, 4) == []
    for d in (2, 8, 16, 32):
        assert max(chunk_sizes(100, d)) * d * d <= STACK_ENTRIES


@pytest.mark.parametrize("complex_", [False, True])
def test_gaussian_stacks_reproduce_the_sequential_stream(complex_):
    shapes = [(3,), (2, 2), (4,)]
    batched, loop = np.random.default_rng(11), np.random.default_rng(11)
    stacks = list(gaussian_stacks(batched, 70, 32, shapes, complex_=complex_))
    assert [len(s[0]) for s in stacks] == chunk_sizes(70, 32)
    for j in range(70):
        chunk, row = divmod(j, 16)
        for shape, got in zip(shapes, stacks[chunk]):
            want = loop.normal(size=shape)
            if complex_:
                want = want + 1j * loop.normal(size=shape)
            assert np.array_equal(got[row], want)
    assert batched.normal() == loop.normal()


@pytest.mark.parametrize("dim", [2, 4, 6, 8, 10])
def test_represent_stack_is_bit_identical_to_the_sum(dim):
    rng = np.random.default_rng(dim)
    for p in range(dim, -1, -1):
        rep = build_gammas(Signature(p, dim - p))
        vs = rng.normal(size=(200, rep.n_gen)) + 1j * rng.normal(size=(200, rep.n_gen))
        stack = represent_stack(rep, vs)
        for v, got in zip(vs, stack):
            assert np.array_equal(got, _c(rep, v))
        assert np.array_equal(represent(rep, vs[0]), stack[0])


def test_batched_fluctuation_rejects_a_stack_with_one_bad_element(contexts):
    ctx = contexts[(1, 3)]
    stack = np.array([s.matrix for s in _spins(ctx)])
    fluctuation_correspondence_residuals(ctx.pair, stack)
    stack[7] = 2.0 * stack[7]
    with pytest.raises(NotKUnitaryError):
        fluctuation_correspondence_residuals(ctx.pair, stack)


def test_antilinear_inverse_is_cached_and_sandwich_unchanged():
    rng = np.random.default_rng(2)
    j = AntilinearOp(_cmat(rng, 4))
    a = _cmat(rng, 4)
    first = j.sandwich(a)
    assert np.array_equal(first, j.mat @ np.conj(a) @ np.linalg.inv(j.mat))
    assert np.array_equal(j.sandwich(a), first)
    stack = np.array([a, 2 * a])
    assert np.array_equal(j.sandwich(stack)[1], j.sandwich(2 * a))


def test_each_signature_is_built_once_per_run(monkeypatch):
    built = []
    original = su.cl.build_gammas
    monkeypatch.setattr(su.cl, "build_gammas", lambda sig: built.append(sig) or original(sig))
    run(SuiteConfig(suites=("clifford", "krein", "morphism", "product"), signatures=((1, 3), (2, 0)), seed=0))
    assert sorted((s.p, s.q) for s in built) == [(1, 3), (2, 0)]
