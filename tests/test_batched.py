"""Batched residual engine against per-sample reference loops.

Every sampled check evaluates stacks of samples.  The reference loops below
draw and evaluate one sample at a time with plain numpy, the way the checks
were first written.  The batched check must leave its generator in the same
state and find the same residual: bit for bit where the per-sample
arithmetic is unchanged, within 1e-2 of the tolerance where the K-product
now sums in another order than ``np.vdot``.
"""

import re

import numpy as np
import pytest

from kreintwist import linalg
from kreintwist import suites as su
from kreintwist.clifford import (Signature, all_signatures, build_gammas, build_structural, represent,
                                 represent_stack)
from kreintwist.krein import (NotKUnitaryError, gauge_form_gaps, gauge_transform, k_unitarity_residuals,
                              require_k_unitary, sample_spin_plus)
from kreintwist.linalg import (STACK_ENTRIES, TABLE_ENTRIES, AntilinearOp, adjoint, chunks, gaussian_draws, kron,
                               max_gap_norm, table_norm)
from kreintwist.morphism import fluctuation_correspondence_gaps, trace_metric_morph_check
from kreintwist.product import (ConstraintViolationError, finite_algebra_unitary, gauge_vs_form_gaps,
                                product_fluctuation_gaps)
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
    return sample_spin_plus(ctx.rep, 20, np.random.default_rng(0))


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
    stack = np.array([s.matrix for s in spins])
    for check, ref, tol_class in SPIN_CHECKS:
        assert _agree(check(ctx, stack), ref(ctx, spins), tol_class), check.__name__
    rng_batched, rng_loop = np.random.default_rng(3), np.random.default_rng(3)
    got = su.spin_product_invariance(ctx, stack, rng_batched)
    want = ref_spin_product_invariance(ctx, spins, rng_loop)
    assert _agree(got, want, "sampled")
    assert rng_batched.normal() == rng_loop.normal()


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"p{s[0]}q{s[1]}")
def test_trace_metric_morph_matches_per_sample_loop(contexts, sig):
    ctx = contexts[sig]
    got = trace_metric_morph_check(ctx.rep, ctx.ops, 100, np.random.default_rng(5))
    want = ref_trace_metric_morph(ctx, np.random.default_rng(5))
    assert got == want


def _sizes(count, dim, *entries):
    return [len(range(count)[s]) for s in chunks(count, dim, *entries)]


def test_stacks_are_chunked_at_the_entry_cap():
    assert _sizes(100, 8) == [100]
    assert _sizes(100, 16) == [64, 36]
    assert _sizes(100, 32) == [16] * 6 + [4]
    assert _sizes(3, 256) == [1, 1, 1]
    assert _sizes(0, 4) == []
    for d in (2, 8, 16, 32):
        assert max(_sizes(100, d)) * d * d <= STACK_ENTRIES
    assert _sizes(100, 16, TABLE_ENTRIES) == [16] * 6 + [4]
    assert [s.start for s in chunks(100, 32)] == list(range(0, 100, 16))


@pytest.mark.parametrize("complex_", [False, True])
def test_gaussian_draws_reproduce_the_sequential_stream(complex_):
    shapes = [(3,), (2, 2), (4,)]
    batched, loop = np.random.default_rng(11), np.random.default_rng(11)
    draws = gaussian_draws(batched, 70, shapes, complex_=complex_)
    assert [d.shape for d in draws] == [(70, *shape) for shape in shapes]
    for j in range(70):
        for shape, got in zip(shapes, draws):
            want = loop.normal(size=shape)
            if complex_:
                want = want + 1j * loop.normal(size=shape)
            assert np.array_equal(got[j], want)
    assert batched.normal() == loop.normal()


def _recorded_chunks(monkeypatch):
    """Sizes of the chunks ``max_gap_norm`` hands to ``gaps``, through ``linalg.max_norm``."""
    sizes, max_norm = [], linalg.max_norm
    monkeypatch.setattr(linalg, "max_norm", lambda *parts: sizes.extend(map(len, parts)) or max_norm(*parts))
    return sizes


def test_max_gap_norm_hands_gaps_capped_chunks(monkeypatch):
    sizes, seen = _recorded_chunks(monkeypatch), []
    a = np.arange(100.0)[:, None, None] * np.eye(32)

    def gaps(x, i):
        seen.append(len(i))
        assert np.array_equal(x, a[i])
        return x

    assert max_gap_norm(gaps, [a, np.arange(100)], 32) == 99.0
    assert seen == sizes == [16] * 6 + [4]


def test_table_norm_reads_table_entries_chunks(monkeypatch):
    sizes, seen = _recorded_chunks(monkeypatch), []
    table = np.arange(100.0)[:, None, None] * np.eye(16)

    def entries(i, j):
        seen.append(len(i))
        return table[10 * i + j]

    assert table_norm(entries, (10, 10), 16) == 99.0
    assert seen == sizes == [TABLE_ENTRIES // 256] * 6 + [4]  # STACK_ENTRIES would give [64, 36]


def _old_k_adjoint_involution_draw(rng, d, dim_f):
    return [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))]


def _old_derivation_splitting_draw(rng, d, dim_f):
    return [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]


def _old_product_fluctuation_draw(rng, d, dim_f):
    z = rng.normal(size=(5, 2, dim_f, dim_f))
    return list(z[:, 0] + 1j * z[:, 1])


def _old_dirac_mass_shape_draw(rng, d, dim_f):
    out = []
    for _ in range(10):
        out.append([rng.normal(size=n) + 1j * rng.normal(size=n) for n in (d, d, dim_f, dim_f)])
    return out


# (old per-sample loop, count and shapes of the one ``gaussian_draws`` call replacing it)
MOVED_DRAWS = [
    pytest.param(_old_k_adjoint_involution_draw, 1, lambda d, f: [(d, d)], id="k_adjoint_involution"),
    pytest.param(_old_derivation_splitting_draw, 3, lambda d, f: [(d, d)], id="derivation_splitting"),
    pytest.param(_old_product_fluctuation_draw, 5, lambda d, f: [(f, f)], id="product_fluctuation"),
    pytest.param(_old_dirac_mass_shape_draw, 10, lambda d, f: [(d,), (d,), (f,), (f,)], id="dirac_mass_shape"),
]


@pytest.mark.parametrize("old, count, shapes", MOVED_DRAWS)
@pytest.mark.parametrize("d", [2, 4, 32])
def test_moved_draws_equal_their_old_loops(old, count, shapes, d):
    dim_f = 6
    batched, loop = np.random.default_rng([5, d]), np.random.default_rng([5, d])
    draws = gaussian_draws(batched, count, shapes(d, dim_f), complex_=True)
    want = old(loop, d, dim_f)
    assert len(want) == count
    for j, sample in enumerate(want):
        sample = sample if isinstance(sample, list) else [sample]
        assert all(np.array_equal(got[j], w) for got, w in zip(draws, sample))
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


@pytest.mark.parametrize("dim", [2, 4, 6, 8, 10])
def test_represent_stack_matches_the_einsum_byte_for_byte(dim):
    # the matrix product gives the einsum's bytes, signed zeros included; K c(v)
    # gives the bytes of the dense product, also where K multiplies by a gather
    rng = np.random.default_rng(dim + 100)
    for p in range(dim, -1, -1):
        rep = build_gammas(Signature(p, dim - p))
        ops = build_structural(rep)
        dense_k = np.asarray(ops.K)
        shape = (30, rep.n_gen)
        special = rng.choice([0.0, -0.0, 1.0, -1.0, 5e-324, -1e300], size=shape)
        for vs in (rng.normal(size=shape), rng.normal(size=shape) + 1j * rng.normal(size=shape),
                   special + 1j * rng.choice([0.0, -0.0, 2.0], size=shape)):
            want = np.einsum("ka,aij->kij", vs.astype(np.complex128), rep.gamma_stack)
            assert represent_stack(rep, vs).tobytes() == want.tobytes()
            assert (ops.K @ represent_stack(rep, vs)).tobytes() == (dense_k @ want).tobytes()


def test_batched_fluctuation_rejects_a_stack_with_one_bad_element(contexts):
    ctx = contexts[(1, 3)]
    stack = np.array([s.matrix for s in _spins(ctx)])
    fluctuation_correspondence_gaps(ctx.pair, stack)
    stack[7] = 2.0 * stack[7]
    with pytest.raises(NotKUnitaryError):
        fluctuation_correspondence_gaps(ctx.pair, stack)


@pytest.mark.parametrize("n, m", [(2, 4), (4, 4), (16, 2)])
def test_kron_of_stacks_is_np_kron_of_each_pair(n, m):
    rng = np.random.default_rng(n + m)
    a = np.array([_cmat(rng, n) for _ in range(5)])
    b = np.array([_cmat(rng, m) for _ in range(5)])
    for x, y in ((a, b), (adjoint(a), adjoint(b)), (a.real, b)):
        got = kron(x, y)
        assert got.shape == (5, n * m, n * m)
        for i in range(5):
            assert got[i].tobytes() == np.kron(x[i], y[i]).astype(np.complex128).tobytes()
            assert kron(x[i], y[i]).tobytes() == got[i].tobytes()
        # a matrix pairs with every matrix of a stack, on either side
        assert kron(x[0], y).tobytes() == np.array([np.kron(x[0], z) for z in y]).astype(np.complex128).tobytes()
        assert kron(x, y[1]).tobytes() == np.array([np.kron(z, y[1]) for z in x]).astype(np.complex128).tobytes()


# signatures of dimension 2, 4 and 8: representations of dimension 2, 4 and 16
STACKED_SIGS = [(1, 1), (1, 3), (3, 5)]


@pytest.mark.parametrize("sig", STACKED_SIGS, ids=lambda s: f"p{s[0]}q{s[1]}")
def test_stacked_gauge_kernels_equal_per_matrix_calls(sig):
    ctx = su.SignatureContext(Signature(*sig))
    t, pt, ft = ctx.triple, ctx.product, ctx.finite
    rng = np.random.default_rng(sig)
    spins = np.array([s.matrix for s in sample_spin_plus(ctx.rep, 6, rng)])
    draws = rng.uniform(0, 2 * np.pi, size=(6, 3))
    phases = np.array([np.exp(1j * lam) * np.eye(ctx.rep.dim) for _, _, lam in draws])
    algebra = np.array([finite_algebra_unitary(ft, th1, th2) for th1, th2, _ in draws])
    unitaries = np.linalg.qr(np.array([_cmat(rng, ft.dimF) for _ in range(6)]))[0]
    space_f = su.kr.KreinSpace(ft.dimF, np.eye(ft.dimF))
    kernels = [
        (lambda u: gauge_transform(t.D, u, t.J, t.space), (spins,)),
        (lambda u: gauge_form_gaps(t.D, u, t.J, t.space, -1), (spins,)),
        (lambda u: gauge_form_gaps(ft.DF, u, ft.JF, space_f, +1), (algebra,)),
        (lambda u_k, u: product_fluctuation_gaps(pt, u_k, u), (spins, unitaries)),
    ]
    if ctx.sig.dim >= 4:  # a definite product J-D sign: the formula applies
        kernels += [(lambda u_k, u: gauge_vs_form_gaps(pt, u_k, u), (phases, algebra)),
                    (lambda u_k, u: gauge_vs_form_gaps(pt, u_k, u), (spins, algebra))]
    else:
        with pytest.raises(ConstraintViolationError):
            gauge_vs_form_gaps(pt, phases, algebra)
    for kernel, stacks in kernels:
        got = kernel(*stacks)
        assert got.shape == (6, *got.shape[-2:]) and np.any(got)
        for i in range(6):
            assert kernel(*(stack[i] for stack in stacks)).tobytes() == got[i].tobytes()


@pytest.mark.parametrize("sig", STACKED_SIGS, ids=lambda s: f"p{s[0]}q{s[1]}")
def test_k_unitarity_guard_names_the_first_bad_member_of_a_stack(sig):
    ctx = su.SignatureContext(Signature(*sig))
    t, pt = ctx.triple, ctx.product
    spins = np.array([s.matrix for s in sample_spin_plus(ctx.rep, 6, np.random.default_rng(5))])
    bad = spins.copy()
    bad[2] *= 1 + 6e-10  # residual about 1.2e-9, just above the tolerance
    bad[4] *= 2.0
    first = k_unitarity_residuals(t.space, bad[2][None])[0]
    message = re.escape(f"({first:.3e})")
    assert first > 1e-9 and k_unitarity_residuals(t.space, bad[4][None])[0] > first
    with pytest.raises(NotKUnitaryError, match="gauge element is not K-unitary " + message):
        gauge_transform(t.D, bad, t.J, t.space)
    with pytest.raises(NotKUnitaryError, match="fluctuation element is not K-unitary " + message):
        su.mo.fluctuation_correspondence_gaps(ctx.pair, bad)
    eye_f = np.tile(np.eye(pt.finite.dimF), (6, 1, 1))
    with pytest.raises(ConstraintViolationError, match="manifold gauge element not K-unitary " + message):
        product_fluctuation_gaps(pt, bad, eye_f)
    scaled = eye_f.copy()
    scaled[1] *= 1 + 6e-10
    scaled[3] *= 2.0
    first_f = k_unitarity_residuals(None, scaled[1][None])[0]
    with pytest.raises(ConstraintViolationError, match=re.escape(f"finite gauge element not unitary ({first_f:.3e})")):
        product_fluctuation_gaps(pt, bad, scaled)  # the finite side is checked first
    require_k_unitary(t.space, spins, ValueError, "unused")


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
