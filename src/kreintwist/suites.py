"""Check suites: every verified identity becomes one deterministic record.

Each check is a residual computation executed under a seed derived from the
run configuration, so re-running with the same config reproduces bit-equal
residual values.  Check failures never raise; they become failed records
(an exception inside a check is recorded as an infinite residual).
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import Callable

import numpy as np

from . import clifford as cl
from . import geometry as geo
from . import krein as kr
from . import morphism as mo
from . import product as pr
from .linalg import adjoint, chunk_sizes, gaussian_stacks, kron, max_residual, op_norms, residual_norm
from .report import CheckRecord, ConfigError, Report, SuiteConfig

__all__ = ["run", "SUITE_BUILDERS", "SignatureContext"]


class _Runner:
    def __init__(self, cfg: SuiteConfig, suite: str):
        self.cfg = cfg
        self.suite = suite
        self.records: list[CheckRecord] = []

    def add(self, check_id: str, anchor: str, tol_class: str, fn: Callable[[], float]) -> None:
        tol = self.cfg.tol(tol_class)
        t0 = time.perf_counter()
        try:
            value = float(fn())
        except Exception:
            value = float("inf")
        ms = (time.perf_counter() - t0) * 1000.0
        self.records.append(
            CheckRecord(
                suite=self.suite,
                check_id=f"{self.suite}.{check_id}",
                anchor=anchor,
                residual=value,
                tolerance=tol,
                passed=value <= tol,
                runtime_ms=round(ms, 3),
            )
        )


def _rng(cfg: SuiteConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, *key])


def _sig_tag(sig: cl.Signature) -> str:
    return f"p{sig.p}q{sig.q}"


class SignatureContext:
    """The operators of one signature, built once per run and shared by the
    clifford, krein, morphism and product suites.

    Gammas and structural operators are built on construction.  The Dirac
    pair, triple, morphism pair and sign table are built on first use and
    kept only once built: a suite that reads them outside its checks aborts
    the run on a construction error, one that reads them inside a check
    records a failed check, and the next reader tries again.
    """

    def __init__(self, sig: cl.Signature):
        self.sig = sig
        self.rep = cl.build_gammas(sig)
        self.ops = cl.build_structural(self.rep)

    @cached_property
    def dirac(self) -> tuple[np.ndarray, np.ndarray]:
        return cl.canonical_dirac_pair(self.rep)

    @cached_property
    def triple(self) -> kr.TwistedTripleData:
        return kr.canonical_twisted_triple(self.rep, self.ops, self.dirac[0])

    @cached_property
    def pair(self) -> mo.MorphismPair:
        return mo.MorphismPair(self.triple, mo.apply_k_morphism(self.triple))

    @cached_property
    def sign_table(self) -> cl.SignTable:
        return cl.sign_table(self.rep, self.ops, self.dirac[0])


class _Contexts(dict):
    """Signature contexts of one run, keyed by (p, q) and built on demand."""

    def __missing__(self, key: tuple) -> SignatureContext:
        ctx = self[key] = SignatureContext(cl.Signature(*key))
        return ctx


# --------------------------------------------------------------------------
# sampled checks
#
# Each draws all of its samples from ``rng`` in capped stacks
# (``linalg.gaussian_stacks``) and evaluates one residual per sample with
# stacked kernels; the check value is the largest residual.
# --------------------------------------------------------------------------

def _spin_stacks(spins, dim: int):
    """Spin-element matrices as 1-tuples of stacks, chunked like ``gaussian_stacks``."""
    start = 0
    for k in chunk_sizes(len(spins), dim):
        yield (np.array([s.matrix for s in spins[start : start + k]]),)
        start += k


def twist_parity(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """K c(v) K = c(rv) on Gaussian coefficient vectors v."""
    stacks = gaussian_stacks(rng, 100, ctx.rep.dim, [(ctx.rep.n_gen,)])
    return max_residual(stacks, lambda v: cl.twist_parity_residuals(ctx.rep, ctx.ops, v))


def trace_metric(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """tr(c(u) c(v)) / dim = g(u, v) on Gaussian pairs."""
    n = ctx.rep.n_gen
    stacks = gaussian_stacks(rng, 50, ctx.rep.dim, [(n,), (n,)])
    return max_residual(stacks, lambda u, v: cl.trace_metric_residuals(ctx.rep, u, v))


def k_product_hermitian(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """<a, b>_K = conj(<b, a>_K) on complex Gaussian vectors."""
    space = ctx.pair.pseudo.space
    d = ctx.rep.dim

    def residuals(a, b):
        return np.abs(kr.k_products(space, a, b) - np.conj(kr.k_products(space, b, a)))

    return max_residual(gaussian_stacks(rng, 50, d, [(d,), (d,)], complex_=True), residuals)


def adjoint_pairing(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """<psi, O phi>_K = <O^+ psi, phi>_K on complex Gaussian psi, phi, O."""
    space = ctx.pair.pseudo.space
    d = ctx.rep.dim

    def residuals(psi, phi, o):
        lhs = kr.k_products(space, psi, (o @ phi[..., None])[..., 0])
        plus_psi = (kr.k_adjoint(space, o) @ psi[..., None])[..., 0]
        return np.abs(lhs - kr.k_products(space, plus_psi, phi))

    stacks = gaussian_stacks(rng, 100, d, [(d,), (d,), (d, d)], complex_=True)
    return max_residual(stacks, residuals)


def spin_inverse_rule(ctx: SignatureContext, spins) -> float:
    """x^-1 = K x^dagger K on spin elements."""
    K = ctx.ops.K
    return max_residual(
        _spin_stacks(spins, ctx.rep.dim),
        lambda s: op_norms(np.linalg.inv(s) - K @ adjoint(s) @ K),
    )


def spin_k_unitarity(ctx: SignatureContext, spins) -> float:
    """Spin elements are K-unitary."""
    space = ctx.pair.pseudo.space
    return max_residual(
        _spin_stacks(spins, ctx.rep.dim),
        lambda s: kr.k_unitarity_residuals(space, s),
    )


def spin_product_invariance(ctx: SignatureContext, spins, rng: np.random.Generator) -> float:
    """<x psi, x phi>_K = <psi, phi>_K, one Gaussian pair per spin element."""
    space = ctx.pair.pseudo.space
    d = ctx.rep.dim
    draws = gaussian_stacks(rng, len(spins), d, [(d,), (d,)], complex_=True)

    def residuals(s, psi, phi):
        moved = kr.k_products(space, (s @ psi[..., None])[..., 0], (s @ phi[..., None])[..., 0])
        return np.abs(moved - kr.k_products(space, psi, phi))

    stacks = ((s, psi, phi) for (s,), (psi, phi) in zip(_spin_stacks(spins, d), draws))
    return max_residual(stacks, residuals)


def k_fixed_under_spin(ctx: SignatureContext, spins) -> float:
    """x^dagger K x = K on spin elements."""
    K = ctx.ops.K
    return max_residual(
        _spin_stacks(spins, ctx.rep.dim),
        lambda s: op_norms(adjoint(s) @ K @ s - K),
    )


def twisted_leibniz(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """[D, ab]_rho = [D, a]_rho b + rho(a) [D, b]_rho on complex Gaussian a, b."""
    t = ctx.triple
    d = ctx.rep.dim

    def residuals(a, b):
        lhs = kr.twisted_commutator(t.D, a @ b, t.K)
        rhs = kr.twisted_commutator(t.D, a, t.K) @ b + t.K @ a @ t.K @ kr.twisted_commutator(t.D, b, t.K)
        return op_norms(lhs - rhs)

    return max_residual(gaussian_stacks(rng, 20, d, [(d, d), (d, d)], complex_=True), residuals)


def bimodule_action(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """a . delta(b) . c = rho(a)(delta(bc) - rho(b) delta(c)): the bimodule
    action keeps one-forms inside the one-form space."""
    t = ctx.triple
    d = ctx.rep.dim

    def rho(x):
        return t.K @ x @ t.K

    def residuals(a, b, c):
        lhs = rho(a) @ kr.twisted_commutator(t.D, b, t.K) @ c
        rhs = rho(a) @ (
            kr.twisted_commutator(t.D, b @ c, t.K) - rho(b) @ kr.twisted_commutator(t.D, c, t.K)
        )
        return op_norms(lhs - rhs)

    stacks = gaussian_stacks(rng, 10, d, [(d, d)] * 3, complex_=True)
    return max_residual(stacks, residuals)


def commutator_correspondence(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """K [D, a]_rho = [D^K, a] on complex Gaussian a."""
    d = ctx.rep.dim
    stacks = gaussian_stacks(rng, 20, d, [(d, d)], complex_=True)
    return max_residual(stacks, lambda a: mo.commutator_correspondence_residuals(ctx.pair, a))


def first_order_correspondence(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """The first-order condition corresponds across D -> KD on complex Gaussian a, b."""
    d = ctx.rep.dim
    stacks = gaussian_stacks(rng, 10, d, [(d, d), (d, d)], complex_=True)
    return max_residual(stacks, lambda a, b: mo.first_order_correspondence_residuals(ctx.pair, a, b))


def fluctuation_correspondence(ctx: SignatureContext, spins) -> float:
    """Fluctuations by spin elements correspond across D -> KD."""
    return max_residual(
        _spin_stacks(spins, ctx.rep.dim),
        lambda s: mo.fluctuation_correspondence_residuals(ctx.pair, s),
    )


def twisted_clifford(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """The twisted Clifford relation on Gaussian coefficient pairs."""
    n = ctx.rep.n_gen
    stacks = gaussian_stacks(rng, 100, ctx.rep.dim, [(n,), (n,)])
    return max_residual(stacks, lambda u, v: mo.twisted_clifford_residuals(ctx.rep, ctx.ops, u, v))


def symbol_norm_pure_block(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """|K c(k)| = |k|_{g_r} on basis vectors and on random single-block k."""
    rep = ctx.rep
    p, q = rep.sig.p, rep.sig.q
    ks = [np.eye(rep.n_gen)]
    # the block choice and the block draw interleave uniform and normal
    # draws of data-dependent size, so these samples are drawn one by one
    for _ in range(10):
        k = np.zeros(rep.n_gen)
        if rng.uniform() < 0.5 and p > 0:
            k[:p] = rng.normal(size=p)
        elif q > 0:
            k[p:] = rng.normal(size=q)
        else:
            k[:p] = rng.normal(size=p)
        ks.append(k[None])
    probes = mo.symbol_norm_probes(rep, ctx.ops, np.concatenate(ks))
    counted = probes["pure_block"]
    counted[: rep.n_gen] = True  # basis vectors count whatever their block
    gaps = np.abs(probes["norm"] - probes["gR_norm"])[counted]
    return max(0.0, float(np.max(gaps)))


# --------------------------------------------------------------------------
# clifford
# --------------------------------------------------------------------------

def run_clifford(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "clifford")
    for si, (p, q) in enumerate(cfg.signatures):
        ctx = contexts[(p, q)]
        tag = _sig_tag(ctx.sig)
        rep, ops = ctx.rep, ctx.ops
        eye = np.eye(rep.dim)

        def anticomm_table() -> float:
            worst = 0.0
            for a in range(rep.n_gen):
                for b in range(rep.n_gen):
                    target = 2.0 * rep.signs[a] * eye if a == b else 0.0 * eye
                    worst = max(
                        worst,
                        residual_norm(
                            rep.gammas[a] @ rep.gammas[b] + rep.gammas[b] @ rep.gammas[a],
                            target,
                        ),
                    )
            return worst

        r.add(f"{tag}.anticommutator_table", "Sec2:CliffordRelation", "build", anticomm_table)
        r.add(
            f"{tag}.gamma_unitarity",
            "Sec2:CliffordRelation",
            "build",
            lambda rep=rep: max(residual_norm(g @ adjoint(g), eye) for g in rep.gammas),
        )
        r.add(
            f"{tag}.gamma_dagger_sign",
            "Sec2:rho(e_a)=g_a.e_a",
            "build",
            lambda rep=rep: max(
                residual_norm(adjoint(g), rep.signs[a] * g)
                for a, g in enumerate(rep.gammas)
            ),
        )
        r.add(
            f"{tag}.twist_parity",
            "Sec3:rho(c(v))=c(rv)",
            "build",
            lambda ctx=ctx, si=si: twist_parity(ctx, _rng(cfg, 0, si, 1)),
        )
        r.add(
            f"{tag}.k_hermitian_involution",
            "Sec1:K=exp(i.theta).K-dagger",
            "build",
            lambda ops=ops: max(
                residual_norm(ops.K, adjoint(ops.K)),
                residual_norm(ops.K @ ops.K, eye),
                residual_norm(ops.Gamma, adjoint(ops.Gamma)),
                residual_norm(ops.Gamma @ ops.Gamma, eye),
            ),
        )

        struct = cl.verify_structural(rep, ops)
        r.add(
            f"{tag}.charge_conjugation",
            "Sec2:kappa(v)=-conj(v)",
            "build",
            lambda s=struct: s["charge_conjugation"].value,
        )
        r.add(
            f"{tag}.c_equals_k_chat",
            "Sec2:C=K.Chat",
            "build",
            lambda s=struct: s["c_equals_k_chat"].value,
        )
        r.add(
            f"{tag}.kappa_factorization",
            "Sec2:kappa=kappahat.rho",
            "build",
            lambda s=struct: s["kappa_factorization"].value,
        )
        r.add(
            f"{tag}.automorphism_commutation",
            "Sec2:rho-chi-kappa-commute",
            "build",
            lambda s=struct: s["automorphism_commutation"].value,
        )
        r.add(
            f"{tag}.rho_involution",
            "Sec2:rho-involution",
            "build",
            lambda rep=rep, ops=ops: max(
                residual_norm(ops.K @ (ops.K @ g @ ops.K) @ ops.K, g) for g in rep.gammas
            ),
        )
        r.add(
            f"{tag}.trace_metric",
            "EqMetTrace",
            "build",
            lambda ctx=ctx, si=si: trace_metric(ctx, _rng(cfg, 0, si, 2)),
        )

        def cross_relations(ctx=ctx) -> float:
            tab = ctx.sign_table
            bad = 0.0
            bad += abs(tab.eps0 - tab.eps0K)
            bad += abs(tab.eps2 - tab.eps2K)
            bad += abs(tab.eps1K - tab.eps * tab.eps1)
            bad += abs(tab.eps3 - tab.eps_prime * tab.eps3K)
            return bad

        r.add(f"{tag}.sign_cross_relations", "Sec3:eps-relations", "build", cross_relations)

        if (p, q) == (1, 3):
            r.add(
                f"{tag}.ko6_pseudo_row",
                "Sec4:KO6-signs",
                "build",
                lambda ctx=ctx: 0.0 if ctx.sign_table.pseudo_row() == (1, 1, -1, -1) else 1.0,
            )
    return r.records


# --------------------------------------------------------------------------
# krein
# --------------------------------------------------------------------------

def run_krein(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "krein")
    for si, (p, q) in enumerate(cfg.signatures):
        ctx = contexts[(p, q)]
        sig, rep, ops = ctx.sig, ctx.rep, ctx.ops
        tag = _sig_tag(sig)
        t = ctx.triple
        space = ctx.pair.pseudo.space

        r.add(
            f"{tag}.k_product_hermitian",
            "Sec1:K-product",
            "build",
            lambda ctx=ctx, si=si: k_product_hermitian(ctx, _rng(cfg, 1, si, 1)),
        )

        def krein_signs(ops=ops, sig=sig) -> float:
            ev = np.linalg.eigvalsh(ops.K)
            worst = float(np.max(np.abs(np.abs(ev) - 1.0)))
            if sig.p > 0 and sig.q > 0:
                # indefiniteness witness: both K-eigenvalue signs occur
                if not (np.any(ev > 0) and np.any(ev < 0)):
                    worst = max(worst, 1.0)
            return worst

        r.add(f"{tag}.krein_sign_spectrum", "Sec2:Krein-space", "build", krein_signs)
        r.add(
            f"{tag}.adjoint_pairing",
            "Sec1:plus-adjoint",
            "chain",
            lambda ctx=ctx, si=si: adjoint_pairing(ctx, _rng(cfg, 1, si, 2)),
        )

        def kadj_involution(rep=rep, space=space, si=si) -> float:
            rng = _rng(cfg, 1, si, 3)
            o = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
            return residual_norm(kr.k_adjoint(space, kr.k_adjoint(space, o)), o)

        r.add(f"{tag}.k_adjoint_involution", "Sec1:plus-adjoint", "build", kadj_involution)

        spins = kr.sample_spin_plus(rep, 20, seed=cfg.seed + 37 * si + 5)

        r.add(
            f"{tag}.spin_inverse_rule",
            "Sec2:x-inv=rho(x-dagger)",
            "sampled",
            lambda ctx=ctx, spins=spins: spin_inverse_rule(ctx, spins),
        )
        r.add(
            f"{tag}.spin_k_unitarity",
            "Sec1:K-unitarity",
            "sampled",
            lambda ctx=ctx, spins=spins: spin_k_unitarity(ctx, spins),
        )
        r.add(
            f"{tag}.spin_product_invariance",
            "Sec2:Spin+-invariant-product",
            "sampled",
            lambda ctx=ctx, spins=spins, si=si: spin_product_invariance(ctx, spins, _rng(cfg, 1, si, 4)),
        )
        r.add(
            f"{tag}.k_fixed_under_spin",
            "Sec2:K-fixed-under-Spin+",
            "sampled",
            lambda ctx=ctx, spins=spins: k_fixed_under_spin(ctx, spins),
        )
        r.add(
            f"{tag}.twisted_leibniz",
            "Sec1:twisted-Leibniz",
            "chain",
            lambda ctx=ctx, si=si: twisted_leibniz(ctx, _rng(cfg, 1, si, 5)),
        )
        r.add(
            f"{tag}.bimodule_action",
            "EqLR",
            "chain",
            lambda ctx=ctx, si=si: bimodule_action(ctx, _rng(cfg, 1, si, 6)),
        )

        def first_order_scalars(t=t) -> float:
            worst = 0.0
            for a in t.algebra_gens:
                for b in t.algebra_gens:
                    worst = max(
                        worst,
                        kr.twisted_first_order_residual(t.D, a, b, t.J, t.K).value,
                    )
            return worst

        r.add(f"{tag}.first_order_scalars", "Sec1:twisted-first-order", "build", first_order_scalars)

        def gauge_selfadjoint(spins=spins, t=t) -> float:
            worst = 0.0
            for s in spins[:5]:
                out = kr.gauge_transform(t.D, s.matrix, t.J, t.K)
                worst = max(worst, residual_norm(out, adjoint(out)))
            return worst

        r.add(f"{tag}.gauge_selfadjointness", "Sec1:Ad(u_K)", "chain", gauge_selfadjoint)

        def gauge_equals_form(t=t, sig=sig, si=si) -> float:
            # gauge orbits match the one-form formula where the order-zero
            # and first-order axioms hold: algebra unitaries of a product
            # with the finite model (dim >= 4 manifold sides), or the
            # finite triple alone (trivial twist) in dimension 2.
            ft = pr.build_finite_triple_ko6(1.0 + 2.0j)
            rng = _rng(cfg, 1, si, 7)
            worst = 0.0
            if sig.dim >= 4:
                pt = pr.assemble_product(t, ft)
                for _ in range(5):
                    th1, th2, lam = rng.uniform(0, 2 * np.pi, size=3)
                    u_f = pr.finite_algebra_unitary(ft, th1, th2)
                    worst = max(
                        worst,
                        pr.gauge_vs_form_residual(pt, np.exp(1j * lam) * np.eye(t.dim), u_f),
                    )
            else:
                eye_f = np.eye(ft.dimF)
                for _ in range(5):
                    th1, th2 = rng.uniform(0, 2 * np.pi, size=2)
                    u = pr.finite_algebra_unitary(ft, th1, th2)
                    gauge = kr.gauge_transform(ft.DF, u, ft.JF, eye_f)
                    a_form = u @ kr.twisted_commutator(ft.DF, adjoint(u), eye_f)
                    formula = kr.fluctuate(ft.DF, a_form, ft.JF, +1)
                    worst = max(worst, residual_norm(gauge, formula))
            return worst

        r.add(f"{tag}.gauge_equals_form", "Sec1:twisted-fluctuation", "sampled", gauge_equals_form)
    return r.records


# --------------------------------------------------------------------------
# morphism
# --------------------------------------------------------------------------

def run_morphism(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "morphism")
    for si, (p, q) in enumerate(cfg.signatures):
        ctx = contexts[(p, q)]
        rep, ops = ctx.rep, ctx.ops
        tag = _sig_tag(ctx.sig)
        t, pair = ctx.triple, ctx.pair

        def involution(t=t, pair=pair) -> float:
            back = mo.invert_k_morphism(pair.pseudo)
            again = mo.apply_k_morphism(back)
            return max(
                residual_norm(back.D, t.D),
                residual_norm(again.Dk, pair.pseudo.Dk),
            )

        r.add(f"{tag}.involution", "Sec3:D->KD", "involution", involution)

        def selfadjoint_equivalence(pair=pair) -> float:
            res, gap = mo.selfadjoint_equivalence_check(pair)
            return max(res.value, gap)

        r.add(
            f"{tag}.selfadjoint_equivalence",
            "Sec3:selfadjoint-equivalence",
            "build",
            selfadjoint_equivalence,
        )
        r.add(
            f"{tag}.commutator_correspondence",
            "Sec3:[DK,a]=K[D,a]_rho",
            "build",
            lambda ctx=ctx, si=si: commutator_correspondence(ctx, _rng(cfg, 2, si, 1)),
        )
        r.add(
            f"{tag}.first_order_correspondence",
            "Sec3:first-order-correspondence",
            "build",
            lambda ctx=ctx, si=si: first_order_correspondence(ctx, _rng(cfg, 2, si, 2)),
        )

        spins = kr.sample_spin_plus(rep, 20, seed=cfg.seed + 53 * si + 9)
        r.add(
            f"{tag}.fluctuation_correspondence",
            "Sec3:DK_AK=K.D_Arho",
            "sampled",
            lambda ctx=ctx, spins=spins: fluctuation_correspondence(ctx, spins),
        )
        r.add(
            f"{tag}.twisted_clifford",
            "EqDefCliffTw",
            "chain",
            lambda ctx=ctx, si=si: twisted_clifford(ctx, _rng(cfg, 2, si, 3)),
        )
        r.add(
            f"{tag}.generalized_clifford",
            "EqCliffGeneralise",
            "chain",
            lambda rep=rep, ops=ops: mo.generalized_clifford_check(rep, ops).value,
        )
        if q == 0:
            def euclid_collapse(rep=rep, ops=ops) -> float:
                worst = residual_norm(ops.K, np.eye(rep.dim))
                for a in range(rep.n_gen):
                    for b in range(rep.n_gen):
                        s_ab = rep.signs[a] * rep.signs[b]
                        worst = max(worst, abs(s_ab - 1.0))
                return worst

            r.add(f"{tag}.euclidean_collapse", "Sec3:s_ab=1-collapse", "build", euclid_collapse)

        r.add(
            f"{tag}.trace_metric_morph",
            "EqMetTrace",
            "chain",
            lambda rep=rep, ops=ops, si=si: mo.trace_metric_morph_check(
                rep, ops, pairs=100, seed=cfg.seed + 71 * si
            ).value,
        )

        def twisted_grading(ctx=ctx, t=t) -> float:
            tab = ctx.sign_table
            # when the Krein side anticommutes, the twisted side obeys
            # D Gamma + eps' Gamma D = 0
            if tab.eps3K != -1:
                return 0.0
            return residual_norm(
                t.D @ t.Gamma + tab.eps_prime * (t.Gamma @ t.D), np.zeros_like(t.D)
            )

        r.add(f"{tag}.twisted_grading", "Sec3:twisted-grading", "build", twisted_grading)
        r.add(
            f"{tag}.symbol_norm_pure_block",
            "Sec3:Prop4-distance",
            "sampled",
            lambda ctx=ctx, si=si: symbol_norm_pure_block(ctx, _rng(cfg, 2, si, 4)),
        )
    return r.records


# --------------------------------------------------------------------------
# geometry
# --------------------------------------------------------------------------

def _family_points(metric: geo.MetricField, count: int, rng: np.random.Generator, h: float):
    lo = metric.domain[:, 0] + 4 * h
    hi = metric.domain[:, 1] - 4 * h
    return [lo + (hi - lo) * rng.uniform(size=metric.dim) for _ in range(count)]


def run_geometry(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "geometry")
    h = cfg.fd_step
    curved = ["exp2d", "conformal2d", "lorentz2d", "lorentz4d"]

    for fi, name in enumerate(curved):
        metric = geo.metric_family(name, cfg.metric_params if name == cfg.metric_family else None)
        rng = _rng(cfg, 3, fi)
        pts = _family_points(metric, 5, rng, h)
        r.add(
            f"{name}.christoffel_symmetry",
            "Sec3:LeviCivita",
            "fd",
            lambda metric=metric, pts=pts: max(
                geo.christoffel(metric, False, x, h).symmetry_residual() for x in pts
            ),
        )
        r.add(
            f"{name}.relat_christos",
            "RelatChristos",
            "fd",
            lambda metric=metric, pts=pts: max(
                geo.christoffel_relation_check(metric, x, h).value for x in pts
            ),
        )
        r.add(
            f"{name}.metric_compatibility",
            "Sec3:metric-compatibility",
            "fd",
            lambda metric=metric, pts=pts: max(
                max(
                    geo.metric_compatibility_residual(metric, False, x, h),
                    geo.metric_compatibility_residual(metric, True, x, h),
                )
                for x in pts
            ),
        )
        r.add(
            f"{name}.reflection_isometry",
            "EqReflect",
            "build",
            lambda metric=metric, pts=pts: max(
                geo.reflection_isometry_residual(metric, x) for x in pts
            ),
        )

        def vielbein_orthonormal(metric=metric, pts=pts) -> float:
            worst = 0.0
            for x in pts:
                e, einv = geo.vielbein(metric, False, x)
                g = metric.g_at(x)
                gr = metric.gR_at(x)
                flat = np.diag(metric.r_signs)
                worst = max(worst, residual_norm(e @ g @ e.T, flat))
                worst = max(worst, residual_norm(e @ gr @ e.T, np.eye(metric.dim)))
                worst = max(worst, residual_norm(e @ einv.T, np.eye(metric.dim)))
            return worst

        r.add(f"{name}.vielbein_orthonormality", "Sec3:vielbein", "sampled", vielbein_orthonormal)

        def rewrit_tgamma(metric=metric, pts=pts) -> float:
            worst = 0.0
            s = metric.r_signs
            for x in pts:
                c = geo.spin_connection_coeffs(metric, x, h)
                tilde = s[:, None, None] * c["Gamma_b_mu_a"] * s[None, None, :]
                worst = max(worst, float(np.max(np.abs(c["refl_frame_b_mu_a"] - tilde))))
            return worst

        r.add(f"{name}.rewrit_tgamma", "EqRewritTGamma", "fd", rewrit_tgamma)

        def frame_relation(metric=metric, pts=pts) -> float:
            worst = 0.0
            for x in pts:
                c = geo.spin_connection_coeffs(metric, x, h)
                worst = max(
                    worst,
                    float(
                        np.max(
                            np.abs(
                                c["refl_frame_b_mu_a"]
                                - (c["GammaR_b_mu_a"] + c["K_b_mu_a"])
                            )
                        )
                    ),
                )
            return worst

        r.add(f"{name}.frame_connection_relation", "EqRelatGammVielb", "fd", frame_relation)

    # closed-form oracles
    exp2d = geo.metric_family("exp2d")
    x0 = np.array([0.1, -0.2])
    r.add(
        "exp2d.closed_form_gamma",
        "Sec3:LeviCivita",
        "fd_fine",
        lambda: abs(geo.christoffel(exp2d, False, x0, h).values[0, 0, 0] - 1.0),
    )
    r.add(
        "exp2d.fd_convergence_ratio",
        "Sec3:LeviCivita",
        "ratio",
        lambda: abs(geo.fd_convergence_ratio(exp2d, x0, h) - 4.0),
    )

    conf = geo.metric_family("conformal2d")
    amp = 0.1

    def conformal_closed_form() -> float:
        x = np.array([0.15, -0.1])
        got = geo.christoffel(conf, False, x, h).values
        dphi = np.array(
            [amp * np.cos(x[0] + 2 * x[1]), 2 * amp * np.cos(x[0] + 2 * x[1])]
        )
        dim = 2
        want = np.zeros((dim, dim, dim))
        for l in range(dim):
            for m in range(dim):
                for n in range(dim):
                    want[l, m, n] = (
                        (l == m) * dphi[n] + (l == n) * dphi[m] - (m == n) * dphi[l]
                    )
        return float(np.max(np.abs(got - want)))

    r.add("conformal2d.closed_form_gamma", "Sec3:LeviCivita", "fd_fine", conformal_closed_form)

    # flat-space plane wave against the symbol
    rep13 = cl.build_gammas(cl.Signature(1, 3))
    flat = geo.metric_family("flat4d")

    def plane_wave() -> float:
        k = np.array([0.3, -0.2, 0.5, 0.1])
        psi0 = np.array([1.0, 0.5j, -0.25, 0.125 + 0.3j])
        psi = geo.plane_wave_spinor(k, psi0)
        x = np.array([0.05, 0.1, -0.1, 0.2])
        got = geo.dirac_apply_pseudo(flat, rep13, psi, x, h)
        want = -sum(k[a] * rep13.gammas[a] for a in range(4)) @ psi(x)
        return float(np.linalg.norm(got - want))

    r.add("flat4d.plane_wave_dirac", "Sec2:DK=i.gamma.nabla", "fd_fine", plane_wave)

    # Dirac decomposition, 2d and 4d, sign must be constant
    ops13 = cl.build_structural(rep13)
    lor4 = geo.metric_family("lorentz4d")
    rng = _rng(cfg, 3, 99)
    pts4 = _family_points(lor4, 3, rng, h)
    spin4 = geo.trig_spinor(4, 4, seed=cfg.seed + 17)

    def decomposition_4d() -> float:
        worst = 0.0
        signs = set()
        for x in pts4:
            res, sgn = geo.dirac_decomposition_check(lor4, rep13, ops13, spin4, x, h)
            worst = max(worst, res.value)
            signs.add(sgn)
        if len(signs) != 1:
            return float("inf")
        return worst

    r.add("lorentz4d.dirac_decomposition", "EqDefDir", "fd_coarse", decomposition_4d)

    rep11 = cl.build_gammas(cl.Signature(1, 1))
    ops11 = cl.build_structural(rep11)
    lor2 = geo.metric_family("lorentz2d")
    pts2 = _family_points(lor2, 3, rng, h)
    spin2 = geo.trig_spinor(2, 2, seed=cfg.seed + 19)

    def decomposition_2d() -> float:
        worst = 0.0
        signs = set()
        for x in pts2:
            res, sgn = geo.dirac_decomposition_check(lor2, rep11, ops11, spin2, x, h)
            worst = max(worst, res.value)
            signs.add(sgn)
        if len(signs) != 1:
            return float("inf")
        return worst

    r.add("lorentz2d.dirac_decomposition", "EqDefDir", "fd_coarse", decomposition_2d)

    # Euclidean reduction: conformal metric, trivial twist
    rep20 = cl.build_gammas(cl.Signature(2, 0))
    ops20 = cl.build_structural(rep20)
    spin_e = geo.trig_spinor(2, 2, seed=cfg.seed + 23)
    pts_e = _family_points(conf, 2, rng, h)

    def decomposition_euclid() -> float:
        worst = 0.0
        for x in pts_e:
            res, _ = geo.dirac_decomposition_check(conf, rep20, ops20, spin_e, x, h)
            worst = max(worst, res.value)
        return worst

    r.add("conformal2d.dirac_decomposition", "EqDefDir", "fd_coarse", decomposition_euclid)
    return r.records


# --------------------------------------------------------------------------
# product
# --------------------------------------------------------------------------

def run_product(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "product")
    ctx = contexts[(1, 3)]
    rep, ops, t = ctx.rep, ctx.ops, ctx.triple
    ft = pr.build_finite_triple_ko6(1.0 + 2.0j)
    pt = pr.assemble_product(t, ft)
    tab = ctx.sign_table
    eye_m = np.eye(rep.dim)
    eye_f = np.eye(ft.dimF)

    r.add(
        "finite_ko6_invariants",
        "Sec4:finite-KO6",
        "build",
        lambda: max(
            residual_norm(ft.DF, adjoint(ft.DF)),
            residual_norm(ft.JF.square(), eye_f),
            residual_norm(ft.JF.mat @ np.conj(ft.DF), ft.DF @ ft.JF.mat),
            residual_norm(ft.JF.mat @ np.conj(ft.GammaF), -ft.GammaF @ ft.JF.mat),
            residual_norm(ft.GammaF @ ft.DF, -ft.DF @ ft.GammaF),
            pr.finite_first_order_residual(ft),
        ),
    )
    r.add(
        "twisted_grading_product",
        "EqDirTot",
        "chain",
        lambda: residual_norm(
            pt.Dp @ pt.Gammap + pt.Kp @ pt.Gammap @ pt.Kp @ pt.Dp,
            np.zeros_like(pt.Dp),
        ),
    )
    r.add(
        "kp_rewrite",
        "EqDirTot",
        "build",
        lambda: residual_norm(
            pt.Dp, pt.Kp @ (kron(t.K @ t.D, eye_f) + kron(eye_m, ft.DF))
        ),
    )
    r.add(
        "o_constraint_k",
        "Sec4:O-constraints",
        "build",
        lambda: max(
            v.value
            for v in pr.constraint_check_O(ops.K, ops.J, ops.Gamma, tab.eps, tab.eps_prime).values()
        ),
    )

    def o_constraint_control() -> float:
        res = pr.constraint_check_O(ops.Gamma, ops.J, ops.Gamma, tab.eps, tab.eps_prime)
        worst = max(v.value for v in res.values())
        # the control candidate must violate at least one constraint by O(1)
        return 0.0 if worst > 0.5 else 1.0

    r.add("o_constraint_control", "Sec4:O-constraints", "build", o_constraint_control)

    def derivation_split() -> float:
        rng = _rng(cfg, 4, 1)
        worst = 0.0
        scalars = [eye_m, (0.4 - 0.3j) * eye_m]
        randoms = [
            rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
            for _ in range(3)
        ]
        for a1 in scalars + randoms:
            for a2 in ft.algebra_gens:
                worst = max(worst, pr.derivation_split_check(pt, a1, a2).value)
        return worst

    r.add("derivation_splitting", "Sec4:derivation-splitting", "build", derivation_split)

    def product_first_order() -> float:
        worst = 0.0
        for a2 in ft.algebra_gens:
            for b2 in ft.algebra_gens:
                worst = max(
                    worst,
                    kr.twisted_first_order_residual(
                        pt.Dp, kron(eye_m, a2), kron(eye_m, b2), pt.Jp, pt.Kp
                    ).value,
                )
        # scalar manifold factors against finite generators
        for lam in (1.0, 0.3 + 0.4j):
            for a2 in ft.algebra_gens:
                worst = max(
                    worst,
                    kr.twisted_first_order_residual(
                        pt.Dp, kron(lam * eye_m, a2), kron(eye_m, a2), pt.Jp, pt.Kp
                    ).value,
                )
        return worst

    r.add("product_first_order", "Sec1:twisted-first-order", "build", product_first_order)

    def product_fluct() -> float:
        rng = _rng(cfg, 4, 2)
        spins = kr.sample_spin_plus(rep, 5, seed=cfg.seed + 91)
        worst = 0.0
        for s in spins:
            z = rng.normal(size=(ft.dimF, ft.dimF)) + 1j * rng.normal(size=(ft.dimF, ft.dimF))
            u, _ = np.linalg.qr(z)
            worst = max(worst, pr.product_fluctuation_check(pt, s.matrix, u).value)
        return worst

    r.add("product_fluctuation", "Sec4:product-fluctuation", "sampled", product_fluct)

    def fermionic_split() -> float:
        rng = _rng(cfg, 4, 3)
        worst = 0.0
        for _ in range(50):
            psi1 = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
            phi1 = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
            psi2 = rng.normal(size=ft.dimF) + 1j * rng.normal(size=ft.dimF)
            phi2 = rng.normal(size=ft.dimF) + 1j * rng.normal(size=ft.dimF)
            worst = max(worst, pr.fermionic_action(pt, psi1, psi2, phi1, phi2)["residual"])
        return worst

    r.add("fermionic_action_split", "EqEval", "build", fermionic_split)

    def gauge_vs_form() -> float:
        rng = _rng(cfg, 4, 4)
        worst = 0.0
        for _ in range(5):
            th1, th2, lam = rng.uniform(0, 2 * np.pi, size=3)
            u_f = pr.finite_algebra_unitary(ft, th1, th2)
            worst = max(
                worst,
                pr.gauge_vs_form_residual(pt, np.exp(1j * lam) * eye_m, u_f),
            )
        return worst

    r.add("gauge_vs_form", "Sec1:twisted-fluctuation", "sampled", gauge_vs_form)
    r.add(
        "dirac_mass_shape",
        "Sec4:Dirac-mass-shape",
        "build",
        lambda: pr.dirac_mass_shape_check(pt, seed=cfg.seed + 7).value,
    )

    def sign_row_definite() -> float:
        e0, e1, e2, e3 = pt.sign_row
        return 0.0 if all(s in (-1, 1) for s in (e0, e1, e2, e3)) else 1.0

    r.add("product_sign_row_definite", "Sec4:product-signs", "build", sign_row_definite)
    return r.records


# --------------------------------------------------------------------------
# emergence
# --------------------------------------------------------------------------

def _candidate_label(row: pr.EmergenceRow) -> str:
    body = "".join(str(i) for i in row.indices) if row.indices else "id"
    sig = "".join("p" if s > 0 else "m" for s in row.signature)
    eps = "p" if row.eps > 0 else "m"
    return f"candidate.g{row.grade}_{body}.eps_{eps}.sig_{sig}"


def run_emergence(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "emergence")
    rep4 = cl.build_gammas(cl.Signature(4, 0))
    rows = pr.signature_emergence(rep4)
    summary = pr.check_emergence_table(rows)

    # one row per candidate; the residual covers the scalar-diagonal check
    # and, for odd-grade candidates, the eps <-> signature classification
    for row in rows:
        def candidate(row=row) -> float:
            bad = row.diag_scalar_residual
            if row.eps_prime == -1:
                want_plus = 1 if row.eps == -1 else 3
                if row.plus_count != want_plus:
                    bad = max(bad, 1.0)
            return bad

        r.add(_candidate_label(row), "Sec4:signature-emergence", "build", candidate)

    r.add(
        "table_complete",
        "Sec4:signature-emergence",
        "build",
        lambda: float(abs(summary["n_rows"] - 16)),
    )
    r.add(
        "diag_metric_scalar",
        "Sec4:signature-emergence",
        "build",
        lambda: max(row.diag_scalar_residual for row in rows),
    )
    r.add(
        "lorentz_class_eps_minus",
        "Sec4:eps-to-signature",
        "build",
        lambda: 0.0
        if len(summary["lorentzian_rows"]) == 4
        and all(row.plus_count == 1 for row in summary["lorentzian_rows"])
        else 1.0,
    )
    r.add(
        "lorentz_class_eps_plus",
        "Sec4:eps-to-signature",
        "build",
        lambda: 0.0
        if len(summary["anti_lorentzian_rows"]) == 4
        and all(row.plus_count == 3 for row in summary["anti_lorentzian_rows"])
        else 1.0,
    )
    r.add(
        "ko6_selects_lorentz",
        "Sec4:KO6-selects-Lorentz",
        "build",
        lambda: 0.0 if not summary["violations"] and len(summary["ko6_rows"]) == 4 else 1.0,
    )
    r.add(
        "riemannian_row_listed",
        "Sec4:signature-emergence",
        "build",
        lambda: 0.0 if summary["riemannian_row_present"] else 1.0,
    )

    def gamma_time_row() -> float:
        for row in rows:
            if row.indices == (0,):
                ok = row.signature == (1, -1, -1, -1) and row.eps == -1
                return 0.0 if ok else 1.0
        return 1.0

    r.add("gamma_time_candidate", "Sec4:K=gamma0", "build", gamma_time_row)
    return r.records


SUITE_BUILDERS = {
    "clifford": run_clifford,
    "krein": run_krein,
    "morphism": run_morphism,
    "geometry": run_geometry,
    "product": run_product,
    "emergence": run_emergence,
}


def run(cfg: SuiteConfig) -> Report:
    """Execute the configured suites in declared order and build the report."""
    cfg.validate()
    records: list[CheckRecord] = []
    contexts = _Contexts()
    for suite in cfg.resolved_suites():
        builder = SUITE_BUILDERS.get(suite)
        if builder is None:
            raise ConfigError(f"unknown suite '{suite}'")
        records.extend(builder(cfg, contexts))
    return Report.from_records(cfg, records)
