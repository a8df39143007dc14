"""Check suites: every verified identity becomes one deterministic record.

A suite is a table of ``Check`` rows (check id, anchor, tolerance class,
residual function) over a shared context: one signature's operators
(``SignatureContext``, shared by all suites of a run), a curved metric
family, the geometry oracles or the emergence table.  One runner walks the
configured signatures for the clifford, krein and morphism tables.

Each check is a residual computation executed under a seed derived from the
run configuration, so re-running with the same config reproduces bit-equal
residual values.  Check failures never raise; they become failed records
(an exception inside a check is recorded as an infinite residual).
"""

from __future__ import annotations

import time
from functools import cache, cached_property, partial
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from . import clifford as cl
from . import geometry as geo
from . import krein as kr
from . import morphism as mo
from . import product as pr
from .linalg import adjoint, chunk_sizes, gaussian_stacks, kron, max_residual, op_norms, residual_norm
from .linalg import _worst  # the one NaN-propagating maximum
from .report import CHECKED_FAMILIES, CheckRecord, ConfigError, Report, SuiteConfig

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


class Check(NamedTuple):
    """A suite-table row: the residual is ``fn(ctx)``, or ``fn(ctx, rng)`` on
    random stream ``stream``; with ``when``, only on contexts it accepts."""

    id: str
    anchor: str
    tol_class: str
    fn: Callable[..., float]
    stream: Optional[int] = None
    when: Optional[Callable[[Any], bool]] = None


def _add_rows(r: _Runner, table, ctx, prefix: str = "", streams=None) -> None:
    """One record per row that applies to ``ctx``; ``streams(k)`` is stream k."""
    for row in table:
        if row.when is None or row.when(ctx):
            args = (ctx,) if row.stream is None else (ctx, streams(row.stream))
            r.add(prefix + row.id, row.anchor, row.tol_class, partial(row.fn, *args))


def _rng(cfg: SuiteConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, *key])


def _flag(ok) -> float:
    """Residual of a yes/no check: 0 when it holds, 1 otherwise."""
    return 0.0 if ok else 1.0


class SignatureContext:
    """The operators of one signature, built once per run and shared by every
    suite that reads the signature.

    Gammas and structural operators are built on construction, the rest on
    first use, inside a check, and kept once built; a construction error
    becomes that check's failed record, and the next reader tries again.
    ``seed`` and ``index`` (the position in the configured signatures) key
    the random streams, spin samples included; a signature read only by the
    geometry, product or emergence suite may have no index.
    """

    def __init__(self, sig: cl.Signature, seed: int = 0, index: Optional[int] = None):
        self.sig = sig
        self.seed = seed
        self.index = index
        self.rep = cl.build_gammas(sig)
        self.ops = cl.build_structural(self.rep)

    def rng(self, suite: int, stream: int) -> np.random.Generator:
        """Random stream ``stream`` of suite number ``suite`` on this signature."""
        return np.random.default_rng([self.seed, suite, self.index, stream])

    @cached_property
    def structural(self) -> dict:
        return cl.verify_structural(self.rep, self.ops)

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

    @property
    def finite(self) -> pr.FiniteTriple:
        return _finite_ko6()

    @cached_property
    def product(self) -> pr.ProductTripleData:
        """The triple times the finite KO-6 triple."""
        return pr.assemble_product(self.triple, self.finite)

    @cached_property
    def krein_spins(self) -> list:
        return kr.sample_spin_plus(self.rep, 20, self.rng(1, 0))

    @cached_property
    def morphism_spins(self) -> list:
        return kr.sample_spin_plus(self.rep, 20, self.rng(2, 0))


# the finite KO-6 triple depends on neither signature nor seed: built on first use, then shared
_finite_ko6 = cache(partial(pr.build_finite_triple_ko6, 1.0 + 2.0j))


class _Contexts(dict):
    """Signature contexts of one run, keyed by (p, q) and built on demand."""

    def __init__(self, cfg: SuiteConfig):
        super().__init__()
        self.seed = cfg.seed
        self.index = {(p, q): i for i, (p, q) in enumerate(cfg.signatures)}

    def __missing__(self, key: tuple) -> SignatureContext:
        ctx = self[key] = SignatureContext(cl.Signature(*key), self.seed, self.index.get(key))
        return ctx


# ---- sampled checks
#
# Each draws all of its samples from ``rng`` in capped stacks
# (``linalg.gaussian_stacks``) and evaluates one residual per sample with
# stacked kernels; the check value is the largest residual.

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
    return _worst(np.abs(probes["norm"] - probes["gR_norm"])[counted])


# ---- clifford, krein, morphism: one table each over the signature contexts

def _sign_cross_relations(c: SignatureContext) -> float:
    tab = c.sign_table
    return (abs(tab.eps0 - tab.eps0K) + abs(tab.eps2 - tab.eps2K)
            + abs(tab.eps1K - tab.eps * tab.eps1) + abs(tab.eps3 - tab.eps_prime * tab.eps3K))


CLIFFORD = (
    Check("anticommutator_table", "Sec2:CliffordRelation", "build",
          lambda c: c.rep.relation_residuals[0]),
    Check("gamma_unitarity", "Sec2:CliffordRelation", "build",
          lambda c: c.rep.relation_residuals[1]),
    Check("gamma_dagger_sign", "Sec2:rho(e_a)=g_a.e_a", "build",
          lambda c: c.rep.gamma_table_norm(lambda g, s: adjoint(g) - s * g)),
    Check("twist_parity", "Sec3:rho(c(v))=c(rv)", "build", twist_parity, stream=1),
    Check("k_hermitian_involution", "Sec1:K=exp(i.theta).K-dagger", "build",
          lambda c: max(*cl.involution_residuals(c.ops.K), *cl.involution_residuals(c.ops.Gamma))),
    Check("charge_conjugation", "Sec2:kappa(v)=-conj(v)", "build",
          lambda c: c.structural["charge_conjugation"].value),
    Check("c_equals_k_chat", "Sec2:C=K.Chat", "build",
          lambda c: c.structural["c_equals_k_chat"].value),
    Check("kappa_factorization", "Sec2:kappa=kappahat.rho", "build",
          lambda c: c.structural["kappa_factorization"].value),
    Check("automorphism_commutation", "Sec2:rho-chi-kappa-commute", "build",
          lambda c: c.structural["automorphism_commutation"].value),
    Check("rho_involution", "Sec2:rho-involution", "build",
          lambda c: c.rep.gamma_table_norm(
              lambda g, s: c.ops.K @ (c.ops.K @ g @ c.ops.K) @ c.ops.K - g)),
    Check("trace_metric", "EqMetTrace", "build", trace_metric, stream=2),
    Check("sign_cross_relations", "Sec3:eps-relations", "build", _sign_cross_relations),
    Check("ko6_pseudo_row", "Sec4:KO6-signs", "build",
          lambda c: _flag(c.sign_table.pseudo_row() == (1, 1, -1, -1)),
          when=lambda c: (c.sig.p, c.sig.q) == (1, 3)),
)


def _krein_sign_spectrum(c: SignatureContext) -> float:
    ev = np.linalg.eigvalsh(c.ops.K)
    worst = float(np.max(np.abs(np.abs(ev) - 1.0)))
    # indefiniteness witness: both K-eigenvalue signs occur
    if c.sig.p > 0 and c.sig.q > 0 and not (np.any(ev > 0) and np.any(ev < 0)):
        worst = max(worst, 1.0)
    return worst


def _k_adjoint_involution(c: SignatureContext, rng: np.random.Generator) -> float:
    space = c.pair.pseudo.space
    o = rng.normal(size=(c.rep.dim, c.rep.dim)) + 1j * rng.normal(size=(c.rep.dim, c.rep.dim))
    return residual_norm(kr.k_adjoint(space, kr.k_adjoint(space, o)), o)


def _first_order_scalars(c: SignatureContext) -> float:
    t, n = c.triple, len(c.triple.algebra_gens)
    gens = np.array(t.algebra_gens)
    return kr.twisted_first_order_residual(
        t.D, np.repeat(gens, n, axis=0), np.tile(gens, (n, 1, 1)), t.J, t.K).value


def _gauge_selfadjointness(c: SignatureContext) -> float:
    t = c.triple
    outs = (kr.gauge_transform(t.D, s.matrix, t.J, t.space) for s in c.krein_spins[:5])
    return _worst(residual_norm(out, adjoint(out)) for out in outs)


def _gauge_vs_form(c: SignatureContext, rng: np.random.Generator) -> float:
    """Gauge orbits against the one-form formula on the product triple."""
    pt, eye_m = c.product, np.eye(c.rep.dim)
    unitaries = ((np.exp(1j * lam) * eye_m, pr.finite_algebra_unitary(pt.finite, th1, th2))
                 for th1, th2, lam in rng.uniform(0, 2 * np.pi, size=(5, 3)))
    return _worst(pr.gauge_vs_form_residual(pt, u_m, u_f) for u_m, u_f in unitaries)


def _gauge_equals_form(c: SignatureContext, rng: np.random.Generator) -> float:
    # gauge orbits match the one-form formula where the order-zero and first-order
    # axioms hold: algebra unitaries of a product with the finite model (dim >= 4
    # manifold sides), or the finite triple alone (trivial twist) in dimension 2.
    if c.sig.dim >= 4:
        return _gauge_vs_form(c, rng)
    ft = c.finite
    eye_f = np.eye(ft.dimF)
    space_f = kr.KreinSpace(ft.dimF, eye_f)

    def residual(u):
        gauge = kr.gauge_transform(ft.DF, u, ft.JF, space_f)
        a_form = u @ kr.twisted_commutator(ft.DF, adjoint(u), eye_f)
        return residual_norm(gauge, kr.fluctuate(ft.DF, a_form, ft.JF, +1))

    return _worst(residual(pr.finite_algebra_unitary(ft, th1, th2))
                  for th1, th2 in rng.uniform(0, 2 * np.pi, size=(5, 2)))


KREIN = (
    Check("k_product_hermitian", "Sec1:K-product", "build", k_product_hermitian, stream=1),
    Check("krein_sign_spectrum", "Sec2:Krein-space", "build", _krein_sign_spectrum),
    Check("adjoint_pairing", "Sec1:plus-adjoint", "chain", adjoint_pairing, stream=2),
    Check("k_adjoint_involution", "Sec1:plus-adjoint", "build", _k_adjoint_involution, stream=3),
    Check("spin_inverse_rule", "Sec2:x-inv=rho(x-dagger)", "sampled",
          lambda c: spin_inverse_rule(c, c.krein_spins)),
    Check("spin_k_unitarity", "Sec1:K-unitarity", "sampled",
          lambda c: spin_k_unitarity(c, c.krein_spins)),
    Check("spin_product_invariance", "Sec2:Spin+-invariant-product", "sampled",
          lambda c, rng: spin_product_invariance(c, c.krein_spins, rng), stream=4),
    Check("k_fixed_under_spin", "Sec2:K-fixed-under-Spin+", "sampled",
          lambda c: k_fixed_under_spin(c, c.krein_spins)),
    Check("twisted_leibniz", "Sec1:twisted-Leibniz", "chain", twisted_leibniz, stream=5),
    Check("bimodule_action", "EqLR", "chain", bimodule_action, stream=6),
    Check("first_order_scalars", "Sec1:twisted-first-order", "build", _first_order_scalars),
    Check("gauge_selfadjointness", "Sec1:Ad(u_K)", "chain", _gauge_selfadjointness),
    Check("gauge_equals_form", "Sec1:twisted-fluctuation", "sampled", _gauge_equals_form, stream=7),
)


def _involution(c: SignatureContext) -> float:
    back = mo.invert_k_morphism(c.pair.pseudo)
    again = mo.apply_k_morphism(back)
    return max(residual_norm(back.D, c.triple.D), residual_norm(again.Dk, c.pair.pseudo.Dk))


def _selfadjoint_equivalence(c: SignatureContext) -> float:
    res, gap = mo.selfadjoint_equivalence_check(c.pair)
    return max(res.value, gap)


def _euclidean_collapse(c: SignatureContext) -> float:
    s = c.rep.signs
    k_is_one = residual_norm(c.ops.K, np.eye(c.rep.dim))
    return max(k_is_one, float(np.max(np.abs(np.outer(s, s) - 1.0))))


def _twisted_grading(c: SignatureContext) -> float:
    tab = c.sign_table
    # when the Krein side anticommutes, the twisted side obeys D Gamma + eps' Gamma D = 0
    if tab.eps3K != -1:
        return 0.0
    t = c.triple
    return residual_norm(t.D @ t.Gamma + tab.eps_prime * (t.Gamma @ t.D), np.zeros_like(t.D))


MORPHISM = (
    Check("involution", "Sec3:D->KD", "involution", _involution),
    Check("selfadjoint_equivalence", "Sec3:selfadjoint-equivalence", "build",
          _selfadjoint_equivalence),
    Check("commutator_correspondence", "Sec3:[DK,a]=K[D,a]_rho", "build",
          commutator_correspondence, stream=1),
    Check("first_order_correspondence", "Sec3:first-order-correspondence", "build",
          first_order_correspondence, stream=2),
    Check("fluctuation_correspondence", "Sec3:DK_AK=K.D_Arho", "sampled",
          lambda c: fluctuation_correspondence(c, c.morphism_spins)),
    Check("twisted_clifford", "EqDefCliffTw", "chain", twisted_clifford, stream=3),
    Check("generalized_clifford", "EqCliffGeneralise", "chain",
          lambda c: mo.generalized_clifford_check(c.rep, c.ops).value),
    Check("euclidean_collapse", "Sec3:s_ab=1-collapse", "build", _euclidean_collapse,
          when=lambda c: c.sig.q == 0),
    Check("trace_metric_morph", "EqMetTrace", "chain",
          lambda c: mo.trace_metric_morph_check(c.rep, c.ops, pairs=100,
                                                seed=c.seed + 71 * c.index).value),
    Check("twisted_grading", "Sec3:twisted-grading", "build", _twisted_grading),
    Check("symbol_norm_pure_block", "Sec3:Prop4-distance", "sampled", symbol_norm_pure_block,
          stream=4),
)

# suite: (random-stream key, table)
SIGNATURE_SUITES = {"clifford": (0, CLIFFORD), "krein": (1, KREIN), "morphism": (2, MORPHISM)}


def _run_signature_suite(suite: str, cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    """Every row of the suite's table on every configured signature, in order."""
    key, table = SIGNATURE_SUITES[suite]
    r = _Runner(cfg, suite)
    for p, q in cfg.signatures:
        ctx = contexts[(p, q)]
        _add_rows(r, table, ctx, f"p{p}q{q}.", partial(ctx.rng, key))
    return r.records


# ---- geometry

def _family_points(metric: geo.MetricField, count: int, rng: np.random.Generator, h: float):
    lo = metric.domain[:, 0] + 4 * h
    hi = metric.domain[:, 1] - 4 * h
    return [lo + (hi - lo) * rng.uniform(size=metric.dim) for _ in range(count)]


class _FamilyContext:
    """One curved metric family, its sample points and the FD step."""

    def __init__(self, metric: geo.MetricField, pts: list, h: float):
        self.metric = metric
        self.pts = pts
        self.h = h

    @cached_property
    def connection(self) -> list[dict]:
        """``spin_connection_coeffs`` at every sample point, computed once."""
        return [geo.spin_connection_coeffs(self.metric, x, self.h) for x in self.pts]


def _vielbein_orthonormality(f: _FamilyContext) -> float:
    m = f.metric
    flat, eye = np.diag(m.r_signs), np.eye(m.dim)

    def gaps(x):
        e, einv = geo.vielbein(m, x)
        return (residual_norm(e @ m.g_at(x) @ e.T, flat),
                residual_norm(e @ m.gR_at(x) @ e.T, eye), residual_norm(e @ einv.T, eye))

    return _worst(gap for x in f.pts for gap in gaps(x))


def _rewrit_tgamma(f: _FamilyContext) -> float:
    s = f.metric.r_signs
    gaps = (c["refl_frame_b_mu_a"] - s[:, None, None] * c["Gamma_b_mu_a"] * s[None, None, :]
            for c in f.connection)
    return _worst(float(np.max(np.abs(gap))) for gap in gaps)


def _frame_connection_relation(f: _FamilyContext) -> float:
    gaps = (c["refl_frame_b_mu_a"] - (c["GammaR_b_mu_a"] + c["K_b_mu_a"]) for c in f.connection)
    return _worst(float(np.max(np.abs(gap))) for gap in gaps)


FAMILY = (
    Check("christoffel_symmetry", "Sec3:LeviCivita", "fd",
          lambda f: max(geo.christoffel(f.metric, False, x, f.h).symmetry_residual()
                        for x in f.pts)),
    Check("relat_christos", "RelatChristos", "fd",
          lambda f: max(geo.christoffel_relation_check(f.metric, x, f.h).value for x in f.pts)),
    Check("metric_compatibility", "Sec3:metric-compatibility", "fd",
          lambda f: max(max(geo.metric_compatibility_residual(f.metric, use_gR, x, f.h)
                            for use_gR in (False, True)) for x in f.pts)),
    Check("reflection_isometry", "EqReflect", "build",
          lambda f: max(geo.reflection_isometry_residual(f.metric, x) for x in f.pts)),
    Check("vielbein_orthonormality", "Sec3:vielbein", "sampled", _vielbein_orthonormality),
    Check("rewrit_tgamma", "EqRewritTGamma", "fd", _rewrit_tgamma),
    Check("frame_connection_relation", "EqRelatGammVielb", "fd", _frame_connection_relation),
)


class _Oracles(NamedTuple):
    """The FD step, default metrics and (1,3) gammas the oracles read."""

    h: float
    exp2d: geo.MetricField
    conf: geo.MetricField
    flat: geo.MetricField
    rep13: cl.CliffordRep


def _conformal_closed_form(o: _Oracles) -> float:
    x = np.array([0.15, -0.1])
    got = geo.christoffel(o.conf, False, x, o.h).values
    amp = 0.1
    dphi = np.array([amp * np.cos(x[0] + 2 * x[1]), 2 * amp * np.cos(x[0] + 2 * x[1])])
    # Gamma^l_mn = delta_lm dphi_n + delta_ln dphi_m - delta_mn dphi_l
    d = np.eye(2)
    want = (d[:, :, None] * dphi[None, None, :] + d[:, None, :] * dphi[None, :, None]
            - d[None, :, :] * dphi[:, None, None])
    return float(np.max(np.abs(got - want)))


def _plane_wave_dirac(o: _Oracles) -> float:
    """Flat-space plane wave against the symbol."""
    k = np.array([0.3, -0.2, 0.5, 0.1])
    psi = geo.plane_wave_spinor(k, np.array([1.0, 0.5j, -0.25, 0.125 + 0.3j]))
    x = np.array([0.05, 0.1, -0.1, 0.2])
    got = geo.dirac_apply_pseudo(o.flat, o.rep13, psi, x, o.h)
    want = -sum(k[a] * o.rep13.gammas[a] for a in range(4)) @ psi(x)
    return float(np.linalg.norm(got - want))


X0_EXP2D = np.array([0.1, -0.2])

ORACLES = (
    Check("exp2d.closed_form_gamma", "Sec3:LeviCivita", "fd_fine",
          lambda o: abs(geo.christoffel(o.exp2d, False, X0_EXP2D, o.h).values[0, 0, 0] - 1.0)),
    Check("exp2d.fd_convergence_ratio", "Sec3:LeviCivita", "ratio",
          lambda o: abs(geo.fd_convergence_ratio(o.exp2d, X0_EXP2D, o.h) - 4.0)),
    Check("conformal2d.closed_form_gamma", "Sec3:LeviCivita", "fd_fine", _conformal_closed_form),
    Check("flat4d.plane_wave_dirac", "Sec2:DK=i.gamma.nabla", "fd_fine", _plane_wave_dirac),
)

# K (i gamma nabla) psi against the reflected-frame assembly on default
# metrics: (family, signature, spinor seed offset, points, sign must stay
# constant between the points)
DECOMPOSITIONS = (
    ("lorentz4d", (1, 3), 17, 3, True),
    ("lorentz2d", (1, 1), 19, 3, True),
    ("conformal2d", (2, 0), 23, 2, False),  # Euclidean reduction: trivial twist
)


def _dirac_decomposition(metric, ctx: SignatureContext, spinor, pts, constant_sign, h) -> float:
    checks = [geo.dirac_decomposition_check(metric, ctx.rep, ctx.ops, spinor, x, h) for x in pts]
    if constant_sign and len({sgn for _, sgn in checks}) != 1:
        return float("inf")
    return _worst(res.value for res, _ in checks)


def run_geometry(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "geometry")
    h = cfg.fd_step
    for fi, name in enumerate(CHECKED_FAMILIES):
        metric = geo.metric_family(name, cfg.metric_params if name == cfg.metric_family else None)
        family = _FamilyContext(metric, _family_points(metric, 5, _rng(cfg, 3, fi), h), h)
        _add_rows(r, FAMILY, family, f"{name}.")
    exp2d, conf, flat = (geo.metric_family(name) for name in ("exp2d", "conformal2d", "flat4d"))
    _add_rows(r, ORACLES, _Oracles(h, exp2d, conf, flat, contexts[(1, 3)].rep))
    rng = _rng(cfg, 3, 99)  # the decomposition points share one stream, drawn in table order
    for name, sig, salt, count, constant_sign in DECOMPOSITIONS:
        metric, ctx = geo.metric_family(name), contexts[sig]
        spinor = geo.trig_spinor(ctx.rep.dim, metric.dim, seed=cfg.seed + salt)
        pts = _family_points(metric, count, rng, h)
        fn = partial(_dirac_decomposition, metric, ctx, spinor, pts, constant_sign, h)
        r.add(f"{name}.dirac_decomposition", "EqDefDir", "fd_coarse", fn)
    return r.records


# ---- product: the (1,3) context's product with the finite KO-6 triple

def _kp_rewrite(c: SignatureContext) -> float:
    pt, t, ft = c.product, c.triple, c.finite
    rewritten = pt.Kp @ (kron(t.K @ t.D, np.eye(ft.dimF)) + kron(np.eye(c.rep.dim), ft.DF))
    return residual_norm(pt.Dp, rewritten)


def _o_constraint(c: SignatureContext, o: np.ndarray) -> float:
    tab = c.sign_table
    res = pr.constraint_check_O(o, c.ops.J, c.ops.Gamma, tab.eps, tab.eps_prime)
    return max(v.value for v in res.values())


def _derivation_splitting(c: SignatureContext, rng: np.random.Generator) -> float:
    d, eye_m = c.rep.dim, np.eye(c.rep.dim)
    scalars = [eye_m, (0.4 - 0.3j) * eye_m]
    randoms = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]
    gens = c.finite.algebra_gens
    return _worst(
        pr.derivation_split_check(c.product, a1, a2).value
        for a1 in scalars + randoms
        for a2 in gens
    )


def _product_first_order(c: SignatureContext) -> float:
    pt, eye_m, gens = c.product, np.eye(c.rep.dim), c.finite.algebra_gens
    pairs = [(kron(eye_m, a2), kron(eye_m, b2)) for a2 in gens for b2 in gens]
    # scalar manifold factors against finite generators
    pairs += [(kron(lam * eye_m, a2), kron(eye_m, a2)) for lam in (1.0, 0.3 + 0.4j) for a2 in gens]
    a, b = (np.array(side) for side in zip(*pairs))
    return kr.twisted_first_order_residual(pt.Dp, a, b, pt.Jp, pt.Kp).value


def _product_fluctuation(c: SignatureContext, rng: np.random.Generator) -> float:
    spins = kr.sample_spin_plus(c.rep, 5, rng)
    z = rng.normal(size=(5, 2, c.finite.dimF, c.finite.dimF))  # real, imaginary part of each draw
    us, _ = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    return _worst(pr.product_fluctuation_check(c.product, s.matrix, u).value for s, u in zip(spins, us))


def _fermionic_action_split(c: SignatureContext, rng: np.random.Generator) -> float:
    dm, df = c.rep.dim, c.finite.dimF
    draws = gaussian_stacks(rng, 50, dm, [(dm,), (dm,), (df,), (df,)], complex_=True)
    return _worst(
        pr.fermionic_action(c.product, psi1, psi2, phi1, phi2)["residual"]
        for stacks in draws
        for psi1, phi1, psi2, phi2 in zip(*stacks)
    )


PRODUCT = (
    Check("finite_ko6_invariants", "Sec4:finite-KO6", "build",
          lambda c: max(pr.finite_ko6_residuals(c.finite).values())),
    Check("twisted_grading_product", "EqDirTot", "chain",
          lambda c: pr.twisted_grading_residual(c.product.Dp, c.product.Gammap, c.product.Kp)),
    Check("kp_rewrite", "EqDirTot", "build", _kp_rewrite),
    Check("o_constraint_k", "Sec4:O-constraints", "build", lambda c: _o_constraint(c, c.ops.K)),
    # the control candidate must violate at least one constraint by O(1)
    Check("o_constraint_control", "Sec4:O-constraints", "build",
          lambda c: _flag(_o_constraint(c, c.ops.Gamma) > 0.5)),
    Check("derivation_splitting", "Sec4:derivation-splitting", "build", _derivation_splitting,
          stream=1),
    Check("product_first_order", "Sec1:twisted-first-order", "build", _product_first_order),
    Check("product_fluctuation", "Sec4:product-fluctuation", "sampled", _product_fluctuation,
          stream=2),
    Check("fermionic_action_split", "EqEval", "build", _fermionic_action_split, stream=3),
    Check("gauge_vs_form", "Sec1:twisted-fluctuation", "sampled", _gauge_vs_form, stream=4),
    Check("dirac_mass_shape", "Sec4:Dirac-mass-shape", "build",
          lambda c: pr.dirac_mass_shape_check(c.product, seed=c.seed + 7).value),
    Check("product_sign_row_definite", "Sec4:product-signs", "build",
          lambda c: _flag(all(s in (-1, 1) for s in c.product.sign_row))),
)


def run_product(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "product")
    _add_rows(r, PRODUCT, contexts[(1, 3)], streams=partial(_rng, cfg, 4))
    return r.records


# ---- emergence

def _candidate_label(row: pr.EmergenceRow) -> str:
    body = "".join(str(i) for i in row.indices) if row.indices else "id"
    sig = "".join("p" if s > 0 else "m" for s in row.signature)
    eps = "p" if row.eps > 0 else "m"
    return f"candidate.g{row.grade}_{body}.eps_{eps}.sig_{sig}"


def _candidate(row: pr.EmergenceRow) -> float:
    """Scalar-diagonal residual; for odd-grade candidates also the eps <-> signature class."""
    bad = row.diag_scalar_residual
    if row.eps_prime == -1:
        want_plus = 1 if row.eps == -1 else 3
        if row.plus_count != want_plus:
            bad = max(bad, 1.0)
    return bad


def _class_rows(table: dict, key: str, plus_count: int) -> float:
    rows = table[key]
    return _flag(len(rows) == 4 and all(row.plus_count == plus_count for row in rows))


def _gamma_time_candidate(table: dict) -> float:
    for row in table["rows"]:
        if row.indices == (0,):
            return _flag(row.signature == (1, -1, -1, -1) and row.eps == -1)
    return 1.0


# rows over the summary of the candidate table, with the candidates under "rows"
EMERGENCE = (
    Check("table_complete", "Sec4:signature-emergence", "build",
          lambda e: float(abs(e["n_rows"] - 16))),
    Check("diag_metric_scalar", "Sec4:signature-emergence", "build",
          lambda e: max(row.diag_scalar_residual for row in e["rows"])),
    Check("lorentz_class_eps_minus", "Sec4:eps-to-signature", "build",
          lambda e: _class_rows(e, "lorentzian_rows", 1)),
    Check("lorentz_class_eps_plus", "Sec4:eps-to-signature", "build",
          lambda e: _class_rows(e, "anti_lorentzian_rows", 3)),
    Check("ko6_selects_lorentz", "Sec4:KO6-selects-Lorentz", "build",
          lambda e: _flag(not e["violations"] and len(e["ko6_rows"]) == 4)),
    Check("riemannian_row_listed", "Sec4:signature-emergence", "build",
          lambda e: _flag(e["riemannian_row_present"])),
    Check("gamma_time_candidate", "Sec4:K=gamma0", "build", _gamma_time_candidate),
)


def run_emergence(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "emergence")
    ctx = contexts[(4, 0)]
    rows = pr.signature_emergence(ctx.rep, ctx.ops)
    summary = {**pr.check_emergence_table(rows), "rows": rows}
    for row in rows:
        r.add(_candidate_label(row), "Sec4:signature-emergence", "build", partial(_candidate, row))
    _add_rows(r, EMERGENCE, summary)
    return r.records


SUITE_BUILDERS = {
    **{suite: partial(_run_signature_suite, suite) for suite in SIGNATURE_SUITES},
    "geometry": run_geometry,
    "product": run_product,
    "emergence": run_emergence,
}


def run(cfg: SuiteConfig) -> Report:
    """Execute the configured suites in declared order and build the report."""
    cfg.validate()
    records: list[CheckRecord] = []
    contexts = _Contexts(cfg)
    for suite in cfg.resolved_suites():
        builder = SUITE_BUILDERS.get(suite)
        if builder is None:
            raise ConfigError(f"unknown suite '{suite}'")
        records.extend(builder(cfg, contexts))
    return Report.from_records(cfg, records)
