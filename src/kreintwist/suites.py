"""Check suites: every verified identity becomes one deterministic record.

A suite is a table of ``Check`` rows (check id, anchor, tolerance class,
residual function, random stream) over a shared context: one signature's
operators (``SignatureContext``, shared by all suites of a run), a curved
metric family, the geometry oracles or the emergence table.  One runner
walks the configured signatures for the clifford, krein and morphism tables.

Every random generator of a run comes from ``_stream``, keyed by the entropy
sequence (seed, suite number, stream key); kernels draw from the generator
a row hands them and seed nothing, so a config reproduces bit-equal
residuals and two seeds share no sample.  Check failures never raise; they
become failed records (an exception inside a check, a construction error
included, is an infinite residual).
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
from .linalg import adjoint, gaussian_draws, kron, max_gap_norm, max_norm, max_residual, residual_norm
from .linalg import _worst  # the one NaN-propagating maximum
from .report import CHECKED_FAMILIES, CheckRecord, Report, SuiteConfig

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


def _stream(seed: int, suite: int, *key: int) -> np.random.Generator:
    """Random stream ``key`` of suite number ``suite`` (clifford 0, krein 1,
    morphism 2, geometry 3, product 4) in the run of ``seed``: every
    generator of a run comes from here, keyed by an entropy sequence."""
    return np.random.default_rng([seed, suite, *key])


def _flag(ok) -> float:
    """The residual of a yes/no check: 0 when it holds, 1 otherwise."""
    return 0.0 if ok else 1.0


class SignatureContext:
    """The operators of one signature, built once per run and shared by every
    suite that reads the signature.

    Every operator, gammas and structural operators included, is built on
    first use, inside a check, and kept once built; a construction error
    becomes that check's failed record, and the next reader tries again.
    ``seed`` and ``index`` (the position in the configured signatures) key
    the signature suites' random streams, spin samples included; a signature
    read only by the geometry, product or emergence suite may have no index.
    """

    def __init__(self, sig: cl.Signature, seed: int = 0, index: Optional[int] = None):
        self.sig = sig
        self.seed = seed
        self.index = index

    def rng(self, suite: int, stream: int) -> np.random.Generator:
        """Random stream ``stream`` of suite number ``suite`` on this signature."""
        return _stream(self.seed, suite, self.index, stream)

    @cached_property
    def rep(self) -> cl.CliffordRep:
        return cl.build_gammas(self.sig)

    @cached_property
    def ops(self) -> cl.StructuralOps:
        return cl.build_structural(self.rep)

    @cached_property
    def structural(self) -> dict:
        return cl.verify_structural(self.rep, self.ops)

    @cached_property
    def dirac(self) -> tuple[np.ndarray, np.ndarray]:
        return cl.canonical_dirac_pair(self.rep, self.ops.K)

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
    def krein_spins(self) -> np.ndarray:
        return _spin_stack(self.rep, 20, self.rng(1, 0))

    @cached_property
    def morphism_spins(self) -> np.ndarray:
        return _spin_stack(self.rep, 20, self.rng(2, 0))


def _spin_stack(rep: cl.CliffordRep, count: int, rng: np.random.Generator) -> np.ndarray:
    """The matrices of ``count`` spin elements (``krein.sample_spin_plus``) as one stack."""
    return np.array([s.matrix for s in kr.sample_spin_plus(rep, count, rng)])


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
# Each draws all of its operands from ``rng`` in one call
# (``linalg.gaussian_draws``), or reads a context's spin stack, and
# evaluates one residual per sample with stacked kernels; the check value is
# the largest residual.  The reducers cut the operands into capped chunks.
# A check whose residuals are operator norms passes its gap matrices to
# ``max_gap_norm``, which takes an SVD only of the matrices that can hold
# the largest one.

def twist_parity(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """K c(v) K = c(rv) on Gaussian coefficient vectors v."""
    return max_gap_norm(lambda v: cl.twist_parity_gaps(ctx.rep, ctx.ops, v),
                        gaussian_draws(rng, 100, [(ctx.rep.n_gen,)]), ctx.rep.dim)


def trace_metric(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """tr(c(u) c(v)) / dim = g(u, v) on Gaussian pairs."""
    n = ctx.rep.n_gen
    return max_residual(lambda u, v: cl.trace_metric_residuals(ctx.rep, u, v),
                        gaussian_draws(rng, 50, [(n,), (n,)]), ctx.rep.dim)


def k_product_hermitian(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """<a, b>_K = conj(<b, a>_K) on complex Gaussian vectors."""
    space = ctx.pair.pseudo.space
    d = ctx.rep.dim

    def residuals(a, b):
        return np.abs(kr.k_products(space, a, b) - np.conj(kr.k_products(space, b, a)))

    return max_residual(residuals, gaussian_draws(rng, 50, [(d,), (d,)], complex_=True), d)


def adjoint_pairing(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """<psi, O phi>_K = <O^+ psi, phi>_K on complex Gaussian psi, phi, O."""
    space = ctx.pair.pseudo.space
    d = ctx.rep.dim

    def residuals(psi, phi, o):
        lhs = kr.k_products(space, psi, (o @ phi[..., None])[..., 0])
        plus_psi = (kr.k_adjoint(space, o) @ psi[..., None])[..., 0]
        return np.abs(lhs - kr.k_products(space, plus_psi, phi))

    return max_residual(residuals, gaussian_draws(rng, 100, [(d,), (d,), (d, d)], complex_=True), d)


def spin_inverse_rule(ctx: SignatureContext, spins: np.ndarray) -> float:
    """x^-1 = K x^dagger K on a stack of spin elements."""
    K = ctx.ops.K
    return max_gap_norm(lambda s: np.linalg.inv(s) - K @ adjoint(s) @ K, [spins], ctx.rep.dim)


def spin_k_unitarity(ctx: SignatureContext, spins: np.ndarray) -> float:
    """Spin elements are K-unitary."""
    space = ctx.pair.pseudo.space
    return max_gap_norm(lambda s: kr._unitarity_gaps(space, s), [spins], ctx.rep.dim)


def spin_product_invariance(ctx: SignatureContext, spins: np.ndarray, rng: np.random.Generator) -> float:
    """<x psi, x phi>_K = <psi, phi>_K, one Gaussian pair per spin element."""
    space = ctx.pair.pseudo.space
    d = ctx.rep.dim

    def residuals(s, psi, phi):
        moved = kr.k_products(space, (s @ psi[..., None])[..., 0], (s @ phi[..., None])[..., 0])
        return np.abs(moved - kr.k_products(space, psi, phi))

    return max_residual(residuals, [spins, *gaussian_draws(rng, len(spins), [(d,), (d,)], complex_=True)], d)


def k_fixed_under_spin(ctx: SignatureContext, spins: np.ndarray) -> float:
    """x^dagger K x = K on spin elements."""
    K = ctx.ops.K
    return max_gap_norm(lambda s: adjoint(s) @ K @ s - K, [spins], ctx.rep.dim)


def twisted_leibniz(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """[D, ab]_rho = [D, a]_rho b + rho(a) [D, b]_rho on complex Gaussian a, b."""
    t = ctx.triple
    d = ctx.rep.dim

    def gaps(a, b):
        lhs = kr.twisted_commutator(t.D, a @ b, t.K)
        return lhs - (kr.twisted_commutator(t.D, a, t.K) @ b
                      + t.K @ a @ t.K @ kr.twisted_commutator(t.D, b, t.K))

    return max_gap_norm(gaps, gaussian_draws(rng, 20, [(d, d), (d, d)], complex_=True), d)


def bimodule_action(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """a . delta(b) . c = rho(a)(delta(bc) - rho(b) delta(c)): the bimodule
    action keeps one-forms inside the one-form space."""
    t = ctx.triple
    d = ctx.rep.dim

    def rho(x):
        return t.K @ x @ t.K

    def gaps(a, b, c):
        lhs = rho(a) @ kr.twisted_commutator(t.D, b, t.K) @ c
        return lhs - rho(a) @ (
            kr.twisted_commutator(t.D, b @ c, t.K) - rho(b) @ kr.twisted_commutator(t.D, c, t.K)
        )

    return max_gap_norm(gaps, gaussian_draws(rng, 10, [(d, d)] * 3, complex_=True), d)


def commutator_correspondence(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """K [D, a]_rho = [D^K, a] on complex Gaussian a."""
    d = ctx.rep.dim
    return max_gap_norm(lambda a: mo.commutator_correspondence_gaps(ctx.pair, a),
                        gaussian_draws(rng, 20, [(d, d)], complex_=True), d)


def first_order_correspondence(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """The first-order condition corresponds across D -> KD on complex Gaussian a, b."""
    d = ctx.rep.dim
    return max_gap_norm(lambda a, b: mo.first_order_correspondence_gaps(ctx.pair, a, b),
                        gaussian_draws(rng, 10, [(d, d), (d, d)], complex_=True), d)


def fluctuation_correspondence(ctx: SignatureContext, spins: np.ndarray) -> float:
    """Fluctuations by spin elements correspond across D -> KD."""
    return max_gap_norm(lambda s: mo.fluctuation_correspondence_gaps(ctx.pair, s), [spins], ctx.rep.dim)


def twisted_clifford(ctx: SignatureContext, rng: np.random.Generator) -> float:
    """The twisted Clifford relation on Gaussian coefficient pairs."""
    n = ctx.rep.n_gen
    return max_gap_norm(lambda u, v: mo.twisted_clifford_gaps(ctx.rep, ctx.ops, u, v),
                        gaussian_draws(rng, 100, [(n,), (n,)]), ctx.rep.dim)


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
    # each basis vector and each draw lies in one definiteness block (``pure_block``)
    probes = mo.symbol_norm_probes(rep, ctx.ops, np.concatenate(ks))
    return _worst(np.abs(probes["norm"] - probes["gR_norm"]))


# ---- clifford, krein, morphism: one table each over the signature contexts

def _sign_cross_relations(c: SignatureContext) -> float:
    tab = c.sign_table
    return abs(tab.eps1K - tab.eps * tab.eps1) + abs(tab.eps3 - tab.eps_prime * tab.eps3K)


CLIFFORD = (
    Check("anticommutator_table", "Sec2:CliffordRelation", "build",
          lambda c: c.rep.relation_residuals[0]),
    Check("gamma_unitarity", "Sec2:CliffordRelation", "build",
          lambda c: c.rep.relation_residuals[1]),
    Check("gamma_dagger_sign", "Sec2:rho(e_a)=g_a.e_a", "build",
          lambda c: c.rep.gamma_table_norm(lambda g, s: adjoint(g) - s * g)),
    Check("twist_parity", "Sec3:rho(c(v))=c(rv)", "build", twist_parity, stream=1),
    Check("k_hermitian_involution", "Sec1:K=exp(i.theta).K-dagger", "build",
          lambda c: _worst((*cl.involution_residuals(c.ops.K),
                            *cl.involution_residuals(c.ops.Gamma)))),
    Check("charge_conjugation", "Sec2:kappa(v)=-conj(v)", "build",
          lambda c: c.structural["charge_conjugation"]),
    Check("c_equals_k_chat", "Sec2:C=K.Chat", "build",
          lambda c: c.structural["c_equals_k_chat"]),
    Check("kappa_factorization", "Sec2:kappa=kappahat.rho", "build",
          lambda c: c.structural["kappa_factorization"]),
    Check("automorphism_commutation", "Sec2:rho-chi-kappa-commute", "build",
          lambda c: c.structural["automorphism_commutation"]),
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
    o = gaussian_draws(rng, 1, [(c.rep.dim, c.rep.dim)], complex_=True)[0][0]
    return residual_norm(kr.k_adjoint(space, kr.k_adjoint(space, o)), o)


def _first_order_scalars(c: SignatureContext) -> float:
    t, n = c.triple, len(c.triple.algebra_gens)
    gens = np.array(t.algebra_gens)
    return kr.twisted_first_order_residual(
        t.D, np.repeat(gens, n, axis=0), np.tile(gens, (n, 1, 1)), t.J, t.K)


def _gauge_selfadjointness(c: SignatureContext) -> float:
    t = c.triple

    def gaps(us):
        out = kr.gauge_transform(t.D, us, t.J, t.space)
        return out - adjoint(out)

    return max_gap_norm(gaps, [c.krein_spins[:5]], c.rep.dim)


def _gauge_vs_form(c: SignatureContext, rng: np.random.Generator) -> float:
    """Gauge orbits against the one-form formula on the product triple."""
    pt = c.product
    draws = rng.uniform(0, 2 * np.pi, size=(5, 3))
    u_ks = np.exp(1j * draws[:, 2:]) * np.ones(c.rep.dim)  # the diagonals of exp(i lam) 1
    us = np.array([np.diagonal(pr.finite_algebra_unitary(pt.finite, th1, th2)) for th1, th2, _ in draws])
    return max_gap_norm(partial(pr.diagonal_gauge_vs_form_gaps, pt), [u_ks, us], pt.dim)


def _gauge_equals_form(c: SignatureContext, rng: np.random.Generator) -> float:
    # gauge orbits match the one-form formula where the order-zero and first-order
    # axioms hold: algebra unitaries of a product with the finite model (dim >= 4
    # manifold sides), or the finite triple alone (trivial twist) in dimension 2.
    if c.sig.dim >= 4:
        return _gauge_vs_form(c, rng)
    ft = c.finite
    space_f = kr.KreinSpace(ft.dimF, np.eye(ft.dimF))
    us = np.array([np.diagonal(pr.finite_algebra_unitary(ft, th1, th2))
                   for th1, th2 in rng.uniform(0, 2 * np.pi, size=(5, 2))])
    return max_gap_norm(lambda u: kr.diagonal_gauge_form_gaps(ft.DF, u, ft.JF, space_f, +1), [us], ft.dimF)


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
    return _worst((residual_norm(back.D, c.triple.D), residual_norm(again.Dk, c.pair.pseudo.Dk)))


def _euclidean_collapse(c: SignatureContext) -> float:
    s = c.rep.signs
    k_is_one = residual_norm(c.ops.K, np.eye(c.rep.dim))
    return _worst((k_is_one, float(np.max(np.abs(np.outer(s, s) - 1.0)))))


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
          lambda c: mo.selfadjoint_equivalence_check(c.pair)),
    Check("commutator_correspondence", "Sec3:[DK,a]=K[D,a]_rho", "build",
          commutator_correspondence, stream=1),
    Check("first_order_correspondence", "Sec3:first-order-correspondence", "build",
          first_order_correspondence, stream=2),
    Check("fluctuation_correspondence", "Sec3:DK_AK=K.D_Arho", "sampled",
          lambda c: fluctuation_correspondence(c, c.morphism_spins)),
    Check("twisted_clifford", "EqDefCliffTw", "chain", twisted_clifford, stream=3),
    Check("generalized_clifford", "EqCliffGeneralise", "chain",
          lambda c: mo.generalized_clifford_check(c.rep, c.ops)),
    Check("euclidean_collapse", "Sec3:s_ab=1-collapse", "build", _euclidean_collapse,
          when=lambda c: c.sig.q == 0),
    Check("trace_metric_morph", "EqMetTrace", "chain",
          lambda c, rng: mo.trace_metric_morph_check(c.rep, c.ops, 100, rng), stream=5),
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
    return lo + (hi - lo) * rng.uniform(size=(count, metric.dim))


class _FamilyContext:
    """One curved metric family, its sample points and the FD step.

    ``jet`` and ``connection`` are built inside the first check that reads
    them, so a construction error fails that check; every later row reads
    the same read-only arrays and reduces over their point axis."""

    def __init__(self, metric: geo.MetricField, pts: np.ndarray, h: float):
        self.metric = metric
        self.pts = pts
        self.h = h

    @cached_property
    def jet(self) -> geo._Jet:
        """The metric jet over the sample points, built once."""
        return geo._stacked_jet(self.metric, self.pts, self.h)

    @cached_property
    def connection(self) -> dict:
        """The frame connection coefficients over the sample points, computed once."""
        return geo._connection(self.jet, geo._jet_frames(self.jet))


def _vielbein_orthonormality(f: _FamilyContext) -> float:
    """The frames at the points make g and g_R = g r orthonormal: the largest
    gap, from one reading of g over the points and one ``max_norm`` call."""
    m = f.metric
    g = m.g_at(f.pts)
    e, einv = geo._frames(g)
    et, eye = np.swapaxes(e, -1, -2), np.eye(m.dim)
    return max_norm(e @ g @ et - np.diag(m.r_signs), e @ (g * m.r_signs) @ et - eye,
                    e @ np.swapaxes(einv, -1, -2) - eye)


def _rewrit_tgamma(f: _FamilyContext) -> float:
    s, c = f.metric.r_signs, f.connection
    return np.max(np.abs(c["refl_frame_b_mu_a"] - s[:, None, None] * c["Gamma_b_mu_a"] * s[None, None, :]))


def _frame_connection_relation(f: _FamilyContext) -> float:
    c = f.connection
    return np.max(np.abs(c["refl_frame_b_mu_a"] - (c["GammaR_b_mu_a"] + c["K_b_mu_a"])))


FAMILY = (
    Check("christoffel_symmetry", "Sec3:LeviCivita", "fd",
          lambda f: np.max(np.abs(f.jet.gamma - np.swapaxes(f.jet.gamma, -1, -2)))),
    Check("relat_christos", "RelatChristos", "fd", lambda f: np.max(geo._relation_residual(f.jet))),
    Check("metric_compatibility", "Sec3:metric-compatibility", "fd",
          lambda f: _worst(np.max(geo._compatibility_residual(f.jet, use_gR)) for use_gR in (False, True))),
    Check("reflection_isometry", "EqReflect", "build",
          lambda f: geo.reflection_isometry_residual(f.metric, f.pts)),
    Check("vielbein_orthonormality", "Sec3:vielbein", "sampled", _vielbein_orthonormality),
    Check("rewrit_tgamma", "EqRewritTGamma", "fd", _rewrit_tgamma),
    Check("frame_connection_relation", "EqRelatGammVielb", "fd", _frame_connection_relation),
)


class _Oracles(NamedTuple):
    """The FD step, default metrics and signature contexts the oracles read."""

    h: float
    exp2d: geo.MetricField
    conf: geo.MetricField
    flat: geo.MetricField
    contexts: _Contexts


def _conformal_closed_form(o: _Oracles) -> float:
    x = np.array([0.15, -0.1])
    got = geo.christoffel(o.conf, False, x, o.h)
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
    rep13 = o.contexts[(1, 3)].rep
    got = geo.dirac_apply_pseudo(o.flat, rep13, psi, x, o.h)
    want = -sum(k[a] * rep13.gammas[a] for a in range(4)) @ psi(x)
    return float(np.linalg.norm(got - want))


X0_EXP2D = np.array([0.1, -0.2])

ORACLES = (
    Check("exp2d.closed_form_gamma", "Sec3:LeviCivita", "fd_fine",
          lambda o: abs(geo.christoffel(o.exp2d, False, X0_EXP2D, o.h)[0, 0, 0] - 1.0)),
    Check("exp2d.fd_convergence_ratio", "Sec3:LeviCivita", "ratio",
          lambda o: abs(geo.fd_convergence_ratio(o.exp2d, X0_EXP2D, o.h) - 4.0)),
    Check("conformal2d.closed_form_gamma", "Sec3:LeviCivita", "fd_fine", _conformal_closed_form),
    Check("flat4d.plane_wave_dirac", "Sec2:DK=i.gamma.nabla", "fd_fine", _plane_wave_dirac),
)

def _dirac_decomposition(name: str, sig: tuple, count: int, constant_sign: bool,
                         o: _Oracles, rng: np.random.Generator) -> float:
    """K (i gamma nabla) psi against the reflected-frame assembly on the default
    metric ``name``, for a spinor and ``count`` points drawn from ``rng``; with
    ``constant_sign`` the measured unit sign must agree between the points."""
    metric, ctx = geo.metric_family(name), o.contexts[sig]
    spinor = geo.trig_spinor(ctx.rep.dim, metric.dim, rng)
    pts = _family_points(metric, count, rng, o.h)
    checks = geo._dirac_decompositions(metric, ctx.rep, ctx.ops, spinor, pts, o.h)
    if constant_sign and len({sgn for _, sgn in checks}) != 1:
        return float("inf")
    return _worst(res for res, _ in checks)


# geometry streams 0-3 hold the sample points of the CHECKED_FAMILIES, in order
DECOMPOSITIONS = (
    Check("lorentz4d.dirac_decomposition", "EqDefDir", "fd_coarse",
          partial(_dirac_decomposition, "lorentz4d", (1, 3), 3, True), stream=4),
    Check("lorentz2d.dirac_decomposition", "EqDefDir", "fd_coarse",
          partial(_dirac_decomposition, "lorentz2d", (1, 1), 3, True), stream=5),
    # Euclidean reduction: trivial twist, no sign to hold constant
    Check("conformal2d.dirac_decomposition", "EqDefDir", "fd_coarse",
          partial(_dirac_decomposition, "conformal2d", (2, 0), 2, False), stream=6),
)


def run_geometry(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "geometry")
    h, streams = cfg.fd_step, partial(_stream, cfg.seed, 3)
    for fi, name in enumerate(CHECKED_FAMILIES):
        metric = geo.metric_family(name, cfg.metric_params if name == cfg.metric_family else None)
        family = _FamilyContext(metric, _family_points(metric, 5, streams(fi), h), h)
        _add_rows(r, FAMILY, family, f"{name}.")
    exp2d, conf, flat = (geo.metric_family(name) for name in ("exp2d", "conformal2d", "flat4d"))
    _add_rows(r, ORACLES + DECOMPOSITIONS, _Oracles(h, exp2d, conf, flat, contexts), streams=streams)
    return r.records


# ---- product: the (1,3) context's product with the finite KO-6 triple

def _kp_rewrite(c: SignatureContext) -> float:
    pt, t, ft = c.product, c.triple, c.finite
    rewritten = pt.Kp @ (kron(t.K @ t.D, np.eye(ft.dimF)) + kron(np.eye(c.rep.dim), ft.DF))
    return residual_norm(pt.Dp, rewritten)


def _o_constraint(c: SignatureContext, o: np.ndarray) -> float:
    tab = c.sign_table
    res = pr.constraint_check_O(o, c.ops.J, c.ops.Gamma, tab.eps, tab.eps_prime)
    return _worst(res.values())


def _derivation_splitting(c: SignatureContext, rng: np.random.Generator) -> float:
    d, eye_m = c.rep.dim, np.eye(c.rep.dim)
    scalars = [eye_m, (0.4 - 0.3j) * eye_m]
    randoms = gaussian_draws(rng, 3, [(d, d)], complex_=True)[0]
    a1s, gens = np.array([*scalars, *randoms]), np.array(c.finite.algebra_gens)
    pairs = [np.repeat(a1s, len(gens), axis=0), np.tile(gens, (len(a1s), 1, 1))]
    return max_gap_norm(partial(pr.derivation_split_gaps, c.product), pairs, c.product.dim)


def _product_first_order(c: SignatureContext) -> float:
    pt, eye_m, gens = c.product, np.eye(c.rep.dim), c.finite.algebra_gens
    pairs = [(kron(eye_m, a2), kron(eye_m, b2)) for a2 in gens for b2 in gens]
    # scalar manifold factors against finite generators
    pairs += [(kron(lam * eye_m, a2), kron(eye_m, a2)) for lam in (1.0, 0.3 + 0.4j) for a2 in gens]
    a, b = (np.array(side) for side in zip(*pairs))
    return kr.twisted_first_order_residual(pt.Dp, a, b, pt.Jp, pt.Kp)


def _product_fluctuation(c: SignatureContext, rng: np.random.Generator) -> float:
    spins = _spin_stack(c.rep, 5, rng)
    us, _ = np.linalg.qr(gaussian_draws(rng, 5, [(c.finite.dimF,) * 2], complex_=True)[0])
    return max_gap_norm(partial(pr.product_fluctuation_gaps, c.product), [spins, us], c.product.dim)


def _fermionic_action_split(c: SignatureContext, rng: np.random.Generator) -> float:
    dm, df = c.rep.dim, c.finite.dimF
    draws = gaussian_draws(rng, 50, [(dm,), (dm,), (df,), (df,)], complex_=True)
    return _worst(pr.fermionic_action(c.product, psi1, psi2, phi1, phi2)["residual"]
                  for psi1, phi1, psi2, phi2 in zip(*draws))


PRODUCT = (
    Check("finite_ko6_invariants", "Sec4:finite-KO6", "build",
          lambda c: _worst(pr.finite_ko6_residuals(c.finite).values())),
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
          lambda c, rng: pr.dirac_mass_shape_check(c.product, rng), stream=5),
    Check("product_sign_row_definite", "Sec4:product-signs", "build",
          lambda c: _flag(all(s in (-1, 1) for s in c.product.sign_row))),
)


def run_product(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "product")
    _add_rows(r, PRODUCT, contexts[(1, 3)], streams=partial(_stream, cfg.seed, 4))
    return r.records


# ---- emergence

def _candidate_label(row: pr.EmergenceRow) -> str:
    body = "".join(str(i) for i in row.indices) if row.indices else "id"
    sig = "".join("p" if s > 0 else "m" for s in row.signature)
    eps = "p" if row.eps > 0 else "m"
    return f"candidate.g{row.grade}_{body}.eps_{eps}.sig_{sig}"


def _in_class(row: pr.EmergenceRow) -> bool:
    """The eps <-> signature rule: an odd-grading (eps' = -1) candidate with
    eps = -1 induces one plus direction (the (+,-,-,-) class, holding the
    single-gamma Lorentz operators), one with eps = +1 one minus direction;
    eps' = +1 candidates are unconstrained."""
    return row.eps_prime != -1 or row.plus_count == (1 if row.eps == -1 else 3)


def _candidate(row: pr.EmergenceRow) -> float:
    """Scalar-diagonal residual, at least 1 for a candidate outside its eps <-> signature class."""
    return row.diag_scalar_residual if _in_class(row) else max(row.diag_scalar_residual, 1.0)


def _class_rows(rows: list, lorentz: bool) -> float:
    """Four odd-grading candidates have eps = -1 (``lorentz``) or eps = +1, each in its class."""
    cls = [row for row in rows if row.eps_prime == -1 and (row.eps == -1) == lorentz]
    return _flag(len(cls) == 4 and all(map(_in_class, cls)))


def _ko6_selects_lorentz(rows: list) -> float:
    """Exactly the four single-gamma Lorentz candidates carry the KO-6 emergent
    pair (+1, -1), and every candidate is in its eps <-> signature class."""
    ko6 = [row for row in rows if (row.eps0_emergent, row.eps2_emergent) == (1, -1)]
    return _flag(len(ko6) == 4 and all(row.grade == 1 and row.plus_count == 1 for row in ko6)
                 and all(map(_in_class, rows)))


def _gamma_time_candidate(rows: list) -> float:
    for row in rows:
        if row.indices == (0,):
            return _flag(row.signature == (1, -1, -1, -1) and row.eps == -1)
    return 1.0


# rows over the candidate table
EMERGENCE = (
    Check("table_complete", "Sec4:signature-emergence", "build",
          lambda rows: float(abs(len(rows) - 16))),
    Check("diag_metric_scalar", "Sec4:signature-emergence", "build",
          lambda rows: _worst(row.diag_scalar_residual for row in rows)),
    Check("lorentz_class_eps_minus", "Sec4:eps-to-signature", "build",
          lambda rows: _class_rows(rows, lorentz=True)),
    Check("lorentz_class_eps_plus", "Sec4:eps-to-signature", "build",
          lambda rows: _class_rows(rows, lorentz=False)),
    Check("ko6_selects_lorentz", "Sec4:KO6-selects-Lorentz", "build", _ko6_selects_lorentz),
    Check("riemannian_row_listed", "Sec4:signature-emergence", "build",
          lambda rows: _flag(any(row.grade == 0 and row.signature == (1, 1, 1, 1) and row.eps == 1
                                 for row in rows))),
    Check("gamma_time_candidate", "Sec4:K=gamma0", "build", _gamma_time_candidate),
)


def run_emergence(cfg: SuiteConfig, contexts: _Contexts) -> list[CheckRecord]:
    r = _Runner(cfg, "emergence")
    ctx = contexts[(4, 0)]
    rows = pr.signature_emergence(ctx.rep, ctx.ops)
    for row in rows:
        r.add(_candidate_label(row), "Sec4:signature-emergence", "build", partial(_candidate, row))
    _add_rows(r, EMERGENCE, rows)
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
        records.extend(SUITE_BUILDERS[suite](cfg, contexts))
    return Report.from_records(cfg, records)
