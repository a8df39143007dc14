"""The involutive operator morphism between twisted and Krein-side triples.

The morphism sends D to D^K = K D, keeps the algebra, J and Gamma fixed,
and replaces the Hilbert pairing by the K-product.  Everything checked
here is an exact matrix identity; residuals only measure roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (
    CliffordRep,
    StructuralOps,
    metric_pairings,
    represent_stack,
    trace_metric_residuals,
)
from .krein import (
    K_UNITARY_TOL,
    KreinSpace,
    NotKUnitaryError,
    TwistedTripleData,
    first_order_brackets,
    is_k_unitary,
    k_adjoint,
    k_unitarity_residuals,
    opposite_action,
    twisted_commutator,
)
from .linalg import (
    AntilinearOp,
    adjoint,
    as_cmat,
    chunk_sizes,
    commutator,
    gaussian_stacks,
    max_residual,
    norm_within,
    op_norms,
    residual_norm,
    table_norm,
)
from .linalg import _worst  # the one NaN-propagating maximum

__all__ = [
    "PseudoTripleData",
    "MorphismPair",
    "apply_k_morphism",
    "invert_k_morphism",
    "selfadjoint_equivalence_check",
    "commutator_correspondence_residuals",
    "first_order_correspondence_residuals",
    "fluctuation_correspondence_check",
    "fluctuation_correspondence_residuals",
    "twisted_clifford_check",
    "twisted_clifford_residuals",
    "generalized_clifford_check",
    "trace_metric_morph_check",
    "symbol_norm_probes",
]


@dataclass(frozen=True)
class PseudoTripleData:
    """Krein-side triple data with a K-self-adjoint Dirac matrix."""

    algebra_gens: tuple
    Dk: np.ndarray
    space: KreinSpace
    J: AntilinearOp
    Gamma: np.ndarray

    def __post_init__(self):
        dk = as_cmat(self.Dk)
        if not norm_within(dk - k_adjoint(self.space, dk), 1e-11):
            raise ValueError("Dirac matrix must be K-self-adjoint")
        object.__setattr__(self, "Dk", dk)


@dataclass(frozen=True)
class MorphismPair:
    twisted: TwistedTripleData
    pseudo: PseudoTripleData

    def __post_init__(self):
        if not norm_within(self.pseudo.Dk - self.twisted.K @ self.twisted.D, 1e-13):
            raise ValueError("pair is not related by Dk = K D")


def apply_k_morphism(t: TwistedTripleData) -> PseudoTripleData:
    """D -> K D; algebra, J and Gamma carried over unchanged."""
    return PseudoTripleData(
        algebra_gens=t.algebra_gens,
        Dk=t.K @ t.D,
        space=t.space,
        J=t.J,
        Gamma=t.Gamma,
    )


def invert_k_morphism(p: PseudoTripleData) -> TwistedTripleData:
    """Inverse direction D = K D^K (the morphism is an involution)."""
    return TwistedTripleData(
        algebra_gens=p.algebra_gens,
        D=p.space.K @ p.Dk,
        J=p.J,
        Gamma=p.Gamma,
        K=p.space.K,
    )


def selfadjoint_equivalence_check(pair: MorphismPair) -> float:
    """Self-adjointness of D and K-self-adjointness of D^K agree.

    The largest of the two residuals and the gap between them, which
    vanishes because K is unitary.
    """
    r1 = residual_norm(pair.twisted.D, adjoint(pair.twisted.D))
    dk = pair.pseudo.Dk
    r2 = residual_norm(dk, k_adjoint(pair.pseudo.space, dk))
    return _worst((r1, r2, abs(r1 - r2)))


def commutator_correspondence_residuals(pair: MorphismPair, a) -> np.ndarray:
    """|K [D, a]_rho - [D^K, a]| for every a of a stack."""
    lhs = pair.twisted.K @ twisted_commutator(pair.twisted.D, a, pair.twisted.K)
    return op_norms(lhs - commutator(pair.pseudo.Dk, a))


def first_order_correspondence_residuals(pair: MorphismPair, a, b) -> np.ndarray:
    """Gap of [[D, a]_rho, b^o]_{rho^o} = K [[D^K, a], b^o] for paired a, b of two stacks."""
    t = pair.twisted
    lhs = first_order_brackets(t.D, a, b, t.J, t.K)
    rhs = t.K @ commutator(commutator(pair.pseudo.Dk, a), opposite_action(b, t.J))
    return op_norms(lhs - rhs)


def fluctuation_correspondence_check(pair: MorphismPair, u_k) -> float:
    """U_K D^K U_K^+ = K (V_K D V_K^dagger) with V_K = rho(U_K).

    Also folds in the identity rho(U_K) = rho(u_K) J rho(u_K) J^-1, so both
    constructions of the twisted-side conjugator are compared.
    """
    return float(fluctuation_correspondence_residuals(pair, u_k[None])[0])


def fluctuation_correspondence_residuals(pair: MorphismPair, u_k) -> np.ndarray:
    """Fluctuation-correspondence gap for every u_K of a stack.

    Raises NotKUnitaryError if any element of the stack is not K-unitary.
    """
    t = pair.twisted
    K = t.K
    space = pair.pseudo.space
    if not np.all(is_k_unitary(space, u_k)):
        unitarity = k_unitarity_residuals(space, u_k)
        bad = ~(unitarity <= K_UNITARY_TOL)
        raise NotKUnitaryError(f"fluctuation element is not K-unitary ({unitarity[bad][0]:.3e})")
    big_u = u_k @ t.J.sandwich(u_k)
    v_k = K @ big_u @ K
    lhs = big_u @ pair.pseudo.Dk @ k_adjoint(space, big_u)
    rhs = K @ (v_k @ t.D @ adjoint(v_k))
    rho_u = K @ u_k @ K
    return np.maximum(op_norms(lhs - rhs), op_norms(v_k - rho_u @ t.J.sandwich(rho_u)))


def twisted_clifford_check(rep: CliffordRep, ops: StructuralOps, u, v) -> float:
    """rho(ct(u) ct(v)) + ct(v) ct(u) = 2 g(u, rv) with ct = K c.

    This is the twisted Clifford relation of the image representation.
    """
    u = np.asarray(u, dtype=np.complex128).ravel()
    v = np.asarray(v, dtype=np.complex128).ravel()
    return float(twisted_clifford_residuals(rep, ops, u[None], v[None])[0])


def twisted_clifford_residuals(rep: CliffordRep, ops: StructuralOps, us, vs) -> np.ndarray:
    """Twisted Clifford gap for paired rows of two coefficient stacks."""
    vs = np.asarray(vs)
    cu = ops.K @ represent_stack(rep, us)
    cv = ops.K @ represent_stack(rep, vs)
    lhs = ops.K @ (cu @ cv) @ ops.K + cv @ cu
    g = 2.0 * metric_pairings(rep, us, rep.signs * vs)
    return op_norms(lhs - g[:, None, None] * np.eye(rep.dim))


def generalized_clifford_check(rep: CliffordRep, ops: StructuralOps) -> float:
    """gt^a gt^b + s_ab gt^b gt^a = 2 delta^ab with s_ab = g_a g_b, gt = K gamma,
    as one table over the pairs a <= b: the (b, a) entry is the same sum when
    s_ab = 1 and its exact negative, of the same norm, when s_ab = -1."""
    eye, gt, s = np.eye(rep.dim), ops.K @ rep.gamma_stack, rep.signs[:, None, None]
    pa, pb = np.triu_indices(rep.n_gen)

    def relations(i):
        a, b = pa[i], pb[i]
        target = np.where((a == b)[:, None, None], 2.0 * eye, 0.0)
        return gt[a] @ gt[b] + s[a] * s[b] * gt[b] @ gt[a] - target

    return table_norm(relations, pa.shape, rep.dim)


def trace_metric_morph_check(
    rep: CliffordRep, ops: StructuralOps, pairs: int, rng: np.random.Generator
) -> float:
    """Normalized traces reproduce g on the plain side, g(r., .) on the twisted
    one, on ``pairs`` Gaussian coefficient pairs drawn from ``rng``."""
    n = rep.n_gen

    def residuals(us, vs):
        cu = ops.K @ represent_stack(rep, us)
        cv = ops.K @ represent_stack(rep, vs)
        twisted = np.trace(cu @ cv, axis1=-2, axis2=-1) / rep.dim
        twisted_gap = np.abs(twisted - metric_pairings(rep, rep.signs * us, vs))
        return np.maximum(trace_metric_residuals(rep, us, vs), twisted_gap)

    stacks = gaussian_stacks(rng, pairs, rep.dim, [(n,), (n,)])
    return max_residual(stacks, residuals)


def symbol_norm_probes(rep: CliffordRep, ops: StructuralOps, ks) -> dict:
    """|K c(k)| and the reflected-metric length of k for every row of a
    (k, n_gen) stack, as arrays keyed norm, gR_norm and pure_block.

    The two agree only where that is an identity (``pure_block``: k
    supported in a single definiteness block).  For mixed directions the
    operator c(rk) c(k) is not scalar and the probe records the discrepancy
    instead of asserting.
    """
    ks = np.asarray(ks, dtype=float)
    chunks = np.split(ks, np.cumsum(chunk_sizes(len(ks), rep.dim))[:-1])
    norm = np.concatenate([op_norms(ops.K @ represent_stack(rep, k)) for k in chunks])
    g_r = np.real(metric_pairings(rep, ks, rep.signs * ks))
    g_r_norm = np.sqrt(np.maximum(g_r, 0.0))
    plus_weight = np.sum(np.abs(ks[:, rep.signs > 0]) ** 2, axis=1)
    minus_weight = np.sum(np.abs(ks[:, rep.signs < 0]) ** 2, axis=1)
    return {
        "norm": norm,
        "gR_norm": g_r_norm,
        "pure_block": np.minimum(plus_weight, minus_weight) < 1e-14,
    }
