"""Krein products, twisted adjoints, K-unitaries and the twisted calculus.

The inner twist is always conjugation by a Hermitian unitary involution K,
so the twisted adjoint is ``O -> K O^dagger K`` and the indefinite pairing
``<psi, phi>_K = <psi, K phi>``.  Orthochronous spin-group elements are
sampled as products of an even number of unit vectors with an even number
of negative-norm factors; they are the canonical nontrivial K-unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .clifford import CliffordRep, metric_pairing, metric_pairings, represent_stack
from .linalg import (
    AntilinearOp,
    Residual,
    ShapeError,
    adjoint,
    as_cmat,
    as_cstack,
    chunk_sizes,
    op_norms,
    residual_norm,
)

__all__ = [
    "NotKUnitaryError",
    "RandomDegenerateError",
    "KreinSpace",
    "TwistedTripleData",
    "SpinElement",
    "k_product",
    "k_products",
    "k_adjoint",
    "is_k_unitary",
    "k_unitarity_residuals",
    "sample_spin_plus",
    "twisted_commutator",
    "twisted_one_form",
    "twisted_first_order_residual",
    "fluctuate",
    "gauge_transform",
    "canonical_twisted_triple",
]


class NotKUnitaryError(ValueError):
    """Operator fails U (K U^dagger K) = 1 within tolerance."""


class RandomDegenerateError(RuntimeError):
    """Sampler could not draw a well-conditioned unit vector."""


@dataclass(frozen=True)
class KreinSpace:
    """Finite-dimensional space with indefinite pairing <.,K.>."""

    dim: int
    K: np.ndarray

    def __post_init__(self):
        k = as_cmat(self.K)
        if k.shape != (self.dim, self.dim):
            raise ShapeError("K must be dim x dim")
        eye = np.eye(self.dim)
        if residual_norm(k, adjoint(k)) > 1e-12 or residual_norm(k @ k, eye) > 1e-12:
            raise ValueError("K must be a Hermitian unitary involution")
        object.__setattr__(self, "K", k)


def k_product(space: KreinSpace, psi, phi) -> complex:
    """<psi, phi>_K = <psi, K phi>, conjugate-linear in the first slot."""
    psi = np.asarray(psi, dtype=np.complex128).ravel()
    phi = np.asarray(phi, dtype=np.complex128).ravel()
    return complex(k_products(space, psi[None], phi[None])[0])


def k_products(space: KreinSpace, psis, phis) -> np.ndarray:
    """<psi, phi>_K for paired rows of (k, dim) vector stacks."""
    psis = np.asarray(psis, dtype=np.complex128)
    phis = np.asarray(phis, dtype=np.complex128)
    if psis.shape[-1] != space.dim or phis.shape[-1] != space.dim:
        raise ShapeError("vector length must equal the space dimension")
    k_phis = (space.K @ phis[..., None])[..., 0]
    return np.sum(np.conj(psis) * k_phis, axis=-1)


def k_adjoint(space: KreinSpace, o) -> np.ndarray:
    """Twisted adjoint O^+ = K O^dagger K (of each matrix, for a stack)."""
    o = as_cstack(o)
    if o.shape[-2:] != (space.dim, space.dim):
        raise ShapeError("operator must be dim x dim")
    return space.K @ adjoint(o) @ space.K


def is_k_unitary(space: KreinSpace, u, tol: float = 1e-10) -> tuple[bool, Residual]:
    """Check U O^+ = O^+ U = 1 for O^+ the twisted adjoint."""
    u = as_cmat(u)
    r = float(k_unitarity_residuals(space, u[None])[0])
    return r <= tol, Residual(r, tol)


def k_unitarity_residuals(space: KreinSpace, us) -> np.ndarray:
    """max(|U U^+ - 1|, |U^+ U - 1|) for every matrix of a stack."""
    us = as_cstack(us)
    plus = k_adjoint(space, us)
    eye = np.eye(space.dim)
    return np.maximum(op_norms(us @ plus - eye), op_norms(plus @ us - eye))


@dataclass(frozen=True)
class SpinElement:
    """Even product of unit vectors with an even number of negative norms."""

    factors: tuple  # coefficient vectors, each with g(v,v) = +-1
    matrix: np.ndarray


# candidates per rng.normal call of the spin sampler's walk
_WALK_ROWS = 64


def _accept(candidates, want_negative: Optional[bool] = None, attempts: int = 100) -> tuple:
    """The first admissible (v, g(v,v)) of at most ``attempts`` (v, g(v,v), |v|^2) candidates.

    Besides the hard |g(v,v)| < 1e-8 degeneracy bound, draws are rejected
    when |v|^2 > 3 |g(v,v)| so normalized boost factors stay mild and
    residuals of six-factor products remain far below 1e-11.
    """
    for _, (v, q, vv) in zip(range(attempts), candidates):
        if abs(q) < 1e-8:
            continue
        if want_negative is not None and (q < 0) != want_negative:
            continue
        if vv > 3.0 * abs(q):
            continue
        return v, q
    raise RandomDegenerateError(
        "no admissible unit vector found in 100 attempts"
    )


def _draw_unit_vector(
    rep: CliffordRep,
    rng: np.random.Generator,
    want_negative: Optional[bool] = None,
    attempts: int = 100,
) -> tuple[np.ndarray, int]:
    """Draw v with g(v,v) = +-1 after scaling, one candidate per rng.normal call."""

    def candidates():
        while True:
            v = rng.normal(size=rep.n_gen)
            yield v, float(np.real(metric_pairing(rep, v, v))), float(v @ v)

    v, q = _accept(candidates(), want_negative, attempts)
    return v / np.sqrt(abs(q)), (1 if q > 0 else -1)


def _candidate_walk(rep: CliffordRep, rng: np.random.Generator):
    """(v, g(v,v), |v|^2) for the candidates of ``rng`` in stream order.

    Each block of ``_WALK_ROWS`` candidates is one rng.normal call; the
    stream is sequential, so its rows are the vectors that successive
    ``rng.normal(size=n_gen)`` calls would draw, and the block norms equal
    the per-row ``metric_pairing`` and ``v @ v`` bit for bit.
    """
    while True:
        block = rng.normal(size=(_WALK_ROWS, rep.n_gen))
        q = np.real(metric_pairings(rep, block, block))
        yield from zip(block, q.tolist(), np.vecdot(block, block).tolist())


def sample_spin_plus(
    rep: CliffordRep,
    count: int,
    seed: int,
    max_pairs: int = 3,
) -> list[SpinElement]:
    """Deterministic sample of orthochronous spin-group elements.

    Each element is a product of 2k unit vectors (k cycling through
    1..max_pairs) with an even number of negative-norm factors, so that
    x^-1 = K x^dagger K holds.

    The factors are chosen by one walk over the candidate stream, then
    represented and multiplied as stacks: the elements, longest product
    first, form chunks (``chunk_sizes``), and step t multiplies the chain of
    every element with more than t factors by its t-th factor, from the
    identity, left to right, as a per-element ``mat = mat @ represent(rep, v)``
    loop would.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    walk = _candidate_walk(rep, np.random.default_rng(seed))
    lengths = np.array([2 * ((j % max_pairs) + 1) for j in range(count)])
    chosen = []
    for length in lengths:
        drawn = [_accept(walk) for _ in range(length)]
        if sum(1 for _, q in drawn if q < 0) % 2 == 1:
            # redraw the last factor with the parity-fixing norm sign
            want_neg = drawn[-1][1] > 0
            if want_neg and rep.sig.q == 0:
                raise RandomDegenerateError("cannot fix norm parity in this signature")
            drawn[-1] = _accept(walk, want_negative=want_neg)
        chosen += drawn
    vs, qs = zip(*chosen)
    units = np.array(vs) / np.sqrt(np.abs(qs))[:, None]
    starts = np.cumsum(lengths) - lengths

    order = np.argsort(-lengths, kind="stable")
    mats = np.empty((count, rep.dim, rep.dim), dtype=np.complex128)
    for chunk in np.split(order, np.cumsum(chunk_sizes(count, rep.dim))[:-1]):
        chain = np.tile(np.eye(rep.dim, dtype=np.complex128), (len(chunk), 1, 1))
        for t in range(lengths[chunk[0]]):
            live = chunk[lengths[chunk] > t]  # a prefix: the chunk is sorted by length
            chain[: len(live)] = chain[: len(live)] @ represent_stack(rep, units[starts[live] + t])
        mats[chunk] = chain
    return [SpinElement(factors=tuple(units[start : start + length]), matrix=mats[j])
            for j, (start, length) in enumerate(zip(starts, lengths))]


def twisted_commutator(d, a, K) -> np.ndarray:
    """[D, a]_rho = D a - (K a K) D (for each a of a stack)."""
    d = as_cmat(d)
    a = as_cstack(a)
    K = as_cmat(K)
    return d @ a - K @ a @ K @ d


def twisted_one_form(pairs: Sequence[tuple], d, K) -> np.ndarray:
    """sum_i a_i [D, b_i]_rho (zero matrix for an empty list)."""
    d = as_cmat(d)
    out = np.zeros_like(d)
    for a, b in pairs:
        out = out + as_cmat(a) @ twisted_commutator(d, b, K)
    return out


def opposite_action(b, j: AntilinearOp) -> np.ndarray:
    """b^o = J b^dagger J^-1 (for each b of a stack)."""
    return j.sandwich(adjoint(as_cstack(b)))


def twisted_first_order_residual(
    d, a, b, j: AntilinearOp, K, tol: float = 1e-12
) -> Residual:
    """Largest norm of [[D, a]_rho, b^o]_{rho^o} over paired a, b: two
    matrices, or two stacks of them paired entry by entry.

    The opposite twist acts by rho^o(b^o) = (rho^-1(b))^o = J (K b K)^dagger J^-1.
    """
    K = as_cmat(K)
    x = twisted_commutator(d, a, K)
    b_op = opposite_action(b, j)
    rho_b_op = j.sandwich(adjoint(K @ as_cstack(b) @ K))
    return Residual(float(np.max(op_norms(x @ b_op - rho_b_op @ x))), tol)


def fluctuate(d, a_rho, j: AntilinearOp, eps1: int) -> np.ndarray:
    """Twisted fluctuation D + A_rho + eps1 J A_rho J^-1."""
    d = as_cmat(d)
    a_rho = as_cmat(a_rho)
    return d + a_rho + eps1 * j.sandwich(a_rho)


def gauge_transform(
    d,
    u_k,
    j: AntilinearOp,
    space: KreinSpace,
    tol: float = 1e-9,
    selfadjoint_tol: float = 1e-11,
) -> np.ndarray:
    """Ad(u_K) D Ad(u_K)^dagger with Ad(u_K) = u_K (J u_K J^-1).

    Requires u_K to be K-unitary in ``space``; the output is checked to stay
    self-adjoint, which is the point of fluctuating with K-unitaries.
    """
    d = as_cmat(d)
    u_k = as_cmat(u_k)
    ok, res = is_k_unitary(space, u_k, tol)
    if not ok:
        raise NotKUnitaryError(f"gauge element is not K-unitary ({res.value:.3e})")
    ad = u_k @ j.sandwich(u_k)
    out = ad @ d @ adjoint(ad)
    if residual_norm(out, adjoint(out)) > selfadjoint_tol:
        raise ValueError("gauge transform failed to preserve self-adjointness")
    return out


@dataclass(frozen=True)
class TwistedTripleData:
    """Finite-dimensional twisted triple data (A, H, D, J, Gamma, K).

    The algebra is extensional: a generator list closed under adjoints.
    D is self-adjoint and all real-structure signs are unit signs, which
    is validated at construction.
    """

    algebra_gens: tuple
    D: np.ndarray
    J: AntilinearOp
    Gamma: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        from .linalg import sign_of_pair  # local to avoid import clutter

        d = as_cmat(self.D)
        if residual_norm(d, adjoint(d)) > 1e-12:
            raise ValueError("twisted Dirac matrix must be self-adjoint")
        object.__setattr__(self, "D", d)
        object.__setattr__(self, "Gamma", as_cmat(self.Gamma))
        object.__setattr__(self, "K", as_cmat(self.K))
        object.__setattr__(self, "algebra_gens", tuple(as_cmat(a) for a in self.algebra_gens))
        # real-structure relations must carry definite unit signs
        sign_of_pair(self.J.square(), np.eye(d.shape[0]))
        sign_of_pair(self.J.mat @ np.conj(d), d @ self.J.mat)
        sign_of_pair(self.J.mat @ np.conj(self.Gamma), self.Gamma @ self.J.mat)

    @property
    def dim(self) -> int:
        return self.D.shape[0]

    @cached_property
    def space(self) -> KreinSpace:
        return KreinSpace(self.dim, self.K)


def canonical_twisted_triple(rep, ops, d) -> TwistedTripleData:
    """Wrap a representation-level Dirac matrix into twisted triple data.

    The algebra generators model the commutative symbol algebra (scalars),
    which is where the twist acts trivially.
    """
    eye = np.eye(rep.dim, dtype=np.complex128)
    gens = (eye, (0.3 - 0.2j) * eye)
    return TwistedTripleData(
        algebra_gens=gens,
        D=d,
        J=ops.J,
        Gamma=ops.Gamma,
        K=ops.K,
    )
