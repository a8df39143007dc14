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
from typing import Optional

import numpy as np

from .clifford import CliffordRep, is_hermitian_involution, represent_stack
from .clifford import metric_pairing  # unused here; perfbench/tracer.py wraps krein.metric_pairing
from .linalg import (
    AntilinearOp,
    ShapeError,
    adjoint,
    as_cmat,
    chunks,
    diagonal_sandwich,
    max_norm,
    norm_within,
    op_norms,
    sign_of_pair,
    signed_permutation,
)
from .linalg import residual_norm  # unused here; perfbench/test_perfbench.py reads krein.residual_norm

__all__ = [
    "NotKUnitaryError",
    "RandomDegenerateError",
    "KreinSpace",
    "TwistedTripleData",
    "SpinElement",
    "k_product",
    "k_products",
    "k_adjoint",
    "K_UNITARY_TOL",
    "k_unitarity_residuals",
    "require_k_unitary",
    "sample_spin_plus",
    "twisted_commutator",
    "first_order_brackets",
    "twisted_first_order_residual",
    "fluctuate",
    "gauge_transform",
    "gauge_form_gaps",
    "diagonal_gauge_form_gaps",
    "canonical_twisted_triple",
]


class NotKUnitaryError(ValueError):
    """Operator fails U (K U^dagger K) = 1 within tolerance."""


class RandomDegenerateError(RuntimeError):
    """A unit vector of a norm sign the signature does not have was asked for."""


@dataclass(frozen=True)
class KreinSpace:
    """Finite-dimensional space with indefinite pairing <.,K.>."""

    dim: int
    K: np.ndarray

    def __post_init__(self):
        k = signed_permutation(as_cmat(self.K))
        if k.shape != (self.dim, self.dim):
            raise ShapeError("K must be dim x dim")
        if not is_hermitian_involution(k):
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
    if np.shape(o)[-2:] != (space.dim, space.dim):
        raise ShapeError("operator must be dim x dim")
    return space.K @ adjoint(o) @ space.K


# the guard on elements that conjugate a Dirac operator: larger K-unitarity residuals raise
K_UNITARY_TOL = 1e-9


def _unitarity_gaps(space: Optional[KreinSpace], us) -> tuple[np.ndarray, np.ndarray]:
    """U U^+ - 1 and U^+ U - 1 for a matrix or each matrix of a stack, with
    U^+ = K U^dagger K, or U^dagger when ``space`` is None."""
    plus = adjoint(us) if space is None else k_adjoint(space, us)
    eye = np.eye(us.shape[-1])
    return us @ plus - eye, plus @ us - eye


def k_unitarity_residuals(space: Optional[KreinSpace], us) -> np.ndarray:
    """max(|U U^+ - 1|, |U^+ U - 1|) for every matrix of a stack; plain
    unitarity (U^+ = U^dagger) when ``space`` is None."""
    left, right = _unitarity_gaps(space, us)
    return np.maximum(op_norms(left), op_norms(right))


def require_k_unitary(space: Optional[KreinSpace], us, error: type, what: str) -> None:
    """Raise ``error(f"{what} ({r:.3e})")`` unless ``k_unitarity_residuals``
    is at most ``K_UNITARY_TOL`` for a matrix ``us`` or every matrix of a
    stack, with r the residual of the first one above it.  The verdict is
    ``norm_within``'s, so most matrices need no SVD."""
    left, right = _unitarity_gaps(space, us)
    within = np.ravel(norm_within(left, K_UNITARY_TOL) & norm_within(right, K_UNITARY_TOL))
    if not within.all():
        first = np.reshape(us, (-1, *us.shape[-2:]))[np.argmin(within)]
        raise error(f"{what} ({k_unitarity_residuals(space, first[None])[0]:.3e})")


@dataclass(frozen=True)
class SpinElement:
    """Even product of unit vectors with an even number of negative norms."""

    factors: tuple  # coefficient vectors, each with g(v,v) = +-1
    matrix: np.ndarray


# |v|^2 = cosh(2 eta) <= 3 for every factor, so products of six factors stay mild
_MAX_ETA = float(np.arccosh(3.0)) / 2


def _unit_factors(rep: CliffordRep, rng: np.random.Generator, negative: np.ndarray) -> np.ndarray:
    """Rows v with g(v,v) = -1 where ``negative``, +1 elsewhere.

    v = cosh(eta) u_s + sinh(eta) u_-s, with u_s a Euclidean unit vector in
    the block of sign s, u_-s one in the opposite block, and eta uniform on
    [0, arccosh(3)/2] (0 when a block is empty): one rng.normal and one
    rng.uniform call for all rows.
    """
    p, q = rep.sig.p, rep.sig.q
    x = rng.normal(size=(len(negative), p + q))
    eta = rng.uniform(0.0, _MAX_ETA, size=len(negative)) * (p > 0 and q > 0)
    plus, minus = x[:, :p], x[:, p:]  # views: the blocks of x are scaled in place
    plus /= np.linalg.norm(plus, axis=1, keepdims=True)
    minus /= np.linalg.norm(minus, axis=1, keepdims=True)
    plus *= np.where(negative, np.sinh(eta), np.cosh(eta))[:, None]
    minus *= np.where(negative, np.cosh(eta), np.sinh(eta))[:, None]
    return x


def _draw_unit_vector(
    rep: CliffordRep,
    rng: np.random.Generator,
    want_negative: Optional[bool] = None,
) -> tuple[np.ndarray, int]:
    """One factor of the spin construction and its norm sign g(v,v) = +-1.

    The sign is drawn as ``sample_spin_plus`` draws it unless one is wanted;
    a wanted sign whose block is empty raises ``RandomDegenerateError``.
    """
    sig = rep.sig
    if want_negative is None:
        want_negative = bool(rng.uniform() < sig.q / sig.dim)
    elif (sig.q if want_negative else sig.p) == 0:
        raise RandomDegenerateError(f"no unit vector of that norm sign in signature {sig}")
    return _unit_factors(rep, rng, np.array([want_negative]))[0], (-1 if want_negative else 1)


def sample_spin_plus(
    rep: CliffordRep,
    count: int,
    rng: np.random.Generator,
    max_pairs: int = 3,
) -> list[SpinElement]:
    """Orthochronous spin-group elements drawn from ``rng``.

    Each element is a product of 2k unit vectors (k cycling through
    1..max_pairs) with an even number of negative-norm factors, so that
    x^-1 = K x^dagger K holds.

    Each factor is negative with probability q / (p + q), one rng.uniform
    call for all of them; an element with an odd count flips the sign of its
    last factor.  The factors are then built with exactly those norms
    (``_unit_factors``), represented and multiplied as stacks: the elements,
    longest product first, form chunks (``chunks``), and step t
    multiplies the chain of every element with more than t factors by its
    t-th factor, from the identity, left to right, as a per-element
    ``mat = mat @ represent(rep, v)`` loop would.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lengths = 2 * (np.arange(count) % max_pairs + 1)
    starts = np.cumsum(lengths) - lengths
    negative = rng.uniform(size=int(lengths.sum())) < rep.sig.q / rep.sig.dim
    odd = np.add.reduceat(negative.astype(int), starts) % 2 == 1
    negative[(starts + lengths - 1)[odd]] ^= True
    units = _unit_factors(rep, rng, negative)

    order = np.argsort(-lengths, kind="stable")
    mats = np.empty((count, rep.dim, rep.dim), dtype=np.complex128)
    for chunk in (order[s] for s in chunks(count, rep.dim)):
        chain = np.tile(np.eye(rep.dim, dtype=np.complex128), (len(chunk), 1, 1))
        for t in range(lengths[chunk[0]]):
            live = chunk[lengths[chunk] > t]  # a prefix: the chunk is sorted by length
            chain[: len(live)] = chain[: len(live)] @ represent_stack(rep, units[starts[live] + t])
        mats[chunk] = chain
    return [SpinElement(factors=tuple(units[start : start + length]), matrix=mats[j])
            for j, (start, length) in enumerate(zip(starts, lengths))]


def twisted_commutator(d, a, K) -> np.ndarray:
    """[D, a]_rho = D a - (K a K) D (for each a of a stack)."""
    return d @ a - K @ a @ K @ d


def opposite_action(b, j: AntilinearOp) -> np.ndarray:
    """b^o = J b^dagger J^-1 (for each b of a stack)."""
    return j.sandwich(adjoint(b))


def first_order_brackets(d, a, b, j: AntilinearOp, K) -> np.ndarray:
    """[[D, a]_rho, b^o]_{rho^o} for paired a, b: two matrices, or two stacks
    of them paired entry by entry.

    The opposite twist acts by rho^o(b^o) = (rho^-1(b))^o = J (K b K)^dagger J^-1.
    """
    x = twisted_commutator(d, a, K)
    rho_b_op = j.sandwich(adjoint(K @ b @ K))
    return x @ opposite_action(b, j) - rho_b_op @ x


def twisted_first_order_residual(d, a, b, j: AntilinearOp, K) -> float:
    """Largest norm of the first-order brackets of paired a, b (``max_norm``)."""
    return max_norm(first_order_brackets(d, a, b, j, K))


def fluctuate(d, a_rho, j: AntilinearOp, eps1: int) -> np.ndarray:
    """Twisted fluctuation D + A_rho + eps1 J A_rho J^-1."""
    return d + a_rho + eps1 * j.sandwich(a_rho)


def gauge_transform(d, u_k, j: AntilinearOp, space: KreinSpace) -> np.ndarray:
    """Ad(u_K) D Ad(u_K)^dagger with Ad(u_K) = u_K (J u_K J^-1), for a matrix
    u_K or each matrix of a stack.

    Requires every u_K to be K-unitary in ``space`` (within ``K_UNITARY_TOL``).
    That the output stays self-adjoint, the point of fluctuating with
    K-unitaries, is measured by the krein suite's ``gauge_selfadjointness``
    check, not here.
    """
    require_k_unitary(space, u_k, NotKUnitaryError, "gauge element is not K-unitary")
    ad = u_k @ j.sandwich(u_k)
    return ad @ d @ adjoint(ad)


def gauge_form_gaps(d, us, j: AntilinearOp, space: KreinSpace, eps1: int) -> np.ndarray:
    """Ad(u) D Ad(u)^dagger - (D + A + eps1 J A J^-1) with the one-form
    A = u [D, u^+]_rho, for a gauge element u or each of a stack; zero for a
    K-unitary u of an algebra that meets the order-zero and first-order
    conditions.  Dense: the reference of ``diagonal_gauge_form_gaps``, which
    the suites' gauge rows call on their diagonal gauge elements."""
    a_form = us @ twisted_commutator(d, k_adjoint(space, us), space.K)
    return gauge_transform(d, us, j, space) - fluctuate(d, a_form, j, eps1)


def diagonal_gauge_form_gaps(d, xs, j: AntilinearOp, space: KreinSpace, eps1: int) -> np.ndarray:
    """``gauge_form_gaps`` for the diagonal gauge elements u = diag(x), one
    per row x of a (k, n) stack ``xs``, with no dense matrix product.

    u^+ = K u^dagger K and J u J^-1 are diagonals again
    (``linalg.diagonal_sandwich``; K and J must be signed permutations, or
    ValueError is raised), and K u^+ K = u^dagger, K being an involution.
    So u u^+ - 1 = u^+ u - 1 is the diagonal x x^+ - 1, whose operator norm
    max_i |x_i x^+_i - 1| is the K-unitarity residual; ``NotKUnitaryError``
    names the first element above ``K_UNITARY_TOL``, as ``gauge_transform``
    does.  The one-form A = u [D, u^+]_rho and Ad(u) D Ad(u)^dagger are row
    and column scalings of D, O(k n^2); J A J^-1 is
    ``AntilinearOp.sandwich``.  Each entry is the one the dense kernel sums,
    but for the order of roundoff.
    """
    xs = np.asarray(xs, dtype=np.complex128)
    plus = diagonal_sandwich(space.K, np.conj(xs), space.K)  # u^+ = K u^dagger K
    residuals = np.max(np.abs(xs * plus - 1.0), axis=-1)
    bad = np.flatnonzero(~(residuals <= K_UNITARY_TOL))
    if bad.size:
        raise NotKUnitaryError(f"gauge element is not K-unitary ({residuals[bad[0]]:.3e})")
    a_form = xs[:, :, None] * (d * plus[:, None, :] - np.conj(xs)[:, :, None] * d)
    ad = xs * j.sandwich_diagonal(xs)  # Ad(u) = u J u J^-1
    gauge = ad[:, :, None] * d * np.conj(ad)[:, None, :]
    return gauge - fluctuate(d, a_form, j, eps1)


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
        d = as_cmat(self.D)
        if not norm_within(d - adjoint(d), 1e-12):
            raise ValueError("twisted Dirac matrix must be self-adjoint")
        object.__setattr__(self, "D", d)
        object.__setattr__(self, "Gamma", signed_permutation(as_cmat(self.Gamma)))
        object.__setattr__(self, "K", signed_permutation(as_cmat(self.K)))
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
