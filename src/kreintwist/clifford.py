"""Gamma-matrix representations for arbitrary even signatures.

Conventions used throughout the package:

* Basis order: the first ``p`` directions square to +1, the remaining ``q``
  to -1; ``signs[a]`` is that metric sign ``g_a``.
* Every operator built here is a phase times a Pauli string, held exactly as
  a ``PauliString`` (k, x, z) = i^k X^x Z^z and materialized once.
  Products are bit operations (Aaronson and Gottesman, Phys. Rev. A 70,
  052328, 2004), so no phase is found numerically.
* Euclidean building blocks follow the sigma-string construction
  ``hat_gamma[2k]   = s3^(k) (x) s1 (x) 1^(m-k-1)`` and
  ``hat_gamma[2k+1] = s3^(k) (x) s2 (x) 1^(m-k-1)`` (0-based), which are
  Hermitian, unitary and pairwise anticommuting.
* Signature gammas: ``gamma_a = hat_gamma_a`` on plus directions and
  ``i * hat_gamma_a`` on minus ones, so every gamma is unitary and
  ``gamma_a^dagger = g_a gamma_a``.  Conjugation by the twist operator K
  is then forced to act as the parity ``gamma_a -> g_a gamma_a``.
* K is the normalized product of the plus gammas when p is odd, of the
  minus gammas otherwise (the parity of the product length decides which
  one conjugates correctly); Gamma is the normalized product of all gammas;
  Chat, with ``Chat hat_g Chat^-1 = -conj(hat_g)``, is the product of the
  imaginary-type (sigma2 slot) hat gammas for odd m, of the real-type ones
  for even m.
* Normalization (``PauliString.normalized``): multiply by i^j with the
  smallest j making the string Hermitian, then by -1 when the string is
  diagonal with phase -1.  A Hermitian unitary squares to the identity.

All sign parameters (eps, eps', eps_0..eps_3 and their Krein-side
counterparts) are measured from the constructed operators, never assumed.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .linalg import (
    BUILD_TOL,
    AntilinearOp,
    ShapeError,
    adjoint,
    norm_within,
    residual_norm,
    sign_of_pair,
    signed_permutation,
    table_norm,
)
from .linalg import _worst  # the one NaN-propagating maximum

__all__ = [
    "Signature",
    "CliffordRep",
    "StructuralOps",
    "SignTable",
    "ConstructionError",
    "PauliString",
    "sigma_strings",
    "string_product",
    "build_gammas",
    "represent",
    "represent_stack",
    "metric_pairing",
    "metric_pairings",
    "twist_parity_gaps",
    "trace_metric_residuals",
    "involution_residuals",
    "is_hermitian_involution",
    "build_structural",
    "verify_structural",
    "measure_sign",
    "antilinear_sign",
    "sign_table",
    "canonical_dirac_pair",
    "all_signatures",
]

class ConstructionError(RuntimeError):
    """An operator construction failed its defining relation."""


@dataclass(frozen=True)
class Signature:
    """Metric signature (p pluses, q minuses), total dimension even."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("signature counts must be nonnegative")
        n = self.p + self.q
        if n < 2 or n % 2 != 0:
            raise ValueError(
                f"only even total dimensions >= 2 are supported, got {n}"
            )

    @property
    def dim(self) -> int:
        return self.p + self.q

    @property
    def m(self) -> int:
        return self.dim // 2

    @property
    def signs(self) -> np.ndarray:
        return np.array([1.0] * self.p + [-1.0] * self.q)

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def all_signatures(dims: Sequence[int] = (2, 4, 6)) -> list[Signature]:
    """Every signature with total dimension in ``dims``."""
    out = []
    for n in dims:
        for p in range(n, -1, -1):
            out.append(Signature(p, n - p))
    return out


@dataclass(frozen=True)
class PauliString:
    """The operator i^k X^x Z^z on m tensor factors: bit m-1-j of ``x`` and of
    ``z`` puts sigma1 and sigma3 on factor j, and sigma2 = i sigma1 sigma3."""

    k: int
    x: int
    z: int

    def __matmul__(self, other: "PauliString") -> "PauliString":
        # Z^z1 X^x2 = (-1)^|z1 & x2| X^x2 Z^z1
        return PauliString((self.k + other.k + 2 * (self.z & other.x).bit_count()) % 4,
                           self.x ^ other.x, self.z ^ other.z)

    def normalized(self) -> "PauliString":
        """Times i^j with the smallest j making it Hermitian (k = |x & z| mod 2),
        then times -1 when it is diagonal (x = 0) with phase -1."""
        k = (self.k + ((self.x & self.z).bit_count() - self.k) % 2) % 4
        return PauliString(0 if self.x == 0 and k == 2 else k, self.x, self.z)

    def matrix(self, m: int) -> np.ndarray:
        """The dense 2^m x 2^m matrix: row r holds i^k (-1)^|z & (r ^ x)| in column r ^ x."""
        rows = np.arange(2 ** m)
        cols = rows ^ self.x
        signs = 1 - 2 * (np.bitwise_count(cols & self.z).astype(np.int64) % 2)
        out = np.zeros((2 ** m, 2 ** m), dtype=np.complex128)
        out[rows, cols] = 1j ** self.k * signs
        return out


def sigma_strings(m: int) -> list[PauliString]:
    """The 2m Euclidean gammas s3^(k) s1 1^(m-k-1) and s3^(k) s2 1^(m-k-1)."""
    out = []
    for k in range(m):
        bit, s3_mask = 1 << (m - 1 - k), (1 << m) - (1 << (m - k))
        out += [PauliString(0, bit, s3_mask), PauliString(1, bit, s3_mask | bit)]
    return out


def string_product(strings) -> PauliString:
    """The ordered product of ``strings``, the identity for none."""
    return reduce(operator.matmul, strings, PauliString(0, 0, 0))


def _signature_strings(hats: list[PauliString], signs: np.ndarray) -> list[PauliString]:
    """The signature gammas: the hat strings, times i on minus directions."""
    return [h if s > 0 else PauliString(1, 0, 0) @ h for h, s in zip(hats, signs)]


@dataclass(frozen=True)
class CliffordRep:
    """Irreducible representation of the even Clifford algebra for ``sig``."""

    sig: Signature
    m: int
    gammas: tuple
    signs: np.ndarray
    hat_gammas: tuple  # Euclidean (Wick-rotated) companions, all Hermitian

    @property
    def dim(self) -> int:
        return 2 ** self.m

    @property
    def n_gen(self) -> int:
        return 2 * self.m

    @cached_property
    def gamma_stack(self) -> np.ndarray:
        """The gammas as one read-only (n_gen, dim, dim) array."""
        stack = np.array(self.gammas, dtype=np.complex128)
        stack.setflags(write=False)
        return stack

    def gamma_table_norm(self, *gaps) -> float:
        """Largest |gap(g, s)| over the gaps and the gammas g with metric signs
        s, both passed as stacks (``linalg.table_norm``)."""
        s = self.signs[:, None, None]
        return _worst(table_norm(lambda i: gap(self.gamma_stack[i], s[i]), (self.n_gen,), self.dim)
                      for gap in gaps)

    @cached_property
    def relation_residuals(self) -> tuple[float, float]:
        """(max |{g_a, g_b} - 2 g_a delta_ab 1|, max |g_a g_a^dagger - 1|), the
        first over the pairs a <= b: the (b, a) anticommutator is the same sum."""
        eye, gam, s = np.eye(self.dim), self.gamma_stack, self.signs[:, None, None]
        pa, pb = np.triu_indices(self.n_gen)

        def anticommutators(i):
            a, b = pa[i], pb[i]
            target = np.where((a == b)[:, None, None], 2.0 * s[a] * eye, 0.0)
            return gam[a] @ gam[b] + gam[b] @ gam[a] - target

        return (table_norm(anticommutators, pa.shape, self.dim),
                self.gamma_table_norm(lambda g, s: g @ adjoint(g) - eye))


def build_gammas(sig: Signature) -> CliffordRep:
    """Construct 2m unitary gammas with {g_a, g_b} = 2 g_a delta_ab.

    Plus directions reuse the Euclidean sigma strings; minus directions are
    their i-multiples, which makes gamma_a^dagger = g_a gamma_a automatic.
    The relations are checked exactly on the strings: every pair anticommutes
    (|x_a & z_b| + |z_a & x_b| is odd) and gamma_a^2 is the identity times g_a.
    """
    hat_strings, signs = sigma_strings(sig.m), sig.signs
    strings = _signature_strings(hat_strings, signs)
    if not (all(((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2
                for a, b in itertools.combinations(strings, 2))
            and all(g @ g == PauliString(0 if s > 0 else 2, 0, 0) for g, s in zip(strings, signs))):
        raise ConstructionError("Clifford relations violated by the gamma strings")
    hats = [h.matrix(sig.m) for h in hat_strings]
    gammas = [h if s > 0 else 1j * h for h, s in zip(hats, signs)]
    return CliffordRep(sig=sig, m=sig.m, gammas=tuple(gammas), signs=signs, hat_gammas=tuple(hats))


def represent(rep: CliffordRep, v) -> np.ndarray:
    """c(v) = sum_a v^a gamma_a, linear in the coefficient vector."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    return represent_stack(rep, v[None])[0]


def represent_stack(rep: CliffordRep, vs) -> np.ndarray:
    """c(v) for every row v of a (k, n_gen) coefficient stack, shape (k, dim, dim).

    One matrix product of the stack with the flattened gammas.  Every gamma
    is a monomial matrix with entries in {0, +-1, +-i}, so each product
    v^a gamma_a is exact and each entry sums at most two nonzero terms (the
    sigma1 and sigma2 slots share their support): the result is independent
    of the summation order, bit for bit.
    """
    vs = np.asarray(vs, dtype=np.complex128)
    if vs.ndim != 2 or vs.shape[1] != rep.n_gen:
        raise ShapeError(f"coefficient vector must have length {rep.n_gen}, got shape {vs.shape[1:]}")
    flat = vs @ rep.gamma_stack.reshape(rep.n_gen, rep.dim * rep.dim)
    return flat.reshape(len(vs), rep.dim, rep.dim)


def metric_pairing(rep: CliffordRep, u, v) -> complex:
    """g(u, v) = sum_a g_a u^a v^a (bilinear, orthonormal basis)."""
    u = np.asarray(u, dtype=np.complex128).ravel()
    v = np.asarray(v, dtype=np.complex128).ravel()
    return complex(metric_pairings(rep, u, v))


def metric_pairings(rep: CliffordRep, us, vs) -> np.ndarray:
    """g(u, v) over the last axis, row by row for (k, n_gen) stacks."""
    us = np.asarray(us, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    return np.sum(rep.signs * us * vs, axis=-1)


def twist_parity_gaps(rep: CliffordRep, ops: "StructuralOps", vs) -> np.ndarray:
    """K c(v) K - c(rv) for every row v of a coefficient stack."""
    vs = np.asarray(vs)
    return ops.K @ represent_stack(rep, vs) @ ops.K - represent_stack(rep, rep.signs * vs)


def trace_metric_residuals(rep: CliffordRep, us, vs) -> np.ndarray:
    """|tr(c(u) c(v)) / dim - g(u, v)| for paired rows of coefficient stacks."""
    prod = represent_stack(rep, us) @ represent_stack(rep, vs)
    tr = np.trace(prod, axis1=-2, axis2=-1) / rep.dim
    return np.abs(tr - metric_pairings(rep, us, vs))


@dataclass(frozen=True)
class StructuralOps:
    """Implementers of the twist, grading and charge conjugations.

    K conjugates gammas by their metric sign, Gamma flips every gamma,
    Chat is the Euclidean charge conjugation, C = K @ Chat the signature
    one; J and Jhat are the antilinear operators C o cc and Chat o cc.
    """

    K: np.ndarray
    Gamma: np.ndarray
    C: np.ndarray
    Chat: np.ndarray
    J: AntilinearOp
    Jhat: AntilinearOp


def involution_residuals(op: np.ndarray) -> tuple[float, float]:
    """(|op - op^dagger|, |op op - 1|): zero for a Hermitian involution."""
    return residual_norm(op, adjoint(op)), residual_norm(op @ op, np.eye(len(op)))


def is_hermitian_involution(op: np.ndarray) -> bool:
    """Whether both ``involution_residuals`` of op are at most ``BUILD_TOL``."""
    return (norm_within(op - adjoint(op), BUILD_TOL)
            and norm_within(op @ op - np.eye(len(op)), BUILD_TOL))


def build_structural(rep: CliffordRep) -> StructuralOps:
    """Build K, Gamma, Chat, C = K Chat and the antilinear J, Jhat from the
    sigma strings of the signature (the gammas are not read): the signature
    gammas are the hat strings times i on minus directions, and Chat is the
    product of the hat strings of index m % 2, m % 2 + 2, ...

    Each is a phase times a Pauli string, so each is classified as a
    ``linalg.SignedPermutation`` (C and Chat through J and Jhat)."""
    sig, hats = rep.sig, sigma_strings(rep.m)
    gammas = _signature_strings(hats, sig.signs)
    twist = gammas[: sig.p] if sig.p % 2 == 1 else gammas[sig.p :]
    K, Gamma = (signed_permutation(string_product(g).normalized().matrix(rep.m))
                for g in (twist, gammas))
    Jhat = AntilinearOp(string_product(hats[rep.m % 2 :: 2]).matrix(rep.m))
    J = AntilinearOp(K @ Jhat.mat)
    return StructuralOps(K=K, Gamma=Gamma, C=J.mat, Chat=Jhat.mat, J=J, Jhat=Jhat)


def verify_structural(rep: CliffordRep, ops: StructuralOps) -> dict:
    """Residuals for every defining relation of the structural operators.

    Keys: charge_conjugation, c_equals_k_chat, kappa_factorization,
    automorphism_commutation.  Each relation quantified over the generators
    is one stacked table (``CliffordRep.gamma_table_norm``).
    """
    # the automorphisms rho, chi, kappa (K and Gamma are Hermitian involutions);
    # J x J^-1 = C conj(x) C^-1, so C x C^-1 is J's sandwich of conj(x)
    def rho(x):
        return ops.K @ x @ ops.K

    def chi(x):
        return ops.Gamma @ x @ ops.Gamma

    def kap(x):
        return ops.J.sandwich(np.conj(x))

    def kappa_gap(x):  # kappa = kappahat o rho
        return kap(x) - ops.Jhat.sandwich(np.conj(rho(x)))

    table = rep.gamma_table_norm
    return {
        "charge_conjugation": table(lambda g, s: kap(g) + np.conj(g)),
        "c_equals_k_chat": residual_norm(ops.C, ops.K @ ops.Chat),
        "kappa_factorization": table(  # including the conjugated branch
            lambda g, s: kappa_gap(g), lambda g, s: kappa_gap(np.conj(g))),
        "automorphism_commutation": table(
            lambda g, s: rho(chi(g)) - chi(rho(g)), lambda g, s: rho(kap(g)) - kap(rho(g)),
            lambda g, s: kap(chi(g)) - chi(kap(g))),
    }


def antilinear_sign(op: np.ndarray, j: AntilinearOp) -> int:
    """Measured s with (op o J) = s (J o op) for a linear op and antilinear J."""
    return sign_of_pair(op @ j.mat, j.mat @ np.conj(op))


def measure_sign(x: np.ndarray, y: np.ndarray) -> int:
    """Measured s with X Y = s Y X."""
    return sign_of_pair(x @ y, y @ x)


@dataclass(frozen=True)
class SignTable:
    """Measured unit signs of a twisted / Krein-side operator family.

    eps, eps_prime come from K J = eps J K and K Gamma = eps' Gamma K;
    eps0..eps3 are the twisted-side real-structure signs, eps1K and eps3K
    their Krein-side counterparts (J and Gamma are the same on both sides,
    so eps0 and eps2 are too).
    """

    eps: int
    eps_prime: int
    eps0: int
    eps2: int
    eps1: int
    eps3: int
    eps1K: int
    eps3K: int

    def pseudo_row(self) -> tuple:
        return (self.eps0, self.eps1K, self.eps2, self.eps3K)


def sign_table(rep: CliffordRep, ops: StructuralOps, d: np.ndarray) -> SignTable:
    """Measure every unit sign and assert the twisted/Krein cross-relations.

    ``d`` is the self-adjoint twisted-side Dirac matrix; the Krein side uses
    K d.
    """
    eps = antilinear_sign(ops.K, ops.J)
    eps_prime = measure_sign(ops.K, ops.Gamma)
    eps0 = sign_of_pair(ops.J.square(), np.eye(rep.dim))
    eps2 = antilinear_sign(ops.Gamma, ops.J)

    if not norm_within(d - adjoint(d), 1e-10):
        raise ValueError("sign table needs a self-adjoint Dirac matrix")
    dk = ops.K @ d
    # J D = eps1 D J reads C conj(D) = eps1 D C on matrices.
    eps1 = sign_of_pair(ops.C @ np.conj(d), d @ ops.C)
    eps1K = sign_of_pair(ops.C @ np.conj(dk), dk @ ops.C)
    eps3 = measure_sign(d, ops.Gamma)
    eps3K = measure_sign(dk, ops.Gamma)
    if eps1K != eps * eps1:
        raise ConstructionError("cross-relation eps1K = eps * eps1 violated")
    if eps3 != eps_prime * eps3K:
        raise ConstructionError("cross-relation eps3 = eps' * eps3K violated")

    return SignTable(
        eps=eps,
        eps_prime=eps_prime,
        eps0=eps0,
        eps2=eps2,
        eps1=eps1,
        eps3=eps3,
        eps1K=eps1K,
        eps3K=eps3K,
    )


def canonical_dirac_pair(rep: CliffordRep, K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic test Dirac pair (D twisted-Hermitian, DK = K D Krein-self-adjoint)
    for the twist ``K`` of ``build_structural(rep)``.

    DK is taken odd so it anticommutes with the grading: a real grade-1
    combination in total dimension 2, an imaginary grade-3 combination in
    dimension >= 4.  The latter carries the extra conjugation/transposition
    sign of a first-order derivative slot, so its real-structure signs match
    the function-space Dirac operator (in particular the (1,3) table lands
    on (1, 1, -1, -1)).
    """
    n = rep.n_gen
    if n == 2:
        dk = rep.gammas[0] + 0.7 * rep.gammas[1]
    else:
        triples = list(itertools.combinations(range(n), 3))
        weights = [1.0 / (j + 2.0) for j in range(len(triples))]
        dk = np.zeros((rep.dim, rep.dim), dtype=np.complex128)
        for w, (a, b, c) in zip(weights, triples):
            dk += 1j * w * (rep.gammas[a] @ rep.gammas[b] @ rep.gammas[c])
    d = K @ dk
    if not norm_within(d - adjoint(d), 1e-11):
        raise ConstructionError("canonical Dirac matrix failed to be Hermitian")
    return d, dk
