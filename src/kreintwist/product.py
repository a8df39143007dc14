"""Almost-commutative product triples and the 4D signature-emergence table.

The finite side is a minimal two-conjugate-block model on C^4: the two-point
algebra acts as diag(a1, a2, a2, a2), the grading separates the mass pairs
(1,2) and (3,4), the real structure swaps the pairs with conjugation, and
the mass operator couples inside each pair.  This is the smallest model
with nonzero [D_F, a] that satisfies all sign relations J^2 = +1,
J D = D J, J Gamma = -Gamma J together with the order-zero and first-order
conditions exactly.  (A single 2x2 mass block cannot: its first-order
commutator is off-diagonal of size |m| |a1-a2| |b1-b2|.)

The product Dirac operator is D (x) 1_F + K (x) D_F; all identities of the
product calculus are checked as exact matrix identities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .clifford import (
    BUILD_TOL,
    CliffordRep,
    StructuralOps,
    antilinear_sign,
    involution_residuals,
    measure_sign,
    phase_normalize,
    gamma_product,
)
from .krein import (
    KreinSpace,
    TwistedTripleData,
    gauge_form_residual,
    is_k_unitary,
    k_adjoint,
    k_unitarity_residuals,
    twisted_commutator,
)
from .linalg import (
    AntilinearOp,
    NotASignError,
    adjoint,
    commutator,
    kron,
    norm_within,
    op_norms,
    residual_norm,
    sign_of_pair,
    table_norm,
)
from .linalg import _worst  # the one NaN-propagating maximum

__all__ = [
    "ConstraintViolationError",
    "FiniteTriple",
    "ProductTripleData",
    "EmergenceRow",
    "build_finite_triple_ko6",
    "finite_first_order_residual",
    "finite_ko6_residuals",
    "twisted_grading_residual",
    "constraint_check_O",
    "assemble_product",
    "derivation_split_check",
    "product_fluctuation_check",
    "fermionic_action",
    "gauge_vs_form_residual",
    "signature_emergence",
    "check_emergence_table",
    "dirac_mass_shape_check",
]


class ConstraintViolationError(RuntimeError):
    """A product-triple invariant failed at assembly time."""


@dataclass(frozen=True)
class FiniteTriple:
    """Finite even real triple of KO-dimension 6 (signs +, +, -)."""

    algebra_gens: tuple
    dimF: int
    DF: np.ndarray
    JF: AntilinearOp
    GammaF: np.ndarray


def build_finite_triple_ko6(mass: complex) -> FiniteTriple:
    """Minimal KO-dimension-6 finite triple with mass coupling.

    Basis (f1, f2, f3, f4): the algebra acts as diag(a1, a2, a2, a2), the
    grading is diag(+, -, -, +), the real structure is the pair swap
    (1<->3, 2<->4) composed with conjugation, and the mass couples f1<->f2
    and f3<->f4 with conjugate weights fixed by J D = D J.
    """
    m = complex(mass)
    df = np.array(
        [
            [0, np.conj(m), 0, 0],
            [m, 0, 0, 0],
            [0, 0, 0, m],
            [0, 0, np.conj(m), 0],
        ],
        dtype=np.complex128,
    )
    perm = np.zeros((4, 4), dtype=np.complex128)
    perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
    gamma_f = np.diag([1.0, -1.0, -1.0, 1.0]).astype(np.complex128)
    p1 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(np.complex128)
    p2 = np.diag([0.0, 1.0, 1.0, 1.0]).astype(np.complex128)
    triple = FiniteTriple(
        algebra_gens=(p1, p2),
        dimF=4,
        DF=df,
        JF=AntilinearOp(perm),
        GammaF=gamma_f,
    )
    _validate_finite_ko6(triple)
    return triple


def finite_ko6_residuals(t: FiniteTriple) -> dict:
    """The residual of every KO-6 invariant of a finite triple, by name."""
    eye = np.eye(t.dimF)
    return {
        "DF self-adjoint": residual_norm(t.DF, adjoint(t.DF)),
        "GammaF involution": _worst(involution_residuals(t.GammaF)),
        "JF^2 = +1": residual_norm(t.JF.square(), eye),
        "JF DF = DF JF": residual_norm(t.JF.mat @ np.conj(t.DF), t.DF @ t.JF.mat),
        "JF GammaF = -GammaF JF": residual_norm(
            t.JF.mat @ np.conj(t.GammaF), -t.GammaF @ t.JF.mat
        ),
        "GammaF DF = -DF GammaF": residual_norm(t.GammaF @ t.DF, -t.DF @ t.GammaF),
        "first order": finite_first_order_residual(t),
        "order zero": _generator_pair_norm(t, commutator),
    }


def _validate_finite_ko6(t: FiniteTriple) -> None:
    bad = {k: v for k, v in finite_ko6_residuals(t).items() if not v <= BUILD_TOL}
    if bad:
        raise ConstraintViolationError(f"finite triple invariants failed: {bad}")


def finite_first_order_residual(t: FiniteTriple) -> float:
    """max over generator pairs of |[[DF, a], JF b^dagger JF^-1]|."""
    return _generator_pair_norm(t, lambda a, b_op: commutator(commutator(t.DF, a), b_op))


def _generator_pair_norm(t: FiniteTriple, gap) -> float:
    """Largest |gap(a, b^o)| over the table of ordered generator pairs (a, b),
    b^o = JF b^dagger JF^-1."""
    gens = np.array(t.algebra_gens)
    return table_norm(lambda a, b: gap(gens[a], t.JF.sandwich(adjoint(gens[b]))),
                      (len(gens),) * 2, t.dimF)


def constraint_check_O(o, j: AntilinearOp, gamma, eps: int, eps_prime: int) -> dict:
    """Residuals of the three operator constraints O = O^dag, JO = eps OJ,
    Gamma O = eps' O Gamma."""
    return {
        "selfadjoint": residual_norm(o, adjoint(o)),
        "j_relation": residual_norm(j.mat @ np.conj(o), eps * (o @ j.mat)),
        "gamma_relation": residual_norm(gamma @ o, eps_prime * (o @ gamma)),
    }


@dataclass(frozen=True)
class ProductTripleData:
    """Assembled almost-commutative product of a twisted triple with a finite one."""

    manifold: TwistedTripleData
    finite: FiniteTriple
    Dp: np.ndarray
    Jp: AntilinearOp
    Gammap: np.ndarray
    Kp: np.ndarray
    sign_row: tuple  # measured (eps0p, eps1p, eps2p, eps3p)

    @property
    def dim(self) -> int:
        return self.Dp.shape[0]

    @cached_property
    def space(self) -> KreinSpace:
        return KreinSpace(self.dim, self.Kp)


def assemble_product(manifold: TwistedTripleData, finite: FiniteTriple) -> ProductTripleData:
    """Build D (x) 1 + K (x) DF with J (x) JF, Gamma (x) GammaF, K (x) 1.

    Raises ConstraintViolationError when the twisted grading relation
    Dp Gp + (Kp Gp Kp) Dp = 0 fails, and measures the product sign row.
    """
    eye_f = np.eye(finite.dimF)
    dp = kron(manifold.D, eye_f) + kron(manifold.K, finite.DF)
    jp = AntilinearOp(kron(manifold.J.mat, finite.JF.mat))
    gp = kron(manifold.Gamma, finite.GammaF)
    kp = kron(manifold.K, eye_f)

    if not norm_within(_twisted_grading_gap(dp, gp, kp), 1e-11):
        raise ConstraintViolationError(
            f"twisted grading anticommutation failed ({twisted_grading_residual(dp, gp, kp):.3e})"
        )

    dim = dp.shape[0]
    eps0p = sign_of_pair(jp.square(), np.eye(dim))
    eps2p = sign_of_pair(jp.mat @ np.conj(gp), gp @ jp.mat)
    # the Dirac rows are definite only when the manifold side has eps1 = eps
    # (KO-6 style, dimension >= 4); indefinite signs are reported as 0
    try:
        eps1p = sign_of_pair(jp.mat @ np.conj(dp), dp @ jp.mat)
    except NotASignError:
        eps1p = 0
    try:
        eps3p = measure_sign(gp, dp)
    except NotASignError:
        eps3p = 0
    return ProductTripleData(
        manifold=manifold,
        finite=finite,
        Dp=dp,
        Jp=jp,
        Gammap=gp,
        Kp=kp,
        sign_row=(eps0p, eps1p, eps2p, eps3p),
    )


def _twisted_grading_gap(dp, gp, kp) -> np.ndarray:
    return dp @ gp + kp @ gp @ kp @ dp


def twisted_grading_residual(dp, gp, kp) -> float:
    """|Dp Gp + (Kp Gp Kp) Dp|: the product's twisted grading relation."""
    return residual_norm(_twisted_grading_gap(dp, gp, kp))


def derivation_split_check(pt: ProductTripleData, a1, a2) -> float:
    """[Dp, a1 (x) a2]_rho_p = [D, a1]_rho (x) a2 + K a1 (x) [DF, a2]."""
    lhs = twisted_commutator(pt.Dp, kron(a1, a2), pt.Kp)
    m = pt.manifold
    rhs = kron(twisted_commutator(m.D, a1, m.K), a2) + kron(
        m.K @ a1, commutator(pt.finite.DF, a2)
    )
    return residual_norm(lhs, rhs)


def product_fluctuation_check(pt: ProductTripleData, u_k, u) -> float:
    """(U_K (x) U) Dp (U_K^dag (x) U^dag) = Kp (D^K_fluct (x) 1 + 1 (x) DF_fluct).

    U_K = u_k J u_k J^-1 and U = u JF u JF^-1.  The Krein-side fluctuation
    on the right uses the twist image rho(U_K) = K U_K K, whose own
    K-conjugate is U_K again, so both sides are the same fluctuation seen
    through the morphism.
    """
    m = pt.manifold
    space = m.space
    if not is_k_unitary(None, u):
        res = float(k_unitarity_residuals(None, u))
        raise ConstraintViolationError(f"finite gauge element not unitary ({res:.3e})")
    if not is_k_unitary(space, u_k):
        kres = k_unitarity_residuals(space, u_k[None])[0]
        raise ConstraintViolationError(f"manifold gauge element not K-unitary ({kres:.3e})")

    big_u_k = u_k @ m.J.sandwich(u_k)
    big_u = u @ pt.finite.JF.sandwich(u)
    eye_f = np.eye(pt.finite.dimF)
    eye_m = np.eye(m.D.shape[0])

    lhs = kron(big_u_k, big_u) @ pt.Dp @ kron(adjoint(big_u_k), adjoint(big_u))

    dk = m.K @ m.D
    v_k = m.K @ big_u_k @ m.K  # rho(U_K)
    dk_fluct = v_k @ dk @ k_adjoint(space, v_k)
    df_fluct = big_u @ pt.finite.DF @ adjoint(big_u)
    rhs = pt.Kp @ (kron(dk_fluct, eye_f) + kron(eye_m, df_fluct))
    return residual_norm(lhs, rhs)


def fermionic_action(pt: ProductTripleData, psi1, psi2, phi1, phi2) -> dict:
    """Pairing <psi1 (x) psi2, Dp (phi1 (x) phi2)> against its split form.

    The split is <psi1, DK phi1>_K <psi2, phi2> + <psi1, phi1>_K <psi2, DF phi2>.
    """
    m = pt.manifold
    psi1 = np.asarray(psi1, dtype=np.complex128).ravel()
    psi2 = np.asarray(psi2, dtype=np.complex128).ravel()
    phi1 = np.asarray(phi1, dtype=np.complex128).ravel()
    phi2 = np.asarray(phi2, dtype=np.complex128).ravel()
    if psi1.shape[0] != m.D.shape[0] or psi2.shape[0] != pt.finite.dimF:
        raise ValueError("state factors have wrong dimensions")
    psi = np.kron(psi1, psi2)
    phi = np.kron(phi1, phi2)
    lhs = complex(np.vdot(psi, pt.Dp @ phi))
    dk = m.K @ m.D
    kdot = lambda a, b: complex(np.vdot(a, m.K @ b))
    rhs = kdot(psi1, dk @ phi1) * complex(np.vdot(psi2, phi2)) + kdot(
        psi1, phi1
    ) * complex(np.vdot(psi2, pt.finite.DF @ phi2))
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}


def gauge_vs_form_residual(pt: ProductTripleData, u_k, u) -> float:
    """Gauge-generated fluctuation against the one-form formula.

    For gauge elements of the product algebra (scalar phase on the manifold
    factor, unitary on the finite one) the order-zero and first-order
    conditions hold, so Ad(w) Dp Ad(w)^dag = Dp + A + eps1 J A J^-1 with
    A = w [Dp, w^+]_rho exactly (``krein.gauge_form_residual`` with w = u_k (x) u).
    """
    eps1p = pt.sign_row[1]
    if eps1p == 0:
        raise ConstraintViolationError(
            "fluctuation formula needs a definite product J-D sign (manifold eps1 = eps)"
        )
    return gauge_form_residual(pt.Dp, kron(u_k, u), pt.Jp, pt.space, eps1p)


def finite_algebra_unitary(t: FiniteTriple, theta1: float, theta2: float) -> np.ndarray:
    """Unitary of the represented two-point algebra, exp(i t1) p1 + exp(i t2) p2."""
    p1, p2 = t.algebra_gens
    return np.exp(1j * theta1) * p1 + np.exp(1j * theta2) * p2


@dataclass(frozen=True)
class EmergenceRow:
    """One candidate twist operator in the 4D Euclidean enumeration."""

    indices: tuple
    grade: int
    eps: int
    eps_prime: int
    signature: tuple       # diagonal of the induced metric, entries +-1
    plus_count: int
    eps0_emergent: int     # (K Jhat)^2
    eps2_emergent: int     # grading sign of the emergent real structure
    diag_scalar_residual: float
    excluded_reason: Optional[str]


def signature_emergence(rep4: CliffordRep, ops: StructuralOps) -> list[EmergenceRow]:
    """Enumerate all 16 normalized gamma products as twist candidates.

    Every candidate is Hermitian, unitary, squares to one and conjugates
    each Euclidean gamma to a sign; the induced metric diagonal is read
    from the squares of gamma_K^a = K hat_gamma^a (one stack of four per
    candidate, its scalar residuals normed together) and the emergent real
    structure is K Jhat.  Rows whose emergent grading sign is +1 cannot
    reach the KO-6 table and carry an exclusion reason.  ``ops`` are the
    structural operators of rep4 (K = 1 there); Jhat and Gamma are read.
    """
    if rep4.sig.p != 4 or rep4.sig.q != 0:
        raise ValueError("signature emergence expects the Euclidean 4D representation")
    jhat = ops.Jhat
    gamma_hat_full = ops.Gamma
    eye, hats = np.eye(rep4.dim), np.array(rep4.hat_gammas)
    rows = []
    for r in range(5):
        for subset in itertools.combinations(range(4), r):
            k_cand = phase_normalize(gamma_product(rep4, subset, euclidean=True))
            eps = antilinear_sign(k_cand, jhat)
            eps_prime = measure_sign(k_cand, gamma_hat_full)
            gk = k_cand @ hats
            squares = gk @ gk
            taus = [sign_of_pair(sq, eye) for sq in squares]
            diag_resid = float(np.max(op_norms(squares - np.array(taus)[:, None, None] * eye)))
            j_em = AntilinearOp(k_cand @ jhat.mat)
            eps0_em = sign_of_pair(j_em.square(), eye)
            eps2_em = antilinear_sign(gamma_hat_full, j_em)
            plus = sum(1 for t in taus if t > 0)
            if eps_prime == +1:
                reason = "emergent grading sign +1 (eps2 = +1, not KO-6 compatible)"
            else:
                reason = None
            rows.append(
                EmergenceRow(
                    indices=subset,
                    grade=r,
                    eps=eps,
                    eps_prime=eps_prime,
                    signature=tuple(taus),
                    plus_count=plus,
                    eps0_emergent=eps0_em,
                    eps2_emergent=eps2_em,
                    diag_scalar_residual=diag_resid,
                    excluded_reason=reason,
                )
            )
    return rows


def check_emergence_table(rows: Sequence[EmergenceRow]) -> dict:
    """Assert the epsilon <-> signature correspondence on the table.

    Among candidates compatible with an odd grading relation (eps' = -1):
    eps = -1 rows induce exactly one plus direction (the (+,-,-,-) class,
    containing the single-gamma Lorentz operators), eps = +1 rows exactly
    one minus.  Rows whose emergent real-structure pair matches the KO-6
    values (+1, -1) must be exactly the grade-1 rows.
    """
    out = {
        "n_rows": len(rows),
        "lorentzian_rows": [],
        "anti_lorentzian_rows": [],
        "ko6_rows": [],
        "riemannian_row_present": False,
        "violations": [],
    }
    for row in rows:
        if row.grade == 0 and row.signature == (1, 1, 1, 1) and row.eps == +1:
            out["riemannian_row_present"] = True
        if row.eps_prime == -1:
            if row.eps == -1:
                out["lorentzian_rows"].append(row)
                if row.plus_count != 1:
                    out["violations"].append(
                        f"eps=-1 candidate {row.indices} induced {row.signature}"
                    )
            else:
                out["anti_lorentzian_rows"].append(row)
                if row.plus_count != 3:
                    out["violations"].append(
                        f"eps=+1 candidate {row.indices} induced {row.signature}"
                    )
        if (row.eps0_emergent, row.eps2_emergent) == (1, -1):
            out["ko6_rows"].append(row)
            if row.grade != 1 or row.plus_count != 1:
                out["violations"].append(
                    f"KO-6 emergent pair on non-Lorentz candidate {row.indices}"
                )
    if len(out["ko6_rows"]) != 4:
        out["violations"].append(
            f"expected the 4 single-gamma rows to carry the KO-6 pair, got {len(out['ko6_rows'])}"
        )
    return out


def dirac_mass_shape_check(pt: ProductTripleData, rng: np.random.Generator) -> float:
    """Mass block shape of the product Dirac operator.

    Checks Dp - D (x) 1 = K (x) DF exactly, and that the finite part of the
    pairing on ten product states drawn from ``rng`` is <psi1, phi1>_K times
    the pure mass pairing <psi2, DF phi2>.
    """
    m = pt.manifold
    eye_f = np.eye(pt.finite.dimF)
    r = residual_norm(pt.Dp - kron(m.D, eye_f), kron(m.K, pt.finite.DF))
    dim_m = m.D.shape[0]
    gaps = []
    for _ in range(10):
        psi1 = rng.normal(size=dim_m) + 1j * rng.normal(size=dim_m)
        phi1 = rng.normal(size=dim_m) + 1j * rng.normal(size=dim_m)
        psi2 = rng.normal(size=pt.finite.dimF) + 1j * rng.normal(size=pt.finite.dimF)
        phi2 = rng.normal(size=pt.finite.dimF) + 1j * rng.normal(size=pt.finite.dimF)
        psi = np.kron(psi1, psi2)
        phi = np.kron(phi1, phi2)
        mass_part = complex(np.vdot(psi, kron(m.K, pt.finite.DF) @ phi))
        split = complex(np.vdot(psi1, m.K @ phi1)) * complex(
            np.vdot(psi2, pt.finite.DF @ phi2)
        )
        gaps.append(abs(mass_part - split))
    return _worst(gaps, r)
