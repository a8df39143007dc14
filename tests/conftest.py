import numpy as np
import pytest

from kreintwist import suites as su
from kreintwist.clifford import (
    all_signatures,
    build_gammas,
    build_structural,
    canonical_dirac_pair,
)
from kreintwist.krein import canonical_twisted_triple
from kreintwist.morphism import MorphismPair, apply_k_morphism
from kreintwist.product import assemble_product, build_finite_triple_ko6

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


# The float route the package built its operators by before the exact
# Pauli strings: kron loops, ordered BLAS products and a numeric phase scan.

def kron_gammas(m: int) -> list:
    """The 2m Euclidean sigma strings s3^(k) s1/s2 1^(m-k-1), as kron loops."""
    out = []
    for k in range(m):
        for sig in (SIGMA1, SIGMA2):
            g = np.eye(1, dtype=complex)
            for f in [SIGMA3] * k + [sig] + [np.eye(2, dtype=complex)] * (m - k - 1):
                g = np.kron(g, f)
            out.append(g)
    return out


def dense_product(mats, indices) -> np.ndarray:
    """The ordered product of ``mats[a]`` over ``indices`` (identity for none)."""
    out = np.eye(len(mats[0]), dtype=complex)
    for a in indices:
        out = out @ mats[a]
    return out


def phase_scan(p) -> np.ndarray:
    """Times i^k with the smallest k making p Hermitian, then -1 when the first
    diagonal entry with a nonvanishing real part, scanned from (0,0), is negative."""
    for k in range(4):
        cand = (1j ** k) * p
        if np.linalg.norm(cand - cand.conj().T, 2) <= 1e-12:
            d = np.real(np.diag(cand))
            d = d[np.abs(d) > 1e-12]
            return -cand if d.size and d[0] < 0 else cand
    raise AssertionError("no unit phase makes the product Hermitian")


def clifford_rows(rep, ops, ids) -> dict:
    """The ``suites.CLIFFORD`` rows named ``ids``, evaluated on a signature
    context that holds ``rep`` and ``ops``."""
    ctx = su.SignatureContext(rep.sig)
    ctx.rep, ctx.ops = rep, ops
    return {row.id: row.fn(ctx) for row in su.CLIFFORD if row.id in ids}


STRUCTURAL_ROWS = ("charge_conjugation", "c_equals_k_chat", "kappa_factorization",
                   "automorphism_commutation")

# the clifford rows that evaluate a gamma or generator-pair table, in table order
TABLE_ROWS = ("anticommutator_table", "gamma_unitarity", "gamma_dagger_sign", "charge_conjugation",
              "kappa_factorization", "automorphism_commutation", "rho_involution")


@pytest.fixture(scope="session")
def reps():
    """One built representation + structural operators per signature."""
    out = {}
    for sig in all_signatures():
        rep = build_gammas(sig)
        out[(sig.p, sig.q)] = (rep, build_structural(rep))
    return out


@pytest.fixture(scope="session")
def rep13(reps):
    return reps[(1, 3)]


@pytest.fixture(scope="session")
def rep11(reps):
    return reps[(1, 1)]


@pytest.fixture(scope="session")
def pair13(rep13):
    rep, ops = rep13
    d, _ = canonical_dirac_pair(rep, ops.K)
    t = canonical_twisted_triple(rep, ops, d)
    return MorphismPair(t, apply_k_morphism(t))


@pytest.fixture(scope="session")
def finite_ko6():
    return build_finite_triple_ko6(1.0 + 2.0j)


@pytest.fixture(scope="session")
def product13(pair13, finite_ko6):
    return assemble_product(pair13.twisted, finite_ko6)
