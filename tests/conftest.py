import numpy as np
import pytest

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
