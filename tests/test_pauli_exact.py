"""The exact Pauli-string layer against the float route and the measured signs.

Every gamma, K, Gamma, Chat and C is a phase times a Pauli string
(``clifford.PauliString``).  Two strings P, Q commute up to the sign
(-1)^omega(P, Q), with the symplectic form

    omega(P, Q) = |x_P & z_Q| + |z_P & x_Q|  (mod 2),

so P Q = (-1)^omega Q P (Aaronson and Gottesman, Phys. Rev. A 70, 052328,
2004).  Each unit sign the package measures from dense matrices then has a
bit prediction:

* a linear O = i^k X^x Z^z against J = C o cc, O J = s J O:
  s = (-1)^(k_O + omega(C, O)), because conj(O) = (-1)^k O;
* eps' = (-1)^omega(K, Gamma), and a sum of strings against Gamma has the
  common sign of its terms;
* eps0, J^2 = C conj(C) = (X^x Z^z)^2: (-1)^|x_C & z_C|.

The Clifford relations themselves are exact on the strings:
omega(gamma_a, gamma_b) = 1 for a != b, and gamma_a gamma_a is the string
of the sign g_a.  ``build_gammas`` checks them on the strings, so a pair
of strings that commutes stops the construction.

The strings' matrices are compared with the float route the package used
before (kron loops, BLAS products, a numeric phase scan) on every signature
of dimension 2-12, and the predictions with the measurements.
"""

import itertools

import numpy as np
import pytest

from kreintwist import clifford as cl
from kreintwist.clifford import (
    PauliString,
    Signature,
    all_signatures,
    build_gammas,
    build_structural,
    sigma_strings,
    string_product,
)
from kreintwist.product import signature_emergence
from kreintwist.report import SuiteConfig
from kreintwist.suites import run

from conftest import dense_product, kron_gammas, phase_scan

SIGS = all_signatures((2, 4, 6, 8, 10, 12))
TIMES_I, MINUS = PauliString(1, 0, 0), PauliString(2, 0, 0)


def omega(p: PauliString, q: PauliString) -> int:
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2


def j_sign(o: PauliString, c: PauliString) -> int:
    """s with O J = s J O, J = C o cc."""
    return (-1) ** (o.k + omega(c, o))


def sign(p: PauliString, q: PauliString) -> int:
    """s with P Q = s Q P."""
    return (-1) ** omega(p, q)


def common(signs) -> int:
    """The one sign shared by every term of a sum."""
    signs = set(signs)
    assert len(signs) == 1, signs
    return signs.pop()


def gamma_strings(sig: Signature) -> list:
    return [h if s > 0 else TIMES_I @ h for h, s in zip(sigma_strings(sig.m), sig.signs)]


def structural_strings(sig: Signature) -> tuple:
    """(K, Gamma, Chat): the normalized product of the plus gammas when p is
    odd, of the minus gammas otherwise; the normalized product of all gammas;
    the product of the sigma2-slot hats for odd m, of the sigma1-slot ones
    for even m."""
    g, hats = gamma_strings(sig), sigma_strings(sig.m)
    K = string_product(g[: sig.p] if sig.p % 2 == 1 else g[sig.p :]).normalized()
    return K, string_product(g).normalized(), string_product(hats[sig.m % 2 :: 2])


def dirac_terms(sig: Signature, K: PauliString) -> tuple[list, list]:
    """The string terms of D = K dk and of dk, as ``canonical_dirac_pair`` sums
    them (real weights change no sign): gamma_0 + 0.7 gamma_1 in dimension 2,
    the terms i gamma_a gamma_b gamma_c otherwise."""
    g = gamma_strings(sig)
    if sig.dim == 2:
        dk = g[:2]
    else:
        dk = [TIMES_I @ string_product(g[a] for a in abc)
              for abc in itertools.combinations(range(sig.dim), 3)]
    return [K @ t for t in dk], dk


def float_route(sig: Signature) -> dict:
    """Hats, gammas, K, Gamma and Chat as the float construction built them."""
    hats = kron_gammas(sig.m)
    gammas = [h if s > 0 else 1j * h for h, s in zip(hats, sig.signs)]
    plus, minus = range(sig.p), range(sig.p, sig.dim)
    return {
        "hats": hats,
        "gammas": gammas,
        "K": phase_scan(dense_product(gammas, plus if sig.p % 2 == 1 else minus)),
        "Gamma": phase_scan(dense_product(gammas, range(sig.dim))),
        "Chat": dense_product(hats, range(sig.m % 2, sig.dim, 2)),
    }


@pytest.fixture(scope="module", params=SIGS, ids=str)
def built(request):
    sig = request.param
    rep = build_gammas(sig)
    return sig, rep, build_structural(rep)


def test_strings_equal_the_float_route(built):
    sig, rep, ops = built
    want = float_route(sig)
    K, Gamma, Chat = structural_strings(sig)
    for name, got in (("hats", rep.hat_gammas), ("gammas", rep.gammas)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want[name], strict=True)), name
    assert all(np.array_equal(s.matrix(sig.m), g) for s, g in zip(gamma_strings(sig), rep.gammas))
    for name, op, string in (("K", ops.K, K), ("Gamma", ops.Gamma, Gamma), ("Chat", ops.Chat, Chat)):
        assert np.array_equal(op, want[name]), name
        assert np.array_equal(string.matrix(sig.m), want[name]), name
    assert np.array_equal((K @ Chat).matrix(sig.m), ops.C)


def test_measured_signs_equal_the_bit_predictions(built):
    sig, rep, ops = built
    K, Gamma, Chat = structural_strings(sig)
    C = K @ Chat
    d_terms, dk_terms = dirac_terms(sig, K)
    predicted = cl.SignTable(
        eps=j_sign(K, C),
        eps_prime=sign(K, Gamma),
        eps0=(-1) ** (C.x & C.z).bit_count(),
        eps2=j_sign(Gamma, C),
        eps1=common(j_sign(t, C) for t in d_terms),
        eps3=common(sign(t, Gamma) for t in d_terms),
        eps1K=common(j_sign(t, C) for t in dk_terms),
        eps3K=common(sign(t, Gamma) for t in dk_terms),
    )
    d, _ = cl.canonical_dirac_pair(rep, ops.K)
    assert cl.sign_table(rep, ops, d) == predicted
    assert predicted.eps1K == predicted.eps * predicted.eps1
    assert predicted.eps3 == predicted.eps_prime * predicted.eps3K


def test_clifford_relations_are_exact(built):
    sig, _, _ = built
    g = gamma_strings(sig)
    for a, b in itertools.combinations(range(sig.dim), 2):
        assert omega(g[a], g[b]) == 1  # gamma_a gamma_b = -gamma_b gamma_a
    for g_a, s in zip(g, sig.signs):
        assert g_a @ g_a == (PauliString(0, 0, 0) if s > 0 else MINUS)


def test_a_commuting_pair_of_strings_stops_the_construction(monkeypatch):
    strings = sigma_strings

    def commuting(m):
        out = strings(m)
        return [out[0], out[0], *out[2:]]  # gamma_0 and gamma_1 commute

    monkeypatch.setattr(cl, "sigma_strings", commuting)
    for sig in (Signature(2, 0), Signature(1, 3)):
        with pytest.raises(cl.ConstructionError, match="Clifford relations"):
            build_gammas(sig)
    records = run(SuiteConfig(suites=("clifford",), signatures=((1, 3),))).records
    assert records and all(r.residual == float("inf") and not r.passed for r in records)


def test_grading_and_twist_relations_are_exact(built):
    sig, _, _ = built
    K, Gamma, _ = structural_strings(sig)
    for g, s in zip(gamma_strings(sig), sig.signs):
        assert omega(Gamma, g) == 1  # Gamma gamma_a Gamma = -gamma_a
        assert sign(K, g) == s  # K gamma_a K = g_a gamma_a
        assert K @ g @ K == (g if s > 0 else MINUS @ g)


def test_emergence_candidates_equal_the_bit_predictions():
    rep4 = build_gammas(Signature(4, 0))
    ops = build_structural(rep4)
    hats = sigma_strings(2)
    _, Gamma, Chat = structural_strings(Signature(4, 0))
    rows = signature_emergence(rep4, ops)
    subsets = [s for r in range(5) for s in itertools.combinations(range(4), r)]
    assert [row.indices for row in rows] == subsets
    for row in rows:
        k = string_product(hats[a] for a in row.indices).normalized()
        taus = tuple(sign(k, h) for h in hats)  # (K h_a)^2 = (-1)^omega(K, h_a)
        emergent = k @ Chat
        assert row.grade == len(row.indices)
        assert row.eps == j_sign(k, Chat)
        assert row.eps_prime == sign(k, Gamma)
        assert row.signature == taus
        assert row.plus_count == taus.count(1)
        assert row.eps0_emergent == (-1) ** (emergent.x & emergent.z).bit_count()
        assert row.eps2_emergent == j_sign(Gamma, emergent)
        assert row.diag_scalar_residual == 0.0
