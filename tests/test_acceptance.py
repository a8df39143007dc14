"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the suites must meet them at the default
seed and step without any calibration hooks.
"""

import os
import re
import subprocess
import sys
import time

import numpy as np

from kreintwist.clifford import (
    all_signatures,
    build_gammas,
    build_structural,
    canonical_dirac_pair,
    represent,
    sign_table,
    verify_structural,
    Signature,
)
from kreintwist.geometry import (
    _jet,
    _relation_residual,
    christoffel,
    dirac_decomposition_check,
    fd_convergence_ratio,
    metric_compatibility_residual,
    metric_family,
    spin_connection_coeffs,
    trig_spinor,
)
from kreintwist.krein import (
    KreinSpace,
    canonical_twisted_triple,
    k_adjoint,
    k_product,
    k_unitarity_residuals,
    sample_spin_plus,
    twisted_commutator,
)
from kreintwist.linalg import adjoint, max_norm, op_norm, residual_norm
from kreintwist.morphism import (
    MorphismPair,
    apply_k_morphism,
    commutator_correspondence_gaps,
    first_order_correspondence_gaps,
    fluctuation_correspondence_check,
    generalized_clifford_check,
    invert_k_morphism,
    trace_metric_morph_check,
    twisted_clifford_check,
)
from kreintwist.product import (
    assemble_product,
    build_finite_triple_ko6,
    constraint_check_O,
    derivation_split_gaps,
    fermionic_action,
    finite_algebra_unitary,
    finite_first_order_residual,
    gauge_vs_form_residual,
    product_fluctuation_gaps,
    signature_emergence,
)

H = 1e-3


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_clifford_construction():
    t0 = time.perf_counter()
    worst = 0.0
    for sig in all_signatures():
        rep = build_gammas(sig)
        eye = np.eye(rep.dim)
        for a in range(rep.n_gen):
            for b in range(rep.n_gen):
                target = 2.0 * rep.signs[a] * eye if a == b else 0.0 * eye
                worst = max(
                    worst,
                    residual_norm(
                        rep.gammas[a] @ rep.gammas[b] + rep.gammas[b] @ rep.gammas[a],
                        target,
                    ),
                )
        for a, g in enumerate(rep.gammas):
            worst = max(worst, residual_norm(g @ adjoint(g), eye))
            worst = max(worst, residual_norm(adjoint(g), rep.signs[a] * g))
    elapsed = time.perf_counter() - t0
    _report(
        "1 clifford construction",
        worst <= 1e-12 and elapsed < 1.0,
        f"(residual {worst:.2e}, {elapsed:.2f} s)",
    )


def test_criterion_2_structural_suite():
    rng = np.random.default_rng(100)
    worst = 0.0
    for sig in all_signatures():
        rep = build_gammas(sig)
        ops = build_structural(rep)
        for _ in range(100):
            v = rng.normal(size=rep.n_gen)
            worst = max(
                worst,
                residual_norm(
                    ops.K @ represent(rep, v) @ ops.K,
                    represent(rep, rep.signs * v),
                ),
            )
        res = verify_structural(rep, ops)
        worst = max(worst, res["c_equals_k_chat"])
        worst = max(worst, res["kappa_factorization"])
    _report("2 structural operators", worst <= 1e-12, f"(residual {worst:.2e})")


def test_criterion_3_sign_tables():
    ok = True
    detail = []
    for sig in all_signatures():
        rep = build_gammas(sig)
        ops = build_structural(rep)
        d, _ = canonical_dirac_pair(rep, ops.K)
        tab = sign_table(rep, ops, d)  # raises on any broken cross-relation
        if not (
            tab.eps1K == tab.eps * tab.eps1
            and tab.eps3 == tab.eps_prime * tab.eps3K
        ):
            ok = False
            detail.append(str(sig))
        if (sig.p, sig.q) == (1, 3) and tab.pseudo_row() != (1, 1, -1, -1):
            ok = False
            detail.append(f"(1,3) row {tab.pseudo_row()}")
    _report("3 sign-table cross-relations + KO-6 row", ok, " ".join(detail))


def test_criterion_4_krein_calculus():
    worst_sampled = 0.0  # 1e-10 class
    worst_leibniz = 0.0  # 1e-11 class
    rng = np.random.default_rng(200)
    for sig in all_signatures():
        rep = build_gammas(sig)
        ops = build_structural(rep)
        space = KreinSpace(rep.dim, ops.K)
        d, _ = canonical_dirac_pair(rep, ops.K)
        t = canonical_twisted_triple(rep, ops, d)
        for _ in range(50):
            psi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
            phi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
            o = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
            pairing = abs(
                k_product(space, psi, o @ phi)
                - k_product(space, k_adjoint(space, o) @ psi, phi)
            )
            worst_leibniz = max(worst_leibniz, pairing)
            worst_leibniz = max(
                worst_leibniz,
                residual_norm(k_adjoint(space, k_adjoint(space, o)), o),
            )
        for s in sample_spin_plus(rep, 20, np.random.default_rng(300 + sig.p + 7 * sig.q)):
            x = s.matrix
            worst_sampled = max(
                worst_sampled,
                residual_norm(np.linalg.inv(x), ops.K @ adjoint(x) @ ops.K),
            )
            worst_sampled = max(worst_sampled, k_unitarity_residuals(space, x[None])[0])
            psi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
            phi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
            worst_sampled = max(
                worst_sampled,
                abs(k_product(space, x @ psi, x @ phi) - k_product(space, psi, phi)),
            )
        for _ in range(20):
            a = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
            b = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
            lhs = twisted_commutator(t.D, a @ b, t.K)
            rhs = twisted_commutator(t.D, a, t.K) @ b + (
                t.K @ a @ t.K
            ) @ twisted_commutator(t.D, b, t.K)
            worst_leibniz = max(worst_leibniz, residual_norm(lhs, rhs))
    # gauge-generated fluctuation equals the one-form formula on gauge
    # elements of the product algebra
    rep = build_gammas(Signature(1, 3))
    ops = build_structural(rep)
    d, _ = canonical_dirac_pair(rep, ops.K)
    t = canonical_twisted_triple(rep, ops, d)
    ft = build_finite_triple_ko6(1.0 + 2.0j)
    pt = assemble_product(t, ft)
    for _ in range(10):
        th1, th2, lam = rng.uniform(0, 2 * np.pi, size=3)
        u_f = finite_algebra_unitary(ft, th1, th2)
        worst_sampled = max(
            worst_sampled,
            gauge_vs_form_residual(pt, np.exp(1j * lam) * np.eye(4), u_f),
        )
    ok = worst_sampled <= 1e-10 and worst_leibniz <= 1e-11
    _report(
        "4 Krein/twist calculus",
        ok,
        f"(sampled {worst_sampled:.2e} <= 1e-10, chained {worst_leibniz:.2e} <= 1e-11)",
    )


def test_criterion_5_k_morphism():
    worst_inv = 0.0       # 1e-13
    worst_corr = 0.0      # 1e-10
    worst_cliff = 0.0     # 1e-11
    rng = np.random.default_rng(400)
    for sig in all_signatures():
        rep = build_gammas(sig)
        ops = build_structural(rep)
        d, _ = canonical_dirac_pair(rep, ops.K)
        t = canonical_twisted_triple(rep, ops, d)
        pair = MorphismPair(t, apply_k_morphism(t))
        back = invert_k_morphism(pair.pseudo)
        worst_inv = max(worst_inv, residual_norm(back.D, t.D))
        for _ in range(10):
            a = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
            b = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
            worst_corr = max(worst_corr, op_norm(commutator_correspondence_gaps(pair, a[None])[0]))
            worst_corr = max(worst_corr, op_norm(first_order_correspondence_gaps(pair, a[None], b[None])[0]))
        for s in sample_spin_plus(rep, 20, np.random.default_rng(500 + sig.p + 11 * sig.q)):
            worst_corr = max(
                worst_corr, fluctuation_correspondence_check(pair, s.matrix)
            )
        for _ in range(100):
            u = rng.normal(size=rep.n_gen)
            v = rng.normal(size=rep.n_gen)
            worst_cliff = max(worst_cliff, twisted_clifford_check(rep, ops, u, v))
        worst_cliff = max(worst_cliff, generalized_clifford_check(rep, ops))
        worst_cliff = max(
            worst_cliff,
            trace_metric_morph_check(rep, ops, 100, np.random.default_rng(600 + sig.p)),
        )
        if sig.q == 0:
            # Euclidean collapse: s_ab = 1 and the plain relations reappear
            if not all(
                rep.signs[a] * rep.signs[b] == 1.0
                for a in range(rep.n_gen)
                for b in range(rep.n_gen)
            ):
                worst_cliff = max(worst_cliff, 1.0)
            worst_cliff = max(worst_cliff, residual_norm(ops.K, np.eye(rep.dim)))
    ok = worst_inv <= 1e-13 and worst_corr <= 1e-10 and worst_cliff <= 1e-11
    _report(
        "5 K-morphism",
        ok,
        f"(involution {worst_inv:.2e}, correspondences {worst_corr:.2e}, "
        f"Clifford/trace {worst_cliff:.2e})",
    )


def test_criterion_6_geometry():
    t0 = time.perf_counter()
    worst_fd = 0.0
    families = ("exp2d", "conformal2d", "lorentz4d")
    rng = np.random.default_rng(700)
    for name in families:
        m = metric_family(name)
        lo = m.domain[:, 0] + 4 * H
        hi = m.domain[:, 1] - 4 * H
        for _ in range(5):
            x = lo + (hi - lo) * rng.uniform(size=m.dim)
            gamma = christoffel(m, False, x, H)
            worst_fd = max(worst_fd, float(np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2)))))
            worst_fd = max(worst_fd, _relation_residual(_jet(m, x, H)))
            worst_fd = max(worst_fd, metric_compatibility_residual(m, False, x, H))
            worst_fd = max(worst_fd, metric_compatibility_residual(m, True, x, H))
    lor = metric_family("lorentz4d")
    s = lor.r_signs
    worst_frame = 0.0
    for _ in range(3):
        x = -0.4 + 0.8 * rng.uniform(size=4)
        c = spin_connection_coeffs(lor, x, H)
        tilde = s[:, None, None] * c["Gamma_b_mu_a"] * s[None, None, :]
        worst_frame = max(worst_frame, float(np.max(np.abs(c["refl_frame_b_mu_a"] - tilde))))
        worst_frame = max(
            worst_frame,
            float(np.max(np.abs(c["refl_frame_b_mu_a"] - (c["GammaR_b_mu_a"] + c["K_b_mu_a"])))),
        )
    rep = build_gammas(Signature(1, 3))
    ops = build_structural(rep)
    psi = trig_spinor(4, 4, np.random.default_rng(5))
    worst_dirac = 0.0
    signs = set()
    for x in (
        np.array([0.1, -0.2, 0.3, 0.15]),
        np.array([-0.3, 0.1, -0.1, 0.4]),
        np.array([0.25, 0.3, 0.2, -0.35]),
    ):
        res, sgn = dirac_decomposition_check(lor, rep, ops, psi, x, H)
        worst_dirac = max(worst_dirac, res)
        signs.add(sgn)
    ratio = fd_convergence_ratio(metric_family("exp2d"), np.array([0.1, -0.2]), H)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_fd <= 1e-5
        and worst_frame <= 1e-5
        and worst_dirac <= 1e-4
        and len(signs) == 1
        and 3.5 <= ratio <= 4.5
        and elapsed < 30.0
    )
    _report(
        "6 geometry",
        ok,
        f"(fd {worst_fd:.2e} <= 1e-5, frame {worst_frame:.2e} <= 1e-5, "
        f"dirac {worst_dirac:.2e} <= 1e-4, ratio {ratio:.2f}, {elapsed:.1f} s)",
    )


def test_criterion_7_product_triple():
    rep = build_gammas(Signature(1, 3))
    ops = build_structural(rep)
    d, _ = canonical_dirac_pair(rep, ops.K)
    t = canonical_twisted_triple(rep, ops, d)
    ft = build_finite_triple_ko6(1.0 + 2.0j)
    pt = assemble_product(t, ft)
    tab = sign_table(rep, ops, d)
    rng = np.random.default_rng(800)

    worst_exact = finite_first_order_residual(ft)
    worst_exact = max(
        worst_exact, residual_norm(ft.JF.square(), np.eye(4))
    )
    worst_exact = max(
        worst_exact, residual_norm(ft.JF.mat @ np.conj(ft.DF), ft.DF @ ft.JF.mat)
    )
    worst_exact = max(
        worst_exact,
        residual_norm(ft.JF.mat @ np.conj(ft.GammaF), -ft.GammaF @ ft.JF.mat),
    )
    ok_k = all(
        r <= 1e-12
        for r in constraint_check_O(ops.K, ops.J, ops.Gamma, tab.eps, tab.eps_prime).values()
    )
    bad_gamma = (
        max(
            constraint_check_O(
                ops.Gamma, ops.J, ops.Gamma, tab.eps, tab.eps_prime
            ).values()
        )
        > 0.5
    )
    for _ in range(5):
        a1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for a2 in ft.algebra_gens:
            worst_exact = max(worst_exact, residual_norm(derivation_split_gaps(pt, a1, a2)))
    worst_fluct = 0.0
    for s in sample_spin_plus(rep, 20, np.random.default_rng(900)):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(z)
        worst_fluct = max(worst_fluct, max_norm(product_fluctuation_gaps(pt, s.matrix, u)))
    for _ in range(50):
        psi1, phi1 = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
        psi2, phi2 = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
        worst_exact = max(
            worst_exact, fermionic_action(pt, psi1, psi2, phi1, phi2)["residual"]
        )
    ok = worst_exact <= 1e-12 and ok_k and bad_gamma and worst_fluct <= 1e-10
    _report(
        "7 product triple",
        ok,
        f"(exact {worst_exact:.2e} <= 1e-12, fluctuation {worst_fluct:.2e} <= 1e-10, "
        f"O=K pass {ok_k}, control fails {bad_gamma})",
    )


def test_criterion_8_signature_emergence():
    t0 = time.perf_counter()
    rep4 = build_gammas(Signature(4, 0))
    rows = signature_emergence(rep4, build_structural(rep4))
    elapsed = time.perf_counter() - t0
    odd = [r for r in rows if r.eps_prime == -1]
    lorentzian = [r for r in odd if r.eps == -1]
    anti_lorentzian = [r for r in odd if r.eps == 1]
    ko6 = [r for r in rows if (r.eps0_emergent, r.eps2_emergent) == (1, -1)]
    lorentz_ok = len(lorentzian) == 4 and all(r.plus_count == 1 for r in lorentzian)
    anti_ok = len(anti_lorentzian) == 4 and all(r.plus_count == 3 for r in anti_lorentzian)
    ko6_ok = len(ko6) == 4 and all(r.grade == 1 and r.plus_count == 1 for r in ko6)
    gamma0 = next(r for r in rows if r.indices == (0,))
    ok = (
        len(rows) == 16
        and len(odd) == 8
        and ko6_ok
        and lorentz_ok
        and anti_ok
        and gamma0.signature == (1, -1, -1, -1)
        and gamma0.eps == -1
        and elapsed < 1.0
    )
    _report(
        "8 signature emergence",
        ok,
        f"(16 rows, eps=-1 -> (+,-,-,-), eps=+1 -> (+,+,+,-), {elapsed:.2f} s)",
    )


# the CLI runs as ``python -m kreintwist`` (the ``verify`` script needs an install)
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_VERIFY = [sys.executable, "-m", "kreintwist"]
_VERIFY_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join([_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])),
)


def test_criterion_9_cli():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [*_VERIFY, "--suite", "all", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_VERIFY_ENV,
    )
    elapsed = time.perf_counter() - t0
    ok_run = proc.returncode == 0 and elapsed < 60.0

    strip = lambda s: re.sub(r'"runtime_ms": [0-9.]+', '"runtime_ms": 0', s)
    proc2 = subprocess.run(
        [*_VERIFY, "--suite", "all", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_VERIFY_ENV,
    )
    deterministic = strip(proc.stdout) == strip(proc2.stdout)

    forced = subprocess.run(
        [*_VERIFY, "--suite", "geometry", "--tol", "fd=1e-300"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_VERIFY_ENV,
    )
    ok = ok_run and deterministic and forced.returncode == 1
    _report(
        "9 CLI",
        ok,
        f"(exit {proc.returncode} in {elapsed:.1f} s, deterministic {deterministic}, "
        f"forced failure exit {forced.returncode})",
    )
