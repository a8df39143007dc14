import warnings

import numpy as np
import pytest

from kreintwist.clifford import Signature, build_gammas, build_structural
from kreintwist.geometry import (
    MetricField,
    NonDiagonalMetricError,
    OutOfDomainError,
    SingularMetricError,
    SpinorField,
    _diagonal,
    _dirac_decompositions,
    _frames,
    _matvec,
    _jet,
    _reflect,
    _relation_residual,
    _stacked_jet,
    _stencil,
    christoffel,
    dirac_apply_pseudo,
    dirac_decomposition_check,
    fd_convergence_ratio,
    metric_compatibility_residual,
    metric_family,
    plane_wave_spinor,
    reflection_isometry_residual,
    spin_connection_coeffs,
    trig_spinor,
)

H = 1e-3


def _constant(m):
    """The field that is m at every point of a stack."""
    m = np.asarray(m)
    return lambda x: np.broadcast_to(m, x.shape[:-1] + m.shape)


def test_flat_metric_christoffels_vanish():
    m = metric_family("flat4d")
    x = np.zeros(4)
    assert np.max(np.abs(christoffel(m, False, x, H))) <= 1e-13
    assert np.max(np.abs(_reflect(m.r_signs, _jet(m, x, H).gamma))) <= 1e-13


def test_exp2d_closed_form():
    # g = diag(exp(2 x0), 1): Gamma^0_00 = d0 g00 / (2 g00) = 1 exactly
    m = metric_family("exp2d")
    for x in [np.array([0.1, -0.2]), np.array([-0.3, 0.4])]:
        ch = christoffel(m, False, x, H)
        assert abs(ch[0, 0, 0] - 1.0) <= 1e-6
        assert np.max(np.abs(ch - np.swapaxes(ch, 1, 2))) <= 1e-12


def test_conformal_closed_form():
    amp = 0.1
    m = metric_family("conformal2d")
    x = np.array([0.15, -0.1])
    got = christoffel(m, False, x, H)
    dphi = np.array([amp * np.cos(x[0] + 2 * x[1]), 2 * amp * np.cos(x[0] + 2 * x[1])])
    want = np.zeros((2, 2, 2))
    for l in range(2):
        for mm in range(2):
            for n in range(2):
                want[l, mm, n] = (
                    (l == mm) * dphi[n] + (l == n) * dphi[mm] - (mm == n) * dphi[l]
                )
    assert np.max(np.abs(got - want)) <= 1e-6


def test_out_of_domain_and_margin():
    m = metric_family("exp2d")
    with pytest.raises(OutOfDomainError):
        christoffel(m, False, np.array([0.6, 0.0]), H)
    with pytest.raises(OutOfDomainError):
        christoffel(m, False, np.array([0.5999, 0.0]), H)


@pytest.mark.parametrize("domain", [
    [[-1.0, 1.0]],  # one interval for two directions: it would broadcast
    [[-1.0, 1.0]] * 3,  # one interval too many: it would fail at the first jet
    [[-1.0, 1.0, 2.0]] * 2,
    [[-1.0, 1.0], [0.5, 0.5]],  # empty
    [[-1.0, 1.0], [0.5, -0.5]],  # reversed
    [[-1.0, 1.0], [-np.inf, 1.0]],
    [[-1.0, 1.0], [np.nan, 1.0]],
], ids=["1x2", "3x2", "2x3", "empty", "reversed", "infinite", "nan"])
def test_a_domain_must_hold_one_finite_interval_per_direction(domain):
    with pytest.raises(ValueError, match="domain"):
        MetricField(2, _constant(np.eye(2)), np.array([1.0, 1.0]), np.array(domain), "bad-domain")


def test_singular_metric_rejected():
    m = MetricField(2, lambda x: _diagonal(x[..., 0], 1.0), np.array([1.0, 1.0]),
                    np.array([[-1, 1], [-1, 1]]), "degenerate")
    with pytest.raises(SingularMetricError):
        christoffel(m, False, np.array([0.0, 0.0]), H)
    # r that is not spacelike: g_R fails positivity
    bad_r = MetricField(2, _constant(np.diag([1.0, -1.0])), np.array([1.0, 1.0]),
                        np.array([[-1, 1], [-1, 1]]), "bad-reflection")
    with pytest.raises(SingularMetricError):
        christoffel(bad_r, False, np.array([0.0, 0.0]), H)


def test_a_bad_point_before_one_outside_the_margin_raises_first(capfd):
    # point 0 is singular, point 1 violates the 2h margin: point 0 comes first
    m = MetricField(2, lambda x: _diagonal(x[..., 0], 1.0), np.array([1.0, 1.0]),
                    np.array([[-1, 1], [-1, 1]]), "degenerate")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMetricError, match="not invertible"):
            _stacked_jet(m, [[0.0, 0.0], [0.9995, 0.0]], H)
    assert capfd.readouterr() == ("", "")


def test_a_point_outside_the_margin_raises_unread(capfd):
    # point 0 is good, point 1 violates the 2h margin: only point 0's stencil is read
    base, seen = metric_family("lorentz2d"), []

    def recorded(x):
        seen.append(np.array(x).reshape(-1, 2))
        return base.g(x)

    m = MetricField(2, recorded, base.r_signs, base.domain, "recorded")
    pts = np.array([[0.1, -0.2], [0.5995, 0.0], [0.2, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomainError):
            _stacked_jet(m, pts, H)
    assert len(seen) == 1 and np.array_equal(seen[0], _stencil(pts[:1], H)[0])
    assert capfd.readouterr() == ("", "")


def _nan_beyond_x0(base: MetricField, cut: float) -> MetricField:
    """``base`` with a NaN g_00 wherever x0 > cut: finite at a point below the
    cut, NaN at the stencil point one step above it."""
    def g(x):
        m = base.g(x)
        m[x[..., 0] > cut, 0, 0] = np.nan
        return m

    return MetricField(base.dim, g, base.r_signs, base.domain, "nan_beyond_x0")


@pytest.mark.parametrize("kernel", [
    lambda m, x: christoffel(m, False, x, H),
    lambda m, x: _relation_residual(_jet(m, x, H)),
    lambda m, x: metric_compatibility_residual(m, True, x, H),
    lambda m, x: spin_connection_coeffs(m, x, H),
], ids=["christoffel", "relation", "compatibility", "spin_connection"])
def test_non_finite_metric_rejected(kernel):
    # NaN at the point itself, and NaN only at its stencil point x + h e_0
    for metric in (metric_family("lorentz4d", {"amp": float("nan")}),
                   _nan_beyond_x0(metric_family("lorentz4d"), 0.1 + H / 2)):
        with pytest.raises(SingularMetricError, match="not finite"):
            kernel(metric, np.full(4, 0.1))


def test_a_stack_raises_its_first_bad_point_with_that_point_s_first_failed_check():
    # point 0 fails only the last check (a NaN stencil reading), point 1 the
    # first (a NaN metric at the point): point 0 raises, naming its own check
    metric = _nan_beyond_x0(metric_family("lorentz4d"), 0.1 + H / 2)
    pts = np.array([[0.1, 0.1, 0.1, 0.1], [0.3, 0.1, 0.1, 0.1]])
    with pytest.raises(SingularMetricError, match=r"finite at a stencil point \(sample point 0,"):
        _stacked_jet(metric, pts, H)
    with pytest.raises(SingularMetricError, match=r"finite at the point \(sample point 0,"):
        _stacked_jet(metric, pts[::-1], H)
    # point 1 fails the first check and point 2 a later one (g_R not positive
    # definite): point 1 raises, and no later check reads its NaN matrix
    mixed = MetricField(2, lambda x: _diagonal(np.where(x[..., 1] > 0.3, np.nan, 1.0), x[..., 0]),
                        np.array([1.0, 1.0]), np.array([[-1, 1], [-1, 1]]), "mixed")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMetricError, match=r"finite at the point \(sample point 1,"):
            _stacked_jet(mixed, [[0.5, 0.0], [0.5, 0.5], [-0.5, 0.0]], H)


def test_vielbein_rejects_a_non_finite_metric():
    # both frame guards are false for NaN, so without a finiteness check the
    # frames themselves would come back NaN
    with pytest.raises(SingularMetricError, match="not finite"):
        _frames(metric_family("lorentz4d", {"amp": float("nan")}).g_at(np.full(4, 0.1)))


def test_jet_arrays_are_read_only():
    x = np.array([0.1, -0.2, 0.3, 0.15])
    jet = _jet(metric_family("lorentz4d"), x, H)
    arrays = [value for value in jet if isinstance(value, np.ndarray)]
    assert len(arrays) == 12
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        christoffel(metric_family("lorentz4d"), False, x, H)[0, 0, 0] = 1.0
    # the caller's point is not frozen with the jet's view of it
    x[0] = 0.0
    assert jet.x[0] == 0.1


def test_reflected_christoffel_sign_bookkeeping():
    m = metric_family("lorentz4d")
    x = np.array([0.1, -0.2, 0.3, 0.15])
    base = christoffel(m, False, x, H)
    refl = _reflect(m.r_signs, _jet(m, x, H).gamma)
    s = m.r_signs
    # spot checks of Gamma^{r l}_{m r n} = s_l s_n Gamma^l_{mn}
    assert refl[1, 0, 1] == pytest.approx(s[1] * s[1] * base[1, 0, 1], abs=1e-15)
    assert refl[1, 0, 0] == pytest.approx(s[1] * s[0] * base[1, 0, 0], abs=1e-15)
    assert refl[0, 2, 3] == pytest.approx(s[0] * s[3] * base[0, 2, 3], abs=1e-15)
    # Euclidean reflection is the identity map on the coefficients
    e = metric_family("exp2d")
    xe = np.array([0.1, 0.1])
    assert np.array_equal(
        _reflect(e.r_signs, _jet(e, xe, H).gamma), christoffel(e, False, xe, H)
    )


def test_relat_christos_independent_pipelines():
    # left side at step h, right side rebuilt at step h/2: residual is pure
    # FD truncation, far below 1e-5 on the curved families
    for name in ("exp2d", "conformal2d", "lorentz2d", "lorentz4d"):
        m = metric_family(name)
        rng = np.random.default_rng(1)
        lo = m.domain[:, 0] + 4 * H
        hi = m.domain[:, 1] - 4 * H
        for _ in range(5):
            x = lo + (hi - lo) * rng.uniform(size=m.dim)
            lhs = _reflect(m.r_signs, _jet(m, x, H).gamma)
            gr = christoffel(m, True, x, H / 2)
            grinv = np.linalg.inv(m.g_at(x) * m.r_signs)
            s = m.r_signs
            dg = np.zeros((m.dim, m.dim, m.dim))
            dgr = np.zeros((m.dim, m.dim, m.dim))
            for k in range(m.dim):
                e = np.zeros(m.dim)
                e[k] = H / 2
                dg[k] = (m.g_at(x + e) - m.g_at(x - e)) / H
                dgr[k] = (m.g_at(x + e) * s - m.g_at(x - e) * s) / H
            corr = np.zeros_like(lhs)
            for l in range(m.dim):
                for mu in range(m.dim):
                    for n in range(m.dim):
                        corr[l, mu, n] = 0.5 * sum(
                            grinv[l, k] * (s[n] * dg[n][mu, k] - dgr[n][mu, k])
                            for k in range(m.dim)
                        )
            assert np.max(np.abs(lhs - (gr + corr))) <= 1e-5
            assert _relation_residual(_jet(m, x, H)) <= 1e-5


def test_metric_compatibility():
    m = metric_family("lorentz4d")
    x = np.array([0.1, -0.2, 0.3, 0.15])
    assert metric_compatibility_residual(m, False, x, H) <= 1e-5
    assert metric_compatibility_residual(m, True, x, H) <= 1e-5


def test_reflection_isometry_exact():
    for name in ("flat2d", "lorentz2d", "lorentz4d"):
        m = metric_family(name)
        x = np.zeros(m.dim)
        assert reflection_isometry_residual(m, x) == 0.0
        assert reflection_isometry_residual(m, np.zeros((3, m.dim))) == 0.0


def test_reflection_isometry_over_a_stack_is_its_worst_point():
    # an off-diagonal entry between directions of opposite reflection sign
    # breaks r g r = g by twice its size
    def skew(x):
        m = _diagonal(np.ones(x.shape[:-1]), -1.0)
        m[..., 0, 1] = m[..., 1, 0] = x[..., 0]
        return m

    m = MetricField(2, skew, np.array([1.0, -1.0]), np.array([[-1, 1], [-1, 1]]), "skew")
    pts = np.array([[0.1, 0.0], [0.3, 0.0], [-0.2, 0.0]])
    assert reflection_isometry_residual(m, pts) == max(reflection_isometry_residual(m, x) for x in pts) == 0.6


def test_vielbein_examples():
    flat = MetricField(2, _constant(np.eye(2)), np.array([1.0, 1.0]), np.array([[-1, 1], [-1, 1]]),
                       "flat")
    e, einv = _frames(flat.g_at(np.zeros(2)))
    assert np.array_equal(e, np.eye(2))
    m = MetricField(2, _constant(np.diag([4.0, -9.0])), np.array([1.0, -1.0]),
                    np.array([[-1, 1], [-1, 1]]), "const")
    e, einv = _frames(m.g_at(np.zeros(2)))
    assert np.allclose(e, np.diag([0.5, 1.0 / 3.0]))
    assert np.allclose(einv, np.diag([2.0, 3.0]))


def test_vielbein_joint_orthonormality():
    m = metric_family("lorentz4d")
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = -0.4 + 0.8 * rng.uniform(size=4)
        e, einv = _frames(m.g_at(x))
        g = m.g_at(x)
        gr = g * m.r_signs
        assert np.max(np.abs(e @ g @ e.T - np.diag(m.r_signs))) <= 1e-10
        assert np.max(np.abs(e @ gr @ e.T - np.eye(4))) <= 1e-10
        assert np.max(np.abs(e @ einv.T - np.eye(4))) <= 1e-12


def test_vielbein_rejects_nondiagonal():
    bad = MetricField(
        2,
        _constant([[1.0, 0.3], [0.3, 1.0]]),
        np.array([1.0, 1.0]),
        np.array([[-1, 1], [-1, 1]]),
        "skew",
    )
    with pytest.raises(NonDiagonalMetricError):
        _frames(bad.g_at(np.zeros(2)))


def test_spin_connection_flat_vanishes():
    m = metric_family("flat4d")
    c = spin_connection_coeffs(m, np.zeros(4), H)
    for key in ("Gamma_b_mu_a", "GammaR_b_mu_a", "K_b_mu_a", "refl_frame_b_mu_a"):
        assert np.max(np.abs(c[key])) <= 1e-13


def test_spin_connection_euclidean_k_term_vanishes():
    # r = id makes d_ra = d_a and g = g_R: the bracket collapses to zero
    m = metric_family("conformal2d")
    c = spin_connection_coeffs(m, np.array([0.2, -0.1]), H)
    assert np.max(np.abs(c["K_b_mu_a"])) <= 1e-12


def test_frame_identities_on_curved_lorentz():
    m = metric_family("lorentz4d")
    rng = np.random.default_rng(6)
    s = m.r_signs
    for _ in range(3):
        x = -0.4 + 0.8 * rng.uniform(size=4)
        c = spin_connection_coeffs(m, x, H)
        tilde = s[:, None, None] * c["Gamma_b_mu_a"] * s[None, None, :]
        assert np.max(np.abs(c["refl_frame_b_mu_a"] - tilde)) <= 1e-5
        assert np.max(
            np.abs(c["refl_frame_b_mu_a"] - (c["GammaR_b_mu_a"] + c["K_b_mu_a"]))
        ) <= 1e-5


def test_dirac_flat_constant_spinor():
    m = metric_family("flat4d")
    rep = build_gammas(Signature(1, 3))
    psi0 = np.array([1.0, 2.0, -1j, 0.5])
    psi = SpinorField(_constant(psi0))
    out = dirac_apply_pseudo(m, rep, psi, np.zeros(4), H)
    assert np.linalg.norm(out) <= 1e-13


def test_dirac_plane_wave():
    m = metric_family("flat4d")
    rep = build_gammas(Signature(1, 3))
    k = np.array([0.3, -0.2, 0.5, 0.1])
    psi0 = np.array([1.0, 0.5j, -0.25, 0.125 + 0.3j])
    psi = plane_wave_spinor(k, psi0)
    x = np.array([0.05, 0.1, -0.1, 0.2])
    got = dirac_apply_pseudo(m, rep, psi, x, H)
    want = -sum(k[a] * rep.gammas[a] for a in range(4)) @ psi(x)
    assert np.linalg.norm(got - want) <= 1e-6


def _poly_spinor(dim_spinor, dim_chart, rng):
    """alpha + V x + i/2 (W x)^2, entrywise, and its analytic partials ``grad(x, mu)``."""
    alpha = rng.normal(size=dim_spinor) + 1j * rng.normal(size=dim_spinor)
    v = rng.normal(size=(dim_spinor, dim_chart))
    w = rng.normal(size=(dim_spinor, dim_chart))

    def f(x):
        return alpha + _matvec(v, x) + 0.5j * _matvec(w, x) ** 2

    def g(x, mu):
        return v[:, mu] + 1j * (w @ x) * w[:, mu]

    return SpinorField(f), g


def test_dirac_curved_against_analytic_assembly():
    # conformal 2d metric, polynomial spinor: oracle assembles the operator
    # from closed-form Christoffels and analytic spinor partials
    amp = 0.1
    m = metric_family("conformal2d")
    rep = build_gammas(Signature(2, 0))
    psi, grad = _poly_spinor(2, 2, np.random.default_rng(9))
    x = np.array([0.2, -0.15])
    got = dirac_apply_pseudo(m, rep, psi, x, H)

    dphi = np.array([amp * np.cos(x[0] + 2 * x[1]), 2 * amp * np.cos(x[0] + 2 * x[1])])
    gamma_coord = np.zeros((2, 2, 2))
    for l in range(2):
        for mm in range(2):
            for n in range(2):
                gamma_coord[l, mm, n] = (
                    (l == mm) * dphi[n] + (l == n) * dphi[mm] - (mm == n) * dphi[l]
                )
    phi_val = amp * np.sin(x[0] + 2 * x[1])
    e_diag = np.exp(-phi_val)  # e_a^mu = e^{-phi} delta
    # frame connection: e^b d_mu e_a + e^b Gamma e_a with analytic d e
    de = np.zeros((2, 2, 2))  # de[mu][a,lam]
    for mu in range(2):
        for a in range(2):
            de[mu][a, a] = -dphi[mu] * e_diag
    frame = np.zeros((2, 2, 2))
    for b in range(2):
        for mu in range(2):
            for a in range(2):
                frame[b, mu, a] = (1.0 / e_diag) * de[mu][a, b] + (
                    1.0 / e_diag
                ) * gamma_coord[b, mu, a] * e_diag
    psix = psi(x)
    oracle = np.zeros(2, dtype=complex)
    for mu in range(2):
        nabla = grad(x, mu)
        for a in range(2):
            for b in range(2):
                nabla = nabla + 0.25 * frame[b, mu, a] * (
                    rep.gammas[a] @ rep.gammas[b] @ psix
                )
        oracle = oracle + 1j * e_diag * (rep.gammas[mu] @ nabla)
    assert np.linalg.norm(got - oracle) <= 1e-5

    # Richardson cross-check: halving the step reproduces the same value
    fine = dirac_apply_pseudo(m, rep, psi, x, H / 2)
    richardson = (4.0 * fine - got) / 3.0
    assert np.linalg.norm(richardson - fine) <= np.linalg.norm(got - fine) + 1e-12


def test_dirac_decomposition_flat():
    m = metric_family("flat4d")
    rep = build_gammas(Signature(1, 3))
    ops = build_structural(rep)
    psi = trig_spinor(4, 4, np.random.default_rng(5))
    res, sgn = dirac_decomposition_check(m, rep, ops, psi, np.zeros(4), H)
    assert res <= 1e-12
    assert sgn == -1


def test_dirac_decomposition_euclidean():
    m = metric_family("conformal2d")
    rep = build_gammas(Signature(2, 0))
    ops = build_structural(rep)
    psi = trig_spinor(2, 2, np.random.default_rng(8))
    res, sgn = dirac_decomposition_check(m, rep, ops, psi, np.array([0.1, 0.2]), H)
    assert res <= 1e-5
    assert sgn == -1


def test_dirac_decomposition_curved_lorentz():
    m = metric_family("lorentz4d")
    rep = build_gammas(Signature(1, 3))
    ops = build_structural(rep)
    psi = trig_spinor(4, 4, np.random.default_rng(5))
    signs = set()
    pts = [
        np.array([0.1, -0.2, 0.3, 0.15]),
        np.array([-0.3, 0.1, -0.1, 0.4]),
        np.array([0.25, 0.3, 0.2, -0.35]),
    ]
    for x in pts:
        res, sgn = dirac_decomposition_check(m, rep, ops, psi, x, H)
        assert res <= 1e-4
        signs.add(sgn)
    assert signs == {-1}


def test_a_nan_spinor_value_fails_only_its_point_of_a_stack():
    m = metric_family("lorentz4d")
    rep = build_gammas(Signature(1, 3))
    ops = build_structural(rep)
    trig = trig_spinor(4, 4, np.random.default_rng(5))
    pts = np.array([[0.1, -0.2, 0.3, 0.15], [-0.3, 0.1, -0.1, 0.4], [0.25, 0.3, 0.2, -0.35]])
    psi = SpinorField(lambda x: np.where(np.all(x == pts[1], axis=-1)[..., None], np.nan, trig(x)))
    got = _dirac_decompositions(m, rep, ops, psi, pts, H)
    assert np.isnan(got[1][0])
    for i in (0, 2):
        assert got[i] == dirac_decomposition_check(m, rep, ops, trig, pts[i], H)


def test_fd_convergence_ratio_second_order():
    m = metric_family("exp2d")
    ratio = fd_convergence_ratio(m, np.array([0.1, -0.2]), H)
    assert 3.5 <= ratio <= 4.5
