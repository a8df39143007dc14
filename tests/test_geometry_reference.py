"""The geometry kernels against loop-wise references, bit for bit.

The references below are the index loops the kernels were first written
as: one scalar (or vector) operation per tensor entry, in loop order.  The
kernels contract whole arrays instead, and must give exactly the same
floating-point results, at several points and two steps of every metric
family, plus non-diagonal metrics for the kernels that accept them.  A
stacked jet over several points, and the connection, Dirac assembly and
Dirac decomposition over it, must equal the references point by point too.
The jet's stacked steps (one frames call over g and its stencil readings,
one inverse and one Levi-Civita call over g and g_R) hold the bits of the
separate calls they replace.
The fields themselves read a stack of points with the bits of one reading
per point.
"""

from functools import partial

import numpy as np
import pytest

from kreintwist import geometry
from kreintwist.clifford import Signature, build_gammas, build_structural
from kreintwist.geometry import (
    FAMILY_PARAMS,
    MetricField,
    SingularMetricError,
    _compatibility_residual,
    _connection,
    _dirac_decompositions,
    _dirac_sum,
    _frames,
    _jet,
    _jet_frames,
    _levi_civita,
    _relation_residual,
    _spinor_jet,
    _stacked_jet,
    _stencil,
    christoffel,
    dirac_apply_pseudo,
    dirac_decomposition_check,
    metric_compatibility_residual,
    metric_family,
    plane_wave_spinor,
    spin_connection_coeffs,
    trig_spinor,
)

STEPS = (1e-3, 1e-2)


def gR_at(metric, x):
    """g_R = g r at x."""
    return metric.g_at(x) * metric.r_signs[None, :]


def ref_metric_derivatives(metric, x, h, use_gR):
    read = partial(gR_at, metric) if use_gR else metric.g_at
    dim = metric.dim
    dg = np.zeros((dim, dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        dg[k] = (read(x + e) - read(x - e)) / (2.0 * h)
    return dg


def ref_christoffel(metric, use_gR, x, h):
    g = gR_at(metric, x) if use_gR else metric.g_at(x)
    ginv = np.linalg.inv(g)
    dg = ref_metric_derivatives(metric, x, h, use_gR)
    dim = metric.dim
    gamma = np.zeros((dim, dim, dim))
    for l in range(dim):
        for m in range(dim):
            for n in range(dim):
                s = 0.0
                for k in range(dim):
                    s += ginv[l, k] * (dg[m][n, k] + dg[n][m, k] - dg[k][m, n])
                gamma[l, m, n] = 0.5 * s
    return gamma


def ref_reflected(metric, x, h):
    s = metric.r_signs
    return s[:, None, None] * ref_christoffel(metric, False, x, h) * s[None, None, :]


def ref_relation(metric, x, h):
    lhs = ref_reflected(metric, x, h)
    gr = ref_christoffel(metric, True, x, h)
    grinv = np.linalg.inv(gR_at(metric, x))
    dg = ref_metric_derivatives(metric, x, h, False)
    dgr = ref_metric_derivatives(metric, x, h, True)
    s = metric.r_signs
    dim = metric.dim
    corr = np.zeros((dim, dim, dim))
    for l in range(dim):
        for m in range(dim):
            for n in range(dim):
                acc = 0.0
                for k in range(dim):
                    acc += grinv[l, k] * (s[n] * dg[n][m, k] - dgr[n][m, k])
                corr[l, m, n] = 0.5 * acc
    return float(np.max(np.abs(lhs - (gr + corr))))


def ref_compatibility(metric, use_gR, x, h):
    g = gR_at(metric, x) if use_gR else metric.g_at(x)
    gamma = ref_christoffel(metric, use_gR, x, h)
    dg = ref_metric_derivatives(metric, x, h, use_gR)
    dim = metric.dim
    worst = 0.0
    for n in range(dim):
        for m in range(dim):
            for k in range(dim):
                v = dg[n][m, k] - np.dot(gamma[:, n, m], g[:, k]) - np.dot(gamma[:, n, k], g[m, :])
                worst = max(worst, abs(float(v)))
    return worst


def ref_vielbein(metric, x):
    d = np.abs(np.diag(metric.g_at(x)))
    return np.diag(1.0 / np.sqrt(d)), np.diag(np.sqrt(d))


def ref_spin_connection(metric, x, h):
    dim = metric.dim
    e, einv = ref_vielbein(metric, x)
    de = np.zeros((dim, dim, dim))
    dei = np.zeros((dim, dim, dim))
    for mu in range(dim):
        step = np.zeros(dim)
        step[mu] = h
        ep, eip = ref_vielbein(metric, x + step)
        em, eim = ref_vielbein(metric, x - step)
        de[mu] = (ep - em) / (2.0 * h)
        dei[mu] = (eip - eim) / (2.0 * h)
    gam_refl = ref_reflected(metric, x, h)
    dg = ref_metric_derivatives(metric, x, h, False)
    dgr = ref_metric_derivatives(metric, x, h, True)
    ginv = np.linalg.inv(metric.g_at(x))
    s = metric.r_signs

    def frame_convert(gamma_coord):
        out = np.zeros((dim, dim, dim))
        for b in range(dim):
            for mu in range(dim):
                for a in range(dim):
                    acc = np.dot(einv[b, :], de[mu][a, :])
                    acc += einv[b, :] @ gamma_coord[:, mu, :] @ e[a, :]
                    out[b, mu, a] = acc
        return out

    refl = np.zeros((dim, dim, dim))
    k_term = np.zeros((dim, dim, dim))
    for b in range(dim):
        gb_row = einv[b, :] @ ginv
        for mu in range(dim):
            for a in range(dim):
                acc = e[a, :] @ gam_refl[:, mu, :].T @ einv[b, :]
                acc -= np.dot(e[a, :], dei[mu][b, :])
                refl[b, mu, a] = acc
                da_g = s[a] * np.einsum("n,nk->k", e[a, :], dg[:, mu, :])
                da_gr = np.einsum("n,nk->k", e[a, :], dgr[:, mu, :])
                k_term[b, mu, a] = s[b] * (0.5 * np.dot(gb_row, da_g - da_gr) - 0.0)
    return {
        "Gamma_b_mu_a": frame_convert(ref_christoffel(metric, False, x, h)),
        "GammaR_b_mu_a": frame_convert(ref_christoffel(metric, True, x, h)),
        "K_b_mu_a": k_term,
        "refl_frame_b_mu_a": refl,
    }


def ref_dirac_sum(psi, x, h, e, conn, left, right, unit):
    dim = len(x)
    psix = psi(x)
    out = np.zeros_like(psix)
    for mu in range(dim):
        step = np.zeros_like(x)
        step[mu] = h
        nabla = (psi(x + step) - psi(x - step)) / (2.0 * h)
        for a in range(dim):
            for b in range(dim):
                c = conn[b, mu, a]
                if c != 0.0:
                    nabla = nabla + 0.25 * c * (left[a] @ right[b] @ psix)
        gamma_mu = sum(e[a, mu] * left[a] for a in range(dim))
        if unit == 1j:
            out = out + 1j * (gamma_mu @ nabla)
        else:
            out = out - 1j * (gamma_mu @ nabla)
    return out


def ref_dirac_pseudo(metric, rep, psi, x, h):
    coeffs = ref_spin_connection(metric, x, h)
    e, _ = ref_vielbein(metric, x)
    right = [metric.r_signs[b] * rep.gammas[b] for b in range(metric.dim)]
    return ref_dirac_sum(psi, x, h, e, coeffs["Gamma_b_mu_a"], rep.gammas, right, 1j)


def ref_decomposition(metric, rep, ops, psi, x, h):
    coeffs = ref_spin_connection(metric, x, h)
    lhs = ops.K @ ref_dirac_pseudo(metric, rep, psi, x, h)
    gt = [ops.K @ g for g in rep.gammas]
    e, _ = ref_vielbein(metric, x)
    conn = coeffs["GammaR_b_mu_a"] + coeffs["K_b_mu_a"]
    rhs = ref_dirac_sum(psi, x, h, e, conn, gt, gt, -1j)
    r_plus = float(np.linalg.norm(lhs - rhs))
    r_minus = float(np.linalg.norm(lhs + rhs))
    return (r_minus, -1) if r_minus <= r_plus else (r_plus, +1)


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.result_type(a, np.float64)).tobytes()


def _points(metric, count=10):
    rng = np.random.default_rng(len(metric.name) + 10 * metric.dim)
    lo = metric.domain[:, 0] + 0.1
    hi = metric.domain[:, 1] - 0.1
    return [np.zeros(metric.dim)] + [lo + (hi - lo) * rng.uniform(size=metric.dim)
                                     for _ in range(count - 1)]


def _matrix(rows) -> np.ndarray:
    """The matrix with entries rows[m][n] at each point, the entries broadcast
    over the point axes."""
    flat = np.stack(np.broadcast_arrays(*(entry for row in rows for entry in row)), axis=-1)
    return flat.reshape(flat.shape[:-1] + (len(rows), len(rows)))


def _nondiagonal_metrics():
    """Symmetric non-diagonal fields on which every component moves with every
    coordinate: Euclidean in 2d, Lorentzian in 4d with r g r = g.  Both read
    a stack of points, like the families."""
    def g2(x):
        u = 0.9 * x[..., 0] - 0.6 * x[..., 1]
        c = 0.3 * np.cos(u)
        return _matrix([[1.0 + 0.2 * np.sin(x[..., 0] + x[..., 1]), c], [c, 1.2 + 0.1 * u ** 2]])

    def g4(x):
        u = np.vecdot(x, np.array([1.0, -0.7, 0.4, 0.9]))
        v = np.vecdot(x, np.array([0.3, 0.8, -0.6, 0.5]))
        a, b, c = 0.2 * np.sin(u), 0.15 * np.cos(v), 0.1 * np.sin(u + v)
        return _matrix([[1.2 + 0.1 * np.sin(v), 0.0, 0.0, 0.0],
                        [0.0, -(1.5 + 0.1 * np.cos(u)), a, b],
                        [0.0, a, -(1.6 + 0.1 * np.sin(u - v)), c],
                        [0.0, b, c, -(1.7 + 0.1 * u * v)]])

    box2 = np.array([[-0.6, 0.6]] * 2)
    box4 = np.array([[-0.6, 0.6]] * 4)
    return [MetricField(2, g2, np.array([1.0, 1.0]), box2, "skew2d"),
            MetricField(4, g4, np.array([1.0, -1.0, -1.0, -1.0]), box4, "skew4d")]


ALL_METRICS = [metric_family(name) for name in FAMILY_PARAMS] + _nondiagonal_metrics()


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
@pytest.mark.parametrize("h", STEPS)
def test_christoffel_relation_and_compatibility_match_loops(metric, h):
    for x in _points(metric):
        for use_gR in (False, True):
            got = christoffel(metric, use_gR, x, h)
            assert bits(got) == bits(ref_christoffel(metric, use_gR, x, h))
            got = metric_compatibility_residual(metric, use_gR, x, h)
            assert bits(got) == bits(ref_compatibility(metric, use_gR, x, h))
        assert bits(_relation_residual(_jet(metric, x, h))) == bits(ref_relation(metric, x, h))


@pytest.mark.parametrize("name", tuple(FAMILY_PARAMS))
@pytest.mark.parametrize("h", STEPS)
def test_spin_connection_and_dirac_match_loops(name, h):
    metric = metric_family(name)
    rep = build_gammas(Signature(1, metric.dim - 1))
    ops = build_structural(rep)
    psi = trig_spinor(rep.dim, metric.dim, np.random.default_rng(5))
    for x in _points(metric):
        got = spin_connection_coeffs(metric, x, h)
        want = ref_spin_connection(metric, x, h)
        assert sorted(got) == sorted(want)
        for key in want:
            assert bits(got[key]) == bits(want[key]), key
        assert bits(dirac_apply_pseudo(metric, rep, psi, x, h)) == bits(
            ref_dirac_pseudo(metric, rep, psi, x, h))
        res, sign = dirac_decomposition_check(metric, rep, ops, psi, x, h)
        want_value, want_sign = ref_decomposition(metric, rep, ops, psi, x, h)
        assert (bits(res), sign) == (bits(want_value), want_sign)


@pytest.mark.parametrize("name", tuple(FAMILY_PARAMS))
@pytest.mark.parametrize("h", STEPS)
def test_a_stacked_jet_matches_the_loops_point_by_point(name, h):
    metric = metric_family(name)
    pts = _points(metric, 5)
    jet = _stacked_jet(metric, pts, h)
    relation = _relation_residual(jet)
    compatibility = {use_gR: _compatibility_residual(jet, use_gR) for use_gR in (False, True)}
    connection = _connection(jet, _jet_frames(jet))
    for i, x in enumerate(pts):
        assert bits(jet.gamma[i]) == bits(ref_christoffel(metric, False, x, h))
        assert bits(jet.gammaR[i]) == bits(ref_christoffel(metric, True, x, h))
        assert bits(relation[i]) == bits(ref_relation(metric, x, h))
        for use_gR, values in compatibility.items():
            assert bits(values[i]) == bits(ref_compatibility(metric, use_gR, x, h))
        want = ref_spin_connection(metric, x, h)
        assert sorted(connection) == sorted(want)
        for key in want:
            assert bits(connection[key][i]) == bits(want[key]), key
        # a one-point stack holds the jet of the point alone, and so does the stack
        one, alone = _stacked_jet(metric, [x], h), _jet(metric, x, h)
        assert one.x.shape == (1, metric.dim)
        for field in jet._fields:
            want = bits(getattr(alone, field))
            if field in ("h", "s"):
                assert bits(getattr(one, field)) == bits(getattr(jet, field)) == want, field
            else:
                assert bits(getattr(one, field)[0]) == bits(getattr(jet, field)[i]) == want, field


@pytest.mark.parametrize("name", tuple(FAMILY_PARAMS))
@pytest.mark.parametrize("h", STEPS)
def test_a_stacked_decomposition_matches_the_point_checks(name, h):
    metric = metric_family(name)
    rep = build_gammas(Signature(1, metric.dim - 1))
    ops = build_structural(rep)
    psi = trig_spinor(rep.dim, metric.dim, np.random.default_rng(5))
    pts = _points(metric, 5)
    got = [(bits(res), sign) for res, sign in _dirac_decompositions(metric, rep, ops, psi, pts, h)]
    for (res, sign), x in zip(got, pts):
        want_value, want_sign = dirac_decomposition_check(metric, rep, ops, psi, x, h)
        assert (res, sign) == (bits(want_value), want_sign)
        want_value, want_sign = ref_decomposition(metric, rep, ops, psi, x, h)
        assert (res, sign) == (bits(want_value), want_sign)
    assert len(got) == len(pts)


@pytest.mark.parametrize("name", tuple(FAMILY_PARAMS))
@pytest.mark.parametrize("h", STEPS)
def test_a_stacked_dirac_assembly_matches_the_loops_point_by_point(name, h):
    metric = metric_family(name)
    rep = build_gammas(Signature(1, metric.dim - 1))
    ops = build_structural(rep)
    psi = trig_spinor(rep.dim, metric.dim, np.random.default_rng(5))
    pts = _points(metric, 5)
    jet = _stacked_jet(metric, pts, h)
    frames = _jet_frames(jet)
    coeffs, e = _connection(jet, frames), frames[0]
    lowered = [metric.r_signs[b] * rep.gammas[b] for b in range(metric.dim)]
    gt = [ops.K @ g for g in rep.gammas]
    sides = ((coeffs["Gamma_b_mu_a"], rep.gammas, lowered, 1j),  # pseudo
             (coeffs["GammaR_b_mu_a"] + coeffs["K_b_mu_a"], gt, gt, -1j))  # reflected
    for conn, left, right, unit in sides:
        got = _dirac_sum(*_spinor_jet(psi, jet.x, h), e, conn, left, right, unit)
        assert got.shape == (len(pts), rep.dim)
        for i, x in enumerate(pts):
            assert bits(got[i]) == bits(ref_dirac_sum(psi, x, h, e[i], conn[i], left, right, unit))


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
@pytest.mark.parametrize("h", STEPS)
def test_a_metric_reads_a_stencil_stack_as_its_points(metric, h):
    stack = _stencil(np.array(_points(metric, 5)), h)
    assert stack.shape == (5, 1 + 2 * metric.dim, metric.dim)
    got = metric.g_at(stack)
    for i, j in np.ndindex(stack.shape[:2]):
        assert bits(got[i, j]) == bits(metric.g_at(stack[i, j])), (i, j)


@pytest.mark.parametrize("dim", (2, 4))
@pytest.mark.parametrize("h", STEPS)
def test_a_spinor_reads_a_stencil_stack_as_its_points(dim, h):
    rng = np.random.default_rng(dim)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    stack = _stencil(np.array(_points(metric_family(f"flat{dim}d"), 5)), h)
    assert stack.shape == (5, 1 + 2 * dim, dim)
    for psi in (trig_spinor(dim, dim, rng), plane_wave_spinor(rng.normal(size=dim), psi0)):
        got = psi(stack)
        for i, j in np.ndindex(stack.shape[:2]):
            assert bits(got[i, j]) == bits(psi(stack[i, j])), (i, j)


def _one_point_and_stacked_jets(metric, h):
    """The jets of one point and of five points of ``metric``."""
    pts = _points(metric, 5)
    return _jet(metric, pts[1], h), _stacked_jet(metric, pts, h)


@pytest.mark.parametrize("name", tuple(FAMILY_PARAMS))
@pytest.mark.parametrize("h", STEPS)
def test_one_frames_call_holds_the_bits_of_three(name, h, monkeypatch):
    calls = []
    frames = geometry._frames
    monkeypatch.setattr(geometry, "_frames", lambda g: calls.append(g.shape) or frames(g))
    for jet in _one_point_and_stacked_jets(metric_family(name), h):
        (e, einv), up, down = frames(jet.g), frames(jet.up), frames(jet.down)
        want = (e, einv, (up[0] - down[0]) / (2.0 * h), (up[1] - down[1]) / (2.0 * h))
        got = _jet_frames(jet)
        assert [bits(a) for a in got] == [bits(a) for a in want]
        assert [a.shape for a in got] == [a.shape for a in want]
    assert len(calls) == 2  # one per jet


@pytest.mark.parametrize("name", tuple(FAMILY_PARAMS))
@pytest.mark.parametrize("h", STEPS)
def test_the_stacked_inverse_and_levi_civita_hold_the_bits_of_two_calls(name, h):
    for jet in _one_point_and_stacked_jets(metric_family(name), h):
        ginv, gRinv = np.linalg.inv(jet.g), np.linalg.inv(jet.gR)
        assert (bits(jet.ginv), bits(jet.gRinv)) == (bits(ginv), bits(gRinv))
        assert bits(jet.gamma) == bits(_levi_civita(ginv, jet.dg))
        assert bits(jet.gammaR) == bits(_levi_civita(gRinv, jet.dgR))


def _skewed(metric, skew, where=None):
    """``metric`` with ``skew`` added to g_01 alone, at every point or at the
    point ``where`` only: g is no longer exactly symmetric there."""
    def g(x):
        m = metric.g(x)
        m[..., 0, 1] += skew if where is None else np.where((x == where).all(axis=-1), skew, 0.0)
        return m

    return MetricField(metric.dim, g, metric.r_signs, metric.domain, f"skewed_{metric.name}")


@pytest.mark.parametrize("name", tuple(FAMILY_PARAMS))
@pytest.mark.parametrize("h", STEPS)
def test_a_metric_symmetric_within_the_bound_passes_and_one_beyond_it_fails(name, h):
    metric = metric_family(name)
    pts = _points(metric, 5)
    near = _skewed(metric, 4e-13)  # |g - g^T| = 4e-13: the norm decides, and passes
    for jet in (_jet(near, pts[1], h), _stacked_jet(near, pts, h)):
        assert not np.array_equal(jet.g, np.swapaxes(jet.g, -1, -2))
    far = _skewed(metric, 1e-9, where=pts[2])
    _stacked_jet(far, pts[:2], h)  # exact equality decides the points before
    with pytest.raises(SingularMetricError, match=r"metric components not symmetric \(sample point 2, "):
        _stacked_jet(far, pts, h)
    with pytest.raises(SingularMetricError, match=r"metric components not symmetric \(sample point 0, "):
        _jet(far, pts[2], h)
