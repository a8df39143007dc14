"""Chart-level pseudo-Riemannian geometry checked by central differences.

Metrics are diagonal component functions on an axis-aligned box, together
with a constant diagonal spacelike reflection r making g_R = g(., r .)
positive definite.  Both field callables, the metric components and the
spinor, take a stack of points (..., dim) and return one value per point,
so a sample set and its stencil points are read in one call; a single
point is the stack without leading axes.  Every kernel reads one metric
jet per sample set (``_stacked_jet``), each array with a leading point
axis: g and g_R with their inverses, one second-order central-difference
sweep of g (default step 1e-3), from which the g_R sweep follows exactly,
and the Levi-Civita coefficients of both.  Its arrays are read-only, so a
suite's family context builds one jet over its sample points and every row
shares it; the public ``(metric, x, h)`` kernels read the jet of a
one-point stack (``_jet``).  Christoffel symbols and frame connection
coefficients are array contractions over the jet, with or without the
point axis.  The spinor is read into its own jet (``_spinor_jet``: its
values and central differences over the same points), and ``_dirac_sum``
assembles the first-order Dirac operator over the point axis, once per
side of the ``D -> KD`` decomposition; a one-point stack serves the public
kernels.  Every identity check inherits an O(h^2) error floor.

Index conventions (0-based):
    christoffel()[l, m, n]      Gamma^l_{mn}
    reflected s_l s_n Gamma^l_{mn} implements nabla_m d_{rn} = ... d_{rl}
    frame coefficients carry [b, mu, a] for Gamma^b_{mu a}
The reflected frame derivative is d_{ra} = g_a e_a^nu d_nu, and the sign
g_a of a frame direction equals the reflection sign of the aligned
coordinate (diagonal metrics only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .clifford import CliffordRep
from .linalg import norm_within
from .linalg import _worst  # the one NaN-propagating maximum

__all__ = [
    "OutOfDomainError",
    "SingularMetricError",
    "NonDiagonalMetricError",
    "MetricField",
    "SpinorField",
    "metric_family",
    "FAMILY_PARAMS",
    "christoffel",
    "metric_compatibility_residual",
    "reflection_isometry_residual",
    "spin_connection_coeffs",
    "dirac_apply_pseudo",
    "dirac_decomposition_check",
    "plane_wave_spinor",
    "trig_spinor",
    "fd_convergence_ratio",
]


class OutOfDomainError(ValueError):
    """Evaluation point too close to (or outside) the chart boundary."""


class SingularMetricError(ValueError):
    """Metric not invertible, or g_R not positive definite, at the point."""


class NonDiagonalMetricError(ValueError):
    """Vielbein extraction is implemented for diagonal metrics only."""


@dataclass(frozen=True)
class MetricField:
    """Diagonal metric component field with a constant spacelike reflection.

    ``g`` maps a point or a stack of points (..., dim) to the components
    there (..., dim, dim), one matrix per point: it indexes ``x[..., k]``,
    so one call reads a whole sample set."""

    dim: int
    g: Callable[[np.ndarray], np.ndarray]
    r_signs: np.ndarray
    domain: np.ndarray  # shape (dim, 2), axis-aligned box
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "r_signs", np.asarray(self.r_signs, dtype=float))
        object.__setattr__(self, "domain", np.asarray(self.domain, dtype=float))
        if self.r_signs.shape != (self.dim,):
            raise ValueError("one reflection sign per direction required")
        if not np.all(np.abs(self.r_signs) == 1.0):
            raise ValueError("reflection signs must be +-1")
        d = self.domain
        if d.shape != (self.dim, 2) or not (np.isfinite(d).all() and np.all(d[:, 0] < d[:, 1])):
            raise ValueError("domain must hold one finite interval lo < hi per direction, shape (dim, 2)")

    def g_at(self, x) -> np.ndarray:
        """g at the point x, or at every point of a stack x (..., dim)."""
        x = np.asarray(x, dtype=float)
        m = np.asarray(self.g(x), dtype=float)
        if m.shape != x.shape[:-1] + (self.dim, self.dim):
            raise ValueError("metric component function returned a wrong shape")
        return m

    def validate(self, x: np.ndarray, readings: np.ndarray) -> None:
        """Raise ``SingularMetricError`` for the first point of the stack x
        whose readings fail a check, naming the first check it fails.

        readings[i, 0] is g at x_i and readings[i, 1:] g at its stencil
        points.  A point's checks run in order: g finite, symmetric,
        invertible, g_R = g r positive definite, every stencil reading
        finite.  Each check reads only the points before the first that
        failed one so far, all of which passed every earlier check, so det
        and eigvalsh see finite matrices alone."""
        s = self.r_signs

        def symmetric(g, _):  # exact equality decides; only the other points are normed
            ok = (g == np.swapaxes(g, -1, -2)).all(axis=(-2, -1))
            if not ok.all():
                ok[~ok] = norm_within(g[~ok] - np.swapaxes(g[~ok], -1, -2), 1e-12)
            return ok

        checks = (
            (lambda g, _: np.isfinite(g).all(axis=(-2, -1)), "metric components not finite at the point"),
            (symmetric, "metric components not symmetric"),
            (lambda g, _: ~(np.abs(np.linalg.det(g)) < 1e-10), "metric not invertible at the point"),
            (lambda g, _: ~(np.min(np.linalg.eigvalsh((g * s + np.swapaxes(g * s, -1, -2)) / 2), axis=-1) < 1e-8),
             "g_R not positive definite: r is not spacelike here"),
            (lambda _, sweep: np.isfinite(sweep).all(axis=(-3, -2, -1)),
             "metric components not finite at a stencil point"),
        )
        stop, failed = len(x), None  # the first failing point so far, and its failed check
        for passes, message in checks:
            ok = passes(readings[:stop, 0], readings[:stop])
            if not ok.all():
                stop, failed = int(np.argmin(ok)), message
                if not stop:
                    break
        if failed:
            raise SingularMetricError(f"{failed} (sample point {stop}, {x[stop].tolist()})")


def _box(dim: int, lo: float, hi: float) -> np.ndarray:
    return np.array([[lo, hi]] * dim, dtype=float)


def _diagonal(*entries) -> np.ndarray:
    """diag(entries) at each point: the entries broadcast over the point
    axes, exact zeros off the diagonal."""
    out = np.zeros(np.broadcast_shapes(*map(np.shape, entries)) + (len(entries),) * 2)
    for k, entry in enumerate(entries):
        out[..., k, k] = entry
    return out


def metric_family(name: str, params: Optional[dict] = None) -> MetricField:
    """Named diagonal test families, each evaluated over a stack of points.

    flat2d / flat4d   constant diag(1, -1, ..., -1)
    exp2d             diag(exp(2 x0), 1), closed-form Gamma^0_00 = 1
    conformal2d       exp(2 phi) * I2 with phi = amp * sin(x0 + 2 x1)
    lorentz2d         diag(1 + amp sin(x0+x1), -(1 + amp cos(x0-x1)))
    lorentz4d         diag(1 + amp sin(x0+x1), -(1 + amp cos x1), -1,
                           -(1 + amp x3^2))
    """
    params = dict(params or {})
    amp = float(params.get("amp", 0.1))

    if name in ("flat2d", "flat4d"):
        dim = 2 if name == "flat2d" else 4
        signs = np.array((1.0,) + (-1.0,) * (dim - 1))
        const = np.diag(signs)
        return MetricField(dim, lambda x: np.broadcast_to(const, x.shape[:-1] + const.shape).copy(),
                           signs, _box(dim, -0.6, 0.6), name)
    if name == "exp2d":
        def g(x):
            return _diagonal(np.exp(2.0 * x[..., 0]), 1.0)
        return MetricField(2, g, np.array([1.0, 1.0]), _box(2, -0.6, 0.6), name)
    if name == "conformal2d":
        def g(x):
            phi = amp * np.sin(x[..., 0] + 2.0 * x[..., 1])
            return np.exp(2.0 * phi)[..., None, None] * np.eye(2)
        return MetricField(2, g, np.array([1.0, 1.0]), _box(2, -0.6, 0.6), name)
    if name == "lorentz2d":
        def g(x):
            return _diagonal(1.0 + amp * np.sin(x[..., 0] + x[..., 1]),
                             -(1.0 + amp * np.cos(x[..., 0] - x[..., 1])))
        return MetricField(2, g, np.array([1.0, -1.0]), _box(2, -0.6, 0.6), name)
    if name == "lorentz4d":
        def g(x):
            return _diagonal(
                1.0 + amp * np.sin(x[..., 0] + x[..., 1]),
                -(1.0 + amp * np.cos(x[..., 1])),
                -1.0,
                -(1.0 + amp * x[..., 3] ** 2),
            )
        return MetricField(4, g, np.array([1.0, -1.0, -1.0, -1.0]), _box(4, -0.6, 0.6), name)
    raise KeyError(f"unknown metric family '{name}'")


# the scalar parameters each family reads
FAMILY_PARAMS = {"flat2d": (), "flat4d": (), "exp2d": (),
                 "conformal2d": ("amp",), "lorentz2d": ("amp",), "lorentz4d": ("amp",)}


class _Jet(NamedTuple):
    """The jet of a sample set, every array but the reflection signs s with
    a leading point axis i: the validated points x, g and
    g_R = g r there with their inverses, one central-difference sweep
    (up[i, k] and down[i, k] are g at x_i + h e_k and x_i - h e_k,
    dg[i, k, m, n] = d_k g_{mn}, dgR[i, k, m, n] = d_k gR_{mn}), and the
    Levi-Civita coefficients gamma of g and gammaR of g_R.  ``at(i)`` is the
    jet of point i alone, without the axis.  Every array is read-only, so the
    rows that share a jet cannot change each other's operands."""

    x: np.ndarray
    h: float
    s: np.ndarray
    g: np.ndarray
    gR: np.ndarray
    ginv: np.ndarray
    gRinv: np.ndarray
    up: np.ndarray
    down: np.ndarray
    dg: np.ndarray
    dgR: np.ndarray
    gamma: np.ndarray
    gammaR: np.ndarray

    def side(self, use_gR: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(metric, derivatives, Levi-Civita coefficients) of g, or of g_R."""
        return (self.gR, self.dgR, self.gammaR) if use_gR else (self.g, self.dg, self.gamma)

    def at(self, i: int) -> "_Jet":
        """The jet of point i of the stack."""
        return _Jet(self.x[i], self.h, self.s, *(a[i] for a in self[3:]))


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; the caller's own array stays writeable."""
    view = a.view()
    view.flags.writeable = False
    return view


def _stencil(x: np.ndarray, h: float) -> np.ndarray:
    """The stencil of each point of the stack x, shape (n, 1 + 2 dim, dim):
    [x_i, x_i + h e_0, ..., x_i + h e_{dim-1}, x_i - h e_0, ..., x_i - h e_{dim-1}]."""
    steps = h * np.eye(x.shape[-1])
    return np.concatenate([x[:, None], x[:, None] + steps, x[:, None] - steps], axis=1)


def _stacked_jet(metric: MetricField, points, h: float) -> _Jet:
    """The jet over ``points``: one reading of g at every point and its
    2 dim stencil points, validated as a stack (``MetricField.validate``);
    inverses, differences and coefficients are taken for the stack.

    g is read only inside the 2h margin.  If point j is the first outside
    it, the points before j are read and validated first, so the first bad
    point in sample order raises what its own jet would."""
    x = np.array(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != metric.dim:
        raise ValueError("point has wrong dimension")
    lo, hi = metric.domain[:, 0], metric.domain[:, 1]
    outside = np.any(x - 2 * h < lo, axis=1) | np.any(x + 2 * h > hi, axis=1)
    if outside.any():
        j = int(np.argmax(outside))
        if j:
            _stacked_jet(metric, x[:j], h)
        raise OutOfDomainError(f"point {x[j]} violates the 2h margin of {metric.domain.tolist()}")
    readings = metric.g_at(_stencil(x, h))
    metric.validate(x, readings)
    dim, s = metric.dim, metric.r_signs
    g, up, down = readings[:, 0], readings[:, 1:dim + 1], readings[:, dim + 1:]
    gR = g * s
    try:
        inverses = np.linalg.inv(np.stack((g, gR)))  # one matrix at a time: the bits of two calls
    except np.linalg.LinAlgError as exc:  # pragma: no cover - validate guards
        raise SingularMetricError(str(exc)) from exc
    dg = (up - down) / (2.0 * h)
    dgR = (up * s - down * s) / (2.0 * h)  # differences of g_R = g r readings, signed zeros too
    gamma, gammaR = _levi_civita(inverses, np.stack((dg, dgR)))
    x, s, *arrays = map(_read_only, (x, s, g, gR, *inverses, up, down, dg, dgR, gamma, gammaR))
    return _Jet(x, h, s, *arrays)


def _jet(metric: MetricField, x, h: float) -> _Jet:
    """The jet of the point x: the one-point stack's, without the point axis."""
    return _stacked_jet(metric, [x], h).at(0)


def _raise_last(ginv: np.ndarray, t: np.ndarray) -> np.ndarray:
    """out[..., l, m, n] = sum_k ginv[..., l, k] t[..., m, n, k], added in k
    order like an entrywise loop."""
    return sum(ginv[..., :, k, None, None] * t[..., None, :, :, k] for k in range(ginv.shape[-1]))


def _levi_civita(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^l_{mn} = 1/2 g^{lk} (d_m g_{nk} + d_n g_{mk} - d_k g_{mn})."""
    return 0.5 * _raise_last(ginv, dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1))


def _reflect(s: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """s_l gamma[l, m, n] s_n."""
    return s[:, None, None] * gamma * s[None, None, :]


def christoffel(metric: MetricField, use_gR: bool, x, h: float = 1e-3) -> np.ndarray:
    """Levi-Civita coefficients [l, m, n] = Gamma^l_{mn} of g (or g_R) from
    second-order stencils, as a read-only array."""
    return _jet(metric, x, h).side(use_gR)[2]


def _largest(a: np.ndarray):
    """max |a| over the last three axes: one value per point of a stack."""
    return np.max(np.abs(a), axis=(-3, -2, -1))


def _relation_residual(jet: _Jet):
    """Reflected coefficients against the g_R ones plus the FD correction term,
    per point.

    Gamma^{rl}_{m rn} = Gamma_R^l_{mn} + 1/2 gR^{lk} (d_{rn} g_{mk} - d_n gR_{mk})
    with d_{rn} = s_n d_n.
    """
    s = jet.s
    bracket = s[:, None] * np.swapaxes(jet.dg, -3, -2) - np.swapaxes(jet.dgR, -3, -2)
    corr = 0.5 * _raise_last(jet.gRinv, bracket)
    return _largest(_reflect(s, jet.gamma) - (jet.gammaR + corr))


def metric_compatibility_residual(metric: MetricField, use_gR: bool, x, h: float = 1e-3) -> float:
    """``_compatibility_residual`` of the jet at x."""
    return float(_compatibility_residual(_jet(metric, x, h), use_gR))


def _compatibility_residual(jet: _Jet, use_gR: bool):
    """max |d_n g_{mk} - Gamma^l_{nm} g_{lk} - Gamma^l_{nk} g_{ml}| per point (should be O(h^2))."""
    g, dg, gamma = jet.side(use_gR)
    # Gamma^l_{nm} g_{lk} and Gamma^l_{nk} g_{ml} at [n, m, k]: one dot over l each
    lowered = np.vecdot(gamma[..., None], g[..., :, None, None, :], axis=-4)
    lowered_other = np.vecdot(gamma[..., None, :], np.swapaxes(g, -1, -2)[..., :, None, :, None], axis=-4)
    return _largest(dg - lowered - lowered_other)


def reflection_isometry_residual(metric: MetricField, x) -> float:
    """r g r = g and r gR r = gR (exact for diagonal families) at the point x,
    or at every point of a stack x: g is read in one call, gR = g r."""
    g = metric.g_at(x)
    r = np.diag(metric.r_signs)
    return _worst(float(np.max(np.abs(r @ m @ r - m))) for m in (g, g * metric.r_signs))


def _frames(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, Einv) of a diagonal metric, or of each metric of a stack, with
    E[a, mu] = e_a^mu = delta / sqrt|g_mumu| and Einv[a, mu] = e^a_mu.

    The same frame makes g orthonormal with flat signs and g_R orthonormal
    with the Kronecker delta.
    """
    if not np.isfinite(g).all():
        raise SingularMetricError("metric components not finite")
    d = np.diagonal(g, axis1=-2, axis2=-1)
    eye = np.eye(g.shape[-1])
    scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
    if np.any(np.max(np.abs(g - d[..., None] * eye), axis=(-2, -1)) > 1e-12 * scale):
        raise NonDiagonalMetricError("vielbein extraction needs a diagonal metric")
    d = np.abs(d)
    if np.min(d) < 1e-12:
        raise SingularMetricError("vanishing diagonal metric component")
    return (1.0 / np.sqrt(d))[..., None] * eye, np.sqrt(d)[..., None] * eye


def _jet_frames(jet: _Jet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(E, Einv) of g and dE[mu, a, lam] = d_mu e_a^lam, dEinv[mu, a, lam] =
    d_mu e^a_lam, from one ``_frames`` call over g and its stencil readings."""
    dim = len(jet.s)
    e, einv = _frames(np.concatenate((jet.g[..., None, :, :], jet.up, jet.down), axis=-3))
    return (e[..., 0, :, :], einv[..., 0, :, :],
            *((f[..., 1:dim + 1, :, :] - f[..., dim + 1:, :, :]) / (2.0 * jet.h) for f in (e, einv)))


def spin_connection_coeffs(metric: MetricField, x, h: float = 1e-3) -> dict:
    """``_connection`` of the jet at x."""
    jet = _jet(metric, x, h)
    return _connection(jet, _jet_frames(jet))


def _to_frame(frames: tuple[np.ndarray, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """The map from coordinate coefficients c^lam_{mu nu} to frame ones in the
    frames (E, Einv, dE, ...) of ``_jet_frames``, dE[mu, a, lam] = d_mu e_a^lam:
    e^b_lam d_mu e_a^lam + e^b_lam c^lam_{mu nu} e_a^nu, indexed [b, mu, a]."""
    e, einv, de = frames[:3]
    # the frames are diagonal, so every sum below has at most one nonzero term
    d_frame = np.einsum("...bl,...mal->...bma", einv, de)
    return lambda c: d_frame + np.einsum("...bmn,...an->...bma", np.einsum("...bl,...lmn->...bmn", einv, c), e)


def _connection(jet: _Jet, frames: tuple[np.ndarray, ...]) -> dict:
    """Frame connection coefficients for g, g_R, the reflected frame and the
    twist correction, in the frames of g and their derivatives ``_jet_frames(jet)``.

    Returns arrays keyed "Gamma_b_mu_a", "GammaR_b_mu_a", "K_b_mu_a" and
    "refl_frame_b_mu_a", each indexed [b, mu, a] (after the point axis of
    a stacked jet):

      Gamma^b_{mu a}   = e^b_lam d_mu e_a^lam + e^b_lam Gamma^lam_{mu nu} e_a^nu
      refl frame       = e_a^nu Gamma^{r lam}_{mu r nu} e^b_lam - e_a^nu d_mu e^b_nu
      K^b_{mu a}       = g_b ( 1/2 (e^b_lam g^{lam k}) (d_{ra} g_{mu k} - d_a gR_{mu k})
                               - d_mu g_a )
    with d_a = e_a^nu d_nu, d_{ra} = g_a d_a, and d_mu g_a = 0 for the
    constant reflection, so that last term drops.
    """
    e, einv, _, dei = frames
    s, gamma = jet.s, jet.gamma  # diagonal alignment: frame sign a = r sign a
    to_frame = _to_frame(frames)
    refl = np.einsum("...aml,...bl->...bma", np.einsum("...an,...lmn->...aml", e, _reflect(s, gamma)), einv)
    d_ra_g = s[:, None, None] * np.einsum("...an,...nmk->...amk", e, jet.dg)
    d_a_gr = np.einsum("...an,...nmk->...amk", e, jet.dgR)
    k_term = 0.5 * np.einsum("...bk,...amk->...bma", einv @ jet.ginv, d_ra_g - d_a_gr)
    return {
        "Gamma_b_mu_a": to_frame(gamma),
        "GammaR_b_mu_a": to_frame(jet.gammaR),
        "K_b_mu_a": s[:, None, None] * k_term,
        "refl_frame_b_mu_a": refl - np.einsum("...an,...mbn->...bma", e, dei),
    }


@dataclass(frozen=True)
class SpinorField:
    """Sampled spinor field: ``func`` maps a point or a stack of points
    (..., dim) to the spinor there (..., spinor_dim), one value per point."""

    func: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        psi = np.asarray(self.func(x), dtype=np.complex128)
        if psi.shape[:-1] != x.shape[:-1]:
            raise ValueError("spinor field returned a wrong shape")
        return psi


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m_i v_i at each point i of the stack of vectors v (m one matrix or a
    stack): one matrix-vector product per point, bit for bit ``m_i @ v_i``."""
    return np.matmul(m, v[..., None])[..., 0]


def plane_wave_spinor(k, psi0) -> SpinorField:
    k = np.asarray(k, dtype=float)
    psi0 = np.asarray(psi0, dtype=np.complex128)

    def f(x):
        # vecdot takes each point's dot product as np.dot(k, x) does
        return np.exp(1j * np.vecdot(x, k))[..., None] * psi0

    return SpinorField(f)


def trig_spinor(dim_spinor: int, dim_chart: int, rng: np.random.Generator) -> SpinorField:
    a = rng.normal(size=dim_spinor)
    b = rng.normal(size=dim_spinor)
    u = rng.normal(size=(dim_spinor, dim_chart))
    w = rng.normal(size=(dim_spinor, dim_chart))
    phase = rng.uniform(0, 2 * np.pi, size=dim_spinor)

    def f(x):
        return a * np.cos(_matvec(u, x)) + 1j * b * np.sin(_matvec(w, x) + phase)

    return SpinorField(f)


def _spinor_jet(psi: SpinorField, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(psi_x, dpsi) over the stack of points x: psi_x[i] = psi(x_i) and the
    central difference dpsi[i, mu] = (psi(x_i + h e_mu) - psi(x_i - h e_mu)) / 2h.
    The field is read in one call, at every point and its 2 dim stencil points."""
    dim, values = x.shape[-1], psi(_stencil(x, h))
    return values[:, 0], (values[:, 1:dim + 1] - values[:, dim + 1:]) / (2.0 * h)


def _dirac_sum(psi_x, dpsi, e, conn, left, right, unit) -> np.ndarray:
    """sum_mu unit gamma^mu (d_mu + 1/4 conn^b_{mu a} left_a right_b) psi at
    each point i of a stack.

    ``psi_x`` and ``dpsi`` are ``_spinor_jet``'s; e[i, a, mu] = e_a^mu and
    conn[i, b, mu, a] carry the point axis, and gamma^mu = e_a^mu left_a.
    Every step is one array operation over the points with the bits of the
    one-point sum: the connection terms are added in (a, b) order, a pair
    skipped only where its coefficient is zero at every point and every mu.
    """
    dim = e.shape[-1]
    if len(left) != dim:
        raise ValueError("representation dimension does not match the chart")
    terms = [(a, b, _matvec(left[a] @ right[b], psi_x))
             for a in range(dim) for b in range(dim) if conn[..., b, :, a].any()]
    out = np.zeros_like(psi_x)
    for mu in range(dim):
        nabla = dpsi[:, mu]
        for a, b, term in terms:
            nabla = nabla + 0.25 * conn[:, b, mu, a, None] * term
        gamma_mu = sum(e[:, a, mu, None, None] * left[a] for a in range(dim))
        out = out + unit * _matvec(gamma_mu, nabla)
    return out


def _lowered(rep: CliffordRep, s: np.ndarray) -> list:
    """gamma_b = g_b gamma^b, the right factors of the pseudo side's connection terms."""
    return [sign * g for sign, g in zip(s, rep.gammas)]


def dirac_apply_pseudo(
    metric: MetricField,
    rep: CliffordRep,
    psi: SpinorField,
    x,
    h: float = 1e-3,
) -> np.ndarray:
    """(i gamma^mu nabla^Sp_mu psi)(x) with FD partials and FD spin connection.

    gamma^mu = e_a^mu gamma^a in chart indices; the connection term is
    1/4 Gamma^b_{mu a} gamma^a gamma_b with gamma_b = g_b gamma^b, the one
    coefficient taken of the connection (``_to_frame``): the stacked
    assembly of a one-point stack.
    """
    jet = _stacked_jet(metric, [x], h)
    frames = _jet_frames(jet)
    conn = _to_frame(frames)(jet.gamma)
    return _dirac_sum(*_spinor_jet(psi, jet.x, h), frames[0], conn, rep.gammas, _lowered(rep, jet.s), 1j)[0]


def dirac_decomposition_check(
    metric: MetricField,
    rep: CliffordRep,
    ops,
    psi: SpinorField,
    x,
    h: float = 1e-3,
) -> tuple[float, int]:
    """Compare K (i gamma^mu nabla_mu psi) with the reflected-frame assembly.

    The right side is -i gt^mu (d_mu + 1/4 (Gamma_R + K)^b_{mu a} gt^a gt_b) psi
    with gt = K gamma and delta-lowered frame indices.  The overall unit
    sign between the two conventions is measured and returned; the caller
    asserts it stays constant across points.
    """
    return _dirac_decompositions(metric, rep, ops, psi, [x], h)[0]


def _dirac_decompositions(metric: MetricField, rep: CliffordRep, ops, psi: SpinorField,
                          points, h: float) -> list[tuple[float, int]]:
    """``dirac_decomposition_check`` at each of ``points``: one stacked jet,
    connection and spinor jet, and one ``_dirac_sum`` over the points per side."""
    jet = _stacked_jet(metric, points, h)
    frames = _jet_frames(jet)
    coeffs = _connection(jet, frames)
    spinor, e = _spinor_jet(psi, jet.x, h), frames[0]
    gt = [ops.K @ g for g in rep.gammas]
    lhs = _matvec(ops.K, _dirac_sum(*spinor, e, coeffs["Gamma_b_mu_a"], rep.gammas, _lowered(rep, jet.s), 1j))
    rhs = _dirac_sum(*spinor, e, coeffs["GammaR_b_mu_a"] + coeffs["K_b_mu_a"], gt, gt, -1j)
    out = []
    for lhs_i, rhs_i in zip(lhs, rhs):
        r_plus, r_minus = float(np.linalg.norm(lhs_i - rhs_i)), float(np.linalg.norm(lhs_i + rhs_i))
        out.append((r_minus, -1) if r_minus <= r_plus else (r_plus, +1))
    return out


def fd_convergence_ratio(metric: MetricField, x, h: float = 1e-3) -> float:
    """err(h) / err(h/2) for Gamma^0_00, whose exact value is 1 (``exp2d``)."""
    e1 = abs(christoffel(metric, False, x, h)[0, 0, 0] - 1.0)
    e2 = abs(christoffel(metric, False, x, h / 2.0)[0, 0, 0] - 1.0)
    if e2 == 0.0:
        return float("inf")
    return e1 / e2
