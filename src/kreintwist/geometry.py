"""Chart-level pseudo-Riemannian geometry checked by central differences.

Metrics are diagonal component functions on an axis-aligned box, together
with a constant diagonal spacelike reflection r making g_R = g(., r .)
positive definite.  Each kernel reads one metric jet at its point: g and
g_R with their inverses and one second-order central-difference sweep of
g (default step 1e-3), from which the g_R sweep follows exactly.
Christoffel symbols, frame connection coefficients and the first-order
Dirac operator are array contractions over the jet, so every identity
check inherits an O(h^2) error floor.

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
from .linalg import residual_norm
from .linalg import _worst  # the one NaN-propagating maximum

__all__ = [
    "OutOfDomainError",
    "SingularMetricError",
    "NonDiagonalMetricError",
    "MetricField",
    "SpinorField",
    "metric_family",
    "FAMILY_PARAMS",
    "METRIC_FAMILY_NAMES",
    "christoffel",
    "reflected_christoffel",
    "christoffel_relation_check",
    "metric_compatibility_residual",
    "reflection_isometry_residual",
    "vielbein",
    "spin_connection_coeffs",
    "dirac_apply_pseudo",
    "dirac_decomposition_check",
    "plane_wave_spinor",
    "trig_spinor",
    "poly_spinor",
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
    """Diagonal metric component field with a constant spacelike reflection."""

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

    def g_at(self, x) -> np.ndarray:
        m = np.asarray(self.g(np.asarray(x, dtype=float)), dtype=float)
        if m.shape != (self.dim, self.dim):
            raise ValueError("metric component function returned a wrong shape")
        return m

    def gR_at(self, x) -> np.ndarray:
        return self.g_at(x) * self.r_signs[None, :]

    def check_point(self, x, h: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError("point has wrong dimension")
        lo, hi = self.domain[:, 0], self.domain[:, 1]
        if np.any(x - 2 * h < lo) or np.any(x + 2 * h > hi):
            raise OutOfDomainError(f"point {x} violates the 2h margin of {self.domain.tolist()}")
        return x

    def validate_at(self, x) -> np.ndarray:
        """g at x, once it is symmetric and invertible with g_R positive definite."""
        g = self.g_at(x)
        if not np.all(np.isfinite(g)):
            raise SingularMetricError("metric components not finite at the point")
        if residual_norm(g, g.T) > 1e-12:
            raise SingularMetricError("metric components not symmetric")
        if abs(np.linalg.det(g)) < 1e-10:
            raise SingularMetricError("metric not invertible at the point")
        gr = g * self.r_signs[None, :]
        if np.min(np.linalg.eigvalsh((gr + gr.T) / 2)) < 1e-8:
            raise SingularMetricError("g_R not positive definite: r is not spacelike here")
        return g


def _box(dim: int, lo: float, hi: float) -> np.ndarray:
    return np.array([[lo, hi]] * dim, dtype=float)


def metric_family(name: str, params: Optional[dict] = None) -> MetricField:
    """Named diagonal test families.

    flat2d / flat4d   constant diag(signs)
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
        signs = np.array(params.get("signs", (1.0,) + (-1.0,) * (dim - 1)), dtype=float)
        const = np.diag(signs)
        return MetricField(dim, lambda x: const.copy(), signs, _box(dim, -0.6, 0.6), name)
    if name == "exp2d":
        def g(x):
            return np.diag([np.exp(2.0 * x[0]), 1.0])
        return MetricField(2, g, np.array([1.0, 1.0]), _box(2, -0.6, 0.6), name)
    if name == "conformal2d":
        def g(x):
            phi = amp * np.sin(x[0] + 2.0 * x[1])
            return np.exp(2.0 * phi) * np.eye(2)
        return MetricField(2, g, np.array([1.0, 1.0]), _box(2, -0.6, 0.6), name)
    if name == "lorentz2d":
        def g(x):
            return np.diag([1.0 + amp * np.sin(x[0] + x[1]),
                            -(1.0 + amp * np.cos(x[0] - x[1]))])
        return MetricField(2, g, np.array([1.0, -1.0]), _box(2, -0.6, 0.6), name)
    if name == "lorentz4d":
        def g(x):
            return np.diag([
                1.0 + amp * np.sin(x[0] + x[1]),
                -(1.0 + amp * np.cos(x[1])),
                -1.0,
                -(1.0 + amp * x[3] ** 2),
            ])
        return MetricField(4, g, np.array([1.0, -1.0, -1.0, -1.0]), _box(4, -0.6, 0.6), name)
    raise KeyError(f"unknown metric family '{name}'")


# scalar parameters each family reads (no configuration sets the flat ``signs`` sequence)
FAMILY_PARAMS = {"flat2d": (), "flat4d": (), "exp2d": (),
                 "conformal2d": ("amp",), "lorentz2d": ("amp",), "lorentz4d": ("amp",)}
METRIC_FAMILY_NAMES = tuple(FAMILY_PARAMS)


class _Jet(NamedTuple):
    """g and g_R = g r at a checked, validated point, their inverses and one
    central-difference sweep: up[k] and down[k] are g at x + h e_k and
    x - h e_k, dg[k, m, n] = d_k g_{mn} and dgR[k, m, n] = d_k gR_{mn}."""

    x: np.ndarray
    h: float
    g: np.ndarray
    gR: np.ndarray
    ginv: np.ndarray
    gRinv: np.ndarray
    up: np.ndarray
    down: np.ndarray
    dg: np.ndarray
    dgR: np.ndarray

    def side(self, use_gR: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(metric, inverse, derivatives) of g, or of g_R."""
        return (self.gR, self.gRinv, self.dgR) if use_gR else (self.g, self.ginv, self.dg)


def _jet(metric: MetricField, x, h: float) -> _Jet:
    x = metric.check_point(x, h)
    g = metric.validate_at(x)
    s = metric.r_signs
    gR = g * s[None, :]
    try:
        ginv, gRinv = np.linalg.inv(g), np.linalg.inv(gR)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - validate_at guards
        raise SingularMetricError(str(exc)) from exc
    steps = h * np.eye(metric.dim)
    up = np.array([metric.g_at(x + e) for e in steps])
    down = np.array([metric.g_at(x - e) for e in steps])
    dgR = (up * s - down * s) / (2.0 * h)  # differences of gR_at readings, signed zeros too
    return _Jet(x, h, g, gR, ginv, gRinv, up, down, (up - down) / (2.0 * h), dgR)


def _raise_last(ginv: np.ndarray, t: np.ndarray) -> np.ndarray:
    """out[l, ...] = sum_k ginv[l, k] t[..., k], added in k order like an entrywise loop."""
    return sum(ginv[:, k, None, None] * t[None, ..., k] for k in range(len(ginv)))


def _levi_civita(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^l_{mn} = 1/2 g^{lk} (d_m g_{nk} + d_n g_{mk} - d_k g_{mn})."""
    return 0.5 * _raise_last(ginv, dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))


def _reflect(s: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """s_l gamma[l, m, n] s_n."""
    return s[:, None, None] * gamma * s[None, None, :]


def christoffel(metric: MetricField, use_gR: bool, x, h: float = 1e-3) -> np.ndarray:
    """Levi-Civita coefficients [l, m, n] = Gamma^l_{mn} of g (or g_R) from
    second-order stencils."""
    jet = _jet(metric, x, h)
    _, ginv, dg = jet.side(use_gR)
    return _levi_civita(ginv, dg)


def reflected_christoffel(metric: MetricField, x, h: float = 1e-3) -> np.ndarray:
    """Gamma^{rl}_{m rn} = s_l s_n Gamma^l_{mn} for the constant diagonal r."""
    jet = _jet(metric, x, h)
    return _reflect(metric.r_signs, _levi_civita(jet.ginv, jet.dg))


def christoffel_relation_check(metric: MetricField, x, h: float = 1e-3) -> float:
    """Reflected coefficients against the g_R ones plus the FD correction term.

    Gamma^{rl}_{m rn} = Gamma_R^l_{mn} + 1/2 gR^{lk} (d_{rn} g_{mk} - d_n gR_{mk})
    with d_{rn} = s_n d_n.
    """
    jet = _jet(metric, x, h)
    s = metric.r_signs
    lhs = _reflect(s, _levi_civita(jet.ginv, jet.dg))
    gr = _levi_civita(jet.gRinv, jet.dgR)
    bracket = s[None, :, None] * jet.dg.transpose(1, 0, 2) - jet.dgR.transpose(1, 0, 2)
    corr = 0.5 * _raise_last(jet.gRinv, bracket)
    return float(np.max(np.abs(lhs - (gr + corr))))


def metric_compatibility_residual(metric: MetricField, use_gR: bool, x, h: float = 1e-3) -> float:
    """max |d_n g_{mk} - Gamma^l_{nm} g_{lk} - Gamma^l_{nk} g_{ml}| (should be O(h^2))."""
    g, ginv, dg = _jet(metric, x, h).side(use_gR)
    gamma = _levi_civita(ginv, dg)
    # Gamma^l_{nm} g_{lk} and Gamma^l_{nk} g_{ml} at [n, m, k]: one dot over l each
    lowered = np.vecdot(gamma[..., None], g[:, None, None, :], axis=0)
    lowered_other = np.vecdot(gamma[:, :, None, :], g.T[:, None, :, None], axis=0)
    return float(np.max(np.abs(dg - lowered - lowered_other)))


def reflection_isometry_residual(metric: MetricField, x) -> float:
    """r g r = g and r gR r = gR (exact for diagonal families)."""
    r = np.diag(metric.r_signs)
    return _worst(float(np.max(np.abs(r @ m @ r - m))) for m in (metric.g_at(x), metric.gR_at(x)))


def _frames(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, Einv) of a diagonal metric, or of each metric of a stack."""
    d = np.diagonal(g, axis1=-2, axis2=-1)
    eye = np.eye(g.shape[-1])
    scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
    if np.any(np.max(np.abs(g - d[..., None] * eye), axis=(-2, -1)) > 1e-12 * scale):
        raise NonDiagonalMetricError("vielbein extraction needs a diagonal metric")
    d = np.abs(d)
    if np.min(d) < 1e-12:
        raise SingularMetricError("vanishing diagonal metric component")
    return (1.0 / np.sqrt(d))[..., None] * eye, np.sqrt(d)[..., None] * eye


def vielbein(metric: MetricField, x) -> tuple[np.ndarray, np.ndarray]:
    """(E, Einv) with E[a, mu] = e_a^mu = delta / sqrt|g_mumu|, Einv[a, mu] = e^a_mu.

    The same frame makes g orthonormal with flat signs and g_R orthonormal
    with the Kronecker delta.
    """
    return _frames(metric.g_at(x))


def _vielbein_derivatives(jet: _Jet) -> tuple[np.ndarray, np.ndarray]:
    """dE[mu, a, lam] = d_mu e_a^lam and dEinv[mu, a, lam] = d_mu e^a_lam."""
    (e_up, einv_up), (e_down, einv_down) = _frames(jet.up), _frames(jet.down)
    return (e_up - e_down) / (2.0 * jet.h), (einv_up - einv_down) / (2.0 * jet.h)


def spin_connection_coeffs(metric: MetricField, x, h: float = 1e-3) -> dict:
    """Frame connection coefficients for g, g_R, the reflected frame and the
    twist correction.

    Returns arrays keyed "Gamma_b_mu_a", "GammaR_b_mu_a", "K_b_mu_a" and
    "refl_frame_b_mu_a", each indexed [b, mu, a]:

      Gamma^b_{mu a}   = e^b_lam d_mu e_a^lam + e^b_lam Gamma^lam_{mu nu} e_a^nu
      refl frame       = e_a^nu Gamma^{r lam}_{mu r nu} e^b_lam - e_a^nu d_mu e^b_nu
      K^b_{mu a}       = g_b ( 1/2 (e^b_lam g^{lam k}) (d_{ra} g_{mu k} - d_a gR_{mu k})
                               - d_mu g_a )
    with d_a = e_a^nu d_nu, d_{ra} = g_a d_a, and d_mu g_a = 0 for the
    constant reflection, so that last term drops.
    """
    jet = _jet(metric, x, h)
    e, einv = _frames(jet.g)
    de, dei = _vielbein_derivatives(jet)
    s = metric.r_signs  # diagonal alignment: frame sign a = r sign a
    gamma = _levi_civita(jet.ginv, jet.dg)
    # the frames are diagonal, so every sum below has at most one nonzero term
    d_frame = np.einsum("bl,mal->bma", einv, de)

    def to_frame(g_coord):
        return d_frame + np.einsum("bmn,an->bma", np.einsum("bl,lmn->bmn", einv, g_coord), e)

    refl = np.einsum("aml,bl->bma", np.einsum("an,lmn->aml", e, _reflect(s, gamma)), einv)
    d_ra_g = s[:, None, None] * np.einsum("an,nmk->amk", e, jet.dg)
    d_a_gr = np.einsum("an,nmk->amk", e, jet.dgR)
    k_term = 0.5 * np.einsum("bk,amk->bma", einv @ jet.ginv, d_ra_g - d_a_gr)
    return {
        "Gamma_b_mu_a": to_frame(gamma),
        "GammaR_b_mu_a": to_frame(_levi_civita(jet.gRinv, jet.dgR)),
        "K_b_mu_a": s[:, None, None] * k_term,
        "refl_frame_b_mu_a": refl - np.einsum("an,mbn->bma", e, dei),
    }


@dataclass(frozen=True)
class SpinorField:
    """Sampled spinor field; optionally carries analytic partials for oracles."""

    func: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray, int], np.ndarray]] = None

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=np.complex128)


def plane_wave_spinor(k, psi0) -> SpinorField:
    k = np.asarray(k, dtype=float)
    psi0 = np.asarray(psi0, dtype=np.complex128)

    def f(x):
        return np.exp(1j * float(np.dot(k, x))) * psi0

    def g(x, mu):
        return 1j * k[mu] * f(x)

    return SpinorField(f, g)


def trig_spinor(dim_spinor: int, dim_chart: int, rng: np.random.Generator) -> SpinorField:
    a = rng.normal(size=dim_spinor)
    b = rng.normal(size=dim_spinor)
    u = rng.normal(size=(dim_spinor, dim_chart))
    w = rng.normal(size=(dim_spinor, dim_chart))
    phase = rng.uniform(0, 2 * np.pi, size=dim_spinor)

    def f(x):
        return a * np.cos(u @ x) + 1j * b * np.sin(w @ x + phase)

    def g(x, mu):
        return -a * np.sin(u @ x) * u[:, mu] + 1j * b * np.cos(w @ x + phase) * w[:, mu]

    return SpinorField(f, g)


def poly_spinor(dim_spinor: int, dim_chart: int, rng: np.random.Generator) -> SpinorField:
    alpha = rng.normal(size=dim_spinor) + 1j * rng.normal(size=dim_spinor)
    v = rng.normal(size=(dim_spinor, dim_chart))
    w = rng.normal(size=(dim_spinor, dim_chart))

    def f(x):
        lin = v @ x
        quad = (w @ x) ** 2
        return alpha + lin + 0.5j * quad

    def g(x, mu):
        return v[:, mu] + 1j * (w @ x) * w[:, mu]

    return SpinorField(f, g)


def _dirac_assembly(psi: SpinorField, x, h: float, e, conn, left, right, unit) -> np.ndarray:
    """sum_mu unit gamma^mu (d_mu + 1/4 conn^b_{mu a} left_a right_b) psi at x.

    gamma^mu = e_a^mu left_a and d_mu is the central difference of step h.
    The connection terms are added in (a, b) order and zero coefficients
    are skipped.
    """
    psix = psi(x)
    out = np.zeros_like(psix)
    for mu, step in enumerate(h * np.eye(len(x))):
        nabla = (psi(x + step) - psi(x - step)) / (2.0 * h)
        for a, b in zip(*np.nonzero(conn[:, mu, :].T)):
            nabla = nabla + 0.25 * conn[b, mu, a] * (left[a] @ right[b] @ psix)
        gamma_mu = sum(e[a, mu] * left[a] for a in range(len(x)))
        out = out + unit * (gamma_mu @ nabla)
    return out


def dirac_apply_pseudo(
    metric: MetricField,
    rep: CliffordRep,
    psi: SpinorField,
    x,
    h: float = 1e-3,
    coeffs: Optional[dict] = None,
) -> np.ndarray:
    """(i gamma^mu nabla^Sp_mu psi)(x) with FD partials and FD spin connection.

    gamma^mu = e_a^mu gamma^a in chart indices; the connection term is
    1/4 Gamma^b_{mu a} gamma^a gamma_b with gamma_b = g_b gamma^b.
    """
    x = metric.check_point(x, h)
    if metric.dim != rep.n_gen:
        raise ValueError("representation dimension does not match the chart")
    coeffs = coeffs or spin_connection_coeffs(metric, x, h)
    e, _ = vielbein(metric, x)
    lowered = [s * g for s, g in zip(metric.r_signs, rep.gammas)]
    return _dirac_assembly(psi, x, h, e, coeffs["Gamma_b_mu_a"], rep.gammas, lowered, 1j)


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
    x = metric.check_point(x, h)
    coeffs = spin_connection_coeffs(metric, x, h)
    lhs = ops.K @ dirac_apply_pseudo(metric, rep, psi, x, h, coeffs)
    gt = [ops.K @ g for g in rep.gammas]
    conn = coeffs["GammaR_b_mu_a"] + coeffs["K_b_mu_a"]
    rhs = _dirac_assembly(psi, x, h, vielbein(metric, x)[0], conn, gt, gt, -1j)
    r_plus = float(np.linalg.norm(lhs - rhs))
    r_minus = float(np.linalg.norm(lhs + rhs))
    if r_minus <= r_plus:
        return r_minus, -1
    return r_plus, +1


def fd_convergence_ratio(metric: MetricField, x, h: float = 1e-3) -> float:
    """err(h) / err(h/2) for Gamma^0_00, whose exact value is 1 (``exp2d``)."""
    e1 = abs(christoffel(metric, False, x, h)[0, 0, 0] - 1.0)
    e2 = abs(christoffel(metric, False, x, h / 2.0)[0, 0, 0] - 1.0)
    if e2 == 0.0:
        return float("inf")
    return e1 / e2
