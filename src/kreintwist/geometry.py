"""Chart-level pseudo-Riemannian geometry checked by central differences.

Metrics are diagonal component functions on an axis-aligned box, together
with a constant diagonal spacelike reflection r making g_R = g(., r .)
positive definite.  Christoffel symbols, vielbeins, frame connection
coefficients and the first-order Dirac operator are all evaluated
pointwise with second-order stencils (default step 1e-3), so every
identity check inherits an O(h^2) error floor.

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
from typing import Callable, Optional

import numpy as np

from .clifford import CliffordRep
from .linalg import Residual, residual_norm

__all__ = [
    "OutOfDomainError",
    "SingularMetricError",
    "NonDiagonalMetricError",
    "MetricField",
    "ChristoffelTensor",
    "SpinorField",
    "metric_family",
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

    def validate_at(self, x) -> None:
        g = self.g_at(x)
        if residual_norm(g, g.T) > 1e-12:
            raise SingularMetricError("metric components not symmetric")
        if abs(np.linalg.det(g)) < 1e-10:
            raise SingularMetricError("metric not invertible at the point")
        gr = self.gR_at(x)
        if np.min(np.linalg.eigvalsh((gr + gr.T) / 2)) < 1e-8:
            raise SingularMetricError("g_R not positive definite: r is not spacelike here")


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

    if name == "flat2d":
        signs = np.array(params.get("signs", (1.0, -1.0)), dtype=float)
        const = np.diag(signs)
        return MetricField(2, lambda x: const.copy(), signs, _box(2, -0.6, 0.6), name)
    if name == "flat4d":
        signs = np.array(params.get("signs", (1.0, -1.0, -1.0, -1.0)), dtype=float)
        const = np.diag(signs)
        return MetricField(4, lambda x: const.copy(), signs, _box(4, -0.6, 0.6), name)
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


METRIC_FAMILY_NAMES = ("flat2d", "flat4d", "exp2d", "conformal2d", "lorentz2d", "lorentz4d")


@dataclass(frozen=True)
class ChristoffelTensor:
    """values[l, m, n] = Gamma^l_{mn} at `point`, FD step `step`."""

    values: np.ndarray
    point: np.ndarray
    step: float

    def symmetry_residual(self) -> float:
        return float(np.max(np.abs(self.values - np.swapaxes(self.values, 1, 2))))


def _metric_derivatives(metric: MetricField, x: np.ndarray, h: float, use_gR: bool) -> np.ndarray:
    """dg[k, m, n] = d_k g_{mn} by central differences."""
    dim = metric.dim
    read = metric.gR_at if use_gR else metric.g_at
    dg = np.zeros((dim, dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        dg[k] = (read(x + e) - read(x - e)) / (2.0 * h)
    return dg


def christoffel(metric: MetricField, use_gR: bool, x, h: float = 1e-3) -> ChristoffelTensor:
    """Levi-Civita coefficients of g (or g_R) from second-order stencils."""
    x = metric.check_point(x, h)
    metric.validate_at(x)
    g = metric.gR_at(x) if use_gR else metric.g_at(x)
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - validate_at guards
        raise SingularMetricError(str(exc)) from exc
    dg = _metric_derivatives(metric, x, h, use_gR)
    dim = metric.dim
    gamma = np.zeros((dim, dim, dim))
    for l in range(dim):
        for m in range(dim):
            for n in range(dim):
                s = 0.0
                for k in range(dim):
                    s += ginv[l, k] * (dg[m][n, k] + dg[n][m, k] - dg[k][m, n])
                gamma[l, m, n] = 0.5 * s
    return ChristoffelTensor(gamma, x, h)


def reflected_christoffel(metric: MetricField, x, h: float = 1e-3) -> ChristoffelTensor:
    """Gamma^{rl}_{m rn} = s_l s_n Gamma^l_{mn} for the constant diagonal r."""
    base = christoffel(metric, False, x, h)
    s = metric.r_signs
    values = s[:, None, None] * base.values * s[None, None, :]
    return ChristoffelTensor(values, base.point, h)


def christoffel_relation_check(metric: MetricField, x, h: float = 1e-3, tol: float = 1e-5) -> Residual:
    """Reflected coefficients against the g_R ones plus the FD correction term.

    Gamma^{rl}_{m rn} = Gamma_R^l_{mn} + 1/2 gR^{lk} (d_{rn} g_{mk} - d_n gR_{mk})
    with d_{rn} = s_n d_n.
    """
    x = metric.check_point(x, h)
    lhs = reflected_christoffel(metric, x, h).values
    gr = christoffel(metric, True, x, h).values
    grinv = np.linalg.inv(metric.gR_at(x))
    dg = _metric_derivatives(metric, x, h, use_gR=False)
    dgr = _metric_derivatives(metric, x, h, use_gR=True)
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
    return Residual(float(np.max(np.abs(lhs - (gr + corr)))), tol)


def metric_compatibility_residual(metric: MetricField, use_gR: bool, x, h: float = 1e-3) -> float:
    """max |d_n g_{mk} - Gamma^l_{nm} g_{lk} - Gamma^l_{nk} g_{ml}| (should be O(h^2))."""
    x = metric.check_point(x, h)
    g = metric.gR_at(x) if use_gR else metric.g_at(x)
    gamma = christoffel(metric, use_gR, x, h).values
    dg = _metric_derivatives(metric, x, h, use_gR)
    dim = metric.dim
    worst = 0.0
    for n in range(dim):
        for m in range(dim):
            for k in range(dim):
                v = dg[n][m, k] - np.dot(gamma[:, n, m], g[:, k]) - np.dot(gamma[:, n, k], g[m, :])
                worst = max(worst, abs(float(v)))
    return worst


def reflection_isometry_residual(metric: MetricField, x) -> float:
    """r g r = g and r gR r = gR (exact for diagonal families)."""
    r = np.diag(metric.r_signs)
    g = metric.g_at(x)
    gr = metric.gR_at(x)
    return max(
        float(np.max(np.abs(r @ g @ r - g))),
        float(np.max(np.abs(r @ gr @ r - gr))),
    )


def vielbein(metric: MetricField, x) -> tuple[np.ndarray, np.ndarray]:
    """(E, Einv) with E[a, mu] = e_a^mu = delta / sqrt|g_mumu|, Einv[a, mu] = e^a_mu.

    The same frame makes g orthonormal with flat signs and g_R orthonormal
    with the Kronecker delta.
    """
    g = metric.g_at(x)
    off = g - np.diag(np.diag(g))
    if np.max(np.abs(off)) > 1e-12 * max(1.0, np.max(np.abs(g))):
        raise NonDiagonalMetricError("vielbein extraction needs a diagonal metric")
    d = np.abs(np.diag(g))
    if np.min(d) < 1e-12:
        raise SingularMetricError("vanishing diagonal metric component")
    e = np.diag(1.0 / np.sqrt(d))
    einv = np.diag(np.sqrt(d))
    return e, einv


def _vielbein_derivatives(metric: MetricField, x, h: float) -> tuple[np.ndarray, np.ndarray]:
    """dE[mu, a, lam] = d_mu e_a^lam and dEinv[mu, a, lam] = d_mu e^a_lam."""
    dim = metric.dim
    de = np.zeros((dim, dim, dim))
    dei = np.zeros((dim, dim, dim))
    for mu in range(dim):
        step = np.zeros(dim)
        step[mu] = h
        ep, eip = vielbein(metric, x + step)
        em, eim = vielbein(metric, x - step)
        de[mu] = (ep - em) / (2.0 * h)
        dei[mu] = (eip - eim) / (2.0 * h)
    return de, dei


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
    constant reflection (the term is kept with a zero input so the formula
    stays literal).
    """
    x = metric.check_point(x, h)
    dim = metric.dim
    e, einv = vielbein(metric, x)
    de, dei = _vielbein_derivatives(metric, x, h)
    gam = christoffel(metric, False, x, h).values
    gam_r = christoffel(metric, True, x, h).values
    gam_refl = reflected_christoffel(metric, x, h).values
    dg = _metric_derivatives(metric, x, h, use_gR=False)
    dgr = _metric_derivatives(metric, x, h, use_gR=True)
    ginv = np.linalg.inv(metric.g_at(x))
    flat_signs = metric.r_signs  # diagonal alignment: frame sign a = r sign a
    d_sign = np.zeros((dim, dim))  # d_mu g_a, zero for constant reflections

    def frame_convert(gamma_coord):
        out = np.zeros((dim, dim, dim))
        for b in range(dim):
            for mu in range(dim):
                for a in range(dim):
                    acc = np.dot(einv[b, :], de[mu][a, :])
                    acc += einv[b, :] @ gamma_coord[:, mu, :] @ e[a, :]
                    out[b, mu, a] = acc
        return out

    gamma_frame = frame_convert(gam)
    gamma_r_frame = frame_convert(gam_r)

    refl_frame = np.zeros((dim, dim, dim))
    for b in range(dim):
        for mu in range(dim):
            for a in range(dim):
                acc = e[a, :] @ gam_refl[:, mu, :].T @ einv[b, :]
                acc -= np.dot(e[a, :], dei[mu][b, :])
                refl_frame[b, mu, a] = acc

    k_term = np.zeros((dim, dim, dim))
    for b in range(dim):
        gb_row = einv[b, :] @ ginv  # e^b_lam g^{lam k}
        for mu in range(dim):
            for a in range(dim):
                da_g = flat_signs[a] * np.einsum("n,nk->k", e[a, :], dg[:, mu, :])
                da_gr = np.einsum("n,nk->k", e[a, :], dgr[:, mu, :])
                k_term[b, mu, a] = flat_signs[b] * (
                    0.5 * np.dot(gb_row, da_g - da_gr) - d_sign[mu, a]
                )

    return {
        "Gamma_b_mu_a": gamma_frame,
        "GammaR_b_mu_a": gamma_r_frame,
        "K_b_mu_a": k_term,
        "refl_frame_b_mu_a": refl_frame,
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


def trig_spinor(dim_spinor: int, dim_chart: int, seed: int = 5) -> SpinorField:
    rng = np.random.default_rng(seed)
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


def poly_spinor(dim_spinor: int, dim_chart: int, seed: int = 9) -> SpinorField:
    rng = np.random.default_rng(seed)
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


def _fd_partial(psi: SpinorField, x: np.ndarray, mu: int, h: float) -> np.ndarray:
    e = np.zeros_like(x)
    e[mu] = h
    return (psi(x + e) - psi(x - e)) / (2.0 * h)


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
    gamma_frame = coeffs["Gamma_b_mu_a"]
    e, _ = vielbein(metric, x)
    signs = metric.r_signs
    dim = metric.dim
    psix = psi(x)
    out = np.zeros_like(psix)
    for mu in range(dim):
        nabla = _fd_partial(psi, x, mu, h)
        for a in range(dim):
            for b in range(dim):
                c = gamma_frame[b, mu, a]
                if c != 0.0:
                    nabla = nabla + 0.25 * c * (rep.gammas[a] @ (signs[b] * rep.gammas[b]) @ psix)
        gamma_mu = sum(e[a, mu] * rep.gammas[a] for a in range(dim))
        out = out + 1j * (gamma_mu @ nabla)
    return out


def dirac_decomposition_check(
    metric: MetricField,
    rep: CliffordRep,
    ops,
    psi: SpinorField,
    x,
    h: float = 1e-3,
    tol: float = 1e-4,
) -> tuple[Residual, int]:
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
    e, _ = vielbein(metric, x)
    conn = coeffs["GammaR_b_mu_a"] + coeffs["K_b_mu_a"]
    dim = metric.dim
    psix = psi(x)
    rhs = np.zeros_like(psix)
    for mu in range(dim):
        nabla = _fd_partial(psi, x, mu, h)
        for a in range(dim):
            for b in range(dim):
                c = conn[b, mu, a]
                if c != 0.0:
                    nabla = nabla + 0.25 * c * (gt[a] @ gt[b] @ psix)
        gt_mu = sum(e[a, mu] * gt[a] for a in range(dim))
        rhs = rhs - 1j * (gt_mu @ nabla)

    r_plus = float(np.linalg.norm(lhs - rhs))
    r_minus = float(np.linalg.norm(lhs + rhs))
    if r_minus <= r_plus:
        return Residual(r_minus, tol), -1
    return Residual(r_plus, tol), +1


def fd_convergence_ratio(metric: MetricField, x, h: float = 1e-3, component=(0, 0, 0), exact: float = 1.0) -> float:
    """err(h) / err(h/2) for one Christoffel component with a known value."""
    l, m, n = component
    e1 = abs(christoffel(metric, False, x, h).values[l, m, n] - exact)
    e2 = abs(christoffel(metric, False, x, h / 2.0).values[l, m, n] - exact)
    if e2 == 0.0:
        return float("inf")
    return e1 / e2
