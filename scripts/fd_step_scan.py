#!/usr/bin/env python3
"""Step-size scan for the finite-difference geometry checks.

Sweeps the central-difference step over several decades and reports the
residuals of the reflected-coefficient relation (evaluated with
independent steps on the two sides, so truncation does not cancel), the
closed-form coefficient of the exponential 2D family, and the curved
Lorentzian Dirac decomposition.  The closed-form column shows the O(h^2)
truncation window before roundoff takes over.
"""

import argparse

import numpy as np

from kreintwist.clifford import Signature, build_gammas, build_structural
from kreintwist.geometry import (
    _jet,
    _reflect,
    christoffel,
    dirac_decomposition_check,
    metric_family,
    trig_spinor,
)


def relat_christos_independent(metric, x, h):
    """Reflected side at step h against the g_R side rebuilt at step h/2."""
    lhs = _reflect(metric.r_signs, _jet(metric, x, h).gamma)
    gr = christoffel(metric, True, x, h / 2)
    grinv = np.linalg.inv(metric.g_at(x) * metric.r_signs)
    s = metric.r_signs
    dim = metric.dim
    dg = np.zeros((dim, dim, dim))
    dgr = np.zeros((dim, dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h / 2
        dg[k] = (metric.g_at(x + e) - metric.g_at(x - e)) / h
        dgr[k] = (metric.g_at(x + e) * s - metric.g_at(x - e) * s) / h
    corr = np.zeros_like(lhs)
    for l in range(dim):
        for m in range(dim):
            for n in range(dim):
                corr[l, m, n] = 0.5 * sum(
                    grinv[l, k] * (s[n] * dg[n][m, k] - dgr[n][m, k]) for k in range(dim)
                )
    return float(np.max(np.abs(lhs - (gr + corr))))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--steps",
        type=float,
        nargs="*",
        default=[1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5],
    )
    args = parser.parse_args()

    lor = metric_family("lorentz4d")
    exp2 = metric_family("exp2d")
    rep = build_gammas(Signature(1, 3))
    ops = build_structural(rep)
    psi = trig_spinor(4, 4, np.random.default_rng(5))
    x4 = np.array([0.1, -0.2, 0.3, 0.15])
    x2 = np.array([0.1, -0.2])

    print(f"{'h':>10} {'relat(indep)':>14} {'exp2d |G-1|':>14} {'dirac decomp':>14}")
    for h in args.steps:
        rc = relat_christos_independent(lor, x4, h)
        cf = abs(christoffel(exp2, False, x2, h)[0, 0, 0] - 1.0)
        dd, _ = dirac_decomposition_check(lor, rep, ops, psi, x4, h)
        print(f"{h:>10.1e} {rc:>14.3e} {cf:>14.3e} {dd:>14.3e}")


if __name__ == "__main__":
    main()
