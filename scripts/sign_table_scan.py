#!/usr/bin/env python3
"""Print the measured unit-sign tables for every even signature.

The commutation signs eps (twist vs real structure) and eps' (twist vs
grading) depend only on the signature; the four real-structure signs are
measured twice, once for the self-adjoint Dirac matrix and once for its
Krein-side image.  The cross-relations eps1K = eps * eps1 and
eps3 = eps' * eps3K are asserted during measurement.
"""

import argparse

from kreintwist.clifford import (
    all_signatures,
    build_gammas,
    build_structural,
    canonical_dirac_pair,
    sign_table,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="*", default=[2, 4, 6])
    args = parser.parse_args()

    header = f"{'sig':>7} {'eps':>4} {'eps_prime':>9}   {'twisted (e0,e1,e2,e3)':>22}   {'Krein side':>16}"
    print(header)
    print("-" * len(header))
    for sig in all_signatures(args.dims):
        rep = build_gammas(sig)
        ops = build_structural(rep)
        d, _ = canonical_dirac_pair(rep, ops.K)
        tab = sign_table(rep, ops, d)
        twisted = (tab.eps0, tab.eps1, tab.eps2, tab.eps3)
        print(
            f"{str(sig):>7} {tab.eps:>+4d} {tab.eps_prime:>+9d}   "
            f"{str(twisted):>22}   {str(tab.pseudo_row()):>16}"
        )
    print()
    print("KO-6 rows (1, 1, -1, -1) mark the signatures compatible with the")
    print("almost-commutative product construction used in the product suite.")


if __name__ == "__main__":
    main()
