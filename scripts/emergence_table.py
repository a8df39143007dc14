#!/usr/bin/env python3
"""Enumerate all 16 twist candidates on the Euclidean 4D representation.

Each candidate is a phase-normalized product of Euclidean gammas.  The
table lists its commutation signs against the real structure and the
grading, the induced metric diagonal (from the squares of K gamma^a), and
the emergent real-structure signs (K Jhat)^2 and its grading sign.  The
rows whose emergent pair equals (+1, -1) are exactly the single-gamma
candidates, and they all induce the (+,-,-,-) diagonal.
"""

from kreintwist.clifford import Signature, build_gammas, build_structural
from kreintwist.product import signature_emergence


def fmt_sig(sig):
    return "(" + ",".join("+" if s > 0 else "-" for s in sig) + ")"


def main() -> None:
    rep4 = build_gammas(Signature(4, 0))
    rows = signature_emergence(rep4, build_structural(rep4))
    header = (
        f"{'indices':<12} {'grade':>5} {'eps':>4} {'eps_prime':>9} "
        f"{'induced':>10} {'emergent (e0,e2)':>17}  note"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        idx = "{" + ",".join(str(i) for i in row.indices) + "}" if row.indices else "1"
        if row.eps_prime == +1:
            note = "emergent grading sign +1 (eps2 = +1, not KO-6 compatible)"
        else:
            note = "Lorentz class" if row.eps == -1 else "anti-Lorentz class"
        print(
            f"{idx:<12} {row.grade:>5} {row.eps:>+4d} {row.eps_prime:>+9d} "
            f"{fmt_sig(row.signature):>10} "
            f"({row.eps0_emergent:+d},{row.eps2_emergent:+d})"
            f"{'':>8}  {note}"
        )
    odd = [row for row in rows if row.eps_prime == -1]
    lorentzian = [row for row in odd if row.eps == -1]
    ko6 = [row for row in rows if (row.eps0_emergent, row.eps2_emergent) == (1, -1)]
    print()
    print(
        f"classification: {len(lorentzian)} candidates with eps=-1 "
        f"induce one plus, {len(odd) - len(lorentzian)} with eps=+1 induce one minus; "
        f"{len(ko6)} carry the emergent pair (+1,-1)."
    )


if __name__ == "__main__":
    main()
