"""Reference values every workload output is checked against.

Closed forms are written here independently of milnor's own formulas, so a
bug in the program's closed forms cannot make its outputs look right.
Tables marked "strand route" were computed by ``analyze`` at the commit
that defined this benchmark; the oracle must reproduce them exactly.
"""

from __future__ import annotations

from math import comb


def cc_nodes(n: int, d: int, k: int | None = None) -> int:
    """Node count of C(n,d,k): critical points of sum T_d(x_i) at level -k.

    A node picks, for each coordinate, a critical index j in 1..d-1; odd j
    give T_d = -1 (there are d//2 of them), even j give +1 ((d-1)//2).
    The values sum to -k exactly when (n+k)/2 coordinates have odd j.
    """
    if k is None:
        k = 0 if n % 2 == 0 else 1
    if (n + k) % 2 or abs(k) > n:
        return 0
    odd = (n + k) // 2
    return comb(n, odd) * (d // 2) ** odd * ((d - 1) // 2) ** (n - odd)


def st_closed_form(n: int, d: int) -> int:
    """Stability threshold of CC(n,d): T - (d-3) = n(d-2) + 1."""
    return n * (d - 2) + 1


def nodal_plane_alexander(components: int) -> str:
    """Alexander polynomial text of a nodal plane curve with r components.

    The complement of a nodal plane curve has abelian fundamental group, so
    Delta = (t-1)^(r-1).
    """
    e = components - 1
    return "1" if e == 0 else "(t - 1)" if e == 1 else f"(t - 1)^{e}"


KUMMER = ("x0^4 + x1^4 + x2^4 + x3^4"
          " - x0^2*x1^2 - x0^2*x2^2 - x0^2*x3^2"
          " - x1^2*x2^2 - x1^2*x3^2 - x2^2*x3^2")
# tau, ct, st, mdr, S_2, Alexander polynomial, b_4 of the double cover
KUMMER_VALUES = {"tau": 16, "ct": 5, "st": 5, "mdr": 3, "S_2": 6,
                 "alexander": "(t + 1)^6", "betti": 7}

FERMAT = "x0^4 + x1^4 + x2^4 + x3^4"

# Oracle defects S_0..S_T, strand route.
ORACLE_DEFECTS = {
    (2, 5): [7, 5, 2, 0, 0, 0, 0, 0, 0, 0],
    (3, 6): [53, 50, 44, 34, 20, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
}

# Hilbert function of M(f) for CC(4,4) on degrees 0..T+1, strand route.
CC44_DIMS = [1, 5, 15, 30, 45, 51, 45, 32, 25, 24, 24, 24]
