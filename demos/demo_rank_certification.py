"""
Certified sparse rank: multiple primes, exact fallback
======================================================

Every Hilbert function value is a corank of a strand of the Jacobian ideal.
Ranks are computed mod several independently seeded 31-bit primes; modular
rank can only undershoot the true rank, so agreement across primes plus an
exact cross-check on small strands certifies the answer.

Run:  python3 demos/demo_rank_certification.py
"""

from fractions import Fraction

from milnor import (
    RankConfig,
    StrandMatrix,
    certified_rank,
    jacobian_strand_matrix,
    parse_polynomial,
    rank_exact,
)
from milnor.poly import partial_derivatives

KUMMER = (
    "x0^4 + x1^4 + x2^4 + x3^4"
    " - x0^2*x1^2 - x0^2*x2^2 - x0^2*x3^2"
    " - x1^2*x2^2 - x1^2*x3^2 - x2^2*x3^2"
)

f = parse_polynomial(KUMMER, num_vars=4)
partials = partial_derivatives(f, 4)

# Strand k of the Jacobian ideal: rows are the monomials of degree k,
# columns the (partial, multiplier) pairs with multipliers of degree
# k - d + 1.  The corank is dim M(f)_k.  Kummer is fixed by every
# permutation of x0..x3, proved from the partials, so the blocks of each
# strand come in orbits of identical copies and one block per orbit is
# ranked.
print(f"transpositions fixing the partials:"
      f" {jacobian_strand_matrix(partials, 0).symmetries}")
for k in (4, 6, 8):
    m = jacobian_strand_matrix(partials, k)
    res = certified_rank(m, RankConfig(seed=0))
    print(f"strand k={k}: {m.num_rows} x {m.num_cols}, nnz={m.nnz},"
          f" dim M(f)_{k} = {m.num_rows - res.rank}")
    print(f"  {len(m.blocks)} blocks in {len(m.orbits)} orbits")
    print(f"  rank {res.rank} via {res.method}, primes {res.primes}")
    print(f"  modular ranks {res.ranks}, agreement={res.agreement},"
          f" exact_verified={res.exact_verified}, certified={res.certified}")
print()

# The same strand over exact rationals, fraction-free elimination.  Slower,
# unconditional, and it matches.
m = jacobian_strand_matrix(partials, 4)
print(f"exact rank of strand k=4: {rank_exact(m)}")
print()

# Hand-built rational matrix: rank 2, one duplicated row, one dependent
# column, fractions everywhere.  Entry i is values[i] at (rows[i], cols[i]).
rows = [0, 0, 0, 1, 1, 1, 2, 2, 2]
cols = [0, 1, 2, 0, 1, 2, 0, 1, 2]
values = [Fraction(1, 2), Fraction(1, 3), Fraction(5, 6),
          Fraction(1, 2), Fraction(1, 3), Fraction(5, 6),
          Fraction(2), Fraction(-1), Fraction(1)]
m = StrandMatrix(3, 3, rows, cols, values)
res = certified_rank(m, RankConfig(seed=0))
print(f"toy matrix: rank {res.rank} (expected 2),"
      f" exact cross-check ran: {res.exact_verified}")

# Determinism: the same seed draws the same primes, so reports are
# byte-reproducible; a different seed certifies through different primes.
again = certified_rank(m, RankConfig(seed=0))
other = certified_rank(m, RankConfig(seed=1))
print(f"same seed, same primes: {res.primes == again.primes}")
print(f"seed 1 primes: {other.primes}, rank still {other.rank}")
