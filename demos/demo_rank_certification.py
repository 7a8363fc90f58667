"""
Certified sparse rank: multiple primes, exact fallback
======================================================

Every Hilbert function value is a corank of a strand of the Jacobian ideal.
Ranks are computed mod several independently seeded 31-bit primes; a rank
mod p can only undershoot the true rank, so the largest is a proved lower
bound.  `certified` means proved when the strand is also ranked exactly: a
strand of at most EXACT_VERIFY_COLS (48) columns always is, and one of at
most EXACT_FALLBACK_COLS (2000) columns is when its primes disagree.  Past
those sizes `certified` says only that every prime gave the same rank.

Run:  python3 demos/demo_rank_certification.py
"""

from fractions import Fraction

from milnor import (
    RankConfig,
    StrandMatrix,
    canonical_spec,
    certified_rank,
    jacobian_strand_matrix,
    parse_polynomial,
    rank_exact,
)
from milnor.chebyshev import build
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
# permutation of x0..x3, proved from the partials, and each transposition
# is proved again on every entry of the strand, so the blocks of each
# strand come in orbits of identical copies, and one block per orbit is
# ranked.  A representative that disjoint transpositions map onto itself
# is cut into one piece per +-1 character of the group they generate
# (blocks under SPLIT_CELLS cells are ranked whole).  Each proved
# transposition carries the row and the column permutation it induces.
pairs = [pair for pair, _, _ in jacobian_strand_matrix(partials, 0).symmetries]
print(f"transpositions fixing the partials: {pairs}")
for k in (4, 6, 8):
    m = jacobian_strand_matrix(partials, k)
    res = certified_rank(m, RankConfig(seed=0))
    print(f"strand k={k}: {m.num_rows} x {m.num_cols}, nnz={m.nnz},"
          f" dim M(f)_{k} = {m.num_rows - res.rank}")
    print(f"  {len(m.blocks)} blocks in {len(m.orbits)} orbits,"
          f" ranked as {len(m.pieces)} pieces")
    print(f"  rank {res.rank} via {res.method}, primes {res.primes}")
    print(f"  modular ranks {res.ranks}, agreement={res.agreement},"
          f" exact_verified={res.exact_verified}, certified={res.certified}")
print()

# For odd d no two blocks are alike: the CC(3,5) strand at k=13 is one
# block, and only the characters of the transposition (x1 x2) cut it.
cc35 = partial_derivatives(build(canonical_spec(3, 5)), 5)
m = jacobian_strand_matrix(cc35, 13)
res = certified_rank(m, RankConfig(seed=0))
print(f"CC(3,5) strand k=13: {m.num_rows} x {m.num_cols},"
      f" {len(m.blocks)} block in {len(m.orbits)} orbit, ranked as pieces"
      f" {[(p.num_rows, p.num_cols) for p, _ in m.pieces]}")
print(f"  rank {res.rank}, modular ranks {res.ranks}, certified={res.certified}")
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
