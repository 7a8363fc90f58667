"""
Certified sparse rank: primes, and the proof of each rank
=========================================================

Every Hilbert function value is a corank of a strand of the Jacobian ideal.
Ranks are computed mod independently seeded 31-bit primes; a rank mod p
can only undershoot the true rank, so the largest is a proved lower bound.
Every strand is ranked at the first prime of its stream, and at the rest
(up to RankConfig.primes) only when no proof covers it at that one.
Each rank names its proof: "exact" (a strand of at most EXACT_VERIFY_COLS
(48) columns, or of at most EXACT_FALLBACK_COLS (2000) whose primes
disagree, is ranked exactly), "full-rank" (every piece reaches
min(rows, cols) mod some prime), "oracle" (for a Chebyshev spec, a modular
rank reaches the rank the node oracle proves), or "agreement" (two or more
primes give the same rank, which is evidence, not a proof).

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
from milnor.hilbert import hilbert_function
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
# Strand 4 is small enough to rank exactly, which proves it at its first
# prime; strands 6 and 8 are rank deficient and rest on three primes.
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
          f" proof={res.proof}, certified={res.certified}")
# One prime agrees with itself, which proves nothing: strand 6 is rank
# deficient and past EXACT_VERIFY_COLS, so at one prime it is uncertified.
res = certified_rank(jacobian_strand_matrix(partials, 6), RankConfig(seed=0, primes=1))
print(f"strand k=6 at one prime: rank {res.rank}, proof={res.proof},"
      f" certified={res.certified}")
print()

# For odd d no two blocks are alike: the CC(3,5) strand at k=13 is one
# block, and only the characters of the transposition (x1 x2) cut it.
cc35 = partial_derivatives(build(canonical_spec(3, 5)), 5)
m = jacobian_strand_matrix(cc35, 13)
res = certified_rank(m, RankConfig(seed=0))
print(f"CC(3,5) strand k=13: {m.num_rows} x {m.num_cols},"
      f" {len(m.blocks)} block in {len(m.orbits)} orbit, ranked as pieces"
      f" {[(p.num_rows, p.num_cols) for p, _ in m.pieces]}")
print(f"  rank {res.rank}, modular ranks {res.ranks}, proof={res.proof}")
print()

# Given the spec, where exact elimination and full rank do not prove a
# strand of CC(3,5) at its first prime, the node oracle proves the rank
# (every singular point of a Chebyshev hypersurface is a node), so no
# strand needs the other two primes.
spec = canonical_spec(3, 5)
hf = hilbert_function(build(spec), RankConfig(seed=0), chebyshev=spec)
print("CC(3,5), oracle route: proof per strand k")
for k, res in enumerate(hf.rank_details):
    print(f"  k={k:2d}: rank {res.rank:4d} at {len(res.primes)} prime(s), {res.proof}")
print(f"  certified: {hf.certified}")
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
