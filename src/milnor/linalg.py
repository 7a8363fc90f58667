"""Exact rank computation for graded Jacobian strands.

The degree-k strand of a Jacobian ideal is the linear map
(h_0, ..., h_n) -> sum h_i * f_i from (n+1) copies of the degree k-d+1
graded piece into the degree-k piece.  Ranks are computed modulo random
31-bit primes drawn from a stream seeded per strand; ranks mod p never
exceed the rational rank, so the maximum over primes is a proved lower
bound.  Every strand is ranked at the first prime of its stream, and at
the rest of it, up to the configured count, only when no proof covers the
strand at that one prime.  Each RankResult names the proof of its rank,
and the method and exact verification it reports are read off that
proof.  "exact": a matrix of at most EXACT_VERIFY_COLS columns is ranked
exactly by fraction-free elimination, and so is one of at most
EXACT_FALLBACK_COLS columns whose primes disagree.  "full-rank": every
piece reaches min(rows, cols) mod some prime.  "oracle": a modular rank
reaches the rank the caller proved another way (for Chebyshev strands,
the node oracle).  "agreement": two or more primes give the same rank,
which is evidence, not a proof.  A rank with none of these is uncertified;
one prime alone never certifies by agreement.  RankConfig holds the only
settable values, the prime count and the seed; every cutoff is a module
constant below.

A StrandMatrix holds its entries as three parallel arrays: int64 rows and
columns, and integer values in int64 (or objects, for ints past int64),
which every engine reads directly.  Fraction values are scaled once, when
the matrix is made, by the lcm of their denominators: a nonzero scalar
changes no rank over Q, and the rank of an integer matrix mod any prime is
a lower bound for it, so every drawn prime can be ranked.  Every rank is
the sum of the ranks of the matrix's blocks: the connected components of
the bipartite row-column graph of its entries, found once per matrix by an
array union-find.  Jacobian strands of symmetric forms such as CC(n,d) fall
apart into many such blocks.  A strand also records in `symmetries` the
transpositions of the variables proved to permute its generators exactly,
each with the row and the column permutation it induces, written by
jacobian_strand_matrix, the one place that knows the strand layout.  Blocks
they exchange are joined into orbits, one block per orbit is ranked and
counted with the orbit's size, and a representative that some of them map
onto itself, of at least SPLIT_CELLS cells, is cut by milnor.symmetry into
one piece per +-1 character of the group G = Z2^t that a maximal set of
disjoint such transpositions generates.  Each claimed map is proved
once, on the whole strand: it must move the strand's entries onto equal
entries, so it sends each block onto one block with the same entries, and
joins and splits read their block maps off that proof.  A false claim
raises ValueError and cannot change a rank.  For odd d, where no two
blocks are alike, the split is the only symmetry that helps: CC(3,5) at
k=13 is one 560x880 block, cut into 308x470 and 252x410 pieces.  Each
piece gets one of two engines:
  * dense mod-p elimination a panel of columns at a time: int64 row
    operations on the panel, then the Schur complement of the remaining
    columns in float64 BLAS matmuls of the left factor's two halves (exact
    for p < 2^31).  The products run on one BLAS thread: they come as
    chunks at most 64 deep from a Python loop, too shallow for a second
    thread to help, and between them a BLAS worker thread only spins, so
    its CPU time buys nothing.  milnor's parallelism is the --jobs process
    pool, whose workers run the same products.  A strand's dense pieces
    mod all its primes share one Python step per column.  It ranks every
    piece of CC(4,4) and CC(3,5);
  * sparse Markowitz elimination that escapes to the dense kernel when the
    active submatrix fills in, for the large sparse pieces: of the inputs
    surveyed, those of CC(4,5) at k >= 14 and CC(4,6) at k >= 20.  On the
    eight pieces of CC(4,5) at k=16 it takes 0.62 s at one prime, against
    1.01 s for the dense kernel.
Fraction-free Bareiss elimination over the integers gives the exact,
authoritative rank of small strands and of strands whose primes disagree.
It skips the pieces a modular rank already proves: one whose rank mod some
prime reaches min(rows, cols) has that rank over Q.
"""

from __future__ import annotations

import ctypes
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, groupby
from math import lcm

import numpy as np

from .domains import draw_distinct_primes
from .monomials import exponent_array, grlex_ranks, num_monomials
from .symmetry import CharacterSplit, summed

# Engine thresholds, applied by _engine to each piece: narrow or dense
# pieces go straight to the dense kernel and the rest to Markowitz elimination.
# Markowitz elimination hands its active submatrix to the dense kernel once
# it has at most DENSE_COLS columns or a density above ESCAPE_DENSITY; the
# dense kernel takes DENSE_PANEL columns per panel.  A strand's dense
# (piece, prime) pairs go to it in as few calls as keep their cells within
# STACK_CELLS (at least one pair a call), so peak memory does not grow with
# the prime count.  An orbit representative below SPLIT_CELLS cells is
# ranked whole: cutting it into character pieces costs more than the
# smaller eliminations save.
DENSE_COLS = 700
DENSE_DENSITY = 0.02
ESCAPE_DENSITY = 0.04
DENSE_PANEL = 48
STACK_CELLS = 1 << 17
SPLIT_CELLS = 1 << 12

# Certification cutoffs, applied by certified_rank: a matrix of at most
# EXACT_VERIFY_COLS columns is always ranked exactly, and one of at most
# EXACT_FALLBACK_COLS columns when the primes disagree.  The node oracle
# proves a Chebyshev strand only when its evaluation matrix has at most
# ORACLE_SIDE rows or at most ORACLE_SIDE columns (milnor.hilbert); past
# that the strand is ranked mod every prime.  The smaller side bounds the
# rank, and a deficient rank needs primes in proportion to it.  The cap
# admits every degree of CC(4,6) (216 nodes; each degree takes at most
# 0.05 s) and CC(4,7) at 486 x 210 (5.6 s), and keeps out CC(4,7) at
# 486 x 330 (17.6 s) and 486 x 495 (57 s), on a 2-vCPU machine.
# cache_key hashes all three, since they decide proof and certified.
# RankConfig refuses more than MAX_PRIMES primes: (2^30, 2^31) holds only
# about 5e7.
EXACT_VERIFY_COLS = 48
EXACT_FALLBACK_COLS = 2000
ORACLE_SIDE = 256
MAX_PRIMES = 1000


# -- strand matrices -----------------------------------------------------------


@dataclass(eq=False)
class StrandMatrix:
    """Sparse exact integer matrix with proved permutation symmetries.

    Entry i is values[i] at (rows[i], cols[i]); repeated positions add up.
    Indices are kept as int64 arrays, and values as int64 or, when one is
    an int past int64, as an object array.  Fraction values are stored
    times the lcm of their denominators, so every stored value is an int;
    the scaling keeps the rank over Q.  Bad input raises
    ValueError (an index out of range, arrays of unequal length) or
    TypeError (a value that is not an int or Fraction).  k only labels it.

    `symmetries` holds one (pair, row map, column map) per transposition
    (i, j) of the variables proved to keep every entry, taking row r to
    row_map[r] and column c to col_map[c]; jacobian_strand_matrix writes
    them.  Each is proved once on the whole matrix, before the first rank
    or orbit is taken.  Blocks exchanged by the symmetries are ranked once,
    and a block that some of them map onto itself is split by their
    characters.  The default () claims nothing; a false claim raises
    ValueError naming its pair.
    """

    num_rows: int
    num_cols: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    k: int | None = None
    symmetries: tuple[tuple[tuple[int, int], np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self):
        self.values = _integer_array(self.values)
        for name, bound in (("rows", self.num_rows), ("cols", self.num_cols)):
            index = np.asarray(getattr(self, name))
            if self.values.ndim != 1 or index.shape != self.values.shape or (
                    index.size and index.dtype.kind not in "iu"):
                raise ValueError(f"{name} must hold one integer index per value")
            if index.size and (index.min() < 0 or index.max() >= bound):
                raise ValueError(f"{name} holds an index outside 0..{bound - 1}")
            setattr(self, name, index.astype(np.int64, copy=False))
        self.symmetries = tuple(
            (tuple(pair), _permutation(row_map, self.num_rows, "row", pair),
             _permutation(col_map, self.num_cols, "column", pair))
            for pair, row_map, col_map in self.symmetries)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def blocks(self) -> list[StrandMatrix]:
        """The connected components of the bipartite row-column graph.

        Each block keeps its rows, columns and entries in their original
        order, reindexed to 0..; empty rows and columns belong to no block.
        The list is [self] when the matrix is one block with no empty row
        or column.  It is computed once, so entries must not change after.
        """
        return self._components[0]

    @cached_property
    def orbits(self) -> list[tuple[StrandMatrix, int]]:
        """One (representative block, multiplicity) pair per symmetry orbit.

        The orbits are the classes of blocks under the kept transpositions,
        each proved on every entry of the matrix, so every block of an
        orbit has its representative's rank mod every prime and over Q.
        Without symmetries each block is its own orbit.
        """
        blocks = self.blocks
        return [(blocks[b], count) for b, count in self._orbit_counts]

    @cached_property
    def pieces(self) -> list[tuple[StrandMatrix, int]]:
        """One (piece, multiplicity) pair per character piece of each orbit.

        An orbit's representative is split by the group its transpositions
        generate, when some of them map it onto itself (see _split); its
        rank mod every odd prime and over Q is the sum of its pieces' ranks.
        Each piece counts with the size of its orbit.
        """
        out = []
        for b, count in self._orbit_counts:
            block = self.blocks[b]
            cut = self.symmetries and block.num_rows * block.num_cols >= SPLIT_CELLS
            out += [(piece, count) for piece in (self._split(b) if cut else [block])]
        return out

    @cached_property
    def _components(self):
        """The blocks, the row of each block's first entry, the block of each
        row and column node (rows first, then columns; -1 when empty), each
        node's place among its block's rows or columns, and each block's rows
        and columns in the order of their places."""
        m, size, nnz = self.num_rows, self.num_rows + self.num_cols, self.nnz
        root = _union_find(size, self.rows, m + self.cols)
        if nnz and (root == root[0]).all():
            ids = np.arange(m), np.arange(self.num_cols)
            return [self], self.rows[:1], np.zeros(size, np.int64), np.concatenate(ids), [ids]
        # local[v]: the place of row or column v among the rows or columns of
        # its block, read off the nodes sorted by (root, node)
        key = np.sort(root * size + np.arange(size))
        nodes, rows = np.bincount(root, minlength=size), np.bincount(root[:m], minlength=size)
        start, order = np.cumsum(nodes) - nodes, key % size
        local = np.empty(size, dtype=np.int64)
        local[order] = np.arange(size) - start[key // size]
        local[m:] -= rows[root[m:]]
        # the entries of each block in order, blocks in the order of their first entries
        key = np.sort(root[self.rows] * nnz + np.arange(nnz))
        parts = np.split(key % nnz, np.flatnonzero(np.diff(key // nnz)) + 1) if nnz else []
        parts.sort(key=lambda idx: idx[0])
        first = self.rows[np.array([idx[0] for idx in parts], dtype=np.int64)]
        block_roots = root[first]
        blocks = [StrandMatrix(r, c, local[self.rows[idx]], local[m + self.cols[idx]],
                               self.values[idx], k=self.k)
                  for idx, r, c in zip(parts, rows[block_roots].tolist(),
                                       (nodes - rows)[block_roots].tolist())]
        block_of = np.full(size, -1)
        block_of[block_roots] = np.arange(len(parts))
        members = [(order[a : a + r], order[a + r : a + c] - m) for a, r, c in zip(
            start[block_roots].tolist(), rows[block_roots].tolist(), nodes[block_roots].tolist())]
        return blocks, first, block_of[root], local, members

    @cached_property
    def _targets(self) -> list[np.ndarray]:
        """The block each symmetry maps each block onto, once every symmetry
        is proved on the whole strand.

        ValueError naming the pair unless the symmetry moves the keys
        row * num_cols + col of the entries, repeats summed, onto the same
        keys with equal values.  Such a map is an automorphism of the
        row-column graph, so it sends each block onto one block with the
        same entries, and the two have equal ranks.
        """
        _, first, block_of, _, _ = self._components
        keys, values = summed(self.rows * self.num_cols + self.cols, self.values)
        rows, cols = np.divmod(keys, self.num_cols)
        for pair, row_map, col_map in self.symmetries:
            moved = row_map[rows] * self.num_cols + col_map[cols]
            order = np.argsort(moved)
            if not (np.array_equal(moved[order], keys) and np.array_equal(values[order], values)):
                raise ValueError(f"transposition {pair} does not map a block onto one block "
                                 f"with the same entries")
        return [block_of[row_map[first]] for _, row_map, _ in self.symmetries]

    @cached_property
    def _orbit_counts(self) -> list[tuple[int, int]]:
        """One (representative block index, multiplicity) pair per orbit.

        The orbits are the classes of the union-find that joins each block
        to its proved targets; a class's root is its lowest block, so each
        orbit is represented by its lowest block, and orbits come in
        increasing order.
        """
        ids = np.arange(len(self.blocks))
        root = _union_find(len(ids), np.tile(ids, len(self.symmetries)),
                           np.concatenate([ids[:0], *self._targets]))
        reps, counts = np.unique(root, return_counts=True)
        return list(zip(reps.tolist(), counts.tolist()))

    def residues(self, primes) -> np.ndarray:
        """The (primes, rows, cols) int64 stack of the matrix mod each prime."""
        vals = _residues(self.values, primes)
        out = np.zeros((len(primes), self.num_rows, self.num_cols), dtype=np.int64)
        flat = np.sort(self.rows * self.num_cols + self.cols)
        if (flat[1:] != flat[:-1]).all():
            out[:, self.rows, self.cols] = vals
        else:  # repeated positions add up
            np.add.at(out, (slice(None), self.rows, self.cols), vals)
            out %= np.array(primes, dtype=np.int64)[:, None, None]
        return out

    def _split(self, b: int) -> list[StrandMatrix]:
        """Block b cut into one piece per +-1 character of its symmetry group.

        The group G = Z2^t is generated by a maximal set of pairwise
        disjoint transpositions that map the block onto itself, kept
        greedily in the order of `symmetries`.  Their maps, already proved
        on the whole matrix, are restricted to the block, and together they
        must act as commuting involutions, or ValueError.
        milnor.symmetry cuts the pieces, whose ranks add up to the block's
        over Q and mod every odd prime; pieces without entries are dropped.
        """
        blocks, _, _, local, members = self._components
        rows, cols = members[b]
        gens, moved = [], set()
        for ((i, j), row_map, col_map), to in zip(self.symmetries, self._targets):
            if i in moved or j in moved or to[b] != b:
                continue
            gens.append((local[row_map[rows]], local[self.num_rows + col_map[cols]], None))
            moved |= {i, j}
        block = blocks[b]
        if not gens:
            return [block]
        split = CharacterSplit((block.num_rows, block.num_cols), gens)
        return [StrandMatrix(*piece) for piece in split.cut(block.rows, block.cols,
                                                            block.values)]


def _union_find(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root of each of 0..size-1 once a[i] and b[i] are joined for all i.

    Each round hooks every tree root to the smallest root it shares an edge
    with, if smaller, then shortcuts every path fully.  A component's root
    is its smallest member, and a scrambled path of 500,000 nodes joins in
    13 rounds, where passing labels along it would take one per node.
    """
    parent = np.arange(size)
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            return parent
        # one key per edge across two trees, larger root * size + smaller
        # root; sorted, each root's first key holds its smallest neighbour
        key = np.sort(np.maximum(ra, rb)[cross] * size + np.minimum(ra, rb)[cross])
        head = np.r_[True, key[1:] // size != key[:-1] // size]
        parent[key[head] // size] = key[head] % size
        while (parent[parent] != parent).any():
            parent = parent[parent]


def _permutation(perm, size: int, name: str, pair) -> np.ndarray:
    """perm as int64; ValueError naming pair unless it permutes 0..size-1."""
    if not np.array_equal(np.sort(perm), np.arange(size)):
        raise ValueError(f"the {name} map of transposition {pair} is not a "
                         f"permutation of 0..{size - 1}")
    return np.asarray(perm, dtype=np.int64)


def _swapped(mono, i: int, j: int) -> tuple:
    """The exponent tuple with the exponents of x_i and x_j exchanged."""
    out = list(mono)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _exact_array(values) -> np.ndarray:
    """values as int64, or as an object array when one is a Fraction or
    does not fit; TypeError for a value that is not an int or Fraction."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "ib":
        return values.astype(np.int64, copy=False)
    items = np.asarray(values, dtype=object).tolist()
    kinds = set(map(type, items))
    if not kinds <= {int, bool, Fraction}:
        raise TypeError(f"strand coefficients must be int or Fraction, "
                        f"not {(kinds - {int, bool, Fraction}).pop().__name__}")
    if Fraction not in kinds:
        try:
            return np.array(items, dtype=np.int64)
        except OverflowError:
            pass
    return np.array(items, dtype=object)


def _integer_array(values) -> np.ndarray:
    """_exact_array(values) times the lcm of the values' denominators."""
    values = _exact_array(values)
    if values.dtype != object:
        return values
    scale = lcm(*(v.denominator for v in values.tolist()))
    return _exact_array([int(v * scale) for v in values.tolist()])


def _residues(values: np.ndarray, primes) -> np.ndarray:
    """The (len(primes), len(values)) int64 table of values mod each prime."""
    out = values % np.array(primes, dtype=np.int64)[:, None]
    return out.astype(np.int64, copy=False)


def jacobian_strand_matrix(partials, k: int) -> StrandMatrix:
    """Matrix of the degree-k strand in the monomial bases.

    Rows are the degree-k monomials (graded-lex order).  Column i*M + j
    multiplies generator i by the j-th degree k-d+1 monomial.  Coefficients
    must be ints or Fractions; anything else raises TypeError here rather
    than inside a later prime loop.  They pass through unscaled: the
    StrandMatrix clears their denominators.  Its symmetries are the
    transpositions that permute the generators, mapped in this layout.
    """
    if not partials:
        raise ValueError("no generators")
    num_vars = partials[0].num_vars
    degrees = {g.degree for g in partials if not g.is_zero}
    if not degrees:
        raise ValueError("all generators are zero")
    if len(degrees) > 1:
        raise ValueError(f"generators of mixed degrees {sorted(degrees)}")
    mults = exponent_array(num_vars, k - degrees.pop())
    num_rows = num_monomials(num_vars, k)
    num_cols = len(partials) * len(mults)
    parts = []
    if num_cols:
        for i, gen in enumerate(partials):
            terms = gen.sorted_terms()
            if not terms:
                continue
            monos = np.array([m for m, _ in terms], dtype=np.int64)
            # entry (j, t): multiplier j times term t, in row-major order
            parts.append((
                grlex_ranks(mults[:, None, :] + monos[None, :, :]).ravel(),
                np.repeat(np.arange(i * len(mults), (i + 1) * len(mults)), len(terms)),
                np.tile(_exact_array([c for _, c in terms]), len(mults))))
    rows, cols, values = (np.concatenate(a) for a in zip(*parts)) if parts else ((),) * 3
    symmetries = _transposition_maps(num_vars, k, mults, _variable_transpositions(partials))
    return StrandMatrix(num_rows, num_cols, rows, cols, values, k=k, symmetries=symmetries)


def _transposition_maps(num_vars: int, k: int, mults: np.ndarray, generator_maps) -> tuple:
    """(pair, row map, column map) of each (pair, pi) in generator_maps.

    Swapping x_i and x_j (sigma) takes row nu to sigma nu, and column
    a * M + j, generator a times the j-th of the M multipliers, to
    pi(a) * M + the place of sigma of that multiplier.
    """
    if not generator_maps:
        return ()
    swaps = np.array([_swapped(range(num_vars), i, j) for i, j in generator_maps])
    rows = grlex_ranks(exponent_array(num_vars, k)[:, swaps]).T
    moved = grlex_ranks(mults[:, swaps]).T
    return tuple((pair, row_map, (np.array(pi)[:, None] * len(mults) + mult_map).ravel())
                 for (pair, pi), row_map, mult_map in zip(generator_maps.items(), rows, moved))


def _variable_transpositions(partials) -> dict[tuple[int, int], tuple[int, ...]]:
    """The transpositions (i, j) of the variables that permute the generators,
    each with its generator permutation pi.

    (i, j) is kept when swapping x_i and x_j maps the generator list onto
    itself as a bijection pi of exactly equal polynomials, g_a(sigma x) =
    g_pi(a)(x).  Then row nu -> sigma nu with column (a, mu) ->
    (pi(a), sigma mu) preserves every entry of every strand, since the
    entry is the coefficient of x^(nu - mu) in g_a.  Two equal generators
    make pi non-injective, so they keep nothing.
    """
    keys = [frozenset(g.terms.items()) for g in partials]
    index = {key: a for a, key in enumerate(keys)}
    kept = {}
    for i, j in combinations(range(partials[0].num_vars), 2):
        pi = tuple(index.get(frozenset((_swapped(m, i, j), c) for m, c in key))
                   for key in keys)
        if None not in pi and len(set(pi)) == len(keys):
            kept[(i, j)] = pi
    return kept


# -- dense mod-p kernel -----------------------------------------------------------

# (get, set) thread-count symbols of the OpenBLAS builds numpy loads:
# scipy-openblas with 64-bit integers, other 64-bit builds, the plain build
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS mapped into
    this process, or None: no OpenBLAS is mapped (another BLAS, another
    platform), or /proc/self/maps cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the count read on
    entry, also when the body raises; without OpenBLAS, do nothing."""
    blas = _openblas_threads()
    before = blas[0]() if blas else 1
    if before == 1:
        yield
        return
    blas[1](1)
    try:
        yield
    finally:
        blas[1](before)


def matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 inputs reduced mod p < 2^31.

    Splits only a, at bit 15, into halves below 2^16 and 2^15, and takes
    two float64 products per chunk of 64 inner indices: against b < 2^31
    their sums stay below 64 * 2^47 = 2^53 and 64 * 2^46 = 2^52, so both
    are exact.  The high product, reduced and shifted by 15 bits, is below
    2^46, so the low product is added to it exactly in float64 and in
    place.  With one chunk, at most one product is alive beside the result.
    The products run on one BLAS thread (see the module docstring).
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    ah = (a >> 15).astype(np.float64)
    al = (a & 0x7FFF).astype(np.float64)
    bf = b.astype(np.float64)
    out = None
    with _one_blas_thread():
        for s in range(0, a.shape[1], 64):
            part = (ah[:, s : s + 64] @ bf[s : s + 64]).astype(np.int64)
            part %= p
            part <<= 15
            np.add(part, al[:, s : s + 64] @ bf[s : s + 64], out=part, casting="unsafe")
            if out is not None:
                part += out
            part %= p
            out = part
    if out is None:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    return out


def rank_dense_modp(blocks) -> list[int]:
    """The rank of each (a, p) in blocks: a 2-D int64 matrix with entries in
    [0, p), ranked mod its own prime p < 2^31 and not changed.  A block
    whose narrower side fits in a DENSE_PANEL panel takes it as its width;
    a wider one goes a panel per round, its shorter side as rows (_panel)."""
    ranks = [0] * len(blocks)
    todo = [(i, a, p) for i, (a, p) in enumerate(blocks)]
    while todo := [(i, a, p) for i, a, p in todo if a.size]:
        _panel([(i, a.T if a.shape[1] > a.shape[0] else a, p)
                for i, a, p in todo if min(a.shape) <= DENSE_PANEL], ranks)
        todo = _panel([(i, a.T if a.shape[0] > a.shape[1] else a, p)
                       for i, a, p in todo if min(a.shape) > DENSE_PANEL], ranks)
    return ranks


def _panel(blocks, ranks: list[int]) -> list:
    """Eliminate the first panel of each (index, a, p) block, add its pivots
    to ranks[index] and return (index, Schur complement, p) for the blocks
    wider than the panel; the blocks all fit one panel or are all wider.

    The blocks are row ranges of one int64 work array.  Each column is one
    step for all: in every block the first row nonzero there is the pivot,
    and each other row nonzero there becomes pivot * row - row[c] *
    pivot_row mod the row's prime (no inverse; products stay below 2^62).
    A wide block keeps row i as s_i a_i + y_i a_P, a_P its rows as given:
    the pivot of column c moves its scale s into y[c].  Each s_i is a
    product of pivots, nonzero mod p, so the rank is the pivot count plus
    that of the free rows' s_i a_i + y_i a_P on the later columns.
    """
    if not blocks:
        return []
    b = min(DENSE_PANEL, max(a.shape[1] for _, a, _ in blocks))
    wide = blocks[0][1].shape[1] > b  # then s is column b and y follows
    starts = np.cumsum([0] + [a.shape[0] for _, a, _ in blocks]).tolist()
    work = np.zeros((starts[-1], 2 * b + 1 if wide else b), dtype=np.int64)
    for (_, a, _), lo, hi in zip(blocks, starts, starts[1:]):
        work[lo:hi, : min(b, a.shape[1])] = a[:, :b]
    work[:, b : b + 1] = 1  # the scales s; a narrow panel has no column b
    mod = np.repeat([p for _, _, p in blocks], np.diff(starts))
    p = blocks[0][2] if (mod == blocks[0][2]).all() else 0
    owner = np.repeat(np.arange(len(blocks)), np.diff(starts))
    taken = np.full(len(owner), -1)  # the column each pivot row was taken in
    for c in range(b):
        column = work[:, c]
        rows = column.nonzero()[0]
        if not rows.size:
            continue
        of = owner[rows]
        if of[0] == of[-1]:  # one block: its first row is the others' pivot
            pivots, rest, pivot_of = rows[:1], rows[1:], rows[0]
        else:
            first = np.concatenate(([True], of[1:] != of[:-1]))
            pivots, later = rows[first], ~first
            rest, pivot_of = rows[later], np.maximum.accumulate(rows * first)[later]
        taken[pivots] = c
        if wide:
            work[pivots, b + 1 + c] = work[pivots, b]
            work[pivots, b] = 0
        # columns past y[c] are still zero in every row, so they stay as they are
        live = slice(c + 1, b + 2 + c)
        if rest.size:
            sub = work[rest, live]
            sub *= column[pivot_of, None]
            sub -= work[pivot_of, live] * column[rest, None]
            if p:  # one divisor: numpy's x // p is far faster than x % p
                sub -= sub // p * p
            else:
                sub %= mod[rest, None]
            work[rest, live] = sub
        work[pivots, live] = 0
    for (i, _, _), n in zip(blocks, np.bincount(owner[taken >= 0], minlength=len(blocks))):
        ranks[i] += int(n)
    if not wide:
        return []
    out = []
    for (i, a, p), lo, hi in zip(blocks, starts, starts[1:]):
        free, pivots = np.flatnonzero(taken[lo:hi] < 0), np.flatnonzero(taken[lo:hi] >= 0)
        schur = work[lo + free, b : b + 1] * a[free, b:]
        schur += matmul_modp(work[np.ix_(lo + free, b + 1 + taken[lo + pivots])], a[pivots, b:], p)
        schur -= schur // p * p
        out.append((i, schur, p))
    return out


# -- sparse Markowitz elimination ---------------------------------------------------


def rank_sparse_modp(num_rows: int, num_cols: int, rows_idx, cols_idx, vals,
                     p: int) -> int:
    """Markowitz-pivoted sparse elimination mod p with a dense escape hatch.

    Pivots greedily by Markowitz cost (nnz_row - 1) * (nnz_col - 1) over the
    lightest columns, tie-broken by lowest (row, col).  When the active part
    fills in or shrinks it is handed to the dense kernel.
    """
    rows: list[dict[int, int] | None] = [dict() for _ in range(num_rows)]
    for r, c, v in zip(*(np.asarray(x).tolist() for x in (rows_idx, cols_idx, vals))):
        row = rows[r]
        acc = (row.get(c, 0) + v) % p
        if acc:
            row[c] = acc
        else:
            row.pop(c, None)
    col_rows: list[set[int]] = [set() for _ in range(num_cols)]
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)
    alive_cols = set(c for c in range(num_cols) if col_rows[c])
    live_rows = sum(1 for row in rows if row)
    nnz = sum(len(row) for row in rows if row)
    rank = 0
    while alive_cols and live_rows:
        # drop columns emptied by cancellation, lazily
        min_count = min(len(col_rows[c]) for c in alive_cols)
        if min_count == 0:
            alive_cols = {c for c in alive_cols if col_rows[c]}
            continue
        density = nnz / (live_rows * len(alive_cols))
        if len(alive_cols) <= DENSE_COLS or density > ESCAPE_DENSITY:
            rank += _dense_escape(rows, alive_cols, p)
            return rank
        # lightest columns first; among them pick the cheapest entry
        candidates = sorted(c for c in alive_cols if len(col_rows[c]) == min_count)
        best = None
        for c in candidates[:16]:
            for r in col_rows[c]:
                cost = (len(rows[r]) - 1) * (min_count - 1)
                key = (cost, r, c)
                if best is None or key < best:
                    best = key
        _, r0, c0 = best
        pivot_row = rows[r0]
        inv = pow(pivot_row[c0], -1, p)
        pivot_items = [(c, v * inv % p) for c, v in pivot_row.items()]
        for r in list(col_rows[c0]):
            if r == r0:
                continue
            row = rows[r]
            factor = row[c0]
            for c, v in pivot_items:
                acc = (row.get(c, 0) - factor * v) % p
                if acc:
                    if c not in row:
                        col_rows[c].add(r)
                        nnz += 1
                    row[c] = acc
                elif c in row:
                    del row[c]
                    col_rows[c].discard(r)
                    nnz -= 1
            if not row:
                rows[r] = None
                live_rows -= 1
        # retire the pivot row and column
        for c in pivot_row:
            col_rows[c].discard(r0)
        nnz -= len(pivot_row)
        rows[r0] = None
        live_rows -= 1
        alive_cols.discard(c0)
        rank += 1
    return rank


def _dense_escape(rows, alive_cols, p: int) -> int:
    col_list = sorted(alive_cols)
    col_pos = {c: i for i, c in enumerate(col_list)}
    live = [row for row in rows if row]
    a = np.zeros((len(live), len(col_list)), dtype=np.int64)
    for i, row in enumerate(live):
        for c, v in row.items():
            a[i, col_pos[c]] = v
    return rank_dense_modp([(a, p)])[0]


# -- Wiedemann blackbox ---------------------------------------------------------------
# No rank route calls it; perfbench/tracing.py still wraps rank_blackbox_modp.


def _csr_arrays(num_rows: int, rows_idx, cols_idx, vals):
    order = np.lexsort((cols_idx, rows_idx))
    rs = np.asarray(rows_idx, dtype=np.int64)[order]
    cs = np.asarray(cols_idx, dtype=np.int64)[order]
    vs = np.asarray(vals, dtype=np.int64)[order]
    indptr = np.searchsorted(rs, np.arange(num_rows + 1))
    return indptr, cs, vs


def _csr_matvec_modp(indptr, indices, data, v, p: int) -> np.ndarray:
    # products reduced before the segment sums so int64 never overflows
    t = data * v[indices] % p
    csum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(t)))
    return (csum[indptr[1:]] - csum[indptr[:-1]]) % p


def berlekamp_massey_modp(seq, p: int) -> np.ndarray:
    """Minimal LFSR connection polynomial of seq over F_p, low degree first."""
    s = np.asarray(seq, dtype=np.int64) % p
    cpoly = np.zeros(len(s) + 1, dtype=np.int64)
    bpoly = np.zeros(len(s) + 1, dtype=np.int64)
    cpoly[0] = bpoly[0] = 1
    length = 0
    m = 1
    b = 1
    for i in range(len(s)):
        if length:
            window = s[i - length : i][::-1]
            delta = (int(s[i]) + int(np.sum(cpoly[1 : length + 1] * window % p))) % p
        else:
            delta = int(s[i]) % p
        if delta == 0:
            m += 1
            continue
        told = cpoly.copy()
        coef = delta * pow(b, -1, p) % p
        cpoly[m : len(s) + 1] = (cpoly[m : len(s) + 1] - coef * bpoly[: len(s) + 1 - m]) % p
        if 2 * length <= i:
            length, bpoly, b, m = i + 1 - length, told, delta, 1
        else:
            m += 1
    return cpoly[: length + 1]


def rank_blackbox_modp(num_rows: int, num_cols: int, rows_idx, cols_idx, vals,
                       p: int, rng, trials: int = 2) -> int:
    """Monte Carlo Wiedemann rank mod p; never exceeds the true rank.

    Preconditions A to B = D2 A^T D1^2 A D2 with random diagonals; the degree
    of the minimal generating polynomial of u^T B^i v (minus one when x
    divides it) is, with high probability, rank(A).
    """
    indptr, idx, dat = _csr_arrays(num_rows, rows_idx, cols_idx, vals)
    indptr_t, idx_t, dat_t = _csr_arrays(num_cols, cols_idx, rows_idx, vals)
    size = num_cols
    best = 0
    for _ in range(trials):
        d1 = np.array([rng.randrange(1, p) for _ in range(num_rows)], dtype=np.int64)
        d2 = np.array([rng.randrange(1, p) for _ in range(num_cols)], dtype=np.int64)
        d1sq = d1 * d1 % p
        u = np.array([rng.randrange(p) for _ in range(size)], dtype=np.int64)
        v = np.array([rng.randrange(p) for _ in range(size)], dtype=np.int64)

        def apply_b(x):
            y = d2 * x % p
            y = _csr_matvec_modp(indptr, idx, dat, y, p)
            y = d1sq * y % p
            y = _csr_matvec_modp(indptr_t, idx_t, dat_t, y, p)
            return d2 * y % p

        seq = np.empty(2 * size + 2, dtype=np.int64)
        x = v
        for i in range(len(seq)):
            seq[i] = np.sum(u * x % p) % p
            x = apply_b(x)
        gen = berlekamp_massey_modp(seq, p)
        degree = len(gen) - 1
        # trailing coefficient of the reversed generator = constant term of minpoly
        estimate = degree - 1 if degree and gen[degree] == 0 else degree
        best = max(best, estimate)
    return best


# -- exact fraction-free elimination ---------------------------------------------------


def rank_exact(matrix: StrandMatrix, modular: list[int] | None = None) -> int:
    """Rank over the rationals: each piece's Bareiss rank times its orbit's size.

    `modular`, when given, holds a rank mod some prime of each piece, in the
    order of matrix.pieces.  A rank mod p never exceeds the rank over Q,
    which never exceeds min(rows, cols), so a piece whose modular rank
    reaches min(rows, cols) has that rank and is not eliminated.
    """
    if modular is None:
        modular = [-1] * len(matrix.pieces)
    return sum(count * (bound if bound == min(piece.num_rows, piece.num_cols)
                        else _rank_bareiss(piece))
               for (piece, count), bound in zip(matrix.pieces, modular, strict=True))


def _rank_bareiss(matrix: StrandMatrix) -> int:
    """Rank over the rationals by integer fraction-free (Bareiss) elimination."""
    m, n = matrix.num_rows, matrix.num_cols
    dense: list[list] = [[0] * n for _ in range(m)]
    for r, c, v in zip(matrix.rows.tolist(), matrix.cols.tolist(),
                       matrix.values.tolist()):
        dense[r][c] += v
    rank = 0
    prev = 1
    for c in range(n):
        pivot = next((r for r in range(rank, m) if dense[r][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            dense[rank], dense[pivot] = dense[pivot], dense[rank]
        prow = dense[rank]
        pval = prow[c]
        for r in range(rank + 1, m):
            row = dense[r]
            rval = row[c]
            for j in range(c + 1, n):
                q, rem = divmod(row[j] * pval - rval * prow[j], prev)
                if rem:
                    raise ArithmeticError("fraction-free division failed")
                row[j] = q
            row[c] = 0
        prev = pval
        rank += 1
        if rank == m:
            break
    return rank


def rank_gaussian_field(rows: list[list], zero=None) -> int:
    """Rank of a dense matrix over any exact field via plain elimination.

    Entries need ring operators, truthiness as the zero test, and division.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    n = len(rows[0])
    rank = 0
    for c in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv_items = [(j, prow[j] / prow[c]) for j in range(c + 1, n) if prow[j]]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][c]
            if factor:
                row = rows[r]
                for j, q in inv_items:
                    row[j] = row[j] - factor * q
                row[c] = zero if zero is not None else factor - factor
        rank += 1
        if rank == len(rows):
            break
    return rank


# -- certified multi-prime rank ----------------------------------------------------------


@dataclass
class RankConfig:
    """The settable part of certified rank: prime count and seed.

    `primes` is the most primes a strand is ranked at: the first of its
    stream always, the rest only when no proof covers the strand at the
    first.  Defaults match the CLI defaults; the cutoffs are module constants.
    Primes are drawn as 31-bit values: the dense kernel needs p < 2^31 so
    that its int64 panel products stay below 2^62 and the halves of its
    left matmul factor give exact float64 products.
    """

    primes: int = 3
    seed: int | str = 0

    def __post_init__(self):
        if not 1 <= self.primes <= MAX_PRIMES:
            raise ValueError(f"primes must be in 1..{MAX_PRIMES}, not {self.primes}")


# The proofs a RankResult can name; see the module docstring.
PROOFS = ("exact", "full-rank", "oracle", "agreement")


@dataclass
class RankResult:
    """A rank, the primes ranked, the rank mod each, and the proof of the
    rank (one of PROOFS, or None: unproved).  The method that decided it
    and whether exact elimination verified it are read off the proof."""

    rank: int
    primes: list[int] = field(default_factory=list)
    ranks: list[int] = field(default_factory=list)
    proof: str | None = None

    def __post_init__(self):
        if self.proof is not None and self.proof not in PROOFS:
            raise ValueError(f"unknown proof {self.proof!r}")

    @property
    def agreement(self) -> bool:
        return len(set(self.ranks)) <= 1

    @property
    def exact_verified(self) -> bool:
        return self.proof == "exact"

    @property
    def method(self) -> str:
        return "dense-fraction-free" if self.exact_verified else "sparse-elimination"

    @property
    def certified(self) -> bool:
        """The proof holds on the recorded ranks: exact elimination ran;
        full rank or the oracle proves the largest modular rank; or two or
        more primes all gave the rank."""
        if self.proof in ("full-rank", "oracle"):
            return self.rank == max(self.ranks, default=0)
        if self.proof == "agreement":
            return len(self.ranks) > 1 and set(self.ranks) == {self.rank}
        return self.exact_verified

    def to_dict(self) -> dict:
        """Fields and derived values, in a cache entry's key order."""
        return {"rank": self.rank, "primes": list(self.primes),
                "ranks": list(self.ranks), "agreement": self.agreement,
                "certified": self.certified, "method": self.method,
                "exact_verified": self.exact_verified, "proof": self.proof}


def _engine(matrix: StrandMatrix) -> str:
    """The mod-p engine for a nonempty matrix: "dense" or "sparse"."""
    density = matrix.nnz / (matrix.num_rows * matrix.num_cols)
    if matrix.num_cols <= DENSE_COLS or density > DENSE_DENSITY:
        return "dense"
    return "sparse"


def ranks_mod_primes(matrix: StrandMatrix, primes) -> list[int]:
    """Rank mod each prime, the sum over the pieces of each piece's engine rank.

    Each piece of a symmetry orbit's representative is ranked once for all
    the primes and counted with the orbit's size.
    """
    return _totals(matrix, _piece_ranks(matrix, primes), len(primes))


def _piece_ranks(matrix: StrandMatrix, primes) -> list[list[int]]:
    """Each piece's rank mod each prime, in the order of matrix.pieces.
    Markowitz takes a sparse piece one prime at a time; the dense (piece,
    prime) pairs go to rank_dense_modp in as few calls as keep their cells
    within STACK_CELLS."""
    primes = tuple(primes)
    out, calls, cells = [], [[]], 0
    for i, (piece, _) in enumerate(matrix.pieces):
        if _engine(piece) == "sparse":
            out.append([rank_sparse_modp(piece.num_rows, piece.num_cols, piece.rows,
                                         piece.cols, vals, p)
                        for p, vals in zip(primes, _residues(piece.values, primes))])
            continue
        out.append([0] * len(primes))
        size = piece.num_rows * piece.num_cols
        for j in range(len(primes)):
            if calls[-1] and cells + size > STACK_CELLS:
                calls.append([])
                cells = 0
            calls[-1].append((i, j))
            cells += size
    for call in calls:
        blocks = []
        for i, pairs in groupby(call, key=lambda pair: pair[0]):
            ps = [primes[j] for _, j in pairs]
            blocks += zip(matrix.pieces[i][0].residues(ps), ps)
        for (i, j), rank in zip(call, rank_dense_modp(blocks)):
            out[i][j] = rank
    return out


def _totals(matrix: StrandMatrix, piece_ranks, num_primes: int) -> list[int]:
    """The matrix's rank mod each prime: its pieces' ranks times their counts."""
    totals = [0] * num_primes
    for (_, count), ranks in zip(matrix.pieces, piece_ranks):
        for j, rank in enumerate(ranks):
            totals[j] += count * rank
    return totals


def rank_mod_p(matrix: StrandMatrix, p: int) -> int:
    """Rank mod p: ranks_mod_primes for the one prime."""
    return ranks_mod_primes(matrix, (p,))[0]


def certified_rank(matrix: StrandMatrix, config: RankConfig | None = None, *,
                   salt: str = "", oracle=None) -> RankResult:
    """Rank mod primes, with the proof that certifies it.

    Ranks every piece mod the first prime of the stream seeded by seed and
    salt, as ranks_mod_primes does, keeping each piece's ranks; _proved
    names the proof.  A rank that exact elimination or full rank proves is
    kept at that one prime.  Otherwise `oracle`, when given, is called: a
    callable that returns the matrix's rank proved another way, or None
    where it has none.  A modular rank equal to the oracle's is proved by
    it; one above it raises ArithmeticError naming k and the prime.  Below
    it, or with no oracle's rank, the rest of the stream, up to `primes`,
    is drawn and ranked too, the same primes that one draw of all of them
    gives; with the oracle's rank still unreached the largest modular rank
    is kept, uncertified, never replaced by the oracle's.
    """
    if config is None:
        config = RankConfig()
    if not matrix.nnz:  # no columns: rank 0 is min(rows, cols)
        return RankResult(rank=0, proof="full-rank")
    rng = random.Random(f"{config.seed}|{salt}")
    primes = draw_distinct_primes(rng, 1)
    piece_ranks = _piece_ranks(matrix, primes)
    res = _proved(matrix, primes, piece_ranks)
    if res.proof:
        return res
    target = oracle() if oracle else None
    if (target is None or res.rank < target) and config.primes > 1:
        rest = draw_distinct_primes(rng, config.primes - 1, exclude=primes)
        primes = primes + rest
        piece_ranks = [a + b for a, b in zip(piece_ranks, _piece_ranks(matrix, rest))]
    res = _proved(matrix, primes, piece_ranks, target)
    if target is not None and res.rank > target:
        p = res.primes[res.ranks.index(res.rank)]
        raise ArithmeticError(f"strand k={matrix.k}: its rank {res.rank} mod {p} exceeds "
                              f"the rank {target} the node oracle proves")
    return res


def _proved(matrix: StrandMatrix, primes, piece_ranks, target: int | None = None
            ) -> RankResult:
    """The RankResult of the pieces' ranks mod primes, with its proof.

    A matrix of at most EXACT_VERIFY_COLS columns, or with no target of at
    most EXACT_FALLBACK_COLS whose primes disagree, is ranked exactly, and
    that rank is authoritative: rank_exact eliminates the pieces whose
    largest modular rank does not already prove theirs.  Otherwise the
    rank is the largest modular rank, proved by full rank when every piece
    reaches min(rows, cols) mod some prime, else by the target when it
    equals it, else, with no target, by the agreement of two or more
    primes.
    """
    ranks = _totals(matrix, piece_ranks, len(primes))
    best = [max(r) for r in piece_ranks]
    if matrix.num_cols <= EXACT_VERIFY_COLS or (
            target is None and len(set(ranks)) > 1 and matrix.num_cols <= EXACT_FALLBACK_COLS):
        return RankResult(rank_exact(matrix, best), primes, ranks, proof="exact")
    rank = max(ranks)
    if all(b == min(piece.num_rows, piece.num_cols)
           for (piece, _), b in zip(matrix.pieces, best, strict=True)):
        proof = "full-rank"
    elif target is not None:
        proof = "oracle" if rank == target else None
    else:
        proof = "agreement" if len(ranks) > 1 and len(set(ranks)) == 1 else None
    return RankResult(rank=rank, primes=primes, ranks=ranks, proof=proof)
