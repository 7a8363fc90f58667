"""Exact rank computation for graded Jacobian strands.

The degree-k strand of a Jacobian ideal is the linear map
(h_0, ..., h_n) -> sum h_i * f_i from (n+1) copies of the degree k-d+1
graded piece into the degree-k piece.  Ranks are computed modulo several
random 31-bit primes; ranks mod p never exceed the rational rank, so the
maximum over primes is a proved lower bound.  A matrix of at most
EXACT_VERIFY_COLS columns is also ranked exactly, by fraction-free
elimination.  A larger one whose primes disagree is ranked exactly up to
EXACT_FALLBACK_COLS columns, and past that reported uncertified.  Past
those sizes `certified` means that the primes agree, not a proof.
RankConfig holds the only settable values, the prime count and the seed;
every cutoff is a module constant below.

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
jacobian_strand_matrix, the one place that knows the strand layout; those
map blocks onto blocks with the same entries, the same union-find joins
such blocks into orbits, and one block per orbit is ranked and counted with
the orbit's size.  A representative that some of them map onto itself, of
at least SPLIT_CELLS cells, is cut by milnor.symmetry into one piece per
+-1 character of the group G = Z2^t that a maximal set of disjoint such
transpositions generates.  For odd d, where no two blocks are alike, this
is the only symmetry that helps: CC(3,5) at k=13 is one 560x880 block,
cut into 308x470 and 252x410 pieces.  Each piece gets one of two engines:
  * dense mod-p elimination a panel of columns at a time: int64 row
    operations on the panel, then the Schur complement of the remaining
    columns in float64 BLAS matmuls of the left factor's two halves (exact
    for p < 2^31).  The products run on one BLAS thread: they come as
    chunks at most 64 deep from a Python loop, too shallow for a second
    thread to help, and between them a BLAS worker thread only spins, so
    its CPU time buys nothing.  milnor's parallelism is the --jobs process
    pool, whose workers run the same products.  A piece is ranked mod a
    batch of primes at once: its residues form one (rows, primes, cols)
    stack, and every prime is eliminated with the same pivot rows.  It
    ranks every piece of CC(4,4) and CC(3,5);
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
from itertools import combinations
from math import lcm

import numpy as np

from .domains import draw_distinct_primes
from .monomials import exponent_array, grlex_ranks, num_monomials
from .symmetry import CharacterSplit, summed

# Engine thresholds, applied by _engine to each piece: narrow or dense
# pieces go straight to the dense kernel and the rest to Markowitz elimination.
# Markowitz elimination hands its active submatrix to the dense kernel once
# it has at most DENSE_COLS columns or a density above ESCAPE_DENSITY; the
# dense kernel takes DENSE_PANEL columns per panel.  A dense piece is
# stacked with as many primes as keep rows x primes x cols within
# STACK_CELLS (at least one), so large pieces keep one prime at a time and
# their peak memory does not grow with the prime count.  An orbit
# representative below SPLIT_CELLS cells is ranked whole: cutting it into
# character pieces costs more than the smaller eliminations save.
DENSE_COLS = 700
DENSE_DENSITY = 0.02
ESCAPE_DENSITY = 0.04
DENSE_PANEL = 48
STACK_CELLS = 1 << 17
SPLIT_CELLS = 1 << 12

# Certification cutoffs, applied by certified_rank: a matrix of at most
# EXACT_VERIFY_COLS columns is always ranked exactly, and one of at most
# EXACT_FALLBACK_COLS columns when the primes disagree.  cache_key hashes
# both, since they decide method, exact_verified and certified.
EXACT_VERIFY_COLS = 48
EXACT_FALLBACK_COLS = 2000


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
    them.  Blocks exchanged by the symmetries are ranked once, and a block
    that some of them map onto itself is split by their characters.  The
    default () claims nothing; a map that does not permute the rows or the
    columns raises ValueError naming its pair.
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

        The orbits are the classes of blocks under the kept transpositions;
        every block of an orbit has its representative's rank mod every
        prime and over Q.  Without symmetries each block is its own orbit.
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
        """The blocks, the row of each block's first entry, the block of
        each row and column node (rows first, then columns; -1 when empty),
        and each node's place among the rows or columns of its block."""
        m, size, nnz = self.num_rows, self.num_rows + self.num_cols, self.nnz
        root = _union_find(size, self.rows, m + self.cols)
        if nnz and (root == root[0]).all():
            return [self], self.rows[:1], np.zeros(size, dtype=np.int64), np.r_[
                np.arange(m), np.arange(self.num_cols)]
        # local[v]: the place of row or column v among the rows or columns of
        # its block, read off the nodes sorted by (root, node)
        key = np.sort(root * size + np.arange(size))
        nodes, rows = np.bincount(root, minlength=size), np.bincount(root[:m], minlength=size)
        local = np.empty(size, dtype=np.int64)
        local[key % size] = np.arange(size) - (np.cumsum(nodes) - nodes)[key // size]
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
        return blocks, first, block_of[root], local

    @cached_property
    def _orbit_counts(self) -> list[tuple[int, int]]:
        """One (representative block index, multiplicity) pair per orbit.

        A symmetry maps the block holding row r onto the block holding the
        swapped monomial, so the first row of each block joins the orbits.
        A joined block must match its representative in shape, nnz and
        sorted entry values, or the claimed symmetry is false: ValueError.
        """
        blocks, first, block_of, _ = self._components
        orbit = np.arange(len(blocks))
        if self.symmetries and blocks:
            # targets[b, s]: the block that symmetry s maps block b onto
            targets = block_of[np.stack([rows[first] for _, rows, _ in self.symmetries],
                                        axis=1)]
            if (targets < 0).any():
                pair = self.symmetries[(targets < 0).any(axis=0).argmax()][0]
                raise ValueError(f"transposition {pair} maps a block onto empty rows")
            orbit = _union_find(len(blocks), np.repeat(orbit, len(self.symmetries)),
                                targets.ravel())
        reps: dict[int, list] = {}
        for b, root in enumerate(orbit.tolist()):
            rep = reps.setdefault(root, [b, 0])
            if rep[1]:
                _check_same_entries(blocks[b], blocks[rep[0]])
            rep[1] += 1
        return [(b, count) for b, count in reps.values()]

    def residues(self, primes) -> np.ndarray:
        """The (rows, primes, cols) int64 stack of the matrix mod each prime."""
        vals = _residues(self.values, primes)
        out = np.zeros((self.num_rows, len(primes), self.num_cols), dtype=np.int64)
        flat = np.sort(self.rows * self.num_cols + self.cols)
        if (flat[1:] != flat[:-1]).all():
            out[self.rows, :, self.cols] = vals
        else:  # repeated positions add up
            np.add.at(out, (self.rows, slice(None), self.cols), vals)
            out %= np.array(primes, dtype=np.int64)[:, None]
        return out

    def _split(self, b: int) -> list[StrandMatrix]:
        """Block b cut into one piece per +-1 character of its symmetry group.

        The group G = Z2^t is generated by a maximal set of pairwise
        disjoint transpositions that map the block onto itself, kept
        greedily in the order of `symmetries`; each must keep every entry,
        and together they must act as commuting involutions, or ValueError.
        milnor.symmetry cuts the pieces, whose ranks add up to the block's
        over Q and mod every odd prime; pieces without entries are dropped.
        """
        blocks, first, block_of, local = self._components
        block, m = blocks[b], self.num_rows
        row_ids = np.flatnonzero(block_of[:m] == b)
        col_ids = np.flatnonzero(block_of[m:] == b)
        gens, moved = [], set()
        for (i, j), row_map, col_map in self.symmetries:
            if i in moved or j in moved or block_of[row_map[first[b]]] != b:
                continue
            row_img, col_img = row_map[row_ids], m + col_map[col_ids]
            if (block_of[row_img] != b).any() or (block_of[col_img] != b).any():
                raise ValueError(f"transposition {(i, j)} maps a block partly "
                                 f"onto another")
            gens.append((local[row_img], local[col_img]))
            _check_kept_entries(block, *gens[-1], (i, j))
            moved |= {i, j}
        if not gens:
            return [block]
        split = CharacterSplit((block.num_rows, block.num_cols),
                               [(rho, pi, None) for rho, pi in gens])
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


def _check_same_entries(block: StrandMatrix, rep: StrandMatrix) -> None:
    """Raise unless block could be rep with rows and columns permuted.

    A symmetry permutes rows and columns and keeps every entry, so the
    shape, nnz and sorted entry values of joined blocks agree.
    """
    shape, rep_shape = ((b.num_rows, b.num_cols, b.nnz) for b in (block, rep))
    if shape != rep_shape:
        raise ValueError(f"a block of shape {shape} joins the "
                         f"orbit of one of shape {rep_shape}")
    if not np.array_equal(np.sort(block.values), np.sort(rep.values)):
        raise ValueError("a block joins the orbit of one with other entry "
                         "values")


def _check_kept_entries(block: StrandMatrix, row_perm, col_perm, pair) -> None:
    """Raise unless permuting block's rows and columns keeps every entry."""
    width = block.num_cols
    keys, values = summed(block.rows * width + block.cols, block.values)
    moved = summed(row_perm[block.rows] * width + col_perm[block.cols], block.values)
    if not (np.array_equal(keys, moved[0]) and np.array_equal(values, moved[1])):
        raise ValueError(f"transposition {pair} maps a block onto itself "
                         f"but changes its entries")


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
    """The (len(values), len(primes)) int64 table of values mod each prime."""
    out = values[:, None] % np.array(primes, dtype=np.int64)
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


def rank_dense_modp(a: np.ndarray, p):
    """Rank of an int64 matrix mod p < 2^31; entries must lie in [0, p).

    Given instead a (rows, primes, cols) stack and a sequence of primes p,
    with a[:, j] reduced mod p[j], returns the list of ranks mod each
    prime, eliminating them all in one lockstep pass.  The input is not
    changed.
    """
    if a.ndim == 2:
        return _rank_stack(a[:, None, :], (p,))[0]
    return _rank_stack(a, tuple(p))


def _rank_stack(a: np.ndarray, primes: tuple[int, ...]) -> list[int]:
    """Ranks of the (rows, primes, cols) stack a, a[:, j] mod primes[j].

    Takes DENSE_PANEL columns at a time.  The panel is eliminated in int64
    (every product stays below 2^62) over the rows with no pivot yet, and
    each row operation is also applied to a record y, with y[r, k] = 1 when
    row r becomes the k-th pivot.  A row i left without a pivot is then
    a_i + y_i a_P on the later columns, a_P the pivot rows, so the rank is
    the pivot count plus the rank of that Schur complement, which takes one
    matmul_modp per panel and prime.

    Every prime pivots on the same row: the first free one that is nonzero
    mod all of them.  Rows nonzero mod only some primes are reduced mod
    those, so each prime sees its own elimination and all share one rank.
    A column with a candidate mod some prime but no row nonzero mod all of
    them splits the stack: each prime then ranks the panel's input alone.
    """
    mod = np.array(primes, dtype=np.int64)
    rank = 0
    while a.shape[0] and a.shape[2]:
        m, n = a.shape[0], a.shape[2]
        b = min(DENSE_PANEL, n)
        work = np.zeros((m, len(primes), 2 * b), dtype=np.int64)  # panel | y
        work[:, :, :b] = a[:, :, :b]
        free = np.ones(m, dtype=bool)
        pivots: list[int] = []
        for c in range(b):
            # pivot rows are zeroed once used, so only free rows show here;
            # residues are >= 0, so max and min over the primes test them
            column = work[:, :, c]
            if not np.count_nonzero(column):
                continue
            rows = np.maximum.reduce(column, axis=1).nonzero()[0]
            common = np.minimum.reduce(column[rows], axis=1) != 0
            if common[0]:
                r, rest = rows[0], rows[1:]
            elif common.any():
                i = common.argmax()
                r, rest = rows[i], np.delete(rows, i)
            else:
                return [rank + _rank_stack(a[:, j : j + 1], (p,))[0]
                        for j, p in enumerate(primes)]
            pivot = work[r]
            pivot[:, b + len(pivots)] = 1
            if rest.size:
                inv = [pow(v, -1, p) for v, p in zip(pivot[:, c].tolist(), primes)]
                sub = work[rest, :, c:]
                f = sub[:, :, 0] * np.array(inv, dtype=np.int64) % mod
                sub -= f[:, :, None] * pivot[:, c:]
                sub %= mod[:, None]
                work[rest, :, c:] = sub
            pivot[:] = 0
            free[r] = False
            pivots.append(r)
            if len(pivots) == m:
                break
        rank += len(pivots)
        rest = np.flatnonzero(free)
        if rest.size == 0 or b == n:
            break
        schur = [matmul_modp(work[rest, j, b : b + len(pivots)], a[pivots, j, b:], p)
                 for j, p in enumerate(primes)]
        # a stack of one takes its product as it is: large blocks come one
        # prime at a time, and a copy would add to their peak memory
        a_next = schur[0][:, None] if len(schur) == 1 else np.stack(schur, axis=1)
        del schur
        a_next += a[rest, :, b:]
        a_next %= mod[:, None]
        a = a_next
    return [rank] * len(primes)


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
    return rank_dense_modp(a, p)


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
        elif 2 * length <= i:
            told = cpoly.copy()
            coef = delta * pow(b, -1, p) % p
            cpoly[m : len(s) + 1] = (cpoly[m : len(s) + 1] - coef * bpoly[: len(s) + 1 - m]) % p
            length = i + 1 - length
            bpoly = told
            b = delta
            m = 1
        else:
            coef = delta * pow(b, -1, p) % p
            cpoly[m : len(s) + 1] = (cpoly[m : len(s) + 1] - coef * bpoly[: len(s) + 1 - m]) % p
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
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][c]:
                pivot = r
                break
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

    Defaults match the CLI defaults; the cutoffs are module constants.
    Primes are drawn as 31-bit values: the dense kernel needs p < 2^31 so
    that its int64 panel products stay below 2^62 and the halves of its
    left matmul factor give exact float64 products.
    """

    primes: int = 3
    seed: int | str = 0

    def __post_init__(self):
        if self.primes < 1:
            raise ValueError(f"primes must be at least 1, not {self.primes}")


@dataclass
class RankResult:
    rank: int
    primes: list[int] = field(default_factory=list)
    ranks: list[int] = field(default_factory=list)
    agreement: bool = True
    certified: bool = True
    method: str = "sparse-elimination"
    exact_verified: bool = False


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
    """Each piece's rank mod each prime, in the order of matrix.pieces."""
    primes = tuple(primes)
    return [_block_ranks(piece, primes) for piece, _ in matrix.pieces]


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


def _block_ranks(block: StrandMatrix, primes: tuple[int, ...]) -> list[int]:
    """A block's rank mod each prime.  Dense blocks take the primes in
    stacks within STACK_CELLS; Markowitz takes one prime at a time."""
    if _engine(block) == "sparse":
        return [rank_sparse_modp(block.num_rows, block.num_cols, block.rows,
                                 block.cols, vals, p)
                for p, vals in zip(primes, _residues(block.values, primes).T)]
    ranks = []
    per = max(1, STACK_CELLS // (block.num_rows * block.num_cols))
    for i in range(0, len(primes), per):
        batch = primes[i : i + per]
        ranks += rank_dense_modp(block.residues(batch), batch)
    return ranks


def certified_rank(matrix: StrandMatrix, config: RankConfig | None = None, *,
                   salt: str = "") -> RankResult:
    """Multi-prime rank with certification.

    Draws `primes` distinct random 31-bit primes from the stream seeded by
    seed and salt and ranks every piece mod all of them, as
    ranks_mod_primes does, keeping each piece's ranks.  A matrix
    of at most EXACT_VERIFY_COLS columns, or of at most EXACT_FALLBACK_COLS
    when the primes disagree, is then ranked exactly, and that rank is
    authoritative: rank_exact eliminates the pieces whose largest modular
    rank does not already prove theirs.  Otherwise the rank is the largest
    modular rank, certified only when every prime agrees.
    """
    if config is None:
        config = RankConfig()
    if not matrix.nnz:
        return RankResult(rank=0, method="sparse-elimination")
    rng = random.Random(f"{config.seed}|{salt}")
    primes = draw_distinct_primes(rng, config.primes)
    piece_ranks = _piece_ranks(matrix, primes)
    ranks = _totals(matrix, piece_ranks, len(primes))
    agreement = len(set(ranks)) == 1
    if matrix.num_cols <= EXACT_VERIFY_COLS or (
            not agreement and matrix.num_cols <= EXACT_FALLBACK_COLS):
        exact = rank_exact(matrix, [max(r) for r in piece_ranks])
        return RankResult(rank=exact, primes=primes, ranks=ranks,
                          agreement=agreement, method="dense-fraction-free",
                          exact_verified=True)
    return RankResult(rank=max(ranks), primes=primes, ranks=ranks,
                      agreement=agreement, certified=agreement)
