"""Rank engines cross-checked against a naive reference and each other."""

import json
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import FERMAT_TEXT, KUMMER_TEXT
from milnor import linalg
from milnor.chebyshev import build, canonical_spec
from milnor.domains import draw_distinct_primes
from milnor.linalg import (
    RankConfig,
    RankResult,
    StrandMatrix,
    berlekamp_massey_modp,
    certified_rank,
    jacobian_strand_matrix,
    matmul_modp,
    rank_blackbox_modp,
    rank_dense_modp,
    rank_exact,
    rank_gaussian_field,
    rank_mod_p,
    rank_sparse_modp,
    ranks_mod_primes,
)
from milnor.monomials import exponent_array, grlex_ranks, monomial_index, monomials_of_degree
from milnor.poly import SparsePolynomial, parse_polynomial, partial_derivatives
from milnor.report import RunConfig, analyze
from milnor.symmetry import summed


def naive_rank_modp(a, p):
    a = [[int(v) % p for v in row] for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, m) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for r in range(m):
            if r != rank and a[r][c]:
                f = a[r][c]
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[rank])]
        rank += 1
    return rank


def random_matrix(rng, m, n, p, density=0.5, rank_cap=None):
    if rank_cap is not None:
        # product of m x r and r x n has rank at most rank_cap, usually exactly
        left = [[rng.randrange(p) for _ in range(rank_cap)] for _ in range(m)]
        right = [[rng.randrange(p) for _ in range(n)] for _ in range(rank_cap)]
        return [[sum(left[i][k] * right[k][j] for k in range(rank_cap)) % p
                 for j in range(n)] for i in range(m)]
    return [[rng.randrange(1, p) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def split_triples(entries):
    """The row, column and value lists of (row, col, value) triples."""
    return [e[0] for e in entries], [e[1] for e in entries], [e[2] for e in entries]


def entry_triples(sm):
    """The entries of sm as (row, col, value) triples, in order."""
    return list(zip(sm.rows.tolist(), sm.cols.tolist(), sm.values.tolist()))


def to_triplets(a):
    entries = [(i, j, v) for i, row in enumerate(a) for j, v in enumerate(row) if v]
    return StrandMatrix(len(a), len(a[0]) if a else 0, *split_triples(entries))


def test_matmul_modp_exact():
    rng = random.Random(11)
    for p in (97, (1 << 31) - 1, 2147482951):
        a = np.array([[rng.randrange(p) for _ in range(17)] for _ in range(9)],
                     dtype=np.int64)
        b = np.array([[rng.randrange(p) for _ in range(13)] for _ in range(17)],
                     dtype=np.int64)
        want = np.array([[int(sum(int(a[i, k]) * int(b[k, j]) for k in range(17)) % p)
                          for j in range(13)] for i in range(9)])
        got = matmul_modp(a % p, b % p, p)
        assert np.array_equal(got, want)


def test_matmul_modp_largest_residues_and_empty_inner():
    # p - 1 everywhere over a long inner dimension: (p-1)^2 = 1 mod p
    p = (1 << 31) - 1
    a = np.full((3, 5000), p - 1, dtype=np.int64)
    assert np.array_equal(matmul_modp(a, a.T.copy(), p), np.full((3, 3), 5000))
    empty = matmul_modp(np.zeros((2, 0), dtype=np.int64),
                        np.zeros((0, 4), dtype=np.int64), p)
    assert empty.shape == (2, 4) and not empty.any()


@pytest.mark.parametrize("inner", [64, 65])
def test_matmul_modp_exact_at_chunk_edges(inner):
    # one inner chunk holds 64 indices; p - 1 everywhere is the largest
    # float64 sum a chunk can make, and against p - 2 its terms are odd, so
    # a sum past 2^53 would round
    p = (1 << 31) - 1
    a = np.full((4, inner), p - 1, dtype=np.int64)
    assert np.array_equal(matmul_modp(a, a.T.copy(), p), np.full((4, 4), inner))
    b = np.full((inner, 3), p - 2, dtype=np.int64)
    assert np.array_equal(matmul_modp(a, b, p), np.full((4, 3), 2 * inner))
    rng = random.Random(inner)
    a = np.array([[rng.randrange(p) for _ in range(inner)] for _ in range(5)],
                 dtype=np.int64)
    b = np.array([[rng.randrange(p) for _ in range(7)] for _ in range(inner)],
                 dtype=np.int64)
    want = (a.astype(object) @ b.astype(object)) % p
    assert np.array_equal(matmul_modp(a, b, p), want.astype(np.int64))


def _openblas_or_skip():
    blas = linalg._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS is mapped into this process")
    return blas


class _SeesThreads(np.ndarray):
    """An array whose products record the BLAS thread count they run on.

    matmul_modp keeps the subclass through its float64 copies of a, so
    its products go through __matmul__ here."""

    seen: list = []
    fail = False

    def __matmul__(self, other):
        _SeesThreads.seen.append(linalg._openblas_threads()[0]())
        if _SeesThreads.fail:
            raise RuntimeError("product failed")
        return np.asarray(self) @ np.asarray(other)


@pytest.mark.parametrize("fail", [False, True])
def test_matmul_modp_runs_on_one_blas_thread(monkeypatch, fail):
    get, put = _openblas_or_skip()
    original = get()
    monkeypatch.setattr(_SeesThreads, "seen", [])
    monkeypatch.setattr(_SeesThreads, "fail", fail)
    p = 2147483029
    a = np.arange(6 * 130, dtype=np.int64).reshape(6, 130).view(_SeesThreads)
    b = np.arange(130 * 4, dtype=np.int64).reshape(130, 4)
    try:
        put(2)  # a count above 1, to see it pinned and then restored
        before = get()
        if fail:
            with pytest.raises(RuntimeError, match="product failed"):
                matmul_modp(a, b, p)
            assert _SeesThreads.seen == [1]
        else:
            got = matmul_modp(a, b, p)
            want = (np.asarray(a).astype(object) @ b.astype(object)) % p
            assert np.array_equal(np.asarray(got), want.astype(np.int64))
            assert _SeesThreads.seen == [1] * 6  # two products per chunk of 64
        assert get() == before
    finally:
        put(original)


def test_openblas_lookup_without_proc_maps(monkeypatch):
    def unreadable(path, *args, **kwargs):
        raise PermissionError(path)

    monkeypatch.setattr(linalg, "open", unreadable, raising=False)
    assert linalg._openblas_threads.__wrapped__() is None
    # with no OpenBLAS found, products run as they are and stay exact
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
    p = (1 << 31) - 1
    a = np.full((3, 70), p - 1, dtype=np.int64)
    assert np.array_equal(matmul_modp(a, a.T.copy(), p), np.full((3, 3), 70))


def _dense_ranks_match_naive(monkeypatch, a, p, panels=(1, 2, 5, 48)):
    """rank_dense_modp equals the naive rank for every panel width, and the
    input is left as it was."""
    want = naive_rank_modp(a, p)
    arr = np.array(a, dtype=np.int64) % p
    for panel in panels:
        monkeypatch.setattr(linalg, "DENSE_PANEL", panel)
        before = arr.copy()
        assert rank_dense_modp(arr, p) == want
        assert np.array_equal(arr, before)
    return want


def test_dense_rank_matches_naive(monkeypatch):
    rng = random.Random(5)
    for trial in range(60):
        p = rng.choice([101, 65537, 2147483029])
        m = rng.randrange(1, 14)
        n = rng.randrange(1, 14)
        cap = rng.randrange(0, min(m, n) + 1) if trial % 2 else None
        a = random_matrix(rng, m, n, p, density=rng.uniform(0.1, 0.9), rank_cap=cap)
        _dense_ranks_match_naive(monkeypatch, a, p)


def test_dense_rank_across_panels(monkeypatch):
    rng = random.Random(16)
    p = 2147483029
    # full rank in the first 48-column panel, rank lost in the later ones
    a = random_matrix(rng, 97, 130, p, rank_cap=60)
    assert _dense_ranks_match_naive(monkeypatch, a, p, panels=(5, 48)) == 60
    # a first panel with no pivot at all
    a = [[0] * 50 + row for row in random_matrix(rng, 30, 40, p, density=0.3)]
    _dense_ranks_match_naive(monkeypatch, a, p, panels=(5, 48))


def test_dense_rank_degenerate_shapes(monkeypatch):
    rng = random.Random(17)
    p = 65537
    for m, n in ((1, 1), (1, 120), (120, 1), (7, 60), (60, 7)):
        a = random_matrix(rng, m, n, p, density=0.5)
        _dense_ranks_match_naive(monkeypatch, a, p)
        assert _dense_ranks_match_naive(monkeypatch, [[0] * n] * m, p) == 0
    assert rank_dense_modp(np.zeros((0, 5), dtype=np.int64), p) == 0
    assert rank_dense_modp(np.zeros((5, 0), dtype=np.int64), p) == 0


def test_dense_rank_largest_residues(monkeypatch):
    p = (1 << 31) - 1  # the largest prime below 2^31
    assert _dense_ranks_match_naive(monkeypatch, [[p - 1] * 70] * 60, p) == 1
    rng = random.Random(18)
    a = [[rng.randrange(p - 8, p) for _ in range(70)] for _ in range(60)]
    _dense_ranks_match_naive(monkeypatch, a, p)


def test_dense_rank_one_matmul_per_panel(monkeypatch):
    calls = []
    original = linalg.matmul_modp

    def spy(a, b, p):
        calls.append(a.shape)
        return original(a, b, p)

    monkeypatch.setattr(linalg, "matmul_modp", spy)
    rng = random.Random(19)
    p = 2147483029
    a = np.array(random_matrix(rng, 90, 200, p, density=0.6), dtype=np.int64)
    for panel in (7, 48):
        monkeypatch.setattr(linalg, "DENSE_PANEL", panel)
        calls.clear()
        assert rank_dense_modp(a, p) == 90
        # every row holds a pivot after ceil(90 / panel) panels, and the
        # last of them leaves no Schur complement to form
        assert len(calls) == -(-90 // panel) - 1


def test_split_off_primes(monkeypatch):
    """A column nonzero mod some primes of a stack but with no row nonzero
    mod all of them makes each prime rank alone, as a stack of one."""
    p0, p1 = 2147483029, 2147482801
    stacks = []
    original = linalg._rank_stack

    def spy(a, primes):
        stacks.append(primes)
        return original(a, primes)

    monkeypatch.setattr(linalg, "_rank_stack", spy)
    for a in ([[p0, 1], [p1, 1]], [[p0]]):
        want = [naive_rank_modp(a, p0), naive_rank_modp(a, p1)]
        stacks.clear()
        assert ranks_mod_primes(to_triplets(a), (p0, p1)) == want
        assert stacks == [(p0, p1), (p0,), (p1,)]
        stack = np.stack([np.array(a, dtype=np.int64) % p for p in (p0, p1)], axis=1)
        assert rank_dense_modp(stack, (p0, p1)) == want
    assert want == [0, 1]


def test_grlex_ranks_match_monomial_index():
    for num_vars in range(1, 6):
        for degree in range(7):
            monos = monomials_of_degree(num_vars, degree)
            exps = np.array(monos, dtype=np.int64).reshape(len(monos), num_vars)
            index = monomial_index(num_vars, degree)
            assert grlex_ranks(exps).tolist() == [index[m] for m in monos]


def test_sparse_rank_matches_naive(monkeypatch):
    rng = random.Random(6)
    for trial in range(60):
        p = rng.choice([101, 2147482801])
        m = rng.randrange(1, 20)
        n = rng.randrange(1, 20)
        a = random_matrix(rng, m, n, p, density=rng.uniform(0.05, 0.6))
        want = naive_rank_modp(a, p)
        sm = to_triplets(a)
        rows_idx, cols_idx, vals = sm.rows, sm.cols, sm.values
        got = rank_sparse_modp(m, n, rows_idx, cols_idx, vals, p)
        assert got == want
        # force the dense escape path early, then never escape, so that
        # the Markowitz pivot loop does all the work
        for density, cols in ((0.0, 10**6), (1.0, 0)):
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "ESCAPE_DENSITY", density)
                patch.setattr(linalg, "DENSE_COLS", cols)
                assert rank_sparse_modp(m, n, rows_idx, cols_idx, vals, p) == want


def test_blackbox_rank_lower_bound_and_typical_exactness():
    rng = random.Random(7)
    p = 2147482951
    hits = 0
    for _ in range(25):
        m = rng.randrange(4, 30)
        n = rng.randrange(4, 30)
        cap = rng.randrange(1, min(m, n) + 1)
        a = random_matrix(rng, m, n, p, rank_cap=cap)
        want = naive_rank_modp(a, p)
        sm = to_triplets(a)
        if not sm.nnz:
            continue
        got = rank_blackbox_modp(m, n, sm.rows, sm.cols, sm.values, p,
                                 random.Random(rng.randrange(1 << 30)))
        assert got <= want
        hits += got == want
    assert hits >= 23  # Monte Carlo, but failures should be rare at this prime size


def test_berlekamp_massey_fibonacci():
    p = 101
    seq = [1, 1]
    for _ in range(20):
        seq.append((seq[-1] + seq[-2]) % p)
    gen = berlekamp_massey_modp(seq, p)
    # connection polynomial 1 - x - x^2
    assert list(gen % p) == [1, p - 1, p - 1]


def test_exact_rank_matches_modular_and_field():
    rng = random.Random(8)
    for trial in range(40):
        m = rng.randrange(1, 9)
        n = rng.randrange(1, 9)
        entries = []
        for i in range(m):
            for j in range(n):
                if rng.random() < 0.6:
                    if trial % 3 == 0:
                        entries.append((i, j, Fraction(rng.randrange(-9, 10),
                                                       rng.randrange(1, 7))))
                    else:
                        entries.append((i, j, rng.randrange(-50, 51)))
        sm = StrandMatrix(m, n, *split_triples([e for e in entries if e[2]]))
        want = rank_exact(sm)
        rows = [[Fraction(0)] * n for _ in range(m)]
        for i, j, v in entry_triples(sm):
            rows[i][j] += Fraction(v)
        assert rank_gaussian_field(rows, zero=Fraction(0)) == want
        # a 31-bit prime cannot divide every nonzero minor of a matrix this small
        p = 2147483029
        assert naive_rank_modp([[int(Fraction(v) * 2520) for v in row]
                                for row in rows], p) == want


def test_rank_mod_p_dispatch_consistency(monkeypatch):
    rng = random.Random(9)
    p = 2147482763
    # dense side of the thresholds: narrow matrices
    for _ in range(20):
        m = rng.randrange(2, 16)
        n = rng.randrange(2, 16)
        a = random_matrix(rng, m, n, p, density=0.4)
        sm = to_triplets(a)
        assert linalg._engine(sm) == "dense"
        assert rank_mod_p(sm, p) == naive_rank_modp(a, p)
    # Markowitz side: one connected block, wide and sparse.  Column j has an
    # entry in row j % 60, and columns 0..58 also in row j + 1, which chains
    # every row together: 959 nonzeros in 60 x 900, density under 0.018.
    m, n = 60, 900
    a = [[0] * n for _ in range(m)]
    for j in range(n):
        a[j % m][j] = rng.randrange(1, p)
        if j < m - 1:
            a[j + 1][j] = rng.randrange(1, p)
    sm = to_triplets(a)
    assert sm.blocks == [sm]
    assert sm.num_cols > linalg.DENSE_COLS
    assert sm.nnz <= linalg.DENSE_DENSITY * m * n
    assert linalg._engine(sm) == "sparse"
    want = naive_rank_modp(a, p)
    assert _rank_with_spy(monkeypatch, "rank_sparse_modp", sm, p) == want


def test_engine_has_no_nonzero_cutoff():
    # 2000 x 20,000 with 250,000 nonzeros, density 0.00625: however many
    # nonzeros a wide sparse block has, Markowitz ranks it (built, not ranked)
    rng = np.random.default_rng(16)
    nnz = 250_000
    sm = StrandMatrix(2000, 20_000, rng.integers(0, 2000, nnz),
                      rng.integers(0, 20_000, nnz), np.ones(nnz, dtype=np.int64))
    assert sm.nnz > 200_000
    assert sm.nnz <= linalg.DENSE_DENSITY * sm.num_rows * sm.num_cols
    assert linalg._engine(sm) == "sparse"


def _rank_with_spy(monkeypatch, engine, sm, p):
    """rank_mod_p(sm, p), asserting that the named engine function ran."""
    calls = []
    original = getattr(linalg, engine)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, engine, spy)
    rank = rank_mod_p(sm, p)
    assert calls, f"{engine} did not run"
    return rank


def _block_diagonal(rng, sizes, density):
    """Random blocks of the given shapes, rows and columns then shuffled.

    Every value is distinct, so an entry of a block names its original
    (row, col); returns the matrix, that map and the dense rows.
    """
    m = sum(r for r, _ in sizes)
    n = sum(c for _, c in sizes)
    row_perm = rng.sample(range(m), m)
    col_perm = rng.sample(range(n), n)
    values = iter(rng.sample(range(1, 10**6), m * n))
    dense = [[0] * n for _ in range(m)]
    r0 = c0 = 0
    for rows, cols in sizes:
        for i in range(r0, r0 + rows):
            for j in range(c0, c0 + cols):
                if rng.random() < density:
                    dense[row_perm[i]][col_perm[j]] = next(values)
        r0 += rows
        c0 += cols
    sm = to_triplets(dense)
    return sm, {v: (r, c) for r, c, v in entry_triples(sm)}, dense


def _connected(block):
    """Whether the bipartite row-column graph of block is connected."""
    seen_rows, seen_cols = {0}, set()
    frontier = [("r", 0)]
    while frontier:
        kind, i = frontier.pop()
        for r, c, _ in entry_triples(block):
            if kind == "r" and r == i and c not in seen_cols:
                seen_cols.add(c)
                frontier.append(("c", c))
            elif kind == "c" and c == i and r not in seen_rows:
                seen_rows.add(r)
                frontier.append(("r", r))
    return len(seen_rows) == block.num_rows and len(seen_cols) == block.num_cols


def test_blocks_partition_and_ranks():
    rng = random.Random(14)
    for trial in range(25):
        p = rng.choice([101, 2147482801])
        sizes = [(rng.randrange(1, 7), rng.randrange(1, 7))
                 for _ in range(rng.randrange(1, 6))]
        sm, origin, dense = _block_diagonal(rng, sizes, rng.uniform(0.2, 0.9))
        blocks = sm.blocks
        # every entry in exactly one block; no row or column in two blocks
        found = [origin[v] for b in blocks for _, _, v in entry_triples(b)]
        assert sorted(found) == sorted(origin.values())
        rows = [{origin[v][0] for _, _, v in entry_triples(b)} for b in blocks]
        cols = [{origin[v][1] for _, _, v in entry_triples(b)} for b in blocks]
        assert sum(map(len, rows)) == len(set().union(*rows))
        assert sum(map(len, cols)) == len(set().union(*cols))
        for b, rs, cs in zip(blocks, rows, cols):
            assert (b.num_rows, b.num_cols) == (len(rs), len(cs))
            assert _connected(b)
        # no symmetry is claimed, so every block is its own orbit
        assert sm.symmetries == ()
        assert [(b, 1) for b in blocks] == sm.orbits
        assert all(b is rep for b, (rep, _) in zip(blocks, sm.orbits))
        assert rank_mod_p(sm, p) == naive_rank_modp(dense, p)
        field_rows = [[Fraction(v) for v in row] for row in dense]
        assert rank_exact(sm) == rank_gaussian_field(field_rows, zero=Fraction(0))
    # random sparse matrices, empty rows and columns included, split as a
    # breadth-first search over the row-column graph splits them
    for trial in range(40):
        m, n = rng.randrange(1, 30), rng.randrange(1, 30)
        density = rng.choice((0.02, 0.06, 0.15))
        cells = [(i, j) for i in range(m) for j in range(n) if rng.random() < density]
        values = rng.sample(range(1, 10**6), len(cells))
        sm = StrandMatrix(m, n, *split_triples([(i, j, v) for (i, j), v
                                                in zip(cells, values)]))
        origin = dict(zip(values, cells))
        got = []
        for b in sm.blocks:
            rows = frozenset(origin[v][0] for v in b.values.tolist())
            cols = frozenset(origin[v][1] for v in b.values.tolist())
            assert (b.num_rows, b.num_cols) == (len(rows), len(cols))
            got.append((rows, cols))
        assert len(set(got)) == len(got) and set(got) == _bfs_components(cells)
        dense = [[0] * n for _ in range(m)]
        for (i, j), v in zip(cells, values):
            dense[i][j] = v
        assert rank_mod_p(sm, 2147482801) == naive_rank_modp(dense, 2147482801)
    # a scrambled bipartite path r0 c0 r1 c1 ... plus an empty row and an
    # empty column is one block, found in a few rounds of root hooking
    size = 100_000
    row_of, col_of = rng.sample(range(size + 1), size), rng.sample(range(size + 1), size)
    rows = row_of + row_of[1:]
    cols = col_of + col_of[:-1]
    sm = StrandMatrix(size + 1, size + 1, rows, cols, [1] * len(rows))
    start = time.perf_counter()
    blocks = sm.blocks
    assert time.perf_counter() - start < 2.0
    assert len(blocks) == 1
    assert (blocks[0].num_rows, blocks[0].num_cols, blocks[0].nnz) == (size, size, 2 * size - 1)


def _bfs_components(cells):
    """The (rows, cols) of each component of the graph with edges cells."""
    adjacent = {}
    for i, j in cells:
        adjacent.setdefault(("r", i), []).append(("c", j))
        adjacent.setdefault(("c", j), []).append(("r", i))
    seen, out = set(), set()
    for node in adjacent:
        if node in seen:
            continue
        seen.add(node)
        component, frontier = [node], [node]
        while frontier:
            for nxt in adjacent[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    component.append(nxt)
                    frontier.append(nxt)
        out.add((frozenset(i for kind, i in component if kind == "r"),
                 frozenset(j for kind, j in component if kind == "c")))
    return out


def test_strand_matrix_rejects_bad_input():
    for rows, cols in (([0], [2]), ([2], [0]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(ValueError, match="index outside"):
            StrandMatrix(2, 2, rows, cols, [1])
    for rows, cols in (([0, 1], [0]), ([0], [0]), ([0.0, 1.0], [0, 1])):
        with pytest.raises(ValueError, match="one integer index per value"):
            StrandMatrix(2, 2, rows, cols, [1, 1])
    for values in ([1.5], np.array([1.5]), ["1"], [1, None]):
        with pytest.raises(TypeError, match="int or Fraction"):
            StrandMatrix(2, 2, [0, 1][: len(values)], [0, 1][: len(values)], values)
    # ints past int64 are kept exactly, in an object array, and Fractions
    # are scaled by the lcm of the denominators
    sm = StrandMatrix(2, 2, [0, 1], [1, 0], [2**70, Fraction(1, 3)])
    assert sm.values.dtype == object and sm.values.tolist() == [3 * 2**70, 1]
    sm = StrandMatrix(2, 2, [0, 1], [1, 0], [Fraction(1, 6), Fraction(-3, 4)])
    assert sm.values.dtype == np.int64 and sm.values.tolist() == [2, -9]
    assert StrandMatrix(2, 2, np.array([1]), [1], np.array([-4])).values.dtype == np.int64


def test_symmetry_maps_must_be_permutations():
    # a map of the wrong length, with a repeated index or with an index out
    # of range is refused when the matrix is made, naming its pair
    swap = [1, 0]
    for bad in ([0], [0, 1, 2], [0, 0], [1, 2], [-1, 0]):
        for maps, name in (((bad, swap), "row"), ((swap, bad), "column")):
            with pytest.raises(ValueError, match=rf"{name} map of transposition \(0, 1\)"):
                StrandMatrix(2, 2, [0, 1], [1, 0], [1, 1], symmetries=(((0, 1), *maps),))
    sm = StrandMatrix(2, 2, [0, 1], [1, 0], [1, 1], symmetries=(((0, 1), swap, swap),))
    assert _pairs(sm) == ((0, 1),)
    assert all(m.dtype == np.int64 and m.tolist() == swap for _, *maps in sm.symmetries
               for m in maps)
    # replace re-checks: a column map of the wrong strand is caught before
    # any rank is taken
    sm = jacobian_strand_matrix(_cc_partials(3, 4), 5)
    _, row_map, col_map = sm.symmetries[0]
    with pytest.raises(ValueError, match=r"column map of transposition \(1, 4\)"):
        replace(sm, symmetries=sm.symmetries + (((1, 4), row_map, col_map[:-1]),))


def test_rational_kummer_gives_kummer_report(kummer):
    # Kummer divided by 3: the same strands up to scale, so the same report
    # at seed 0 through the rational path, apart from the input itself
    f = parse_polynomial("1/3*" + KUMMER_TEXT.replace(" x", " 1/3*x"), num_vars=4)
    whole = parse_polynomial(KUMMER_TEXT, num_vars=4)
    assert f.terms == {m: Fraction(c, 3) for m, c in whole.terms.items()}
    third = analyze(f, source="kummer/3", config=RunConfig(seed=0))
    want, got = json.loads(kummer.to_json()), json.loads(third.to_json())
    for key in ("polynomial", "source"):
        assert got.pop(key) != want.pop(key)
    assert got == want


def test_blocks_of_symmetric_strands():
    f = parse_polynomial(KUMMER_TEXT, num_vars=4)
    assert len(jacobian_strand_matrix(partial_derivatives(f, 4), 9).blocks) == 8
    cc44 = build(canonical_spec(4, 4))
    assert len(jacobian_strand_matrix(partial_derivatives(cc44, 4), 11).blocks) == 16
    # a single block with no empty row or column is the matrix itself
    sm = StrandMatrix(2, 2, [0, 0, 1], [0, 1, 1], [1, 2, 3])
    assert sm.blocks == [sm] and sm.blocks[0] is sm
    assert StrandMatrix(3, 0, [], [], []).blocks == []


def _partials(text):
    f = parse_polynomial(text)
    return partial_derivatives(f, f.degree)


def _cc_partials(n, d):
    return partial_derivatives(build(canonical_spec(n, d)), d)


def _g_h():
    """Two generators that swapping x0 and x1 fixes each: not a gradient."""
    return [parse_polynomial("x0^2 + x1^2 + x1*x2 + x0*x2", num_vars=3),
            parse_polynomial("x2^2 + x0*x1", num_vars=3)]


def _pairs(sm):
    """The variable pairs of sm's symmetries, in order."""
    return tuple(pair for pair, _, _ in sm.symmetries)


def _gradient(num_vars, *pairs):
    """{pair: pi} with pi exchanging the pair's partials, as on a gradient."""
    return {(i, j): linalg._swapped(range(num_vars), i, j) for i, j in pairs}


def _claimed(sm, partials, generator_maps):
    """sm claiming exactly the transpositions of generator_maps, {pair: pi},
    mapped as jacobian_strand_matrix maps the ones it proves."""
    num_vars = partials[0].num_vars
    mults = exponent_array(num_vars, sm.k - max(g.degree for g in partials))
    return replace(sm, symmetries=linalg._transposition_maps(num_vars, sm.k, mults,
                                                             generator_maps))


def test_symmetries_proved_from_the_generators():
    cc34 = build(canonical_spec(3, 4))
    assert _pairs(jacobian_strand_matrix(partial_derivatives(cc34, 4), 5)) == (
        (1, 2), (1, 3), (2, 3))
    kummer = jacobian_strand_matrix(_partials(KUMMER_TEXT), 5)
    assert set(_pairs(kummer)) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    # x1^4 breaks every transposition that moves x1
    broken = cc34 + parse_polynomial("x1^4", num_vars=4)
    assert _pairs(jacobian_strand_matrix(partial_derivatives(broken, 4), 5)) == ((2, 3),)
    # the proof holds in every degree, even with no column at all
    sm = jacobian_strand_matrix(partial_derivatives(cc34, 4), 1)
    assert _pairs(sm) == ((1, 2), (1, 3), (2, 3)) and sm.num_cols == 0
    assert all(len(row_map) == 4 and len(col_map) == 0
               for _, row_map, col_map in sm.symmetries)


def test_equal_generators_keep_no_symmetry():
    # swapping x0 and x1 fixes g and h, but with g listed twice pi cannot
    # be injective
    g, h = _g_h()
    assert _pairs(jacobian_strand_matrix([g, h], 3)) == ((0, 1),)
    partials = [g, g, h]
    p = 2147483029
    for k in range(2, 6):
        sm = jacobian_strand_matrix(partials, k)
        assert sm.symmetries == ()
        assert all(count == 1 for _, count in sm.orbits)
        dense = [[0] * sm.num_cols for _ in range(sm.num_rows)]
        for r, c, v in entry_triples(sm):
            dense[r][c] += v
        assert rank_mod_p(sm, p) == naive_rank_modp(dense, p)


def test_generator_maps_act_on_the_columns(monkeypatch):
    # swapping x0 and x1 fixes g and h each, so pi is the identity, not the
    # exchange of the first two generators that a gradient would have
    monkeypatch.setattr(linalg, "SPLIT_CELLS", 0)
    g, h = _g_h()
    p = 2147483029
    for k, want in zip(range(2, 7), (2, 6, 11, 17, 24)):
        sm = jacobian_strand_matrix([g, h], k)
        (pair, _, col_map), = sm.symmetries
        per = sm.num_cols // 2  # the columns of g, then those of h
        assert pair == (0, 1) and (col_map // per == np.arange(sm.num_cols) // per).all()
        assert len(sm.pieces) > len(sm.orbits) or k == 2  # k = 2: one column a block
        assert rank_mod_p(sm, p) == rank_exact(sm) == want
        assert sum(linalg._rank_bareiss(b) for b in sm.blocks) == want
        # the exchange of g and h is a false claim, caught when the
        # symmetries are proved
        with pytest.raises(ValueError, match="transposition"):
            rank_mod_p(_claimed(sm, [g, h], {(0, 1): (1, 0)}), p)
    # three copies of a symmetric g: a 3-cycle of them keeps every entry,
    # but the swap and it do not make an involution
    sm = jacobian_strand_matrix([g] * 3, 4)
    assert sm.symmetries == ()
    with pytest.raises(ValueError, match="commuting involutions"):
        rank_mod_p(_claimed(sm, [g] * 3, {(0, 1): (1, 2, 0)}), p)
    assert rank_mod_p(_claimed(sm, [g] * 3, {(0, 1): (0, 1, 2)}), p) == rank_mod_p(sm, p)


@pytest.mark.parametrize("partials", [
    pytest.param(lambda: _cc_partials(4, 4), id="CC(4,4)"),
    pytest.param(lambda: _cc_partials(3, 5), id="CC(3,5)"),
    pytest.param(lambda: _partials(KUMMER_TEXT), id="kummer"),
    pytest.param(_g_h, id="g,h"),
])
def test_proved_maps_keep_every_entry_of_the_strand(partials):
    """Every (pair, row map, column map) that jacobian_strand_matrix proves
    keeps every entry of the whole strand, in every degree 0..T+1, whatever
    its blocks and however it would be split."""
    partials = partials()
    num_vars, d = partials[0].num_vars, partials[0].degree + 1
    for k in range((d - 2) * num_vars + 2):  # k = 0..T+1
        sm = jacobian_strand_matrix(partials, k)
        assert sm.symmetries
        keys, values = summed(sm.rows * sm.num_cols + sm.cols, sm.values)
        for pair, row_map, col_map in sm.symmetries:
            moved = summed(row_map[sm.rows] * sm.num_cols + col_map[sm.cols], sm.values)
            assert np.array_equal(keys, moved[0]), (k, pair)
            assert np.array_equal(values, moved[1]), (k, pair)


# Kummer's symmetry with rational coefficients: 4/3 in every partial
RATIONAL_TEXT = ("1/3*x0^4 + 1/3*x1^4 + 1/3*x2^4 + 1/3*x3^4"
                 " - 1/2*x0^2*x1^2 - 1/2*x0^2*x2^2 - 1/2*x0^2*x3^2"
                 " - 1/2*x1^2*x2^2 - 1/2*x1^2*x3^2 - 1/2*x2^2*x3^2")


@pytest.mark.parametrize("partials", [
    pytest.param(lambda: _cc_partials(4, 4), id="CC(4,4)"),
    pytest.param(lambda: _cc_partials(3, 6), id="CC(3,6)"),
    pytest.param(lambda: _partials(KUMMER_TEXT), id="kummer"),
    pytest.param(lambda: _partials(FERMAT_TEXT), id="fermat"),
    pytest.param(lambda: _partials(RATIONAL_TEXT), id="rational"),
])
def test_orbit_ranks_equal_block_sums(partials):
    """Orbit-counted ranks equal the sums over all blocks, and the ranks
    of one stacked pass over three primes equal each prime's own rank."""
    partials = partials()
    num_vars, d = partials[0].num_vars, partials[0].degree + 1
    primes = (2147483029, 2147482801, 2147482763)
    num_blocks = num_orbits = 0
    for k in range((d - 2) * num_vars + 2):  # k = 0..T+1
        sm = jacobian_strand_matrix(partials, k)
        blocks = sm.blocks
        assert sum(count for _, count in sm.orbits) == len(blocks)
        num_blocks += len(blocks)
        num_orbits += len(sm.orbits)
        for p, rank in zip(primes, ranks_mod_primes(sm, primes)):
            assert rank == rank_mod_p(sm, p) == sum(rank_mod_p(b, p) for b in blocks)
        if sm.num_cols <= 48:
            assert rank_exact(sm) == sum(linalg._rank_bareiss(b) for b in blocks)
    assert num_orbits < num_blocks


@pytest.mark.parametrize("n, d", [(3, 5), (2, 7)])
def test_split_ranks_equal_block_sums_for_odd_degree(n, d, monkeypatch):
    """For odd d no two blocks are alike, so every orbit is one block; the
    character pieces of each block (every block split, however small) rank
    as the whole blocks do, mod each prime and exactly."""
    monkeypatch.setattr(linalg, "SPLIT_CELLS", 0)
    partials = _cc_partials(n, d)
    primes = (2147483029, 2147482801, 2147482763)
    for k in range((d - 2) * (n + 1) + 2):  # k = 0..T+1
        sm = jacobian_strand_matrix(partials, k)
        blocks = sm.blocks
        assert len(sm.orbits) == len(blocks)
        whole = [linalg._block_ranks(b, primes) for b in blocks]
        assert ranks_mod_primes(sm, primes) == [sum(ranks[j] for ranks in whole)
                                                for j in range(len(primes))]
        if sm.num_cols <= 48:
            assert rank_exact(sm) == sum(linalg._rank_bareiss(b) for b in blocks)
    # the largest strand, k = T+1, is cut, and its pieces share out the rows
    # and columns of its blocks: a G-orbit of size |G|/|stabilizer| gives one
    # row or column to each of the characters trivial on the stabilizer
    assert len(sm.pieces) > len(blocks)
    assert sum(p.num_rows for p, _ in sm.pieces) == sum(b.num_rows for b in blocks)
    assert sum(p.num_cols for p, _ in sm.pieces) == sum(b.num_cols for b in blocks)


def test_one_dense_rank_per_orbit(monkeypatch):
    sm = jacobian_strand_matrix(_cc_partials(4, 4), 11)
    assert len(sm.blocks) == 16
    assert [count for _, count in sm.orbits] == [1, 4, 6, 4, 1]
    # each representative of at least SPLIT_CELLS cells is cut into the
    # character pieces of the disjoint transpositions fixing it, and each
    # piece is ranked once; the last, 35 x 75, is ranked whole
    assert [count for _, count in sm.pieces] == [1] * 4 + [4] * 2 + [6] * 4 + [4] * 2 + [1]
    assert [(b.num_rows, b.num_cols) for b, _ in sm.orbits][-1] == (35, 75)
    calls = []
    original = linalg.rank_dense_modp

    def spy(a, p):
        calls.append(a.shape)
        return original(a, p)

    monkeypatch.setattr(linalg, "rank_dense_modp", spy)
    for p in (2147483029, 2147482801):
        calls.clear()
        want = sum(original(b.residues((p,))[:, 0], p) for b in sm.blocks)
        assert rank_mod_p(sm, p) == want
        assert len(calls) == len(sm.pieces) == 13


# what StrandMatrix raises for a symmetry that does not map a block onto a
# block with the same entries, found when its symmetries are proved
NOT_A_BLOCK_MAP = "does not map a block onto one block with the same entries"


def test_false_symmetry_claim_raises():
    # Fermat plus x0^3*x1 is not fixed by swapping x0 and x1; claimed anyway,
    # the orbits would join blocks that differ
    partials = _partials(FERMAT_TEXT + " + x0^3*x1")
    for k in (5, 8):
        sm = jacobian_strand_matrix(partials, k)
        assert (0, 1) not in _pairs(sm)
        with pytest.raises(ValueError, match=NOT_A_BLOCK_MAP):
            _claimed(sm, partials, _gradient(4, (0, 1))).orbits
    # x1^5 breaks (1, 2) on CC(3,5); at k = 9 and 13 the strand is one block,
    # which the claim maps onto itself, so no join uses it, yet the proof on
    # the whole strand sees it before the orbits or the split are taken
    partials = partial_derivatives(build(canonical_spec(3, 5))
                                   + parse_polynomial("x1^5", num_vars=4), 5)
    for k in (9, 13):
        sm = jacobian_strand_matrix(partials, k)
        assert len(sm.blocks) == 1 and _pairs(sm) == ((2, 3),)
        with pytest.raises(ValueError, match=NOT_A_BLOCK_MAP):
            _claimed(sm, partials, _gradient(4, (1, 2))).orbits
        with pytest.raises(ValueError, match=NOT_A_BLOCK_MAP):
            rank_mod_p(_claimed(sm, partials, _gradient(4, (1, 2))), 2147483029)
    # one block of three cells, too small to split, which the swap maps onto
    # itself: it sends (0, 0) = 1 onto (1, 1) = 3, so no rank may be taken
    swap = [1, 0]
    sm = StrandMatrix(2, 2, [0, 0, 1], [0, 1, 1], [1, 2, 3], symmetries=(((0, 1), swap, swap),))
    for take in (lambda m: m.orbits, lambda m: rank_mod_p(m, 2147483029), certified_rank,
                 rank_exact):
        with pytest.raises(ValueError, match=r"transposition \(0, 1\) " + NOT_A_BLOCK_MAP):
            take(replace(sm))


def test_false_symmetry_claim_with_equal_shapes_raises():
    # x1^4 breaks every transposition moving x1; claimed anyway at k = 7
    # the joined blocks agree in shape and nnz but not in their entries,
    # and would rank 116 instead of 115
    partials = partial_derivatives(build(canonical_spec(3, 4))
                                   + parse_polynomial("x1^4", num_vars=4), 4)
    sm = jacobian_strand_matrix(partials, 7)
    assert _pairs(sm) == ((2, 3),)
    assert rank_mod_p(sm, 2147483029) == 115
    claimed = _claimed(sm, partials, _gradient(4, (1, 2), (1, 3), (2, 3)))
    with pytest.raises(ValueError, match=NOT_A_BLOCK_MAP):
        rank_mod_p(claimed, 2147483029)


def test_joined_blocks_are_proved_on_every_entry():
    # two 3x3 blocks of six unit entries agree in shape, nnz and sorted
    # values but rank 3 and 2; a swap of them claimed must not rank the
    # matrix 6 (its rank is 5)
    a = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]
    b = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 2)]
    rows = [r for r, _ in a] + [3 + r for r, _ in b]
    cols = [c for _, c in a] + [3 + c for _, c in b]
    assert rank_exact(StrandMatrix(6, 6, rows, cols, [1] * 12)) == 5
    swap = [3, 4, 5, 0, 1, 2]
    sm = StrandMatrix(6, 6, rows, cols, [1] * 12, symmetries=(((1, 2), swap, swap),))
    for rank in (certified_rank, lambda m: rank_mod_p(m, 2147483029), rank_exact):
        with pytest.raises(ValueError, match=r"transposition \(1, 2\) " + NOT_A_BLOCK_MAP):
            rank(replace(sm))
    # two copies of a, the first with its entry at (0, 0) written as 3 - 2:
    # the swap keeps the summed entries, so it joins them
    rows = [r for r, _ in a] + [0] + [3 + r for r, _ in a]
    cols = [c for _, c in a] + [0] + [3 + c for _, c in a]
    twins = StrandMatrix(6, 6, rows, cols, [3] + [1] * 5 + [-2] + [1] * 6,
                         symmetries=(((1, 2), swap, swap),))
    assert [count for _, count in twins.orbits] == [2]
    assert certified_rank(twins).rank == rank_mod_p(twins, 2147483029) == 6


def _involution(rng, groups, pairing):
    """A random involution of the indices in groups that maps group g onto
    group pairing[g] (an involution of the groups, of equal sizes)."""
    perm = list(range(sum(map(len, groups))))
    for g, h in enumerate(pairing):
        if g < h:
            for i, j in zip(groups[g], rng.sample(groups[h], len(groups[h]))):
                perm[i], perm[j] = j, i
        elif g == h:
            shuffled = rng.sample(groups[g], len(groups[g]))
            for i, j in zip(shuffled[::2], shuffled[1::2]):
                perm[i], perm[j] = j, i
    return perm


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
def test_claimed_involutions_never_change_a_rank(split, monkeypatch):
    """Random involutions claimed on block-diagonal matrices whose blocks
    agree in shape, nnz and sorted values: each rank taken raises
    ValueError exactly when some claimed map does not keep the summed
    entries of the whole matrix, and otherwise equals the rank without the
    claim.  Most claims are false; those that copy one block onto its twins
    are true."""
    if split:
        monkeypatch.setattr(linalg, "SPLIT_CELLS", 0)
    rng = random.Random(2004)
    p = 2147483029
    outcomes = set()
    for trial in range(120):
        size, count = rng.randrange(2, 4), rng.randrange(2, 5)
        values = [rng.choice((1, 2)) for _ in range(rng.randrange(size + 1, size * size))]
        cells = [(i, j) for i in range(size) for j in range(size)]
        twins = rng.random() < 0.3
        pattern = rng.sample(cells, len(values))
        rows, cols = [], []
        for g in range(count):
            pattern = pattern if twins else rng.sample(cells, len(values))
            rows += [g * size + i for i, _ in pattern]
            cols += [g * size + j for _, j in pattern]
        plain = StrandMatrix(count * size, count * size, rows, cols, values * count)
        groups = [list(range(g * size, (g + 1) * size)) for g in range(count)]
        claims = []
        for pair in ((0, 1), (2, 3))[: rng.randrange(1, 3)]:
            pairing = _involution(rng, [list(range(count))], [0])
            if twins:  # each block onto its twin, place by place
                perm = [pairing[i // size] * size + i % size for i in range(count * size)]
                claims.append((pair, perm, perm))
            else:
                claims.append((pair, _involution(rng, groups, pairing),
                               _involution(rng, groups, pairing)))
        claimed = replace(plain, symmetries=tuple(claims))
        entries = summed(plain.rows * plain.num_cols + plain.cols, plain.values)
        false = [pair for pair, row_map, col_map in claimed.symmetries if not all(
            np.array_equal(a, b) for a, b in zip(entries, summed(
                row_map[plain.rows] * plain.num_cols + col_map[plain.cols], plain.values)))]
        for rank, want in ((lambda m: rank_mod_p(m, p), rank_mod_p(plain, p)),
                           (lambda m: certified_rank(m).rank, rank_exact(plain))):
            try:
                got = rank(replace(claimed))
            except ValueError:
                assert false, (trial, claims)
                outcomes.add("raised")
                continue
            assert not false, (trial, claims)
            assert got == want, (trial, claims)
            outcomes.add("ranked")
    assert outcomes == {"raised", "ranked"}


def test_rank_config_needs_a_prime():
    for primes in (0, -1):
        with pytest.raises(ValueError, match="primes"):
            RankConfig(primes=primes)
    # one prime is a valid configuration, and it agrees with itself
    res = certified_rank(StrandMatrix(1, 1, [0], [0], [3]), RankConfig(primes=1))
    assert res.rank == 1 and len(res.primes) == 1


def test_certification_is_read_off_the_ranks():
    # with no prime drawn, only a rank of 0 (an empty strand) is proved
    assert RankResult(rank=0).certified
    assert not RankResult(rank=5).certified
    # a rank that some prime did not reach is proved only by exact elimination
    assert RankResult(rank=3, primes=[5, 7, 11], ranks=[3, 3, 3]).certified
    modular = RankResult(rank=3, primes=[5, 7, 11], ranks=[3, 2, 3])
    assert not modular.agreement and not modular.certified
    exact = replace(modular, method="dense-fraction-free")
    assert exact.exact_verified and exact.certified and not exact.agreement


def test_disagreement_falls_back_to_exact():
    # the first prime of the seed-0 "esc" stream kills the only entry, so
    # it alone ranks 0 and the primes disagree
    (p0,) = draw_distinct_primes(random.Random("0|esc"), 1)
    res = certified_rank(StrandMatrix(1, 1, [0], [0], [p0]), RankConfig(seed=0),
                         salt="esc")
    assert res.primes[0] == p0
    assert res.ranks == [0, 1, 1]
    assert len(res.primes) == RankConfig().primes
    assert not res.agreement
    assert res.rank == 1 and res.certified and res.exact_verified
    assert res.method == "dense-fraction-free"
    # past EXACT_FALLBACK_COLS columns there is no exact fallback: the
    # maximum is reported, uncertified
    wide = StrandMatrix(1, linalg.EXACT_FALLBACK_COLS + 1, [0], [0], [p0])
    res = certified_rank(wide, RankConfig(seed=0), salt="esc")
    assert res.ranks == [0, 1, 1]
    assert res.rank == 1
    assert not res.agreement and not res.certified and not res.exact_verified
    assert res.method == "sparse-elimination"


def test_wide_matrix_with_few_nonempty_columns_goes_dense(monkeypatch):
    # 40 x 900 at density 0.01: about 314 nonempty columns, well under
    # DENSE_COLS, so every block is ranked by the dense kernel at once
    rng = random.Random(15)
    p = 2147482763
    a = random_matrix(rng, 40, 900, p, density=0.01)
    sm = to_triplets(a)
    assert sm.num_cols > linalg.DENSE_COLS
    assert len({c for _, c, _ in entry_triples(sm)}) <= linalg.DENSE_COLS
    assert linalg._engine(sm) == "sparse"  # as a whole it would be Markowitz

    def refuse(*args, **kwargs):
        raise AssertionError("rank_sparse_modp called")

    monkeypatch.setattr(linalg, "rank_sparse_modp", refuse)
    assert rank_mod_p(sm, p) == naive_rank_modp(a, p)


def test_certified_rank_determinism_and_exact_verify():
    rng = random.Random(10)
    a = random_matrix(rng, 12, 10, 1000, density=0.5, rank_cap=6)
    sm = to_triplets(a)
    r1 = certified_rank(sm, RankConfig(seed=42), salt="strand-3")
    r2 = certified_rank(sm, RankConfig(seed=42), salt="strand-3")
    assert r1 == r2
    assert r1.certified and r1.agreement
    assert len(r1.primes) == len(set(r1.primes)) == 3
    assert all(1 << 30 < p < 1 << 31 for p in r1.primes)
    # small matrices get an exact fraction-free confirmation pass
    assert r1.exact_verified
    assert r1.rank == rank_exact(sm)
    r3 = certified_rank(sm, RankConfig(seed=43), salt="strand-3")
    assert r3.rank == r1.rank
    assert r3.primes != r1.primes


def test_jacobian_strand_shapes_and_ranks():
    f = parse_polynomial(
        "x3^4 - x3^2*x2^2 - x3^2*x1^2 - x3^2*x0^2 + x2^4 - x2^2*x1^2"
        " - x2^2*x0^2 + x1^4 - x1^2*x0^2 + x0^4", num_vars=4)
    partials = partial_derivatives(f, 4)
    sm5 = jacobian_strand_matrix(partials, 5)
    assert (sm5.num_rows, sm5.num_cols) == (56, 40)
    assert certified_rank(sm5, RankConfig(seed=0)).rank == 40
    sm6 = jacobian_strand_matrix(partials, 6)
    assert (sm6.num_rows, sm6.num_cols) == (84, 80)
    assert certified_rank(sm6, RankConfig(seed=0)).rank == 68
    # degrees below d-1 have no multipliers at all
    sm2 = jacobian_strand_matrix(partials, 2)
    assert sm2.num_rows == 10 and sm2.num_cols == 0
    assert certified_rank(sm2, RankConfig(seed=0)).rank == 0


def test_fractional_entries_modular_reduction():
    sm = StrandMatrix(2, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                      [Fraction(1, 2), 3, Fraction(1, 2), 3])
    p = 2147483029
    assert rank_mod_p(sm, p) == 1
    assert rank_exact(sm) == 1
    # numerators past int64: the second row is 2/3 times the first
    big = StrandMatrix(2, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                       [2**70, 1, Fraction(2**71, 3), Fraction(2, 3)])
    assert ranks_mod_primes(big, (p, 2147482801)) == [1, 1]
    assert rank_exact(big) == 1
    # entries repeating a position add up, here to zero
    repeated = StrandMatrix(2, 2, [0, 1, 0], [0, 1, 0], [1, 5, -1])
    assert ranks_mod_primes(repeated, (p, 2147482801)) == [1, 1]
    assert rank_exact(repeated) == 1


def test_bad_prime_denominator_rejected():
    sm = StrandMatrix(1, 1, [0], [0], [Fraction(1, 7)])
    res = certified_rank(sm, RankConfig(seed=0))
    assert res.rank == 1
    assert all(p != 7 for p in res.primes)


def test_prime_dividing_a_denominator_is_ranked():
    # the first prime of the seed-0 stream divides the only denominator;
    # the entry is stored scaled to 1, so that prime is ranked like the
    # next two draws
    drawn = draw_distinct_primes(random.Random("0|"), 3)
    p0 = drawn[0]
    sm = StrandMatrix(1, 1, [0], [0], [Fraction(1, p0)])
    res = certified_rank(sm, RankConfig(seed=0))
    assert res.primes == drawn
    assert res.ranks == [1, 1, 1] and res.rank == 1 and res.agreement
    assert rank_mod_p(sm, p0) == 1
    # diag(1, 1/p0) is stored as diag(p0, 1): p0 kills an entry and drops
    # the rank, so the primes disagree and the exact path certifies 2
    sm = StrandMatrix(2, 2, [0, 1], [0, 1], [1, Fraction(1, p0)])
    assert sm.values.tolist() == [p0, 1]
    assert rank_mod_p(sm, p0) == 1
    res = certified_rank(sm, RankConfig(seed=0))
    assert res.primes[0] == p0 and res.ranks[:3] == [1, 2, 2]
    assert not res.agreement
    assert res.rank == 2 == rank_exact(sm)
    assert res.certified and res.exact_verified
    assert res.method == "dense-fraction-free"


def test_strand_rejects_inexact_coefficients():
    f = SparsePolynomial(3, {(2, 0, 0): 1.5, (0, 2, 0): 1, (0, 0, 2): 1})
    with pytest.raises(TypeError, match="float"):
        jacobian_strand_matrix(partial_derivatives(f, 2), 1)


def _counting_bareiss(monkeypatch):
    """Stand in for _rank_bareiss; the returned list gets, per call,
    whether the piece was rank deficient."""
    original = linalg._rank_bareiss
    deficient = []

    def counting(piece):
        rank = original(piece)
        deficient.append(rank < min(piece.num_rows, piece.num_cols))
        return rank

    monkeypatch.setattr(linalg, "_rank_bareiss", counting)
    return deficient


def test_certified_rank_eliminates_only_unproved_pieces(monkeypatch):
    # every strand k = 0..T+1 of Kummer, CC(3,4) and the nodal plane curve
    # CC(2,5): the certified rank is the all-Bareiss rank, and Bareiss only
    # sees pieces whose rank stays below min(rows, cols)
    config = RankConfig(seed=0)
    seen = []
    for partials in (_partials(KUMMER_TEXT), _cc_partials(3, 4), _cc_partials(2, 5)):
        n, d = partials[0].num_vars - 1, max(g.degree for g in partials) + 1
        for k in range((n + 1) * (d - 2) + 2):
            sm = jacobian_strand_matrix(partials, k)
            with monkeypatch.context() as patch:
                deficient = _counting_bareiss(patch)
                res = certified_rank(sm, config, salt=f"k{k}")
            assert res.rank == rank_exact(sm), (n, d, k)
            seen += deficient
    assert seen and all(seen)
    # the primes disagree on a 3 x 3 block of rank 2: the first prime of the
    # seed-0 stream makes its first two rows equal; the 1 x 1 block beside it
    # has full rank mod every prime, so Bareiss sees only the 3 x 3 block
    (p0,) = draw_distinct_primes(random.Random("0|"), 1)
    sm = StrandMatrix(4, 4, [0, 0, 0, 1, 1, 2, 2, 3], [0, 1, 2, 1, 2, 1, 2, 3],
                      [p0, 1, 1, 1, 1, 1, 1, 1])
    monkeypatch.setattr(linalg, "EXACT_VERIFY_COLS", 0)
    deficient = _counting_bareiss(monkeypatch)
    res = certified_rank(sm, config)
    assert res.ranks == [2, 3, 3] and not res.agreement
    assert deficient == [True]
    assert res.rank == 3 and res.certified and res.exact_verified
    assert res.method == "dense-fraction-free"
