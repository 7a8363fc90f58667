"""The character split of a matrix under commuting signed involutions."""

import random

import numpy as np
import pytest

from milnor.linalg import rank_dense_modp
from milnor.symmetry import CharacterSplit

P = 2147483029


def _act(generator, a):
    """The matrix generator . a: entry (r, c) moved to (rho(r), pi(c)),
    times the sign of column c."""
    rho, pi, sign = generator
    out = np.zeros_like(a)
    out[np.ix_(rho, pi)] = a * sign
    return out


def _symmetrized(generators, a):
    """The sum of g . a over the group: it satisfies
    M[rho(r), pi(c)] = sign(c) M[r, c] for every generator."""
    for generator in generators:
        a = a + _act(generator, a)
    return a


def _dense_pieces(split, m):
    """The pieces split.cut makes of the dense integer matrix m, mod P."""
    rows, cols = np.nonzero(m)
    out = []
    for height, width, r, c, v in split.cut(rows, cols, m[rows, cols]):
        piece = np.zeros((height, width), dtype=np.int64)
        piece[r, c] = np.asarray(v, dtype=np.int64) % P
        out.append(piece)
    return out


def test_column_fixed_with_sign_minus_one():
    # g1 swaps rows 0 <-> 1 and 2 <-> 3 and negates columns 0 and 1 in
    # place; g2 swaps rows 0 <-> 2 and 1 <-> 3 and columns 0 <-> 1, and
    # swaps columns 2 <-> 3 with sign -1, which g1 fixes with sign +1
    g1 = (np.array([1, 0, 3, 2]), np.array([0, 1, 2, 3]), np.array([-1, -1, 1, 1]))
    g2 = (np.array([2, 3, 0, 1]), np.array([1, 0, 3, 2]), np.array([1, 1, -1, -1]))
    split = CharacterSplit((4, 4), [g1, g2])
    assert split.characters == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert split.row_reps.tolist() == [0]
    # the orbit {0, 1} is fixed by g1 with sign -1: only the characters
    # with chi(g1) = -1 keep it; {2, 3} is fixed by g1 with sign +1
    assert split.keep_cols[:, 0].tolist() == [False, True, False, True]
    assert split.keep_cols[:, 2].tolist() == [True, False, True, False]
    assert not split.keep_cols[:, [1, 3]].any()
    assert split.keep_rows[:, 0].all() and not split.keep_rows[:, 1:].any()
    pieces = split.pieces
    assert [(c, r.tolist(), k.tolist()) for c, r, k in pieces] == [
        ((0, 0), [0], [2]), ((1, 0), [0], [0]), ((0, 1), [0], [2]), ((1, 1), [0], [0])]
    m = np.array([[5, 7, 2, 3], [-5, -7, 2, 3], [7, 5, -3, -2], [-7, -5, -3, -2]])
    assert (_symmetrized([g1, g2], m) == 4 * m).all()
    # column 1 enters the orbit of column 0 with chi(g2) times sign +1,
    # column 3 that of column 2 with chi(g2) times sign -1: the pieces are
    # 2 - 3, 5 + 7, 2 + 3 and 5 - 7
    got = [(h, w, r.tolist(), c.tolist(), np.asarray(v).tolist())
           for h, w, r, c, v in split.cut(*np.nonzero(m), m[np.nonzero(m)])]
    assert got == [(1, 1, [0], [0], [-1]), (1, 1, [0], [0], [12]),
                   (1, 1, [0], [0], [5]), (1, 1, [0], [0], [-2])]
    assert rank_dense_modp([(m % P, P)]) == [4]


@pytest.mark.parametrize("generators", [
    # a 3-cycle is no involution
    [(np.array([1, 2, 0]), np.arange(2), None)],
    # two involutions of three points that do not commute
    [(np.array([1, 0, 2]), np.arange(2), None), (np.array([0, 2, 1]), np.arange(2), None)],
    # a swap whose signs make it square to -1
    [(np.arange(3), np.array([1, 0]), np.array([1, -1]))],
    # permutations that commute, signs that do not
    [(np.arange(3), np.arange(2), np.array([-1, 1])),
     (np.arange(3), np.array([1, 0]), None)],
])
def test_generators_must_be_commuting_involutions(generators):
    with pytest.raises(ValueError, match="commuting involutions"):
        CharacterSplit((3, 2), generators)


def _random_action(rng, t, signed):
    """Random commuting involutions, t >= 1: the action of G = Z2^t on a disjoint
    union of one to four orbits G/H, H spanned by random elements, each
    with a random character of H as its signs (all +1 unless signed),
    relabelled and re-signed at random.  Returns the (map, signs) of each
    generator."""
    maps, signs = [[] for _ in range(t)], [[] for _ in range(t)]
    for _ in range(rng.randrange(1, 5)):
        span = {0}
        for h in rng.sample(range(1 << t), rng.randrange(t + 1)):
            span |= {h ^ k for k in span}
        # each coset by its least element; generator s sends coset rep to
        # image, with rep ^ 2^s = image ^ h for h in H, and sign chi_y(h)
        cosets = sorted({min(g ^ h for h in span) for g in range(1 << t)})
        y = rng.randrange(1 << t) if signed else 0
        first = len(maps[0])
        for s in range(t):
            for rep in cosets:
                image = min((1 << s) ^ rep ^ h for h in span)
                maps[s].append(first + cosets.index(image))
                signs[s].append(1 - 2 * (bin(((1 << s) ^ rep ^ image) & y).count("1") % 2))
    label = np.array(rng.sample(range(len(maps[0])), len(maps[0])))
    # a random sign on each basis vector, so that moving elements carry
    # signs too: e_c -> d_c e_c makes sign(c) d_c d_pi(c)
    d = np.array([rng.choice((1, -1)) if signed else 1 for _ in label])
    out = []
    for s in range(t):
        pi, sign = np.empty_like(label), np.empty_like(label)
        pi[label], sign[label] = label[np.array(maps[s])], signs[s]
        out.append((pi, sign * d * d[pi]))
    return out


def test_piece_ranks_sum_to_the_whole_rank():
    rng = random.Random(5)
    np_rng = np.random.default_rng(5)
    for trial in range(40):
        t = rng.randrange(1, 4)
        rows = _random_action(rng, t, signed=False)
        cols = _random_action(rng, t, signed=True)
        generators = [(rho, pi, sign) for (rho, _), (pi, sign) in zip(rows, cols)]
        num_rows, num_cols = len(rows[0][0]), len(cols[0][0])
        split = CharacterSplit((num_rows, num_cols), generators)
        # an equivariant matrix of low rank: a random one of rank at most
        # `inner`, summed over the group
        inner = rng.randrange(1, 5)
        a = np_rng.integers(-3, 4, (num_rows, inner)) @ np_rng.integers(-3, 4, (inner, num_cols))
        m = _symmetrized(generators, a)
        for rho, pi, sign in generators:
            assert (m[np.ix_(rho, pi)] == m * sign).all()
        # each orbit of size |G|/|H| is kept by |G|/|H| characters
        assert split.keep_rows.sum() == num_rows and split.keep_cols.sum() == num_cols
        pieces = _dense_pieces(split, m)
        assert sum(rank_dense_modp([(piece, P) for piece in pieces])) == \
            rank_dense_modp([(m % P, P)])[0], trial


def test_cut_promotes_sums_past_int64():
    # one generator fixes row 0 and swaps columns 0 and 1: the trivial
    # piece sums the two entries, 2^63, one past the largest int64
    split = CharacterSplit((1, 2), [(np.array([0]), np.array([1, 0]), None)])
    values = np.array([2**62, 2**62], dtype=np.int64)
    pieces = split.cut(np.array([0, 0]), np.array([0, 1]), values)
    assert len(pieces) == 1  # the sign piece keeps no row
    height, width, rows, cols, sums = pieces[0]
    assert (height, width, rows.tolist(), cols.tolist()) == (1, 1, [0], [0])
    assert sums.tolist() == [2**63] and type(sums[0]) is int


def _reference_split(shape, generators, m):
    """characters, keep_rows, keep_cols, row_reps and the pieces of m from
    the whole group, listed by composing the generators: element g (the
    product of the generators in its bits) maps point i (row i, or column
    i - height) to images[g, i] with sign signs[g, i]."""
    height, width = shape
    images, signs = [np.arange(height + width)], [np.ones(height + width, np.int64)]
    for rho, pi, sign in generators:
        image = np.concatenate((rho, height + pi))
        sign = np.concatenate((np.ones(height, np.int64), sign))
        images, signs = (images + [image[i] for i in images],
                         signs + [s * sign[i] for i, s in zip(images, signs)])
    images, signs = np.array(images), np.array(signs)
    size = len(images)
    chi = np.array([[(-1) ** (x & g).bit_count() for g in range(size)] for x in range(size)])
    least = images.min(axis=0)
    # x keeps a least point when chi_x(g) is the sign of each g fixing it
    fixes = images == np.arange(height + width)
    keep = ((chi[:, :, None] == signs) | ~fixes).all(axis=1) & (least == np.arange(height + width))
    keep_rows, keep_cols = keep[:, :height], keep[:, height:]
    characters = [tuple(x >> s & 1 for s in range(len(generators))) for x in range(size)]
    # column c enters the column of its orbit's least with chi_x(g) times
    # the sign of g at c, for the first g that carries it there
    carry = (images[:, height:] == least[height:]).argmax(axis=0)
    pieces = []
    for x in range(size):
        rows, cols = keep_rows[x].nonzero()[0], keep_cols[x].nonzero()[0]
        piece = np.zeros((len(rows), len(cols)), dtype=object)
        for c in range(width):
            at = np.flatnonzero(cols == least[height + c] - height)
            g = carry[c]
            if at.size:
                piece[:, at[0]] += chi[x, g] * signs[g, height + c] * m[rows, c].astype(object)
        r, c = np.nonzero(piece)
        if r.size:
            pieces.append((len(rows), len(cols), r.tolist(), c.tolist(), piece[r, c].tolist()))
    return characters, keep_rows, keep_cols, keep_rows.any(axis=0).nonzero()[0], pieces


def test_split_matches_the_whole_group_up_to_five_generators():
    rng = random.Random(22)
    np_rng = np.random.default_rng(22)
    for trial in range(30):
        t = trial % 5 + 1
        rows = _random_action(rng, t, signed=False)
        cols = _random_action(rng, t, signed=True)
        generators = [(rho, pi, sign) for (rho, _), (pi, sign) in zip(rows, cols)]
        shape = (len(rows[0][0]), len(cols[0][0]))
        m = _symmetrized(generators, np_rng.integers(-3, 4, shape))
        characters, keep_rows, keep_cols, row_reps, pieces = _reference_split(
            shape, generators, m)
        split = CharacterSplit(shape, generators)
        assert split.characters == characters, trial
        assert (split.keep_rows == keep_rows).all() and (split.keep_cols == keep_cols).all(), trial
        assert split.row_reps.tolist() == row_reps.tolist(), trial
        got = [(h, w, r.tolist(), c.tolist(), np.asarray(v).tolist())
               for h, w, r, c, v in split.cut(*np.nonzero(m), m[np.nonzero(m)])]
        assert got == pieces, trial
