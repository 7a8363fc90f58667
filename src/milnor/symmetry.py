"""Splitting a matrix by the +-1 characters of Z2^t.

Commuting involutions act on a matrix M when each permutes the rows,
r -> rho(r), and sends column c to sign(c) times column pi(c), with
M[rho(r), pi(c)] = sign(c) M[r, c] at every entry.  Over any field of
characteristic other than 2, M then maps the isotypic part of each
character chi_x(g) = (-1)^popcount(x & g) of the group G = Z2^t they
generate into the same part, so rank M is the sum of the ranks of the 2^t
pieces, over Q and mod every odd prime (Gatermann & Parrilo, J. Pure Appl.
Algebra 192, 2004).  Piece x has a row or column for each orbit whose
least index i has chi_x(h) equal to the sign with which h fixes i, for
every h in its stabilizer H (chi_x trivial on H for rows and unsigned
columns): |G|/|H| characters keep each orbit.  Its entry at (r0, O) is the
sum over c in O of chi_x(g_c) sign_{g_c}(c) M[r0, c], g_c carrying c to
the least column of O: M in a basis of each part.  One pass per generator
finds these without listing G: each point holds its orbit's least point,
an element carrying it there and that element's sign at it.  Strands
(linalg) pass variable transpositions; the node oracle (nodes) passes the
flips j_i -> d - j_i, which permute the nodes and multiply the column of
x^e by (-1)^e_i in place.  Each caller proves that its action keeps M.
"""

from __future__ import annotations

import numpy as np


class CharacterSplit:
    """The orbits of commuting involutions and each character's piece.

    Each generator is a (row map, column map, column signs) triple of index
    arrays, signs None for all +1; ones that do not commute or square to 1
    raise ValueError.  characters[x] lists chi_x on the generators (1 for
    -1), keep_rows[x] and keep_cols[x] mark the orbit representatives it
    keeps, and row_reps holds the least row of each row orbit.  Elements
    are bitmasks of the generators, generator s as bit s.
    """

    def __init__(self, shape: tuple[int, int], generators=()):
        height, width = shape
        # the rows and columns as one set of points, column c at height + c,
        # each generator as a map of the points and a sign at each
        gens = [(np.concatenate((rho, height + pi)), np.ones(height + width, np.int64)
                 if sign is None else np.concatenate((np.ones(height, np.int64), sign)))
                for rho, pi, sign in generators]
        points = np.arange(height + width)
        for r, (g, sign) in enumerate(gens):
            if not ((g[g] == points).all() and (sign * sign[g] == 1).all() and all(
                    (g[h] == h[g]).all() and (h_sign * sign[h] == sign * h_sign[g]).all()
                    for h, h_sign in gens[r + 1:])):
                raise ValueError("the generators must be commuting involutions")
        # least[i]: the least point of i's orbit; carry[i]: an element taking
        # i there, sign carry_sign[i]; keep[x, i]: h fixes i with sign chi_x(h)
        least, carry, carry_sign = points, np.zeros_like(points), np.ones_like(points)
        keep = np.ones((1, height + width), dtype=bool)
        for s, (image, sign) in enumerate(gens):
            bit, to = 1 << s, least[image]
            # where generator s keeps i's orbit, fixer fixes i with fix_sign,
            # and a character keeps i only if it takes that sign on fixer:
            # x < bit does where agree[x], and x + bit where it does not
            fixer, fix_sign = carry ^ carry[image] ^ bit, sign * carry_sign[image] * carry_sign
            agree = (np.bitwise_count(np.arange(bit)[:, None] & fixer) & 1) == (fix_sign < 0)
            other, moved = to != least, to < least
            keep = np.concatenate((keep & (other | agree), keep & (other | ~agree)))
            # elsewhere the two orbits merge at the lesser least point
            carry = np.where(moved, carry[image] | bit, carry)
            carry_sign = np.where(moved, sign * carry_sign[image], carry_sign)
            least = np.minimum(least, to)
        self.characters = [tuple(x >> g & 1 for g in range(len(gens))) for x in range(len(keep))]
        keep &= least == points
        self.keep_rows, self.keep_cols = keep[:, :height], keep[:, height:]
        self.row_reps = self.keep_rows.any(axis=0).nonzero()[0]
        # column c enters piece x with chi_x(carry[c]) times its sign
        self._least, self._carry, self._carry_sign = (
            least[height:] - height, carry[height:], carry_sign[height:])

    @property
    def pieces(self) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
        """(character, kept row and column-orbit representatives) for every
        character, empty pieces included."""
        return [(character, rows.nonzero()[0], cols.nonzero()[0])
                for character, rows, cols in zip(self.characters, self.keep_rows, self.keep_cols)]

    def cut(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> list[tuple]:
        """(height, width, rows, cols, values) of each piece, in the order of
        the characters, of the sparse matrix with values[i] at (rows[i],
        cols[i]); pieces without a nonzero entry are dropped."""
        bound = 1 << (62 - len(self.characters).bit_length())
        if values.dtype != object and values.size and max(
                int(values.max()), -int(values.min())) >= bound:
            values = values.astype(object)  # a sum of |G| entries could pass int64
        # entry e lands in piece x when x keeps its row and its column's
        # orbit; the pieces' cells are numbered one piece after the other
        orbits = self._least[cols]
        x, e = np.nonzero(self.keep_rows[:, rows] & self.keep_cols[:, orbits])
        heights, widths = self.keep_rows.sum(axis=1), self.keep_cols.sum(axis=1)
        place_rows = np.cumsum(self.keep_rows, axis=1) - 1
        place_cols = np.cumsum(self.keep_cols, axis=1) - 1
        start = np.concatenate(([0], np.cumsum(heights * widths)))
        sign, odd = self._carry_sign[cols[e]], np.bitwise_count(x & self._carry[cols[e]]) & 1
        cells, sums = summed(
            start[x] + place_rows[x, rows[e]] * widths[x] + place_cols[x, orbits[e]],
            np.where(odd, -sign, sign) * values[e])
        cells, sums = cells[sums != 0], sums[sums != 0]
        bounds = np.searchsorted(cells, start).tolist()
        pieces = []
        for x, (height, width) in enumerate(zip(heights.tolist(), widths.tolist())):
            if bounds[x] < bounds[x + 1]:
                local = cells[bounds[x] : bounds[x + 1]] - start[x]
                pieces.append((height, width, local // width, local % width,
                               sums[bounds[x] : bounds[x + 1]]))
        return pieces


def summed(keys: np.ndarray, values: np.ndarray):
    """The distinct keys in increasing order and the sum of the values at each."""
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    repeat = keys[1:] == keys[:-1]
    if not repeat.any():
        return keys, values
    head = np.flatnonzero(~np.concatenate(([False], repeat)))
    return keys[head], np.add.reduceat(values, head)
