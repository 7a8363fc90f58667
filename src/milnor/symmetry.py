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
the least column of O: M in a basis of each part.  Strands (linalg) pass
variable transpositions; the node oracle (nodes) passes the flips
j_i -> d - j_i, which permute the nodes and multiply the column of x^e by
(-1)^e_i in place.  Each caller proves that its action keeps M.
"""

from __future__ import annotations

import numpy as np


class CharacterSplit:
    """The group table of commuting involutions and each character's piece.

    Each generator is a (row map, column map, column signs) triple of index
    arrays, signs None for all +1; ones that do not commute or square to 1
    raise ValueError.  chi[x, g] is chi_x(g), characters[x] lists chi_x on
    the generators (1 for -1), keep_rows[x] and keep_cols[x] mark the orbit
    representatives it keeps, and row_reps holds the least row of each row
    orbit.
    """

    def __init__(self, shape: tuple[int, int], generators=()):
        height, width = shape
        # the rows and columns as one set of points, column c at height + c,
        # each generator as a map of the points and a sign at each
        gens = [(np.concatenate((rho, height + pi)), np.ones(height + width, np.int64)
                 if sign is None else np.concatenate((np.ones(height, np.int64), sign)))
                for rho, pi, sign in generators]
        size = 1 << len(gens)
        # images[g], signs[g]: where element g (the product of the generators
        # in its bits) sends each point, with what sign
        images = np.empty((size, height + width), dtype=np.int64)
        signs = np.ones((size, height + width), dtype=np.int64)
        images[0] = np.arange(height + width)
        for s, (image, sign) in enumerate(gens):
            done, new = slice(0, 1 << s), slice(1 << s, 2 << s)
            images[new], signs[new] = image[images[done]], signs[done] * sign[images[done]]
        # they commute and square to 1 when generator s after generator r
        # is element 2^r ^ 2^s, for every r (the table holds it for r < s)
        at = 1 << np.arange(len(gens))
        for s, (image, sign) in enumerate(gens):
            moved, after = images[at], at ^ (1 << s)
            if not ((image[moved] == images[after]).all()
                    and (signs[at] * sign[moved] == signs[after]).all()):
                raise ValueError("the generators must be commuting involutions")
        # chi[x, g] = chi_x(g) = (-1)^popcount(x & g)
        self.chi = np.array([[(-1) ** (x & g).bit_count() for g in range(size)]
                             for x in range(size)], dtype=np.int64)
        self.characters = [tuple(x >> g & 1 for g in range(len(gens))) for x in range(size)]
        # keep[x, i]: i is its orbit's least, and chi_x(g) is the sign of
        # each g fixing i, so the chi_x-weighted signs sum to their number
        fixes = images == images[0]
        keep = (self.chi @ (fixes * signs) == fixes.sum(axis=0)) & (images.min(axis=0) == images[0])
        self.keep_rows, self.keep_cols = keep[:, :height], keep[:, height:]
        self.row_reps = self.keep_rows.any(axis=0).nonzero()[0]
        # carry[c]: an element carrying column c to its orbit's least column,
        # and back; c enters piece x with chi_x(carry[c]) times its sign
        cols, col_signs = images[:, height:] - height, signs[:, height:]
        self._carry = cols.argmin(axis=0)
        self._least, self._carry_sign = cols[self._carry, cols[0]], col_signs[self._carry, cols[0]]

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
        bound = 1 << (62 - len(self.chi).bit_length())
        if values.dtype != object and values.size and max(
                int(values.max()), -int(values.min())) >= bound:
            values = values.astype(object)  # a sum of |G| entries could pass int64
        least, carry, carry_sign = self._least, self._carry, self._carry_sign
        # entry e lands in piece x when x keeps its row and its column's
        # orbit; the pieces' cells are numbered one piece after the other
        orbits = least[cols]
        x, e = np.nonzero(self.keep_rows[:, rows] & self.keep_cols[:, orbits])
        heights, widths = self.keep_rows.sum(axis=1), self.keep_cols.sum(axis=1)
        place_rows = np.cumsum(self.keep_rows, axis=1) - 1
        place_cols = np.cumsum(self.keep_cols, axis=1) - 1
        start = np.concatenate(([0], np.cumsum(heights * widths)))
        cells, sums = summed(
            start[x] + place_rows[x, rows[e]] * widths[x] + place_cols[x, orbits[e]],
            self.chi[x, carry[cols[e]]] * carry_sign[cols[e]] * values[e])
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
