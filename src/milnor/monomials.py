"""Exponent vectors and graded monomial bases.

Monomials in ``num_vars`` variables x0, x1, ... are exponent tuples.  The
graded piece of degree k is enumerated in graded lexicographic order with
x0 > x1 > ... (largest first), and that order is the row/column order used
by every matrix in the package.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np


class Monomial(tuple):
    """Exponent vector of a power product, e.g. (1, 0, 2) for x0*x2^2."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return sum(self)

    def __mul__(self, other):
        if len(self) != len(other):
            raise ValueError("monomials live in different rings")
        return Monomial(a + b for a, b in zip(self, other))

    def divides(self, other) -> bool:
        return all(a <= b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Monomial{tuple(self)!r}"


def unit_monomial(num_vars: int, i: int, e: int = 1) -> Monomial:
    """The monomial x_i^e."""
    if not 0 <= i < num_vars:
        raise ValueError(f"variable index {i} out of range for {num_vars} variables")
    return Monomial(e if j == i else 0 for j in range(num_vars))


@lru_cache(maxsize=None)
def monomials_of_degree(num_vars: int, degree: int) -> tuple[Monomial, ...]:
    """All monomials of the given total degree, graded-lex descending.

    The first element is x0^degree, the last is x_{num_vars-1}^degree.
    """
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        return ()
    if num_vars == 1:
        return (Monomial((degree,)),)
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials_of_degree(num_vars - 1, degree - e):
            out.append(Monomial((e,) + rest))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(num_vars: int, degree: int) -> dict[Monomial, int]:
    """Position of each degree-k monomial in monomials_of_degree(num_vars, k)."""
    return {m: i for i, m in enumerate(monomials_of_degree(num_vars, degree))}


@lru_cache(maxsize=None)
def exponent_array(num_vars: int, degree: int) -> np.ndarray:
    """monomials_of_degree(num_vars, degree) as a read-only int64 array,
    one row of exponents per monomial."""
    out = np.array(monomials_of_degree(num_vars, degree), dtype=np.int64)
    out = out.reshape(-1, num_vars)
    out.setflags(write=False)
    return out


def grlex_ranks(exps: np.ndarray) -> np.ndarray:
    """Position of each exponent row in monomials_of_degree of its degree.

    exps is an int array whose last axis holds the exponents of all the
    variables.  Monomials with a larger exponent of x_i and the same ones
    before it come first; with t the degree left after x_i there are
    C(num_vars - i - 2 + t, t - 1) of them, so the position is a sum of
    binomials looked up in a table no larger than the inputs' degree.
    """
    num_vars = exps.shape[-1]
    tails = np.cumsum(exps[..., :0:-1], axis=-1)[..., ::-1]
    table = _grlex_table(num_vars, int(tails.max(initial=0)))
    return table[np.arange(num_vars - 1), tails].sum(axis=-1)


@lru_cache(maxsize=None)
def _grlex_table(num_vars: int, top: int) -> np.ndarray:
    """The binomials of grlex_ranks, read-only: C(num_vars - i - 2 + t, t - 1)
    at (i, t) for t = 1..top, and 0 at t = 0."""
    table = np.array([[comb(num_vars - i - 2 + t, t - 1) if t else 0
                       for t in range(top + 1)] for i in range(num_vars - 1)],
                     dtype=np.int64).reshape(num_vars - 1, top + 1)
    table.setflags(write=False)
    return table


def num_monomials(num_vars: int, degree: int) -> int:
    """dim of the degree-k graded piece, C(num_vars - 1 + k, k)."""
    if degree < 0:
        return 0
    return comb(num_vars - 1 + degree, degree)
