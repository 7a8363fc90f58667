"""Evaluation-based node oracle for Chebyshev hypersurfaces.

Independent second route to the defects: enumerate the nodes of CC(n,d)
with exact coordinates, evaluate monomials at them, and read the defect
off the rank of the evaluation matrix,

    defect S_k(N) = |N| - rank(ev at degree <= k),

using the dictionary between homogeneous degree-k forms and affine
polynomials of degree <= k at x_0 = 1 (every node of CC(n,d) is affine;
the top-degree part is a scaled Fermat form, smooth at infinity).

Node coordinates cos(j*pi/d) live in the cyclotomic field of order 2d as
(zeta^j + zeta^(2d-j))/2, so the nodes are exact.  Ranks are computed
over prime fields F_p with p = 1 (mod 2d), where the field embeds by
sending zeta to an element of exact multiplicative order 2d (one exists
for every such p, and ModularEmbedding picks it deterministically), and
every rank returned is proved from those modular ranks alone:

- a modular rank never exceeds the rank over Q(zeta_2d), so one prime
  whose rank is min(rows, cols) proves it;
- otherwise let R' be the largest modular rank and s = R' + 1.  Scaling
  column c by 2^deg(c) makes its entries algebraic integers whose
  conjugates all have absolute value <= 2^deg(c), so by Hadamard a
  nonzero s x s minor has norm at most
  (s^(s/2) * 2^(sum of the s largest column degrees))^phi(2d).  Each
  prime p > 2^30 whose rank drops puts that minor in a distinct prime
  ideal of norm p, so more primes than log2(bound)/30 cannot all drop,
  and the rank is R'.

Sign flips.  The flip j_i -> d - j_i negates x_i, since cos((d-j)*pi/d) =
-cos(j*pi/d), so x^e(flipped x) = (-1)^e_i x^e(x), exactly in Q(zeta_2d)
and so mod every p = 1 (mod 2d).  When every flip maps the node set onto
itself (for CC(n,d): d even) milnor.symmetry splits the matrix by their
characters, and each piece, a submatrix, is proved on its own as above,
with its own column degrees in the Hadamard bound.

This module never touches the Jacobian-strand route, so agreement between
the two is a genuine end-to-end check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .chebyshev import ChebyshevSpec, build, canonical_spec, critical_tuples
from .domains import (CyclotomicElement, CyclotomicField, draw_distinct_primes,
                      prime_factors)
from .linalg import rank_dense_modp
from .monomials import monomials_of_degree
from .poly import SparsePolynomial, partial_derivatives
from .symmetry import CharacterSplit

__all__ = [
    "EvaluationMatrix",
    "InjectivityResult",
    "ModularEmbedding",
    "OracleConfig",
    "affine_monomials",
    "defect_direct",
    "dump_nodes",
    "enumerate_nodes",
    "evaluation_matrix",
    "gradient_check",
    "injectivity_threshold",
]


def enumerate_nodes(n: int, d: int, k: int | None = None
                    ) -> list[tuple[CyclotomicElement, ...]]:
    """Affine node coordinates of C(n,d,k), canonical shift by default.

    Ordered lexicographically in the critical-index tuples, so the output
    is reproducible. Each coordinate is an exact element of Q(zeta_2d).
    """
    spec = ChebyshevSpec(n, d, k) if k is not None else canonical_spec(n, d)
    fld = CyclotomicField(2 * d)
    cos = {j: fld.cos_root(j, d) for j in range(1, d)}
    return [tuple(cos[j] for j in js)
            for js in critical_tuples(n, d, spec.k)]


def gradient_check(f: SparsePolynomial,
                   nodes: list[tuple[CyclotomicElement, ...]]) -> bool:
    """Exact check that every node annihilates all n+1 partials of f at x0=1."""
    if not nodes:
        return True
    fld = nodes[0][0].field
    one = fld.scalar(1)
    partials = partial_derivatives(f, f.degree)
    for node in nodes:
        point = [one, *node]
        for g in partials:
            if g.evaluate(point):
                return False
    return True


def affine_monomials(n: int, r: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the monomials of degree <= r in n variables.

    Ordered by total degree, then the graded order used everywhere else;
    count is C(n+r, n).
    """
    out: list[tuple[int, ...]] = []
    for t in range(r + 1):
        out.extend(tuple(m) for m in monomials_of_degree(n, t))
    return out


class ModularEmbedding:
    """Ring homomorphism Q(zeta_m) -> F_p for a prime p = 1 (mod m).

    zeta goes to omega = g^((p-1)/m) for the first g = 2, 3, ... with
    g^((p-1)/q) = omega^(m/q) != 1 for every prime q dividing m, so omega
    has exact multiplicative order m.  A primitive root mod p passes, so
    the search ends, and omega depends on m and p alone.  Any omega of
    order m fixes a prime ideal above p, which is all a modular rank
    needs.  A p that is not 1 mod m raises ValueError.
    """

    def __init__(self, fld: CyclotomicField, p: int):
        m = fld.order
        if (p - 1) % m:
            raise ValueError(f"{p} is not 1 mod {m}")
        self.field = fld
        self.p = p
        factors = prime_factors(m)
        self.omega = next(w for w in (pow(g, (p - 1) // m, p) for g in range(2, p))
                          if all(pow(w, m // q, p) != 1 for q in factors))
        # images of the basis powers zeta^0 .. zeta^(phi-1)
        self._basis = [pow(self.omega, i, p) for i in range(fld.phi)]

    def __call__(self, elem: CyclotomicElement) -> int:
        if elem.field.order != self.field.order:
            raise ValueError("element from a different field")
        p = self.p
        total = 0
        for c, w in zip(elem.coeffs, self._basis):
            if c:
                den = c.denominator % p
                if den == 0:
                    raise ValueError(f"denominator divisible by {p}")
                total += c.numerator % p * pow(den, -1, p) % p * w
        return total % p


@dataclass
class EvaluationMatrix:
    """Monomials of degree <= r evaluated at the nodes of C(n,d,k).

    Rows are nodes (lex order in critical-index tuples), columns the
    affine monomials. Entries exist in two forms: exact cyclotomic rows,
    or the image mod a prime p = 1 (mod 2d).
    """

    n: int
    d: int
    k: int
    r: int
    node_tuples: list[tuple[int, ...]]
    field: CyclotomicField
    columns: list[tuple[int, ...]] = dc_field(repr=False, default_factory=list)

    @property
    def num_rows(self) -> int:
        return len(self.node_tuples)

    @property
    def num_cols(self) -> int:
        return len(self.columns)

    @cached_property
    def _cosines(self) -> list[CyclotomicElement]:
        """Exact cos(j*pi/d) for j = 0..d-1, indexed by j."""
        return [self.field.cos_root(j, self.d) for j in range(self.d)]

    def _cosines_modp(self, emb: ModularEmbedding) -> list[int]:
        """emb(cos(j*pi/d)) for j = 0..d-1, as (w^j + w^(2d-j)) / 2 mod p.

        w = emb.omega is the image of the root of unity of order 2d.
        """
        p, m = emb.p, self.field.order
        step = m // (2 * self.d)
        w = [pow(emb.omega, step * j, p) for j in range(self.d)]
        w_bar = [pow(emb.omega, m - step * j, p) for j in range(self.d)]
        half = (p + 1) // 2
        return [(a + b) * half % p for a, b in zip(w, w_bar)]

    @cached_property
    def _index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        nodes = np.array(self.node_tuples, dtype=np.intp).reshape(
            self.num_rows, self.n)
        exps = np.array(self.columns, dtype=np.intp).reshape(
            self.num_cols, self.n)
        return nodes, exps

    @cached_property
    def split(self) -> CharacterSplit:
        """The character split under the flips j_i -> d - j_i: flip i
        permutes the rows and multiplies the column of x^e by (-1)^e_i in
        place.  Unless every flip maps the node set onto itself, found by
        a binary search of the nodes in lex order, there are no generators,
        and the one piece is the whole matrix."""
        nodes, exps = self._index_arrays
        # node (j_i) as the base-d number with digits j_i, increasing in
        # lex order, and its image under each flip
        weights = self.d ** np.arange(self.n)[::-1]
        codes = nodes @ weights
        images = codes[:, None] + (self.d - 2 * nodes) * weights
        rows = np.minimum(np.searchsorted(codes, images), len(codes) - 1)
        if not (codes[rows] == images).all():
            rows = rows[:, :0]
        signs = 1 - 2 * (exps % 2)
        return CharacterSplit((self.num_rows, self.num_cols), [
            (rows[:, i], np.arange(self.num_cols), signs[:, i]) for i in range(rows.shape[1])])

    def rows_modp(self, p: int, rows: np.ndarray | None = None,
                  cols: np.ndarray | None = None) -> np.ndarray:
        """The matrix mod p, or its submatrix on the given row and column
        indices (all of them by default)."""
        emb = ModularEmbedding(self.field, p)
        powers = []
        for base in self._cosines_modp(emb):
            row = [1]
            for _ in range(self.r):
                row.append(row[-1] * base % p)
            powers.append(row)
        table = np.array(powers, dtype=np.int64)
        nodes, exps = self._index_arrays
        if rows is not None:
            nodes = nodes[rows]
        if cols is not None:
            exps = exps[cols]
        # entries stay below p < 2^31, so each product is below 2^62
        out = np.ones((len(nodes), len(exps)), dtype=np.int64)
        for v in range(self.n):
            out = out * table[np.ix_(nodes[:, v], exps[:, v])] % p
        return out

    def rows_exact(self) -> list[list[CyclotomicElement]]:
        cos = self._cosines
        one = self.field.scalar(1)
        rows = []
        for js in self.node_tuples:
            powers = []
            for j in js:
                col = [one]
                for _ in range(self.r):
                    col.append(col[-1] * cos[j])
                powers.append(col)
            row = []
            for exps in self.columns:
                val = one
                for v, e in enumerate(exps):
                    if e:
                        val = val * powers[v][e]
                row.append(val)
            rows.append(row)
        return rows


def evaluation_matrix(n: int, d: int, r: int,
                      k: int | None = None) -> EvaluationMatrix:
    spec = ChebyshevSpec(n, d, k) if k is not None else canonical_spec(n, d)
    tuples = list(critical_tuples(n, d, spec.k))
    return EvaluationMatrix(n=n, d=d, k=spec.k, r=r, node_tuples=tuples,
                            field=CyclotomicField(2 * d),
                            columns=affine_monomials(n, r))


@dataclass
class OracleConfig:
    """Seed of the prime draws behind evaluation-matrix ranks.

    The seed picks the primes, never the result: every rank is proved,
    by one prime at full rank and otherwise by more primes than the
    Hadamard bound on the norm of a nonzero minor allows to drop.
    """

    seed: int | str = 0


@dataclass
class BlockRank:
    """Proved rank of one character piece, with the primes it took; its
    character on the flips, 1 for -1, is its columns' exponent parity."""

    character: tuple[int, ...]
    shape: tuple[int, int]
    rank: int = 0
    primes: list[int] = dc_field(default_factory=list)
    ranks: list[int] = dc_field(default_factory=list)


@dataclass
class OracleRank:
    """Proved rank: the sum of the piece ranks; primes is the shared stream."""

    rank: int
    primes: list[int]
    blocks: list[BlockRank]


# the oracle draws its primes above 2^_PRIME_BITS
_PRIME_BITS = 30


def _bad_prime_bound(s: int, degrees: list[int], phi: int) -> int:
    """Most primes p > 2^30 at which a nonzero s x s minor can vanish.

    With column c scaled by 2^degrees[c] the minor is an algebraic integer
    of norm at most (s^(s/2) * 2^D)^phi, D the sum of the s largest
    degrees (Hadamard in each of the phi embeddings).  The norm is a
    nonzero multiple of the product of those primes, so at most
    log2(bound)/30 of them exist; s.bit_length() stands in for log2 s to
    keep this in integers.
    """
    top = sum(sorted(degrees)[len(degrees) - s:])
    return phi * (s * s.bit_length() + 2 * top) // (2 * _PRIME_BITS)


def _evaluation_rank(matrix: EvaluationMatrix, config: OracleConfig,
                     salt: str) -> OracleRank:
    """Rank of the evaluation matrix over Q(zeta_2d), proved mod primes.

    The rank is the sum of the ranks of the character pieces, each proved
    on its own from one shared stream of distinct primes p = 1 (mod 2d): a
    piece is done once its best rank is min(rows, cols), or once it has
    been ranked mod more than _bad_prime_bound(best + 1, its column
    degrees) primes, so no larger rank survives.  Each prime evaluates
    only the rows and columns of the pieces still open and ranks them all
    in one rank_dense_modp call, and every drawn prime counts: each has an
    element of order 2d.  The flips fix every column, so a piece is its
    rows and columns of the matrix.
    """
    rng = random.Random(f"{config.seed}|{salt}")
    phi = matrix.field.phi
    degrees = [sum(exps) for exps in matrix.columns]
    records, todo = [], []
    for character, rows, cols in matrix.split.pieces:
        rec = BlockRank(character, (len(rows), len(cols)))
        records.append(rec)
        if min(rec.shape):
            todo.append((rec, rows, cols, [degrees[c] for c in cols]))
    primes: list[int] = []
    while todo:
        p, = draw_distinct_primes(rng, 1, modulus=matrix.field.order,
                                  lo=1 << _PRIME_BITS, exclude=primes)
        rows = np.unique(np.concatenate([t[1] for t in todo]))
        cols = np.unique(np.concatenate([t[2] for t in todo]))
        arr = matrix.rows_modp(p, rows, cols)
        primes.append(p)
        subs = [(arr[np.ix_(np.searchsorted(rows, block_rows),
                            np.searchsorted(cols, block_cols))], p)
                for _, block_rows, block_cols, _ in todo]
        still_open = []
        for block, rank in zip(todo, rank_dense_modp(subs)):
            rec, _, _, block_degrees = block
            rec.ranks.append(rank)
            rec.primes.append(p)
            rec.rank = max(rec.ranks)
            if rec.rank < min(rec.shape) and len(rec.primes) <= \
                    _bad_prime_bound(rec.rank + 1, block_degrees, phi):
                still_open.append(block)
        todo = still_open
    return OracleRank(rank=sum(rec.rank for rec in records), primes=primes,
                      blocks=records)


def defect_direct(n: int, d: int, degree: int,
                  config: OracleConfig | None = None,
                  k_shift: int | None = None) -> int:
    """defect S_degree(N(n,d)) from the evaluation matrix, proved.

    Canonical CC(n,d) by default; pass k_shift for another singular shift.
    Independent of the Jacobian-strand route.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    config = config or OracleConfig()
    matrix = evaluation_matrix(n, d, degree, k=k_shift)
    salt = f"eval-{n}-{d}-{degree}" if k_shift is None else \
        f"eval-{n}-{d}-{degree}-k{k_shift}"
    res = _evaluation_rank(matrix, config, salt=salt)
    return matrix.num_rows - res.rank


@dataclass
class InjectivityResult:
    """Largest degree r with an injective evaluation map, plus the witness.

    The witness is the x0-partial of the defining equation restricted to
    x0 = 1: degree d-2, vanishes on every node by the chain rule, so it
    certifies non-injectivity one degree above r_star.  certified is
    always True: the rank at r_star is proved or an error is raised.
    """

    r_star: int
    witness_degree: int
    witness_in_kernel: bool
    certified: bool


def injectivity_threshold(n: int, d: int,
                          config: OracleConfig | None = None) -> InjectivityResult:
    """r* for CC(n,d): evaluation on degree <= r is injective iff r <= r*.

    Injectivity at r* is proved by full column rank mod one prime p = 1
    (mod 2d), since a modular rank never exceeds the rank over Q(zeta_2d);
    if that prime falls short, _evaluation_rank proves the rank from the
    norm bound and a deficient one is raised as an error.  Failure above
    r* is certified by the exact witness polynomial in the kernel.
    """
    config = config or OracleConfig()
    r = d - 3
    matrix = evaluation_matrix(n, d, r)
    res = _evaluation_rank(matrix, config, salt=f"inj-{n}-{d}")
    if res.rank != matrix.num_cols:
        raise ArithmeticError(
            f"evaluation at degree {r} is not injective for CC({n},{d}); "
            f"rank {res.rank} of {matrix.num_cols} columns")

    f = build(canonical_spec(n, d))
    witness = f.partial_derivative(0).substitute({0: 1})
    in_kernel = _vanishes_on_nodes(witness, matrix)
    return InjectivityResult(r_star=r, witness_degree=witness.degree,
                             witness_in_kernel=in_kernel, certified=True)


def _vanishes_on_nodes(g: SparsePolynomial, matrix: EvaluationMatrix) -> bool:
    """Exact check that g(1, x) = 0 at every node of the matrix.

    When every exponent in g is even, g takes one value on each orbit of
    the flips x_i -> -x_i, so the orbit representatives suffice;
    otherwise g is evaluated at every node.
    """
    even = all(e % 2 == 0 for mono in g.terms for e in mono)
    rows = matrix.split.row_reps if even else range(matrix.num_rows)
    cos = matrix._cosines
    one = matrix.field.scalar(1)
    return all(not g.evaluate([one, *(cos[j] for j in matrix.node_tuples[r])])
               for r in rows)


def dump_nodes(nodes: list[tuple[CyclotomicElement, ...]], fh) -> None:
    """One node per line, coordinates as bracketed coefficient vectors."""
    for node in nodes:
        fh.write(" ".join(c.vector_text() for c in node) + "\n")
