"""Node enumeration, cyclotomic evaluation oracle, injectivity threshold."""

import io
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import milnor.linalg
import milnor.nodes
from milnor.chebyshev import ChebyshevSpec, build, canonical_spec, cc_node_count
from milnor.domains import CyclotomicElement, CyclotomicField, draw_distinct_primes
from milnor.monomials import num_monomials
from milnor.nodes import (EvaluationMatrix, ModularEmbedding, OracleConfig,
                          _bad_prime_bound, _evaluation_rank,
                          _vanishes_on_nodes, affine_monomials,
                          defect_direct, dump_nodes, enumerate_nodes,
                          evaluation_matrix, gradient_check,
                          injectivity_threshold)
from milnor.poly import SparsePolynomial, parse_polynomial


def test_enumerate_counts_match_formula():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for n in (2, 3):
            for d in range(3, 7):
                assert len(enumerate_nodes(n, d)) == cc_node_count(n, d)
    assert len(enumerate_nodes(3, 4, k=-1)) == 6


def test_nodes_annihilate_gradient():
    cases = [(2, 3, None), (2, 5, None), (3, 3, None), (3, 4, None),
             (4, 4, None), (3, 4, -1)]
    for n, d, k in cases:
        spec = ChebyshevSpec(n, d, k) if k is not None else canonical_spec(n, d)
        f = build(spec)
        nodes = enumerate_nodes(n, d, k=k)
        assert nodes and gradient_check(f, nodes)


def test_dump_nodes_frozen():
    buf = io.StringIO()
    dump_nodes(enumerate_nodes(2, 3), buf)
    assert buf.getvalue() == "[1/2, 0] [-1/2, 0]\n[-1/2, 0] [1/2, 0]\n"


def test_modular_embedding_is_homomorphism():
    fld = CyclotomicField(8)
    emb = ModularEmbedding(fld, 17)
    # 3 is the first g with g^8 != 1 mod 17, and omega = 3^2
    assert emb.omega == 9
    assert pow(emb.omega, 8, 17) == 1 and pow(emb.omega, 4, 17) != 1
    assert emb(fld.scalar(1)) == 1
    assert emb(fld.cos_root(1, 4)) == 14
    rng = random.Random(1)
    for _ in range(100):
        a = CyclotomicElement(fld, [rng.randrange(-5, 6)
                                    for _ in range(fld.phi)])
        b = CyclotomicElement(fld, [rng.randrange(-5, 6)
                                    for _ in range(fld.phi)])
        assert emb(a * b) == emb(a) * emb(b) % 17
        assert emb(a + b) == (emb(a) + emb(b)) % 17
    # omega has exact order m and depends on m and p alone, for large
    # primes and for small ones
    draws = random.Random(2)
    for m in (6, 8, 10, 12, 14, 16):
        fld = CyclotomicField(m)
        small = [p for p in (7, 11, 13, 17, 29, 41, 73, 97, 113) if p % m == 1]
        for p in small + draw_distinct_primes(draws, 10, modulus=m):
            omega = ModularEmbedding(fld, p).omega
            assert pow(omega, m, p) == 1, (m, p)
            assert all(pow(omega, m // q, p) != 1
                       for q in (2, 3, 5, 7) if m % q == 0), (m, p)
            assert ModularEmbedding(fld, p).omega == omega
    # so the matrix mod p is a function of p
    mat = evaluation_matrix(3, 4, 3)
    for p in draw_distinct_primes(draws, 3, modulus=8) + [17, 41, 73]:
        assert (mat.rows_modp(p) == mat.rows_modp(p)).all()
        assert (evaluation_matrix(3, 4, 3).rows_modp(p) == mat.rows_modp(p)).all()


def test_modular_embedding_rejects_bad_prime():
    fld = CyclotomicField(8)
    with pytest.raises(ValueError, match="not 1 mod 8"):
        ModularEmbedding(fld, 19)
    emb = ModularEmbedding(fld, 17)
    with pytest.raises(ValueError, match="denominator divisible by 17"):
        emb(fld.scalar(Fraction(1, 17)))


def test_affine_monomials_blocked_by_degree():
    from math import comb
    mons = affine_monomials(2, 3)
    assert len(mons) == comb(2 + 3, 2)
    degrees = [sum(m) for m in mons]
    assert degrees == sorted(degrees)


def test_evaluation_matrix_shape_and_exact_rows():
    mat = evaluation_matrix(2, 5, 2)
    assert mat.num_rows == 8
    assert mat.num_cols == 6
    cases = [(2, 5, 2, [41])]
    rng = random.Random(7)
    for n, d, top in ((3, 4, 3), (4, 4, 2)):
        for r in range(top + 1):
            cases.append((n, d, r, draw_distinct_primes(rng, 2,
                                                        modulus=2 * d)))
    for n, d, r, primes in cases:
        mat = evaluation_matrix(n, d, r)
        assert mat.num_cols == num_monomials(n + 1, r)  # homogenized
        exact = mat.rows_exact()
        for p in primes:
            emb = ModularEmbedding(mat.field, p)
            modp = mat.rows_modp(p)
            assert modp.shape == (mat.num_rows, mat.num_cols)
            for i in range(mat.num_rows):
                for j in range(mat.num_cols):
                    assert emb(exact[i][j]) == int(modp[i, j]), (n, d, r, p)
            rows, cols = mat.split.row_reps[::2], list(range(1, mat.num_cols, 3))
            sub = mat.rows_modp(p, rows, cols)
            assert (sub == modp[np.ix_(rows, cols)]).all()


def test_modular_cosines_match_exact_embedding():
    rng = random.Random(3)
    for d in (4, 5, 6, 8):
        mat = evaluation_matrix(2, d, 1)
        for p in draw_distinct_primes(rng, 2, modulus=2 * d):
            emb = ModularEmbedding(mat.field, p)
            assert mat._cosines_modp(emb) == [
                emb(mat.field.cos_root(j, d)) for j in range(d)], (d, p)


def _flipped(js, i, d):
    return js[:i] + (d - js[i],) + js[i + 1:]


def test_parity_blocks_partition_the_nodes():
    cases = [(2, 6, None), (3, 6, None), (4, 4, None), (3, 4, -1),
             (2, 5, None), (3, 5, None)]
    for n, d, k in cases:
        for r in range(n * (d - 2) + 2):
            mat = evaluation_matrix(n, d, r, k=k)
            pieces = mat.split.pieces
            assert sum(len(rows) for _, rows, _ in pieces) == mat.num_rows
            if d % 2:
                # odd d: no flip maps the node set onto itself
                (character, rows, piece_cols), = pieces
                assert character == ()
                assert list(rows) == list(range(mat.num_rows))
                assert list(piece_cols) == list(range(mat.num_cols))
                continue
            assert len(pieces) == 2 ** n
            cols = sorted(c for _, _, piece_cols in pieces for c in piece_cols)
            assert cols == list(range(mat.num_cols))
            nodes = set(mat.node_tuples)
            orbits = {tuple(min(j, d - j) for j in js) for js in nodes}
            reps = mat.split.row_reps
            assert len(reps) == len(orbits)
            assert all(all(2 * j <= d for j in mat.node_tuples[row]) for row in reps)
            for character, rows, piece_cols in pieces:
                # the columns of exponent parity s, and the representatives
                # with no coordinate d/2 where s_i = 1
                assert list(piece_cols) == [c for c, e in enumerate(mat.columns)
                                            if tuple(v % 2 for v in e) == character]
                assert list(rows) == [row for row in reps if not any(
                    s and 2 * j == d for j, s in zip(mat.node_tuples[row], character))]
                for row in rows:
                    js = mat.node_tuples[row]
                    assert all(2 * j <= d for j in js)
                    assert all(_flipped(js, i, d) in nodes for i in range(n))


def test_one_block_when_a_flip_image_is_missing():
    n, d = 2, 6
    full = evaluation_matrix(n, d, 3)
    # a node with no coordinate d/2, so its flip image is another node
    generic = next(js for js in full.node_tuples if all(2 * j != d for j in js))
    tuples = [js for js in full.node_tuples if js != _flipped(generic, 0, d)]
    mat = EvaluationMatrix(n=n, d=d, k=full.k, r=3, node_tuples=tuples,
                           field=full.field, columns=full.columns)
    (character, rows, cols), = mat.split.pieces
    assert character == () and len(rows) == len(tuples) == full.num_rows - 1
    assert list(cols) == list(range(mat.num_cols))
    res = _evaluation_rank(mat, OracleConfig(seed=0), salt="missing")
    block, = res.blocks
    assert block.shape == (len(tuples), mat.num_cols)
    assert res.rank == block.rank


def test_block_ranks_sum_to_strand_defects(pipeline):
    cfg = OracleConfig(seed=0)
    for n, d, k in ((3, 6, None), (4, 4, None), (3, 4, -1)):
        rep = pipeline.cc(n, d, k=k)
        for r in range(rep.thresholds.T + 1):
            mat = evaluation_matrix(n, d, r, k=k)
            res = _evaluation_rank(mat, cfg, salt=f"blocks-{r}")
            assert len(res.blocks) == 2 ** n
            assert mat.num_rows - sum(b.rank for b in res.blocks) == \
                rep.defects.defect(r), (n, d, k, r)


def test_witness_checked_once_per_orbit(monkeypatch):
    calls = []
    evaluate = SparsePolynomial.evaluate

    def spy(self, values):
        calls.append(values)
        return evaluate(self, values)

    def vanishes_everywhere(g, n, d):
        one = CyclotomicField(2 * d).scalar(1)
        return all(not evaluate(g, [one, *node])
                   for node in enumerate_nodes(n, d))

    monkeypatch.setattr(SparsePolynomial, "evaluate", spy)
    for n, d in ((2, 6), (3, 6), (4, 4)):
        mat = evaluation_matrix(n, d, d - 3)
        witness = build(canonical_spec(n, d)).partial_derivative(0) \
            .substitute({0: 1})
        square = parse_polynomial("x1^2*x2^2", num_vars=n + 1)
        for g in (witness, square):
            calls.clear()
            assert _vanishes_on_nodes(g, mat) == vanishes_everywhere(g, n, d)
            assert len(calls) <= len(mat.split.row_reps) < mat.num_rows
        assert _vanishes_on_nodes(witness, mat)
        assert not _vanishes_on_nodes(square, mat)
    # an odd witness is checked at every node
    mat = evaluation_matrix(3, 5, 2)
    witness = build(canonical_spec(3, 5)).partial_derivative(0) \
        .substitute({0: 1})
    calls.clear()
    assert _vanishes_on_nodes(witness, mat)
    assert len(calls) == mat.num_rows
    # vanishes at every orbit representative of CC(2,6) (x1 in {sqrt(3)/2,
    # 1/2, 0}) but not at x1 = -1/2: odd exponents force the full check
    odd = parse_polynomial("8*x1^4 - 4*x1^3 - 6*x1^2 + 3*x1", num_vars=3)
    mat = evaluation_matrix(2, 6, 3)
    one = mat.field.scalar(1)
    assert all(not evaluate(odd, [one, *(mat._cosines[j] for j in
                                        mat.node_tuples[r])])
               for r in mat.split.row_reps)
    assert not _vanishes_on_nodes(odd, mat)


def test_full_rank_draws_one_prime(monkeypatch):
    draws = []

    def spy(*args, **kwargs):
        out = draw_distinct_primes(*args, **kwargs)
        draws.extend(out)
        return out

    monkeypatch.setattr(milnor.nodes, "draw_distinct_primes", spy)
    for n, d, r in ((2, 5, 1), (2, 5, 3), (3, 6, 3)):
        mat = evaluation_matrix(n, d, r)
        res = _evaluation_rank(mat, OracleConfig(seed=0), salt="full")
        assert res.rank == min(mat.num_rows, mat.num_cols)
        assert len(res.primes) == 1 and res.primes == draws
        draws.clear()


def test_bad_prime_bound_hand_value():
    # CC(3,6), r = 5: 56 columns (21 of degree 5, 15 of 4, 10 of 3, ...);
    # the 49 largest degrees sum to 21*5 + 15*4 + 10*3 + 3*2 = 201, and
    # phi(12) = 4: 4 * (49 * bit_length(49) + 2 * 201) // 60 = 2784 // 60
    degrees = [sum(c) for c in affine_monomials(3, 5)]
    assert _bad_prime_bound(49, degrees, 4) == 46
    # a 2x2 minor of degrees 1 and 1 has norm at most (2 * 4)^2 < 2^30
    assert _bad_prime_bound(2, [0, 1, 1], 2) == 0
    # soundness: bound + 1 primes above 2^30 outweigh the Hadamard norm
    # bound (s^(s/2) * 2^D)^phi, compared squared to stay in integers
    for s, phi in ((2, 2), (35, 4), (49, 4), (60, 6)):
        top = sum(sorted(degrees)[len(degrees) - s:])
        norm_sq = s ** (s * phi) * 2 ** (2 * top * phi)
        bound = _bad_prime_bound(s, degrees, phi)
        assert 1 << (60 * (bound + 1)) > norm_sq


def test_rank_deficient_matrix_proved_by_prime_count():
    mat = evaluation_matrix(3, 6, 5)
    assert (mat.num_rows, mat.num_cols) == (54, 56)
    res = _evaluation_rank(mat, OracleConfig(seed=0), salt="deficient")
    assert res.rank == sum(b.rank for b in res.blocks) == 48
    assert len(res.blocks) == 8
    num_deficient = 0
    for b, (character, rows, cols) in zip(res.blocks, mat.split.pieces):
        assert b.character == character and b.shape == (len(rows), len(cols))
        assert b.primes == res.primes[:len(b.primes)]
        assert b.rank == max(b.ranks)
        if b.rank == min(b.shape):
            assert len(b.primes) == 1
        else:
            num_deficient += 1
            degrees = [sum(mat.columns[c]) for c in cols]
            assert len(b.primes) == _bad_prime_bound(
                b.rank + 1, degrees, mat.field.phi) + 1
    assert num_deficient
    assert len(set(res.primes)) == len(res.primes) <= 10
    assert all(p > 1 << 30 and p % 12 == 1 for p in res.primes)


def test_single_block_prime_count_pinned():
    # odd d: the flips do not act, so one block proves the whole matrix
    mat = evaluation_matrix(3, 5, 3)
    res = _evaluation_rank(mat, OracleConfig(seed=0), salt="deficient")
    block, = res.blocks
    assert block.character == () and block.shape == (24, 20)
    assert res.rank == block.rank == 19
    assert len(res.primes) == len(block.primes) == 13
    degrees = [sum(c) for c in mat.columns]
    assert 13 == _bad_prime_bound(20, degrees, mat.field.phi) + 1


def test_oracle_never_runs_exact_elimination(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("exact elimination ran inside the oracle")

    monkeypatch.setattr(milnor.linalg, "rank_gaussian_field", forbidden)
    monkeypatch.setattr(milnor.nodes, "rank_gaussian_field", forbidden,
                        raising=False)
    monkeypatch.setattr(EvaluationMatrix, "rows_exact", forbidden)
    assert defect_direct(3, 6, 5, config=OracleConfig(seed=0)) == 6
    assert defect_direct(2, 5, 2, config=OracleConfig(seed=0)) == 2
    res = injectivity_threshold(3, 5, config=OracleConfig(seed=0))
    assert res.r_star == 2 and res.witness_in_kernel and res.certified


def test_defect_direct_known_values():
    cfg = OracleConfig(seed=0)
    assert defect_direct(3, 4, 2, config=cfg) == 3
    assert defect_direct(3, 4, 5, config=cfg) == 0
    assert defect_direct(2, 5, 1, config=cfg) == 5


def test_defect_direct_noncanonical_shift(pipeline):
    rep = pipeline.cc(3, 4, k=-1)
    cfg = OracleConfig(seed=0)
    for k in range(rep.thresholds.T + 1):
        assert defect_direct(3, 4, k, config=cfg,
                             k_shift=-1) == rep.defects.defect(k)


def test_oracle_matches_strand_route(pipeline):
    cfg = OracleConfig(seed=0)
    for n, d in ((2, 5), (3, 4)):
        rep = pipeline.cc(n, d)
        for k in range(rep.thresholds.T + 1):
            assert defect_direct(n, d, k, config=cfg) == \
                rep.defects.defect(k), (n, d, k)


def test_defect_direct_deterministic():
    a = defect_direct(2, 5, 2, config=OracleConfig(seed=0))
    b = defect_direct(2, 5, 2, config=OracleConfig(seed=0))
    assert a == b == 2


def test_injectivity_threshold_with_witness():
    for n, d in ((2, 5), (3, 4), (3, 5)):
        res = injectivity_threshold(n, d, config=OracleConfig(seed=0))
        assert res.r_star == d - 3
        assert res.witness_degree == d - 2
        assert res.witness_in_kernel
        assert res.certified
