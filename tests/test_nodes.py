"""Node enumeration, cyclotomic evaluation oracle, injectivity threshold."""

import io
import random
import warnings

import pytest

import milnor.linalg
import milnor.nodes
from milnor.chebyshev import ChebyshevSpec, build, canonical_spec, cc_node_count
from milnor.domains import CyclotomicField, draw_distinct_primes
from milnor.linalg import BadPrime
from milnor.monomials import num_monomials
from milnor.nodes import (EvaluationMatrix, OracleConfig, _bad_prime_bound,
                          _evaluation_rank, affine_monomials, defect_direct,
                          dump_nodes, enumerate_nodes, evaluation_matrix,
                          gradient_check, injectivity_threshold,
                          modular_embedding)


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
    emb = modular_embedding(fld, 17, random.Random(0))
    assert emb.omega == 9
    assert pow(emb.omega, 8, 17) == 1 and pow(emb.omega, 4, 17) != 1
    assert emb(fld.scalar(1)) == 1
    assert emb(fld.cos_root(1, 4)) == 14
    from milnor.domains import CyclotomicElement
    rng = random.Random(1)
    for _ in range(100):
        a = CyclotomicElement(fld, [rng.randrange(-5, 6)
                                    for _ in range(fld.phi)])
        b = CyclotomicElement(fld, [rng.randrange(-5, 6)
                                    for _ in range(fld.phi)])
        assert emb(a * b) == emb(a) * emb(b) % 17
        assert emb(a + b) == (emb(a) + emb(b)) % 17


def test_modular_embedding_rejects_bad_prime():
    with pytest.raises(BadPrime):
        modular_embedding(CyclotomicField(8), 19, random.Random(0))


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
            emb = modular_embedding(mat.field, p, random.Random(p))
            modp = mat.rows_modp(p, random.Random(p))
            assert modp.shape == (mat.num_rows, mat.num_cols)
            for i in range(mat.num_rows):
                for j in range(mat.num_cols):
                    assert emb(exact[i][j]) == int(modp[i, j]), (n, d, r, p)


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
    assert res.rank == 48
    degrees = [sum(c) for c in mat.columns]
    assert len(res.primes) == _bad_prime_bound(49, degrees, 4) + 1 == 47
    assert len(set(res.primes)) == len(res.primes)
    assert all(p > 1 << 30 and p % 12 == 1 for p in res.primes)
    assert max(res.ranks) == 48


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
