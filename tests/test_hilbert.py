"""Hilbert functions of Milnor algebras, thresholds, Koszul dimensions."""

import random
from dataclasses import replace
from math import comb, gcd

import pytest

from milnor.hilbert import (
    HilbertFunction,
    NotNodalError,
    hilbert_function,
    koszul_hn_dim,
    smooth_hilbert,
    thresholds,
)
from milnor.linalg import RankConfig
from milnor.poly import SparsePolynomial, homogenize, parse_polynomial

KUMMER = (
    "x3^4 - x3^2*x2^2 - x3^2*x1^2 - x3^2*x0^2 + x2^4 - x2^2*x1^2"
    " - x2^2*x0^2 + x1^4 - x1^2*x0^2 + x0^4"
)


def test_smooth_reference_small_cases():
    assert smooth_hilbert(3, 4).dims == [1, 4, 10, 16, 19, 16, 10, 4, 1, 0]
    assert smooth_hilbert(2, 3).dims == [1, 3, 3, 1, 0]
    assert smooth_hilbert(1, 2).dims == [1, 0]


def test_smooth_reference_palindromic_grid():
    for n in range(1, 5):
        for d in range(2, 9):
            hf = smooth_hilbert(n, d)
            T = (n + 1) * (d - 2)
            assert hf.k_max == T + 1
            assert hf.dims[T + 1] == 0
            core = hf.dims[: T + 1]
            assert core == core[::-1]
            assert sum(core) == (d - 1) ** (n + 1)
            # below the first relation degree the algebra is free
            for k in range(min(d - 1, T + 1)):
                assert hf.dims[k] == comb(n + k, n)


def test_kummer_quartic_numbers():
    f = parse_polynomial(KUMMER, num_vars=4)
    hf = hilbert_function(f, config=RankConfig(seed=0))
    assert hf.dims == [1, 4, 10, 16, 19, 16, 16, 16, 16, 16]
    assert hf.stable_value == 16
    assert hf.certified
    assert not hf.smooth_match
    sm = smooth_hilbert(3, 4)
    rep = thresholds(hf, sm, 4)
    assert (rep.tau, rep.ct, rep.st, rep.mdr) == (16, 5, 5, 3)
    assert rep.T == 8
    assert not rep.smooth
    assert rep.ct == rep.mdr + 4 - 2
    assert [koszul_hn_dim(hf, sm, 3, 4, m) for m in range(9)] == \
        [0, 0, 0, 0, 0, 0, 6, 12, 15]


def test_smooth_input_detected():
    f = parse_polynomial("x0^4 + x1^4 + x2^4 + x3^4", num_vars=4)
    hf = hilbert_function(f, config=RankConfig(seed=0))
    sm = smooth_hilbert(3, 4)
    assert hf.dims == sm.dims
    assert hf.smooth_match
    assert hf.stable_value == 0
    rep = thresholds(hf, sm, 4)
    assert rep.smooth
    assert rep.ct is None and rep.mdr is None
    assert rep.tau == 0
    assert rep.st == rep.T + 1


def test_one_node_cubic_curve():
    f = parse_polynomial("x1^2*x2 - x0^3 - x0^2*x2", num_vars=3)
    hf = hilbert_function(f, config=RankConfig(seed=0))
    sm = smooth_hilbert(2, 3)
    assert hf.dims == [1, 3, 3, 1, 1]
    rep = thresholds(hf, sm, 3)
    assert (rep.tau, rep.ct, rep.st, rep.mdr) == (1, 3, 3, 2)


def test_non_isolated_rejected():
    f = parse_polynomial("x0^2*x1", num_vars=3)
    with pytest.raises(NotNodalError):
        hilbert_function(f)


def test_binary_forms_stable_value_oracle():
    # for a product of distinct linear forms with multiplicities m_i the
    # stabilized dimension is sum(m_i - 1), independent of the chosen forms
    rng = random.Random(2024)
    for _ in range(25):
        factors = []
        seen = set()
        while len(factors) < rng.randrange(2, 5):
            a, b = rng.randrange(-4, 5), rng.randrange(-4, 5)
            if (a, b) == (0, 0):
                continue
            # distinctness is projective: same line iff proportional
            g = gcd(a, b)
            key = (a // g, b // g)
            if key[0] < 0 or (key[0] == 0 and key[1] < 0):
                key = (-key[0], -key[1])
            if key in seen:
                continue
            seen.add(key)
            factors.append((a, b, rng.randrange(1, 4)))
        f = SparsePolynomial.constant(2, 1)
        lin = lambda a, b: (SparsePolynomial.variable(2, 0).scale(a)
                            + SparsePolynomial.variable(2, 1).scale(b))
        expected = 0
        for a, b, mult in factors:
            f = f * lin(a, b) ** mult
            expected += mult - 1
        if f.degree < 2:
            continue
        hf = hilbert_function(f, config=RankConfig(seed=7))
        if expected == 0:
            assert hf.smooth_match
        assert hf.stable_value == expected


def test_dim_extension_beyond_computed_range():
    f = parse_polynomial(KUMMER, num_vars=4)
    hf = hilbert_function(f, config=RankConfig(seed=0))
    assert hf.dim(40) == 16
    sm = smooth_hilbert(3, 4)
    assert sm.dim(40) == 0
    # negative degrees are zero by convention, used by the Koszul shift
    assert hf.dim(-1) == 0
    # a record through degree 5 only, which still matches the smooth
    # reference, says nothing past its range
    short = replace(hf, dims=hf.dims[:6], stable_value=0, smooth_match=True,
                    rank_details=hf.rank_details[:6])
    with pytest.raises(ValueError, match="beyond computed range 5"):
        short.dim(11)


def test_determinism_and_seed_sensitivity():
    f = parse_polynomial("x1^2*x2 - x0^3 - x0^2*x2", num_vars=3)
    h1 = hilbert_function(f, config=RankConfig(seed=5))
    h2 = hilbert_function(f, config=RankConfig(seed=5))
    assert h1.dims == h2.dims
    assert [r.primes for r in h1.rank_details] == [r.primes for r in h2.rank_details]
    h3 = hilbert_function(f, config=RankConfig(seed=6))
    assert h3.dims == h1.dims
    assert [r.primes for r in h3.rank_details] != [r.primes for r in h1.rank_details]
    # distinct strands draw distinct prime batches
    primes_by_strand = [tuple(r.primes) for r in h1.rank_details if r.primes]
    assert len(set(primes_by_strand)) > 1


def test_threshold_input_validation():
    f = parse_polynomial(KUMMER, num_vars=4)
    hf = hilbert_function(f, config=RankConfig(seed=0))
    assert hf.k_max == 9  # T + 1
    with pytest.raises(ValueError):
        thresholds(hf, smooth_hilbert(2, 4), 4)
    # a record through degree 6 has left the smooth reference but has not
    # reached T + 1, so it is not known to stabilize
    short = HilbertFunction(dims=hf.dims[:7], n=3, d=4)
    assert short.dims == [1, 4, 10, 16, 19, 16, 16]
    with pytest.raises(ValueError, match=r"through T\+1"):
        thresholds(short, smooth_hilbert(3, 4), 4)


def test_inhomogeneous_and_low_degree_rejected():
    with pytest.raises(ValueError):
        hilbert_function(parse_polynomial("x0^2 + x1", num_vars=2))
    with pytest.raises(ValueError):
        hilbert_function(parse_polynomial("x0 + x1", num_vars=2))


def test_series_text():
    sm = smooth_hilbert(2, 3)
    text = sm.series_text()
    assert "1" in text and "3" in text


def test_jobs_pool_capped_at_degree_count(pool_sizes):
    f = parse_polynomial("x0^3 + x1^3 + x2^3", num_vars=3)
    serial = hilbert_function(f, jobs=1)
    assert pool_sizes == []
    # T + 2 = 5 degrees, so a pool of 64 would fork 59 idle workers
    assert hilbert_function(f, jobs=64) == serial
    assert pool_sizes == [5]


def test_jobs_two_matches_serial():
    f = parse_polynomial(KUMMER, num_vars=4)
    assert hilbert_function(f, jobs=2) == hilbert_function(f, jobs=1)
