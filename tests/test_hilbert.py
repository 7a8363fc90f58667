"""Hilbert functions of Milnor algebras, thresholds, Koszul dimensions."""

import random
from dataclasses import replace
from math import comb, gcd

import pytest

from milnor import hilbert, linalg
from milnor.chebyshev import ChebyshevSpec, build, canonical_spec
from milnor.domains import draw_distinct_primes
from milnor.hilbert import (
    HilbertFunction,
    NotNodalError,
    hilbert_function,
    koszul_hn_dim,
    smooth_hilbert,
    thresholds,
)
from milnor.linalg import RankConfig, jacobian_strand_matrix
from milnor.poly import (SparsePolynomial, homogenize, parse_polynomial,
                         partial_derivatives)

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
    rep = thresholds(hf)
    assert (rep.tau, rep.ct, rep.st, rep.mdr) == (16, 5, 5, 3)
    assert rep.T == 8
    assert not rep.smooth
    assert rep.ct == rep.mdr + 4 - 2
    assert [koszul_hn_dim(hf, m) for m in range(9)] == \
        [0, 0, 0, 0, 0, 0, 6, 12, 15]


def test_certified_needs_a_certified_rank_per_degree():
    # dims alone claim no proof, nor does a record missing the rank of a degree
    assert not HilbertFunction([1, 4, 10, 16, 19, 16, 16, 16, 16, 16], 3, 4).certified
    assert not smooth_hilbert(3, 4).certified
    f = parse_polynomial(KUMMER, num_vars=4)
    hf = hilbert_function(f, config=RankConfig(seed=0))
    assert hf.certified and len(hf.rank_details) == len(hf.dims)
    assert not replace(hf, rank_details=hf.rank_details[:-1]).certified


def test_smooth_input_detected():
    f = parse_polynomial("x0^4 + x1^4 + x2^4 + x3^4", num_vars=4)
    hf = hilbert_function(f, config=RankConfig(seed=0))
    sm = smooth_hilbert(3, 4)
    assert hf.dims == sm.dims
    assert hf.smooth_match
    assert hf.stable_value == 0
    rep = thresholds(hf)
    assert rep.smooth
    assert rep.ct is None and rep.mdr is None
    assert rep.tau == 0
    assert rep.st == rep.T + 1


def test_one_node_cubic_curve():
    f = parse_polynomial("x1^2*x2 - x0^3 - x0^2*x2", num_vars=3)
    hf = hilbert_function(f, config=RankConfig(seed=0))
    assert hf.dims == [1, 3, 3, 1, 1]
    rep = thresholds(hf)
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
    short = replace(hf, dims=hf.dims[:6], rank_details=hf.rank_details[:6])
    assert short.smooth_match and short.stable_value == 0
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
    # a record through degree 6 has left the smooth reference but has not
    # reached T + 1, so it is not known to stabilize
    short = HilbertFunction(dims=hf.dims[:7], n=3, d=4)
    assert short.dims == [1, 4, 10, 16, 19, 16, 16]
    with pytest.raises(ValueError, match=r"through T\+1"):
        thresholds(short)


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


# -- Chebyshev strands proved by the node oracle ---------------------------------


def _cc(n, d, k=None):
    spec = canonical_spec(n, d) if k is None else ChebyshevSpec(n, d, k)
    return spec, build(spec)


def test_oracle_route_ranks_one_prime_where_a_proof_covers_the_strand(monkeypatch):
    # CC(3,5): every strand is proved at the first prime of its stream; the
    # oracle is asked only where exact elimination and full rank are not enough
    spec, f = _cc(3, 5)
    asked = []
    original = hilbert._oracle_rank

    def recording(spec, seed, k):
        asked.append(k)
        return original(spec, seed, k)

    monkeypatch.setattr(hilbert, "_oracle_rank", recording)
    config = RankConfig(seed=0)
    hf = hilbert_function(f, config=config, chebyshev=spec)
    assert hf.dims == hilbert_function(f, config=config).dims
    assert hf.certified
    proofs = [r.proof for r in hf.rank_details]
    assert asked == [k for k, proof in enumerate(proofs) if proof == "oracle"] \
        == list(range(8, 14))
    for k, res in enumerate(hf.rank_details):
        assert res.primes == res.primes[:1], k
        stream = draw_distinct_primes(random.Random(f"0|strand-{k}"), 3)
        assert res.primes in ([], stream[:1]), k
        cols = jacobian_strand_matrix(partial_derivatives(f, 5), k).num_cols
        assert (proofs[k] == "exact") == (0 < cols <= linalg.EXACT_VERIFY_COLS), k
    # any other input has the same schedule with no oracle to ask: a strand
    # proved at its first prime lists that prime alone, and only a strand
    # that no proof covers there is ranked at the rest of its stream
    kummer = hilbert_function(parse_polynomial(KUMMER, num_vars=4), config=config)
    assert kummer.certified
    assert [(len(r.primes), r.proof) for r in kummer.rank_details] == \
        [(0, "full-rank")] * 3 + [(1, "exact")] * 3 + [(3, "agreement")] * 4
    for k, res in enumerate(kummer.rank_details):
        stream = draw_distinct_primes(random.Random(f"0|strand-{k}"), 3)
        assert res.primes == stream[:len(res.primes)], k
    fermat = hilbert_function(parse_polynomial("x0^4 + x1^4 + x2^4 + x3^4", num_vars=4),
                              config=config)
    assert fermat.certified
    assert max(len(r.primes) for r in fermat.rank_details) == 1
    assert asked == list(range(8, 14))


def test_oracle_route_smooth_shift_has_the_smooth_hilbert_function():
    # C(3,4,2) has no critical tuple: the oracle's dims are the smooth closed form
    spec, f = _cc(3, 4, 2)
    assert not spec.singular
    hf = hilbert_function(f, config=RankConfig(seed=0), chebyshev=spec)
    assert hf.dims == smooth_hilbert(3, 4).dims and hf.certified
    assert "agreement" not in [r.proof for r in hf.rank_details]


def test_oracle_rank_above_the_modular_rank_raises_naming_k(monkeypatch):
    # an oracle one below the true rank of strand 7: the modular rank exceeds
    # a rank claimed proved, which is a fault, never a result
    spec, f = _cc(3, 4)
    original = hilbert._oracle_rank
    monkeypatch.setattr(hilbert, "_oracle_rank", lambda spec, seed, k:
                        original(spec, seed, k) - (k == 7))
    with pytest.raises(ArithmeticError, match=r"strand k=7: its rank \d+ mod \d+ exceeds"):
        hilbert_function(f, config=RankConfig(seed=0), chebyshev=spec)


def test_oracle_rank_unreached_leaves_the_strand_uncertified(monkeypatch):
    # an oracle one above the true rank of strand 7: every prime of the
    # stream is ranked, none reaches it, and the measured rank is kept
    spec, f = _cc(3, 4)
    original = hilbert._oracle_rank
    monkeypatch.setattr(hilbert, "_oracle_rank", lambda spec, seed, k:
                        original(spec, seed, k) + (k == 7))
    config = RankConfig(seed=0)
    hf = hilbert_function(f, config=config, chebyshev=spec)
    assert hf.dims == hilbert_function(f, config=config).dims
    assert not hf.certified
    res = hf.rank_details[7]
    assert res.proof is None and not res.certified
    assert res.primes == draw_distinct_primes(random.Random("0|strand-7"), 3)
    assert [k for k, r in enumerate(hf.rank_details) if not r.certified] == [7]


def test_oracle_size_cap_keeps_the_multi_prime_route(monkeypatch):
    # past ORACLE_SIDE a strand is ranked mod every prime and rests on
    # their agreement; k = T+1 needs no evaluation matrix (H = |N|)
    spec, f = _cc(3, 4)
    monkeypatch.setattr(hilbert, "ORACLE_SIDE", 0)
    config = RankConfig(seed=0)
    hf = hilbert_function(f, config=config, chebyshev=spec)
    assert hf == replace(hilbert_function(f, config=config), rank_details=hf.rank_details)
    proofs = [r.proof for r in hf.rank_details]
    assert proofs[6:] == ["agreement", "agreement", "agreement", "oracle"]
    assert [len(r.primes) for r in hf.rank_details[6:9]] == [3, 3, 3]


def test_oracle_route_needs_the_spec_of_the_polynomial():
    spec, _ = _cc(3, 4)
    _, other = _cc(3, 4, -1)
    with pytest.raises(ValueError, match="not the one of"):
        hilbert_function(other, chebyshev=spec)


def test_oracle_route_jobs_two_matches_serial():
    spec, f = _cc(3, 4)
    assert hilbert_function(f, jobs=2, chebyshev=spec) == \
        hilbert_function(f, jobs=1, chebyshev=spec)
