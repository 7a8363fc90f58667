"""Acceptance suite: one test per criterion, exact values, stated budgets.

Each test is a single pass/fail line under pytest -v. Reports are shared
through the session pipeline fixture except where a criterion states a
runtime budget, in which case the run is timed fresh and then handed to
the fixture for the later criteria.
"""

import json
import random
import time
import warnings
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest

from conftest import FERMAT_TEXT, KUMMER_TEXT
from milnor import linalg
from milnor.chebyshev import canonical_spec, cc_node_count, st_formula
from milnor.hilbert import hilbert_function, smooth_hilbert
from milnor.linalg import (RankConfig, StrandMatrix, certified_rank,
                           rank_exact)
from milnor.monomials import monomials_of_degree
from milnor.nodes import OracleConfig, defect_direct, injectivity_threshold
from milnor.poly import SparsePolynomial, parse_polynomial
from milnor.report import RunConfig, analyze

SEED = 0


def fresh(n=None, d=None, text=None, num_vars=None, source="case"):
    if text is not None:
        return analyze(parse_polynomial(text, num_vars=num_vars),
                       source=source, config=RunConfig(seed=SEED))
    return analyze(chebyshev=canonical_spec(n, d), config=RunConfig(seed=SEED))


def test_criterion_01_kummer_exact_numbers():
    t0 = time.time()
    rep = fresh(text=KUMMER_TEXT, num_vars=4, source="kummer")
    elapsed = time.time() - t0
    t = rep.thresholds
    assert rep.hilbert.dims == [1, 4, 10, 16, 19, 16, 16, 16, 16, 16]
    assert (t.tau, t.ct, t.st, t.mdr) == (16, 5, 5, 3)
    assert rep.defects.defect(2) == 6
    assert rep.alexander.text() == "(t + 1)^6"
    assert (rep.betti.index, rep.betti.value,
            rep.betti.space) == (4, 7, "double cover")
    assert rep.certified
    assert elapsed < 2.0, f"kummer run took {elapsed:.2f}s"


def test_criterion_02_node_counts_formula_and_stabilization(pipeline):
    budgets = {(2, 5): 60, (3, 3): 60, (3, 4): 60, (4, 5): 600}
    taus = {(2, 5): 8, (3, 3): 3, (3, 4): 12, (4, 5): 96}
    for (n, d), tau in taus.items():
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*not maximal over the shift.*")
            assert cc_node_count(n, d) == tau
        t0 = time.time()
        rep = fresh(n, d)
        elapsed = time.time() - t0
        assert rep.thresholds.tau == tau, (n, d)
        assert rep.hilbert.stable_value == tau
        assert elapsed < budgets[(n, d)], f"CC({n},{d}) took {elapsed:.1f}s"
        pipeline.store_cc(n, d, rep)


def test_criterion_03_stability_threshold_formula(pipeline):
    grid = [(2, d) for d in range(3, 9)] + [(3, d) for d in range(3, 9)] \
        + [(4, d) for d in range(3, 6)]
    for n, d in grid:
        rep = pipeline.cc(n, d)
        assert rep.thresholds.st == st_formula(n, d) == n * (d - 2) + 1, (n, d)


def test_criterion_04_coincidence_threshold_n4(pipeline):
    for d in (3, 4, 5):
        rep = pipeline.cc(4, d)
        assert rep.thresholds.ct == 3 * d - 6, d
        names = [v.name for v in rep.conjectures if v.agree]
        assert "ct-closed-form-even-n" in names


def test_criterion_05_defect_closed_forms(pipeline):
    for d in (4, 6, 8):
        d1 = d // 2
        rep = pipeline.cc(3, d)
        assert rep.defects.defect(3 * d1 - 4) == 3 * (d1 - 1), d
    for d in (4, 5):
        half = (d - 1) // 2
        rep = pipeline.cc(4, d)
        assert rep.defects.defect(2 * d - 5) == half * (3 * half - 1), d


def test_criterion_06_oracle_equivalence(pipeline):
    grid = [(2, d) for d in range(3, 9)] + [(3, d) for d in range(3, 7)] \
        + [(4, 4)]
    cfg = OracleConfig(seed=SEED)
    for n, d in grid:
        rep = pipeline.cc(n, d)
        for k in range(rep.thresholds.T + 1):
            assert defect_direct(n, d, k, config=cfg) == \
                rep.defects.defect(k), (n, d, k)


def test_criterion_07_injectivity_threshold():
    grid = [(2, d) for d in range(3, 9)] + [(3, d) for d in range(3, 7)] \
        + [(4, 4)]
    cfg = OracleConfig(seed=SEED)
    for n, d in grid:
        res = injectivity_threshold(n, d, config=cfg)
        assert res.r_star == d - 3, (n, d)
        assert res.witness_degree == d - 2
        assert res.witness_in_kernel
        assert res.certified


def _random_line_arrangement(rng, num_lines):
    """Product of distinct lines; general position checked by tau."""
    while True:
        lines = []
        seen = set()
        while len(lines) < num_lines:
            coeffs = [rng.randrange(-3, 4) for _ in range(3)]
            if not any(coeffs):
                continue
            g = gcd(gcd(abs(coeffs[0]), abs(coeffs[1])), abs(coeffs[2]))
            key = tuple(c // g for c in coeffs)
            if key[0] < 0 or (key[0] == 0 and (key[1] < 0 or (
                    key[1] == 0 and key[2] < 0))):
                key = tuple(-c for c in key)
            if key in seen:
                continue
            seen.add(key)
            lines.append(SparsePolynomial(
                3, {(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1],
                    (0, 0, 1): coeffs[2]}))
        f = lines[0]
        for ln in lines[1:]:
            f = f * ln
        try:
            hf = hilbert_function(f, config=RankConfig(seed=SEED))
        except ValueError:
            continue
        if hf.stable_value == comb(num_lines, 2):
            return f, num_lines


def _random_conic_pair(rng):
    """Product of two smooth conics meeting in 4 nodes; tau-checked."""
    while True:
        conics = []
        for _ in range(2):
            terms = {}
            for mono in monomials_of_degree(3, 2):
                terms[mono] = rng.randrange(-3, 4)
            conics.append(SparsePolynomial(3, terms))
        f = conics[0] * conics[1]
        if f.is_zero or not f.is_homogeneous or f.degree != 4:
            continue
        try:
            hf = hilbert_function(f, config=RankConfig(seed=SEED))
        except ValueError:
            continue
        if hf.stable_value == 4:
            return f, 2


def test_criterion_08_theorem_suite_zero_violations(pipeline, kummer):
    corpus = [kummer]
    corpus += [pipeline.cc(n, d) for n, d in
               [(2, d) for d in range(3, 9)]
               + [(3, d) for d in range(3, 9)]
               + [(4, d) for d in range(3, 6)]]
    rng = random.Random(20240817)
    for i in range(10):
        if i % 3 == 2:
            f, components = _random_conic_pair(rng)
        else:
            f, components = _random_line_arrangement(rng, rng.randrange(3, 6))
        rep = analyze(f, source=f"random-{i}", config=RunConfig(seed=SEED))
        corpus.append(rep)
        # classical cross-check: Delta = (t - 1)^(components - 1)
        assert rep.alexander.sign == -1 or rep.alexander.trivial
        assert rep.alexander.exponent == components - 1, rep.source
    violations = [(rep.source, c.name) for rep in corpus
                  for c in rep.checks if not c.ok]
    assert violations == []


def test_criterion_09_trivial_alexander_odd_nd(pipeline):
    for n, d in ((3, 3), (3, 5)):
        rep = pipeline.cc(n, d)
        assert rep.n * rep.d % 2 == 1
        assert rep.alexander.trivial and rep.alexander.text() == "1", (n, d)
    for d in (4, 6):
        rep = pipeline.cc(3, d, k=-1)
        assert rep.thresholds.tau > 0
        assert rep.alexander.trivial, f"C(3,{d},-1)"


def _random_rational_matrix(rng):
    rows = rng.randrange(1, 61)
    cols = rng.randrange(1, 61)
    entries = []
    density = rng.choice((0.08, 0.3, 0.9))
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                num = rng.randrange(-9, 10)
                if num:
                    den = rng.choice((1, 1, 2, 3, 5))
                    entries.append((i, j, Fraction(num, den)))
    return StrandMatrix(rows, cols, [e[0] for e in entries],
                        [e[1] for e in entries], [e[2] for e in entries])


def test_criterion_10_infrastructure_properties(monkeypatch):
    rng = random.Random(987)
    config = RankConfig(seed=SEED)
    # certify by the primes alone: no unconditional exact pass
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "EXACT_VERIFY_COLS", 0)
        for trial in range(200):
            matrix = _random_rational_matrix(rng)
            res = certified_rank(matrix, config, salt=f"accept-{trial}")
            assert res.rank == rank_exact(matrix), trial
            assert res.certified

    for n in range(1, 5):
        for d in range(2, 9):
            sm = smooth_hilbert(n, d)
            T = (n + 1) * (d - 2)
            assert sm.dims[T + 1] == 0
            assert all(sm.dim(k) == sm.dim(T - k) for k in range(T + 1))
            assert sum(sm.dims) == (d - 1) ** (n + 1)
            # Fermat jacobian ideal is monomial: count survivors directly
            cap = d - 2
            counts = [0] * (T + 2)
            for exps in product(range(cap + 1), repeat=n + 1):
                counts[sum(exps)] += 1
            assert counts == sm.dims, (n, d)

    f = parse_polynomial(FERMAT_TEXT, num_vars=4)
    hf = hilbert_function(f, config=RankConfig(seed=SEED))
    assert hf.smooth_match and hf.dims == smooth_hilbert(3, 4).dims

    rep_a = fresh(text=KUMMER_TEXT, num_vars=4, source="kummer").to_json()
    rep_b = fresh(text=KUMMER_TEXT, num_vars=4, source="kummer").to_json()
    assert rep_a == rep_b
    assert json.loads(rep_a)["timing"] is None
