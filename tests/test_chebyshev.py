"""Chebyshev hypersurface construction, node counts, conjecture verdicts."""

import random

import pytest

from milnor.chebyshev import (ChebyshevSpec, build, canonical_spec,
                              cc_node_count, critical_indices,
                              critical_tuples, enumerated_node_count,
                              node_count_formula, st_formula,
                              st_formula_check, verify_conjectures)
from milnor.poly import (chebyshev_poly, dehomogenize, format_polynomial,
                         parse_polynomial)


def test_spec_validation_and_canonical():
    with pytest.raises(ValueError):
        ChebyshevSpec(1, 4, 0)
    with pytest.raises(ValueError):
        ChebyshevSpec(2, 2, 0)
    assert canonical_spec(2, 5).k == 0
    assert canonical_spec(3, 4).k == 1
    assert canonical_spec(4, 6).k == 0
    assert canonical_spec(2, 5).canonical
    assert not ChebyshevSpec(2, 5, 2).canonical


def test_singular_criterion():
    # singular iff |k| <= n and n + k even
    assert ChebyshevSpec(3, 4, 1).singular
    assert ChebyshevSpec(3, 4, -3).singular
    assert not ChebyshevSpec(3, 4, 0).singular   # parity
    assert not ChebyshevSpec(3, 4, 5).singular   # out of range
    assert not ChebyshevSpec(2, 6, -4).singular


def test_build_frozen_cubic():
    f = build(canonical_spec(2, 3))
    assert format_polynomial(f) == "4*x2^3 - 3*x2*x0^2 + 4*x1^3 - 3*x1*x0^2"
    g = build(canonical_spec(3, 3))
    assert format_polynomial(g) == ("4*x3^3 - 3*x3*x0^2 + 4*x2^3 - 3*x2*x0^2"
                                    " + 4*x1^3 - 3*x1*x0^2 + x0^3")


def test_build_no_subleading_power():
    # T_d has no t^(d-1) term, so the build has no x_i^(d-1)*x0 terms
    for n in (2, 3):
        for d in range(3, 8):
            f = build(canonical_spec(n, d))
            assert f.is_homogeneous and f.degree == d
            for mono in f.terms:
                for i in range(1, n + 1):
                    assert mono[i] != d - 1


def test_build_dehomogenizes_to_chebyshev_sum():
    for n, d, k in ((2, 4, 0), (3, 5, 1), (2, 5, -2), (4, 3, 1)):
        f = build(ChebyshevSpec(n, d, k))
        affine = dehomogenize(f, var=0)
        cheb = chebyshev_poly(d)
        expected = parse_polynomial(str(k), num_vars=n + 1) if k else None
        total = None
        for i in range(1, n + 1):
            term = cheb.embed(n + 1, {0: i})
            total = term if total is None else total + term
        if k:
            total = total + expected
        assert affine == total


def test_critical_indices_partition():
    for d in range(3, 9):
        minima, maxima = critical_indices(d)
        assert len(minima) == d // 2
        assert len(maxima) == (d - 1) - d // 2
        assert all(j % 2 == 1 for j in minima)
        assert all(j % 2 == 0 for j in maxima)


def test_critical_tuples_lex_order():
    tuples = list(critical_tuples(2, 3, 0))
    assert tuples == [(1, 2), (2, 1)]
    tuples = list(critical_tuples(3, 4, 1))
    assert tuples == sorted(tuples)
    assert len(tuples) == 12


def test_formula_matches_enumeration_grid():
    for n in (2, 3, 4):
        for d in range(3, 8):
            for k in range(-n - 1, n + 2):
                formula = node_count_formula(n, d, k)
                counted = enumerated_node_count(n, d, k)
                assert formula == counted, (n, d, k)


def test_cc_node_count_known_values():
    known = {(2, 3): 2, (2, 5): 8, (3, 3): 3, (3, 6): 54, (4, 5): 96}
    for (n, d), tau in known.items():
        assert cc_node_count(n, d) == tau
        assert node_count_formula(n, d, canonical_spec(n, d).k) == tau


def test_cc_node_count_warns_small_even_degree():
    with pytest.warns(UserWarning, match="not maximal over the shift"):
        assert cc_node_count(3, 4) == 12
    with pytest.warns(UserWarning, match="not maximal over the shift"):
        assert cc_node_count(4, 4) == 24


def test_smoothness_criterion_against_hilbert():
    # tau = 0 exactly when the parity/range criterion says smooth
    from milnor.hilbert import hilbert_function
    from milnor.linalg import RankConfig
    for n, d_max in ((2, 5), (3, 4)):
        for d in range(3, d_max + 1):
            for k in range(-n - 1, n + 2):
                spec = ChebyshevSpec(n, d, k)
                hf = hilbert_function(build(spec), config=RankConfig(seed=0))
                assert (hf.stable_value == 0) == (not spec.singular), \
                    (n, d, k)
                assert hf.stable_value == node_count_formula(n, d, k)


def test_st_formula_check(pipeline):
    assert st_formula(2, 5) == 7
    assert st_formula(4, 4) == 9
    rep = pipeline.cc(2, 5)
    chk = st_formula_check(2, 5, rep.thresholds.st)
    assert chk.name == "st-closed-form" and chk.status == "pass"
    assert any(c.name == "st-closed-form" and c.ok for c in rep.checks)


def test_verify_conjectures_n3(pipeline):
    rep = pipeline.cc(3, 4)
    verdicts = verify_conjectures(rep.thresholds, rep.defects)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.name == "defect-closed-form-n3"
    assert (v.predicted, v.computed, v.agree) == (3, 3, True)
    assert v.label == "matches verified range d <= 20"


def test_verify_conjectures_odd_degree_empty(pipeline):
    rep = pipeline.cc(3, 3)
    assert verify_conjectures(rep.thresholds, rep.defects) == []


def test_verify_conjectures_n4(pipeline):
    rep = pipeline.cc(4, 4)
    verdicts = {v.name: v for v in verify_conjectures(rep.thresholds,
                                                      rep.defects)}
    assert set(verdicts) == {"ct-closed-form-even-n", "defect-closed-form-n4"}
    ct = verdicts["ct-closed-form-even-n"]
    assert (ct.predicted, ct.computed, ct.agree) == (6, 6, True)
    dn4 = verdicts["defect-closed-form-n4"]
    assert (dn4.predicted, dn4.computed, dn4.agree) == (2, 2, True)


def test_verify_conjectures_new_data_point(pipeline):
    rep = pipeline.cc(2, 5)
    verdicts = verify_conjectures(rep.thresholds, rep.defects)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.name == "ct-closed-form-even-n"
    assert v.agree and v.label == "new data point"


def test_random_shift_reports_consistent(pipeline):
    # any singular shift gives a nodal hypersurface passing all checks
    rng = random.Random(7)
    for _ in range(4):
        n = rng.choice((2, 3))
        d = rng.randrange(3, 6)
        ks = [k for k in range(-n, n + 1) if (n + k) % 2 == 0]
        rep = pipeline.cc(n, d, k=rng.choice(ks))
        assert rep.thresholds.tau > 0
        assert all(c.ok for c in rep.checks)
