"""Defect tables, Alexander polynomials, Betti numbers, theorem checks."""

import pytest

from milnor.topology import (TheoremCheck, alexander_polynomial,
                             betti_numbers, check_theorem_bounds, defect,
                             defect_table)


def test_kummer_defect_table(kummer):
    table = kummer.defects
    assert table.node_count == 16
    assert table.nonzero() == [(0, 15), (1, 12), (2, 6)]
    for k in range(3, 9):
        assert table.defect(k) == 0


def test_defect_argument_guards(kummer):
    hf = kummer.hilbert
    with pytest.raises(ValueError):
        defect(hf, -1)
    with pytest.raises(ValueError):
        defect(hf, hf.T + 1)


def test_defect_identity_against_series(kummer):
    # defect S_k = dim M(f)_(T-k) - dim M(f_s)_(T-k)
    hf, sm = kummer.hilbert, kummer.smooth
    for k in range(hf.T + 1):
        assert kummer.defects.defect(k) == hf.dim(hf.T - k) - sm.dim(hf.T - k)


def test_smooth_defects_all_zero(fermat):
    table = defect_table(fermat.hilbert)
    assert table.node_count == 0
    assert table.nonzero() == []


def test_alexander_kummer(kummer):
    alex = kummer.alexander
    assert not alex.trivial
    assert alex.sign == 1
    assert alex.exponent == 6
    assert alex.text() == "(t + 1)^6"


def test_alexander_sign_and_exponent(pipeline):
    # n odd -> factor (t + 1); n even -> factor (t - 1); nd odd -> trivial
    assert pipeline.cc(3, 4).alexander.text() == "(t + 1)^3"
    assert pipeline.cc(3, 3).alexander.text() == "1"
    assert pipeline.cc(2, 3).alexander.text() == "(t - 1)"
    assert pipeline.cc(2, 5).alexander.text() == "(t - 1)^2"


def test_alexander_trivial_variant(pipeline):
    rep = pipeline.cc(3, 4, k=-1)
    assert rep.thresholds.tau == 6
    assert rep.alexander.trivial
    assert rep.alexander.text() == "1"


def test_alexander_line_arrangement():
    # r distinct lines through general position: Delta = (t-1)^(r-1)
    from milnor.poly import parse_polynomial
    from milnor.report import RunConfig, analyze
    f = parse_polynomial("x0*x1*x2", num_vars=3)
    rep = analyze(f, source="triangle", config=RunConfig(seed=0))
    assert rep.thresholds.tau == 3
    assert rep.alexander.text() == "(t - 1)^2"


def test_betti_kummer(kummer):
    b = kummer.betti
    assert (b.index, b.value, b.space) == (4, 7, "double cover")
    assert b.defect_degree == 2


def test_betti_even_dimension(pipeline):
    b = pipeline.cc(4, 4).betti
    assert (b.index, b.value, b.space) == (4, 3, "hypersurface")
    # dim H^n(K*)_(n1 d) = b_n - 1
    rep = pipeline.cc(4, 4)
    from milnor.hilbert import koszul_hn_dim
    assert koszul_hn_dim(rep.hilbert, 8) == b.value - 1


def test_betti_undefined_parity(pipeline):
    rep = pipeline.cc(3, 3)
    with pytest.raises(ValueError):
        betti_numbers(rep.thresholds, rep.defects)
    assert rep.betti is None


def test_check_names_and_order(kummer):
    names = [c.name for c in kummer.checks]
    assert names == [
        "koszul-low-degree-vanishing",
        "ct-lower-bound",
        "defect-zero-tail-unconditional",
        "defect-zero-tail",
        "defect-saturation",
        "defect-range",
        "alexander-criterion",
        "alexander-tightness-even-n",
        "koszul-betti-consistency",
        "defect-monotonicity",
    ]


def test_checks_pass_on_corpus(pipeline, kummer, fermat):
    reports = [kummer, fermat, pipeline.cc(2, 3), pipeline.cc(2, 5),
               pipeline.cc(3, 3), pipeline.cc(3, 4), pipeline.cc(4, 4),
               pipeline.cc(3, 4, k=-1)]
    for rep in reports:
        for check in rep.checks:
            assert check.ok, f"{rep.source}: {check}"
        assert not rep.lint_failures()


def test_saturation_regime(pipeline):
    # low degrees on few nodes: defect = tau - dim S_k
    rep = pipeline.cc(2, 5)
    sat = {c.name: c for c in rep.checks}["defect-saturation"]
    assert sat.status == "pass"
    assert rep.defects.defect(1) == 8 - 3


def test_alexander_criterion_threshold(pipeline, kummer):
    # Delta != 1 exactly when ct < nd/2 + d - n - 1
    for rep in (kummer, pipeline.cc(3, 4), pipeline.cc(3, 4, k=-1)):
        n, d, ct = rep.n, rep.d, rep.thresholds.ct
        assert (not rep.alexander.trivial) == (ct < n * d // 2 + d - n - 1)


def test_theorem_check_ok_semantics():
    assert TheoremCheck(name="x", status="pass").ok
    assert TheoremCheck(name="x", status="vacuous").ok
    assert TheoremCheck(name="x", status="flag").ok
    assert not TheoremCheck(name="x", status="fail").ok
