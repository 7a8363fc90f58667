"""Report assembly, lint, serialization, and the Hilbert-function cache."""

import hashlib
import json
import time
import warnings

import pytest

from conftest import FERMAT_TEXT, KUMMER_TEXT
from milnor import cache as cache_module
from milnor.cache import (HilbertCache, cache_key, cached_hilbert_function,
                          default_cache_dir)
from milnor.chebyshev import ChebyshevSpec, build, canonical_spec
from milnor.hilbert import hilbert_function
from milnor.linalg import RankConfig
from milnor.poly import format_polynomial, parse_polynomial
from milnor.report import (HypersurfaceReport, ReportLintError, RunConfig,
                           analyze)
from milnor.topology import TheoremCheck


def test_report_dict_fields(kummer):
    doc = kummer.to_dict()
    assert doc["schema"] == 2
    assert doc["nodality"] == "assumed"
    assert doc["n"] == 3 and doc["d"] == 4
    assert doc["hilbert"]["dims"] == [1, 4, 10, 16, 19, 16, 16, 16, 16, 16]
    assert doc["thresholds"] == {"T": 8, "tau": 16, "ct": 5, "st": 5,
                                 "mdr": 3, "smooth": False}
    assert doc["alexander"]["text"] == "(t + 1)^6"
    assert doc["betti"] == {"index": 4, "value": 7, "space": "double cover",
                            "defect_degree": 2}
    assert doc["defects"][0] == [0, 15]
    assert doc["timing"] is None
    assert doc["certification"]["certified"]
    strand6 = doc["certification"]["rank_details"][6]
    assert strand6["k"] == 6 and len(strand6["primes"]) >= 3
    assert len(set(strand6["ranks"])) == 1 and strand6["proof"] == "agreement"


def test_json_byte_identical_under_seed():
    f = parse_polynomial(KUMMER_TEXT, num_vars=4)
    a = analyze(f, source="kummer", config=RunConfig(seed=5)).to_json()
    b = analyze(f, source="kummer", config=RunConfig(seed=5)).to_json()
    assert a == b
    c = analyze(f, source="kummer", config=RunConfig(seed=6)).to_json()
    assert c != a  # recorded primes differ
    assert json.loads(c)["thresholds"] == json.loads(a)["thresholds"]


FROZEN_SEED0 = {
    # source: (text or Chebyshev spec, report sha256 and size, cache key,
    # entry sha256 and size)
    "kummer": (KUMMER_TEXT,
               "5cb6c9f7929ee2ddf7de3d42ff71c1174f5b816ea26507688bc1d4f1f8916996", 5082,
               "34a55c68e7d1bfa88c639106fab53417c8b52c84fcfca246d2e6f064607c29df",
               "aa733023148eb4c71fc588bd70923f527e920ffd1e9223ac04e63bd3cbce45dc", 1944),
    # the smooth branch: stable value 0, no ct or mdr
    "fermat": (FERMAT_TEXT,
               "f4f792bf2820e13f7b4a55aae10d96a3e0086328397cfcda8995158aa06ab2bb", 4790,
               "987d564d3428d6f4c31dfd593a4d8f4601278a5bda37ccd0e4b1875915377570",
               "6eb87086bec86d39c296adb82a10e130ebd0fe2301ae18d82a4dfe6818ca584f", 1805),
    # many dense pieces and primes to a rank call, and pieces of several
    # panels: 560 x 880 at k=13 cut into 308 x 470 and 252 x 410
    "CC(3,5)": (canonical_spec(3, 5),
                "f9fee625cd0988c3f5defd8e64e18b295023262cf25ebe879db440c3f0483b4f", 6263,
                "ac2f12e64cf57d64bb93fb289f0d7d0b460209f5bf2e255827975109caeacd1d",
                "7ec668b9a7acc4f72606ed4cdbb7bf863d0e92b5b1547c5c961754197a96f2f0", 2703),
    "CC(4,4)": (canonical_spec(4, 4),
                "2cb4b1448f47ef1e4e6c02009d6a4e54fa8f2a0ef5dd744c3b50777f83946d29", 5778,
                "a3dfed8a944db7663410fc6c9cb29c1851b983e3250cc2c7b0a966bc144e82a3",
                "393b1686fc2d2f4b7adc990726f22ffc9adaa337f6729adacf3b7d93bb451b99", 2376),
}


def test_frozen_bytes_seed0(tmp_path):
    # sha256 and size of the seed-0 reports of a nodal and a smooth quartic
    # and of two Chebyshev hypersurfaces, and of their cache entries; a
    # change here changes what users get on disk, so it must be deliberate
    config = RunConfig(seed=0)
    for source, (poly, report_sha, report_size, want_key, entry_sha,
                 entry_size) in FROZEN_SEED0.items():
        f = build(poly) if isinstance(poly, ChebyshevSpec) else parse_polynomial(poly, num_vars=4)
        text = analyze(f, source=source, config=config).to_json().encode()
        assert (hashlib.sha256(text).hexdigest(), len(text)) == (
            report_sha, report_size), source
        cache = HilbertCache(str(tmp_path / source))
        cached_hilbert_function(f, config, cache)
        key = cache_key(f, RankConfig(seed=0))
        # existing caches keep hitting only while the key is unchanged
        assert key == want_key, source
        assert cache_key(f, config) == key
        with open(cache.path(key), "rb") as fh:
            entry = fh.read()
        assert (hashlib.sha256(entry).hexdigest(), len(entry)) == (
            entry_sha, entry_size), source


FROZEN_ORACLE_SEED0 = {
    # analyze(chebyshev=spec): strands ranked at one prime, proved by
    # exact elimination, full rank or the node oracle
    "CC(3,5)": (canonical_spec(3, 5),
                "f3218fbfb122bf9a99f5dcd0e7d32ec272a24ff98191780727c320aff0e2d0be", 5934,
                "d5c7c901b30526c7d83eadcf291526a9305ca3397002b89310f152710cecaffc",
                "ba6a1779916312f733cc6382d97cfc166bf2ede43dd504bb36106a22d0a0f28e", 2481),
    "CC(4,4)": (canonical_spec(4, 4),
                "03449ccf9b4b96fccbfdf2e943c278cb209e38b411c2381b50434e05541b0993", 5831,
                "8b08aedf7c53e90810db7fb7d64fe95f03f88fa3b48b44eda9755fbb1960c5ae",
                "47631805efb913e1d55e88ceadaebfeea2730685f8e89e2151d1c52d78050b61", 2152),
}


def test_frozen_bytes_seed0_oracle_route(tmp_path):
    config = RunConfig(seed=0)
    for source, (spec, report_sha, report_size, want_key, entry_sha,
                 entry_size) in FROZEN_ORACLE_SEED0.items():
        text = analyze(chebyshev=spec, config=config).to_json().encode()
        assert (hashlib.sha256(text).hexdigest(), len(text)) == (
            report_sha, report_size), source
        cache = HilbertCache(str(tmp_path / source))
        analyze(chebyshev=spec, config=config, cache=cache)
        key = cache_key(build(spec), RankConfig(seed=0), spec)
        assert key == want_key, source
        with open(cache.path(key), "rb") as fh:
            entry = fh.read()
        assert (hashlib.sha256(entry).hexdigest(), len(entry)) == (
            entry_sha, entry_size), source


def test_csv_column_layout(kummer):
    lines = kummer.to_csv().strip().split("\n")
    assert lines[0] == "k,dim_singular,dim_smooth,difference"
    assert lines[1] == "0,1,1,0"
    assert lines[7] == "6,16,10,6"
    assert len(lines) == 11


def test_render_dispatch(kummer):
    assert kummer.render("json") == kummer.to_json()
    assert kummer.render("csv") == kummer.to_csv()
    assert "alexander polynomial" in kummer.render("text")
    with pytest.raises(ValueError):
        kummer.render("yaml")


def test_analyze_argument_validation():
    f = parse_polynomial("x0^2 + x1^2", num_vars=2)
    with pytest.raises(ValueError):
        analyze()
    with pytest.raises(ValueError):
        analyze(f, chebyshev=canonical_spec(2, 3))


def test_analyze_degree_cap():
    f = parse_polynomial("x0^9 + x1^9 + x2^9", num_vars=3)
    with pytest.raises(ValueError, match="exceeds the cap") as exc:
        analyze(f, config=RunConfig(max_degree=8))
    assert "cells" in str(exc.value)
    rep = analyze(f, config=RunConfig(max_degree=9))
    assert rep.thresholds.smooth


def test_analyze_without_nodal_assumption():
    f = parse_polynomial(KUMMER_TEXT, num_vars=4)
    rep = analyze(f, nodal=False, config=RunConfig(seed=0))
    assert rep.defects is None and rep.alexander is None
    assert rep.betti is None and rep.checks == []
    doc = rep.to_dict()
    assert doc["defects"] is None and doc["alexander"] is None
    json.dumps(doc)


def test_chebyshev_input_keeps_nodal_false():
    rep = analyze(chebyshev=canonical_spec(3, 4), nodal=False,
                  config=RunConfig(seed=0))
    # nodality is a fact of the spec; nodal=False only skips what rests on it
    assert rep.nodality == "proved (Chebyshev)"
    assert rep.defects is None and rep.alexander is None
    assert rep.betti is None and rep.conjectures == []


def test_lint_catches_failed_check(kummer):
    assert kummer.lint_failures() == []
    tampered = HypersurfaceReport(**{**kummer.__dict__})
    tampered.checks = kummer.checks + [
        TheoremCheck(name="planted", status="fail", lhs=1, rhs=2)]
    failures = tampered.lint_failures()
    assert any("planted" in msg for msg in failures)


def test_conjectures_only_for_canonical_chebyshev(pipeline, kummer):
    assert kummer.conjectures == []
    assert pipeline.cc(3, 4, k=-1).conjectures == []
    assert len(pipeline.cc(3, 4).conjectures) == 1


# -- cache ---------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    f = parse_polynomial(KUMMER_TEXT, num_vars=4)
    cache = HilbertCache(str(tmp_path))
    cfg = RankConfig(seed=0)
    t0 = time.time()
    hf = cached_hilbert_function(f, cfg, cache)
    first = time.time() - t0
    t0 = time.time()
    hf2 = cached_hilbert_function(f, cfg, cache)
    hit = time.time() - t0
    assert hf2.dims == hf.dims
    assert hf2.stable_value == hf.stable_value
    assert hf2.certified
    assert [r.primes for r in hf2.rank_details] == \
        [r.primes for r in hf.rank_details]
    assert hit < 0.050, f"cache hit took {hit:.3f}s (miss {first:.3f}s)"


def test_cache_key_sensitivity(monkeypatch):
    f = parse_polynomial(KUMMER_TEXT, num_vars=4)
    g = parse_polynomial("x0^4 + x1^4 + x2^4 + x3^4", num_vars=4)
    base = cache_key(f, RankConfig(seed=0))
    assert cache_key(f, RankConfig(seed=1)) != base
    assert cache_key(f, RankConfig(seed=0, primes=5)) != base
    assert cache_key(g, RankConfig(seed=0)) != base
    # the route decides which proofs are tried
    assert cache_key(f, RankConfig(seed=0), canonical_spec(3, 4)) != base
    # the certification cutoffs decide proof and certified, and an
    # entry of another layout is never looked up
    for name in ("EXACT_FALLBACK_COLS", "EXACT_VERIFY_COLS", "ORACLE_SIDE", "ENTRY_SCHEMA"):
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, name, 0)
            assert cache_key(f, RankConfig(seed=0)) != base, name
    assert cache_key(f, RankConfig(seed=0)) == base


def test_cache_corrupt_entry_skipped(tmp_path):
    f = parse_polynomial("x0^3 + x1^3 + x2^3", num_vars=3)
    cache = HilbertCache(str(tmp_path))
    cfg = RankConfig(seed=0)
    hf = cached_hilbert_function(f, cfg, cache)
    key = cache_key(f, cfg)
    with open(cache.path(key), "w") as fh:
        fh.write("{ not json")
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        hf2 = cached_hilbert_function(f, cfg, cache)
    assert hf2.dims == hf.dims
    assert cache.load(key, 2, 3).dims == hf.dims  # rewritten cleanly


def test_cache_entry_missing_field_skipped(tmp_path):
    f = parse_polynomial("x0^3 + x1^3 + x2^3", num_vars=3)
    cache = HilbertCache(str(tmp_path))
    cfg = RankConfig(seed=0)
    cached_hilbert_function(f, cfg, cache)
    key = cache_key(f, cfg)
    with open(cache.path(key)) as fh:
        data = json.load(fh)
    del data["rank_details"][3]["certified"]
    with open(cache.path(key), "w") as fh:
        json.dump(data, fh)
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert cache.load(key, 2, 3) is None


@pytest.mark.parametrize("edit", [
    pytest.param(lambda data: data.update(dims=data["dims"][:-1]), id="dims-truncated"),
    pytest.param(lambda data: data.update(dims="abc"), id="dims-string"),
    pytest.param(lambda data: data["dims"].__setitem__(2, 1.5), id="dims-float"),
    pytest.param(lambda data: data.update(rank_details=data["rank_details"][:-1]),
                 id="rank-details-truncated"),
    pytest.param(lambda data: data["dims"].__setitem__(1, 4), id="dims-not-from-ranks"),
    pytest.param(lambda data: data.update(smooth_match=False), id="smooth-match-flipped"),
    pytest.param(lambda data: data.update(certified=False), id="certified-flipped"),
    pytest.param(lambda data: data["rank_details"][3].update(ranks=[9, 8, 7]),
                 id="ranks-disagree"),
    pytest.param(lambda data: data["rank_details"][3].update(exact_verified=False),
                 id="exact-verified-flipped"),
    pytest.param(lambda data: data["rank_details"][3].update(method="sparse-elimination"),
                 id="method-flipped"),
])
def test_cache_entry_of_wrong_length_is_recomputed(tmp_path, edit):
    # the entry still parses, but it is not the record its ranks make: dims
    # or ranks do not run through T+1, or its dims or a stored summary are
    # not the ones the ranks give.  Trusted, it would be refused, hang the
    # ct loop of thresholds, or certify what was not proved on every later run
    f = parse_polynomial("x0^3 + x1^3 + x2^3", num_vars=3)
    cache = HilbertCache(str(tmp_path))
    cfg = RankConfig(seed=0)
    want = hilbert_function(f, config=cfg)
    assert cached_hilbert_function(f, cfg, cache) == want
    key = cache_key(f, cfg)
    with open(cache.path(key)) as fh:
        data = json.load(fh)
    edit(data)
    with open(cache.path(key), "w") as fh:
        json.dump(data, fh)
    assert cache.entries()[0]["corrupt"]
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert cached_hilbert_function(f, cfg, cache) == want
    assert cache.load(key, 2, 3) == want  # rewritten cleanly
    assert "corrupt" not in cache.entries()[0]


@pytest.mark.parametrize("other", ["x0^4 + x1^4 + x2^4", "x0^3 + x1^3 + x2^3 + x3^3"])
def test_cache_entry_for_another_n_or_d_is_recomputed(tmp_path, other):
    # a well-formed entry of another polynomial under this input's key
    f = parse_polynomial("x0^3 + x1^3 + x2^3", num_vars=3)
    cache = HilbertCache(str(tmp_path))
    cfg = RankConfig(seed=0)
    key = cache_key(f, cfg)
    cache.store(key, hilbert_function(parse_polynomial(other), config=cfg))
    want = hilbert_function(f, config=cfg)
    with pytest.warns(UserWarning, match="corrupt cache entry.*n=.*d="):
        assert cached_hilbert_function(f, cfg, cache) == want
    assert cache.load(key, 2, 3) == want


@pytest.mark.parametrize("blob", ["[]", "3", "null"])
def test_cache_non_object_entry_is_corrupt(tmp_path, blob):
    cache = HilbertCache(str(tmp_path))
    (tmp_path / "deadbeef.json").write_text(blob + "\n")
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert cache.load("deadbeef", 2, 3) is None
    assert cache.entries() == [{"key": "deadbeef", "size": len(blob) + 1,
                                "corrupt": True}]


def test_cache_inspect_and_clear(tmp_path):
    cache = HilbertCache(str(tmp_path))
    assert cache.entries() == []
    f = parse_polynomial("x0^3 + x1^3 + x2^3", num_vars=3)
    cached_hilbert_function(f, RankConfig(seed=0), cache)
    cached_hilbert_function(f, RankConfig(seed=1), cache)
    entries = cache.entries()
    assert len(entries) == 2
    assert all(e["n"] == 2 and e["d"] == 3 for e in entries)
    assert cache.clear() == 2
    assert cache.entries() == []


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("MILNOR_CACHE_DIR", str(tmp_path / "boxes"))
    assert default_cache_dir() == str(tmp_path / "boxes")
    monkeypatch.delenv("MILNOR_CACHE_DIR")
    assert default_cache_dir().endswith(".cache/milnor")


def test_analyze_stores_then_hits_cache(tmp_path, monkeypatch):
    f = parse_polynomial("x0^3 + x1^3 + x2^3", num_vars=3)
    cache = HilbertCache(str(tmp_path))
    config = RunConfig(seed=0)
    first = analyze(f, config=config, cache=cache)
    assert first.thresholds.smooth
    assert cache.load(cache_key(f, config), 2, 3).dims == first.hilbert.dims

    def refuse(*args, **kwargs):
        raise AssertionError("hilbert_function called on a cache hit")

    monkeypatch.setattr(cache_module, "hilbert_function", refuse)
    again = analyze(f, config=config, cache=cache)
    assert again.to_json() == first.to_json()


def test_cache_keeps_one_entry_per_route(tmp_path, monkeypatch):
    # the three-prime entry of build(spec) is never served to
    # analyze(chebyshev=spec), nor the one-prime oracle entry to analyze(f)
    spec = canonical_spec(3, 4)
    f = build(spec)
    cache = HilbertCache(str(tmp_path))
    config = RunConfig(seed=0)
    by_poly = analyze(f, config=config, cache=cache)
    by_spec = analyze(chebyshev=spec, config=config, cache=cache)
    assert len(cache.entries()) == 2
    assert by_poly.hilbert.dims == by_spec.hilbert.dims
    assert [len(r.primes) for r in by_poly.hilbert.rank_details][6:] == [3] * 4
    assert [len(r.primes) for r in by_spec.hilbert.rank_details][6:] == [1] * 4

    def refuse(*args, **kwargs):
        raise AssertionError("hilbert_function called on a cache hit")

    monkeypatch.setattr(cache_module, "hilbert_function", refuse)
    assert analyze(f, config=config, cache=cache).to_json() == by_poly.to_json()
    assert analyze(chebyshev=spec, config=config, cache=cache).to_json() == by_spec.to_json()


def test_entry_of_an_earlier_schema_is_a_plain_miss(tmp_path):
    # an entry written before ENTRY_SCHEMA 2, under the key of that layout
    # (no route, schema or oracle cap in it), is never looked up
    f = parse_polynomial("x0^3 + x1^3 + x2^3", num_vars=3)
    cache = HilbertCache(str(tmp_path))
    cfg = RankConfig(seed=0)
    old_payload = {"polynomial": format_polynomial(f), "num_vars": 3, "primes": 3,
                   "seed": 0, "exact_fallback_cols": 2000, "exact_verify_cols": 48}
    old_key = hashlib.sha256(json.dumps(old_payload, sort_keys=True).encode()).hexdigest()
    entry = cache_module._entry(hilbert_function(f, config=cfg))
    entry["schema"] = 1
    for rank in entry["rank_details"]:
        del rank["proof"]
    (tmp_path / f"{old_key}.json").write_text(json.dumps(entry))
    assert cache_key(f, cfg) != old_key
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hf = cached_hilbert_function(f, cfg, cache)
    assert hf.certified
    assert cache.load(cache_key(f, cfg), 2, 3) == hf


@pytest.mark.parametrize("source, want", [
    ("C(3,4,-1)", "proved (Chebyshev)"),
    ("CC(3,4)", "proved (Chebyshev)"),
    ("CC(4,4)", "proved (Chebyshev)"),
    ("kummer", "assumed"),
    ("fermat", "assumed"),
    ("cusp", "assumed"),
])
def test_nodality_is_proved_for_chebyshev_specs_only(pipeline, source, want):
    reports = {
        "C(3,4,-1)": lambda: pipeline.cc(3, 4, k=-1),
        "CC(3,4)": lambda: pipeline.cc(3, 4),
        "CC(4,4)": lambda: pipeline.cc(4, 4),
        "kummer": lambda: pipeline.poly("kummer", KUMMER_TEXT, num_vars=4),
        "fermat": lambda: pipeline.poly("fermat", FERMAT_TEXT, num_vars=4),
        # the cuspidal cubic is not nodal: it must never read as proved
        "cusp": lambda: pipeline.poly("cusp", "x1^2*x2 - x0^3", num_vars=3),
    }
    rep = reports[source]()
    assert rep.nodality == want
    assert rep.to_dict()["nodality"] == want
    assert f"nodality: {want}" in rep.to_text().splitlines()


def test_uncertified_report_names_its_strands():
    # one prime proves no rank-deficient strand past EXACT_VERIFY_COLS of a
    # polynomial input: Kummer's strands k = 6..9 (84 x 80 to 220 x 336)
    f = parse_polynomial(KUMMER_TEXT, num_vars=4)
    rep = analyze(f, config=RunConfig(seed=0, primes=1))
    assert not rep.certified
    assert rep.strands(None) == [6, 7, 8, 9]
    assert rep.thresholds.tau == 16
    assert [r.proof for r in rep.hilbert.rank_details[6:]] == [None] * 4
    assert "uncertified strands: k = 6, 7, 8, 9" in rep.to_text().splitlines()
    assert "certified: False" in rep.to_text().splitlines()


def test_report_says_which_strands_are_past_the_oracle_cap(monkeypatch):
    from milnor import hilbert
    monkeypatch.setattr(hilbert, "ORACLE_SIDE", 0)
    rep = analyze(chebyshev=canonical_spec(3, 4), config=RunConfig(seed=0))
    assert rep.certified and rep.strands("agreement") == [6, 7, 8]
    assert "past the oracle size cap, by prime agreement: k = 6, 7, 8" in \
        rep.to_text().splitlines()


def test_run_config_is_a_rank_config():
    assert isinstance(RunConfig(), RankConfig)
    with pytest.raises(ValueError, match="primes"):
        RunConfig(primes=0)
