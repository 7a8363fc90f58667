"""Report assembly, lint, serialization, and the Hilbert-function cache."""

import hashlib
import json
import time

import pytest

from conftest import KUMMER_TEXT
from milnor import cache as cache_module
from milnor.cache import (HilbertCache, cache_key, cached_hilbert_function,
                          default_cache_dir)
from milnor.chebyshev import canonical_spec
from milnor.hilbert import hilbert_function
from milnor.linalg import RankConfig
from milnor.poly import parse_polynomial
from milnor.report import (HypersurfaceReport, ReportLintError, RunConfig,
                           analyze)
from milnor.topology import TheoremCheck


def test_report_dict_fields(kummer):
    doc = kummer.to_dict()
    assert doc["schema"] == 1
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
    assert len(set(strand6["ranks"])) == 1


def test_json_byte_identical_under_seed():
    f = parse_polynomial(KUMMER_TEXT, num_vars=4)
    a = analyze(f, source="kummer", config=RunConfig(seed=5)).to_json()
    b = analyze(f, source="kummer", config=RunConfig(seed=5)).to_json()
    assert a == b
    c = analyze(f, source="kummer", config=RunConfig(seed=6)).to_json()
    assert c != a  # recorded primes differ
    assert json.loads(c)["thresholds"] == json.loads(a)["thresholds"]


def test_frozen_bytes_seed0(tmp_path):
    # sha256 and size of the seed-0 Kummer report and of its cache entry;
    # a change here changes what users get on disk, so it must be deliberate
    f = parse_polynomial(KUMMER_TEXT, num_vars=4)
    config = RunConfig(seed=0)
    text = analyze(f, source="kummer", config=config).to_json().encode()
    assert (hashlib.sha256(text).hexdigest(), len(text)) == (
        "f1dd05032a7dee3bd7ecca4f414e07c54cfd17698f473b5918177d94fd712217", 5008)
    cache = HilbertCache(str(tmp_path))
    cached_hilbert_function(f, config, cache)
    key = cache_key(f, RankConfig(seed=0))
    # existing caches keep hitting only while the key is unchanged
    assert key == ("35a86b1e65998c7c107f74a8ba62ba8a"
                   "35756695f743bb9e213d2940aa3897e9")
    assert cache_key(f, config) == key
    with open(cache.path(key), "rb") as fh:
        entry = fh.read()
    assert (hashlib.sha256(entry).hexdigest(), len(entry)) == (
        "9cf04f2ba49dfd5cee2f69998030307ebf98435c09ebbf285c97d239ecde96a5", 1830)


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
    assert not rep.nodal_assumed
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
    # the certification cutoffs decide method, exact_verified and certified
    for name in ("EXACT_FALLBACK_COLS", "EXACT_VERIFY_COLS"):
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
    assert cache.load(key).dims == hf.dims  # rewritten cleanly


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
        assert cache.load(key) is None


@pytest.mark.parametrize("edit", [
    pytest.param(lambda data: data.update(dims=data["dims"][:-1]), id="dims-truncated"),
    pytest.param(lambda data: data.update(dims="abc"), id="dims-string"),
    pytest.param(lambda data: data["dims"].__setitem__(2, 1.5), id="dims-float"),
    pytest.param(lambda data: data.update(rank_details=data["rank_details"][:-1]),
                 id="rank-details-truncated"),
])
def test_cache_entry_of_wrong_length_is_recomputed(tmp_path, edit):
    # the entry still parses, but its dims do not run through T+1, so
    # thresholds would refuse it on every later run
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
    assert cache.load(key) == want  # rewritten cleanly
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
    assert cache.load(key) == want


@pytest.mark.parametrize("blob", ["[]", "3", "null"])
def test_cache_non_object_entry_is_corrupt(tmp_path, blob):
    cache = HilbertCache(str(tmp_path))
    (tmp_path / "deadbeef.json").write_text(blob + "\n")
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert cache.load("deadbeef") is None
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
    assert cache.load(cache_key(f, config)).dims == first.hilbert.dims

    def refuse(*args, **kwargs):
        raise AssertionError("hilbert_function called on a cache hit")

    monkeypatch.setattr(cache_module, "hilbert_function", refuse)
    again = analyze(f, config=config, cache=cache)
    assert again.to_json() == first.to_json()


def test_run_config_is_a_rank_config():
    assert isinstance(RunConfig(), RankConfig)
    with pytest.raises(ValueError, match="primes"):
        RunConfig(primes=0)
