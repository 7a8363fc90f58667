"""Report assembly, lint, serialization, and the Hilbert-function cache."""

import hashlib
import json
import time

import pytest

from conftest import FERMAT_TEXT, KUMMER_TEXT
from milnor import cache as cache_module
from milnor.cache import (HilbertCache, cache_key, cached_hilbert_function,
                          default_cache_dir)
from milnor.chebyshev import ChebyshevSpec, build, canonical_spec
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


FROZEN_SEED0 = {
    # source: (text or Chebyshev spec, report sha256 and size, cache key,
    # entry sha256 and size)
    "kummer": (KUMMER_TEXT,
               "f1dd05032a7dee3bd7ecca4f414e07c54cfd17698f473b5918177d94fd712217", 5008,
               "35a86b1e65998c7c107f74a8ba62ba8a35756695f743bb9e213d2940aa3897e9",
               "9cf04f2ba49dfd5cee2f69998030307ebf98435c09ebbf285c97d239ecde96a5", 1830),
    # the smooth branch: stable value 0, no ct or mdr
    "fermat": (FERMAT_TEXT,
               "bfa1ed9594a141e34858937fd9ec8c98cb6a506c694e97a9ddca1630815d3e75", 5010,
               "888290f1db56746f16fb30d4b1190e3352b475c3af29acaa5b9f7f5b9c0c751f",
               "2b4adaebf81641d26e33783ac37ce31e191027e933e590cc76cc91c314a8492b", 1825),
    # many dense pieces and primes to a rank call, and pieces of several
    # panels: 560 x 880 at k=13 cut into 308 x 470 and 252 x 410
    "CC(3,5)": (canonical_spec(3, 5),
                "607393b78f79e750c56459ece5eb100793f0ad4077073ac6180470fbc10751a1", 6141,
                "db9eafa2c4be98a3bdd50c6e6ac79b09193d9c45fc63f23b1db16b8d28edd8c2",
                "4ab1bb67817f44fe328dc90604281e5fc62b3d414fbcdd973ca709f699e4bef2", 2533),
    "CC(4,4)": (canonical_spec(4, 4),
                "42b4f2c1a4bfa2e066ee085af2ca22430d6fc5b337dc73bf2f4ab6174f568c39", 5640,
                "fc7ec4b8cd9d1762ad5ff5c45a5c0b45eb3b076a44ab6bf82acde1ab4fe746ee",
                "2f08fd490107315f0a9e358bc41225f4f4264b88aa2b157459d9407a80a4987d", 2214),
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


def test_run_config_is_a_rank_config():
    assert isinstance(RunConfig(), RankConfig)
    with pytest.raises(ValueError, match="primes"):
        RunConfig(primes=0)
