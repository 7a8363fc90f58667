"""CLI subcommands, exit codes, output files, and error reporting."""

import io
import json
import os
import time
from types import SimpleNamespace

import pytest

from conftest import FERMAT_TEXT, KUMMER_TEXT
from milnor import cli
from milnor.cli import main
from milnor.linalg import MAX_PRIMES


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("MILNOR_CACHE_DIR", str(tmp_path / "cache"))


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_stdout(capsys):
    code, out, err = run(["analyze", KUMMER_TEXT], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["thresholds"]["tau"] == 16
    assert doc["alexander"]["text"] == "(t + 1)^6"
    assert doc["schema"] == 2


def test_analyze_file_and_out_dir(tmp_path, capsys):
    poly_file = tmp_path / "kummer.txt"
    poly_file.write_text(KUMMER_TEXT + "\n")
    out_dir = tmp_path / "reports"
    code, out, _ = run(["analyze", str(poly_file), "--out", str(out_dir),
                        "--format", "csv"], capsys)
    assert code == 0
    target = out_dir / "kummer.csv"
    assert str(target) in out
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "k,dim_singular,dim_smooth,difference"
    assert lines[-1] == "9,16,0,16"


def test_analyze_parse_error_gives_line_column(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("x0^4 + x1^4 +\n+ x2^4\n")
    out_dir = tmp_path / "reports"
    code, out, err = run(["analyze", str(bad), "--out", str(out_dir)], capsys)
    assert code == 1
    assert "line 2, column" in err
    assert not out_dir.exists()  # no partial output


def test_analyze_rejects_inhomogeneous(capsys):
    code, _, err = run(["analyze", "x0^3 + x1^2"], capsys)
    assert code == 1 and "homogeneous" in err


def test_analyze_dimension_degree_validation(capsys):
    code, _, err = run(["analyze", FERMAT_TEXT, "--n", "2"], capsys)
    assert code == 1 and "n=3" in err
    code, _, err = run(["analyze", FERMAT_TEXT, "--d", "5"], capsys)
    assert code == 1 and "degree 4" in err


def test_analyze_smooth_exit_zero(capsys):
    code, out, _ = run(["analyze", FERMAT_TEXT, "--format", "text"], capsys)
    assert code == 0
    assert "smooth hypersurface" in out


def test_analyze_not_nodal_message(capsys):
    # singular along a line; stabilization fails and says so
    code, _, err = run(["analyze", "x0^2*x1", "--num-vars", "3"], capsys)
    assert code == 1
    assert "not nodal or has non-isolated" in err


def test_analyze_no_nodal_flag(capsys):
    code, out, _ = run(["analyze", KUMMER_TEXT, "--no-nodal"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["defects"] is None and doc["betti"] is None


def test_analyze_deterministic_bytes(capsys):
    _, first, _ = run(["analyze", KUMMER_TEXT, "--no-cache"], capsys)
    _, second, _ = run(["analyze", KUMMER_TEXT, "--no-cache"], capsys)
    assert first == second
    _, timed, _ = run(["analyze", KUMMER_TEXT, "--timing"], capsys)
    assert json.loads(timed)["timing"] is not None


def test_chebyshev_grid_with_verdicts(tmp_path, capsys):
    out_dir = tmp_path / "grid"
    code, out, _ = run(["chebyshev", "--n", "3", "--d", "4..6",
                        "--even-only", "--out", str(out_dir),
                        "--format", "text"], capsys)
    assert code == 0
    assert (out_dir / "CC_3_4.txt").exists()
    assert (out_dir / "CC_3_6.txt").exists()
    assert not (out_dir / "CC_3_5.txt").exists()
    verdicts = (out_dir / "verdicts.csv").read_text().strip().split("\n")
    assert verdicts[0] == "name,n,d,predicted,computed,agree,label"
    rows = [v.split(",") for v in verdicts[1:]]
    assert [r[:5] for r in rows] == [
        ["defect-closed-form-n3", "3", "4", "3", "3"],
        ["defect-closed-form-n3", "3", "6", "6", "6"],
    ]
    assert all(r[5] == "True" for r in rows)


def test_chebyshev_json_aggregate(capsys):
    code, out, _ = run(["chebyshev", "--n", "2", "--d", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["thresholds"] == {
        "T": 9, "tau": 8, "ct": 6, "st": 7, "mdr": 3, "smooth": False}
    assert doc["verdicts"][0]["label"] == "new data point"


def test_chebyshev_timing_is_per_report(capsys, monkeypatch):
    # a fake clock that only analyze advances, by d seconds for degree d:
    # each report must read its own analyze time, not the grid's
    clock = [0.0]
    real_analyze = cli.analyze

    def analyze(*, chebyshev, **kwargs):
        clock[0] += chebyshev.d
        return real_analyze(chebyshev=chebyshev, **kwargs)

    monkeypatch.setattr(cli, "analyze", analyze)
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    argv = ["chebyshev", "--n", "2", "--d", "3,4,7", "--no-cache"]
    code, out, _ = run(argv + ["--timing"], capsys)
    assert code == 0
    assert [r["timing"] for r in json.loads(out)["reports"]] == [
        {"seconds": 3.0}, {"seconds": 4.0}, {"seconds": 7.0}]
    code, out, _ = run(argv, capsys)
    assert [r["timing"] for r in json.loads(out)["reports"]] == [None] * 3


def test_chebyshev_k_override(capsys):
    code, out, _ = run(["chebyshev", "--n", "3", "--d", "4", "--k", "-1",
                        "--format", "text"], capsys)
    assert code == 0
    assert "alexander polynomial: 1" in out
    assert "tau = 6" in out


def test_chebyshev_jobs_pool_capped_at_grid_size(capsys, pool_sizes):
    argv = ["chebyshev", "--n", "2", "--d", "3..4", "--no-cache"]
    code, serial, _ = run(argv, capsys)
    assert code == 0 and pool_sizes == []
    code, pooled, _ = run(argv + ["--jobs", "64"], capsys)
    assert code == 0 and pooled == serial
    assert pool_sizes == [2]  # two grid points, not 64 workers


def test_chebyshev_bad_degree_spec(capsys):
    code, _, err = run(["chebyshev", "--n", "3", "--d", "x..y"], capsys)
    assert code == 1 and "degree spec" in err
    code, _, err = run(["chebyshev", "--n", "3", "--d", "5..4"], capsys)
    assert code == 1


def test_chebyshev_degree_cap_refusal(capsys):
    code, _, err = run(["chebyshev", "--n", "3", "--d", "24"], capsys)
    assert code == 1
    assert "exceeds the cap 20" in err and "--max-degree" in err
    assert "cells" in err


def test_hilbert_csv(capsys):
    code, out, _ = run(["hilbert", KUMMER_TEXT, "--format", "csv"], capsys)
    assert code == 0
    assert out.startswith("k,dim_singular,dim_smooth,difference\n0,1,1,0\n")


def test_defects_cc_with_oracle(capsys):
    code, out, _ = run(["defects", "--cc", "3,4", "--oracle",
                        "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,defect,oracle_defect"
    assert lines[1] == "0,11,11"
    assert lines[3] == "2,3,3"
    for line in lines[1:]:
        _, a, b = line.split(",")
        assert a == b


def test_defects_polynomial_json(capsys):
    code, out, _ = run(["defects", KUMMER_TEXT, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["node_count"] == 16
    assert doc["defects"][:3] == [[0, 15], [1, 12], [2, 6]]
    assert doc["oracle_defects"] is None


def test_defects_input_validation(capsys):
    code, _, err = run(["defects"], capsys)
    assert code == 1
    code, _, err = run(["defects", "x0^2+x1^2", "--cc", "2,3"], capsys)
    assert code == 1
    code, _, err = run(["defects", "--cc", "2,3", "--oracle", "--cc", "2,3,1"],
                       capsys)
    assert code == 1  # C(2,3,1) is smooth: parity fails


def test_defects_needs_exactly_one_input(capsys):
    # neither a polynomial nor --cc, then both: the same message each time
    for argv in (["defects"], ["defects", "x0^2+x1^2", "--cc", "2,3"]):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err == ("error: pass exactly one of a polynomial or "
                       "--cc N,D[,K]\n")


def test_cache_inspect_and_clear_cli(tmp_path, capsys):
    code, out, _ = run(["analyze", "x0^3 + x1^3 + x2^3"], capsys)
    assert code == 0
    code, out, _ = run(["cache", "inspect"], capsys)
    assert code == 0
    assert "n=2 d=3" in out and "1 entries" in out
    code, out, _ = run(["cache", "clear"], capsys)
    assert code == 0 and "removed 1" in out
    code, out, _ = run(["cache", "inspect"], capsys)
    assert "no entries" in out


def test_cache_inspect_lists_non_object_entries_as_corrupt(tmp_path,
                                                          capsys):
    cache_dir = tmp_path / "odd"
    cache_dir.mkdir()
    for key, blob in (("aa", "[]"), ("bb", "3"), ("cc", "null")):
        (cache_dir / f"{key}.json").write_text(blob)
    code, out, err = run(["cache", "inspect", "--cache-dir", str(cache_dir)],
                         capsys)
    assert code == 0 and not err
    assert out.count("CORRUPT") == 3 and "3 entries" in out


def test_cache_reuse_between_runs(tmp_path, capsys):
    import time
    code, first, _ = run(["analyze", KUMMER_TEXT], capsys)
    t0 = time.time()
    code, second, _ = run(["analyze", KUMMER_TEXT], capsys)
    cached_run = time.time() - t0
    assert first == second
    assert cached_run < 0.5


def test_verify_fast_path(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "kummer-quartic" in out and "all checks passed" in out


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("x0^3 + x1^3 + x2^3"))
    code, out, _ = run(["analyze", "-", "--format", "text"], capsys)
    assert code == 0
    assert "source: stdin" in out


def test_rank_options_validated(capsys):
    code, _, err = run(["analyze", FERMAT_TEXT, "--primes", "0"], capsys)
    assert code == 1 and "--primes" in err
    code, _, err = run(["analyze", FERMAT_TEXT, "--dense-threshold", "-5"], capsys)
    assert code == 1 and "--dense-threshold" in err


def test_prime_count_above_the_cap_fails_at_once(capsys):
    # (2^30, 2^31) holds about 5 * 10^7 primes, so a draw of 2 * 10^9
    # distinct ones would never return
    start = time.perf_counter()
    code, _, err = run(["analyze", "x0^3+x1^3+x2^3", "--no-cache",
                        "--primes", "2000000000"], capsys)
    assert code == 1
    assert f"primes must be in 1..{MAX_PRIMES}" in err
    assert time.perf_counter() - start < 5
    code, _, _ = run(["analyze", "x0^3+x1^3+x2^3", "--no-cache", "--primes",
                      str(MAX_PRIMES + 1)], capsys)
    assert code == 1


def test_one_prime_leaves_kummer_uncertified(capsys):
    # one prime agrees with itself, but that proves nothing: Kummer's
    # rank-deficient strands k = 6..9 are past EXACT_VERIFY_COLS
    code, out, err = run(["analyze", KUMMER_TEXT, "--primes", "1",
                          "--no-cache", "--format", "text"], capsys)
    assert code == 2
    assert "uncertified strands: k = 6, 7, 8, 9" in out.splitlines()
    assert "certified: False" in out.splitlines()
    assert "k = 6, 7, 8, 9" in err
    code, out, err = run(["analyze", KUMMER_TEXT, "--primes", "1", "--no-cache"], capsys)
    assert code == 2 and "k = 6, 7, 8, 9" in err
    details = json.loads(out)["certification"]["rank_details"]
    assert [r["k"] for r in details if r["proof"] is None] == [6, 7, 8, 9]


def test_one_prime_certifies_a_chebyshev_grid_through_the_oracle(capsys):
    code, out, err = run(["chebyshev", "--n", "3", "--d", "5", "--primes", "1",
                          "--no-cache"], capsys)
    assert code == 0 and not err
    (report,) = json.loads(out)["reports"]
    assert report["nodality"] == "proved (Chebyshev)"
    details = report["certification"]["rank_details"]
    assert {r["proof"] for r in details} == {"exact", "full-rank", "oracle"}
    assert all(len(r["primes"]) <= 1 for r in details)


@pytest.mark.parametrize("shift, code, message", [
    (1, 2, "uncertified: CC(3,4): no proof for the rank of strands k = 7"),
    (-1, 2, "uncertified: strand k=7: its rank"),
])
def test_oracle_disagreement_exits_uncertified_naming_k(monkeypatch, capsys, shift,
                                                        code, message):
    # an oracle that misses strand 7's rank by one: above the modular rank
    # the strand stays unproved, below it the run stops
    from milnor import hilbert
    original = hilbert._oracle_rank
    monkeypatch.setattr(hilbert, "_oracle_rank", lambda spec, seed, k:
                        original(spec, seed, k) + shift * (k == 7))
    got, _, err = run(["chebyshev", "--n", "3", "--d", "4", "--no-cache",
                       "--format", "text"], capsys)
    assert got == code and message in err


def test_usage_errors_exit_one(capsys):
    # argparse's own exit code 2 would read as "computed but uncertified"
    for argv in (["analyze", FERMAT_TEXT, "--bogus"],
                 ["analyze", FERMAT_TEXT, "--dense-threshold", "5"],
                 ["analyze", FERMAT_TEXT, "--primes", "abc"],
                 []):
        code, _, err = run(argv, capsys)
        assert code == 1, argv
        assert "usage:" in err, argv
    code, out, _ = run(["--help"], capsys)
    assert code == 0 and "usage: milnor" in out


def test_parser_shared_across_calls_keeps_no_flags(capsys):
    # main() parses with one parser per process; the flags of one call must
    # not carry over to the next
    assert cli.build_parser() is cli.build_parser()
    # a strand proved at its first prime lists that prime; the others, which
    # rest on agreement, list --primes of them
    code, out, _ = run(["analyze", KUMMER_TEXT, "--no-nodal", "--primes", "5",
                        "--no-cache"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["defects"] is None and doc["alexander"] is None
    drawn = {len(d["primes"]) for d in doc["certification"]["rank_details"] if d["primes"]}
    assert drawn == {1, 5}
    code, out, _ = run(["analyze", KUMMER_TEXT, "--no-cache"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["defects"] is not None
    assert doc["alexander"]["text"] == "(t + 1)^6"
    drawn = {len(d["primes"]) for d in doc["certification"]["rank_details"] if d["primes"]}
    assert drawn == {1, 3}


# -- bytes pinned across refactors of the CLI -----------------------------------

_DEFECTS_CC34_ORACLE = {
    "json": ("099a785cfee2acdbe8a0bcd42910a9634afe4b16e845e554995c14627cc7f788",
             668),
    "csv": ("406dd5b970e6e2ba8511567d4e2bf5f6eb1ace05bd6b9ce589628833d31f9d16",
            79),
    "text": ("81c1b0b9614acfccf279a612c9ee82ac848492f37c4d46fda11d7af68e2cbdf5",
             93),
}


@pytest.mark.parametrize("fmt", sorted(_DEFECTS_CC34_ORACLE))
def test_defects_oracle_frozen_bytes(fmt, capsys):
    import hashlib
    code, out, _ = run(["defects", "--cc", "3,4", "--oracle", "--no-cache",
                        "--format", fmt], capsys)
    assert code == 0
    blob = out.encode()
    assert (hashlib.sha256(blob).hexdigest(), len(blob)) == \
        _DEFECTS_CC34_ORACLE[fmt]


def test_defects_oracle_evaluates_each_degree_once(monkeypatch, capsys):
    # the strand route already evaluated the oracle in the degrees whose
    # strands it proves; the cross-check takes those from the report
    from milnor import nodes
    degrees = []

    def wrap(fn):
        def counting(n, d, degree, *args, **kwargs):
            degrees.append(degree)
            return fn(n, d, degree, *args, **kwargs)
        return counting

    monkeypatch.setattr(nodes, "defect_direct", wrap(nodes.defect_direct))
    monkeypatch.setattr(cli, "defect_direct", wrap(cli.defect_direct))
    code, out, _ = run(["defects", "--cc", "3,6", "--oracle", "--no-cache",
                        "--format", "text"], capsys)
    assert code == 0 and "oracle agrees on all degrees" in out
    assert sorted(degrees) == list(range(17))  # T = 16


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_hilbert_equals_analyze_no_nodal(fmt, capsys):
    code, hilbert, _ = run(["hilbert", KUMMER_TEXT, "--format", fmt], capsys)
    assert code == 0
    code, analyzed, _ = run(["analyze", KUMMER_TEXT, "--no-nodal",
                             "--format", fmt], capsys)
    assert code == 0 and hilbert == analyzed


def test_chebyshev_pooled_verdicts_equal_serial(tmp_path, capsys):
    argv = ["chebyshev", "--n", "2", "--d", "3..6", "--no-cache", "--out"]
    code, _, _ = run(argv + [str(tmp_path / "serial")], capsys)
    assert code == 0
    code, _, _ = run(argv + [str(tmp_path / "pooled"), "--jobs", "2"], capsys)
    assert code == 0
    serial = (tmp_path / "serial" / "verdicts.csv").read_bytes()
    assert (tmp_path / "pooled" / "verdicts.csv").read_bytes() == serial
    assert serial.count(b"\n") > 1
