"""Command-line frontend.

Subcommands:
  analyze    full pipeline on one polynomial (file, inline text, or stdin)
  chebyshev  grid of Chebyshev hypersurfaces with conjecture verdict table
  hilbert    Hilbert function and thresholds only (analyze --no-nodal)
  defects    defect table, optionally cross-checked by the node oracle
  verify     reproduction harness for the known-value table
  cache      inspect or clear the Hilbert-function cache

analyze() enforces the degree cap, hilbert.parallel_map() runs the process
pools, and reports render themselves; this module reads input and writes.

Exit codes: 0 all results certified, 1 error (nothing written), 2 results
computed but uncertified.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
import warnings
from dataclasses import asdict, replace
from functools import cache

from .cache import HilbertCache
from .chebyshev import ChebyshevSpec, canonical_spec, cc_node_count, st_formula
from .hilbert import parallel_map
from .nodes import OracleConfig, defect_direct, injectivity_threshold
from .poly import PolynomialParseError, parse_polynomial
from .report import (SCHEMA_VERSION, ReportLintError, RunConfig, analyze,
                     check_degree_cap)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCERTIFIED = 2

_EXTENSIONS = {"json": "json", "csv": "csv", "text": "txt"}


class CommandError(Exception):
    """Fatal CLI error carrying the exit code."""

    def __init__(self, message: str, code: int = EXIT_ERROR):
        super().__init__(message)
        self.code = code


# -- shared plumbing ----------------------------------------------------------


def _common_flags() -> argparse.ArgumentParser:
    defaults = RunConfig()
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--primes", type=int, default=defaults.primes, metavar="N",
                   help="most random 31-bit primes per strand rank: every "
                        "strand is ranked at one, and at the rest only where "
                        "no proof covers it at the first (default %(default)s)")
    p.add_argument("--seed", type=int, default=defaults.seed,
                   help="seed for the prime stream (default %(default)s)")
    p.add_argument("--max-degree", type=int, default=defaults.max_degree,
                   metavar="D",
                   help="refuse inputs of higher degree (default %(default)s)")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default="json", help="output format (default json)")
    p.add_argument("--out", metavar="DIR",
                   help="write results into DIR instead of stdout")
    p.add_argument("--jobs", type=int, default=defaults.jobs,
                   help="parallel workers (default %(default)s)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="cache directory (default: env MILNOR_CACHE_DIR "
                        "or ~/.cache/milnor)")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute everything, touch no cache")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock timing in reports "
                        "(breaks byte-identical output)")
    return p


def _run_config(args) -> RunConfig:
    if args.primes < 1:
        raise CommandError("--primes must be at least 1")
    if args.jobs < 1:
        raise CommandError("--jobs must be at least 1")
    return RunConfig(primes=args.primes, seed=args.seed,
                     max_degree=args.max_degree, jobs=args.jobs)


def _cache(args):
    """The Hilbert-function cache for analyze(), or None with --no-cache."""
    return None if args.no_cache else HilbertCache(args.cache_dir)


def _read_polynomial_arg(arg: str, num_vars):
    if arg == "-":
        text, label = sys.stdin.read(), "stdin"
    elif os.path.isfile(arg):
        with open(arg) as fh:
            text = fh.read()
        label = os.path.splitext(os.path.basename(arg))[0]
    else:
        text, label = arg, "inline"
    try:
        return parse_polynomial(text, num_vars=num_vars), label
    except PolynomialParseError as exc:
        line = text.count("\n", 0, exc.position) + 1
        col = exc.position - text.rfind("\n", 0, exc.position)
        raise CommandError(f"parse error at line {line}, column {col}: {exc}")
    except ValueError as exc:
        raise CommandError(f"invalid polynomial: {exc}")


def _slug(source: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", source).strip("_")


def _emit(content: str, args, filename: str) -> None:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, filename)
        with open(path, "w") as fh:
            fh.write(content)
        print(f"wrote {path}")
    else:
        sys.stdout.write(content)


def _exit_code(reports) -> int:
    """EXIT_OK if every report is certified; otherwise name each
    uncertified report's unproved strands on stderr."""
    bad = [r for r in reports if not r.certified]
    for r in bad:
        ks = ", ".join(map(str, r.strands(None)))
        print(f"uncertified: {r.source}: no proof for the rank of strands "
              f"k = {ks}", file=sys.stderr)
    return EXIT_UNCERTIFIED if bad else EXIT_OK


def _finish(report, timing: bool, t0: float):
    """report, with the seconds since t0 as its timing if timing is set."""
    if timing:
        report.timing = {"seconds": round(time.perf_counter() - t0, 3)}
    return report


# -- analyze / hilbert --------------------------------------------------------


def _cmd_analyze(args) -> int:
    f, label = _read_polynomial_arg(args.polynomial, args.num_vars)
    n, d = f.num_vars - 1, f.degree
    if args.n is not None and args.n != n:
        raise CommandError(f"input has n={n} (in P^{n}), expected --n {args.n}")
    if args.d is not None and args.d != d:
        raise CommandError(f"input has degree {d}, expected --d {args.d}")
    config = _run_config(args)
    t0 = time.perf_counter()
    report = _finish(analyze(f, source=label, config=config,
                             nodal=not args.no_nodal, cache=_cache(args)),
                     args.timing, t0)
    _emit(report.render(args.format), args,
          f"{_slug(label)}.{_EXTENSIONS[args.format]}")
    return _exit_code([report])


# -- chebyshev grid -----------------------------------------------------------


def _parse_degree_spec(spec: str, even_only: bool) -> list[int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", spec)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        ds = list(range(lo, hi + 1))
    elif re.fullmatch(r"\d+(,\d+)*", spec):
        ds = [int(x) for x in spec.split(",")]
    else:
        raise CommandError(f"cannot parse degree spec {spec!r}; "
                           "use D, A..B, or D1,D2,...")
    if even_only:
        ds = [d for d in ds if d % 2 == 0]
    ds = sorted(set(ds))
    if not ds:
        raise CommandError("degree spec selects no degrees")
    if min(ds) < 3:
        raise CommandError("chebyshev grid needs degrees >= 3")
    return ds


def _grid_worker(payload):
    spec, config, cache, timing = payload
    t0 = time.perf_counter()
    return _finish(analyze(chebyshev=spec, config=config, cache=cache),
                   timing, t0)


def _cmd_chebyshev(args) -> int:
    ds = _parse_degree_spec(args.d, args.even_only)
    config = _run_config(args)
    for d in ds:
        check_degree_cap(args.n, d, config.max_degree)
    specs = [canonical_spec(args.n, d) if args.k is None
             else ChebyshevSpec(args.n, d, args.k) for d in ds]

    # a grid of several specs is spread over processes: each ranks its
    # strands serially; a single spec keeps the strand-level pool
    grid_config = replace(config, jobs=1) if len(specs) > 1 else config
    cache = _cache(args)
    reports = parallel_map(
        _grid_worker, [(s, grid_config, cache, args.timing) for s in specs],
        config.jobs)

    verdicts = sorted((v for r in reports for v in r.conjectures),
                      key=lambda v: (v.name, v.n, v.d))
    verdict_lines = ["name,n,d,predicted,computed,agree,label"]
    verdict_lines += [f"{v.name},{v.n},{v.d},{v.predicted},{v.computed},"
                      f"{v.agree},{v.label}" for v in verdicts]
    verdict_csv = "\n".join(verdict_lines) + "\n"

    if args.out or args.format != "json":
        for rep in reports:
            _emit(rep.render(args.format), args,
                  f"{_slug(rep.source)}.{_EXTENSIONS[args.format]}")
        if args.out:
            _emit(verdict_csv, args, "verdicts.csv")
        else:
            sys.stdout.write("\nconjecture verdicts:\n" + verdict_csv)
    else:
        doc = {"schema": SCHEMA_VERSION,
               "reports": [r.to_dict() for r in reports],
               "verdicts": [asdict(v) for v in verdicts]}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return _exit_code(reports)


# -- defects ------------------------------------------------------------------


def _parse_cc_arg(text: str) -> ChebyshevSpec:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise CommandError(f"--cc expects n,d or n,d,k, got {text!r}")
    try:
        nums = [int(x) for x in parts]
    except ValueError:
        raise CommandError(f"--cc expects integers, got {text!r}")
    if len(nums) == 2:
        return canonical_spec(nums[0], nums[1])
    return ChebyshevSpec(nums[0], nums[1], nums[2])


def _cmd_defects(args) -> int:
    if (args.polynomial is None) == (args.cc is None):
        raise CommandError("pass exactly one of a polynomial or --cc N,D[,K]")
    config = _run_config(args)
    cache = _cache(args)
    spec = None
    if args.cc is not None:
        spec = _parse_cc_arg(args.cc)
        report = analyze(chebyshev=spec, config=config, cache=cache)
    else:
        f, label = _read_polynomial_arg(args.polynomial, args.num_vars)
        report = analyze(f, source=label, config=config, cache=cache)
    if report.defects is None:
        raise CommandError("no defect table for this input")

    defects = report.defects.items()
    oracle = None
    mismatches = []
    if args.oracle:
        if spec is None or not spec.singular:
            raise CommandError("--oracle needs a singular --cc input")
        # the oracle proved strand j by giving the defect in degree T - j,
        # so only the other degrees are evaluated here
        proved = {report.hilbert.T - j for j in report.strands("oracle")}
        oracle = {k: v if k in proved else defect_direct(
            spec.n, spec.d, k, k_shift=spec.k, config=OracleConfig(seed=config.seed))
            for k, v in defects}
        mismatches = [k for k, v in defects if oracle[k] != v]

    if args.format == "csv":
        lines = ["k,defect" + (",oracle_defect" if oracle else "")]
        lines += [f"{k},{v}" + (f",{oracle[k]}" if oracle else "")
                  for k, v in defects]
        content = "\n".join(lines) + "\n"
    elif args.format == "json":
        content = json.dumps({
            "schema": SCHEMA_VERSION,
            "source": report.source,
            "n": report.n, "d": report.d,
            "node_count": report.defects.node_count,
            "defects": report.defects.to_list(),
            "oracle_defects": [[k, v] for k, v in oracle.items()]
                              if oracle else None,
        }, sort_keys=True, indent=2) + "\n"
    else:
        content = (f"source: {report.source}\n"
                   f"nodes: {report.defects.node_count}\n"
                   f"{report.defects.text_line()}\n")
        if oracle is not None:
            content += ("oracle agrees on all degrees\n" if not mismatches
                        else f"oracle mismatch at k={mismatches}\n")
    _emit(content, args, f"defects_{_slug(report.source)}."
          f"{_EXTENSIONS[args.format]}")
    if mismatches:
        raise CommandError(f"node oracle disagrees with strand ranks at "
                           f"k={mismatches}")
    return _exit_code([report])


# -- verify -------------------------------------------------------------------

_KUMMER = ("x0^4 + x1^4 + x2^4 + x3^4"
           " - x0^2*x1^2 - x0^2*x2^2 - x0^2*x3^2"
           " - x1^2*x2^2 - x1^2*x3^2 - x2^2*x3^2")

_FERMAT = "x0^4 + x1^4 + x2^4 + x3^4"


def _verify_cases(config: RunConfig, full: bool):
    """Yield (name, ok, detail) rows for the known-value table."""
    def cc(n, d, k=None):
        spec = canonical_spec(n, d) if k is None else ChebyshevSpec(n, d, k)
        return analyze(chebyshev=spec, config=config)

    rep = analyze(parse_polynomial(_KUMMER, 4), source="kummer",
                  config=config)
    t = rep.thresholds
    got = (t.tau, t.ct, t.st, t.mdr, rep.defects.defect(2),
           rep.alexander.text(), rep.betti.value)
    want = (16, 5, 5, 3, 6, "(t + 1)^6", 7)
    yield ("kummer-quartic", got == want, f"{got} vs {want}")

    rep = analyze(parse_polynomial(_FERMAT, 4), source="fermat",
                  config=config)
    yield ("fermat-smooth", rep.thresholds.smooth
           and rep.alexander.trivial,
           f"smooth={rep.thresholds.smooth} "
           f"alexander={rep.alexander.text()}")

    for n, d, tau in ((2, 3, 2), (2, 5, 8), (3, 3, 3), (3, 4, 12),
                      (4, 4, 24)):
        rep = cc(n, d)
        t = rep.thresholds
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore",
                                    message=".*not maximal over the shift.*")
            formula = cc_node_count(n, d)
        ok = (t.tau == tau == formula
              and t.st == st_formula(n, d)
              and all(c.ok for c in rep.checks))
        yield (f"CC({n},{d})-invariants", ok,
               f"tau={t.tau} ct={t.ct} st={t.st} alexander="
               f"{rep.alexander.text()}")
        if rep.conjectures:
            bad = [v for v in rep.conjectures if not v.agree]
            yield (f"CC({n},{d})-conjectures", not bad,
                   "; ".join(f"{v.name}: {v.predicted} vs {v.computed}"
                             for v in rep.conjectures))

    rep = cc(3, 4, k=-1)
    yield ("C(3,4,-1)-trivial-alexander", rep.alexander.trivial
           and rep.thresholds.tau == 6, f"tau={rep.thresholds.tau}")

    ocfg = OracleConfig(seed=config.seed)
    for n, d, k, expect in ((3, 4, 2, 3), (2, 5, 1, 5), (3, 4, 5, 0)):
        got = defect_direct(n, d, k, config=ocfg)
        yield (f"oracle-defect({n},{d})-S_{k}", got == expect,
               f"{got} vs {expect}")
    for n, d in ((2, 5), (3, 4)):
        res = injectivity_threshold(n, d, config=ocfg)
        yield (f"oracle-injectivity({n},{d})", res.certified
               and res.r_star == d - 3, f"r*={res.r_star}")

    if full:
        for n, d, tau in ((2, 8, 24), (3, 6, 54), (4, 5, 96)):
            rep = cc(n, d)
            t = rep.thresholds
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", message=".*not maximal over the shift.*")
                formula = cc_node_count(n, d)
            ok = (t.tau == tau == formula
                  and t.st == st_formula(n, d)
                  and all(c.ok for c in rep.checks)
                  and all(v.agree for v in rep.conjectures))
            yield (f"CC({n},{d})-invariants", ok,
                   f"tau={t.tau} ct={t.ct} st={t.st}")


def _cmd_verify(args) -> int:
    config = _run_config(args)
    failures = 0
    for name, ok, detail in _verify_cases(config, args.full):
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{'all checks passed' if not failures else f'{failures} failed'}")
    return EXIT_OK if not failures else EXIT_ERROR


# -- cache --------------------------------------------------------------------


def _cmd_cache(args) -> int:
    cache = HilbertCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return EXIT_OK
    entries = cache.entries()
    print(f"cache directory: {cache.directory}")
    if not entries:
        print("no entries")
        return EXIT_OK
    for e in entries:
        if e.get("corrupt"):
            print(f"  {e['key'][:16]}  CORRUPT  ({e['size']} bytes)")
        else:
            print(f"  {e['key'][:16]}  n={e['n']} d={e['d']} "
                  f"tau={e['tau']}  ({e['size']} bytes)")
    print(f"{len(entries)} entries")
    return EXIT_OK


# -- entry point --------------------------------------------------------------


def _polynomial_input(p: argparse.ArgumentParser,
                      optional: bool = False) -> None:
    """Polynomial and --num-vars; --n and --d when the polynomial is required."""
    p.add_argument("polynomial", nargs="?" if optional else None,
                   help="polynomial file, inline text, or - for stdin")
    p.add_argument("--num-vars", type=int,
                   help="number of variables (default: inferred)")
    if not optional:
        p.add_argument("--n", type=int, help="expected ambient dimension")
        p.add_argument("--d", type=int, help="expected degree")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The milnor argument parser, built once per process: parse_args
    keeps no state in it, so every main() call can share it."""
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="milnor",
        description="Graded invariants of nodal projective hypersurfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="full pipeline on one polynomial")
    _polynomial_input(p)
    p.add_argument("--no-nodal", action="store_true",
                   help="do not assume nodal singularities; "
                        "skip defect, Alexander, and Betti output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("chebyshev", parents=[common],
                       help="Chebyshev hypersurface grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", required=True, metavar="SPEC",
                   help="degree, range A..B, or comma list")
    p.add_argument("--k", type=int, help="shift override (default canonical)")
    p.add_argument("--even-only", action="store_true",
                   help="keep only even degrees")
    p.set_defaults(func=_cmd_chebyshev)

    p = sub.add_parser("hilbert", parents=[common],
                       help="Hilbert function and thresholds only "
                            "(analyze --no-nodal)")
    _polynomial_input(p)
    p.set_defaults(func=_cmd_analyze, no_nodal=True)

    p = sub.add_parser("defects", parents=[common],
                       help="defect table of a node set")
    _polynomial_input(p, optional=True)
    p.add_argument("--cc", metavar="N,D[,K]",
                   help="use the Chebyshev hypersurface instead")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against node-evaluation ranks "
                        "(--cc only)")
    p.set_defaults(func=_cmd_defects)

    p = sub.add_parser("verify", parents=[common],
                       help="recompute the known-value table")
    p.add_argument("--full", action="store_true",
                   help="include the larger examples (slower)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cache", parents=[common],
                       help="inspect or clear the Hilbert-function cache")
    p.add_argument("action", choices=("inspect", "clear"))
    p.set_defaults(func=_cmd_cache)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as uncertified
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ReportLintError as exc:
        print(f"error: report failed the consistency lint: {exc}",
              file=sys.stderr)
        return EXIT_ERROR
    except ArithmeticError as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
