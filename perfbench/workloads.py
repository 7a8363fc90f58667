"""The benchmark's workloads: inputs built from a seed, and checked items.

Every workload is a closed loop in one process: one item at a time, each
started after the previous one returned.  A workload object is built once
(that is set-up); ``items(pass_dir)`` lists one pass as ``(name, call)``
pairs, where ``call()`` runs the item and returns None when every output
matches its reference, or a message saying what differs.

Why these workloads:

* ``strand-cc44``: ``analyze`` on CC(4,4) through the Python API, no cache.
  Its largest strand (k=11, 1365x2475) goes through Markowitz elimination
  and the dense escape, which with the dense kernel make up nearly all of
  the time; the oracle is never touched.  CC(4,5) has the same mechanism
  but one pass takes 40-50 s, too long to repeat within a run.
* ``oracle-sweep``: ``defect_direct`` for every degree 0..T on CC(2,5) and
  CC(3,6), plus ``injectivity_threshold`` for both.  Exact cyclotomic
  elimination dominates and no Jacobian strand is built, so strand
  changes must leave it unchanged.
* ``cli-corpus``: small inputs through ``milnor.cli.main`` with a fresh
  cache and output directory per pass; each input runs as ``--format json``
  (cache miss, compute and store) and then ``--format text`` (cache hit).
  It is the only workload that exercises the CLI, rendering and the cache.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from functools import reduce
from itertools import combinations

import milnor
import milnor.cli

from reference import (CC44_DIMS, FERMAT, KUMMER, KUMMER_VALUES,
                       ORACLE_DEFECTS, cc_nodes, nodal_plane_alexander,
                       st_closed_form)


def _diff(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _first(*messages) -> str | None:
    return next((m for m in messages if m), None)


# -- strand-cc44 ----------------------------------------------------------------


class StrandCC44:
    name = "strand-cc44"

    def __init__(self, seed: int, workdir: str):
        self.spec = milnor.canonical_spec(4, 4)
        self.config = milnor.RunConfig(seed=seed)

    def items(self, pass_dir: str):
        return [("analyze-CC(4,4)", self._analyze)]

    def _analyze(self):
        rep = milnor.analyze(chebyshev=self.spec, config=self.config)
        t = rep.thresholds
        return _first(
            _diff("dims", rep.hilbert.dims, CC44_DIMS),
            _diff("tau", t.tau, cc_nodes(4, 4)),
            _diff("st", t.st, st_closed_form(4, 4)),
            _diff("certified", rep.certified, True),
            _diff("failed checks", [c.name for c in rep.checks
                                    if c.status == "fail"], []),
            _diff("conjecture conflicts", [v.name for v in rep.conjectures
                                           if not v.agree], []),
        )


# -- oracle-sweep ---------------------------------------------------------------


class OracleSweep:
    name = "oracle-sweep"
    CURVES = ((2, 5), (3, 6))

    def __init__(self, seed: int, workdir: str):
        self.config = milnor.OracleConfig(seed=seed)

    def items(self, pass_dir: str):
        out = []
        for n, d in self.CURVES:
            for k, want in enumerate(ORACLE_DEFECTS[n, d]):
                out.append((f"defect-CC({n},{d})-S_{k}",
                            self._defect(n, d, k, want)))
            out.append((f"injectivity-CC({n},{d})", self._injectivity(n, d)))
        return out

    def _defect(self, n, d, k, want):
        def call():
            got = milnor.defect_direct(n, d, k, config=self.config)
            return _diff("defect", got, want)
        return call

    def _injectivity(self, n, d):
        def call():
            res = milnor.injectivity_threshold(n, d, config=self.config)
            return _first(
                _diff("r*", res.r_star, d - 3),
                _diff("witness degree", res.witness_degree, d - 2),
                _diff("witness in kernel", res.witness_in_kernel, True),
                _diff("certified", res.certified, True),
            )
        return call


# -- cli-corpus -----------------------------------------------------------------


def _linear_text(coeffs) -> str:
    terms = [f"{c}*x{i}" for i, c in enumerate(coeffs) if c]
    return " + ".join(terms).replace("+ -", "- ")


def _det3(m) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _adj3(m):
    return [[(m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
              - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3])
             for j in range(3)] for i in range(3)]


def _trace_prod(a, b) -> int:
    return sum(a[i][j] * b[j][i] for i in range(3) for j in range(3))


def random_lines(rng: random.Random, count: int) -> list[str]:
    """count lines in general position: no two equal, no three concurrent."""
    while True:
        lines = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(count)]
        if any(not any(v) for v in lines):
            continue
        pairs_ok = all(any(a[i] * b[j] != a[j] * b[i]
                           for i, j in ((0, 1), (0, 2), (1, 2)))
                       for a, b in combinations(lines, 2))
        if pairs_ok and all(_det3(t) for t in combinations(lines, 3)):
            return [_linear_text(v) for v in lines]


def random_conic_pair(rng: random.Random) -> list[str]:
    """Two smooth conics meeting transversally in four points.

    Both Gram matrices are invertible, and the pencil det(A + tB) has three
    distinct roots, which holds exactly when the base locus is four
    distinct points.
    """
    while True:
        a, b = ([[0] * 3 for _ in range(3)] for _ in range(2))
        for m in (a, b):
            for i in range(3):
                for j in range(i, 3):
                    m[i][j] = m[j][i] = rng.randint(-3, 3)
        c3, c0 = _det3(b), _det3(a)
        c2, c1 = _trace_prod(_adj3(b), a), _trace_prod(_adj3(a), b)
        disc = (18 * c3 * c2 * c1 * c0 - 4 * c2 ** 3 * c0 + c2 ** 2 * c1 ** 2
                - 4 * c3 * c1 ** 3 - 27 * c3 ** 2 * c0 ** 2)
        if c3 and c0 and disc:
            return [_quadric_text(a), _quadric_text(b)]


def _quadric_text(m) -> str:
    terms = []
    for i in range(3):
        for j in range(i, 3):
            c = m[i][j] * (1 if i == j else 2)
            if c:
                terms.append(f"{c}*x{i}^2" if i == j else f"{c}*x{i}*x{j}")
    return " + ".join(terms).replace("+ -", "- ")


def _product_text(factors: list[str]) -> str:
    polys = [milnor.parse_polynomial(t, num_vars=3) for t in factors]
    return milnor.format_polynomial(reduce(lambda a, b: a * b, polys))


_CONICS = ["x0^2 + x1^2 - x2^2", "x0^2 + 4*x1^2 - 2*x2^2"]


class CLICorpus:
    name = "cli-corpus"
    # the `milnor verify` table, without CC(4,4) (strand-cc44 covers it)
    CC = ((2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
          (3, 3), (3, 4), (3, 5), (4, 3))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = random.Random(seed)
        plane = [
            ("triangle", ["x0", "x1", "x2"]),
            ("four-lines", ["x0", "x1", "x0 + x1 + x2", "x0 + 2*x1 - x2"]),
            ("conic-pair", _CONICS),
            ("conic-pair-plus-line", _CONICS + ["x0 + 3*x1 + x2"]),
        ]
        # the seed draws coefficients only, so every seed does the same work
        plane += [(f"random-lines-{count}", random_lines(rng, count))
                  for count in (5, 6)]
        plane += [(f"random-conics-{i}", random_conic_pair(rng))
                  for i in range(2)]
        # (file stem, polynomial text, number of variables, expectations)
        inputs = [
            ("kummer", KUMMER, 4, dict(KUMMER_VALUES)),
            ("fermat", FERMAT, 4, {"smooth": True, "alexander": "1"}),
            ("nodal-cubic", "x1^2*x2 - x0^3 - x0^2*x2", 3,
             {"tau": 1, "alexander": "1"}),
        ]
        for stem, factors in plane:
            degrees = [milnor.parse_polynomial(t, num_vars=3).degree
                       for t in factors]
            # pairwise transversal intersections: sum of deg_i * deg_j nodes
            tau = sum(a * b for a, b in combinations(degrees, 2))
            inputs.append((stem, _product_text(factors), 3,
                           {"tau": tau,
                            "alexander": nodal_plane_alexander(len(factors))}))
        input_dir = os.path.join(workdir, "inputs")
        os.makedirs(input_dir, exist_ok=True)
        self.cases = []
        for stem, text, num_vars, want in inputs:
            path = os.path.join(input_dir, stem + ".txt")
            with open(path, "w") as fh:
                fh.write(text + "\n")
            self.cases.append((stem, ["analyze", path, "--num-vars",
                                      str(num_vars)], stem, want))
        for n, d in self.CC:
            self.cases.append((f"CC({n},{d})", ["chebyshev", "--n", str(n),
                                                "--d", str(d)],
                               f"CC_{n}_{d}",
                               {"tau": cc_nodes(n, d),
                                "st": st_closed_form(n, d)}))
        self.cases.append(("C(3,4,-1)", ["chebyshev", "--n", "3", "--d", "4",
                                         "--k", "-1"], "C_3_4_-1",
                           {"tau": cc_nodes(3, 4, -1), "alexander": "1"}))

    def items(self, pass_dir: str):
        out = []
        for stem, argv, out_stem, want in self.cases:
            out.append((f"{stem}-json", self._json_item(argv, out_stem, want,
                                                        pass_dir)))
            out.append((f"{stem}-text", self._text_item(argv, out_stem,
                                                        pass_dir)))
        return out

    def _run(self, argv, pass_dir, fmt) -> str | None:
        full = argv + ["--seed", str(self.seed), "--format", fmt,
                       "--cache-dir", os.path.join(pass_dir, "cache"),
                       "--out", os.path.join(pass_dir, "out")]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = milnor.cli.main(full)
        return None if code == 0 else f"exit code {code}: {sink.getvalue()!r}"

    def _json_item(self, argv, out_stem, want, pass_dir):
        def call():
            error = self._run(argv, pass_dir, "json")
            if error:
                return error
            with open(os.path.join(pass_dir, "out", out_stem + ".json")) as fh:
                return _check_report(json.load(fh), want)
        return call

    def _text_item(self, argv, out_stem, pass_dir):
        def call():
            error = self._run(argv, pass_dir, "text")
            if error:
                return error
            with open(os.path.join(pass_dir, "out", out_stem + ".json")) as fh:
                rep = json.load(fh)
            with open(os.path.join(pass_dir, "out", out_stem + ".txt")) as fh:
                text = fh.read()
            return _check_text(text, rep)
        return call


def _check_report(rep: dict, want: dict) -> str | None:
    t = rep["thresholds"]
    got = {
        "tau": t["tau"], "ct": t["ct"], "st": t["st"], "mdr": t["mdr"],
        "smooth": t["smooth"],
        "alexander": rep["alexander"]["text"] if rep["alexander"] else None,
        "betti": rep["betti"]["value"] if rep["betti"] else None,
        "S_2": dict(rep["defects"] or []).get(2, 0),
    }
    messages = [_diff(key, got[key], value) for key, value in want.items()]
    messages.append(_diff("conjecture conflicts", [v["name"] for v in
                                                   rep["conjectures"]
                                                   if not v["agree"]], []))
    messages.append(_diff("failed checks", [c["name"] for c in rep["checks"]
                                            if c["status"] == "fail"], []))
    messages.append(_diff("certified", rep["certification"]["certified"], True))
    return _first(*messages)


def _check_text(text: str, rep: dict) -> str | None:
    """The cached text rendering says what the computed JSON report says."""
    t = rep["thresholds"]
    lines = [f"n = {rep['n']}, d = {rep['d']}, T = {t['T']}",
             "certified: True"]
    if t["smooth"]:
        lines.append("smooth hypersurface: thresholds coincide everywhere")
    else:
        lines.append(f"tau = {t['tau']}, ct = {t['ct']}, st = {t['st']}, "
                     f"mdr = {t['mdr']}")
    if rep["alexander"]:
        lines.append(f"alexander polynomial: {rep['alexander']['text']}")
    missing = [line for line in lines if line not in text.splitlines()]
    return _diff("text lines missing", missing, [])


WORKLOADS = {w.name: w for w in (StrandCC44, OracleSweep, CLICorpus)}
