"""Checks of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q

The per-layer counters must repeat exactly across two traced passes of the
same workload and seed, every declared metric must be reported with its
declared unit, and the random plane curves must be what their generators
promise.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import milnor  # noqa: E402
import run  # noqa: E402
from reference import cc_nodes  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, random_conic_pair, random_lines  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_pass(name: str, seed: int, tmp_path: Path) -> Tracer:
    workload = WORKLOADS[name](seed, str(tmp_path / "work"))
    loop = run.Loop(workload, tmp_path / "work")
    tracer = Tracer()
    loop.run_pass(tracer)
    assert loop.failures == []
    return tracer


@pytest.mark.parametrize("name", ["cli-corpus", "oracle-sweep", "strand-cc44"])
def test_counters_repeat_exactly(name, tmp_path):
    first = _traced_pass(name, 3, tmp_path)
    second = _traced_pass(name, 3, tmp_path)
    assert first.counters == second.counters
    calls = [[s[0] for s in t.spans] for t in (first, second)]
    assert calls[0] == calls[1]
    metrics = layer_metrics(first)
    assert metrics["linalg.blackbox_calls"] == 0


def test_tracer_restores_every_binding(tmp_path):
    before = {m: dict(vars(sys.modules[m])) for m in sys.modules
              if m == "milnor" or m.startswith("milnor.")}
    _traced_pass("cli-corpus", 0, tmp_path)
    after = {m: dict(vars(sys.modules[m])) for m in before}
    assert before == after


def test_declared_metrics_match_the_program():
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    reported = {name: unit for name, unit, _ in PER_LAYER} | {
        "trace.solve_s": "s", "trace.overhead_s": "s",
        "trace.unaccounted_s": "s"}
    assert declared == reported
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    sample = {"items": [(1.0, 1.0)]}
    reported = {name: unit for name, (_, unit)
                in run.end_to_end([1.0], [sample]).items()}
    assert declared == reported


def test_reference_node_counts_match_enumeration():
    from milnor.chebyshev import enumerated_node_count
    for n in range(2, 5):
        for d in range(3, 8):
            for k in range(-n, n + 1):
                assert cc_nodes(n, d, k) == enumerated_node_count(n, d, k)


@pytest.mark.parametrize("seed", range(5))
def test_random_curves_are_nodal_with_closed_form_invariants(seed):
    rng = random.Random(seed)
    lines = random_lines(rng, 5)
    conics = random_conic_pair(rng)
    for factors, tau in ((lines, 10), (conics, 4)):
        polys = [milnor.parse_polynomial(t, num_vars=3) for t in factors]
        f = polys[0]
        for g in polys[1:]:
            f = f * g
        rep = milnor.analyze(f)
        assert rep.thresholds.tau == tau
        assert rep.alexander.exponent == len(factors) - 1
