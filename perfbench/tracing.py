"""Out-of-program tracing: spans and counters around milnor's entry points.

The tracer replaces each instrumented function with a wrapper in every
milnor module that looks the function up by name (``hilbert`` imports
``certified_rank`` by name, ``nodes`` imports ``rank_dense_modp``, ...),
so calls are seen whichever module makes them.  Spans are kept in memory
as ``[name, start_ns, end_ns, parent]`` and written out when the run ends.
Nothing under ``src/milnor`` changes.

A span's self time is its duration minus the durations of its direct
children; calls never overlap because the workloads run in one thread.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from functools import wraps

from milnor.linalg import RankConfig

# -- counters read from arguments and results -------------------------------


def _strand(c, args, kwargs, m):
    c["linalg.strand_nnz"] += m.nnz
    c["linalg.strand_cells"] += m.num_rows * m.num_cols


def _certified(c, args, kwargs, res):
    matrix = args[0]
    config = (args[1] if len(args) > 1 else kwargs.get("config")) or RankConfig()
    c[f"linalg.engine.{res.method}"] += 1
    c[f"linalg.engine.{res.method}.k{matrix.k}"] += 1
    c["linalg.escalations"] += len(res.primes) > config.primes
    c["linalg.exact_verified"] += res.exact_verified


def _escape(c, args, kwargs, rank):
    rows, alive_cols = args[0], args[1]
    c["linalg.dense_escape_cells"] += sum(1 for r in rows if r) * len(alive_cols)


def _matmul(c, args, kwargs, out):
    a, b = args[0], args[1]
    # matmul_modp splits both factors into 16-bit halves: 4 float64 products
    c["linalg.dense_flops"] += 4 * 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _primes(counter):
    def count(c, args, kwargs, primes):
        c[counter] += len(primes)
    return count


def _eval_cells(c, args, kwargs, arr):
    c["nodes.eval_cells"] += arr.size


def _hilbert(c, args, kwargs, hf):
    c["hilbert.degrees"] += len(hf.dims)


def _cache_load(c, args, kwargs, hf):
    c["cache.hits" if hf is not None else "cache.misses"] += 1


def _render(c, args, kwargs, text):
    c["report.bytes"] += len(text.encode())


# (defining module, attribute, span name, counter, only this binding module)
# Entries naming one binding come first: they give that importer's calls
# their own span (rank_dense_modp called from nodes is the oracle's
# modular rank, not the strand engine).
SPECS = [
    ("milnor.linalg", "rank_dense_modp", "nodes.modular_rank", None, "milnor.nodes"),
    ("milnor.linalg", "rank_gaussian_field", "nodes.exact_rank", None, "milnor.nodes"),
    ("milnor.domains", "draw_distinct_primes", "domains.primes",
     _primes("nodes.primes_drawn"), "milnor.nodes"),
    ("milnor.domains", "draw_distinct_primes", "domains.primes",
     _primes("linalg.primes_drawn"), "milnor.linalg"),
    ("milnor.chebyshev", "build", "poly.build", None, None),
    ("milnor.poly", "parse_polynomial", "poly.build", None, None),
    ("milnor.poly", "partial_derivatives", "poly.build", None, None),
    ("milnor.linalg", "jacobian_strand_matrix", "linalg.strand", _strand, None),
    ("milnor.linalg", "certified_rank", "linalg.certified_rank", _certified, None),
    ("milnor.linalg", "rank_mod_p", "linalg.rank_mod_p", None, None),
    ("milnor.linalg", "rank_sparse_modp", "linalg.sparse", None, None),
    ("milnor.linalg", "_dense_escape", "linalg.dense_escape", _escape, None),
    ("milnor.linalg", "rank_dense_modp", "linalg.dense", None, None),
    ("milnor.linalg", "matmul_modp", "linalg.matmul", _matmul, None),
    ("milnor.linalg", "rank_blackbox_modp", "linalg.blackbox", None, None),
    ("milnor.linalg", "rank_exact", "linalg.exact", None, None),
    ("milnor.hilbert", "hilbert_function", "hilbert.hilbert_function", _hilbert, None),
    ("milnor.hilbert", "thresholds", "hilbert.thresholds", None, None),
    ("milnor.nodes", "defect_direct", "nodes.defect_direct", None, None),
    ("milnor.nodes", "injectivity_threshold", "nodes.injectivity", None, None),
    ("milnor.nodes", "enumerate_nodes", "nodes.enumerate", None, None),
    ("milnor.nodes", "_evaluation_rank", "nodes.evaluation_rank", None, None),
    ("milnor.nodes", "EvaluationMatrix.rows_modp", "nodes.rows_modp", _eval_cells, None),
    ("milnor.nodes", "EvaluationMatrix.rows_exact", "nodes.rows_exact", None, None),
    ("milnor.topology", "defect_table", "topology", None, None),
    ("milnor.topology", "alexander_polynomial", "topology", None, None),
    ("milnor.topology", "betti_numbers", "topology", None, None),
    ("milnor.topology", "check_theorem_bounds", "topology", None, None),
    ("milnor.report", "analyze", "report.analyze", None, None),
    ("milnor.report", "HypersurfaceReport.render", "report.render", _render, None),
    ("milnor.cache", "cached_hilbert_function", "cache.cached_hilbert_function", None, None),
    ("milnor.cache", "HilbertCache.load", "cache.load", _cache_load, None),
    ("milnor.cache", "HilbertCache.store", "cache.store", None, None),
    ("milnor.cli", "main", "cli.main", None, None),
]


class Tracer:
    """Records spans and counters between install() and uninstall()."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[name + ".raised"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for defmod, *_ in SPECS:
            importlib.import_module(defmod)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "milnor" or key.startswith("milnor.")]
        for defmod, attr, name, count, only in SPECS:
            owner = sys.modules[defmod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(vars(cls)[meth], name, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, count)
            for mod in modules:
                if only is not None and mod.__name__ != only:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- summaries ---------------------------------------------------------

    def times(self) -> tuple[dict, dict, float]:
        """(total seconds per span name, self seconds per span name, covered).

        covered is the time spent inside any root span, which equals the
        sum of all self times.
        """
        child = [0] * len(self.spans)
        total: Counter = Counter()
        self_t: Counter = Counter()
        covered = 0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        for (name, start, end, parent), inner in zip(self.spans, child):
            total[name] += end - start
            self_t[name] += end - start - inner
        scale = 1e-9
        return ({k: v * scale for k, v in total.items()},
                {k: v * scale for k, v in self_t.items()},
                covered * scale)

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start and end in ns, parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


# -- per-layer metrics -------------------------------------------------------

LAYERS = ("poly", "linalg", "hilbert", "nodes", "domains", "topology",
          "report", "cache", "cli")

# (metric, unit, how): how is ("total"|"self"|"calls", span names)
# or ("counter", key).  Times are seconds in one traced pass.
PER_LAYER = [
    ("linalg.sparse_s", "s", ("total", "linalg.sparse")),
    ("linalg.sparse_self_s", "s", ("self", "linalg.sparse")),
    ("linalg.sparse_calls", "count", ("calls", "linalg.sparse")),
    ("linalg.dense_escape_s", "s", ("total", "linalg.dense_escape")),
    ("linalg.dense_escape_calls", "count", ("calls", "linalg.dense_escape")),
    ("linalg.dense_escape_cells", "count", ("counter", "linalg.dense_escape_cells")),
    ("linalg.dense_s", "s", ("total", "linalg.dense")),
    ("linalg.dense_calls", "count", ("calls", "linalg.dense")),
    ("linalg.matmul_s", "s", ("total", "linalg.matmul")),
    ("linalg.matmul_calls", "count", ("calls", "linalg.matmul")),
    ("linalg.dense_flops", "flop_computed", ("counter", "linalg.dense_flops")),
    ("linalg.strand_s", "s", ("total", "linalg.strand")),
    ("linalg.strand_calls", "count", ("calls", "linalg.strand")),
    ("linalg.strand_nnz", "count", ("counter", "linalg.strand_nnz")),
    ("linalg.strand_cells", "count", ("counter", "linalg.strand_cells")),
    ("linalg.certified_rank_s", "s", ("total", "linalg.certified_rank")),
    ("linalg.rank_mod_p_s", "s", ("total", "linalg.rank_mod_p")),
    ("linalg.primes_drawn", "count", ("counter", "linalg.primes_drawn")),
    ("linalg.badprime_retries", "count", ("counter", "linalg.rank_mod_p.raised")),
    ("linalg.escalations", "count", ("counter", "linalg.escalations")),
    ("linalg.exact_verified", "count", ("counter", "linalg.exact_verified")),
    ("linalg.engine_sparse", "count", ("counter", "linalg.engine.sparse-elimination")),
    ("linalg.engine_exact", "count", ("counter", "linalg.engine.dense-fraction-free")),
    ("linalg.engine_blackbox", "count", ("counter", "linalg.engine.blackbox-iterative")),
    ("linalg.exact_s", "s", ("total", "linalg.exact")),
    ("linalg.exact_calls", "count", ("calls", "linalg.exact")),
    ("linalg.blackbox_s", "s", ("total", "linalg.blackbox")),
    ("linalg.blackbox_calls", "count", ("calls", "linalg.blackbox")),
    ("hilbert.hilbert_function_s", "s", ("total", "hilbert.hilbert_function")),
    ("hilbert.degrees", "count", ("counter", "hilbert.degrees")),
    ("nodes.exact_rank_s", "s", ("total", "nodes.exact_rank")),
    ("nodes.exact_calls", "count", ("calls", "nodes.exact_rank")),
    ("nodes.rows_exact_s", "s", ("total", "nodes.rows_exact")),
    ("nodes.rows_modp_s", "s", ("total", "nodes.rows_modp")),
    ("nodes.modular_rank_s", "s", ("total", "nodes.modular_rank")),
    ("nodes.primes_drawn", "count", ("counter", "nodes.primes_drawn")),
    ("nodes.eval_cells", "count", ("counter", "nodes.eval_cells")),
    ("poly.build_s", "s", ("total", "poly.build")),
    ("topology.s", "s", ("total", "topology")),
    ("report.analyze_self_s", "s", ("self", "report.analyze")),
    ("report.render_s", "s", ("total", "report.render")),
    ("report.bytes", "count", ("counter", "report.bytes")),
    ("cache.load_s", "s", ("total", "cache.load")),
    ("cache.store_s", "s", ("total", "cache.store")),
    ("cache.hits", "count", ("counter", "cache.hits")),
    ("cache.misses", "count", ("counter", "cache.misses")),
    ("cli.main_self_s", "s", ("self", "cli.main")),
] + [(f"self.{layer}_s", "s", ("layer", layer)) for layer in LAYERS]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric, read off the tracer's spans and counters."""
    total, self_t, _ = tracer.times()
    calls = Counter(span[0] for span in tracer.spans)
    out = {}
    for metric, _, (how, key) in PER_LAYER:
        if how == "total":
            out[metric] = total.get(key, 0.0)
        elif how == "self":
            out[metric] = self_t.get(key, 0.0)
        elif how == "calls":
            out[metric] = calls[key]
        elif how == "layer":
            out[metric] = sum(v for k, v in self_t.items()
                              if k.split(".")[0] == key)
        else:
            out[metric] = tracer.counters[key]
    return out
