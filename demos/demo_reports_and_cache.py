"""
Reproducible reports and the Hilbert function cache
===================================================

A report renders to JSON (schema 1, sorted keys), CSV, or plain text; with
a fixed seed the JSON is byte-identical across runs.  Hilbert functions are
the expensive part, so they can be cached on disk keyed by the polynomial
and the rank configuration.  The same pipeline drives the command line:

    milnor defects --cc 3,4 --format text
    milnor chebyshev --n 2 --d 3..6 --out reports/
    milnor verify

Run:  python3 demos/demo_reports_and_cache.py
"""

import tempfile
import time

from milnor import HilbertCache, RunConfig, analyze, canonical_spec, parse_polynomial
from milnor.cache import cached_hilbert_function

config = RunConfig(seed=0)
rep = analyze(chebyshev=canonical_spec(3, 4), config=config)

# Three renderings of the same analysis.
print("text rendering:")
print(rep.to_text())
print("csv rendering (Hilbert function rows):")
print(rep.to_csv())

# Byte-identical JSON under a fixed seed.
again = analyze(chebyshev=canonical_spec(3, 4), config=config)
print(f"JSON byte-identical across runs: {rep.to_json() == again.to_json()}")
print()

# The disk cache: first call computes, the second is a pure read.
f = parse_polynomial(
    "x0^4 + x1^4 + x2^4 + x3^4"
    " - x0^2*x1^2 - x0^2*x2^2 - x0^2*x3^2"
    " - x1^2*x2^2 - x1^2*x3^2 - x2^2*x3^2",
    num_vars=4,
)
with tempfile.TemporaryDirectory() as tmp:
    cache = HilbertCache(tmp)
    t0 = time.time()
    cached_hilbert_function(f, config, cache)
    cold = time.time() - t0
    t0 = time.time()
    hf = cached_hilbert_function(f, config, cache)
    warm = time.time() - t0
    print(f"cold run {cold * 1000:7.1f} ms")
    print(f"warm run {warm * 1000:7.1f} ms (tau = {hf.stable_value},"
          f" certified = {hf.certified})")
    for entry in cache.entries():
        print(f"cache entry: n={entry['n']} d={entry['d']} tau={entry['tau']}"
              f" key={entry['key'][:12]}...")
