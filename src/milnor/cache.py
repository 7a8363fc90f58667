"""Content-addressed cache for certified Hilbert functions.

The cache key hashes the canonical polynomial text together with every
value that decides the stored ranks or their certificate: the prime count
and seed of the RankConfig, the route ("oracle" for a Chebyshev spec, whose
strands the node oracle can prove, else "primes"), the linalg constants
EXACT_FALLBACK_COLS, EXACT_VERIFY_COLS and ORACLE_SIDE (which decide proof
and certified), each under its own name, and ENTRY_SCHEMA, so an entry of
another layout or prime schedule is never looked up.  Changing
any of these values gives a different entry.  Entries are small JSON
objects, one file each.  A file is corrupt
unless its dims and rank details are T+2 ints and records, and its ranks
give its dims and every derived value it stores.  load() skips it, or an
entry for another n and d, with a warning, so it is recomputed; entries()
lists it as corrupt.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from typing import Optional

from .hilbert import HilbertFunction, hilbert_function
from .linalg import (EXACT_FALLBACK_COLS, EXACT_VERIFY_COLS, ORACLE_SIDE,
                     RankConfig, RankResult)
from .poly import SparsePolynomial, format_polynomial

CACHE_ENV = "MILNOR_CACHE_DIR"
ENTRY_SCHEMA = 3


def default_cache_dir() -> str:
    return os.environ.get(CACHE_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "milnor")


def cache_key(f: SparsePolynomial, config: RankConfig, chebyshev=None) -> str:
    """The key of f's entry; chebyshev, the spec f was built from, picks
    the oracle route."""
    payload = {
        "polynomial": format_polynomial(f),
        "num_vars": f.num_vars,
        "primes": config.primes,
        "seed": config.seed,
        "route": "primes" if chebyshev is None else "oracle",
        "entry_schema": ENTRY_SCHEMA,
        "exact_fallback_cols": EXACT_FALLBACK_COLS,
        "exact_verify_cols": EXACT_VERIFY_COLS,
        "oracle_side": ORACLE_SIDE,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _read_entry(path: str) -> HilbertFunction:
    """The record at path, rebuilt from its ranks, which must give its dims
    and every value stored beside them; anything else is corrupt."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"entry is a JSON {type(data).__name__}")
    dims, size = data["dims"], (data["n"] + 1) * (data["d"] - 2) + 2
    if not (isinstance(dims, list) and all(type(v) is int for v in dims)
            and len(dims) == len(data["rank_details"]) == size):
        raise ValueError(f"dims and rank_details must be {size} ints and records")
    details = [RankResult(r["rank"], r["primes"], r["ranks"], r["proof"])
               for r in data["rank_details"]]
    hf = HilbertFunction.from_ranks(data["n"], data["d"], details)
    if _entry(hf) != data:
        raise ValueError("stored values are not the ones its ranks give")
    return hf


def _entry(hf: HilbertFunction) -> dict:
    """The JSON object stored for hf; json.dump keeps its key order."""
    return {"schema": ENTRY_SCHEMA, "n": hf.n, "d": hf.d, "dims": list(hf.dims),
            "stable_value": hf.stable_value, "smooth_match": hf.smooth_match,
            "certified": hf.certified,
            "rank_details": [r.to_dict() for r in hf.rank_details]}


class HilbertCache:
    def __init__(self, directory: Optional[str] = None):
        self.directory = directory or default_cache_dir()

    def path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def load(self, key: str, n: int, d: int) -> Optional[HilbertFunction]:
        """The entry under key, if there is one for this n and d."""
        path = self.path(key)
        if not os.path.exists(path):
            return None
        try:
            hf = _read_entry(path)
            if (hf.n, hf.d) != (n, d):
                raise ValueError(f"it is for n={hf.n}, d={hf.d}")
            return hf
        except (OSError, ValueError, KeyError, TypeError) as exc:
            warnings.warn(f"skipping corrupt cache entry {path}: {exc}")
            return None

    def store(self, key: str, hf: HilbertFunction) -> None:
        os.makedirs(self.directory, exist_ok=True)
        tmp = self.path(key) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(_entry(hf), fh)
        os.replace(tmp, self.path(key))

    def entries(self) -> list[dict]:
        if not os.path.isdir(self.directory):
            return []
        out = []
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            row = {"key": name[:-5], "size": os.path.getsize(path)}
            try:
                hf = _read_entry(path)
                row.update(n=hf.n, d=hf.d, tau=hf.stable_value)
            except (OSError, ValueError, KeyError, TypeError):
                row["corrupt"] = True
            out.append(row)
        return out

    def clear(self) -> int:
        if not os.path.isdir(self.directory):
            return 0
        removed = 0
        for name in os.listdir(self.directory):
            if name.endswith(".json") or name.endswith(".tmp"):
                os.remove(os.path.join(self.directory, name))
                removed += 1
        return removed


def cached_hilbert_function(f: SparsePolynomial, config: RankConfig,
                            cache: HilbertCache, jobs: int = 1,
                            chebyshev=None) -> HilbertFunction:
    """hilbert_function with a read-through cache keyed on input, seed and route."""
    key = cache_key(f, config, chebyshev)
    hf = cache.load(key, f.num_vars - 1, f.degree)
    if hf is None:
        hf = hilbert_function(f, config=config, jobs=jobs, chebyshev=chebyshev)
        cache.store(key, hf)
    return hf
