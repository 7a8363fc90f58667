"""Content-addressed cache for certified Hilbert functions.

The cache key hashes the canonical polynomial text together with every
value that decides the stored ranks or their certificate: the prime count
and seed of the RankConfig, and the linalg constants EXACT_FALLBACK_COLS
and EXACT_VERIFY_COLS (which decide method, exact_verified and certified),
each under its own name.  Changing any of these values gives a different
entry.  Entries are small JSON objects, one file each; a file that does not
hold one is corrupt.  load() skips it with a warning, so it is recomputed,
and entries() lists it as corrupt.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, fields
from typing import Optional

from .hilbert import HilbertFunction, hilbert_function
from .linalg import (EXACT_FALLBACK_COLS, EXACT_VERIFY_COLS, RankConfig,
                     RankResult)
from .poly import SparsePolynomial, format_polynomial

CACHE_ENV = "MILNOR_CACHE_DIR"
ENTRY_SCHEMA = 1


def default_cache_dir() -> str:
    return os.environ.get(CACHE_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "milnor")


def cache_key(f: SparsePolynomial, config: RankConfig) -> str:
    payload = {
        "polynomial": format_polynomial(f),
        "num_vars": f.num_vars,
        "primes": config.primes,
        "seed": config.seed,
        "exact_fallback_cols": EXACT_FALLBACK_COLS,
        "exact_verify_cols": EXACT_VERIFY_COLS,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _read_entry(path: str) -> dict:
    """The JSON object stored at path; anything else is corrupt."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"entry is a JSON {type(data).__name__}")
    return data


class HilbertCache:
    def __init__(self, directory: Optional[str] = None):
        self.directory = directory or default_cache_dir()

    def path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def load(self, key: str) -> Optional[HilbertFunction]:
        path = self.path(key)
        if not os.path.exists(path):
            return None
        try:
            data = _read_entry(path)
            if data["schema"] != ENTRY_SCHEMA:
                raise ValueError(f"schema {data['schema']}")
            # every field is required: a missing "certified" must not
            # fall back to its default of True
            names = [f.name for f in fields(RankResult)]
            details = [RankResult(**{name: r[name] for name in names})
                       for r in data["rank_details"]]
            return HilbertFunction(dims=list(data["dims"]),
                                   n=data["n"], d=data["d"],
                                   stable_value=data["stable_value"],
                                   smooth_match=data["smooth_match"],
                                   certified=data["certified"],
                                   rank_details=details)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            warnings.warn(f"skipping corrupt cache entry {path}: {exc}")
            return None

    def store(self, key: str, hf: HilbertFunction) -> None:
        os.makedirs(self.directory, exist_ok=True)
        data = {
            "schema": ENTRY_SCHEMA,
            "n": hf.n,
            "d": hf.d,
            "dims": list(hf.dims),
            "stable_value": hf.stable_value,
            "smooth_match": hf.smooth_match,
            "certified": hf.certified,
            "rank_details": [asdict(r) for r in hf.rank_details],
        }
        tmp = self.path(key) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(data, fh)
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
                data = _read_entry(path)
                row["n"] = data.get("n")
                row["d"] = data.get("d")
                row["tau"] = data.get("stable_value")
            except (OSError, ValueError):
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
                            cache: HilbertCache,
                            jobs: int = 1) -> HilbertFunction:
    """hilbert_function with a read-through cache keyed on input and seed."""
    key = cache_key(f, config)
    hf = cache.load(key)
    if hf is None:
        hf = hilbert_function(f, config=config, jobs=jobs)
        cache.store(key, hf)
    return hf
