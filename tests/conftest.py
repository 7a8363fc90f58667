"""Shared fixtures: memoized full-pipeline runs, reused across test modules."""

import pytest

from milnor import hilbert
from milnor.chebyshev import ChebyshevSpec, canonical_spec
from milnor.poly import parse_polynomial
from milnor.report import RunConfig, analyze

KUMMER_TEXT = (
    "x0^4 + x1^4 + x2^4 + x3^4"
    " - x0^2*x1^2 - x0^2*x2^2 - x0^2*x3^2"
    " - x1^2*x2^2 - x1^2*x3^2 - x2^2*x3^2"
)

FERMAT_TEXT = "x0^4 + x1^4 + x2^4 + x3^4"


class PipelineCache:
    """One analyze() per hypersurface per test session."""

    def __init__(self):
        self._reports = {}

    def store_cc(self, n, d, report, k=None):
        """Keep a report of CC(n,d) that a test computed for itself, so
        later tests reuse it instead of running analyze() again."""
        self._reports[("cc", n, d, k)] = report

    def cc(self, n, d, k=None):
        key = ("cc", n, d, k)
        if key not in self._reports:
            spec = canonical_spec(n, d) if k is None else ChebyshevSpec(n, d, k)
            self._reports[key] = analyze(chebyshev=spec,
                                         config=RunConfig(seed=0))
        return self._reports[key]

    def poly(self, name, text, num_vars=None):
        key = ("poly", name)
        if key not in self._reports:
            f = parse_polynomial(text, num_vars=num_vars)
            self._reports[key] = analyze(f, source=name,
                                         config=RunConfig(seed=0))
        return self._reports[key]


@pytest.fixture(scope="session")
def pipeline():
    return PipelineCache()


@pytest.fixture(scope="session")
def kummer(pipeline):
    return pipeline.poly("kummer", KUMMER_TEXT, num_vars=4)


@pytest.fixture(scope="session")
def fermat(pipeline):
    return pipeline.poly("fermat", FERMAT_TEXT, num_vars=4)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the process pool of hilbert.parallel_map for a serial stand-in.

    Returns the list of max_workers each pool was asked for; no process is
    started, whatever --jobs says.
    """
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(hilbert, "ProcessPoolExecutor", SerialPool)
    return sizes
