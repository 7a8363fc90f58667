"""Every entry point the benchmark tracer wraps still exists in milnor,
and every field its counters read is still there.

perfbench/tracing.py names its targets as (module, attribute) strings and
reads fields such as StrandMatrix.k and RankResult.method off arguments
and results.  Its own tests run outside this suite, so a rename or deletion
here would otherwise go unnoticed until the benchmark broke.
"""

import importlib
import importlib.util
from pathlib import Path

from conftest import KUMMER_TEXT
from milnor.poly import parse_polynomial
from milnor.report import RunConfig, analyze

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _specs():
    return _tracing().SPECS


def test_traced_names_resolve():
    specs = _specs()
    assert specs
    for defmod, attr, _name, _count, only in specs:
        owner = importlib.import_module(defmod)
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = vars(getattr(owner, cls_name)).get(meth)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{defmod}.{attr} does not resolve"
        if only is not None:
            importlib.import_module(only)


def test_traced_analyze_reads_live_fields():
    # the counters run inside the wrappers, so a field they read that is
    # gone raises out of analyze
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        analyze(parse_polynomial(KUMMER_TEXT, num_vars=4), config=RunConfig(seed=0))
    finally:
        tracer.uninstall()
    assert not [key for key in tracer.counters if key.endswith(".raised")]
    assert tracer.counters["linalg.strand_nnz"] > 0
    assert tracer.counters["linalg.exact_verified"] > 0
