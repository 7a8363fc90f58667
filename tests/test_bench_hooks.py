"""Every entry point the benchmark tracer wraps still exists in milnor.

perfbench/tracing.py names its targets as (module, attribute) strings and
its own tests run outside this suite, so a rename or deletion here would
otherwise go unnoticed until the benchmark broke.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _specs():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPECS


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
