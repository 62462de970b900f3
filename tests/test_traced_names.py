"""Every binding the benchmark's tracer wraps must exist in ``cactor``.

``bench/tracer.py`` installs its wrappers on every benchmark run (the
untraced runs trace one reference cycle), so a traced name that the package
no longer defines fails every run.  This reads the ``TRACED`` tuple without
installing anything, so removing such a name fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.TRACED


PACKAGE, TRACED = traced()


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    if "." in attr:  # a method, which the tracer takes from the class's own dict
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name)), f"{module}.{attr}"
    else:
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
