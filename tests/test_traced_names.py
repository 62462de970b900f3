"""Every name the benchmark uses must exist in ``cactor``.

``bench/tracer.py`` installs its wrappers on every benchmark run (the
untraced runs trace one reference cycle), so a traced name that the package
no longer defines fails every run.  This reads the ``TRACED`` tuple without
installing anything, so removing such a name fails here first.  The same
holds for each ``cactor`` attribute that ``bench/workloads.py`` reads, which
only a benchmark run would otherwise reach.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import cactor

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def workload_names() -> list[str]:
    """Each attribute ``bench/workloads.py`` reads from the ``cactor`` module
    it imports (``import cactor as C``, so ``C.<name>``), sorted."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "cactor"}
    return sorted({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id in aliases})


WORKLOAD_NAMES = workload_names()


def test_workloads_read_cactor():
    assert WORKLOAD_NAMES, "bench/workloads.py reads no cactor name"


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_name_resolves(name):
    assert hasattr(cactor, name), f"cactor.{name}"
