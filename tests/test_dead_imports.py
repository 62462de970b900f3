"""No module under ``src/cactor/`` imports a name it never uses.

A name counts as used when it appears as a ``Name`` node anywhere in its
module, annotations included; ``__future__`` imports are skipped, and so is
``__init__.py``, which re-exports the package's API.  An import marked
``# noqa: F401`` is exempt only when it binds a name that the benchmark's
tracer wraps in that module (``TRACED`` in ``bench/tracer.py``): the tracer
looks for such bindings there.  Deleting the last caller of an import fails
here, so the import goes with it.
"""

import ast
from pathlib import Path

import pytest

from test_traced_names import TRACED

SRC = Path(__file__).resolve().parents[1] / "src" / "cactor"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def dead_imports(source: str, traced) -> list[str]:
    """'line: name' of each import in ``source`` that is never used and not
    exempt; ``traced`` holds the (module, name) pairs a noqa mark may name."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    dead = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        module = node.module if isinstance(node, ast.ImportFrom) else None
        if module == "__future__":
            continue
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound in used:
                continue
            if noqa and node.level == 1 and (module, alias.name) in traced and not alias.asname:
                continue
            dead.append(f"{node.lineno}: {bound}")
    return dead


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_what_it_uses(path):
    assert dead_imports(path.read_text(), set(TRACED)) == [], path.name


def test_the_check_flags_unused_imports_and_untraced_noqa_marks():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import numpy as np",
        "from .core import (check_config,",
        "                   td_target)",
        "from .stochastic import batch_arrays  # noqa: F401",
        "from .stochastic import gather  # noqa: F401",
        "from .sim import rollout as roll  # noqa: F401",
        "x: np.ndarray = check_config",
    ])
    traced = {("stochastic", "batch_arrays"), ("sim", "rollout")}
    assert dead_imports(source, traced) == ["2: os", "4: td_target", "7: gather", "8: roll"]
