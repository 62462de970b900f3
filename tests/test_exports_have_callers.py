"""Every name that ``cactor/__init__.py`` exports has a use outside ``tests/``.

Uses count in ``src/`` (``__init__.py`` aside, which only re-exports),
``bench/`` (its own tests aside) and ``tools/``.  A use is a ``Name`` node,
an attribute read (``C.train_two_stage``) or a ``from ... import`` of the
name, found with ``ast``, so a docstring or comment that mentions a name is
not a use; a function's own definition is not either.  A name the benchmark's
tracer wraps (``TRACED`` in ``bench/tracer.py``) counts as used.

``EXPECTED_UNUSED`` lists the names whose callers are still to come: the
offline baselines, which the offline comparison table of the paper's
reproduction will call.  A listed name that gains a use fails too, so the
list only shrinks.
"""

import ast
from pathlib import Path

from test_traced_names import TRACED

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "cactor" / "__init__.py"
EXPECTED_UNUSED = {"train_ddpg_weighted", "train_rcpo", "train_behavior_clone"}


def exported(init_source: str) -> list[str]:
    return [alias.asname or alias.name for node in ast.walk(ast.parse(init_source))
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def used_names(source: str) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unused_exports(init_source: str, sources, traced) -> list[str]:
    """The names ``init_source`` exports that no source in ``sources`` uses
    and no (module, attribute) pair of ``traced`` wraps, in export order."""
    used = {attr.split(".")[0] for _, attr in traced}
    for source in sources:
        used |= used_names(source)
    return [name for name in exported(init_source) if name not in used]


def caller_sources() -> list[str]:
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py"),
             *(ROOT / "tools").rglob("*.py")]
    return [p.read_text() for p in sorted(paths)
            if p != INIT and "tests" not in p.relative_to(ROOT).parts]


def test_every_export_has_a_caller_outside_the_tests():
    unused = unused_exports(INIT.read_text(), caller_sources(), TRACED)
    assert set(unused) == EXPECTED_UNUSED, (
        f"exports without a caller: {sorted(set(unused) - EXPECTED_UNUSED)}; "
        f"listed but now called: {sorted(EXPECTED_UNUSED - set(unused))}")


def test_the_check_counts_code_not_docstrings():
    init = "from .core import (a, b, c, d, e, f)\nfrom .sim import g as h\n"
    sources = [
        '"""Mentions a and b."""\ndef a():\n    return 1\n',
        "import cactor as C\nC.c()\n",
        "from .core import d\n",
        "e(1)\n",
    ]
    assert unused_exports(init, sources, [("sim", "Cls.method")]) == ["a", "b", "f", "h"]
    assert unused_exports(init, sources, [("core", "f"), ("sim", "h.step")]) == ["a", "b"]
