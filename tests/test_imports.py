"""Every name a `src/qkdrelay` module imports is used in that module.

No linter runs on this tree, so an import that a deletion leaves behind
would go unnoticed. `__init__.py` is left out, as its imports are
re-exports, and so is `from __future__`. An import line marked `# noqa`
is exempt: it keeps a name in the module on purpose.
"""

from __future__ import annotations

import ast
import pathlib

import qkdrelay

SRC = pathlib.Path(qkdrelay.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Each name bound by an import in source that no expression reads:
    every read of a name, an attribute's base included, is an ast.Name."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if "# noqa" in lines[alias.lineno - 1]:
                continue
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in used:
                unused.append(f"line {alias.lineno}: {bound}")
    return unused


def test_unused_imports_flags_a_dead_name_and_spares_noqa_and_future():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import logging\n"
        "from json import dumps, loads\n"
        "from re import sub  # noqa: F401  kept on purpose\n"
        "log = logging.getLogger(__name__)\n"
        "print(os.path.sep, dumps)\n"
    )
    assert unused_imports(source) == ["line 4: loads"]


def test_every_src_module_uses_each_name_it_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = {
        p.name: found
        for p in modules
        if (found := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}
