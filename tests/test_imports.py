"""Every name a hitlab module imports is used in that module.

The one exception is a name the traced benchmark wraps: a module may
import a layer only so that `bench/run.py --trace 1` sees the calls made
through it, and `bench/tracer.py` lists those (module, name) sites in
WRAPS.  `__init__` re-exports names and is not checked.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hitlab"
TRACER = ROOT / "bench" / "tracer.py"


def traced_sites() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {site for sites in tracer.WRAPS.values() for site in sites}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in the source and never
    read as a name; `from __future__` imports bind nothing usable."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import importlib.util\n"
        "from .mis import _first_missed, first_missed as fm\n"
        "def f(g):\n"
        "    from .graph import find_independent_subset\n"
        "    return fm(g), importlib.util\n"
    )
    assert unused_imports(source) == ["_first_missed", "find_independent_subset"]


def test_every_imported_name_is_used():
    traced = traced_sites()
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.stem, name) not in traced
    ]
    assert unused == []
