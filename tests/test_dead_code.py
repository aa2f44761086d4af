"""Every private top-level name of a hitlab module is read somewhere.

A function, class or assignment at the top level of a `src/hitlab`
module whose name starts with `_` serves only the package itself, so if
no other top-level statement of the package reads it by name (as a name
or as a module attribute), it is dead code.  A definition that only
reads itself, such as a recursive function nothing else calls, counts
as unread.  Dunder names such as `__all__` are read by Python itself and
are not checked.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hitlab"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [n.id for target in stmt.targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _read_names(stmt: ast.stmt) -> set[str]:
    read = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` for each private top-level definition in the
    {module: source} map that no other top-level statement reads."""
    statements = [(module, stmt) for module, src in sources.items() for stmt in ast.parse(src).body]
    reads = [_read_names(stmt) for _, stmt in statements]
    unread = []
    for i, (module, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            if _is_private(name) and not any(name in r for j, r in enumerate(reads) if j != i):
                unread.append(f"{module}.{name}")
    return sorted(unread)


def test_the_check_sees_unread_names():
    sources = {
        "a": (
            "__all__ = []\n"
            "_LIMIT = 3\n"
            "_unused_constant = 4\n"
            "def _cover(edges, budget):\n"
            "    return _cover(edges, budget - 1) if budget > _LIMIT else None\n"
            "def _disjoint_lower_bound(edges):\n"
            "    return _disjoint_lower_bound(edges[1:])\n"
            "class _Used:\n"
            "    pass\n"
        ),
        "b": "from . import a\nfrom .a import _Used\ndef run(e):\n    return a._cover(e, 2), _Used()\n",
    }
    assert unread_private_names(sources) == ["a._disjoint_lower_bound", "a._unused_constant"]


def test_every_private_top_level_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
