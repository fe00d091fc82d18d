"""Every definition in ``src/edgefed`` is read by the program, the benchmark or the tools.

A function, class or method that only the tests call is a test oracle and
belongs in ``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "perfbench", "tools")
# Documented public config helpers: README's CLI example calls
# ``desk_config``, and perfbench/README.md names both as the source of its
# pinned scenarios. Nothing in the program needs to call them.
EXEMPT = {"desk_config", "paper_scale_config"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """A module's top-level functions and classes, and its classes' methods."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (sub for sub in node.body if isinstance(sub, _DEFS))


def _reads(node) -> Counter:
    """How often each name is read under ``node``: ``f`` in ``f()``, ``g`` in ``x.g``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def unread_definitions(sources: dict, defining) -> list:
    """``module:name`` of each definition that nothing reads outside itself.

    ``sources`` maps module names to source text; the definitions of the
    ``defining`` modules are checked against reads in all of them. Names
    match by spelling alone, and a name read only inside a string counts as
    unread. Dunder methods are skipped, because Python calls them.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    found = []
    for module in defining:
        for node in _definitions(trees[module]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] == _reads(node)[name]:
                found.append(f"{module}:{name}")
    return sorted(found)


def test_scan_flags_an_unread_definition():
    snippet = (
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used()\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "    def grow(self):\n"
        "        return self.size + 1\n"
        "    def shrink(self):\n"
        "        return self.grow() - 2\n"
        "    def spare(self):\n"
        "        return 'spare'\n"
    )
    reader = "from snippet import Box\nBox().shrink()\n"
    found = unread_definitions({"snippet": snippet, "reader": reader}, ["snippet"])
    assert found == ["snippet:recursive", "snippet:spare"]


def test_every_src_definition_is_read_outside_the_tests():
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for folder in SCANNED
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    defining = [module for module in sources if module.startswith("src/edgefed/")]
    found = unread_definitions(sources, defining)
    assert [entry for entry in found if entry.split(":")[1] not in EXEMPT] == []
