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
    """A module's top-level definitions as ``(None, node)`` and its classes'
    methods as ``(class name, node)``."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield None, node
            if isinstance(node, ast.ClassDef):
                yield from ((node.name, sub) for sub in node.body if isinstance(sub, _DEFS))


def _reads(node, classes) -> Counter:
    """How often each name is read under ``node``.

    ``f`` in ``f()`` is the key ``(f, None, False)``. ``g`` in ``x.g`` is
    ``(g, receiver, True)``, where the receiver is the class of ``classes``
    that ``x`` names, as in ``Cls.g`` or ``module.Cls.g``, and None for any
    other ``x``.
    """
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id, None, False] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            x = n.value
            named = x.id if isinstance(x, ast.Name) else getattr(x, "attr", None)
            found[n.attr, named if named in classes else None, True] += 1
    return found


def _reads_of(reads, owner, name) -> int:
    """Reads of a top-level ``name`` (``owner`` None), or of method ``owner.name``.

    A top-level name counts every read of its spelling. A method counts only
    attribute reads whose receiver is its own class or no known class.
    """
    return sum(
        n
        for (spelling, receiver, attribute), n in reads.items()
        if spelling == name and (owner is None or (attribute and receiver in (None, owner)))
    )


def unread_definitions(sources: dict, defining) -> list:
    """``module:name`` or ``module:Class.method`` of each definition that
    nothing reads outside itself.

    ``sources`` maps module names to source text; the definitions of the
    ``defining`` modules are checked against reads in all of them. Top-level
    names match by spelling alone. A method is read only through an
    attribute, and ``Cls.method`` on a class of the ``defining`` modules
    counts for that class alone. A name read only inside a string counts as
    unread. Dunder methods are skipped, because Python calls them.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    classes = {
        node.name
        for module in defining
        for node in trees[module].body
        if isinstance(node, ast.ClassDef)
    }
    total = sum((_reads(tree, classes) for tree in trees.values()), Counter())
    found = []
    for module in defining:
        for owner, node in _definitions(trees[module]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if _reads_of(total, owner, name) == _reads_of(_reads(node, classes), owner, name):
                found.append(f"{module}:{owner + '.' if owner else ''}{name}")
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
        "class Grid:\n"
        "    @classmethod\n"
        "    def zeros(cls):\n"
        "        return cls()\n"
        "    def powers(self):\n"
        "        return 2\n"
        "class Table:\n"
        "    @classmethod\n"
        "    def zeros(cls):\n"
        "        return cls()\n"
        "def total(powers):\n"
        "    return powers\n"
    )
    # ``powers`` is read only as an argument name, and ``zeros`` only on Table
    reader = (
        "from snippet import Box, Grid, Table, total\n"
        "Box().shrink()\n"
        "Grid()\n"
        "Table.zeros()\n"
        "total(3)\n"
    )
    found = unread_definitions({"snippet": snippet, "reader": reader}, ["snippet"])
    assert found == [
        "snippet:Box.spare",
        "snippet:Grid.powers",
        "snippet:Grid.zeros",
        "snippet:recursive",
    ]


def test_every_src_definition_is_read_outside_the_tests():
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for folder in SCANNED
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    defining = [module for module in sources if module.startswith("src/edgefed/")]
    found = unread_definitions(sources, defining)
    assert [entry for entry in found if entry.split(":")[1] not in EXEMPT] == []
