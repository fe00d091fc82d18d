"""Every name a test module imports is read somewhere in that module."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list:
    """Names that an import in ``source`` binds and no expression reads.

    ``import a.b`` binds ``a``, and ``np.array`` reads ``np``. A name read
    only inside a string, such as a docstring, counts as unread.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_scan_flags_an_unread_import():
    snippet = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import inf, pi\n"
        "def f():\n"
        "    import time\n"
        "    return np.zeros(1), os.path.sep, pi\n"
    )
    assert unused_imports(snippet) == ["inf", "json", "time"]


def test_no_test_module_imports_an_unread_name():
    found = {
        path.name: names
        for path in sorted(TESTS.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}
