"""The mutation list in ``tools/mutants.py`` still matches the tree.

A mutation whose text no longer occurs exactly once, or that names a test
file that does not exist, would only show up in the slow mutation run; this
checks both in milliseconds.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _mutations():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTATIONS


MUTATIONS = _mutations()


@pytest.mark.parametrize(
    "name, path, text, replacement, files", MUTATIONS, ids=[m[0] for m in MUTATIONS]
)
def test_mutation_text_occurs_once_and_its_tests_exist(name, path, text, replacement, files):
    assert (ROOT / path).read_text().count(text) == 1
    missing = [f for f in files if not (ROOT / f).is_file()]
    assert not missing
