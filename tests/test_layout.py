"""``src/hyperhaar`` holds what the CLI runs: every function, class and
method defined there is referenced by name somewhere else in the package.
Routes that only the tests reach belong in ``tests/oracles.py``."""

import ast
from pathlib import Path

import hyperhaar

SRC = Path(hyperhaar.__file__).parent


def _defined_and_used():
    """(name, file, line) of every definition, and the set of names that
    appear as a ``Name`` or an ``Attribute`` anywhere in the package."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((node.name, path.name, node.lineno))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_definition_is_referenced_in_src():
    defined, used = _defined_and_used()
    # special methods are called by the language, not by name
    unused = [f"{file}:{line} {name}" for name, file, line in defined
              if name not in used
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, "defined in src/ but not referenced there: " + \
        ", ".join(unused)
