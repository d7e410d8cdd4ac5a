"""Every name a module of the library imports is used in that module.

A name counts as used where it appears as an identifier, or as the leading
part of a string constant: `cli._FUNCTIONS` names its callables in strings
such as "WeilDivisor.floor", and `__all__` lists what a package exports.
"""

import ast
import pathlib

import divisor_forge

SRC = pathlib.Path(divisor_forge.__file__).parent


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value.split(".")[0])
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    source = ("import os, sys\nfrom fractions import Fraction\n"
              "from .x import a, b\nTABLE = {'f': 'b.call'}\nprint(sys)\n")
    assert unused_imports(source) == [(1, "os"), (2, "Fraction"), (3, "a")]


def test_library_has_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[path.name] = unused
    assert found == {}
