"""Every module-level import under ``src/repro`` is used by its module.

Package ``__init__.py`` files are exempt (their imports are re-exports), as
are imports under ``if TYPE_CHECKING:`` (they serve string annotations).
A name counts as used when the module reads it, lists it in ``__all__``, or
mentions it inside a string annotation.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _is_type_checking(node):
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _module_imports(tree):
    """(bound name, line) for every import the module body runs."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Try):
            pending.extend(node.body)
            pending.extend(node.orelse)
            for handler in node.handlers:
                pending.extend(handler.body)
        elif isinstance(node, ast.If) and not _is_type_checking(node):
            pending.extend(node.body)
            pending.extend(node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _string_annotation_names(node):
    """Names inside the string constants of an annotation or subscript."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (name.id for name in ast.walk(parsed)
                        if isinstance(name, ast.Name))


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_string_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_string_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_string_annotation_names(node.annotation))
        elif isinstance(node, ast.Subscript):
            used.update(_string_annotation_names(node.slice))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return sorted((line, name) for name, line in _module_imports(tree)
                  if name not in used)


def test_no_unused_module_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path):
            found.append(f"{path.relative_to(SRC.parent)}:{line}: {name}")
    assert found == []


def test_checker_sees_unused_and_exempt_imports(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json\n"
        "from typing import TYPE_CHECKING, Dict, List\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "Alias = Dict[str, 'List[int]']\n"
        "def f(x: 'OrderedDict') -> None:\n"
        "    return os.getcwd()\n")
    assert unused_imports(module) == [(3, "json")]
