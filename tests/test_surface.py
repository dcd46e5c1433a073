"""Every name that ``src/fuzzids`` defines is reached from the program.

A function, class, method or property that only the tests call belongs in
the tests. The scan is by name: a definition counts as reached when its name
appears outside its own body in ``src/`` or in a non-test file of ``bench/``,
as a name, an attribute or a string constant.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(node) -> Counter:
    """Names used under ``node``: loaded names, attributes, string constants."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def test_every_definition_in_src_is_reached():
    program = sorted((ROOT / "src" / "fuzzids").rglob("*.py")) + [
        path for path in sorted((ROOT / "bench").glob("*.py"))
        if not path.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in program}
    used = sum((references(tree) for tree in trees.values()), Counter())
    unreached = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items() if path.is_relative_to(ROOT / "src")
        for node in ast.walk(tree)
        if isinstance(node, DEFS) and not node.name.startswith("__")
        and used[node.name] == references(node)[node.name]
    ]
    assert unreached == []
