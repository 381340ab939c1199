"""Every public module-level function or class of the package, and every
public method or property of its public classes, must be reached by something
other than its own unit tests: another part of the package, an acceptance
criterion, or the benchmark.  Code that only unit tests call belongs in
`tests/` (oracles and fixtures) or nowhere.

A name counts as referenced when it appears as an AST name, an attribute or a
string constant in `src/` outside its own definition, in
`tests/test_acceptance.py`, or in the benchmark's `perfbench/*.py` files.
Imports and `__all__` lists do not count: they re-export a name without
using it.  The benchmark files are parsed from their text only, so nothing is
imported from, or written to, the benchmark directory.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nonrev"


def public_definitions(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_members(cls: ast.ClassDef):
    """Methods, static methods and properties not starting with '_'."""
    return [node for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def reexports(node: ast.AST) -> bool:
    """An import or an ``__all__`` list names a function without using it."""
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))


def referenced_names(tree: ast.AST, skip=None) -> set:
    """Names, attributes and string constants in tree, minus the subtree
    skip (a definition does not reference itself) and re-exports."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip or reexports(node):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def unreferenced_public_names() -> list:
    outside = set()
    for path in [ROOT / "tests" / "test_acceptance.py",
                 *sorted((ROOT / "perfbench").glob("*.py"))]:
        outside |= referenced_names(parse(path))
    sources = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for path, tree in sources.items():
        refs = outside.union(*(referenced_names(other)
                               for p, other in sources.items() if p != path))
        for node in public_definitions(tree):
            if node.name not in refs | referenced_names(tree, skip=node):
                unused.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{path.stem}.{node.name}.{m.name}"
                           for m in public_members(node)
                           if m.name not in refs | referenced_names(tree, skip=m)]
    return unused


def test_scan_sees_the_package():
    trees = [parse(p) for p in PACKAGE.glob("*.py")]
    assert sum(len(public_definitions(t)) for t in trees) > 50
    classes = [node for t in trees for node in public_definitions(t)
               if isinstance(node, ast.ClassDef)]
    assert sum(len(public_members(c)) for c in classes) > 15


def test_every_public_name_is_reached_outside_unit_tests():
    assert unreferenced_public_names() == []
