"""Every public module-level function or class of the package, and every
public method or property of its public classes, must be reached by something
other than its own unit tests: another part of the package, an acceptance
criterion, or the benchmark.  Code that only unit tests call belongs in
`tests/` (oracles and fixtures) or nowhere.  The same holds one level down:
every defaulted parameter of a public function or method must be set by such
a call, and every annotated field of a public dataclass must be read.  A
public module-level constant must be read somewhere in those places, its
own module included.  A private module-level function, class or constant
(one leading underscore) must be referenced in the package itself: tests
and the benchmark do not count as its callers.

A name counts as referenced when it appears as an AST name, an attribute or a
string constant in `src/` outside its own definition, in
`tests/test_acceptance.py`, or in the benchmark's `perfbench/*.py` files.
Imports and `__all__` lists do not count: they re-export a name without
using it.  A parameter counts as set when a call to a function or method of
its name in those places passes it by keyword or fills its slot by position
(a starred argument fills every slot from its own on).  A field counts as
read when it is loaded as an attribute there.  The benchmark files are
parsed from their text only, so nothing is imported from, or written to, the
benchmark directory.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nonrev"


def public_definitions(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_constants(tree: ast.Module) -> list:
    """(name, assignment) of each module-level assignment to a public name."""
    return [(target.id, node) for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and not target.id.startswith("_")]


def private_definitions(tree: ast.Module) -> list:
    """(name, definition) of each module-level function, class and constant
    whose name has one leading underscore."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        found += [(name, node) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def public_members(cls: ast.ClassDef):
    """Methods, static methods and properties not starting with '_'."""
    return [node for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def reexports(node: ast.AST) -> bool:
    """An import or an ``__all__`` list names a function without using it."""
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))


def nodes(tree: ast.AST, skip=None):
    """Nodes of tree, minus the subtree skip (a definition does not
    reference itself) and re-exports."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip or reexports(node):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def referenced_names(tree: ast.AST, skip=None) -> set:
    """Names, attributes and string constants in tree."""
    names = set()
    for node in nodes(tree, skip):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def calls(tree: ast.AST, skip=None) -> list:
    """(callee name, positional slots filled, keywords passed) per call."""
    out = []
    for node in nodes(tree, skip):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out.append((name, math.inf if starred else len(node.args),
                        {k.arg for k in node.keywords}))
    return out


def defaulted_parameters(fn: ast.FunctionDef, method: bool) -> list:
    """(name, call slot) of each parameter with a default; the slot counts
    from the first argument a call passes (after self or cls) and is None
    for keyword-only parameters."""
    a = fn.args
    positional = a.posonlyargs + a.args
    bound = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                               for d in fn.decorator_list)
    first = len(positional) - len(a.defaults)
    return ([(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
            + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None])


def dataclass_fields(cls: ast.ClassDef) -> list:
    """Annotated fields of a class decorated with ``dataclass``."""
    if not any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list):
        return []
    return [node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def sources() -> dict:
    return {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def outside_trees() -> list:
    return [parse(path) for path in [ROOT / "tests" / "test_acceptance.py",
                                     *sorted((ROOT / "perfbench").glob("*.py"))]]


def public_functions(tree: ast.Module):
    """(qualified name, definition, is a method) of every public function
    and public method of a public class."""
    for node in public_definitions(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        else:
            for m in public_members(node):
                yield f"{node.name}.{m.name}", m, True


def references_elsewhere(trees: dict) -> dict:
    """Module path -> names referenced outside that module: in the other
    modules, the acceptance criteria or the benchmark."""
    outside = set().union(*(referenced_names(tree) for tree in outside_trees()))
    return {path: outside.union(*(referenced_names(other)
                                  for p, other in trees.items() if p != path))
            for path in trees}


def unreferenced_public_names() -> list:
    trees = sources()
    elsewhere = references_elsewhere(trees)
    unused = []
    for path, tree in trees.items():
        refs = elsewhere[path]
        for node in public_definitions(tree):
            if node.name not in refs | referenced_names(tree, skip=node):
                unused.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{path.stem}.{node.name}.{m.name}"
                           for m in public_members(node)
                           if m.name not in refs | referenced_names(tree, skip=m)]
    return unused


def unreferenced_private_names() -> list:
    trees = sources()
    unused = []
    for path, tree in trees.items():
        package = set().union(*(referenced_names(other)
                                for p, other in trees.items() if p != path))
        unused += [f"{path.stem}.{name}" for name, node in private_definitions(tree)
                   if name not in package | referenced_names(tree, skip=node)]
    return unused


def unread_constants() -> list:
    trees = sources()
    elsewhere = references_elsewhere(trees)
    return [f"{path.stem}.{name}" for path, tree in trees.items()
            for name, node in public_constants(tree)
            if name not in elsewhere[path] | referenced_names(tree, skip=node)]


def unset_parameters() -> list:
    outside = [c for tree in outside_trees() for c in calls(tree)]
    trees = sources()
    unset = []
    for path, tree in trees.items():
        others = outside + [c for p, other in trees.items() if p != path
                            for c in calls(other)]
        for qualname, fn, method in public_functions(tree):
            made = [c for c in others + calls(tree, skip=fn) if c[0] == fn.name]
            unset += [f"{path.stem}.{qualname}({name})"
                      for name, slot in defaulted_parameters(fn, method)
                      if not any(name in kws or slot is not None and slot < npos
                                 for _, npos, kws in made)]
    return unset


def unread_fields() -> list:
    trees = sources()
    loaded = {node.attr for tree in [*trees.values(), *outside_trees()]
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{path.stem}.{node.name}.{name}"
            for path, tree in trees.items() for node in public_definitions(tree)
            if isinstance(node, ast.ClassDef)
            for name in dataclass_fields(node) if name not in loaded]


def test_scan_sees_the_package():
    trees = list(sources().values())
    assert sum(len(public_definitions(t)) for t in trees) > 50
    classes = [node for t in trees for node in public_definitions(t)
               if isinstance(node, ast.ClassDef)]
    assert sum(len(public_members(c)) for c in classes) > 15
    assert sum(len(defaulted_parameters(fn, method)) for t in trees
               for _, fn, method in public_functions(t)) > 10
    assert sum(len(dataclass_fields(c)) for c in classes) > 40
    assert sum(len(public_constants(t)) for t in trees) > 8
    assert sum(len(private_definitions(t)) for t in trees) > 40


def test_every_public_name_is_reached_outside_unit_tests():
    assert unreferenced_public_names() == []


def test_every_defaulted_parameter_is_set_outside_unit_tests():
    assert unset_parameters() == []


def test_every_dataclass_field_is_read_outside_unit_tests():
    assert unread_fields() == []


def test_every_public_constant_is_read():
    assert unread_constants() == []


def test_every_private_name_is_referenced_in_the_package():
    assert unreferenced_private_names() == []
