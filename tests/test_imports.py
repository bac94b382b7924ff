"""Every name a package module imports is used, except a lone ``pad`` import marked
``# noqa: F401``, every private module-level definition or class method is referenced somewhere in
the package, every public one is named outside the tests, every parameter
of a package function or lambda is read, and among the block generators only
gen_rbm lays taps out as a dense matrix.

A stdlib stand-in for pyflakes' F401 over src/npde (``__init__`` re-exports
by design). A ``# noqa: F401`` keeps the ``pad`` names the benchmark tracer
rebinds; it exempts only a statement that imports ``pad`` alone, so no other
unused name can hide on its line.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "npde"


def _unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if [alias.name for alias in node.names] == ["pad"] and \
                any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for path in modules for entry in _unused_imports(path)] == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_name`` functions, classes and assignment targets, and the
    ``_name`` methods defined in module-level classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _references(tree: ast.AST) -> Counter:
    """Names read, attributes taken and names imported anywhere under ``tree``,
    each with its count."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
    return refs


def test_no_dead_private_definitions():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_references, trees.values()))
    assert [f"{name}: {defn}" for name, tree in trees.items()
            for defn in _private_definitions(tree) if defn not in used] == []


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of every public module-level function and class,
    and of every public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def test_every_public_definition_is_used_outside_tests():
    # named outside its own definition: in a package module other than
    # __init__, a demo, the benchmark (not its tests) or the README
    root = SRC.parents[1]
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    callers = sorted(root.glob("demos/*.py")) + \
        [p for p in sorted(root.glob("bench/*.py")) if not p.name.startswith("test_")]
    named = sum((_references(tree) for tree in trees.values()), Counter())
    for path in callers:
        tree = ast.parse(path.read_text())
        named.update(_references(tree))
        # the benchmark's tracer names the functions it rebinds in strings
        named.update(node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
    readme = (root / "README.md").read_text()
    found = set()
    for module, tree in trees.items():
        for name, node in _public_definitions(tree):
            bare = name.rpartition(".")[2]
            if named[bare] <= _references(node)[bare] and \
                    not re.search(rf"\b{bare}\b", readme):
                found.add(f"{module}.{name}")
    assert sorted(found) == []


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of every def and lambda under ``node``; a lambda
    is named ``<lambda>`` inside the def or class that holds it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            yield name, child
            yield from _functions(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def _unread_parameters(path: Path) -> list[tuple[str, str, str]]:
    unread = []
    for name, fn in _functions(ast.parse(path.read_text())):
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(path.name, name, p) for p in params if p not in read]
    return unread


def test_every_parameter_is_read():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in _unread_parameters(path)]
    assert found == []


def test_only_gen_rbm_builds_a_dense_band():
    # an RBM's W is a general bilinear energy; every other block runs the
    # step's taps. verify's dense k O_L branch is an independent route.
    callers = sorted(f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                     for name, fn in _functions(ast.parse(path.read_text()))
                     if _references(fn)["_band_matrix"])
    assert callers == ["blocks.gen_rbm", "verify.check_equivalence"]
