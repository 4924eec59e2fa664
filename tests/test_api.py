"""The package namespace: every exported name resolves, and every helper
defined in src/ is read somewhere."""

import ast
from pathlib import Path

import ramwedge

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from ramwedge import *", namespace)
    assert len(set(ramwedge.__all__)) == len(ramwedge.__all__)
    assert set(ramwedge.__all__) <= set(namespace)
    assert not [name for name in ramwedge.__all__ if name.startswith("_")]


def definitions(tree, module):
    """(qualified name, name) of each module-level function or class and
    each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name


def reads(tree):
    """Every name the module reads: names, imports and attributes, but not
    the attributes of a name bound by a plain import X (os.replace reads
    no helper of the package)."""
    plain = {alias.name.partition(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names if not alias.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in plain):
                yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def bench_reads():
    """The names the bench reads in code: what reads() finds in its
    modules, and the string constants that are identifiers, since the
    tracer looks some names up by string (IndexSet.__dict__["of"],
    getattr(chart, "spin_annihilators")).  Comments and dotted span
    names do not count."""
    for path in (ROOT / "rwbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        yield from reads(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.isidentifier()):
                yield node.value


def test_no_dead_helpers():
    # a helper that only tests reach belongs in the tests; the bench reads
    # some names (the tracer patches IndexSet.of by name), so they count
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "ramwedge").glob("*.py"))}
    read = {name for tree in trees.values() for name in reads(tree)}
    used = read | set(ramwedge.__all__) | set(bench_reads())
    dead = [qualified for module, tree in trees.items()
            for qualified, name in definitions(tree, module) if name not in used]
    assert not dead, f"defined in src/ but never read: {', '.join(dead)}"
