"""The package holds what the program runs: every public function or
method is named somewhere in src/gentlegp outside its own definition and
the package's export list, and every name a module imports is used in
that module, unless it is allowed below because bench/ reads it, which
a scan of bench/ checks.  Routines only the tests need live in
tests/reference.py.

The scan matches names, not bindings, so a name used for two things
counts as used for both."""

import ast
from pathlib import Path

import gentlegp

SRC = Path(gentlegp.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"

# name -> why it stays although no code under src/ refers to it
ALLOWED = {
    "linear_quiver": "a families builder: bench/ generates inputs with it",
    "cyclic_nakayama": "a families builder: bench/ generates inputs with it",
    "projective_line_chain": "a families builder: bench/ generates inputs "
                             "with it",
    "eight_vertex_example": "a families builder: bench/ generates inputs "
                            "with it",
    "serialize_triangulation": "bench/ writes its .tri inputs with it",
}

# (file, name) -> why the module imports a name it never uses
ALLOWED_IMPORTS = {
    ("gp.py", "projective_rep"): "bench/test_bench.py::BindingProbe reads "
                                 "gp.projective_rep",
}


def _names(tree):
    """Every (name, node) of a Name or an Attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def unused_public_defs():
    """(file, name) of each public def nothing under src/ refers to."""
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    used = {}  # name -> ids of the nodes that name it
    for tree in trees.values():
        for name, node in _names(tree):
            used.setdefault(name, set()).add(id(node))
    unused = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or node.name.startswith("_"):
                continue
            inside = {id(n) for _, n in _names(node)}
            if not used.get(node.name, set()) - inside:
                unused.append((fname, node.name))
    return unused


def test_every_public_function_is_used_by_the_program():
    unused = unused_public_defs()
    assert [(f, name) for f, name in unused if name not in ALLOWED] == []
    # a name the program has started to use leaves the allowlist
    assert {name for _, name in unused} == set(ALLOWED)


def unused_imports():
    """(file, name) of each name a module imports and never reads."""
    unused = []
    for p in sorted(SRC.glob("*.py")):
        if p.name == "__init__.py":
            continue
        tree = ast.parse(p.read_text())
        read = {name for name, node in _names(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((p.name, name))
    return unused


def test_every_import_is_used_by_its_module():
    unused = unused_imports()
    assert [x for x in unused if x not in ALLOWED_IMPORTS] == []
    # an import the module has started to use leaves the allowlist
    assert set(unused) == set(ALLOWED_IMPORTS)


def bench_names():
    """Every name of a Name or an Attribute in bench/*.py, read from the
    files' syntax trees without importing them."""
    return {name for p in sorted(BENCH.glob("*.py"))
            for name, _ in _names(ast.parse(p.read_text()))}


def test_every_allowed_name_is_named_in_bench():
    named = bench_names()
    assert sorted(name for name in ALLOWED if name not in named) == []
    assert sorted(x for x in ALLOWED_IMPORTS if x[1] not in named) == []
