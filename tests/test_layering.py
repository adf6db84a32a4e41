"""The layers of the package, read from the syntax trees of its files:
only reps turns string words into matrices, so strings imports neither
reps nor linalg and neither gp nor strings names Matrix or walk_slots;
strings reads no relation, only the allowed continuations, and the
critical cycles read neither those nor the threads;
only linalg imports fractions; no module imports dataclasses, and a
fresh interpreter that builds the CLI parser loads neither dataclasses
nor inspect; reps makes no algebra and takes no aop or columns
parameter; the stable table's orbit check reads no word but checks a
witness of the one isomorphism routine, and tests/reference.py keeps no
module fingerprint; every import sits at module level; the module-level
caches are the ones allowed below; only cli.run writes output; and every
exception the package defines is bad input or a bug; a field is its
characteristic p, an int with no class of its own that no module reads
an attribute p of, and cli.run alone parses --field; the singularity
category's descriptor is a plain tuple of ints, with no record or
comparison wrapper around it; the oracle's route to Hom(-, Lambda) and
the embedding test reads no critical cycle, classified word or hom
system.
tests/reference.py, which the hom systems are checked against, solves
none with the program's own."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import gentlegp
from gentlegp.linalg import parse_field
from gentlegp.quiver import InputError

SRC = Path(gentlegp.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# (file, function) -> why it keeps a module-level cache
CACHED = {
    ("reps.py", "projective_rep"): "bench/test_bench.py reads "
                                   "reps.projective_rep.cache_info()",
}


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _names(tree):
    """Every name a Name, an Attribute or an imported alias carries."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def _imported_modules(tree):
    """The last component of every module an import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import x
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[-1]


def test_strings_imports_neither_reps_nor_linalg():
    imported = set(_imported_modules(_trees()["strings.py"]))
    assert imported & {"reps", "linalg"} == set()


def test_only_linalg_imports_fractions():
    # Q values enter only through linalg, as ints or, with a real
    # denominator, as Fractions
    importers = {fname for fname, tree in _trees().items()
                 if "fractions" in _imported_modules(tree)}
    assert importers == {"linalg.py"}


def test_no_module_imports_dataclasses():
    # every CLI command starts a fresh interpreter: dataclasses imports
    # inspect and compiles each record's methods from source at import
    importers = {fname for fname, tree in _trees().items()
                 if "dataclasses" in _imported_modules(tree)}
    assert importers == set()


def test_a_fresh_cli_loads_neither_dataclasses_nor_inspect():
    # -I -S: no site hooks, so only what the package imports is loaded
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import gentlegp.cli; gentlegp.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code,
                           str(SRC.parent)],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert done.stdout == "[]\n"


def test_the_reference_builds_its_own_hom_systems():
    # the reference's hom bases, signatures, obstructions and Ext
    # profiles check the program's hom systems, not the systems themselves
    program = {"_hom_system", "_hom_vectors", "hom_dim"}
    tree = ast.parse(REFERENCE.read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "gentlegp"
                for alias in node.names}
    reached = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
    assert (imported | reached) & program == set()


def test_no_function_body_holds_an_import():
    inside = [(fname, node.name)
              for fname, tree in _trees().items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any(isinstance(x, (ast.Import, ast.ImportFrom))
                      for x in ast.walk(node))]
    assert inside == []


def test_strings_follow_the_algebras_continuations():
    # the string rule reads the allowed continuations gentle computes, and
    # the classifier's cycles read neither them nor the threads built on
    # them, so the oracle's words and the classifier stay independent
    trees = _trees()
    assert "relations" not in set(_names(trees["strings.py"]))
    cycles = next(node for node in trees["gentle.py"].body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "critical_cycles")
    assert {"continuation", "_threads"} & set(_names(cycles)) == set()


def test_reps_makes_no_algebra_and_takes_no_derived_value():
    # only gentle makes algebras, the opposite one included, and a module's
    # columns live on the module: no caller passes either in
    tree = _trees()["reps.py"]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & {"validate_gentle", "opposite"} == set()
    params = {arg.arg for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              for arg in [*node.args.posonlyargs, *node.args.args,
                          *node.args.kwonlyargs]}
    assert params & {"aop", "columns"} == set()


def _functions(tree):
    """Every function the tree defines, by name."""
    return {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}


def test_one_isomorphism_routine_and_no_fingerprint():
    # the orbit check rests on a witness of reps.isomorphism that the
    # table checks itself, not on an inclusion built from P_v's word, and
    # the tests compare modules by witnesses, not by a fingerprint
    trees = _trees()
    assert "string_inclusion" not in _functions(trees["reps.py"])
    assert "_kernel_inclusion" not in _functions(trees["gp.py"])
    assert "signature" not in _functions(ast.parse(REFERENCE.read_text()))
    table = set(_names(_functions(trees["gp.py"])["stable_category_table"]))
    assert {"isomorphism", "is_isomorphism", "syzygy"} <= table
    words = {"projective_word", "radical_summand_string", "letters",
             "vertices", "walk_slots", "_kernel_inclusion"}
    assert table & words == set()


def test_the_stable_table_reads_hom_rows():
    # every stable hom comes off the table's row of Hom(R(x), R(-)), not
    # off a per-pair routine in reps
    trees = _trees()
    assert "stable_hom_dim" not in _functions(trees["reps.py"])
    table = _functions(trees["gp.py"])["stable_category_table"]
    assert "hom_dim" in set(_names(table))


def test_the_oracle_route_reads_no_classification():
    # the embedding test and Hom(-, Lambda) come off the algebra's
    # injective presentation, so the oracle stays independent of the
    # classifier and solves no hom system per module
    trees = _trees()
    assert "gp" not in set(_imported_modules(trees["reps.py"]))
    reps_fns, gp_fns = _functions(trees["reps.py"]), _functions(trees["gp.py"])
    route = [reps_fns[name] for name in (
        "injective_coresolution", "_injective_presentation",
        "_hom_lambda_system", "_hom_lambda", "embedding_obstruction",
        "ext_profile")] + [gp_fns["gp_oracle"]]
    read = {name for fn in route for name in _names(fn)}
    assert read & {"critical_cycles", "CriticalCycle", "classified_words",
                   "radical_summand_word", "radical_summand_string",
                   "radical_summand_rep", "_hom_system", "_hom_vectors",
                   "hom_dim"} == set()
    assert {"_hom_lambda_system", "_injective_presentation"} <= read


def test_gp_and_strings_build_no_matrix():
    trees = _trees()
    for fname in ("gp.py", "strings.py"):
        assert {"Matrix", "walk_slots"} & set(_names(trees[fname])) == set()


def _module_level_caches(fname, tree):
    """(file, top-level name) of each statement that wraps something in
    functools' lru_cache or cache."""
    caches = {"lru_cache", "cache"} & {
        alias.asname or alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names}
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        used = {node.id for node in ast.walk(stmt)
                if isinstance(node, ast.Name)} & caches
        used |= {node.attr for node in ast.walk(stmt)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "functools"
                 and node.attr in ("lru_cache", "cache")}
        if used:
            name = getattr(stmt, "name", None) or ast.unparse(stmt)[:40]
            found.append((fname, name))
    return found


def test_the_only_module_level_cache_is_allowed():
    found = [x for fname, tree in _trees().items()
             for x in _module_level_caches(fname, tree)]
    assert sorted(found) == sorted(CACHED)
    assert all(CACHED.values())


def test_bench_reads_the_allowed_caches():
    reads = {node.value.attr for p in sorted(BENCH.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "cache_info"
             and isinstance(node.value, ast.Attribute)}
    assert {name for _, name in CACHED} <= reads


def _owners(tree, hit):
    """The name of the function, or <module>, around each node that hit
    holds for, in the order of a walk."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if hit(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def _writes(node):
    """Whether the node calls print or _emit or names sys.stdout."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("print", "_emit")) or (
        isinstance(node, ast.Attribute) and node.attr == "stdout"
        and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_only_cli_run_writes_output():
    found = {(fname, owner) for fname, tree in _trees().items()
             for owner in _owners(tree, _writes)}
    assert found == {("cli.py", "run")}


def test_a_field_is_its_characteristic_parsed_once():
    # the row kernels reduce mod p inline, so a field is the int p with no
    # class of its own, and every command gets its field from run
    trees = _trees()
    assert [node.name for node in trees["linalg.py"].body
            if isinstance(node, ast.ClassDef)] == ["Matrix"]
    assert [fname for fname, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "p"] == []
    assert [(parse_field(s), type(parse_field(s))) for s in
            ("q", "f2", "F101", "f2147483647")] == [
        (0, int), (2, int), (101, int), (2 ** 31 - 1, int)]
    calls = _owners(trees["cli.py"], lambda node: isinstance(node, ast.Call)
                    and "parse_field" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None)))
    assert calls == ["run"]


def test_the_descriptor_is_a_plain_tuple(eightv):
    # D_sg is one factor per critical cycle, so its lengths say it all
    d = gentlegp.singularity_descriptor(eightv)
    assert type(d) is tuple and [type(n) for n in d] == [int, int]
    gone = {"SingularityDescriptor", "ComparisonReport",
            "compare_derived_invariant"}
    assert [(fname, node.name) for fname, tree in _trees().items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name in gone] == []
    assert {name for tree in _trees().values() for name in _names(tree)} \
        & gone == set()
    assert gone & set(dir(gentlegp)) == set()


def test_every_package_exception_is_bad_input_or_a_bug():
    defined = [cls for p in sorted(SRC.glob("*.py"))
               for module in [importlib.import_module(f"gentlegp.{p.stem}")]
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if issubclass(cls, BaseException)
               and cls.__module__ == module.__name__]
    assert {"InputError", "NotGentleError", "TriangulationError",
            "InternalError"} <= {cls.__name__ for cls in defined}
    assert [cls.__name__ for cls in defined
            if not issubclass(cls, (InputError, AssertionError))] == []
