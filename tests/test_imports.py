"""The package's import graph: every import at module level, running one way."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import lefhom
from lefhom import complexes, theorem

PACKAGE = Path(lefhom.__file__).parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}

# helpers deleted for having no caller: (module, class or None, names)
DELETED = [
    ("simplicial", None, ["_merge_orders", "simplicial_excision_check", "simplicial_homology",
                          "relative_simplicial_homology"]),
    ("simplicial", "SimplicialComplex", ["union", "intersection", "is_subcomplex_of", "vertices",
                                         "from_maximal", "simplices", "dim", "simplices_of_dim",
                                         "full_subcomplex", "vertex_order"]),
    ("exact", "RingSpec", ["integers", "rationals", "prime_field", "one"]),
    ("exact", None, ["_field_columns", "_unit_form"]),
    ("exact", "ExactMatrix", ["identity", "column", "transpose"]),
    ("exact", "RingSpec", ["zero", "add", "mul", "neg", "is_zero"]),
    ("exact", "ExactMatrix", ["apply", "drop"]),
    ("exact", None, ["_beside"]),
    ("topology", None, ["is_open"]),
    ("homology", "HomologyProfile", ["is_trivial", "is_point", "degrees"]),
    ("homology", "ChainSlices", ["closed_profile", "_rank_columns"]),
    ("formats", None, ["_cube_id"]),
    ("theorem", None, ["_closure_checks", "DEFAULT_CLOSURE_CAP"]),
    ("complexes", None, ["_cofacet_ranks", "_kappa_rows"]),
    ("complexes", "LefschetzComplex", ["_by_dim", "_cells"]),
    ("simplicial", None, ["_rank_slices"]),
    ("complexes", None, ["FacePoset"]),
]


def _package_imports(tree):
    """(lefhom modules imported, line numbers of imports inside a function)."""
    targets, nested = set(), []

    def visit(node, in_function):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if in_function:
                nested.append(node.lineno)
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and (node.level or module.startswith("lefhom")):
                base = module.removeprefix("lefhom").lstrip(".")
                if base:
                    targets.add(base.split(".")[0])
                else:  # from . import name: a submodule, or a name of __init__
                    targets.update(a.name if a.name in MODULES else "__init__"
                                   for a in node.names)
            elif isinstance(node, ast.Import):
                targets.update(a.name.split(".")[1] for a in node.names
                               if a.name.startswith("lefhom."))
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, False)
    return targets, nested


def test_import_loads_no_dataclasses_and_no_process_machinery():
    # a fresh interpreter, isolated from the environment: what importing the
    # package and its command line pulls in, and so what every run pays for
    probe = ("import sys\n"
             f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
             "import lefhom, lefhom.cli\n"
             "assert lefhom.__file__.startswith(sys.path[0]), lefhom.__file__\n"
             "print(' '.join(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert "lefhom.cli" in out
    for heavy in ("dataclasses", "inspect", "concurrent.futures.process", "multiprocessing"):
        assert heavy not in out


def test_imports_are_at_module_level_and_acyclic():
    graph, nested = {}, {}
    for name, path in MODULES.items():
        graph[name], lines = _package_imports(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            nested[name] = lines
    assert nested == {}
    assert "theorem" not in graph["formats"]
    # depth-first search: a module met again while still on the stack closes a cycle
    state = {}

    def walk(name, stack):
        state[name] = "open"
        for target in sorted(graph[name]):
            assert state.get(target) != "open", " -> ".join(stack + [name, target])
            if target not in state:
                walk(target, stack + [name])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            walk(name, [])


def test_every_exported_name_resolves_and_no_deleted_name_is_left():
    # __main__ runs the command line when imported, and exports nothing
    modules = {name: importlib.import_module(f"lefhom.{name}")
               for name in MODULES if name not in ("__init__", "__main__")}
    for module in [lefhom, *modules.values()]:
        for name in getattr(module, "__all__", ()):
            getattr(module, name)  # raises AttributeError when the name is gone
    for module, owner, names in DELETED:
        holder = getattr(modules[module], owner) if owner else modules[module]
        for name in names:
            if name.startswith("__"):  # every object has one: a deleted one is object's
                assert getattr(holder, name) is getattr(object, name), (module, owner, name)
                continue
            assert not hasattr(holder, name), (module, owner, name)
            assert not hasattr(lefhom, name), name
    # the order complex's class is a LefschetzComplex with no member of its own
    assert set(vars(modules["simplicial"].SimplicialComplex)) <= {
        "__module__", "__qualname__", "__doc__", "__slots__", "__firstlineno__",
        "__static_attributes__"}


def test_augmentability_has_one_definition():
    assert lefhom.is_augmentable is theorem.is_augmentable is complexes.is_augmentable
    assert "is_augmentable" in theorem.__all__ and "is_augmentable" in complexes.__all__
