import ast
import importlib
import types
from pathlib import Path

import dendrotensor

# the names the package exported when ``__all__`` was kept by hand, less
# ``graft``, which moved to the tests that use it, and with the category
# check
EXPORTED = {
    "Forest", "Tree", "TreeError", "Vertex", "add_stumps", "as_forest",
    "contract_inner", "corolla", "cut_at", "interior",
    "max_edges", "parse_forest", "parse_tree", "serialize_forest",
    "serialize_tree",
    "Operation", "OperadMap", "classify_elementary", "compose", "hom",
    "identity_map", "is_cut", "operations", "validate",
    "STAR", "FinSimplex", "RetractWitness", "SimplicialOperator", "edge_name",
    "omega_mor", "omega_obj", "restrict", "retract_witness",
    "AssocResult", "InteriorDecomposition", "TensorHom", "TransportResult",
    "assoc_inclusion", "decode", "encode", "flatten_name", "inclusion_map",
    "interior_decomposition", "intersect", "shuffles", "count_shuffles",
    "stump_transport", "tensor_hom",
    "BVTensorOperad", "Chain", "EllMorphism", "EllObject", "EllPresentation",
    "FibrousReport", "FinPtdMor", "FinPtdObj", "FiniteOperad", "ForestInto",
    "FreeForestOperad", "FreeTerm", "TableOperad", "chain_to_map",
    "check_fibrous", "CategoryReport", "check_category", "defect_fixtures", "ell_compose", "ell_hom",
    "ell_identity", "enumerate_chains", "factorize", "free_algebra",
    "map_to_chain", "maps_into", "precompose", "restrict_chain", "rho",
    "segal_components_check", "segal_cut_check", "smash",
    "__version__",
}


def test_exports_are_unchanged_and_resolve():
    assert len(dendrotensor.__all__) == len(set(dendrotensor.__all__))
    assert set(dendrotensor.__all__) == EXPORTED
    for name in dendrotensor.__all__:
        assert getattr(dendrotensor, name) is not None


def test_benchmark_tracer_names_resolve():
    # perfbench/tracer.py patches these by name, and its methods through the
    # class's own __dict__: one renamed or moved to a base class breaks
    # `perfbench/run.py --trace 1`.  The file is read, not imported, so no
    # bytecode is written next to it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
    for module, attr, _, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"dendrotensor.{module}"), attr))
    for module, cls_name, method, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"dendrotensor.{module}"), cls_name)
        assert method in cls.__dict__, f"{cls_name}.{method}"


# the package's modules, lowest layer first: a module imports only from the
# layers below it, at run time
LAYERS = ("treecore", "omegacat", "levelforest", "shuffle", "lurie", "render", "_rand", "suites", "cli", "__init__")
# the runtime imports that still reach up a layer, each from inside one
# function: (module, function, imported module, imported names)
UPWARD_IMPORTS = {
    ("levelforest", "FinSimplex.pointed_levels", "lurie", ("_pointed_levels",)),
    ("omegacat", "hom", "lurie", ("FreeForestOperad", "maps_into")),
    ("shuffle", "tensor_hom", "lurie", ("BVTensorOperad",)),
    ("shuffle", "_tensor_maps", "lurie", ("maps_into",)),
}


def _runtime_imports(tree, scope=""):
    """Each package-relative import of a module's AST as (function, imported
    module, imported names), leaving out the imports under ``if
    TYPE_CHECKING:``, which run only for a type checker."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            yield from _runtime_imports(ast.Module(body=node.orelse, type_ignores=[]), scope)
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # ``from . import a, b``
                for alias in node.names:
                    yield scope, alias.name, ()
            else:
                yield scope, node.module, tuple(alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _runtime_imports(node, f"{scope}.{node.name}" if scope else node.name)
        else:
            yield from _runtime_imports(node, scope)


def _upward_imports(package):
    """Every runtime import of the package's modules that does not point to
    a lower layer, read from their sources; no module is run."""
    out = set()
    for path in sorted(package.glob("*.py")):
        module = path.stem
        assert module in LAYERS, f"{module} has no layer"
        for scope, imported, names in _runtime_imports(ast.parse(path.read_text(encoding="utf-8"))):
            assert imported in LAYERS, f"{module} imports {imported}, which has no layer"
            if LAYERS.index(imported) >= LAYERS.index(module):
                out.add((module, scope, imported, names))
    return out


def test_imports_follow_the_layers():
    assert _upward_imports(Path(dendrotensor.__file__).parent) == UPWARD_IMPORTS


def test_a_fifth_upward_import_fails_the_layer_check(tmp_path):
    # negative control: the check reads a copy of the sources with one more
    # upward import, in a module-level statement of render, and finds it
    package = Path(dendrotensor.__file__).parent
    for path in package.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    render = tmp_path / "render.py"
    render.write_text(render.read_text(encoding="utf-8") + "\nfrom .suites import run_check\n", encoding="utf-8")
    assert _upward_imports(tmp_path) - UPWARD_IMPORTS == {("render", "", "suites", ("run_check",))}
