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
# the runtime imports that still reach up a layer, as (module, function,
# imported module, imported names): none
UPWARD_IMPORTS: set[tuple[str, str, str, tuple[str, ...]]] = set()


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
    assert _upward_imports(Path(dendrotensor.__file__).parent) == UPWARD_IMPORTS == set()


def test_a_fifth_upward_import_fails_the_layer_check(tmp_path):
    # negative control: the check reads a copy of the sources with one more
    # upward import, in a module-level statement of render, and finds it
    package = Path(dendrotensor.__file__).parent
    for path in package.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    render = tmp_path / "render.py"
    render.write_text(render.read_text(encoding="utf-8") + "\nfrom .suites import run_check\n", encoding="utf-8")
    assert _upward_imports(tmp_path) - UPWARD_IMPORTS == {("render", "", "suites", ("run_check",))}


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_value(file, name):
    """The literal assigned to ``name`` in ``perfbench/<file>``, read by
    AST: nothing there is imported or run."""
    for node in ast.parse((PERFBENCH / file).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{file} assigns no {name}")


def _untraced_modules(package):
    """The module files of ``package``, ``__init__`` aside, that the
    benchmark's ``MODULES`` leaves out: its tracer patches no function there,
    so their calls would read 0 in ``--trace 1``."""
    return {path.stem for path in package.glob("*.py")} - {"__init__"} - set(_perfbench_value("run.py", "MODULES"))


def _workload_lurie_names():
    """Each ``lurie.<name>`` that ``perfbench/workloads.py`` reads."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (getattr(node.value, "id", None) == "lurie" or getattr(node.value, "attr", None) == "lurie")
    }


def test_the_tracer_sees_every_module_and_the_defining_objects():
    # a function that moves into a module the tracer does not patch, or a
    # name perfbench reads through ``lurie`` that is not the object the
    # other modules call, would read 0 calls in ``--trace 1``: each name is
    # one object in every module that binds it, the defining one included
    package = Path(dendrotensor.__file__).parent
    assert _untraced_modules(package) == set()
    modules = [dendrotensor] + [importlib.import_module(f"dendrotensor.{path.stem}")
                                for path in sorted(package.glob("*.py")) if path.stem != "__init__"]
    read = [(module, attr) for module, attr, _, _ in _perfbench_value("tracer.py", "FUNCTIONS")]
    read += [(module, cls) for module, cls, _, _ in _perfbench_value("tracer.py", "METHODS")]
    workload_names = _workload_lurie_names()
    assert {"maps_into", "FreeForestOperad", "BVTensorOperad"} <= workload_names
    read += [("lurie", attr) for attr in sorted(workload_names)]
    for module, attr in read:
        obj = getattr(importlib.import_module(f"dendrotensor.{module}"), attr)
        assert getattr(importlib.import_module(obj.__module__), attr) is obj, f"{module}.{attr}"
        for other in modules:
            assert vars(other).get(attr, obj) is obj, f"{other.__name__}.{attr} is not {module}.{attr}"


def test_an_extra_module_is_reported_untraced(tmp_path):
    # negative control: a copy of the package with one more module file
    package = Path(dendrotensor.__file__).parent
    for path in package.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "extra.py").write_text('"""An extra module."""\n', encoding="utf-8")
    assert _untraced_modules(tmp_path) == {"extra"}


TESTS = Path(__file__).resolve().parent


def _rebound_names(directory):
    """Each (module, name) where a ``*.py`` file in ``directory`` binds a
    top-level function or class name a second time: the later binding
    shadows the earlier, and a shadowed ``test_*`` is never collected."""
    out = set()
    for path in sorted(directory.glob("*.py")):
        seen = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    out.add((path.stem, node.name))
                seen.add(node.name)
    return out


def test_no_test_module_binds_a_top_level_name_twice():
    assert _rebound_names(TESTS) == set()


def test_a_second_def_is_reported_rebound(tmp_path):
    # negative control: a copy of a test module with one test defined again
    source = (TESTS / "test_package.py").read_text(encoding="utf-8")
    (tmp_path / "test_copy.py").write_text(
        source + "\n\ndef test_exports_are_unchanged_and_resolve():\n    pass\n", encoding="utf-8"
    )
    assert _rebound_names(tmp_path) == {("test_copy", "test_exports_are_unchanged_and_resolve")}
