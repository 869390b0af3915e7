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
