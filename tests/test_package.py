import dendrotensor

# the names the package exported when ``__all__`` was kept by hand
EXPORTED = {
    "Forest", "Tree", "TreeError", "Vertex", "add_stumps", "as_forest",
    "contract_inner", "corolla", "cut_at", "eta", "graft", "interior",
    "max_edges", "parse_forest", "parse_tree", "serialize_forest",
    "serialize_tree",
    "Operation", "OperadMap", "classify_elementary", "compose", "hom",
    "identity_map", "is_cut", "is_valid", "operations", "validate",
    "STAR", "FinSimplex", "RetractWitness", "SimplicialOperator", "edge_name",
    "omega_mor", "omega_obj", "restrict", "retract_witness",
    "AssocResult", "InteriorDecomposition", "TensorHom", "TransportResult",
    "assoc_inclusion", "decode", "encode", "flatten_name", "inclusion_map",
    "interior_decomposition", "intersect", "shuffles", "count_shuffles",
    "stump_transport", "tensor_hom",
    "BVTensorOperad", "Chain", "EllMorphism", "EllObject", "EllPresentation",
    "FibrousReport", "FinPtdMor", "FinPtdObj", "FiniteOperad", "ForestInto",
    "FreeForestOperad", "FreeTerm", "TableOperad", "chain_to_map",
    "check_fibrous", "classify", "defect_fixtures", "ell_compose", "ell_hom",
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

