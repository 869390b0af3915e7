from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    FreeForestOperad,
    Operation,
    Tree,
    TreeError,
    Vertex,
    as_forest,
    classify_elementary,
    compose,
    eta,
    hom,
    identity_map,
    is_cut,
    is_valid,
    operations,
    parse_forest,
    parse_tree,
    validate,
)
from dendrotensor._rand import random_forest, random_tree

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def closure_operations(scope, e):
    """Reference for :func:`operations`: the closure of ``{e}`` under
    replacing one edge by the inputs of the vertex above it, deduplicated as
    edge sets and listed by size, then by sorted inputs."""
    t = as_forest(scope).component_of[e]
    seen = {frozenset((e,))}
    frontier = [frozenset((e,))]
    while frontier:
        cut = frontier.pop()
        for d in cut:
            v = t.vertex_above.get(d)
            if v is None:
                continue
            new = (cut - {d}) | set(v.in_edges)
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return tuple(
        Operation(e, tuple(sorted(c)))
        for c in sorted(seen, key=lambda c: (len(c), tuple(sorted(c))))
    )


def count_cuts_below(t, e):
    """Independent count of the cuts with output ``e``: either stop at ``e``
    itself, or open the vertex above ``e`` and cut below each input."""
    v = t.vertex_above.get(e)
    if v is None:
        return 1
    below = 1
    for d in v.in_edges:
        below *= count_cuts_below(t, d)
    return 1 + below


# -- operations --------------------------------------------------------------


def test_operation_normalizes_inputs():
    op = Operation("r", ("b", "a"))
    assert op.inputs == ("a", "b")
    with pytest.raises(TreeError):
        Operation("r", ("a", "a"))


def test_operations_fixed_counts():
    t = parse_tree("r[a[x,y],b[]]")
    assert len(operations(t, "r")) == count_cuts_below(t, "r") == 5
    assert set(operations(t, "r")) == {
        Operation("r", ("r",)),
        Operation("r", ("a", "b")),
        Operation("r", ("a",)),
        Operation("r", ("b", "x", "y")),
        Operation("r", ("x", "y")),
    }
    assert operations(t, "x") == (Operation("x", ("x",)),)
    # the stump edge admits its identity and the empty cut
    assert set(operations(t, "b")) == {Operation("b", ("b",)), Operation("b", ())}


def test_operations_match_recursive_product_oracle():
    rng = Random(11)
    for _ in range(80):
        t = random_tree(rng, 8, 0.3)
        for e in t.edges:
            got = operations(t, e)
            assert len(set(got)) == len(got)
            assert len(got) == count_cuts_below(t, e)
            assert all(op.output == e for op in got)
            assert all(is_cut(t, e, op.inputs) for op in got)


@given(seeds, st.sampled_from([0.0, 0.2, 0.5]))
@settings(max_examples=80, deadline=None)
def test_operations_equal_closure_oracle(seed, stump_probability):
    rng = Random(seed)
    scopes = [
        random_tree(rng, 10, stump_probability),
        random_forest(rng, 12, stump_probability),
    ]
    for scope in scopes:
        for e in as_forest(scope).edges:
            assert operations(scope, e) == closure_operations(scope, e)


def test_operations_on_deep_chain():
    # built with the constructor: the parser still recurses once per level
    n = 3000
    names = [f"c{k}" for k in range(n + 1)]
    chain = Tree(names[0], tuple(Vertex(names[k], (names[k + 1],)) for k in range(n)))
    ops = operations(chain, names[0])
    assert len(ops) == n + 1
    assert sorted(op.inputs for op in ops) == sorted((d,) for d in names)
    listed = FreeForestOperad(chain).ops_by_output(names[0])
    assert listed == tuple((op.inputs, (op,)) for op in ops)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_identity_cut_always_listed(seed):
    t = random_tree(Random(seed), 7, 0.3)
    for e in t.edges:
        assert Operation(e, (e,)) in operations(t, e)


def test_is_cut_rejects_non_cuts():
    t = parse_tree("r[a[x,y],b]")
    assert is_cut(t, "r", ["a", "b"])
    assert is_cut(t, "r", ["x", "y", "b"])
    assert not is_cut(t, "r", ["x", "b"])  # y missing
    assert not is_cut(t, "r", ["a", "x", "y", "b"])  # a and its inputs
    assert not is_cut(t, "a", ["b"])  # wrong branch


# -- maps --------------------------------------------------------------------


def test_hom_from_edge_counts_colors():
    t = parse_tree("r[a[x],b[]]")
    maps = hom(eta("e"), t)
    assert len(maps) == len(t.edges)
    assert sorted(m.edge["e"] for m in maps) == sorted(t.edges)


def test_hom_identity_and_validation():
    f = parse_forest("{r[a[x],b[]]}")
    ident = identity_map(f)
    validate(ident)
    for m in hom(f, f):
        validate(m)
    assert ident in hom(f, f)


def test_compose_with_identity():
    s, t = parse_tree("p[q]"), parse_tree("r[a[x],b]")
    for f in hom(s, t):
        assert compose(identity_map(t), f) == f
        assert compose(f, identity_map(s)) == f


def test_compose_associative_on_sampled_triples():
    a, b, c = parse_tree("p[q]"), parse_tree("r[a[x],b]"), parse_tree("u[v[w,z]]")
    for f in hom(a, b):
        for g in hom(b, c):
            for h in hom(c, c):
                lhs = compose(h, compose(g, f))
                rhs = compose(compose(h, g), f)
                assert lhs == rhs
                validate(lhs)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_hom_members_validate_random(seed):
    rng = Random(seed)
    s = random_tree(rng, 3, 0.25, prefix="s")
    t = random_tree(rng, 5, 0.25, prefix="t")
    for m in hom(s, t):
        assert is_valid(m)


def test_invalid_map_rejected():
    s, t = parse_tree("p[q]"), parse_tree("r[a,b]")
    bad = identity_map(t)
    # break a vertex image: output and inputs from different cuts
    from dendrotensor import OperadMap

    wrong = OperadMap(
        as_forest_source := bad.source,
        bad.target,
        dict(bad.edge),
        {"r": Operation("r", ("a",))},
    )
    assert not is_valid(wrong)
    with pytest.raises(TreeError):
        validate(wrong)
    assert as_forest_source is bad.source


# -- elementary shapes -------------------------------------------------------


def test_classify_identity_is_iso():
    t = parse_tree("r[a[x],b]")
    assert classify_elementary(identity_map(t)) == "iso"


def test_classify_edge_of_corolla():
    maps = hom(eta("e"), parse_tree("r[a,b]"))
    tags = {m.edge["e"]: classify_elementary(m) for m in maps}
    assert all(tag == "edge_of_corolla" for tag in tags.values())


def test_classify_faces():
    # inner face: contract the inner edge a
    whole = parse_tree("r[a[x,y],b]")
    squashed = parse_tree("r[b,x,y]")
    inner = [
        m
        for m in hom(squashed, whole)
        if m.edge["r"] == "r" and m.edge["x"] == "x" and m.edge["b"] == "b"
    ]
    assert inner and classify_elementary(inner[0]) == "inner_face"
    # outer face: include the top corolla
    top = parse_tree("a[x,y]")
    outer = [m for m in hom(top, whole) if m.edge["a"] == "a" and m.edge["x"] == "x"]
    assert outer and classify_elementary(outer[0]) == "outer_face"


def test_classify_degeneracy():
    plain = parse_tree("e")
    stretched = parse_tree("e[e1]")
    maps = [m for m in hom(stretched, plain)]
    assert any(classify_elementary(m) == "degeneracy" for m in maps)


# -- forest sources ----------------------------------------------------------


def test_hom_from_forest_is_product_over_components():
    src = parse_forest("{p;q}")
    tgt = parse_tree("r[a,b]")
    assert len(hom(src, tgt)) == len(tgt.edges) ** 2


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_empty_forest_is_initial(seed):
    tgt = random_forest(Random(seed), 5, 0.3)
    maps = hom(parse_forest("{}"), tgt)
    assert len(maps) == 1
    assert maps[0].edge == {} and maps[0].vertex == {}
