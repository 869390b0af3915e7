from itertools import permutations, product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    BVTensorOperad,
    ForestInto,
    FreeForestOperad,
    OperadMap,
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
    maps_into,
    operations,
    parse_forest,
    parse_tree,
    precompose,
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


def oracle_hom(source, target):
    """Reference for :func:`hom`: the recursive search it replaced, which
    maps each source vertex to a target cut of its arity in every input
    matching, root images in the order of the target's edges."""
    src, tgt = as_forest(source), as_forest(target)
    cuts = {}

    def ops_at(e):
        if e not in cuts:
            cuts[e] = operations(tgt, e)
        return cuts[e]

    def embeddings(s_tree, s_edge, t_edge, memo):
        key = (s_edge, t_edge)
        if key in memo:
            return memo[key]
        v = s_tree.vertex_above.get(s_edge)
        if v is None:
            memo[key] = [({s_edge: t_edge}, {})]
            return memo[key]
        out = []
        k = len(v.in_edges)
        for op in ops_at(t_edge):
            if len(op.inputs) != k:
                continue
            for image in permutations(op.inputs):
                branches = [
                    embeddings(s_tree, d, image[i], memo)
                    for i, d in enumerate(v.in_edges)
                ]
                if any(not b for b in branches):
                    continue
                for combo in product(*branches):
                    e_map, v_map = {s_edge: t_edge}, {s_edge: op}
                    for fe, fv in combo:
                        e_map.update(fe)
                        v_map.update(fv)
                    out.append((e_map, v_map))
        memo[key] = out
        return out

    per_component = []
    for t in src.components:
        memo = {}
        per_component.append(
            [f for root_image in tgt.edges for f in embeddings(t, t.root, root_image, memo)]
        )
    maps = []
    for combo in product(*per_component):
        e_map, v_map = {}, {}
        for fe, fv in combo:
            e_map.update(fe)
            v_map.update(fv)
        maps.append(OperadMap.build(src, tgt, e_map, v_map))
    return tuple(maps)


def oracle_is_cut(t, e, members):
    """Reference for :func:`is_cut`: the recursive descent it replaced."""
    mem = frozenset(members)
    if not mem <= t.subtree_edges(e):
        return False

    def go(d, m):
        if m == frozenset((d,)):
            return True
        if d in m:
            return False
        v = t.vertex_above.get(d)
        if v is None:
            return False
        return all(go(c, m & t.subtree_edges(c)) for c in v.in_edges)

    return go(e, mem)


def oracle_compose(g, f):
    """Reference for :func:`compose` on valid maps: each cut is pushed
    through ``g`` by the recursive split over the branches it replaced."""

    def push(op):
        t = g.source.component_of[op.output]

        def img(d, mem):
            if mem == frozenset((d,)):
                return frozenset((g.edge[d],))
            v = t.vertex_above.get(d)
            if v is None:
                raise TreeError(f"invalid cut {op} pushed through map")
            out = frozenset()
            for c in v.in_edges:
                out |= img(c, mem & t.subtree_edges(c))
            return out

        return Operation(g.edge[op.output], tuple(sorted(img(op.output, op.input_set))))

    edge_map = {d: g.edge[img] for d, img in f.edge.items()}
    vertex_map = {w: push(op) for w, op in f.vertex.items()}
    return OperadMap.build(f.source, g.target, edge_map, vertex_map)


def oracle_precompose(p, m, h):
    """Reference for :func:`precompose` on valid maps: each cut is evaluated
    by the recursive substitution down from its output it replaced."""

    def eval_cut(op):
        t = h.target.component_of[op.output]

        def ev(e, mem):
            if mem == frozenset((e,)):
                return p.identity(m.color[e])
            v = t.vertex_above[e]
            args = {m.color[d]: ev(d, mem & t.subtree_edges(d)) for d in v.in_edges}
            return p.subst(m.component[e], args)

        return ev(op.output, op.input_set)

    cmap = {e: m.color[img] for e, img in h.edge.items()}
    vmap = {w: eval_cut(op) for w, op in h.vertex.items()}
    return ForestInto(tuple(sorted(cmap.items())), tuple(sorted(vmap.items())))


def chain_tree(n):
    """The chain ``c0[c1[...[cn]]]`` with ``n`` vertices, built with the
    constructor."""
    names = [f"c{k}" for k in range(n + 1)]
    return Tree(names[0], tuple(Vertex(names[k], (names[k + 1],)) for k in range(n)))


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
    chain = chain_tree(n)
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


@given(seeds, st.sampled_from([0.0, 0.2, 0.5]))
@settings(max_examples=80, deadline=None)
def test_is_cut_equals_recursive_oracle(seed, stump_probability):
    rng = Random(seed)
    t = random_tree(rng, 10, stump_probability)
    for e in t.edges:
        cuts = [op.inputs for op in operations(t, e)]
        candidates = [rng.choice(cuts) for _ in range(3)]
        candidates += [rng.sample(t.edges, rng.randint(0, len(t.edges))) for _ in range(6)]
        above = sorted(t.subtree_edges(e))
        candidates += [rng.sample(above, rng.randint(0, len(above))) for _ in range(6)]
        for members in candidates:
            assert is_cut(t, e, members) == oracle_is_cut(t, e, members)


def test_is_cut_needs_an_edge_of_the_tree():
    with pytest.raises(TreeError, match="no edge 'z'"):
        is_cut(parse_tree("r[a]"), "z", ["z"])


def test_cut_walk_on_deep_chain():
    # 5000 levels: the recursive descent raised RecursionError here
    n = 5000
    chain = chain_tree(n)
    assert is_cut(chain, "c0", [f"c{n}"])
    assert is_cut(chain, "c0", ["c2500"])
    assert is_cut(chain, "c17", ["c17"])
    assert not is_cut(chain, "c0", [f"c{n - 1}", f"c{n}"])
    assert not is_cut(chain, "c10", ["c3"])
    f = OperadMap.build(
        parse_tree("s[u]"), chain, {"s": "c0", "u": f"c{n}"},
        {"s": Operation("c0", (f"c{n}",))},
    )
    validate(f)
    assert compose(identity_map(chain), f) == f


def test_precompose_on_deep_chain():
    n = 1500
    chain = chain_tree(n)
    ident = identity_map(chain)
    m = ForestInto(ident.edge_map, ident.vertex_map)
    h = OperadMap.build(
        parse_tree("s[u]"), chain, {"s": "c0", "u": f"c{n}"},
        {"s": Operation("c0", (f"c{n}",))},
    )
    got = precompose(FreeForestOperad(chain), m, h)
    assert got == ForestInto(h.edge_map, h.vertex_map)


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


@given(seeds, st.sampled_from([0.0, 0.3]), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=120, deadline=None)
def test_hom_equals_recursive_oracle(seed, stump_probability, source_kind, target_kind):
    rng = Random(seed)
    source = [
        random_tree(rng, 5, stump_probability, prefix="s"),
        random_forest(rng, 5, stump_probability),
        parse_forest("{}"),
    ][source_kind]
    target = [
        random_tree(rng, 7, stump_probability, prefix="t"),
        random_forest(rng, 7, stump_probability),
        parse_forest("{}"),
    ][target_kind]
    # self-maps send vertices to cuts with several inputs in every matching
    for a, b in ((source, target), (target, target)):
        assert hom(a, b) == oracle_hom(a, b)


def test_hom_equals_recursive_oracle_on_large_targets():
    source = parse_tree("s[u,v[w]]")
    for text in ("r[a[x,y[p,q]],b[c,d[]],e]", "r[a[b[c[d[e[f]]]]],g[h[],i]]"):
        target = parse_tree(text)
        got = hom(source, target)
        assert got and got == oracle_hom(source, target)


@given(seeds, st.sampled_from([0.0, 0.3]))
@settings(max_examples=60, deadline=None)
def test_compose_equals_recursive_oracle(seed, stump_probability):
    rng = Random(seed)
    a = random_tree(rng, 5, stump_probability, prefix="a")
    b = random_tree(rng, 6, stump_probability, prefix="b")
    c = random_forest(rng, 6, stump_probability)
    # self-maps of ``b`` send its vertices to cuts with several inputs
    fs, gs = hom(a, b) + hom(b, b), hom(b, c) + hom(b, b)
    for f, g in product(rng.sample(fs, min(6, len(fs))), rng.sample(gs, min(6, len(gs)))):
        assert compose(g, f) == oracle_compose(g, f)


@given(seeds, st.sampled_from([0.0, 0.3]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_precompose_equals_recursive_oracle(seed, stump_probability, tensor):
    rng = Random(seed)
    s = random_tree(rng, 5, stump_probability, prefix="s")
    t = random_tree(rng, 6, stump_probability, prefix="t")
    if tensor:
        p = BVTensorOperad([parse_tree("p[x,y]"), parse_tree("q[u]")])
    else:
        p = FreeForestOperad(random_tree(rng, 5, stump_probability, prefix="u"))
    ms, hs = maps_into(t, p), hom(s, t) + hom(t, t)
    for m, h in product(rng.sample(ms, min(6, len(ms))), rng.sample(hs, min(6, len(hs)))):
        assert precompose(p, m, h) == oracle_precompose(p, m, h)


def _non_cut_images():
    """Maps into ``r[a[x]]`` whose vertex image is not a cut: ``x`` above
    ``a``, and an input below the output."""
    target = parse_tree("r[a[x]]")
    return [
        OperadMap.build(
            parse_tree("s[u,w]"), target, {"s": "r", "u": "a", "w": "x"},
            {"s": Operation("r", ("a", "x"))},
        ),
        OperadMap.build(
            parse_tree("s[u]"), target, {"s": "a", "u": "r"},
            {"s": Operation("a", ("r",))},
        ),
    ]


@pytest.mark.parametrize("f", _non_cut_images(), ids=["nested", "below"])
def test_compose_rejects_non_cut_images(f):
    assert not is_valid(f)
    with pytest.raises(TreeError, match="invalid cut"):
        compose(identity_map(f.target), f)


@pytest.mark.parametrize("f", _non_cut_images(), ids=["nested", "below"])
def test_precompose_rejects_non_cut_images(f):
    ident = identity_map(f.target)
    m = ForestInto(ident.edge_map, ident.vertex_map)
    with pytest.raises(TreeError, match="invalid cut"):
        precompose(FreeForestOperad(f.target), m, f)


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
