import math
from bisect import insort
from itertools import permutations, product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    BVTensorOperad,
    Forest,
    ForestInto,
    FreeForestOperad,
    OperadMap,
    Operation,
    Tree,
    TableOperad,
    TreeError,
    Vertex,
    as_forest,
    classify_elementary,
    compose,
    hom,
    identity_map,
    is_cut,
    maps_into,
    operations,
    parse_forest,
    parse_tree,
    precompose,
    validate,
)
from dendrotensor import omegacat as omegacat_module
from dendrotensor._rand import random_forest, random_tree
from dendrotensor.omegacat import _cut_total, _edge_moves, _fold, _rows_above
from dendrotensor.shuffle import _state_table

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def eta(name="e"):
    """The edge-only tree."""
    return Tree(name, ())


def is_valid(f):
    """Whether :func:`validate` accepts ``f``."""
    try:
        validate(f)
    except TreeError:
        return False
    return True


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
                return frozenset((g.color[d],))
            v = t.vertex_above.get(d)
            if v is None:
                raise TreeError(f"invalid cut {op} pushed through map")
            out = frozenset()
            for c in v.in_edges:
                out |= img(c, mem & t.subtree_edges(c))
            return out

        return Operation(g.color[op.output], tuple(sorted(img(op.output, op.input_set))))

    colors = {d: g.color[img] for d, img in f.color.items()}
    components = {w: push(op) for w, op in f.component.items()}
    return OperadMap.build(f.source, g.target, colors, components)


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

    cmap = {e: m.color[img] for e, img in h.color.items()}
    vmap = {w: eval_cut(op) for w, op in h.component.items()}
    return ForestInto(tuple(sorted(cmap.items())), tuple(sorted(vmap.items())))


def replaced_push(g, op):
    """Reference for the image of a cut under :func:`compose`: the walk
    that replaced :func:`oracle_compose`'s split, which reads only ``g``'s
    colors and so never checks its vertex images."""
    t = g.source.component_of[op.output]
    if omegacat_module._cut_interior(t, op.output, op.input_set) is None:
        raise TreeError(f"invalid cut {op} pushed through map")
    return Operation(g.color[op.output], tuple(g.color[d] for d in op.inputs))


def replaced_compose(g, f):
    colors = {d: g.color[img] for d, img in f.colors}
    components = {w: replaced_push(g, op) for w, op in f.components}
    return OperadMap.build(f.source, g.target, colors, components)


def replaced_eval_cut(p, m, forest, op):
    """Reference for the image of a cut under :func:`precompose`: the
    components of ``m`` substituted bottom-up over the edges inside the
    cut, each result checked by ``p.subst`` with one more walk."""
    t = forest.component_of[op.output]
    interior = omegacat_module._cut_interior(t, op.output, op.input_set)
    if interior is None:
        raise TreeError(f"invalid cut {op} evaluated through map")
    value = {d: p.identity(m.color[d]) for d in op.inputs}
    for e in reversed(interior):
        args = {m.color[d]: value[d] for d in t.vertex_above[e].in_edges}
        value[e] = p.subst(m.component[e], args)
    return value[op.output]


def replaced_precompose(p, m, h):
    return ForestInto.build(
        ((e, m.color[img]) for e, img in h.colors),
        ((w, replaced_eval_cut(p, m, h.target, op)) for w, op in h.components),
    )


def chain_tree(n):
    """The chain ``c0[c1[...[cn]]]`` with ``n`` vertices, built with the
    constructor."""
    names = [f"c{k}" for k in range(n + 1)]
    return Tree(names[0], tuple(Vertex(names[k], (names[k + 1],)) for k in range(n)))


def binary_text(depth, prefix):
    """The complete binary tree with ``depth`` levels of vertices, its edges
    named ``prefix`` and a number, in preorder."""
    names = iter(range(2 ** (depth + 1)))

    def build(d):
        name = f"{prefix}{next(names)}"
        return name if d == 0 else f"{name}[{build(d - 1)},{build(d - 1)}]"

    return build(depth)


def _cut_order(inputs):
    return len(inputs), inputs


def oracle_cut_table(t, e, memo=None):
    """Reference for the cut fold on trees: the tree-only table it replaced.
    The input sets of the cuts of ``t`` with output ``e``, each a sorted
    tuple, listed by size and then lexicographically; every table above
    ``e`` sorted as it is built, and kept in ``memo`` when one is given."""
    keep = memo is not None
    tables = memo if keep else {}
    order = []
    pending = [e]
    while pending:
        d = pending.pop()
        if d in tables:
            continue
        order.append(d)
        v = t.vertex_above.get(d)
        if v is not None:
            pending.extend(v.in_edges)
    take = tables.__getitem__ if keep else tables.pop
    for d in reversed(order):
        v = t.vertex_above.get(d)
        if v is None:
            cuts = [(d,)]
        elif len(v.in_edges) == 1:
            below = take(v.in_edges[0])
            cuts = list(below) if keep else below
            insort(cuts, (d,), key=_cut_order)
        else:
            unions = [()]
            for c in v.in_edges:
                below = take(c)
                unions = [u + cut for u in unions for cut in below]
            cuts = [tuple(sorted(u)) for u in unions]
            cuts.append((d,))
            cuts.sort()
            cuts.sort(key=len)
        tables[d] = cuts
    return tables[e] if keep else tables.pop(e)


# -- operations --------------------------------------------------------------


def test_operation_normalizes_inputs():
    op = Operation("r", ("b", "a"))
    assert op.inputs == ("a", "b")
    with pytest.raises(TreeError):
        Operation("r", ("a", "a"))


def test_operation_is_a_checked_pair():
    # a tuple (output, inputs): the dataclass's repr, str, order and hash,
    # read-only fields, and equal to the plain pair it is made of
    op = Operation("r", ("b", "a"))
    assert repr(op) == "Operation(output='r', inputs=('a', 'b'))"
    assert str(op) == "r<-(a,b)"
    assert str(Operation("b", ())) == "b<-()"
    assert op == Operation("r", ["a", "b"]) == omegacat_module._operation("r", ("a", "b"))
    assert hash(op) == hash(Operation("r", ("a", "b"))) == hash(("r", ("a", "b")))
    assert op == ("r", ("a", "b"))
    assert op.input_set == frozenset("ab") and not op.is_identity
    assert Operation("r", ("r",)).is_identity
    with pytest.raises(TreeError, match="duplicate inputs in operation at 'r'"):
        Operation("r", ("a", "b", "a"))
    for field in ("output", "inputs", "other"):
        with pytest.raises(AttributeError):
            setattr(op, field, "x")
    rng = Random(3)
    ops = [op for _ in range(12) for t in [random_tree(rng, 6, 0.3)] for e in t.edges for op in operations(t, e)]
    rng.shuffle(ops)
    assert sorted(ops) == sorted(ops, key=lambda o: (o.output, o.inputs))


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
    # read from its text: the parser keeps open vertices on a stack, so a
    # chain 3,000 levels deep stays clear of the recursion limit
    n = 3000
    names = [f"c{k}" for k in range(n + 1)]
    chain = parse_tree(names[0] + "".join(f"[{e}" for e in names[1:]) + "]" * n)
    assert chain == chain_tree(n)
    ops = operations(chain, names[0])
    assert len(ops) == n + 1
    assert sorted(op.inputs for op in ops) == sorted((d,) for d in names)
    listed = FreeForestOperad(chain).ops_by_output(names[0])
    assert listed == tuple((op.inputs, (op,)) for op in ops)


def tree_moves(trees):
    """An edge's moves, as :func:`operations` walks them: the inputs of the
    vertex above it, if any."""
    above = {}
    for t in trees:
        above |= t.vertex_above
    return lambda d: () if (v := above.get(d)) is None else (v.in_edges,)


def fold_above(trees, node, limit=math.inf, memo=None):
    """``node``'s cuts from a fold of the rows weakly above it: into ``memo``,
    which keeps every list and is folded only where it lacks a row, as a
    free operad folds, or without one, every list read dropped, as
    :func:`operations` folds."""
    keep = memo is not None
    tables = memo if keep else {}
    _fold(_rows_above(tree_moves(trees), node, tables), tables, limit, keep)
    return tables[node]


@given(seeds, st.sampled_from([0.0, 0.2, 0.5]))
@settings(max_examples=100, deadline=None)
def test_cut_fold_equals_table_oracle(seed, stump_probability):
    # the same lists in the same order, from one fold of the whole state
    # table into a memo, from folds of the rows above each edge into a memo
    # shared by every edge, and from such folds without a memo, the edges
    # asked for in a random order
    rng = Random(seed)
    forest = random_forest(rng, 16, stump_probability, min_components=1)
    memo, lazy = {}, {}
    _fold([row for t in forest.components for row in _state_table([t])], memo)
    assert set(memo) == set(forest.edges)
    for t in forest.components:
        oracle_memo = {}
        edges = list(t.edges)
        rng.shuffle(edges)
        for e in edges:
            want = oracle_cut_table(t, e)
            assert sorted(memo[e], key=len) == want
            assert sorted(fold_above([t], e, memo=lazy), key=len) == want
            assert sorted(fold_above([t], e), key=len) == want
            assert oracle_cut_table(t, e, oracle_memo) == want


@given(seeds, st.sampled_from([0.0, 0.2, 0.5]))
@settings(max_examples=100, deadline=None)
def test_rows_above_are_the_state_table_rows_above(seed, stump_probability):
    # an edge's moves are its moves in the one-factor state table, a
    # stump's one empty move included.  From the root the walk is that
    # table; from an edge, the rows of the edges weakly above it, each after
    # the rows its moves reach; rows already done are left out and the rest
    # keep their order
    rng = Random(seed)
    forest = random_forest(rng, 16, stump_probability, min_components=1)
    for t in forest.components:
        moves = _edge_moves(t)
        assert [(d, tuple(m)) for d, m in _state_table([t])] == [(d, moves(d)) for d, _ in _state_table([t])]
        rows = lambda e, done=(): [(d, tuple(m)) for d, m in _rows_above(moves, e, done)]
        assert rows(t.root) == [(d, tuple(m)) for d, m in _state_table([t])]
        for e in t.edges:
            above = rows(e)
            assert {d for d, _ in above} == set(t.subtree_edges(e))
            assert above[-1][0] == e
            seen = set()
            for d, m in above:
                assert all(c in seen for move in m for c in move)
                seen.add(d)
            done = {d for d, _ in rows(rng.choice(t.edges))}
            assert rows(e, done) == [row for row in above if row[0] not in done]


def test_rows_above_rows_a_node_reached_twice_once():
    # c is reached from a and again from b before a's move to it is walked
    moves = {"a": [("c", "b")], "b": [("c",)], "c": []}
    assert _rows_above(moves.__getitem__, "a") == [("c", []), ("b", [("c",)]), ("a", [("c", "b")])]
    assert _rows_above(moves.__getitem__, "a", {"c"}) == [("b", [("c",)]), ("a", [("c", "b")])]


def oracle_fold_cuts(node, moves_of, key=None, memo=None, limit=None):
    """``_fold_cuts`` before it lost its sort ``key`` and its unbounded
    branch: listed by inputs, then stably by ``key``; ``limit=None`` lists
    every cut and skips the size check."""
    keep = memo is not None
    tables = memo if keep else {}
    take = tables.__getitem__ if keep else tables.pop
    stack = [node]
    while stack:
        d = stack.pop()
        if type(d) is str:
            if d not in tables:
                stack.append((d, moves := moves_of(d)))
                for move in moves:
                    stack += move
            continue
        d, moves = d
        if len(moves) == 1 and len(moves[0]) == 1:
            cuts = take(moves[0][0])
            if keep:
                cuts = cuts.copy()
            cuts.append((d,))
            cuts.sort()
        elif moves:
            cuts = [(d,)]
            for move in moves:
                unions = [()]
                for c in move:
                    below = take(c)
                    if limit is None:
                        unions = [u + cut for u in unions for cut in below]
                    else:
                        unions = [
                            u + cut for u in unions for cut in below if len(u) + len(cut) <= limit
                        ]
                cuts += unions if len(move) == 1 else [tuple(sorted(u)) for u in unions]
            cuts = sorted(set(cuts) if len(moves) > 1 else cuts)
        else:
            cuts = [(d,)]
        tables[d] = cuts
    cuts = tables[node] if keep else tables.pop(node)
    return sorted(cuts, key=key) if key else cuts


@given(seeds, st.sampled_from([0.0, 0.2, 0.5]), st.sampled_from([None, 0, 1, 2, 3, 5]))
@settings(max_examples=100, deadline=None)
def test_cut_fold_equals_keyed_fold_oracle(seed, stump_probability, limit):
    # one bound checked on every union, ``inf`` for none, and the caller's
    # sort give the lists the keyed, two-branch fold gave, memo or not
    rng = Random(seed)
    forest = random_forest(rng, 16, stump_probability, min_components=1)
    bound = math.inf if limit is None else limit
    for t in forest.components:
        moves = tree_moves([t])
        memo, lazy, oracle_memo = {}, {}, {}
        _fold(_state_table([t]), memo, bound)
        edges = list(t.edges)
        rng.shuffle(edges)
        for e in edges:
            for key in (None, len):
                want = oracle_fold_cuts(e, moves, key, oracle_memo, limit)
                assert sorted(memo[e], key=key) == want
                assert sorted(fold_above([t], e, bound, lazy), key=key) == want
                assert sorted(fold_above([t], e, bound), key=key) == want


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
    m = ForestInto(ident.colors, ident.components)
    h = OperadMap.build(
        parse_tree("s[u]"), chain, {"s": "c0", "u": f"c{n}"},
        {"s": Operation("c0", (f"c{n}",))},
    )
    got = precompose(FreeForestOperad(chain), m, h)
    assert got == ForestInto(h.colors, h.components)


# -- maps --------------------------------------------------------------------


def test_hom_from_edge_counts_colors():
    t = parse_tree("r[a[x],b[]]")
    maps = hom(eta("e"), t)
    assert len(maps) == len(t.edges)
    assert sorted(m.color["e"] for m in maps) == sorted(t.edges)


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
    a = random_forest(rng, 5, stump_probability)
    b = random_tree(rng, 6, stump_probability, prefix="b")
    c = random_forest(rng, 6, stump_probability)
    # self-maps of ``b`` send its vertices to cuts with several inputs
    fs, gs = hom(a, b) + hom(b, b), hom(b, c) + hom(b, b)
    for f, g in product(rng.sample(fs, min(6, len(fs))), rng.sample(gs, min(6, len(gs)))):
        got = compose(g, f)
        assert got == oracle_compose(g, f) == replaced_compose(g, f)
        validate(got)


@given(seeds, st.sampled_from([0.0, 0.3]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_precompose_equals_recursive_oracle(seed, stump_probability, tensor):
    rng = Random(seed)
    s = random_forest(rng, 5, stump_probability)
    t = random_forest(rng, 6, stump_probability)
    if tensor:
        p = BVTensorOperad([parse_tree("p[x,y]"), parse_tree("q[u]")])
    else:
        p = FreeForestOperad(random_forest(rng, 5, stump_probability))
    ms, hs = maps_into(t, p), hom(s, t) + hom(t, t)
    for m, h in product(rng.sample(ms, min(6, len(ms))), rng.sample(hs, min(6, len(hs)))):
        got = precompose(p, m, h)
        assert got == oracle_precompose(p, m, h) == replaced_precompose(p, m, h)


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
    m = ForestInto(ident.colors, ident.components)
    with pytest.raises(TreeError, match="invalid cut"):
        precompose(FreeForestOperad(f.target), m, f)


def test_compose_checks_the_vertex_images_it_reads():
    # ``g`` sends its vertex to the non-cut ``r<-(a,x)`` of ``r[a[x]]``; the
    # replaced push read only colors and returned a map
    g = _non_cut_images()[0]
    f = identity_map(g.source)
    assert replaced_compose(g, f).component["s"] == Operation("r", ("a", "x"))
    with pytest.raises(TreeError, match="image is not a cut"):
        compose(g, f)


def test_compose_rejects_disagreeing_middle_forests():
    f = identity_map(parse_tree("r[a,b]"))
    g = identity_map(parse_tree("r[a[b]]"))
    with pytest.raises(TreeError, match="middle forests disagree"):
        compose(g, f)


def test_compose_checks_each_vertex_once_and_skips_a_shared_middle(monkeypatch):
    # the identity of a chain after a map sending both components of
    # ``{s[u];t[w]}`` onto the whole chain: both image cuts cover every
    # vertex of ``g``
    n = 6
    chain = chain_tree(n)
    g = identity_map(chain)
    f = OperadMap.build(
        parse_forest("{s[u];t[w]}"), g.source, {"s": "c0", "u": f"c{n}", "t": "c0", "w": f"c{n}"},
        {"s": Operation("c0", (f"c{n}",)), "t": Operation("c0", (f"c{n}",))},
    )
    validate(f)
    checked, keys = [], []
    check, key = omegacat_module._check_vertex, Forest.canonical_key
    monkeypatch.setattr(omegacat_module, "_check_vertex", lambda has, m, v: checked.append(v) or check(has, m, v))
    monkeypatch.setattr(Forest, "canonical_key", lambda self: keys.append(self) or key(self))
    assert compose(g, f) == replaced_compose(g, f)
    assert len(checked) == len(set(checked)) == n and keys == []
    assert compose(identity_map(chain), f) == replaced_compose(g, f)
    assert len(keys) == 2  # another middle forest, equal in value, is compared


def _table_target():
    """A map out of ``c0[c1[c2]]`` into a one-color table, and maps into
    that chain: a degeneracy, whose vertex image is an identity cut, and one
    sending a vertex to the whole chain."""
    p = TableOperad.from_json(
        {"colors": ["c"], "operations": [{"inputs": ["c"], "output": "c", "elements": ["u"]}]}
    )
    chain = chain_tree(2)
    m = ForestInto.build(((e, "c") for e in chain.edges), ((e, "u") for e in ("c0", "c1")))
    source = parse_tree("s[w]")
    degeneracy = OperadMap.build(source, chain, {"s": "c1", "w": "c1"}, {"s": Operation("c1", ("c1",))})
    deep = OperadMap.build(source, chain, {"s": "c0", "w": "c2"}, {"s": Operation("c0", ("c2",))})
    return p, m, [degeneracy, deep]


@pytest.mark.parametrize("which", [0, 1], ids=["identity-cut", "deep"])
def test_precompose_into_a_table_raises_tree_error(which):
    # the identity cut once gave the table's ``id:c`` label; the deep cut
    # raised NotImplementedError from the table's missing substitution
    p, m, hs = _table_target()
    with pytest.raises(TreeError, match="cut operad"):
        precompose(p, m, hs[which])


def test_precompose_walks_each_cut_once(monkeypatch):
    # the edges inside every cut walked, over one precompose onto the whole
    # of a deep chain: the cut itself, then one generator per vertex inside
    n = 1500
    chain = chain_tree(n)
    ident = identity_map(chain)
    m = ForestInto(ident.colors, ident.components)
    h = OperadMap.build(
        parse_tree("s[u]"), chain, {"s": "c0", "u": f"c{n}"},
        {"s": Operation("c0", (f"c{n}",))},
    )
    p = FreeForestOperad(chain)
    walk = omegacat_module._cut_interior
    steps = 0

    def counted(t, e, members):
        nonlocal steps
        interior = walk(t, e, members)
        steps += len(interior or ())
        return interior

    monkeypatch.setattr(omegacat_module, "_cut_interior", counted)
    assert precompose(p, m, h) == ForestInto(h.colors, h.components)
    assert steps <= 3 * n
    steps = 0
    replaced_precompose(p, m, h)  # a walk per substitution, each up to the cut
    assert steps == 1_127_250


@given(seeds, st.sampled_from([0.0, 0.3, 0.6]))
@settings(max_examples=60, deadline=None)
def test_cut_total_counts_every_operation(seed, stump_probability):
    f = random_forest(Random(seed), 8, stump_probability)
    assert _cut_total(f) == sum(len(operations(f, e)) for e in f.edges)


def test_invalid_map_rejected():
    s, t = parse_tree("p[q]"), parse_tree("r[a,b]")
    bad = identity_map(t)
    # break a vertex image: output and inputs from different cuts
    from dendrotensor import OperadMap

    wrong = OperadMap(
        source=(as_forest_source := bad.source),
        target=bad.target,
        colors=bad.colors,
        components=(("r", Operation("r", ("a",))),),
    )
    assert not is_valid(wrong)
    with pytest.raises(TreeError):
        validate(wrong)
    assert as_forest_source is bad.source


def test_out_of_order_pairs_rejected():
    # the identity's own pairs, reversed: every key and image is right, yet
    # the record compares unequal to the identity, so validate refuses it
    from dendrotensor import OperadMap

    ident = identity_map(parse_tree("r[a,b]"))
    flipped = OperadMap(ident.colors[::-1], ident.components, ident.source, ident.target)
    assert flipped.color == ident.color and flipped != ident
    with pytest.raises(TreeError, match="sorted"):
        validate(flipped)
    ident = identity_map(parse_tree("r[a[x],b[y]]"))
    for colors, components in [
        (ident.colors, ident.components[::-1]),
        (ident.colors + ident.colors[-1:], ident.components),  # a repeated edge
    ]:
        with pytest.raises(TreeError, match="sorted"):
            validate(OperadMap(colors, components, ident.source, ident.target))
    validate(ident)


# -- elementary shapes -------------------------------------------------------


def test_classify_identity_is_iso():
    t = parse_tree("r[a[x],b]")
    assert classify_elementary(identity_map(t)) == "iso"


def test_classify_edge_of_corolla():
    maps = hom(eta("e"), parse_tree("r[a,b]"))
    tags = {m.color["e"]: classify_elementary(m) for m in maps}
    assert all(tag == "edge_of_corolla" for tag in tags.values())


def test_classify_faces():
    # inner face: contract the inner edge a
    whole = parse_tree("r[a[x,y],b]")
    squashed = parse_tree("r[b,x,y]")
    inner = [
        m
        for m in hom(squashed, whole)
        if m.color["r"] == "r" and m.color["x"] == "x" and m.color["b"] == "b"
    ]
    assert inner and classify_elementary(inner[0]) == "inner_face"
    # outer face: include the top corolla
    top = parse_tree("a[x,y]")
    outer = [m for m in hom(top, whole) if m.color["a"] == "a" and m.color["x"] == "x"]
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
    assert maps[0].color == {} and maps[0].component == {}
