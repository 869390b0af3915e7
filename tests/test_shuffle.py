import re
from functools import lru_cache
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    BVTensorOperad,
    TensorHom,
    Tree,
    TreeError,
    Vertex,
    assoc_inclusion,
    count_shuffles,
    decode,
    encode,
    hom,
    inclusion_map,
    interior_decomposition,
    intersect,
    max_edges,
    parse_forest,
    parse_tree,
    serialize_tree,
    shuffles,
    stump_transport,
    tensor_hom,
    validate,
)
from dendrotensor import lurie as lurie_module
from dendrotensor import omegacat as omegacat_module
from dendrotensor._rand import random_tree
from dendrotensor.omegacat import _fold
from dendrotensor.shuffle import _shuffle_texts, _state_table

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def linear(prefix, n):
    """A chain with ``n`` unary vertices: prefix0[prefix1[...]]."""
    names = [f"{prefix}{k}" for k in range(n + 1)]
    return Tree(names[0], tuple(Vertex(names[k], (names[k + 1],)) for k in range(n)))


@lru_cache(maxsize=None)
def lattice_paths(state):
    """Independent count of interleavings of chains: walk a grid, one step
    per remaining vertex of some chain."""
    if all(s == 0 for s in state):
        return 1
    total = 0
    for i, s in enumerate(state):
        if s:
            total += lattice_paths(state[:i] + (s - 1,) + state[i + 1 :])
    return total


# -- tuple-edge names ---------------------------------------------------------


def test_encode_decode_round_trip():
    name = encode(("a0", "b1", "c2"))
    assert decode(name) == ("a0", "b1", "c2")
    assert encode(decode(name)) == name


# -- counts against the lattice-path oracle -----------------------------------


def test_two_chain_counts_match_lattice_paths():
    for m in range(1, 8):
        for k in range(1, 9 - m):
            fs = [linear("u", m), linear("v", k)]
            expected = lattice_paths((m, k))
            assert len(shuffles(fs)) == expected
            assert count_shuffles(fs) == expected


def test_three_chain_count_is_multinomial():
    fs = [linear("u", 2), linear("v", 2), linear("w", 2)]
    assert lattice_paths((2, 2, 2)) == 90  # 6!/(2!2!2!)
    assert count_shuffles(fs) == 90
    assert len(shuffles(fs)) == 90


def test_count_handles_huge_answers_without_materializing():
    big = [
        parse_tree("a0[a1[a3[a7,a8],a4[a9,aA]],a2[a5[aB,aC],a6[aD,aE]]]"),
        parse_tree("b0[b1[b3[b7,b8],b4[b9,bA]],b2[b5[bB,bC],b6[bD,bE]]]"),
    ]
    assert count_shuffles(big) == 20173952


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_count_matches_enumeration_random(seed):
    rng = Random(seed)
    fs = [random_tree(rng, 4, 0.3, prefix=p) for p in ("a", "b")]
    assert count_shuffles(fs) == len(shuffles(fs))


# -- the state walk against the recursive oracles -------------------------------


def oracle_shuffles(factors):
    """The recursive enumeration the state walk replaced, kept as the order
    oracle: one memoized call per state, vertex tuples concatenated."""
    if len(factors) == 1:
        return (factors[0],)
    memo = {}

    def build(state):
        if state in memo:
            return memo[state]
        verts = [factors[i].vertex_above.get(e) for i, e in enumerate(state)]
        if all(v is None for v in verts):
            memo[state] = ((),)
            return memo[state]
        if all(v is None or v.is_stump for v in verts):
            memo[state] = ((Vertex(encode(state), ()),),)
            return memo[state]
        opts = []
        for i, v in enumerate(verts):
            if v is None or v.is_stump:
                continue
            children = [state[:i] + (d,) + state[i + 1 :] for d in v.in_edges]
            branches = [build(c) for c in children]
            head = Vertex(encode(state), tuple(encode(c) for c in children))
            for combo in product(*branches):
                acc = (head,)
                for part in combo:
                    acc = acc + part
                opts.append(acc)
        memo[state] = tuple(opts)
        return memo[state]

    root = tuple(t.root for t in factors)
    return tuple(Tree(encode(root), vs) for vs in build(root))


def oracle_count(factors):
    """The recursive count the state walk replaced."""
    if len(factors) == 1:
        return 1
    memo = {}

    def count(state):
        if state in memo:
            return memo[state]
        verts = [factors[i].vertex_above.get(e) for i, e in enumerate(state)]
        total = 1
        if not all(v is None or v.is_stump for v in verts):
            total = 0
            for i, v in enumerate(verts):
                if v is None or v.is_stump:
                    continue
                branches = 1
                for d in v.in_edges:
                    branches *= count(state[:i] + (d,) + state[i + 1 :])
                total += branches
        memo[state] = total
        return total

    return count(tuple(t.root for t in factors))


@given(seeds, st.integers(min_value=1, max_value=3))
@settings(max_examples=120, deadline=None)
def test_state_walk_matches_recursive_oracles(seed, k):
    rng = Random(seed)
    size = {1: 8, 2: 6, 3: 4}[k]
    fs = [random_tree(rng, size, 0.3, prefix=p) for p in "abc"[:k]]
    assert shuffles(fs) == oracle_shuffles(fs)
    assert count_shuffles(fs) == oracle_count(fs)


def test_bare_edges_shuffle_to_one_bare_edge():
    fs = [parse_tree("a"), parse_tree("b")]
    assert shuffles(fs) == oracle_shuffles(fs) == (Tree(encode(("a", "b")), ()),)
    assert count_shuffles(fs) == 1


def test_state_walk_on_deep_chain():
    # the recursive oracles recurse once per edge of depth and overflow here
    deep = linear("e", 1500)
    assert len(shuffles([deep, parse_tree("x")])) == 1
    assert count_shuffles([deep, parse_tree("x[y]")]) == 1501


# -- the text fold against serialize_tree ---------------------------------------


def binary_names(rng, t, prefix):
    """``t`` with its edges renamed to ``prefix`` and distinct binary numerals
    (``1``, ``10``, ``11``, ...), so that one name is often a prefix of
    another and the order of tuple names, where ``(a10|x)`` < ``(a1|x)``,
    differs from the order of their coordinates."""
    numerals = rng.sample(range(1, 64), len(t.edges))
    new = {e: f"{prefix}{n:b}" for e, n in zip(t.edges, numerals)}
    return Tree(new[t.root], tuple(
        Vertex(new[v.out_edge], tuple(new[d] for d in v.in_edges)) for v in t.vertices
    ))


@given(seeds, st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_shuffle_texts_equal_serialized_shuffles(seed, k):
    rng = Random(seed)
    size = {1: 8, 2: 6, 3: 4}[k]
    fs = [binary_names(rng, random_tree(rng, size, 0.3, prefix=p), p) for p in "abc"[:k]]
    trees = shuffles(fs)
    texts = _shuffle_texts(_state_table(fs))
    assert texts == [serialize_tree(t) for t in trees]
    assert tuple(parse_tree(x) for x in texts) == trees


def test_shuffle_texts_sort_children_by_tuple_name():
    fs = [parse_tree("r[a1,a10[]]"), parse_tree("x[y,z[]]")]
    assert _shuffle_texts(_state_table(fs)) == [
        "(r|x)[(a10|x)[(a10|y)[],(a10|z)[]],(a1|x)[(a1|y),(a1|z)[]]]",
        "(r|x)[(r|y)[(a10|y)[],(a1|y)],(r|z)[(a10|z)[],(a1|z)[]]]",
    ]


def test_shuffle_texts_on_deep_chain():
    fs = [linear("e", 1500), parse_tree("x[y]")]
    texts = _shuffle_texts(_state_table(fs))
    assert len(set(texts)) == len(texts) == count_shuffles(fs) == 1501


# -- shuffle laws --------------------------------------------------------------


def test_single_factor_is_itself():
    # a lone factor is its own only shuffle: a bare edge, a stump, inner
    # edges, stumps among leaves and a corolla
    for text in ("a", "a[]", "r[a[x],b]", "r[a[],b[c,d[]]]", "r[a,b,c]"):
        t = parse_tree(text)
        assert shuffles([t]) == (t,)
        assert _shuffle_texts(_state_table([t])) == [serialize_tree(t)]
        assert count_shuffles([t]) == 1


def test_no_factors_rejected():
    with pytest.raises(TreeError):
        shuffles([])
    with pytest.raises(TreeError):
        count_shuffles([])


def test_shared_edge_names_rejected():
    with pytest.raises(TreeError):
        shuffles([parse_tree("r[a]"), parse_tree("r[b]")])


@pytest.mark.parametrize(
    "factors, message",
    [
        ([], "need at least one factor"),
        # names that cannot enter a tuple are found before shared names
        ([Tree("x|y", ()), Tree("x|y", ())], "bare separator in edge name 'x|y'"),
        ([linear("u", 1), Tree("(z", ())], "unbalanced parentheses in edge name '(z'"),
        ([linear("u", 1), linear("v", 1), linear("u", 2)], "factors share edge names: ['u0', 'u1']"),
    ],
)
def test_factor_checks_are_shared(factors, message):
    # count_shuffles makes the same checks since they moved into the state walk
    for build in (shuffles, BVTensorOperad, count_shuffles):
        with pytest.raises(TreeError, match=re.escape(message)):
            build(factors)


def test_two_corollas_give_two_shuffles():
    sh = shuffles([parse_tree("p[x,y]"), parse_tree("q[u,v]")])
    assert len(sh) == 2
    texts = sorted(serialize_tree(s) for s in sh)
    assert texts[0] != texts[1]
    # one shuffle opens p first (so edge (x|q) exists), the other opens q
    joined = " ".join(texts)
    assert encode(("x", "q")) in joined and encode(("p", "u")) in joined


def test_root_and_max_laws():
    fs = [parse_tree("p[x,y]"), parse_tree("q[u]")]
    root = encode(("p", "q"))
    expected_max = sorted(encode(c) for c in product(max_edges(fs[0]), max_edges(fs[1])))
    for s in shuffles(fs):
        assert s.root == root
        assert sorted(max_edges(s)) == expected_max


def test_stumps_close_maximal_tuples():
    # a maximal tuple edge carries a stump exactly when some coordinate is a
    # stump edge of its factor; all-leaf tuples stay leaves
    fs = [parse_tree("p[x[],y]"), parse_tree("q[u]")]
    stump_sets = [set(t.stump_edges) for t in fs]
    for s in shuffles(fs):
        for e in max_edges(s):
            coords = decode(e)
            should_close = any(c in stump_sets[i] for i, c in enumerate(coords))
            v = s.vertex_above.get(e)
            assert (v is not None and v.is_stump) == should_close


def test_distinct_shuffles():
    rng = Random(3)
    for _ in range(30):
        fs = [random_tree(rng, 4, 0.3, prefix=p) for p in ("a", "b")]
        sh = shuffles(fs)
        texts = [serialize_tree(s) for s in sh]
        assert len(set(texts)) == len(texts)


# -- intersections ------------------------------------------------------------


def test_intersection_is_common_face():
    fs = [linear("u", 2), linear("v", 1)]
    sh = shuffles(fs)
    assert len(sh) == 3
    for a in range(len(sh)):
        for b in range(a + 1, len(sh)):
            inter = intersect([sh[a], sh[b]])
            for s in (sh[a], sh[b]):
                m = inclusion_map(inter, s)
                validate(m)
                assert s.edge_set - inter.edge_set <= set(s.inner_edges)


def test_intersect_of_tree_with_itself():
    t = shuffles([linear("u", 1), linear("v", 1)])[0]
    assert intersect([t, t]).edge_set == t.edge_set


# -- stump transport -----------------------------------------------------------


def test_stump_transport_fixed():
    fs = [parse_tree("a[b]"), parse_tree("c[d]")]
    res = stump_transport(fs, 0, "b")
    assert serialize_tree(res.factors_after[0]) == "a[b[]]"
    after_direct = sorted(serialize_tree(t) for t in shuffles(res.factors_after))
    after_transport = sorted(serialize_tree(t) for _, t in res.pairs)
    assert set(after_transport) <= set(after_direct)
    assert len(res.pairs) == len(shuffles(fs))


def test_stump_transport_requires_leaf():
    fs = [parse_tree("a[b]"), parse_tree("c[d]")]
    with pytest.raises(TreeError):
        stump_transport(fs, 0, "a")
    with pytest.raises(TreeError):
        stump_transport(fs, 0, "d")


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_stump_transport_random(seed):
    rng = Random(seed)
    fs = [random_tree(rng, 4, 0.2, prefix=p) for p in ("a", "b")]
    leafy = [j for j, t in enumerate(fs) if t.leaves]
    if not leafy:
        return
    j = rng.choice(leafy)
    leaf = rng.choice(sorted(fs[j].leaves))
    res = stump_transport(fs, j, leaf)
    direct = {serialize_tree(t) for t in shuffles(res.factors_after)}
    assert {serialize_tree(t) for _, t in res.pairs} <= direct


# -- interiors -----------------------------------------------------------------


def test_interior_decomposition_fixed():
    fs = [parse_tree("p[x[]]"), parse_tree("q[u]")]
    dec = interior_decomposition(fs)
    closed = sorted(serialize_tree(t) for _, t in dec.pairs)
    direct = sorted(serialize_tree(t) for t in shuffles(fs))
    assert closed == direct


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_interior_decomposition_random(seed):
    rng = Random(seed)
    fs = [random_tree(rng, 4, 0.4, prefix=p) for p in ("a", "b")]
    dec = interior_decomposition(fs)
    closed = sorted(serialize_tree(t) for _, t in dec.pairs)
    direct = sorted(serialize_tree(t) for t in shuffles(fs))
    assert closed == direct


# -- associativity/bracketing ---------------------------------------------------


def test_assoc_inclusion_three_factors():
    fs = [linear("u", 1), linear("v", 1), linear("w", 1)]
    for br in ([[0, 1], 2], [0, [1, 2]]):
        res = assoc_inclusion(fs, br)
        assert not res.unreached
        nested = {serialize_tree(t) for t in res.nested}
        flat = {serialize_tree(t) for t in res.flat}
        assert nested <= flat
        assert len(nested) == len(res.nested)


def test_assoc_inclusion_rejects_wrong_index_set():
    fs = [linear("u", 1), linear("v", 1)]
    with pytest.raises(TreeError):
        assoc_inclusion(fs, [[0, 0], 1])


# -- tensor hom -----------------------------------------------------------------


def test_tensor_hom_fixed_count():
    probe = parse_tree("e[f,g]")
    factors = [parse_tree("p[x,y]"), parse_tree("q")]
    maps = tensor_hom(probe, factors)
    assert len(maps) == 2
    for m in maps:
        assert m.witness in shuffles(factors) or any(
            serialize_tree(m.witness) == serialize_tree(s) for s in shuffles(factors)
        )


def random_factors(rng, k, bound=150):
    """``k`` small random factors with stumps: of six draws, the one with
    the most shuffles up to ``bound`` (one bare edge each if none fits)."""
    size = {1: 8, 2: 6, 3: 4}[k]
    best = (0, [Tree(f"{q}0", ()) for q in "abc"[:k]])
    for _ in range(6):
        fs = [random_tree(rng, size, 0.2, prefix=q) for q in "abc"[:k]]
        n = count_shuffles(fs)
        if best[0] < n <= bound:
            best = (n, fs)
    return best[1]


def oracle_tensor_cuts(factors):
    """Reference for the cut fold on shuffle states: the tensor-only fold it
    replaced.  The input sets of the cuts of every shuffle, by output edge,
    each set built for every state at once."""
    cuts = {}
    for state, moves in _state_table(factors):
        cuts[state] = at = {(state,)}
        for move in moves:
            at.update(tuple(sorted(sum(combo, ()))) for combo in product(*[cuts[c] for c in move]))
    return cuts


@given(seeds, st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_cut_fold_equals_tensor_oracle(seed, k):
    # the same cuts, each once, whether the whole table is folded, under a
    # bound, or only up to one state.  Three factors of up to 150 shuffles
    # can have 384,000 cuts (5 s in the oracle and the folds); at most 60
    # keep every draw under 0.1 s of folding, and over seeds 0-1499 reject
    # 74 of 9,000 draws (27 at 150)
    rng = Random(seed)
    fs = random_factors(rng, k, bound=60 if k == 3 else 150)
    table = _state_table(fs)
    want = oracle_tensor_cuts(fs)
    assert [state for state, _ in table] == list(want)
    whole, bounded = {}, {}
    _fold(table, whole)
    _fold(table, bounded, 2)
    for c in want:
        assert whole[c] == sorted(want[c])
        assert bounded[c] == sorted(cut for cut in want[c] if len(cut) <= 2)
    for end in rng.sample(range(len(table)), min(4, len(table))):
        prefix = {}
        _fold(table[: end + 1], prefix)
        c = table[end][0]
        assert prefix[c] == sorted(want[c])


def oracle_tensor_hom(probe, factors):
    """``tensor_hom`` before it read ``maps_into``: ``hom`` into every
    shuffle, each map kept once with the first shuffle that holds it."""
    found = {}
    for a in shuffles(factors):
        for m in hom(probe, a):
            found.setdefault((m.colors, m.components), TensorHom(m.colors, m.components, a))
    return tuple(found[k] for k in sorted(found))


@given(seeds, st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_tensor_hom_equals_union_over_shuffles(seed, k):
    # the shuffle lemma: a map of a tree into the tensor operad lands in one
    # shuffle, so the maps into it are the maps into the shuffles
    rng = Random(seed)
    fs = random_factors(rng, k)
    probe = random_tree(rng, 4, 0.2, prefix="t")
    assert tensor_hom(probe, fs) == oracle_tensor_hom(probe, fs)


def test_tensor_hom_reads_maps_into_once(monkeypatch):
    calls = []
    real = lurie_module.maps_into

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    probe, fs = parse_tree("e[f,g]"), [parse_tree("p[x,y]"), parse_tree("q[u]")]
    expected = oracle_tensor_hom(probe, fs)
    monkeypatch.setattr(lurie_module, "maps_into", counted)
    monkeypatch.setattr(omegacat_module, "hom", refuse)
    assert tensor_hom(probe, fs) == expected
    assert len(calls) == 1


def test_tensor_hom_refuses_forest_probes():
    # the components of a forest may land in different shuffles: here 15, 15
    # and 36 maps each, 8,100 pairs, of which only 5,288 share a shuffle
    probe = parse_forest("{t0_0;t1_0;t2_0[t2_1]}")
    fs = [parse_tree("a0[a1[a2]]"), parse_tree("b0[b1[b4],b2,b3]")]
    assert [len(tensor_hom(t, fs)) for t in probe.components] == [15, 15, 36]
    with pytest.raises(TreeError, match="tree probe"):
        tensor_hom(probe, fs)


def test_tensor_hom_deduplicates_across_shuffles():
    # probing with a bare edge sees each tuple color once, not once per shuffle
    probe = parse_tree("e")
    factors = [linear("u", 1), linear("v", 1)]
    sh = shuffles(factors)
    colors = {e for s in sh for e in s.edges}
    maps = tensor_hom(probe, factors)
    assert len(maps) == len(colors)
