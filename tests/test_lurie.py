import copy
import hashlib
import math
import pickle
import re
from collections import Counter
from itertools import combinations_with_replacement, permutations, product
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    STAR,
    BVTensorOperad,
    EllMorphism,
    EllObject,
    FinPtdMor,
    FinPtdObj,
    FinSimplex,
    Forest,
    ForestInto,
    FreeForestOperad,
    Operation,
    SimplicialOperator,
    TableOperad,
    Tree,
    TreeError,
    Vertex,
    as_forest,
    chain_to_map,
    check_fibrous,
    classify,
    cut_at,
    defect_fixtures,
    ell_compose,
    ell_hom,
    ell_identity,
    enumerate_chains,
    eta,
    factorize,
    free_algebra,
    hom,
    map_to_chain,
    maps_into,
    omega_mor,
    omega_obj,
    operations,
    parse_forest,
    parse_tree,
    precompose,
    restrict_chain,
    rho,
    segal_components_check,
    segal_cut_check,
    serialize_forest,
    shuffles,
    smash,
    tensor_hom,
)
from dendrotensor import lurie as lurie_module
from dendrotensor import omegacat as omegacat_module
from dendrotensor import shuffle as shuffle_module
from dendrotensor import suites as suites_module
from dendrotensor.levelforest import edge_name
from dendrotensor.lurie import EllPresentation, _Inerts, _PointedMaps
from dendrotensor._rand import random_fin_simplex, random_forest, random_tree
from dendrotensor.shuffle import _state_table, decode
from test_omegacat import (
    binary_text,
    chain_tree,
    closure_operations,
    oracle_cut_table,
    oracle_fold_cuts,
    tree_moves,
)
from test_shuffle import random_factors

seeds = st.integers(min_value=0, max_value=2**32 - 1)

EXHAUSTIVE = dict(
    colorings_per_shape=999,
    inerts_per_shape=999,
    betas_per_lift=999,
    arrows_budget=500,
    pairs_per_fiber=999,
)


# -- pointed sets --------------------------------------------------------------


def test_pointed_map_validation():
    two, one = FinPtdObj.skeleton(2), FinPtdObj.skeleton(1)
    with pytest.raises(TreeError):
        FinPtdMor(two, one, (1,))  # not total
    with pytest.raises(TreeError):
        FinPtdMor(two, one, (1, 2))  # 2 is not in <1>
    f = FinPtdMor(two, one, (1, STAR))
    assert f(1) == 1 and f(2) == STAR
    assert f.fiber(1) == (1,)


def _all_pointed_maps(src, dst):
    """Oracle for the lazy pools: every pointed map ``src -> dst``, built."""
    choices = tuple(dst.elements) + (STAR,)
    return [FinPtdMor(src, dst, vals) for vals in product(choices, repeat=len(src))]


POOL_SHAPES = [
    (m, targets)
    for m in range(5)
    for targets in [(n,) for n in range(5)] + [tuple(range(5))]
]


@pytest.mark.parametrize("m, targets", POOL_SHAPES)
def test_lazy_pool_equals_materialized_list(m, targets):
    src = FinPtdObj.skeleton(m)
    dsts = [FinPtdObj.skeleton(n) for n in targets]
    lazy = _PointedMaps(src, dsts)
    built = [f for dst in dsts for f in _all_pointed_maps(src, dst)]
    assert len(lazy) == len(built)
    assert [lazy[i] for i in range(len(lazy))] == built
    assert list(lazy) == built
    with pytest.raises(IndexError):
        lazy[len(built)]


def test_lazy_pool_samples_like_the_list():
    # CPython's sample copies a population of at most 21 (k <= 5) and
    # indexes a larger one; both branches must pick the same maps
    branches = set()
    for m, targets in POOL_SHAPES:
        src = FinPtdObj.skeleton(m)
        dsts = [FinPtdObj.skeleton(n) for n in targets]
        lazy = _PointedMaps(src, dsts)
        built = [f for dst in dsts for f in _all_pointed_maps(src, dst)]
        for k in (1, 4, 5):
            if k > len(built):
                continue
            branches.add(len(built) <= 21)
            for seed in range(5):
                r_lazy, r_built = Random(seed), Random(seed)
                assert r_lazy.sample(lazy, k) == r_built.sample(built, k)
                assert r_lazy.getstate() == r_built.getstate()
    assert branches == {True, False}


def oracle_all_inerts(src):
    """``_all_inerts``, which ``_Inerts`` replaced: every inert map out of
    ``src``, built, by number of kept elements and then in the order
    ``permutations`` lists the kept ones."""
    out = []
    for k in range(len(src.elements) + 1):
        for kept in permutations(src.elements, k):
            index = {x: i + 1 for i, x in enumerate(kept)}
            out.append(
                FinPtdMor(
                    src,
                    FinPtdObj.skeleton(k),
                    tuple(index.get(x, STAR) for x in src.elements),
                )
            )
    return out


@pytest.mark.parametrize("m", range(7))
def test_lazy_inerts_equal_the_built_list(m):
    src = FinPtdObj.skeleton(m)
    lazy, built = _Inerts(src), oracle_all_inerts(src)
    assert list(lazy) == built
    assert all(f.is_inert for f in lazy)
    with pytest.raises(IndexError):
        lazy[len(built)]
    for seed in range(5):
        r_lazy, r_built = Random(seed), Random(seed)
        k = min(4, len(built))
        assert r_lazy.sample(lazy, k) == r_built.sample(built, k)
        assert r_lazy.getstate() == r_built.getstate()


def test_lazy_inerts_count_every_partial_permutation():
    for m in range(13):
        assert len(_Inerts(FinPtdObj.skeleton(m))) == sum(math.perm(m, k) for k in range(m + 1))
    src = FinPtdObj.skeleton(12)
    last = _Inerts(src)[len(_Inerts(src)) - 1]
    assert last.values == tuple(range(12, 0, -1))


def test_fibrous_check_builds_only_the_inerts_it_samples(monkeypatch):
    # ⟨8⟩ alone has 109,601 inert maps; listing them all for every shape
    # up to ⟨8⟩ built 129,327 maps in this call, where drawing four per
    # coloring from the ranked sequence builds 3,741
    built = []
    trusted, init = lurie_module._ptd_mor, FinPtdMor.__init__
    monkeypatch.setattr(lurie_module, "_ptd_mor", lambda fields: built.append(fields) or trusted(fields))
    monkeypatch.setattr(FinPtdMor, "__init__", lambda f, *args: built.append(f) or init(f, *args))
    pres = EllPresentation(FreeForestOperad(parse_tree("r[a]")))
    report = check_fibrous(pres, truncation=8, rng=Random(0))
    assert report.passed
    assert len(built) < 5_000


def _fiberwise_values():
    """One value of each tuple type of the fiberwise layer, with its fields,
    its public constructor and its trusted one."""
    two, one = FinPtdObj.skeleton(2), FinPtdObj.skeleton(1)
    p = FreeForestOperad(parse_forest("{r[a[x],b[]]}"))
    a = FinSimplex.from_json({"levels": [[1, 2], [1]], "maps": [{"1": 1, "2": 1}]})
    ch = enumerate_chains(p, a)[-1]
    (alpha, src, dst, comps), (obj_base, obj_colors) = ch.arrows[0], ch.objects[0]
    return [
        (FinPtdMor, (two, one, (1, STAR)), lurie_module._ptd_mor),
        (EllObject, (obj_base, obj_colors), lurie_module._ell_obj),
        (EllMorphism, (alpha, src, dst, comps), lurie_module._ell_mor),
        (lurie_module.Chain, (a, ch.objects, ch.arrows), lurie_module._chain),
    ]


FIBERWISE = _fiberwise_values()


@pytest.mark.parametrize("cls, fields, trusted", FIBERWISE, ids=[v[0].__name__ for v in FIBERWISE])
def test_fiberwise_values_are_their_field_tuples(cls, fields, trusted):
    # equal to and hashed as the plain tuple of their fields, with the
    # dataclass's repr, whether built checked or trusted
    value = cls(*fields)
    assert value == fields and hash(value) == hash(fields)
    assert value == trusted(fields) and hash(value) == hash(trusted(fields))
    assert type(trusted(fields)) is cls
    assert tuple(value) == fields and value._fields == tuple(cls._fields)
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={v!r}" for name, v in zip(cls._fields, fields)) + ")"
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


@pytest.mark.parametrize("cls, fields, trusted", FIBERWISE, ids=[v[0].__name__ for v in FIBERWISE])
def test_fiberwise_values_survive_pickle_and_copy(cls, fields, trusted):
    value = trusted(fields)
    for attr in ("mapping", "fibers", "_pointed_mapping", "component"):
        getattr(value, attr, None)  # cached views ride along in the instance dict
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.copy(value), copy.deepcopy(value)]:
        assert type(other) is cls and other == value and hash(other) == hash(value)
        assert other.__dict__ == value.__dict__


def test_fiberwise_constructors_raise_the_dataclass_errors():
    two, one = FinPtdObj.skeleton(2), FinPtdObj.skeleton(1)
    with pytest.raises(TreeError, match="^pointed map must cover every source element$"):
        FinPtdMor(two, one, (1,))
    with pytest.raises(TreeError, match="^pointed map hits a non-element 2$"):
        FinPtdMor(two, one, (1, 2))
    with pytest.raises(TreeError, match="^pointed map hits a non-element 'x'$"):
        FinPtdMor(src=two, dst=one, values=("x", STAR))
    with pytest.raises(TreeError, match="^need exactly one color per element$"):
        EllObject(two, ("a",))
    with pytest.raises(TreeError, match="^need exactly one color per element$"):
        EllObject(base=one, colors=())
    # the dataclasses of EllMorphism and Chain checked nothing; the tuples
    # check nothing either
    f = FinPtdMor(two, one, (1, STAR))
    assert EllMorphism(f, "src", "dst", ()).components == ()
    assert lurie_module.Chain("simplex", (), ()).arrows == ()
    # the checked constructor is the class's own __init__, which the
    # per-layer tracer wraps by name
    assert "__init__" in FinPtdMor.__dict__


@pytest.mark.parametrize("seed", range(40))
def test_coloring_pool_draws_as_rng_choice_does(seed):
    # the old pool, kept as the oracle: one rng.choice per colour
    def oracle(colors, rng, m, k):
        if len(colors) ** m <= k:
            return list(product(colors, repeat=m))
        pool = {tuple(rng.choice(colors) for _ in range(m)) for _ in range(3 * k)}
        return lurie_module._sample(rng, sorted(pool), k)

    rng = Random(seed)
    for n in range(1, 10):
        colors = tuple(f"c{i}" for i in range(n))
        for m in range(1, 5):
            for k in (1, 2, 3, 6):
                state = rng.getstate()
                got = lurie_module._coloring_pool(colors, rng, m, k)
                after = rng.getstate()
                rng.setstate(state)
                assert got == oracle(colors, rng, m, k)
                assert rng.getstate() == after
    assert lurie_module._coloring_pool((), rng, 2, 2) == []


def test_fibers_match_a_scan_of_the_source():
    src = FinPtdObj.skeleton(3)
    dst = FinPtdObj.skeleton(2)
    for f in _all_pointed_maps(src, dst):
        for j in dst.elements + (STAR, 9):
            assert f.fiber(j) == tuple(x for x in src.elements if f(x) == j)


def test_classify_tags():
    two, one = FinPtdObj.skeleton(2), FinPtdObj.skeleton(1)
    assert classify(FinPtdMor.identity(two)) == ("active", "inert")
    assert classify(FinPtdMor(two, one, (1, 1))) == ("active",)
    assert classify(rho(2, 1)) == ("inert",)
    assert classify(FinPtdMor(two, two, (1, STAR))) == ()


def test_factorize_inert_then_active():
    src, dst = FinPtdObj.skeleton(3), FinPtdObj.skeleton(2)
    f = FinPtdMor(src, dst, (2, STAR, 2))
    inert, active = factorize(f)
    assert inert.is_inert and active.is_active
    assert active.after(inert) == f
    assert len(inert.dst) == 2  # two survivors


def test_factorize_exhaustive_small():
    for m, n in [(0, 1), (1, 1), (2, 1), (2, 2), (3, 2)]:
        src, dst = FinPtdObj.skeleton(m), FinPtdObj.skeleton(n)
        for vals in product(tuple(dst.elements) + (STAR,), repeat=m):
            f = FinPtdMor(src, dst, vals)
            inert, active = factorize(f)
            assert inert.is_inert and active.is_active
            assert active.after(inert) == f


def test_rho_collapses():
    r = rho(3, 2)
    assert r.values == (STAR, 1, STAR)
    with pytest.raises(TreeError):
        rho(2, 3)


def test_smash_is_lexicographic():
    f = FinPtdMor.identity(FinPtdObj.skeleton(2))
    g = FinPtdMor.identity(FinPtdObj.skeleton(3))
    s = smash(f, g)
    # (i, j) of <2> ^ <3> lands at (i-1)*3 + j
    assert s.values == (1, 2, 3, 4, 5, 6)
    h = FinPtdMor(FinPtdObj.skeleton(2), FinPtdObj.skeleton(1), (1, STAR))
    s2 = smash(h, g)
    assert s2.values == (1, 2, 3, STAR, STAR, STAR)


# -- finite operads --------------------------------------------------------------


def test_free_forest_operad_mirrors_cut_sets():
    f = parse_forest("{r[a[x],b[]]}")
    p = FreeForestOperad(f)
    assert p.colors() == f.edges
    for e in f.edges:
        listed = {op for _, ops in p.ops_by_output(e) for op in ops}
        assert listed == set(operations(f, e))
    assert p.identity("r") == Operation("r", ("r",))


def test_free_forest_operad_subst():
    p = FreeForestOperad(parse_forest("{r[a[x],b[]]}"))
    top = Operation("r", ("a", "b"))
    got = p.subst(
        top, {"a": Operation("a", ("x",)), "b": Operation("b", ())}
    )
    assert got == Operation("r", ("x",))
    with pytest.raises(TreeError):
        p.subst(top, {"a": Operation("a", ("x",))})


@pytest.mark.parametrize(
    "p",
    [
        FreeForestOperad(parse_tree("r[a[x],b[]]")),
        BVTensorOperad([parse_tree("p[x,y]"), parse_tree("q[u]")]),
    ],
    ids=["free", "tensor"],
)
def test_subst_names_each_rejection(p):
    top = next(
        op
        for c in p.colors()
        for _, ops in p.ops_by_output(c)
        for op in ops
        if len(op.inputs) == 2
    )
    a, b = top.inputs
    assert p.subst(top, {a: p.identity(a), b: p.identity(b)}) == top
    with pytest.raises(TreeError, match="arguments do not match the inputs"):
        p.subst(top, {a: p.identity(a)})
    with pytest.raises(TreeError, match=re.escape(f"argument at {a!r} has output {b!r}")):
        p.subst(top, {a: p.identity(b), b: p.identity(b)})
    # ``top.output`` lies below ``b``, so the two together are no cut
    with pytest.raises(TreeError, match="which is not an operation"):
        p.subst(top, {a: Operation(a, (top.output,)), b: p.identity(b)})


def test_table_operad_json_round_trip():
    t = TableOperad.from_json(
        {
            "colors": ["c"],
            "operations": [{"inputs": ["c", "c"], "output": "c", "elements": ["m"]}],
        }
    )
    again = TableOperad.from_json(t.to_json())
    assert again.to_json() == t.to_json()
    assert t.ops(["c", "c"], "c") == ("m",)
    assert t.identity("c") == "id:c"


def test_bv_tensor_operad_collects_shuffle_cuts():
    factors = [parse_tree("p[x]"), parse_tree("q[u]")]
    b = BVTensorOperad(factors)
    edges = {e for s in shuffles(factors) for e in s.edges}
    assert set(b.colors()) == edges
    for s in shuffles(factors):
        for e in s.edges:
            for op in operations(s, e):
                assert op in b.ops(op.inputs, op.output)


def _sorted_by_output(table):
    """The listings ``ops_by_output`` gave before the tables were indexed,
    by output: the whole table, sorted once, filtered by each output; an
    output the table lacks lists nothing."""
    listed = {}
    for (inputs, out), labels in sorted(table.items()):
        listed.setdefault(out, []).append((inputs, labels))
    return lambda output: tuple(listed.get(output, ()))


@pytest.mark.parametrize(
    "texts",
    [
        ("p[x]", "q[u]"),
        ("x0[x1[],x2[x3,x4]]", "y0[y1[],y2[y3,y4]]"),
        ("x0[x1[x3,x4],x2]", "y0[y1[y2]]"),
        ("a[b,c]", "d[e]", "f"),
    ],
)
def test_bv_tensor_index_matches_sorted_table(texts):
    factors = [parse_tree(t) for t in texts]
    b = BVTensorOperad(factors)
    table = {}
    for s in shuffles(factors):
        for e in s.edges:
            for op in closure_operations(s, e):
                table[(op.inputs, op.output)] = (op,)
    listed = _sorted_by_output(table)
    for c in b.colors():
        assert b.ops_by_output(c) == listed(c)
    for (inputs, output), labels in table.items():
        assert b.ops(tuple(reversed(inputs)), output) == labels
    assert b.ops_by_output("absent") == ()


def oracle_bv_tensor(factors):
    """The colors and table ``BVTensorOperad`` built before it folded the
    shuffle states: every shuffle built, cut-tabled bottom-up, and each cut
    kept once."""
    table, colors = {}, set()
    for t in shuffles(factors):
        colors |= t.edge_set
        cuts = {}
        oracle_cut_table(t, t.root, cuts)
        for e, inputs_at in cuts.items():
            for inputs in inputs_at:
                table.setdefault((inputs, e), (Operation(e, inputs),))
    return tuple(sorted(colors)), table


@given(seeds, st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_bv_tensor_fold_equals_per_shuffle_oracle(seed, k):
    fs = random_factors(Random(seed), k)
    b = BVTensorOperad(fs)
    colors, table = oracle_bv_tensor(fs)
    assert b.colors() == colors
    listed = _sorted_by_output(table)
    for c in colors:
        assert b.ops_by_output(c) == listed(c)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_single_factor_tensor_keeps_its_names(seed):
    t = random_tree(Random(seed), 8, 0.3)
    b, f = BVTensorOperad([t]), FreeForestOperad(t)
    assert b.colors() == tuple(sorted(t.edges))
    for c in t.edges:
        # the same cuts; the tensor lists them by sorted inputs, the free
        # operad by size first
        assert b.ops_by_output(c) == tuple(sorted(f.ops_by_output(c)))


def test_single_factor_tensor_accepts_untuplable_names():
    t = Tree("x|y", (Vertex("x|y", ("(z",)),))
    assert BVTensorOperad([t]).ops_by_output("x|y") == FreeForestOperad(t).ops_by_output("x|y")


def test_bv_tensor_builds_no_shuffle(monkeypatch):
    # the state table is walked and folded without any shuffle tree
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    fs = [parse_tree("p[x,y]"), parse_tree("q[u]")]
    colors, table = oracle_bv_tensor(fs)
    monkeypatch.setattr(shuffle_module, "shuffles", refuse)
    monkeypatch.setattr(shuffle_module, "_shuffle_trees", refuse)
    b = BVTensorOperad(fs)
    assert b.colors() == colors
    listed = _sorted_by_output(table)
    for c in colors:
        assert b.ops_by_output(c) == listed(c)


def test_bare_edge_probe_folds_no_tensor_cuts(monkeypatch):
    # a probe without vertices asks for no operation, so the tensor of a
    # deep chain must not fold any of its (quadratically many) cuts
    def refuse(*args, **kwargs):
        raise AssertionError("folded")

    monkeypatch.setattr(omegacat_module, "_fold", refuse)
    monkeypatch.setattr(lurie_module, "_fold", refuse)
    factors = [chain_tree(1500), parse_tree("x")]
    maps = maps_into(eta("f"), BVTensorOperad(factors))
    assert len(maps) == len(set(maps)) == 1501
    homs = tensor_hom(eta("f"), factors)
    assert len(homs) == 1501
    assert {h.colors for h in homs} == {m.colors for m in maps}


def _arity_slice_oracle(p, c):
    """What ``ops_by_output(c, k)`` must give for each ``k``: the full
    listing filtered by number of inputs."""
    full = p.ops_by_output(c)
    top = max((len(fam) for fam, _ in full), default=0)
    return {k: tuple(e for e in full if len(e[0]) == k) for k in range(top + 2)}


@given(seeds, st.sampled_from(["free", "tensor"]), st.sampled_from([0.0, 0.3]))
@settings(max_examples=150, deadline=None)
def test_arity_slice_equals_filtered_listing(seed, kind, stump_probability):
    # slices asked for first, colors and arities in a random order, on an
    # operad that never lists a color in full, so the bounded memos serve
    # one another; the full listing comes from a second, fresh operad
    rng = Random(seed)
    if kind == "free":
        forest = random_forest(rng, 9, stump_probability, min_components=1)
        sliced, full = FreeForestOperad(forest), FreeForestOperad(forest)
    else:
        factors = [random_tree(rng, 4, stump_probability, prefix=q) for q in ("a", "b")]
        sliced, full = BVTensorOperad(factors), BVTensorOperad(factors)
    want = {c: _arity_slice_oracle(full, c) for c in full.colors()}
    queries = [(c, k) for c in want for k in want[c]]
    rng.shuffle(queries)
    for c, k in queries:
        assert sliced.ops_by_output(c, k) == want[c][k]
    if kind == "free":
        with pytest.raises(TreeError):
            sliced.ops_by_output("absent", 1)
    else:
        assert sliced.ops_by_output("absent", 1) == () == sliced.ops_by_output("absent")


def test_arity_slice_on_tables():
    rng = Random(11)
    for _ in range(40):
        p = random_table_operad(rng)
        for c in p.colors():
            for k, entries in _arity_slice_oracle(p, c).items():
                assert p.ops_by_output(c, k) == entries
        assert p.ops_by_output("absent", 1) == ()


class OracleCutListing:
    """The listing of a cut operad before its two fold memos became one: a
    full listing folds through ``cuts``, sorted by ``key``; a slice folds
    through ``bounded``, emptied and bounded anew whenever a larger arity
    than any before is asked for."""

    def __init__(self, colors, moves_of, key):
        self.colors, self.moves_of, self.key = colors, moves_of, key
        self.cuts, self.limit, self.bounded, self.listed = {}, 0, {}, {}

    def ops_by_output(self, output, arity=None):
        entries = self.listed.get((output, arity))
        if entries is None:
            if arity is None:
                cuts = oracle_fold_cuts(output, self.moves_of, self.key, self.cuts)
            else:
                if arity > self.limit:
                    self.limit, self.bounded = arity, {}
                cuts = oracle_fold_cuts(output, self.moves_of, None, self.bounded, self.limit)
                cuts = [c for c in cuts if len(c) == arity]
            entries = tuple((c, (Operation(output, c),)) for c in cuts)
            self.listed[output, arity] = entries
        return entries

    def ops(self, inputs, output):
        return dict(self.ops_by_output(output)).get(tuple(sorted(inputs)), ())

    def ops_for_inputs(self, inputs):
        return tuple((c, op) for c in self.colors for op in self.ops(inputs, c))


def _cut_operad_and_oracle(rng, kind, stump_probability):
    if kind == "free":
        forest = random_forest(rng, 9, stump_probability, min_components=1)
        oracle = OracleCutListing(forest.edges, tree_moves(forest.components), len)
        return FreeForestOperad(forest), oracle
    factors = [random_tree(rng, 4, stump_probability, prefix=q) for q in ("a", "b")]
    moves = dict(_state_table(factors))
    return BVTensorOperad(factors), OracleCutListing(tuple(sorted(moves)), moves.__getitem__, None)


@given(seeds, st.sampled_from(["free", "tensor"]), st.sampled_from([0.0, 0.3]))
@settings(max_examples=150, deadline=None)
def test_cut_listing_equals_two_memo_oracle(seed, kind, stump_probability):
    # full listings, slices whose arity rises and falls, ops and
    # ops_for_inputs, interleaved at random on one operad: one fold memo
    # under one bound gives the entries, in the order, that two memos gave
    rng = Random(seed)
    p, oracle = _cut_operad_and_oracle(rng, kind, stump_probability)
    colors = p.colors()
    assert colors == oracle.colors
    for _ in range(40):
        c = rng.choice(colors)
        query = rng.randrange(4)
        if query == 0:
            assert p.ops_by_output(c) == oracle.ops_by_output(c)
        elif query == 1:
            k = rng.randrange(6)
            assert p.ops_by_output(c, k) == oracle.ops_by_output(c, k)
        else:
            inputs = list(rng.choice(oracle.ops_by_output(c))[0])
            if rng.random() < 0.3:
                inputs = rng.sample(colors, min(len(colors), rng.randrange(4)))
            rng.shuffle(inputs)
            if query == 2:
                assert p.ops(inputs, c) == oracle.ops(inputs, c)
            else:
                assert p.ops_for_inputs(inputs) == oracle.ops_for_inputs(inputs)


@pytest.mark.parametrize("kind", ["free", "tensor"])
def test_cut_listing_reads_memo_hits_without_folding(monkeypatch, kind):
    # every color lies above the root, so one fold of the rows above the
    # root puts every color in the memo: a slice at or below its bound
    # folds nothing more.  Each fold is recorded with its limit
    if kind == "free":
        p, root = FreeForestOperad(parse_tree("r[a[x,y,z[]],b[u,v],c]")), "r"
    else:
        p, root = BVTensorOperad([parse_tree("p[x,y]"), parse_tree("q[u[w],v]")]), "(p|q)"
    table_fold, limits = lurie_module._fold, []
    monkeypatch.setattr(lurie_module, "_fold", lambda *a: limits.append(a[2]) or table_fold(*a))
    p.ops_by_output(root, 2)
    assert set(p._folds) == set(p.colors())
    for c in p.colors():
        for k in (2, 0, 1):
            p.ops_by_output(c, k)
    assert limits == [2]
    p.ops_by_output(root, 3)  # a larger bound empties the memo
    assert limits == [2, 3]
    p.ops_by_output(root)
    for c in p.colors():
        p.ops_by_output(c)
        for k in (4, 1, 3, 0, 2):
            p.ops_by_output(c, k)
    assert limits == [2, 3, math.inf]


@pytest.mark.parametrize("kind", ["free", "tensor"])
def test_cut_listing_folds_only_the_rows_above_its_color(monkeypatch, kind):
    # bin5's root has 458,330 cuts, over 3 s and 200 MiB to list: a full
    # listing of a leaf, of an edge of another component or of an inner
    # edge of bin5 folds only the rows above it that the memo lacks, and
    # the root then folds only the rest
    big = parse_tree(binary_text(5, "t"))
    if kind == "free":
        p = FreeForestOperad(parse_forest(f"{{{binary_text(5, 't')};r[a,b[c]]}}"))
        above = lambda c: set(p.forest.component_of[c].subtree_edges(c))
        asks, root = ["t5", "b", "t2", "t33", "r"], "t0"
    else:
        p = BVTensorOperad([big, parse_tree("x")])
        above = lambda c: {d for d in p.colors() if decode(d)[0] in big.subtree_edges(decode(c)[0])}
        asks, root = ["(t5|x)", "(t2|x)", "(t33|x)"], "(t0|x)"
    fold, folded = lurie_module._fold, []

    def counted(rows, *args):
        rows = list(rows)
        folded.append({d for d, _ in rows})
        assert len(rows) < 63 - 30, "folded the root's rows"
        return fold(rows, *args)

    monkeypatch.setattr(lurie_module, "_fold", counted)
    done = set()
    for c in asks:
        assert p.ops_by_output(c) == p.ops_by_output(c)  # the second is a hit
        assert folded[-1] == above(c) - done
        done |= folded[-1]
    assert len(folded) == len(asks)
    with pytest.raises(AssertionError, match="root"):
        p.ops_by_output(root)
    assert folded[-1] == above(root) - done and len(folded[-1]) == 63 - 30


@pytest.mark.parametrize("kind", ["free", "tensor"])
def test_maps_into_folds_once_per_table_root(monkeypatch, kind):
    # the root keys are asked in color order, so a root of the table (the
    # first color of its component) is asked first and its fold lists every
    # row above it: one fold per table root.  Asked leaf first, the same
    # listing folds one row per call
    if kind == "free":
        make = lambda: FreeForestOperad(parse_forest("{g0[g1[g3,g4],g2];h0[h1,h2[]]}"))
        roots = ["g0", "h0"]
    else:
        make = lambda: BVTensorOperad([parse_tree("x0[x1[x3,x4],x2]"), parse_tree("y0[y1[y2]]")])
        roots = ["(x0|y0)"]
    fold, folded = lurie_module._fold, []

    def counted(rows, *args):
        rows = list(rows)
        folded.append([d for d, _ in rows])
        return fold(rows, *args)

    monkeypatch.setattr(lurie_module, "_fold", counted)
    corolla = parse_tree("s[a,b]")
    p = make()
    maps = maps_into(corolla, p)
    assert [rows[-1] for rows in folded] == roots
    assert sum(map(len, folded)) == len(p.colors())
    folded.clear()
    monkeypatch.setattr(lurie_module, "_key_passes", leaf_first_key_passes)
    assert maps_into(corolla, make()) == maps
    assert len(folded) > 2 * len(roots)


def test_hom_into_a_deep_binary_tree_wraps_only_the_cuts_it_uses(monkeypatch):
    # bin5 has 459,892 cuts over its 63 edges; every vertex of bin2 is
    # binary, so only the 31 cuts of two inputs can take one
    built = []

    def counting(output, inputs):
        built.append(output)
        return omegacat_module._operation(output, inputs)

    monkeypatch.setattr(lurie_module, "_operation", counting)
    maps = hom(parse_tree(binary_text(2, "s")), parse_tree(binary_text(5, "t")))
    assert len(maps) == len(set(maps)) == 120
    assert len(built) < 1_000


def test_maps_into_counts_before_building(monkeypatch):
    # over the cap, maps_into must refuse from its counts alone: no map is
    # listed, so neither the odometer nor a product is ever called
    def refuse(*args, **kwargs):
        raise AssertionError("built")

    scope = parse_forest("{s[a,b];u[v[w]]}")
    p = FreeForestOperad(parse_tree("r[x[p,q],y[z]]"))
    n = len(maps_into(scope, p))
    monkeypatch.setattr(lurie_module, "product", refuse)
    monkeypatch.setattr(lurie_module, "_odometer", refuse)
    with pytest.raises(TreeError, match=f"would produce {n} > cap {n - 1}"):
        maps_into(scope, p, cap=n - 1)


def random_table_operad(rng):
    """Up to four colors and eight entries of 0-3 inputs (colors may repeat
    within a family), each with one or two labels."""
    colors = ["a", "b", "c", "d"][: rng.randint(1, 4)]
    entries = [
        {
            "inputs": [rng.choice(colors) for _ in range(rng.randint(0, 3))],
            "output": rng.choice(colors),
            "elements": [f"m{rng.randint(0, 3)}" for _ in range(rng.randint(1, 2))],
        }
        for _ in range(rng.randint(0, 8))
    ]
    return TableOperad.from_json({"colors": colors, "operations": entries})


def test_table_operad_index_matches_sorted_table():
    rng = Random(5)
    for _ in range(40):
        p = random_table_operad(rng)
        colors = p.colors()
        table = {
            (tuple(e["inputs"]), e["output"]): tuple(e["elements"])
            for e in p.to_json()["operations"]
        }
        listed = _sorted_by_output(table)
        for c in colors:
            assert p.ops_by_output(c) == listed(c)
        assert p.ops_by_output("absent") == ()


def _scan_ops(p, inputs, output):
    """``FreeForestOperad.ops`` as a scan of the listing at ``output``."""
    key = tuple(sorted(inputs))
    if len(set(key)) != len(key) or output not in p.colors():
        return ()
    for fam, labels in p.ops_by_output(output):
        if fam == key:
            return labels
    return ()


def test_free_forest_ops_lookup_matches_scan():
    rng = Random(8)
    for _ in range(60):
        forest = random_forest(rng, 9, 0.3, min_components=1)
        p = FreeForestOperad(forest)
        edges = list(forest.edges)
        for output in rng.sample(edges, len(edges)):
            queries = [op.inputs[::-1] for op in closure_operations(forest, output)]
            queries += [
                tuple(rng.sample(edges, rng.randint(0, min(4, len(edges)))))
                for _ in range(6)
            ]
            queries += [q + q[:1] for q in queries if q]
            for q in queries:
                assert p.ops(q, output) == _scan_ops(p, q, output)
        assert p.ops((), "absent") == () == _scan_ops(p, (), "absent")
        for output in edges:
            assert p.ops_by_output(output) == tuple(
                (op.inputs, (op,)) for op in closure_operations(forest, output)
            )


# -- fiberwise morphisms ---------------------------------------------------------


def _collapse(m):
    sk = FinPtdObj.skeleton(m)
    return FinPtdMor(sk, FinPtdObj.skeleton(1), tuple(1 for _ in range(m)))


def test_ell_hom_counts_products_of_cut_sets():
    p = FreeForestOperad(parse_forest("{r[a[x],b[]]}"))
    alpha = _collapse(2)
    src = EllObject(FinPtdObj.skeleton(2), ("a", "b"))
    hit = EllObject(FinPtdObj.skeleton(1), ("r",))
    miss = EllObject(FinPtdObj.skeleton(1), ("x",))
    assert len(ell_hom(p, alpha, src, hit)) == 1
    assert len(ell_hom(p, alpha, src, miss)) == 0


def test_ell_identity_and_compose():
    p = FreeForestOperad(parse_forest("{r[a[x],b[]]}"))
    x = EllObject(FinPtdObj.skeleton(2), ("a", "b"))
    ident = ell_identity(p, x)
    assert ident.alpha.is_identity
    alpha = _collapse(2)
    y = EllObject(FinPtdObj.skeleton(1), ("r",))
    (f,) = ell_hom(p, alpha, x, y)
    assert ell_compose(p, f, ident) == f
    assert ell_compose(p, ell_identity(p, y), f) == f


def test_ell_compose_matches_substitution():
    p = FreeForestOperad(parse_forest("{r[a[x,y],b]}"))
    mid = EllObject(FinPtdObj.skeleton(2), ("a", "b"))
    top = EllObject(FinPtdObj.skeleton(3), ("x", "y", "b"))
    out = EllObject(FinPtdObj.skeleton(1), ("r",))
    beta = FinPtdMor(top.base, mid.base, (1, 1, 2))
    (g0,) = ell_hom(p, beta, top, mid)
    (g1,) = ell_hom(p, _collapse(2), mid, out)
    comp = ell_compose(p, g1, g0)
    assert comp.component[1] == Operation("r", ("b", "x", "y"))


# -- fibrous checks ---------------------------------------------------------------


@pytest.mark.parametrize("text", ["{r[a[x],b[]]}", "{p[q,s]}", "{e}"])
def test_honest_presentation_is_fibrous(text):
    pres = EllPresentation(FreeForestOperad(parse_forest(text)))
    report = check_fibrous(pres, truncation=2, rng=Random(0), **EXHAUSTIVE)
    assert report.passed, report.failures
    assert report.cocartesian_checked > 0
    assert report.fiber_products_checked > 0
    assert report.component_formulas_checked > 0


def test_every_defect_fixture_is_detected():
    for name, pres in defect_fixtures():
        report = check_fibrous(pres, truncation=2, rng=Random(0), **EXHAUSTIVE)
        assert not report.passed, f"{name} slipped through"


def test_fixture_detection_is_seed_independent():
    # a run stopped at its first failure keeps exactly the full run's first
    # failure, after no more checks than the full run made
    for name, pres in defect_fixtures():
        for seed in (0, 1, 7, 42, f"42:fixture:{name}"):
            report = check_fibrous(pres, truncation=2, rng=Random(seed), **EXHAUSTIVE)
            assert not report.passed, f"{name} slipped through at seed {seed}"
            stop = check_fibrous(
                pres, truncation=2, rng=Random(seed), stop_on_failure=True, **EXHAUSTIVE
            )
            assert stop.failures == report.failures[:1]
            assert all(s <= f for s, f in zip(_counters(stop), _counters(report)))


# Reports of check_fibrous recorded before the per-call hom memo and the lazy
# pools: the three counters, then the number of failures and the sha256 of
# their "\n"-joined list, first under the suite's own budgets (at most 25
# failures kept) and then with every failure kept.  The report bytes carry
# only pass or fail per fixture, so these pin the checks themselves.
FIXTURE_REPORTS = {
    "drop-active-family": (
        (89, 272, 2804),
        (8, "9ecaac6ebabab477e9b13becccb964694d3b1763f2cf160df170f823dbad8192"),
        (8, "9ecaac6ebabab477e9b13becccb964694d3b1763f2cf160df170f823dbad8192"),
    ),
    "drop-restrictions": (
        (89, 272, 2804),
        (25, "0f30b6091c893c46ebc9f5819e5463387f1471e9130d8e0d57681c223320810e"),
        (196, "5708f05da12310b359a8c5515d0a9230524efa0d39fed8031ac0e8d761e6ecc8"),
    ),
    "duplicate-family": (
        (89, 272, 2804),
        (25, "b78f81ebc9be4962b4e6e7f2c93b158391ca91be5c87ac39b2560bb1de9e1ac8"),
        (456, "b8b38d2df384e6820863af78e27ae8316358018848f38bf5a6456d7fa9e60313"),
    ),
    "lossy-compose": (
        (89, 272, 2804),
        (25, "d0c5207f7be073b6c15316b15e50fd6d6cdef0fb96f33f2ff50ae8cfd1e6fb13"),
        (1068, "b150610a4b5420a2d12435d49812ee74da2767fbb68eb65817513105672b2790"),
    ),
    "skew-lift": (
        (89, 272, 2804),
        (25, "f9337a3c471a82182853e23df4ef7bd04629b99435f3677b88c3afc50abe726f"),
        (376, "d19f6c7778f5ce3a00fa809d7b6834a815fe6513908b6e9606e092438324320c"),
    ),
}
CLEAN_INSTANCES = ["{t0_0;t1_0}", "{t0_0;t1_0[t1_1]}", "{t0_0;t1_0;t2_0[]}"]


def _counters(report):
    return (
        report.cocartesian_checked,
        report.fiber_products_checked,
        report.component_formulas_checked,
    )


def _digest(failures):
    return len(failures), hashlib.sha256("\n".join(failures).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FIXTURE_REPORTS))
def test_fixture_reports_are_pinned(name):
    counters, kept, every = FIXTURE_REPORTS[name]
    pres = dict(defect_fixtures())[name]
    for max_failures, pinned in ((25, kept), (10**9, every)):
        report = check_fibrous(
            pres,
            truncation=2,
            rng=Random(f"42:fixture:{name}"),
            max_failures=max_failures,
            **EXHAUSTIVE,
        )
        assert _counters(report) == counters
        assert _digest(report.failures) == pinned


def test_clean_suite_instances_are_pinned():
    rng = Random("42:fibrous")
    for i, text in enumerate(CLEAN_INSTANCES):
        forest = random_forest(rng, 6, 0.2, min_components=1)
        assert serialize_forest(forest) == text
        pres = EllPresentation(FreeForestOperad(forest))
        report = check_fibrous(pres, truncation=4, rng=Random(f"42:fibrous:{i}"))
        assert _counters(report) == (29, 12, 252)
        assert report.failures == []


class _CountingHoms:
    """Records every hom listing the fibrous checks ask a presentation for."""

    def __init__(self, p):
        super().__init__(p)
        self.listed = Counter()

    def hom(self, alpha, src, dst):
        self.listed[(alpha, src, dst)] += 1
        return super().hom(alpha, src, dst)


HOM_COUNTING_CASES = [
    (text, EllPresentation(FreeForestOperad(parse_forest(text))))
    for text in ("{r[a[x],b[]]}", "{p[q,s]}")
] + list(defect_fixtures())


@pytest.mark.parametrize("name, pres", HOM_COUNTING_CASES)
def test_each_hom_is_listed_once_per_check(name, pres):
    counting = type("Counting", (_CountingHoms, type(pres)), {})(pres.operad)
    for trunc, budgets in ((2, EXHAUSTIVE), (3, {})):
        counting.listed.clear()
        report = check_fibrous(counting, truncation=trunc, rng=Random(1), **budgets)
        plain = check_fibrous(pres, truncation=trunc, rng=Random(1), **budgets)
        assert _counters(report) == _counters(plain)
        assert report.failures == plain.failures
        assert counting.listed and max(counting.listed.values()) == 1


def test_early_stop_changes_nothing_on_clean_instances():
    rng = Random("42:fibrous")
    for i, text in enumerate(CLEAN_INSTANCES):
        forest = random_forest(rng, 6, 0.2, min_components=1)
        assert serialize_forest(forest) == text
        pres = EllPresentation(FreeForestOperad(forest))
        full = check_fibrous(pres, truncation=4, rng=Random(f"42:fibrous:{i}"))
        stop = check_fibrous(
            pres, truncation=4, rng=Random(f"42:fibrous:{i}"), stop_on_failure=True
        )
        assert stop == full


# Checked to the end, the five fixtures list 5 x 2,825 = 14,125 homs in the
# suite's fixture loop; stopped at their first failure they list 1,601.
FIXTURE_LOOP_HOMS = 2000


def test_suite_fixtures_stop_at_their_first_failure(monkeypatch):
    made = []

    def counting_fixtures():
        for name, pres in defect_fixtures():
            made.append(type("Counting", (_CountingHoms, type(pres)), {})(pres.operad))
            yield name, made[-1]

    monkeypatch.setattr(suites_module, "defect_fixtures", counting_fixtures)
    report = suites_module.run_check("fibrous", suites_module.SuiteConfig(seed=42, instances=1))
    records = report["suites"][0]["records"]
    assert [r["status"] for r in records if r["check"] == "defect-detected"] == ["pass"] * 5
    assert len(made) == 5
    assert sum(sum(c.listed.values()) for c in made) < FIXTURE_LOOP_HOMS


VACUOUS = {"max_failures=0": {"max_failures": 0}, "max_failures=-3": {"max_failures": -3},
           "truncation=-1": {"truncation": -1}}
# a budget of 0 samples no colouring, inert map, lift, arrow or fibre pair;
# at 0 colourings three of the five defect fixtures passed, at 0 lifts two
VACUOUS.update({f"{budget}={value}": {budget: value} for budget in EXHAUSTIVE for value in (0, -1)})


@pytest.mark.parametrize("name", ["honest"] + sorted(FIXTURE_REPORTS))
@pytest.mark.parametrize("bad", sorted(VACUOUS))
def test_vacuous_settings_are_refused(name, bad):
    # at these settings the check kept no failure or ran no check, and passed
    fixtures = dict(defect_fixtures())
    fixtures["honest"] = EllPresentation(FreeForestOperad(parse_forest("{p[q,s]}")))
    kwargs = {"truncation": 2, **EXHAUSTIVE, **VACUOUS[bad]}
    with pytest.raises(TreeError, match=r"^check_fibrous needs [a-z_]+ >= [01], got -?\d+$"):
        check_fibrous(fixtures[name], rng=Random(0), **kwargs)


def oracle_ell_hom(p, alpha, src, dst):
    """Reference for ``ell_hom``: the listing before the early exit on an
    empty operation set, the identity test on bases and the fibre lookups."""
    if alpha.src != src.base or alpha.dst != dst.base:
        raise TreeError("objects do not sit over the pointed map")
    per_elem = []
    for j in dst.base.elements:
        fam = tuple(src.color_of(i) for i in alpha.fiber(j))
        labels = p.ops(fam, dst.color_of(j))
        per_elem.append([(j, lab) for lab in labels])
    return tuple(
        EllMorphism(alpha, src, dst, tuple(combo)) for combo in product(*per_elem)
    )


def _random_hom(rng, p):
    """A pointed map ``<m> -> <n>`` (``m, n <= 3``) with a source coloured
    from one or two colours, so colours repeat, and a target that is either
    reached by some arrow or coloured at random; now and then a base is a
    fresh equal object, or a base of the wrong size."""
    colors = p.colors()
    palette = rng.sample(colors, min(len(colors), rng.randint(1, 2)))
    m, n = rng.randint(0, 3), rng.randint(0, 3)
    src_base, dst_base = FinPtdObj.skeleton(m), FinPtdObj.skeleton(n)
    alpha = FinPtdMor(
        src_base, dst_base, tuple(rng.choice(dst_base.elements + (STAR,)) for _ in range(m))
    )
    src = EllObject(src_base, tuple(rng.choice(palette) for _ in range(m)))
    reached = [y for y, _ in EllPresentation(p).arrows_from(alpha, src)]
    if reached and rng.random() < 0.7:
        dst = rng.choice(reached)
    else:
        dst = EllObject(dst_base, tuple(rng.choice(colors) for _ in range(n)))
    move = rng.random()
    if move < 0.1:
        src = EllObject(FinPtdObj.skeleton(m), src.colors)
    elif move < 0.15:
        src = EllObject(FinPtdObj.skeleton(m + 1), src.colors + (colors[0],))
    elif move < 0.2:
        dst = EllObject(FinPtdObj.skeleton(n + 1), dst.colors + (colors[0],))
    return alpha, src, dst


def _same_hom(p, alpha, src, dst):
    try:
        expected = oracle_ell_hom(p, alpha, src, dst)
    except TreeError as want:
        with pytest.raises(TreeError) as got:
            ell_hom(p, alpha, src, dst)
        assert str(got.value) == str(want)
        return None
    assert ell_hom(p, alpha, src, dst) == expected
    return expected


@given(seeds, st.sampled_from(["free", "tensor", "table"]))
@settings(max_examples=200, deadline=None)
def test_ell_hom_equals_oracle(seed, kind):
    rng = Random(seed)
    p = _random_target(rng, kind)
    for _ in range(10):
        _same_hom(p, *_random_hom(rng, p))


def test_ell_hom_oracle_cases_are_covered():
    # homs into <0>, homs with a target element over an empty fibre, empty
    # homs, homs with a repeated source colour, and mismatched bases
    seen = Counter()
    rng = Random(3)
    for kind in ("free", "tensor", "table") * 40:
        p = _random_target(rng, kind)
        for _ in range(10):
            alpha, src, dst = _random_hom(rng, p)
            listed = _same_hom(p, alpha, src, dst)
            if listed is None:
                seen["mismatch"] += 1
                continue
            seen["into <0>"] += not dst.base.elements
            seen["empty fibre, listed"] += bool(listed) and any(
                not alpha.fiber(j) for j in dst.base.elements
            )
            seen["empty"] += not listed
            seen[f"repeated colour, {kind}"] += bool(listed) and len(set(src.colors)) < len(src.colors)
    kinds = [f"repeated colour, {kind}" for kind in ("free", "tensor", "table")]
    for case in ["mismatch", "into <0>", "empty fibre, listed", "empty"] + kinds:
        assert seen[case] >= 5, (case, seen)


# -- the fiberwise layer read by position, against the code it replaced -----------


def replaced_color_of(obj, x):
    """``EllObject.color_of`` before objects read colours by position."""
    return obj.colors[obj.base.elements.index(x)]


def replaced_ell_hom(p, alpha, src, dst):
    """``ell_hom`` before it read fibre colours by position."""
    if (alpha.src is not src.base and alpha.src != src.base) or (
        alpha.dst is not dst.base and alpha.dst != dst.base
    ):
        raise TreeError("objects do not sit over the pointed map")
    fibers = alpha.fibers
    per_elem = []
    for j, color in zip(dst.base.elements, dst.colors):
        labels = p.ops(tuple(replaced_color_of(src, i) for i in fibers.get(j, ())), color)
        if not labels:
            return ()
        per_elem.append([(j, lab) for lab in labels])
    return tuple(
        EllMorphism(alpha, src, dst, tuple(combo)) for combo in product(*per_elem)
    )


def replaced_after(g, f):
    """``FinPtdMor.after`` before it mapped through one pointed dict."""
    if f.dst != g.src:
        raise TreeError("pointed maps do not compose")
    return FinPtdMor(f.src, g.dst, tuple(STAR if v == STAR else g.mapping[v] for v in f.values))


def replaced_arrows_from(p, gamma, src):
    """``EllPresentation.arrows_from`` before its choices read by position."""
    if gamma.src != src.base:
        raise TreeError("source object does not sit over the map")
    choices = [
        [(k, c, lab) for c, lab in p.ops_for_inputs(
            tuple(replaced_color_of(src, i) for i in gamma.fiber(k)))]
        for k in gamma.dst.elements
    ]
    out = []
    for combo in product(*choices):
        dst = EllObject(gamma.dst, tuple(c for _, c, _ in combo))
        out.append((dst, EllMorphism(gamma, src, dst, tuple((k, lab) for k, _, lab in combo))))
    return tuple(out)


def replaced_chain_to_map(ch):
    """``chain_to_map`` before it read edge names from the simplex's table."""
    cmap = {}
    for i, obj in enumerate(ch.objects):
        for x in obj.base.elements:
            cmap[edge_name(i, str(x))] = replaced_color_of(obj, x)
    vmap = {}
    for i, mor in enumerate(ch.arrows, start=1):
        for k, lab in mor.components:
            vmap[edge_name(i, str(k))] = lab
    return ForestInto.build(cmap.items(), vmap.items())


# elements of bases that are not skeleta: strings, other integers, and "1"
# beside 1, which name the same edge
BASE_ELEMENTS = (0, 1, 2, 5, -3, "1", "a", "b", "x1", "ℓ")


def _random_base(rng):
    if rng.random() < 0.3:
        return FinPtdObj.skeleton(rng.randint(0, 3))
    return FinPtdObj(tuple(rng.sample(BASE_ELEMENTS, rng.randint(0, 3))))


def _random_pointed_map(rng, src, dst):
    return FinPtdMor(src, dst, tuple(rng.choice(dst.elements + (STAR,)) for _ in src.elements))


def test_skeleta_are_shared_and_equal_to_fresh_sets():
    assert FinPtdObj.skeleton(3) is FinPtdObj.skeleton(3)
    fresh = FinPtdObj((1, 2, 3))
    assert fresh is not FinPtdObj.skeleton(3)
    assert fresh == FinPtdObj.skeleton(3) and hash(fresh) == hash(FinPtdObj.skeleton(3))
    assert FinPtdObj(("b", 1, "a")).position == {"b": 0, 1: 1, "a": 2}
    assert rho(3, 2).src is FinPtdObj.skeleton(3) and rho(3, 2).dst is FinPtdObj.skeleton(1)


@given(seeds, st.sampled_from(["free", "tensor", "table"]))
@settings(max_examples=150, deadline=None)
def test_position_reads_equal_the_replaced_code(seed, kind):
    # bases that are not skeleta, maps hitting STAR, composites and the
    # arrows out of an object, on all three realizations
    rng = Random(seed)
    p = _random_target(rng, kind)
    colors = p.colors()
    pres = EllPresentation(p)
    for _ in range(8):
        src_base, mid_base, dst_base = (_random_base(rng) for _ in range(3))
        alpha = _random_pointed_map(rng, src_base, mid_base)
        beta = _random_pointed_map(rng, mid_base, dst_base)
        assert beta.after(alpha) == replaced_after(beta, alpha)
        if alpha.dst != alpha.src:
            with pytest.raises(TreeError, match="^pointed maps do not compose$"):
                alpha.after(alpha)
        src = EllObject(src_base, tuple(rng.choice(colors) for _ in src_base.elements))
        assert [src.color_of(x) for x in src_base.elements] == list(src.colors)
        arrows = pres.arrows_from(alpha, src)
        assert arrows == replaced_arrows_from(p, alpha, src)
        if arrows and rng.random() < 0.7:
            dst, f = rng.choice(arrows)
        else:
            dst = EllObject(mid_base, tuple(rng.choice(colors) for _ in mid_base.elements))
            f = None
        assert ell_hom(p, alpha, src, dst) == replaced_ell_hom(p, alpha, src, dst)
        if f is not None and kind != "table":
            for _, g in pres.arrows_from(beta, dst)[:3]:
                composite = ell_compose(p, g, f)
                assert composite.alpha == replaced_after(g.alpha, f.alpha)
                assert composite in ell_hom(p, composite.alpha, src, g.dst)


def test_position_reads_refuse_what_the_replaced_code_refused():
    p = FreeForestOperad(parse_forest("{r[a,b]}"))
    two, other = FinPtdObj.skeleton(2), FinPtdObj(("a", "b"))
    alpha = FinPtdMor(two, FinPtdObj.skeleton(1), (1, STAR))
    src = EllObject(other, ("a", "b"))
    dst = EllObject(FinPtdObj.skeleton(1), ("r",))
    for call in (lambda: ell_hom(p, alpha, src, dst), lambda: replaced_ell_hom(p, alpha, src, dst)):
        with pytest.raises(TreeError, match="^objects do not sit over the pointed map$"):
            call()
    for call in (lambda: EllPresentation(p).arrows_from(alpha, src),
                 lambda: replaced_arrows_from(p, alpha, src)):
        with pytest.raises(TreeError, match="^source object does not sit over the map$"):
            call()
    back = FinPtdMor(other, two, (2, 1))
    for call in (lambda: back.after(alpha), lambda: replaced_after(back, alpha)):
        with pytest.raises(TreeError, match="^pointed maps do not compose$"):
            call()


def _off_level_chain(rng, ch):
    """The chain over another simplex, or with its objects moved off the
    simplex's levels: elements given as integers or renamed, or one level
    more or fewer than the simplex has."""
    move = rng.randrange(4)
    if move == 0:
        return lurie_module.Chain(random_fin_simplex(rng, 3, 3), ch.objects, ch.arrows)
    if move == 3:
        objs = ch.objects[:-1] if len(ch.objects) > 1 and rng.random() < 0.5 else ch.objects + ch.objects[-1:]
        return lurie_module.Chain(ch.simplex, objs, ch.arrows)
    if move == 1:  # "2" becomes 2, which names the same edge
        def base(b):
            return FinPtdObj(tuple(int(x) if x.isdecimal() else x for x in b.elements))
    else:
        def base(b):
            return FinPtdObj(tuple(f"{x}_" for x in b.elements))
    objs = tuple(EllObject(base(o.base), o.colors) for o in ch.objects)
    return lurie_module.Chain(ch.simplex, objs, ch.arrows)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_chain_to_map_equals_the_replaced_code(seed):
    rng = Random(seed)
    p = FreeForestOperad(random_forest(rng, 4, 0.3, min_components=1))
    a = random_fin_simplex(rng, 3, 3)
    try:
        chains = enumerate_chains(p, a, cap=400)
    except TreeError:
        chains = ()
    for ch in chains[:10]:
        assert chain_to_map(ch) == replaced_chain_to_map(ch)
        off = _off_level_chain(rng, ch)
        assert chain_to_map(off) == replaced_chain_to_map(off)


# The sha256 of the ordered (alpha.values, src.colors, dst.colors) of every
# pres.hom call, and of the (alpha.values, src.colors, dst.colors,
# components) of both inputs of every pres.compose call, recorded before the
# fiberwise layer read colours by position: the three clean suite instances
# at truncation 4 and the five fixtures run to the end at truncation 2,
# with the suite's seeds.
CALL_SEQUENCES = {
    "{t0_0;t1_0}": (
        "615bb472d038534dd7290728d87638f2abc041ac9b2dfad1254ed810398330a3",
        "0f08f0f6c2413c4934c96598f8b11c9d752879a875b65dac6b766ec9d6ab6f09",
    ),
    "{t0_0;t1_0[t1_1]}": (
        "c10539e3ae4df83890473dfc7ec34fd399072f141be0554b140c7378e965c882",
        "6fac923ed961a72af030951afae3d3e6b2b2627bc9f6acd1dcad13e1d0ccaf50",
    ),
    "{t0_0;t1_0;t2_0[]}": (
        "eb1bf3d87ed1b872c892f99da0ef5c5e68b1dd6c8b453cb6d7d8af3865156344",
        "003492576aaeb25d57e11a91f1985bc08ceb7ad4af5ea3144f4009f066f18853",
    ),
    "drop-active-family": (
        "5442f5b7c059a78e45030e024e45412869851fdc30fcced68c528535cc05f2c4",
        "790b54022f6b539b3d843681d707a46733964277af719e9909d6166192bddec3",
    ),
    "drop-restrictions": (
        "fd1dcebd81596f5383e02d4e5e527912f3d98bd530add4387f9139d8ee8c7b20",
        "3c9b23c915204379c4c3b7d27ee149810e18ff35234c2d550c0f1fbb633d019d",
    ),
    "duplicate-family": (
        "9929b326c456704490e5f5615a8886fcaa699b9c3af1f0d531d58c3ebdc0da26",
        "62221a29057dbc58ff53f754fe43577bfcfe5c9e08243ae24ba4d69f2b6fdc5e",
    ),
    "lossy-compose": (
        "9929b326c456704490e5f5615a8886fcaa699b9c3af1f0d531d58c3ebdc0da26",
        "ed10aab8bbac7daf0d1ea5b9db160b1cd7aab6ffe6c71046e13ae2e147c9dd24",
    ),
    "skew-lift": (
        "99cd4e2b02bef42420e830c4fbf5e7dab10250c50d50a13ab57ddbccf9487700",
        "b2929613304982e740ee45b3948420bbcba690de6553e345ca5620a9f5b07230",
    ),
}


class _RecordingCalls:
    """Hashes, in order, every hom and composition a presentation is asked
    for."""

    def __init__(self, p):
        super().__init__(p)
        self.homs, self.composes = hashlib.sha256(), hashlib.sha256()

    def hom(self, alpha, src, dst):
        self.homs.update(repr((alpha.values, src.colors, dst.colors)).encode())
        return super().hom(alpha, src, dst)

    def compose(self, g, f):
        parts = tuple((m.alpha.values, m.src.colors, m.dst.colors, m.components) for m in (g, f))
        self.composes.update(repr(parts).encode())
        return super().compose(g, f)


def _call_sequence_runs():
    rng = Random("42:fibrous")
    for i, text in enumerate(CLEAN_INSTANCES):
        forest = random_forest(rng, 6, 0.2, min_components=1)
        assert serialize_forest(forest) == text
        yield text, EllPresentation(FreeForestOperad(forest)), dict(truncation=4, rng=Random(f"42:fibrous:{i}"))
    for name, pres in defect_fixtures():
        yield name, pres, dict(truncation=2, rng=Random(f"42:fixture:{name}"), **EXHAUSTIVE)


@pytest.mark.parametrize("name", list(CALL_SEQUENCES))
def test_hom_and_compose_call_sequences_are_pinned(name):
    _, pres, kwargs = next(run for run in _call_sequence_runs() if run[0] == name)
    recording = type("Recording", (_RecordingCalls, type(pres)), {})(pres.operad)
    check_fibrous(recording, **kwargs)
    assert (recording.homs.hexdigest(), recording.composes.hexdigest()) == CALL_SEQUENCES[name]


# -- nerve ------------------------------------------------------------------------


SMALL_SIMPLEX = FinSimplex.from_json(
    {"levels": [[1, 2], [1]], "maps": [{"1": 1, "2": 1}]}
)


def test_chains_biject_with_maps_from_level_forest():
    p = FreeForestOperad(parse_forest("{r[a[x],b[]]}"))
    chains = enumerate_chains(p, SMALL_SIMPLEX)
    maps = maps_into(omega_obj(SMALL_SIMPLEX), p)
    assert len(chains) == len(maps)
    assert {chain_to_map(ch) for ch in chains} == set(maps)
    for ch in chains:
        back = map_to_chain(p, SMALL_SIMPLEX, chain_to_map(ch))
        assert back == ch


def test_degenerate_chain_round_trip():
    p = FreeForestOperad(parse_forest("{r[a]}"))
    a = FinSimplex.from_json({"levels": [[1]], "maps": []})
    chains = enumerate_chains(p, a)
    # one chain per color
    assert len(chains) == len(p.colors())


def oracle_level_objects(a):
    """The pointed levels as ``map_to_chain`` built them on every call."""
    return tuple(FinPtdObj(tuple(lev)) for lev in a.levels)


def oracle_level_maps(a):
    xs = oracle_level_objects(a)
    return tuple(
        FinPtdMor(xs[i], xs[i + 1], tuple(a.alpha(i + 1)[b] for b in xs[i].elements))
        for i in range(a.n)
    )


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_pointed_levels_are_built_once_per_diagram(seed):
    a = random_fin_simplex(Random(seed), 5, 4)
    xs, als = a.pointed_levels
    assert (xs, als) == (oracle_level_objects(a), oracle_level_maps(a))
    assert a.pointed_levels is a.pointed_levels
    assert FinSimplex(a.levels, a.maps).pointed_levels is not a.pointed_levels


def test_restriction_naturality():
    p = FreeForestOperad(parse_forest("{r[a[x],b[]]}"))
    for phi in [
        SimplicialOperator.face(1, 0),
        SimplicialOperator.face(1, 1),
        SimplicialOperator.degeneracy(1, 0),
    ]:
        a = SMALL_SIMPLEX
        h = omega_mor(phi, a)
        for ch in enumerate_chains(p, a):
            lhs = chain_to_map(restrict_chain(p, ch, phi))
            rhs = precompose(p, chain_to_map(ch), h)
            assert lhs == rhs


def test_enumeration_caps_abort():
    p = FreeForestOperad(parse_forest("{r[a[x],b[]]}"))
    with pytest.raises(TreeError):
        enumerate_chains(p, SMALL_SIMPLEX, cap=1)
    with pytest.raises(TreeError):
        maps_into(omega_obj(SMALL_SIMPLEX), p, cap=1)


def recursive_enumerate_chains(p, a, cap=None):
    """``enumerate_chains`` before it counted: every partial chain walked,
    each arrow built again on every path, and the cap checked only on
    complete chains."""
    xs, als = a.pointed_levels
    chains = []

    def rec(i, objs, arrows):
        if i == a.n:
            if cap is not None and len(chains) >= cap:
                raise TreeError(f"chain enumeration exceeded cap {cap}")
            chains.append(lurie_module.Chain(a, tuple(objs), tuple(arrows)))
            return
        for combo in product(*lurie_module._choices(p, als[i], objs[-1])):
            dst, mor = lurie_module._arrow(als[i], objs[-1], combo)
            rec(i + 1, objs + [dst], arrows + [mor])

    for c0 in product(p.colors(), repeat=len(xs[0].elements)):
        rec(0, [EllObject(xs[0], tuple(c0))], [])
    return tuple(chains)


@given(seeds, st.sampled_from(["free", "table"]))
@settings(max_examples=150, deadline=None)
def test_enumerate_chains_equals_recursive_oracle(seed, kind):
    # the same chains in the same order, and a refusal exactly where the
    # oracle's count of complete chains passes the cap
    rng = Random(seed)
    if kind == "free":
        p = FreeForestOperad(random_forest(rng, 4, 0.3, min_components=1))
    else:
        p = random_table_operad(rng)
    a = random_fin_simplex(rng, 3, 3)
    try:
        want = recursive_enumerate_chains(p, a, cap=400)
    except TreeError:
        with pytest.raises(TreeError, match="> cap 400"):
            enumerate_chains(p, a, cap=400)
        return
    assert enumerate_chains(p, a) == want
    n = len(want)
    assert enumerate_chains(p, a, cap=n) == want
    if n:
        with pytest.raises(TreeError, match=f"would produce {n} > cap {n - 1}"):
            enumerate_chains(p, a, cap=n - 1)


def test_enumerate_chains_counts_before_it_builds(monkeypatch):
    # a cap below the total raises before any Chain is built, and a listing
    # builds one Chain per chain listed.  Here 144 partial chains reach
    # level 1 and 10 reach the top, where two colors must be the inputs of
    # one operation
    p = FreeForestOperad(parse_forest("{r[a[x],b[]];s[c[y,z]]}"))
    a = FinSimplex.from_json({"levels": [[1, 2], [1, 2], [1]], "maps": [{"1": 1, "2": 2}, {"1": 1, "2": 1}]})
    want = recursive_enumerate_chains(p, a)
    built = []
    chain = lurie_module.Chain
    monkeypatch.setattr(lurie_module, "Chain", lambda *args: built.append(args) or chain(*args))
    chains = enumerate_chains(p, a)
    assert chains == want and len(chains) > 1
    assert len(built) == len(chains)
    built.clear()
    with pytest.raises(TreeError, match=f"would produce {len(chains)} > cap {len(chains) - 1}"):
        enumerate_chains(p, a, cap=len(chains) - 1)
    assert built == []
    assert enumerate_chains(p, a, cap=len(chains)) == chains
    assert len(built) == len(chains)


# -- maps_into against the recursive oracle -----------------------------------------


def oracle_maps_into(scope, p, cap=None):
    """The recursive enumeration the explicit-stack pass replaced, kept as
    the order and cap oracle: one memoized call per (edge, color), each
    sub-map a pair of dicts copying its subtree."""
    forest = as_forest(scope)
    all_colors = p.colors()
    per_comp = []
    for t in forest.components:
        memo = {}

        def emb(e, c, t=t, memo=memo):
            key = (e, c)
            if key in memo:
                return memo[key]
            v = t.vertex_above.get(e)
            if v is None:
                memo[key] = [({e: c}, {})]
                return memo[key]
            out = []
            k = len(v.in_edges)
            for fam, labels in p.ops_by_output(c):
                if len(fam) != k:
                    continue
                for assignment in sorted(set(permutations(fam))):
                    branches = [
                        emb(d, assignment[i]) for i, d in enumerate(v.in_edges)
                    ]
                    if any(not b for b in branches):
                        continue
                    for combo in product(*branches):
                        for lab in labels:
                            cmap = {e: c}
                            vmap = {e: lab}
                            for fc, fv in combo:
                                cmap.update(fc)
                                vmap.update(fv)
                            out.append((cmap, vmap))
            memo[key] = out
            return out

        frags = []
        for c in all_colors:
            frags.extend(emb(t.root, c))
        per_comp.append(frags)
    if cap is not None:
        total = 1
        for frags in per_comp:
            total *= len(frags)
        if total > cap:
            raise TreeError(f"map enumeration would produce {total} > cap {cap}")
    out = []
    for combo in product(*per_comp):
        cmap = {}
        vmap = {}
        for fc, fv in combo:
            cmap.update(fc)
            vmap.update(fv)
        out.append(
            ForestInto(tuple(sorted(cmap.items())), tuple(sorted(vmap.items())))
        )
    return tuple(out)


def _random_target(rng, kind):
    if kind == "free":
        return FreeForestOperad(random_forest(rng, 6, 0.3, min_components=1))
    if kind == "tensor":
        return BVTensorOperad(
            [random_tree(rng, 3, 0.3, prefix=q) for q in ("a", "b")]
        )
    return random_table_operad(rng)


@given(seeds, st.sampled_from(["free", "tensor", "table"]))
@settings(max_examples=300, deadline=None)
def test_maps_into_equals_recursive_oracle(seed, kind):
    rng = Random(seed)
    p = _random_target(rng, kind)
    scope = random_forest(rng, 6, 0.3)
    expected = oracle_maps_into(scope, p)
    assert maps_into(scope, p) == expected
    n = len(expected)
    for cap in (0, n - 1, n):
        if n > cap:
            with pytest.raises(TreeError) as got:
                maps_into(scope, p, cap=cap)
            with pytest.raises(TreeError) as want:
                oracle_maps_into(scope, p, cap=cap)
            assert str(got.value) == str(want.value)
        else:
            assert maps_into(scope, p, cap=cap) == expected


@given(seeds, st.sampled_from(["free", "tensor", "table"]))
@settings(max_examples=150, deadline=None)
def test_map_count_equals_the_listing(seed, kind):
    rng = Random(seed)
    p = _random_target(rng, kind)
    scope = random_forest(rng, 6, 0.3)
    passes = lurie_module._key_passes(scope, p)
    assert lurie_module._map_count(passes, p) == len(maps_into(scope, p))


def leaf_first_key_passes(scope, p):
    """:func:`lurie._key_passes` as it asked before: the root keys pushed in
    color order, so they pop, and are asked for, last color first."""
    all_colors = p.colors()
    passes = []
    for t in as_forest(scope).components:
        above = t.vertex_above
        moves, count = {}, {}
        stack = [(t.root, c) for c in all_colors]
        if t.root not in above:
            count = dict.fromkeys(stack, 1)
            stack = []
        while stack:
            key = stack.pop()
            if key in count:
                continue
            fam_moves = moves.get(key)
            if fam_moves is not None:
                n = 0
                kept = []
                for move in fam_moves:
                    m = len(move[0])
                    for d in move[1]:
                        m *= count[d]
                    if m:
                        n += m
                        kept.append(move)
                moves[key] = kept
                count[key] = n
                continue
            ins = above[key[0]].in_edges
            k = len(ins)
            moves[key] = fam_moves = [
                (labels, tuple(zip(ins, assignment)))
                for fam, labels in p.ops_by_output(key[1], k)
                for assignment in (permutations(fam) if k < 2 or len(set(fam)) == k
                                   else sorted(set(permutations(fam))))
            ]
            stack.append(key)
            for _, kids in fam_moves:
                for d in kids:
                    if d not in count:
                        if d[0] in above:
                            stack.append(d)
                        else:
                            count[d] = 1
        passes.append((t.root, moves, count))
    return passes


@given(seeds, st.sampled_from(["free", "tensor"]), st.sampled_from([0.3, 0.9]))
@settings(max_examples=150, deadline=None)
def test_root_first_asks_list_the_leaf_first_maps(seed, kind, stump_probability):
    # the same moves and counts, and the same maps in the same order, into
    # a target folded root first and into a fresh one asked leaf first
    rng = Random(seed)
    scope = random_forest(rng, 6, stump_probability, max_components=2, min_components=1)
    state = rng.getstate()
    p = _random_target(rng, kind)
    got = maps_into(scope, p)
    rng.setstate(state)
    q = _random_target(rng, kind)
    with patch.object(lurie_module, "_key_passes", leaf_first_key_passes):
        want = maps_into(scope, q)
    assert [(m.colors, m.components) for m in got] == [(m.colors, m.components) for m in want]
    assert lurie_module._key_passes(scope, p) == leaf_first_key_passes(scope, q)


# -- maps_into and the Segal checks against the sort-based assembly -------------


def sorted_assembly_maps_into(scope, p):
    """The assembly the fixed edge order replaced: the same explicit-stack
    pass over the keys of :func:`lurie._key_passes`, sub-maps as nodes
    ``(key, (edge, operation), *child nodes)`` or ``(key, None)``, and every
    map walked and sorted by ``ForestInto.build``."""
    passes = lurie_module._key_passes(scope, p)
    all_colors = p.colors()
    per_comp = []
    for root, moves, order in passes:
        subs = {}
        for key in order:
            if key not in moves:
                subs[key] = [(key, None)]
                continue
            nodes = []
            for labels, kids in moves[key]:
                pairs = [(key[0], lab) for lab in labels]
                nodes += [
                    (key, pair) + combo
                    for combo in product(*[subs[d] for d in kids])
                    for pair in pairs
                ]
            subs[key] = nodes
        per_comp.append([node for c in all_colors for node in subs[(root, c)]])
    out = []
    for combo in product(*per_comp):
        colors, comps, walk = [], [], list(combo)
        while walk:
            node = walk.pop()
            colors.append(node[0])
            if node[1] is not None:
                comps.append(node[1])
            walk += node[2:]
        out.append(ForestInto.build(colors, comps))
    return tuple(out)


def _restrict_into_oracle(m, part):
    sub = as_forest(part)
    outs = [v.out_edge for t in sub.components for v in t.vertices]
    return ForestInto.build(
        ((e, m.color[e]) for e in sub.edges), ((e, m.component[e]) for e in outs)
    )


def oracle_segal_cut_check(p, t, b):
    """The Segal cut check as it read before: restrictions rebuilt by name
    and sorted, and every pair of ``lows x ups`` scanned for agreement at
    ``b``."""
    lower, upper = cut_at(t, b)
    whole = lurie_module.maps_into(t, p)
    lows = lurie_module.maps_into(lower, p)
    ups = lurie_module.maps_into(upper, p)
    matched = {(lo, up) for lo in lows for up in ups if lo.color[b] == up.color[b]}
    split = [(_restrict_into_oracle(m, lower), _restrict_into_oracle(m, upper)) for m in whole]
    return len(split) == len(set(split)) == len(matched) and set(split) == matched


def oracle_segal_components_check(p, f):
    """The components check as it read before: each tuple of part maps
    rebuilt and sorted by ``ForestInto.build``."""
    forest = as_forest(f)
    whole = lurie_module.maps_into(forest, p)
    parts = [lurie_module.maps_into(t, p) for t in forest.components]
    if len(whole) != len(list(product(*parts))):
        return False
    rebuilt = {
        ForestInto.build(
            (pair for frag in combo for pair in frag.colors),
            (pair for frag in combo for pair in frag.components),
        )
        for combo in product(*parts)
    }
    return rebuilt == set(whole)


def _scrambled(rng, forest):
    """The forest with fresh edge names drawn at random, so that the
    components' edges interleave in name order."""
    edges = [e for t in forest.components for e in t.edges]
    fresh = dict(zip(edges, (f"n{i}" for i in rng.sample(range(100, 1000), len(edges)))))
    return Forest(
        tuple(
            Tree(fresh[t.root], tuple(Vertex(fresh[v.out_edge], tuple(fresh[d] for d in v.in_edges)) for v in t.vertices))
            for t in forest.components
        )
    )


def _assembly_instance(rng, kind, shape):
    """A target and a scope of the given shape, drawn again (up to 20
    times) while the scope has no map into the target."""
    for _ in range(20):
        p = _random_target(rng, kind)
        if shape == "empty":
            return p, Forest(())
        if shape == "stumps":
            scope = random_forest(rng, 6, 0.9, max_components=3, min_components=1)
        else:
            k = int(shape)
            scope = random_forest(rng, 7, 0.3, max_components=k, min_components=k)
        scope = _scrambled(rng, scope)
        if maps_into(scope, p):
            break
    return p, scope


@given(seeds, st.sampled_from(["free", "tensor"]), st.sampled_from(["1", "2", "3", "stumps", "empty"]))
@settings(max_examples=300, deadline=None)
def test_maps_into_equals_sorted_assembly(seed, kind, shape):
    rng = Random(seed)
    p, scope = _assembly_instance(rng, kind, shape)
    got = maps_into(scope, p)
    assert got == sorted_assembly_maps_into(scope, p)
    for m in got:  # the fields keep their invariant: pairs sorted by edge
        assert m.colors == tuple(sorted(m.colors))
        assert m.components == tuple(sorted(m.components))
        assert [e for e, _ in m.colors] == list(as_forest(scope).edges)
    if shape == "empty":
        assert got == (ForestInto((), ()),)


# -- maps_into against the node-and-walk assembly ------------------------------


def node_walk_key_passes(scope, p):
    """The key pass before it counted: per component ``(root, moves,
    order)``, every move kept and every key, leaves too, pushed and popped
    on one explicit stack; ``order`` lists the keys in post-order."""
    all_colors = p.colors()
    passes = []
    for t in as_forest(scope).components:
        above = t.vertex_above
        moves, order = {}, {}
        stack = [(t.root, c) for c in all_colors]
        while stack:
            key = stack.pop()
            if key in order:
                continue
            if key in moves or key[0] not in above:
                order[key] = None
            else:
                ins = above[key[0]].in_edges
                k = len(ins)
                moves[key] = fam_moves = [
                    (labels, tuple(zip(ins, assignment)))
                    for fam, labels in p.ops_by_output(key[1], k)
                    for assignment in (permutations(fam) if len(set(fam)) == k
                                       else sorted(set(permutations(fam))))
                ]
                stack.append(key)
                stack += [d for _, kids in fam_moves for d in kids if d not in order]
        passes.append((t.root, moves, order))
    return passes


def node_walk_maps_into(scope, p, cap=None):
    """``maps_into`` before the odometer: a second loop counts the maps for
    the cap; each key's sub-maps are nodes ``(key, (edge, operation),
    *child nodes)`` or ``(key, None)`` built in post-order with ``product``
    over the children and the label innermost, and each root node is walked
    once and put in edge order by one gather per component."""
    passes = node_walk_key_passes(scope, p)
    all_colors = p.colors()
    if cap is not None:
        total = 1
        for root, moves, order in passes:
            count = {}
            for key in order:
                n = 1
                if key in moves:
                    n = sum(len(labels) * math.prod(count[d] for d in kids) for labels, kids in moves[key])
                count[key] = n
            total *= sum(count[(root, c)] for c in all_colors)
        if total > cap:
            raise TreeError(f"map enumeration would produce {total} > cap {cap}")
    parts = []
    for root, moves, order in passes:
        subs = {}
        for key in order:
            if key not in moves:
                subs[key] = [(key, None)]
                continue
            nodes = []
            for labels, kids in moves[key]:
                pairs = [(key[0], lab) for lab in labels]
                nodes += [(key, pair) + combo for combo in product(*[subs[d] for d in kids]) for pair in pairs]
            subs[key] = nodes
        part = []
        for c in all_colors:
            for node in subs[(root, c)]:
                keys, pairs, walk = [], [], [node]
                while walk:
                    sub = walk.pop()
                    keys.append(sub[0])
                    pairs.append(sub[1])
                    walk += sub[2:]
                by_edge = sorted(range(len(keys)), key=lambda i: keys[i][0])
                part.append((tuple(keys[i] for i in by_edge), tuple(pairs[i] for i in by_edge if pairs[i] is not None)))
        parts.append(part)
    components = as_forest(scope).components
    rows = parts[0] if len(parts) == 1 else lurie_module._recombined(components, parts)
    return tuple(ForestInto(colors, comps) for colors, comps in rows)


def multi_label_table_operad(rng):
    """Up to three colors and eight entries of 0-3 inputs, colors repeating
    within a family, each entry with two or three labels: the only targets
    where the label order shows."""
    colors = ["a", "b", "c"][: rng.randint(1, 3)]
    entries = [
        {
            "inputs": [rng.choice(colors) for _ in range(rng.randint(0, 3))],
            "output": rng.choice(colors),
            "elements": [f"m{i}" for i in rng.sample(range(5), rng.randint(2, 3))],
        }
        for _ in range(rng.randint(1, 8))
    ]
    return TableOperad.from_json({"colors": colors, "operations": entries})


def _odometer_instance(rng, kind, shape):
    draw = multi_label_table_operad if kind == "table" else lambda rng: _random_target(rng, kind)
    p = draw(rng)
    if shape == "empty":
        return p, Forest(())
    if shape == "stumps":
        scope = random_forest(rng, 6, 0.9, max_components=3, min_components=1)
    elif shape == "binary":  # sibling vertices, so the children's order shows
        scope = Forest((parse_tree("r[x[x1],y[y1]]"),))
        for _ in range(20):  # a target it maps into, if one is drawn
            if maps_into(scope, p):
                break
            p = draw(rng)
    elif shape == "bare":  # bare-edge components beside trees
        trees = random_forest(rng, 5, 0.3, max_components=2, min_components=1).components
        scope = Forest(trees + tuple(Tree(f"z{i}", ()) for i in range(rng.randint(1, 2))))
    else:
        k = int(shape)
        scope = random_forest(rng, 7, 0.3, max_components=k, min_components=k)
    return p, _scrambled(rng, scope)


@given(
    seeds,
    st.sampled_from(["free", "tensor", "table"]),
    st.sampled_from(["1", "2", "3", "stumps", "bare", "binary", "empty"]),
)
@settings(max_examples=300, deadline=None)
def test_maps_into_equals_node_walk_assembly(seed, kind, shape):
    # the same maps in the same order as the nodes and walks the odometer
    # replaced, and the same refusal at caps n - 1 and n
    rng = Random(seed)
    p, scope = _odometer_instance(rng, kind, shape)
    want = node_walk_maps_into(scope, p)
    got = maps_into(scope, p)
    assert got == want
    assert [(m.colors, m.components) for m in got] == [(m.colors, m.components) for m in want]
    n = len(want)
    assert lurie_module._map_count(lurie_module._key_passes(scope, p), p) == n
    if n:
        with pytest.raises(TreeError) as raised:
            maps_into(scope, p, cap=n - 1)
        with pytest.raises(TreeError) as expected:
            node_walk_maps_into(scope, p, cap=n - 1)
        assert str(raised.value) == str(expected.value)
    assert maps_into(scope, p, cap=n) == want


def test_odometer_turns_labels_after_children():
    # two labels at the root and two sub-maps at each child: the label turns
    # fastest, then the last child, then the first, and the move slowest
    p = TableOperad.from_json({
        "colors": ["a", "b"],
        "operations": [
            {"inputs": ["a", "b"], "output": "a", "elements": ["m", "n"]},
            {"inputs": ["a"], "output": "a", "elements": ["u"]},
            {"inputs": ["b"], "output": "a", "elements": ["v"]},
            {"inputs": ["a"], "output": "b", "elements": ["w"]},
        ],
    })
    scope = parse_tree("r[x[x1],y[y1]]")
    got = maps_into(scope, p)
    assert got == node_walk_maps_into(scope, p)
    first = [(m.color["x"], m.color["y"]) for m in got[:8]]
    assert first == [("a", "b")] * 8
    assert "".join(m.color["x1"] + m.color["y1"] + m.component["r"] for m in got[:8]) == (
        "aam" "aan" "abm" "abn" "bam" "ban" "bbm" "bbn"
    )


def _drop(maps, p):
    return maps[1:]


def _duplicate(maps, p):  # one map in place of another, the length kept
    return maps[:-1] + maps[:1] if len(maps) > 1 else maps + maps


def _swap_color(maps, p):
    """One colour of the first map replaced by the next colour of ``p``."""
    if not maps or not maps[0].colors:
        return maps
    colors = p.colors()
    (e, c), *rest = maps[0].colors
    other = colors[(colors.index(c) + 1) % len(colors)] if c in colors else colors[0]
    return (ForestInto(((e, other), *rest), maps[0].components),) + maps[1:]


PERTURBATIONS = {"drop": _drop, "duplicate": _duplicate, "swap": _swap_color}


def _perturbing(monkeypatch, hit, how):
    """``lurie.maps_into`` with ``how`` applied to its maps of every scope
    for which ``hit(scope)`` holds."""
    real = lurie_module.maps_into

    def fake(scope, p, cap=None):
        maps = real(scope, p, cap)
        return how(maps, p) if hit(scope) else maps

    monkeypatch.setattr(lurie_module, "maps_into", fake)


def _cut_instance(rng, kind):
    """A target, a tree with an inner edge and that edge, drawn again (up to
    20 times) while the tree has no map into the target."""
    for _ in range(20):
        p = _random_target(rng, kind)
        t = random_tree(rng, 7, 0.3, prefix="m")
        while not t.inner_edges:
            t = random_tree(rng, 7, 0.3, prefix="m")
        t = _scrambled(rng, Forest((t,))).components[0]
        if maps_into(t, p):
            break
    return p, t, rng.choice(t.inner_edges)


@given(
    seeds,
    st.sampled_from(["free", "tensor"]),
    st.sampled_from([None, *PERTURBATIONS]),
    st.sampled_from(["whole", "lower", "upper"]),
)
@settings(max_examples=300, deadline=None)
def test_segal_cut_check_equals_oracle(seed, kind, perturbation, where):
    rng = Random(seed)
    p, t, b = _cut_instance(rng, kind)
    with pytest.MonkeyPatch.context() as mp:
        if perturbation:
            hits = {
                "whole": lambda s: s is t,
                "lower": lambda s: s is not t and t.root in s.edge_set,
                "upper": lambda s: s is not t and s.root == b,
            }
            _perturbing(mp, hits[where], PERTURBATIONS[perturbation])
        got = segal_cut_check(p, t, b)
        assert got == oracle_segal_cut_check(p, t, b)
    if perturbation is None:
        assert got


@given(
    seeds,
    st.sampled_from(["free", "tensor"]),
    st.sampled_from(["1", "2", "3", "stumps", "empty"]),
    st.sampled_from([None, *PERTURBATIONS]),
    st.sampled_from(["whole", "part"]),
)
@settings(max_examples=300, deadline=None)
def test_segal_components_check_equals_oracle(seed, kind, shape, perturbation, where):
    rng = Random(seed)
    p, forest = _assembly_instance(rng, kind, shape)
    with pytest.MonkeyPatch.context() as mp:
        if perturbation:
            first = forest.components[:1]
            hits = {"whole": lambda s: s is forest, "part": lambda s: any(s is c for c in first)}
            _perturbing(mp, hits[where], PERTURBATIONS[perturbation])
        got = segal_components_check(p, forest)
        assert got == oracle_segal_components_check(p, forest)
    if perturbation is None:
        assert got


# negative controls: each check returns False once maps_into drops or
# duplicates one map of the whole, or swaps one colour of one part's map
CUT_CONTROL = (FreeForestOperad(parse_forest("{r[a[x,y],b[]]}")), parse_tree("m[n[o,p],q[]]"), "n")
COMPONENTS_CONTROL = (FreeForestOperad(parse_forest("{r[a[x],b[]]}")), parse_forest("{m;n[o]}"))


@pytest.mark.parametrize(
    "perturbation, where", [("drop", "whole"), ("duplicate", "whole"), ("swap", "lower"), ("swap", "upper")]
)
def test_segal_cut_check_fails_on_a_broken_listing(monkeypatch, perturbation, where):
    p, t, b = CUT_CONTROL
    assert segal_cut_check(p, t, b)
    lower, upper = cut_at(t, b)
    hits = {
        "whole": lambda s: s is t,
        "lower": lambda s: s == lower,
        "upper": lambda s: s == upper,
    }
    _perturbing(monkeypatch, hits[where], PERTURBATIONS[perturbation])
    assert not segal_cut_check(p, t, b)
    assert not oracle_segal_cut_check(p, t, b)


@pytest.mark.parametrize("perturbation, where", [("drop", "whole"), ("duplicate", "whole"), ("swap", "part")])
def test_segal_components_check_fails_on_a_broken_listing(monkeypatch, perturbation, where):
    p, forest = COMPONENTS_CONTROL
    assert segal_components_check(p, forest)
    for comp in forest.components if where == "part" else (forest,):
        with monkeypatch.context() as mp:
            _perturbing(mp, lambda s, comp=comp: s is comp, PERTURBATIONS[perturbation])
            assert not segal_components_check(p, forest)
            assert not oracle_segal_components_check(p, forest)


def test_segal_components_check_sees_a_wrong_recombination(monkeypatch):
    # maps_into joins the components' maps with _recombined; a defect there
    # must not sit on both sides of the check, as it did when the check
    # rebuilt the whole with the same function
    p, forest = COMPONENTS_CONTROL
    assert segal_components_check(p, forest)
    recombined = lurie_module._recombined

    def swapped(components, parts):
        # the colours of the first two edges trade places
        rows = recombined(components, parts)
        if len(components) < 2:
            return rows
        return [(((a, y), (b, x), *colors), comps) for ((a, x), (b, y), *colors), comps in rows]

    monkeypatch.setattr(lurie_module, "_recombined", swapped)
    assert not segal_components_check(p, forest)


# sha256 of each suite's report at seed 42, as the suite wrote it when it
# sized its draws by listing the maps under a cap of 20,000
SEGAL_REPORTS = {
    "segal": "42b6dbbc46c69ba8cdd7f8eca46bbb6b0e69304682e018e1dea9e389f9d10bcf",
    "d3": "90873db27b7d3b9d6958212baac3cc9d91f461c822c204ee2882f491312e299e",
}


@pytest.mark.parametrize("suite", sorted(SEGAL_REPORTS))
def test_segal_suites_size_their_draws_without_building_maps(monkeypatch, suite):
    # each draw is sized by the count alone: maps_into runs only inside the
    # Segal checks, never with a cap, and the draws are the same
    calls = []
    real = lurie_module.maps_into

    def counted(scope, p, cap=None):
        calls.append(cap)
        return real(scope, p, cap)

    monkeypatch.setattr(lurie_module, "maps_into", counted)
    monkeypatch.setattr(suites_module, "maps_into", counted)
    report = suites_module.run_check(suite, suites_module.SuiteConfig(seed=42))
    text = suites_module.report_json(report)
    assert hashlib.sha256(text.encode()).hexdigest() == SEGAL_REPORTS[suite]
    assert calls and set(calls) == {None}
    if suite == "segal":  # the whole tree and its two parts, once each
        assert len(calls) == 3 * report["suites"][0]["params"]["instances"]


@pytest.mark.parametrize("suite, scale", [("segal", 100), ("segal", 2000), ("d3", 5000)])
def test_segal_suites_keep_only_draws_within_their_map_bounds(monkeypatch, suite, scale):
    # at the defaults no draw comes near the bounds (at seed 42 a part has at
    # most 16 maps), so every count _map_total reads is scaled: draws over a
    # bound are then rejected, and the instances checked are exactly the
    # draws within both bounds
    part_bound, product_bound = {"segal": (20000, 50000), "d3": (20000, 20000)}[suite]
    check_name = {"segal": "segal_cut_check", "d3": "segal_components_check"}[suite]
    real_operad, real_total = suites_module.FreeForestOperad, suites_module._map_total
    real_check = getattr(suites_module, check_name)
    draws, checked = [], []  # each draw's operad and scaled part counts; the operads checked

    def operad(g):
        draws.append((real_operad(g), []))
        return draws[-1][0]

    def total(scope, p):
        assert p is draws[-1][0]
        draws[-1][1].append(scale * real_total(scope, p))
        return draws[-1][1][-1]

    def check(p, *args):
        checked.append(p)
        return real_check(p, *args)

    monkeypatch.setattr(suites_module, "FreeForestOperad", operad)
    monkeypatch.setattr(suites_module, "_map_total", total)
    monkeypatch.setattr(suites_module, check_name, check)
    report = suites_module.run_check(suite, suites_module.SuiteConfig(seed=42, instances=30))
    assert report["failures"] == 0 and len(checked) == 30
    over_part = [p for p, sizes in draws if max(sizes, default=0) > part_bound]
    over_product = [p for p, sizes in draws if p not in over_part and math.prod(sizes) > product_bound]
    assert over_product and (over_part or scale == 100)
    assert checked == [p for p, _ in draws if p not in over_part and p not in over_product]


def test_nerve_suite_reads_each_chain_once(monkeypatch):
    converted = []
    real = suites_module.chain_to_map

    def to_map(ch):
        converted.append(ch)  # kept alive, so no two share an id
        return real(ch)

    cfg = suites_module.SuiteConfig(seed=42, instances=6)
    expected = suites_module.run_check("nerve", cfg)
    monkeypatch.setattr(suites_module, "chain_to_map", to_map)
    assert suites_module.run_check("nerve", cfg) == expected
    assert len(converted) > 6 * 20
    assert len({id(ch) for ch in converted}) == len(converted)


def test_maps_into_on_deep_chains():
    # one map per switch point from color x to color y along 1501 edges
    maps = maps_into(chain_tree(1500), FreeForestOperad(parse_forest("{x[y]}")))
    assert len(maps) == 1502
    assert len(set(maps)) == 1502
    (only,) = maps_into(chain_tree(5000), FreeForestOperad(parse_forest("{x}")))
    assert set(only.color.values()) == {"x"}
    assert len(only.components) == 5000


def test_chains_biject_with_maps_into_table_operads():
    rng = Random(17)
    for _ in range(300):
        p = random_table_operad(rng)
        a = random_fin_simplex(rng, 3, 2)
        chains = enumerate_chains(p, a)
        maps = maps_into(omega_obj(a), p)
        images = [chain_to_map(ch) for ch in chains]
        assert len(images) == len(set(images)) == len(maps) == len(set(maps))
        assert set(images) == set(maps)
        for ch in chains:
            assert map_to_chain(p, a, chain_to_map(ch)) == ch


# -- Segal decompositions ----------------------------------------------------------


def test_segal_cut_fixed():
    p = FreeForestOperad(parse_forest("{r[a[x],b[]]}"))
    t = parse_tree("m[n[o]]")
    assert segal_cut_check(p, t, "n")


def test_segal_cut_random():
    rng = Random(5)
    p = FreeForestOperad(parse_forest("{r[a[x,y],b[]]}"))
    for _ in range(15):
        t = random_tree(rng, 5, 0.25, prefix="m")
        for b in t.inner_edges:
            assert segal_cut_check(p, t, b)


def test_segal_components_fixed():
    p = FreeForestOperad(parse_forest("{r[a[x],b[]]}"))
    assert segal_components_check(p, parse_forest("{m;n[o]}"))
    assert segal_components_check(p, parse_forest("{}"))


# -- free algebras ------------------------------------------------------------------


def brute_free_terms(p, generators, inputs, output):
    """Independent enumeration: fill operation slots with ordered choices of
    generator indices and arguments, then quotient by permutations of equal
    indices (the orbit is the multiset of (index, argument) pairs)."""
    idxs = sorted(generators)
    found = set()
    for kappa, labels in p.ops_by_output(output):
        pools = [[i for i in idxs if generators[i] == c] for c in kappa]
        for seq in product(*pools):
            arg_pools = [list(inputs.get(i, ())) for i in seq]
            for args in product(*arg_pools):
                key = tuple(sorted(zip(seq, args)))
                for lab in labels:
                    found.add((lab, key))
    return found


def _term_key(t):
    return (t.label, tuple(sorted(zip(t.indices, t.args))))


def test_free_algebra_fixed():
    p = TableOperad.from_json(
        {
            "colors": ["c"],
            "operations": [{"inputs": ["c", "c"], "output": "c", "elements": ["m"]}],
        }
    )
    gens = {"i": "c", "j": "c"}
    ins = {"i": ["x"], "j": ["y"]}
    terms = free_algebra(p, gens, ins, "c")
    keys = {_term_key(t) for t in terms}
    assert keys == brute_free_terms(p, gens, ins, "c")
    # m(i, j), m(i, i), m(j, j), plus the identity applied to i and to j
    assert len(terms) == 5


def test_free_algebra_orbit_quotient():
    # two equal indices: swapping their arguments is not a new term
    p = TableOperad.from_json(
        {
            "colors": ["c"],
            "operations": [{"inputs": ["c", "c"], "output": "c", "elements": ["m"]}],
        }
    )
    terms = free_algebra(p, {"i": "c"}, {"i": ["x", "y"]}, "c")
    pairs = [t for t in terms if t.label == "m"]
    # arguments {x,x}, {x,y}, {y,y}: three orbits, not four
    assert len(pairs) == 3


def test_free_algebra_matches_brute_force_random():
    rng = Random(9)
    for _ in range(25):
        base = random_tree(rng, 5, 0.3)
        p = FreeForestOperad(base)
        colors = list(p.colors())
        gens = {
            f"g{k}": rng.choice(colors) for k in range(rng.randint(1, 3))
        }
        ins = {
            i: [f"v{k}" for k in range(rng.randint(1, 2))] for i in gens
        }
        output = rng.choice(colors)
        terms = free_algebra(p, gens, ins, output)
        keys = {_term_key(t) for t in terms}
        assert len(keys) == len(terms)
        assert keys == brute_free_terms(p, gens, ins, output)


def replaced_free_algebra(p, generators, inputs, output):
    """Reference for :func:`free_algebra`: every argument tuple drawn, each
    term canonicalized by sorting its arguments within each block of equal
    indices, and the repeats dropped by a set."""

    def canonical_term(indices, label, args):
        out = []
        i = 0
        while i < len(indices):
            j = i
            while j < len(indices) and indices[j] == indices[i]:
                j += 1
            out.extend(sorted(args[i:j]))
            i = j
        return lurie_module.FreeTerm(indices, label, tuple(out))

    by_color = {}
    for idx in sorted(generators):
        by_color.setdefault(generators[idx], []).append(idx)
    terms = set()
    for kappa, labels in p.ops_by_output(output):
        cnt = Counter(kappa)
        if not all(c in by_color for c in cnt):
            continue
        choice_lists = [list(combinations_with_replacement(by_color[c], cnt[c])) for c in sorted(cnt)]
        for chosen in product(*choice_lists):
            gamma = tuple(sorted(i for grp in chosen for i in grp))
            arg_pools = [tuple(inputs.get(i, ())) for i in gamma]
            for lab in labels:
                for args in product(*arg_pools):
                    terms.add(canonical_term(gamma, lab, args))
    return tuple(sorted(terms, key=lambda t: (t.indices, str(t.label), t.args)))


def _random_table(rng):
    """A table of two or three colors whose families may repeat a color."""
    colors = ["a", "b", "c"][: rng.randint(2, 3)]
    entries = [
        {
            "inputs": [rng.choice(colors) for _ in range(rng.randint(0, 3))],
            "output": rng.choice(colors),
            "elements": [f"m{k}" for k in range(rng.randint(1, 2))],
        }
        for _ in range(rng.randint(1, 5))
    ]
    return TableOperad.from_json({"colors": colors, "operations": entries})


def test_free_algebra_equals_replaced_canonicalization():
    # tables repeat colors, so indices repeat within a term; forests with
    # stumps give nullary terms; pools repeat entries or are empty, and
    # generators share colors.  Over these 200 draws each case occurs
    # in at least 18.
    for seed in range(200):
        rng = Random(seed)
        if seed % 2:
            p = _random_table(rng)
        else:
            p = FreeForestOperad(random_forest(rng, 5, 0.3, min_components=1))
        colors = list(p.colors())
        shared = rng.sample(colors, min(2, len(colors)))
        gens = {f"g{k}": rng.choice(shared) for k in range(rng.randint(1, 4))}
        ins = {i: [f"v{rng.randint(0, 2)}" for _ in range(rng.randint(0, 4))] for i in gens}
        output = rng.choice(colors)
        got = free_algebra(p, gens, ins, output)
        assert got == replaced_free_algebra(p, gens, ins, output), seed
        assert len({_term_key(t) for t in got}) == len(got)


def test_free_algebra_multiple_labels_per_family():
    p = TableOperad.from_json(
        {
            "colors": ["c"],
            "operations": [
                {"inputs": ["c", "c"], "output": "c", "elements": ["m", "m2"]}
            ],
        }
    )
    gens = {"i": "c"}
    ins = {"i": ["x"]}
    terms = free_algebra(p, gens, ins, "c")
    keys = {_term_key(t) for t in terms}
    assert keys == brute_free_terms(p, gens, ins, "c")
    assert {t.label for t in terms if len(t.indices) == 2} == {"m", "m2"}
