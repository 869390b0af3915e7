import re
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    STAR,
    FinSimplex,
    Forest,
    OperadMap,
    Operation,
    SimplicialOperator,
    Tree,
    TreeError,
    Vertex,
    classify_elementary,
    compose,
    contract_inner,
    identity_map,
    omega_mor,
    omega_obj,
    parse_forest,
    restrict,
    retract_witness,
    serialize_forest,
    validate,
)
from dendrotensor._rand import random_fin_simplex, random_forest, random_operator
from dendrotensor.levelforest import edge_name, split_edge_name
from dendrotensor.omegacat import _induced

seeds = st.integers(min_value=0, max_value=2**32 - 1)

WORKED = FinSimplex.from_json(
    {
        "levels": [[1, 2, 3, 4], [1, 2, 3], [1]],
        "maps": [{"1": 1, "2": 1, "3": 3, "4": 3}, {"1": 1, "2": 1, "3": STAR}],
    }
)
WORKED_FOREST = "{ℓ2:1[ℓ1:1[ℓ0:1,ℓ0:2],ℓ1:2[]];ℓ1:3[ℓ0:3,ℓ0:4]}"


# -- chains ------------------------------------------------------------------


def test_chain_validation():
    with pytest.raises(TreeError):
        FinSimplex((), ())
    with pytest.raises(TreeError):  # map not total
        FinSimplex((("1", "2"), ("1",)), ((("1", "1"),),))
    with pytest.raises(TreeError):  # value outside next level
        FinSimplex((("1",), ("1",)), ((("1", "9"),),))
    with pytest.raises(TreeError):  # '*' cannot be an element
        FinSimplex((("*",),), ())


def test_composites_absorb_star():
    assert WORKED.comp(0, 2) == {"1": "1", "2": "1", "3": "*", "4": "*"}
    assert WORKED.comp(1, 1) == {"1": "1", "2": "2", "3": "3"}


def test_json_round_trip():
    assert FinSimplex.from_json(WORKED.to_json()) == WORKED


# -- the forest of a chain ---------------------------------------------------


def test_worked_example_forest():
    assert serialize_forest(omega_obj(WORKED)) == WORKED_FOREST


def test_single_level_gives_bare_edges():
    a = FinSimplex.from_json({"levels": [[1, 2]], "maps": []})
    assert serialize_forest(omega_obj(a)) == "{ℓ0:1;ℓ0:2}"


def test_empty_level_gives_empty_forest():
    a = FinSimplex.from_json({"levels": [[]], "maps": []})
    assert serialize_forest(omega_obj(a)) == "{}"


def test_everything_dies_gives_stumps():
    a = FinSimplex.from_json({"levels": [[1], [1]], "maps": [{"1": STAR}]})
    assert serialize_forest(omega_obj(a)) == "{ℓ1:1[];ℓ0:1}"


def test_level_elements_are_strings_or_integers():
    a = FinSimplex.from_json({"levels": [[1, "x"], [1]], "maps": [{"1": 1, "x": STAR}]})
    assert a.levels == (("1", "x"), ("1",))
    assert serialize_forest(omega_obj(a)) == "{ℓ1:1[ℓ0:1];ℓ0:x}"


# bool is an int subclass, so true and false are listed on their own
NOT_NAMES = [(None, "null"), (True, "true"), (False, "false"), (1.5, "1.5"), (2.0, "2.0"),
             ([1], "[1]"), ({"a": 1}, '{"a": 1}')]


@pytest.mark.parametrize("value, shown", NOT_NAMES, ids=[shown for _, shown in NOT_NAMES])
def test_level_element_that_is_no_name_is_refused(value, shown):
    with pytest.raises(TreeError, match=re.escape(f"got {shown}") + "$"):
        FinSimplex.from_json({"levels": [[1, value]], "maps": []})


@pytest.mark.parametrize("value, shown", NOT_NAMES, ids=[shown for _, shown in NOT_NAMES])
def test_map_value_that_is_no_name_is_refused(value, shown):
    with pytest.raises(TreeError, match=re.escape(f"got {shown}") + "$"):
        FinSimplex.from_json({"levels": [[1], [1]], "maps": [{"1": value}]})


# -- simplicial operators ----------------------------------------------------


def oracle_omega_obj(a):
    """``omega_obj`` with its old preimage lists: one scan of the level below
    for every element."""
    n = a.n
    roots = [(n, x) for x in a.levels[n]]
    for i in range(n):
        step = a.alpha(i + 1)
        roots.extend((i, x) for x in a.levels[i] if step[x] == STAR)
    preim = {}
    for i in range(1, n + 1):
        step = a.alpha(i)
        for x in a.levels[i]:
            preim[(i, x)] = [b for b in a.levels[i - 1] if step[b] == x]

    def build(root_level, root_elem):
        verts, pending = [], [(root_level, root_elem)]
        while pending:
            i, x = pending.pop()
            if i == 0:
                continue
            below = preim[(i, x)]
            verts.append(Vertex(edge_name(i, x), tuple(edge_name(i - 1, b) for b in below)))
            pending.extend((i - 1, b) for b in below)
        return Tree(edge_name(root_level, root_elem), tuple(verts))

    return Forest(tuple(build(i, x) for i, x in roots))


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_omega_obj_equals_the_per_element_scan(seed):
    # the same components in the same order as the scan it replaced
    rng = Random(seed)
    a = random_fin_simplex(rng, rng.randint(1, 6), rng.randint(0, 4))
    got = omega_obj(a)
    assert got == oracle_omega_obj(a)
    assert omega_obj(a) is not got  # built afresh on every call


def test_operator_validation():
    with pytest.raises(TreeError):
        SimplicialOperator(1, 1, (1, 0))  # not monotone
    with pytest.raises(TreeError):
        SimplicialOperator(1, 1, (0, 2))  # out of range


def test_face_degeneracy_composition_identities():
    # the standard relation d_i s_i = id on operator level
    for n in range(0, 3):
        for i in range(0, n + 1):
            s = SimplicialOperator.degeneracy(n, i)
            d = SimplicialOperator.face(n + 1, i)
            assert s.after(d) == SimplicialOperator.identity(n)


def test_restrict_levels():
    phi = SimplicialOperator.face(2, 1)  # keep levels 0 and 2
    b = restrict(WORKED, phi)
    assert b.levels == (WORKED.levels[0], WORKED.levels[2])
    assert dict(b.maps[0]) == WORKED.comp(0, 2)


def test_restrict_requires_matching_length():
    with pytest.raises(TreeError):
        restrict(WORKED, SimplicialOperator.identity(3))


def oracle_restrict(a, phi):
    """``restrict`` as it was before its memo: the reindexed chain built
    afresh on every call, the identity included."""
    if phi.cod != a.n:
        raise TreeError(f"operator lands in {phi.cod}, chain has length {a.n}")
    levels = tuple(a.levels[phi(j)] for j in range(phi.dom + 1))
    maps = tuple(
        tuple(sorted(a.comp(phi(j - 1), phi(j)).items())) for j in range(1, phi.dom + 1)
    )
    return FinSimplex(levels, maps)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_restrict_is_built_once_per_chain_and_operator(seed):
    rng = Random(seed)
    a = random_fin_simplex(rng, 5, 4)
    phi = random_operator(rng, rng.randint(0, 4), a.n)
    b = restrict(a, phi)
    assert b == oracle_restrict(a, phi)
    assert restrict(a, SimplicialOperator(phi.dom, phi.cod, phi.values)) is b
    assert restrict(a, SimplicialOperator.identity(a.n)) is a
    assert oracle_restrict(a, SimplicialOperator.identity(a.n)) == a


def test_mismatched_restrict_raises_every_call_and_keeps_nothing():
    phi = SimplicialOperator.identity(3)
    for _ in range(2):
        with pytest.raises(TreeError, match="chain has length 2"):
            restrict(WORKED, phi)
    assert phi not in WORKED._restrictions
    a = FinSimplex.from_json(WORKED.to_json())
    with pytest.raises(TreeError):
        restrict(a, SimplicialOperator.face(1, 0))
    assert a._restrictions == {}


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_forest_is_the_shared_copy_of_omega_obj(seed):
    rng = Random(seed)
    a = random_fin_simplex(rng, rng.randint(1, 6), rng.randint(0, 4))
    assert a.forest == omega_obj(a) == oracle_omega_obj(a)
    assert a.forest is a.forest
    assert omega_obj(a) is not a.forest


# -- functoriality of the forest map -----------------------------------------


def test_omega_mor_identity():
    f = omega_mor(SimplicialOperator.identity(WORKED.n), WORKED)
    assert f == identity_map(omega_obj(WORKED))


def test_omega_mor_respects_composition_fixed():
    phi = SimplicialOperator.face(2, 1)
    psi = SimplicialOperator.face(1, 0)
    lhs = omega_mor(phi.after(psi), WORKED)
    rhs = compose(omega_mor(phi, WORKED), omega_mor(psi, restrict(WORKED, phi)))
    assert lhs == rhs
    validate(lhs)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_omega_mor_respects_composition_random(seed):
    rng = Random(seed)
    a = random_fin_simplex(rng, 4, 3)
    phi = random_operator(rng, rng.randint(0, a.n), a.n)
    psi = random_operator(rng, rng.randint(0, phi.dom), phi.dom)
    lhs = omega_mor(phi.after(psi), a)
    rhs = compose(omega_mor(phi, a), omega_mor(psi, restrict(a, phi)))
    assert lhs == rhs


def oracle_omega_mor(phi, a):
    """``omega_mor`` as it was before the chains kept their forests: both
    forests built afresh, each edge name split and rebuilt."""

    def rename(e):
        lvl, elem = split_edge_name(e)
        return edge_name(phi(lvl), elem)

    return _induced(omega_obj(oracle_restrict(a, phi)), omega_obj(a), rename)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_omega_mor_equals_the_split_name_renaming(seed):
    rng = Random(seed)
    a = random_fin_simplex(rng, 5, 4)
    phi = random_operator(rng, rng.randint(0, 4), a.n)
    got = omega_mor(phi, a)
    assert got == oracle_omega_mor(phi, a)
    assert got.source is restrict(a, phi).forest and got.target is a.forest
    validate(got)


# -- retracts ----------------------------------------------------------------


def _split_names(text):
    out, cur = [], []
    for ch in text:
        if ch in "[],;{}":
            if cur:
                out.append("".join(cur))
                cur = []
            out.append(ch)
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def _strip(forest):
    parts = _split_names(serialize_forest(forest))
    renamed = "".join(
        p.split(":", 1)[1] if p and p[0] == "ℓ" and ":" in p else p for p in parts
    )
    return parse_forest(renamed)


@pytest.mark.parametrize(
    "text",
    ["{}", "{e}", "{r[]}", "{r[a[x,y],b[]]}", "{a[b[c]];d}", "{r[a[],b[c,d[]]]}"],
)
def test_retract_witness_fixed(text):
    f = parse_forest(text)
    w = retract_witness(f)
    validate(w.section)
    validate(w.retraction)
    assert compose(w.retraction, w.section) == identity_map(f)
    assert _strip(w.omega).canonical_key() == w.padded.canonical_key()
    assert omega_obj(w.simplex).canonical_key() == w.omega.canonical_key()


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_retract_witness_random(seed):
    f = random_forest(Random(seed), 8, 0.3)
    w = retract_witness(f)
    assert compose(w.retraction, w.section) == identity_map(f)
    assert _strip(w.omega).canonical_key() == w.padded.canonical_key()


def oracle_retract_levels(f, padded):
    """The levels of a retract witness as they were listed before one pass
    bucketed them: each component's height from the unpadded forest, and
    every padded edge filtered once per level."""
    heights = []
    for t in f.components:
        h_leaf = max((t.depth[e] for e in t.leaves), default=0)
        h_stump = max((t.depth[s] + 1 for s in t.stump_edges), default=0)
        heights.append(max(h_leaf, h_stump))
    level_of = {e: h - t.depth[e] for t, h in zip(padded.components, heights) for e in t.edges}
    return tuple(
        tuple(e for t in padded.components for e in sorted(t.edges) if level_of[e] == i)
        for i in range(max(heights, default=0) + 1)
    )


@given(seeds, st.sampled_from([0.0, 0.3]))
@settings(max_examples=100, deadline=None)
def test_retract_levels_equal_per_level_filter(seed, stump_probability):
    f = random_forest(Random(seed), 12, stump_probability)
    w = retract_witness(f)
    assert w.simplex.levels == oracle_retract_levels(f, w.padded)


def test_padding_only_extends_leaves():
    f = parse_forest("{r[a,b[x]]}")
    w = retract_witness(f)
    # every original edge survives in the padded forest with the same parent
    orig = f.components[0]
    pad = w.padded.components[0]
    for e in orig.edges:
        assert e in pad.edge_set
        assert orig.parent.get(e) == pad.parent.get(e)


@given(st.integers(min_value=0, max_value=10**6), st.text(max_size=6))
@settings(max_examples=200, deadline=None)
def test_split_edge_name_inverts_edge_name(level, element):
    assert split_edge_name(edge_name(level, element)) == (level, element)


# -- ω on inner faces and degeneracies ---------------------------------------------


def _inner_faces(a):
    """The ``i`` with ``0 < i < n`` at which no level-``i`` element dies."""
    return [i for i in range(1, a.n) if STAR not in a.alpha(i + 1).values()]


def _with_component(f, w, op):
    """``f`` with its vertex ``w`` sent to ``op`` instead."""
    return OperadMap(f.colors, tuple(sorted({**f.component, w: op}.items())), f.source, f.target)


def _generator(a, e):
    """The generator of ``a``'s forest at edge ``e``: its vertex as a cut."""
    v = a.forest.component_of[e].vertex_above[e]
    return Operation(e, v.in_edges)


def inner_face_contracts(f, a, i):
    """Whether ``f``, read as ``omega_mor(d_i, a)``, is the contraction of
    every level-``i`` edge of ``a``'s forest carried along its colour map:
    the source's edges go one to one onto the edges that stay, and each
    source vertex goes to the cut of its carried vertex, which is a vertex
    of the contracted forest."""
    gone = set(a.edge_names[i].values())
    contracted = {
        (v.out_edge, frozenset(v.in_edges))
        for t in a.forest.components
        for v in contract_inner(t, [e for e in t.edges if e in gone]).vertices
    }
    src_edges = [e for t in f.source.components for e in t.edges]
    images = [f.color[e] for e in src_edges]
    if len(set(images)) != len(images) or set(images) != set(a.forest.edge_set) - gone:
        return False
    carried = set()
    for t in f.source.components:
        for v in t.vertices:
            vertex = (f.color[v.out_edge], frozenset(f.color[d] for d in v.in_edges))
            op = f.component[v.out_edge]
            if (op.output, op.input_set) != vertex:
                return False
            carried.add(vertex)
    return carried == contracted


def degeneracy_doubles(f, a, i):
    """Whether ``f``, read as ``omega_mor(s_i, a)``, is onto on edges, hits
    exactly the level-``i`` edges twice, and sends one unary vertex per
    level-``i`` element, and no other, to an identity."""
    level = set(a.edge_names[i].values())
    hits = Counter(f.color[e] for t in f.source.components for e in t.edges)
    doubled = {e for e, k in hits.items() if k == 2}
    if set(hits) != set(a.forest.edge_set) or doubled != level or max(hits.values(), default=1) > 2:
        return False
    above = {v.out_edge: v for t in f.source.components for v in t.vertices}
    identities = [w for w, op in f.components if op.is_identity]
    return (
        sorted(f.component[w].output for w in identities) == sorted(level)
        and all(len(above[w].in_edges) == 1 for w in identities)
    )


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_omega_sends_inner_faces_to_contractions(seed):
    a = random_fin_simplex(Random(seed), 4, 4)
    for i in _inner_faces(a):
        assert inner_face_contracts(omega_mor(SimplicialOperator.face(a.n, i), a), a, i)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_omega_sends_degeneracies_to_doublings(seed):
    a = random_fin_simplex(Random(seed), 4, 3)
    for i in range(a.n + 1):
        f = omega_mor(SimplicialOperator.degeneracy(a.n, i), a)
        assert degeneracy_doubles(f, a, i)
        if len(a.forest.components) == 1 and len(a.levels[i]) == 1:
            assert classify_elementary(f) == "degeneracy"


def test_omega_degeneracy_of_one_element_is_classified():
    a = FinSimplex.from_json({"levels": [["x", "y"], ["z"], ["r"]], "maps": [{"x": "z", "y": "z"}, {"z": "r"}]})
    for i in range(3):
        f = omega_mor(SimplicialOperator.degeneracy(2, i), a)
        assert degeneracy_doubles(f, a, i)
        assert (classify_elementary(f) == "degeneracy") == (i > 0)  # level 0 has two elements


def test_face_and_degeneracy_claims_catch_mutants():
    # an image that leaves a level-i edge uncontracted fails the face claim,
    # and a repeated-level vertex sent to a generator fails the degeneracy claim
    faces = degeneracies = 0
    for seed in range(200):
        a = random_fin_simplex(Random(seed), 4, 4)
        for i in _inner_faces(a):
            f = omega_mor(SimplicialOperator.face(a.n, i), a)
            above = a.edge_names[i + 1].values()
            for w, op in f.components:
                if op.output in above and _generator(a, op.output) != op:
                    assert inner_face_contracts(f, a, i)
                    assert not inner_face_contracts(_with_component(f, w, _generator(a, op.output)), a, i)
                    faces += 1
                    break
        for i in range(1, a.n + 1):
            f = omega_mor(SimplicialOperator.degeneracy(a.n, i), a)
            for w, op in f.components:
                if op.is_identity:
                    assert degeneracy_doubles(f, a, i)
                    assert not degeneracy_doubles(_with_component(f, w, _generator(a, op.output)), a, i)
                    degeneracies += 1
                    break
    assert faces > 20 and degeneracies > 20
