import hashlib
import re
from collections import Counter
from itertools import product
from random import Random

import pytest

from dendrotensor import (
    STAR,
    BVTensorOperad,
    EllObject,
    FinPtdMor,
    FinPtdObj,
    FinSimplex,
    FreeForestOperad,
    Operation,
    SimplicialOperator,
    TableOperad,
    TreeError,
    chain_to_map,
    check_fibrous,
    classify,
    defect_fixtures,
    ell_compose,
    ell_hom,
    ell_identity,
    enumerate_chains,
    factorize,
    free_algebra,
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
)
from dendrotensor.lurie import EllPresentation, _PointedMaps
from dendrotensor._rand import random_forest, random_tree
from test_omegacat import closure_operations

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


def _sorted_filter(table, output):
    """The listing ``ops_by_output`` gave before the tables were indexed:
    the whole table, sorted, filtered by output."""
    return tuple(
        (inputs, labels)
        for (inputs, out), labels in sorted(table.items())
        if out == output
    )


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
    for c in b.colors():
        assert b.ops_by_output(c) == _sorted_filter(table, c)
    for (inputs, output), labels in table.items():
        assert b.ops(tuple(reversed(inputs)), output) == labels
    assert b.ops_by_output("absent") == ()


def test_table_operad_index_matches_sorted_table():
    rng = Random(5)
    for _ in range(40):
        colors = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        entries = [
            {
                "inputs": [rng.choice(colors) for _ in range(rng.randint(0, 3))],
                "output": rng.choice(colors),
                "elements": [f"m{rng.randint(0, 3)}" for _ in range(rng.randint(1, 2))],
            }
            for _ in range(rng.randint(0, 8))
        ]
        p = TableOperad.from_json({"colors": colors, "operations": entries})
        table = {
            (tuple(e["inputs"]), e["output"]): tuple(e["elements"])
            for e in p.to_json()["operations"]
        }
        for c in colors:
            assert p.ops_by_output(c) == _sorted_filter(table, c)
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
    for seed in (0, 1, 7, 42):
        for name, pres in defect_fixtures():
            report = check_fibrous(pres, truncation=2, rng=Random(seed), **EXHAUSTIVE)
            assert not report.passed, f"{name} slipped through at seed {seed}"


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
