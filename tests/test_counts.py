"""The one weighted count over move tables, ``omegacat._counts``, and the
counters built on it: shuffles (``shuffle._count_states``), cuts
(``omegacat._cut_total``) and free-algebra terms (``lurie._term_counts``),
with the live-cut listing (``lurie._live_cuts``) that reads the term counts.

Each counter is checked against the loop it replaced, kept here as
``replaced_*``, and against closed forms that share no code with the folds.
"""

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    BVTensorOperad,
    FreeForestOperad,
    Tree,
    TreeError,
    Vertex,
    as_forest,
    count_shuffles,
    free_algebra,
    hom,
)
from dendrotensor import lurie as lurie_module
from dendrotensor._rand import random_forest, random_tree
from dendrotensor.lurie import _free_algebra_count, _live_cuts, _term_counts, _weights
from dendrotensor.omegacat import _counts, _cut_total, _fold, _operation, _rows_above
from dendrotensor.shuffle import _count_states, _state_table

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- the loops the one count replaced ----------------------------------------


def replaced_count_states(table):
    """``shuffle._count_states`` before it called the one count."""
    counts = {}
    for state, moves in table:
        counts[state] = sum(math.prod(counts[c] for c in move) for move in moves) if moves else 1
    return counts[state]  # the root state comes last


def replaced_cut_total(forest):
    """``omegacat._cut_total`` before it called the one count."""
    cuts = {}
    for t in forest.components:
        for e in reversed(t.depth):  # the walk from the root, inputs first
            v = t.vertex_above.get(e)
            cuts[e] = 1 if v is None else 1 + math.prod([cuts[d] for d in v.in_edges])
    return sum(cuts.values())


def replaced_term_counts(p, weights, output):
    """``lurie._term_counts`` before it called the one count: the rows above
    ``output`` and the count of each color."""
    if output not in p._states:
        p._unknown(output)
        return [], {output: 0}
    rows = _rows_above(p._states.__getitem__, output)
    counts = {}
    for d, moves in rows:
        counts[d] = weights.get(d, 0) + sum(math.prod([counts[c] for c in move]) for move in moves)
    return rows, counts


def replaced_live_cuts(p, weights, output):
    """``lurie._live_cuts`` before it became the one cut fold over the live
    moves: its own ``need`` pass and union loop."""
    rows, counts = replaced_term_counts(p, weights, output)
    need = {output}
    for d, moves in reversed(rows):
        if d in need:
            need.update(c for move in moves if all(counts[c] for c in move) for c in move)
    live = {}
    for d, moves in rows:
        if d in need:
            cuts = [(d,)] if weights.get(d) else []
            for move in moves:
                if all(counts[c] for c in move):
                    unions = [()]
                    for c in move:
                        unions = [u + cut for u in unions for cut in live[c]]
                    cuts += unions
            live[d] = cuts
    found = sorted({tuple(sorted(cut)) for cut in live.get(output, ())})
    return [(cut, (_operation(output, cut),)) for cut in found]


# -- random inputs -------------------------------------------------------------


def random_factors(rng, k):
    """``k`` small factors with stumps, named apart."""
    return [random_tree(rng, {1: 8, 2: 5, 3: 3}[k], 0.3, prefix=q) for q in "abc"[:k]]


def random_generators(rng, colors):
    """Generators that miss some colors and share others, with input pools
    that are empty or repeat entries."""
    gens = {f"g{k}": c for k, c in enumerate(colors * 2) if rng.random() < 0.5}
    ins = {i: [f"v{rng.randint(0, 2)}" for _ in range(rng.randint(0, 3))] for i in gens}
    return gens, ins


def random_cut_operad(rng, kind):
    if kind == "free":
        return FreeForestOperad(random_forest(rng, 9, 0.3, min_components=1))
    return BVTensorOperad(random_factors(rng, rng.randint(1, 3)))


# -- each counter against the loop it replaced ---------------------------------


@given(seeds, st.sampled_from([0.0, 0.3, 0.6]))
@settings(max_examples=100, deadline=None)
def test_cut_total_equals_replaced_loop(seed, stump_probability):
    f = random_forest(Random(seed), 12, stump_probability)
    assert _cut_total(f) == replaced_cut_total(f)


@given(seeds, st.integers(min_value=1, max_value=3))
@settings(max_examples=100, deadline=None)
def test_count_states_equals_replaced_loop(seed, k):
    table = _state_table(random_factors(Random(seed), k))
    assert _count_states(table) == replaced_count_states(table)


@given(seeds, st.sampled_from(["free", "tensor"]))
@settings(max_examples=150, deadline=None)
def test_term_counts_and_live_cuts_equal_replaced_loops(seed, kind):
    # over a tensor a color may have two moves, so the count is a bound on
    # the terms; every color is asked for, and one the operad lacks
    rng = Random(seed)
    p = random_cut_operad(rng, kind)
    gens, ins = random_generators(rng, list(p.colors()))
    weights = _weights(gens, ins)
    for output in p.colors():
        assert _term_counts(p, weights, output) == replaced_term_counts(p, weights, output)[1]
        live = _live_cuts(p, weights, output)
        assert live == replaced_live_cuts(p, weights, output)
        terms = free_algebra(p, gens, ins, output)
        count = _free_algebra_count(p, gens, ins, output)
        assert count == len(terms) if kind == "free" else count >= len(terms)
        assert bool(live) == (count > 0)
    if kind == "tensor":
        assert _term_counts(p, weights, "(z|z)") == {"(z|z)": 0}
        assert _live_cuts(p, weights, "(z|z)") == replaced_live_cuts(p, weights, "(z|z)") == []
    else:
        for count in (_term_counts, replaced_term_counts):
            with pytest.raises(TreeError, match="no edge 'zz'"):
                count(p, weights, "zz")


def test_live_cuts_fold_only_the_live_moves(monkeypatch):
    # b's move reaches the stump-free leaf y, which no generator takes, so
    # the fold never reads b's rows above y; a and the stump c are live
    p = FreeForestOperad(Tree("r", (Vertex("r", ("a", "b", "c")), Vertex("b", ("y",)), Vertex("c", ()))))
    gens, ins = {"1": "a", "2": "b"}, {"1": ["u", "u"], "2": ["w"]}
    fold, folded = lurie_module._fold, []

    def counted(rows, *args, **kwargs):
        rows = list(rows)
        folded.append([d for d, _ in rows])
        return fold(rows, *args, **kwargs)

    monkeypatch.setattr(lurie_module, "_fold", counted)
    live = _live_cuts(p, _weights(gens, ins), "r")
    assert [cut for cut, _ in live] == [("a", "b")]
    assert folded == [["c", "b", "a", "r"]]
    assert len(free_algebra(p, gens, ins, "r")) == _free_algebra_count(p, gens, ins, "r") == 1


# -- the count and the own-cut rule on hand-made tables ------------------------


def test_counts_sum_over_moves_of_products():
    # a has two moves, one to b and c and one to the stump's empty move;
    # b reaches c twice, which the count does not deduplicate
    table = [("c", []), ("b", [("c",), ("c",)]), ("a", [("b", "c"), ()])]
    assert _counts(table, lambda d, moves: 1) == {"c": 1, "b": 3, "a": 1 + 3 * 1 + 1}
    assert _counts(table, lambda d, moves: not moves) == {"c": 1, "b": 2, "a": 2 + 1}
    assert _counts(table, lambda d, moves: 0) == {"c": 0, "b": 0, "a": 1}
    assert _counts([], lambda d, moves: 1) == {}


@given(seeds, st.integers(min_value=1, max_value=3), st.sampled_from([math.inf, 2]))
@settings(max_examples=100, deadline=None)
def test_fold_lists_own_cuts_of_the_given_nodes_only(seed, k, limit):
    # the cuts whose members all lie in ``own``, in the default fold's
    # order: a member is a node where a branch stops, so it is one the
    # fold lists as its own cut
    rng = Random(seed)
    table = _state_table(random_factors(rng, k))
    whole, some = {}, {}
    own = {d for d, _ in table if rng.random() < 0.6}
    _fold(table, whole, limit)
    _fold(table, some, limit, own=own)
    for d, _ in table:
        assert some[d] == [cut for cut in whole[d] if own.issuperset(cut)]


# -- closed forms sharing no code with the folds -------------------------------


def chain(prefix, n):
    """A chain of ``n`` unary vertices: prefix0[prefix1[...]]."""
    names = [f"{prefix}{k}" for k in range(n + 1)]
    return Tree(names[0], tuple(Vertex(names[k], (names[k + 1],)) for k in range(n)))


def corolla(k, root="r"):
    """A root with ``k`` leaves; ``k = 0`` is a stump."""
    return Tree(root, (Vertex(root, tuple(f"l{i}" for i in range(k))),))


def test_chain_shuffles_are_binomials():
    for m in range(7):
        for n in range(7):
            assert count_shuffles([chain("u", m), chain("v", n)]) == math.comb(m + n, m)


@given(seeds, st.sampled_from([0.0, 0.3, 0.6]))
@settings(max_examples=100, deadline=None)
def test_unit_shuffles_once_and_the_count_is_symmetric(seed, stump_probability):
    rng = Random(seed)
    s, t = (random_tree(rng, 6, stump_probability, prefix=q) for q in "ab")
    eta = Tree("e", ())
    assert count_shuffles([eta, s]) == count_shuffles([s, eta]) == 1
    assert count_shuffles([s, t]) == count_shuffles([t, s])


def test_cut_totals_of_chains_and_corollas():
    for n in range(12):
        assert _cut_total(as_forest(chain("c", n))) == (n + 1) * (n + 2) // 2
    for k in range(8):
        assert _cut_total(as_forest(corolla(k))) == k + 2


@given(seeds, st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_free_algebra_count_on_a_corolla(seed, k):
    # w(c), the distinct arguments of c's generators summed, is how many
    # terms an identity at c has; the corolla's one other cut takes a term
    # per leaf, and a stump's empty cut takes none
    rng = Random(seed)
    p = FreeForestOperad(corolla(k))
    gens, ins = random_generators(rng, list(p.colors()))
    w = {c: sum(len(set(ins[i])) for i, g in gens.items() if g == c) for c in p.colors()}
    want = w["r"] + math.prod(w[f"l{i}"] for i in range(k))
    assert _free_algebra_count(p, gens, ins, "r") == len(free_algebra(p, gens, ins, "r")) == want



def closed_cut_count(t, e):
    """``c(e)``, the cuts of ``t`` with output ``e``, by recursion up the
    tree: 1 at a leaf, else 1 (the identity) plus the product over the
    inputs of the vertex above, so 2 at a stump."""
    v = t.vertex_above.get(e)
    return 1 if v is None else 1 + math.prod(closed_cut_count(t, d) for d in v.in_edges)


@given(seeds, st.sampled_from([0.0, 0.3, 0.6]))
@settings(max_examples=100, deadline=None)
def test_hom_from_eta_and_cuts_per_edge_have_closed_forms(seed, stump_probability):
    # a map out of the free operad of η picks one colour; the operations
    # of a free tree operad with output e are the cuts above e, each with
    # its own inputs
    t = random_tree(Random(seed), 8, stump_probability)
    assert len(hom(Tree("eta", ()), t)) == len(t.edges)
    p = FreeForestOperad(t)
    for e in t.edges:
        assert len(p.ops_by_output(e)) == closed_cut_count(t, e)


def test_cut_closed_form_counts_stumps_twice():
    # negative control for the recursion: a stump has its identity and its
    # empty cut, a leaf only its identity
    stump, leaf = corolla(0), Tree("l", ())
    assert closed_cut_count(stump, "r") == len(FreeForestOperad(stump).ops_by_output("r")) == 2
    assert closed_cut_count(leaf, "l") == len(FreeForestOperad(leaf).ops_by_output("l")) == 1
