"""Transport and interior decomposition against their forms that forked on
a lone factor.

``forked_stump_transport`` and ``forked_interior_decomposition`` are the
earlier forms of ``stump_transport`` and ``interior_decomposition``, kept as
oracles with their lone-factor branches: a lone factor was its own only
shuffle, its transport closed ``leaf`` alone, and its interior decomposition
returned before the self-check.  The shuffle layer now names a lone factor's
states by their bare edge names and takes it through the same state table
and folds as any other factor tuple; it must give the same pairs, boundary
and errors.  That a lone factor folds back into itself and its own text is
``test_shuffle.test_single_factor_is_itself``.
"""

from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    Tree,
    TreeError,
    interior_decomposition,
    parse_tree,
    serialize_tree,
    shuffles,
    stump_transport,
)
from dendrotensor import shuffle as shuffle_module
from dendrotensor import suites as suites_module
from dendrotensor._rand import random_tree
from dendrotensor.shuffle import (
    InteriorDecomposition,
    TransportResult,
    _shuffle_texts,
    decode,
    encode,
)
from dendrotensor.treecore import add_stumps, interior, max_edges

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- the earlier forms, kept as oracles ----------------------------------------


def forked_shuffles(factors):
    """A lone factor returned as it is; two or more factors as ``shuffles``
    lists them (checked against independent oracles in ``test_shuffle``)."""
    if len(factors) == 1:
        return (factors[0],)
    return shuffles(factors)


def forked_stump_transport(factors, i, leaf):
    if not 0 <= i < len(factors):
        raise TreeError(f"no factor {i}")
    after_factors = tuple(
        add_stumps(t, [leaf]) if j == i else t for j, t in enumerate(factors)
    )
    pairs = []
    for a in forked_shuffles(factors):
        if len(factors) == 1:
            targets = [leaf]
        else:
            targets = [e for e in a.leaves if decode(e)[i] == leaf]
        pairs.append((a, add_stumps(a, targets)))
    direct = sorted(serialize_tree(t) for t in forked_shuffles(after_factors))
    moved = sorted(serialize_tree(p[1]) for p in pairs)
    if direct != moved:
        raise TreeError("stump transport failed to match the direct shuffles")
    return TransportResult(after_factors, tuple(pairs))


def forked_interior_decomposition(factors):
    ints = tuple(interior(t) for t in factors)
    if len(factors) == 1:
        boundary = tuple(sorted(set(max_edges(factors[0])) - set(factors[0].leaves)))
        pairs = ((ints[0], add_stumps(ints[0], boundary)),)
        return InteriorDecomposition(ints, boundary, pairs)
    max_tuples = {encode(c) for c in product(*(max_edges(t) for t in factors))}
    leaf_tuples = {encode(c) for c in product(*(t.leaves for t in factors))}
    boundary = tuple(sorted(max_tuples - leaf_tuples))
    bset = set(boundary)
    pairs = []
    for b in forked_shuffles(ints):
        to_close = [e for e in b.leaves if e in bset]
        pairs.append((b, add_stumps(b, to_close)))
    direct = sorted(serialize_tree(t) for t in forked_shuffles(factors))
    closed = sorted(serialize_tree(p[1]) for p in pairs)
    if direct != closed:
        raise TreeError("interior decomposition failed to recover the shuffles")
    return InteriorDecomposition(ints, boundary, tuple(pairs))


# -- draws -----------------------------------------------------------------------


def draw_factors(seed, k):
    """``k`` random factors with stumps; about one in five is a bare edge."""
    rng = Random(seed)
    size = {1: 8, 2: 5, 3: 3}[k]
    sp = rng.choice([0.0, 0.2, 0.4])
    return [
        Tree(f"{p}0", ()) if rng.random() < 0.2 else random_tree(rng, size, sp, prefix=p)
        for p in "abc"[:k]
    ]


def outcome(f, *args):
    """What ``f(*args)`` gives: its value, or the text of its ``TreeError``."""
    try:
        return "value", f(*args)
    except TreeError as exc:
        return "error", str(exc)


def transport_cases(factors):
    """Every factor leaf, and the refusals: a factor's root when it is not
    a leaf, and a factor index out of range."""
    cases = [(j, leaf) for j, t in enumerate(factors) for leaf in sorted(t.leaves)]
    cases += [(j, t.root) for j, t in enumerate(factors) if t.vertices]
    return cases + [(len(factors), factors[0].root)]


LONE = ["a", "a[]", "r[a[x],b]", "r[a[],b[c,d[]]]", "r[a,b,c]"]


# -- the unified path equals the forked one ------------------------------------


@given(seeds, st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_stump_transport_matches_the_forked_transport(seed, k):
    fs = draw_factors(seed, k)
    for j, leaf in transport_cases(fs):
        assert outcome(stump_transport, fs, j, leaf) == outcome(
            forked_stump_transport, fs, j, leaf
        )


@given(seeds, st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_interior_decomposition_matches_the_forked_one(seed, k):
    fs = draw_factors(seed, k)
    assert outcome(interior_decomposition, fs) == outcome(forked_interior_decomposition, fs)


@pytest.mark.parametrize("text", LONE)
def test_lone_factor_transport_and_interior_match_the_forked_ones(text):
    t = parse_tree(text)
    assert interior_decomposition([t]) == forked_interior_decomposition([t])
    for j, leaf in transport_cases([t]):
        assert outcome(stump_transport, [t], j, leaf) == outcome(
            forked_stump_transport, [t], j, leaf
        )


def test_no_factors_refused_alike():
    assert outcome(interior_decomposition, []) == outcome(
        forked_interior_decomposition, []
    ) == ("error", "need at least one factor")


# -- the two checks a lone factor used to skip ---------------------------------


def lone_suite_failures(monkeypatch, listed):
    """Run the ``shuffles`` suite with each lone factor's shuffles listed as
    ``listed(factor)``, or as they are where that gives ``None``; return the
    factors so replaced and the failed records."""
    real = suites_module.shuffles
    replaced = []

    def patched(factors):
        if len(factors) == 1 and (wrong := listed(factors[0])) is not None:
            replaced.append(factors[0])
            return (wrong,)
        return real(factors)

    monkeypatch.setattr(suites_module, "shuffles", patched)
    report = suites_module.run_check("shuffles", suites_module.SuiteConfig(seed=42, instances=30))
    records = report["suites"][0]["records"]
    failed = [r for r in records if r["status"] == "fail"]
    assert replaced
    assert all(len(r["witness"]["factors"]) == 1 for r in failed)
    return replaced, failed


def test_shuffles_suite_checks_the_max_law_of_a_lone_factor(monkeypatch):
    # cut down to its root edge, a lone factor keeps its root and loses its
    # maximal edges unless the root is the only one
    replaced, failed = lone_suite_failures(
        monkeypatch,
        lambda t: Tree(t.root, ()) if max_edges(t) != (t.root,) else None,
    )
    assert [r["check"] for r in failed] == ["root-law", "max-law"] * len(replaced)


def test_shuffles_suite_checks_the_unit_law_of_a_lone_factor(monkeypatch):
    # with its inner edges contracted, a lone factor keeps its root and its
    # maximal edges; only the unit law tells it from the factor
    replaced, failed = lone_suite_failures(
        monkeypatch,
        lambda t: parse_tree(f"{t.root}[{','.join(max_edges(t))}]")
        if t.inner_edges and not t.stump_edges
        else None,
    )
    assert [r["check"] for r in failed] == ["root-law"] * len(replaced)


def test_interior_decomposition_checks_a_lone_factor(monkeypatch):
    real = shuffle_module._shuffle_texts
    monkeypatch.setattr(shuffle_module, "_shuffle_texts", lambda table: real(table)[:-1])
    with pytest.raises(TreeError, match="failed to recover the shuffles"):
        interior_decomposition([parse_tree("r[a[],b]")])
