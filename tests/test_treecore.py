import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    Forest,
    Tree,
    TreeError,
    Vertex,
    add_stumps,
    as_forest,
    contract_inner,
    corolla,
    cut_at,
    interior,
    max_edges,
    parse_forest,
    parse_tree,
    serialize_forest,
    serialize_tree,
)
from dendrotensor import treecore as treecore_module
from dendrotensor._rand import random_forest, random_tree

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- parsing and canonical form ----------------------------------------------


def test_parse_round_trip_fixed():
    for text in ["e", "r[]", "r[a,b]", "r[a[x,y],b[]]", "a[b[c[d]]]"]:
        assert serialize_tree(parse_tree(text)) == text


def test_children_serialize_sorted():
    assert serialize_tree(parse_tree("r[b,a]")) == "r[a,b]"
    assert serialize_tree(parse_tree("r[b[z,y],a]")) == "r[a,b[y,z]]"


def test_whitespace_ignored():
    assert serialize_tree(parse_tree(" r [ a , b ] ")) == "r[a,b]"


def test_forest_round_trip():
    assert serialize_forest(parse_forest("{}")) == "{}"
    assert serialize_forest(parse_forest("{a;b[c]}")) == "{a;b[c]}"


def test_forest_components_keep_given_order():
    f = parse_forest("{z;a[b]}")
    assert [t.root for t in f.components] == ["z", "a"]
    assert f.canonical_key() == ("a[b]", "z")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "r[",
        "r]",
        "r[a,,b]",
        "r[a]x",
        "{a;a}",
        "r[a,a]",
        "r[r]",
        "a[b[a]]",
        "{a;b[a]}",
        "r[a;b]",
        "{a,b}",
    ],
)
def test_malformed_inputs_raise(bad):
    with pytest.raises(TreeError):
        if bad.startswith("{"):
            parse_forest(bad)
        else:
            parse_tree(bad)


def test_reserved_characters_in_names_raise():
    for ch in "[],;{} \t":
        with pytest.raises(TreeError):
            Vertex(f"a{ch}b", ())


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_parse_serialize_round_trip_random(seed):
    t = random_tree(Random(seed), 9, 0.3)
    assert serialize_tree(parse_tree(serialize_tree(t))) == serialize_tree(t)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_forest_round_trip_random(seed):
    f = random_forest(Random(seed), 6, 0.3)
    assert parse_forest(serialize_forest(f)).canonical_key() == f.canonical_key()


# -- structure ---------------------------------------------------------------


def eta(name="e"):
    """The edge-only tree (``Tree(name, ())``)."""
    return Tree(name, ())


def test_eta_and_corolla():
    assert serialize_tree(eta("x")) == "x"
    assert eta("x").leaves == ("x",)
    assert serialize_tree(corolla("r", ["b", "a"])) == "r[a,b]"
    assert serialize_tree(corolla("r")) == "r[]"


def test_leaves_stumps_max():
    t = parse_tree("r[a[x,y],b[]]")
    assert set(t.leaves) == {"x", "y"}
    assert set(t.stump_edges) == {"b"}
    assert set(max_edges(t)) == {"x", "y", "b"}


def test_max_edges_is_leaves_plus_stumps_random():
    rng = Random(7)
    for _ in range(60):
        t = random_tree(rng, 8, 0.35)
        assert set(max_edges(t)) == set(t.leaves) | set(t.stump_edges)


def test_depth_and_inner_edges():
    t = parse_tree("r[a[x],b]")
    assert t.depth == {"r": 0, "a": 1, "b": 1, "x": 2}
    assert set(t.inner_edges) == {"a"}
    assert not t.is_inner("r") and not t.is_inner("x")


def test_edge_only_tree_has_no_vertices():
    t = eta("e")
    assert t.vertices == ()
    assert t.leaves == ("e",)
    assert t.stump_edges == ()


# -- surgery -----------------------------------------------------------------


def graft(lower, at, upper):
    """Attach ``upper`` (rooted at the leaf ``at`` of ``lower``) onto it: the
    inverse of ``cut_at``, which no library code needs."""
    if at not in lower.leaves:
        raise TreeError(f"{at!r} is not a leaf of {serialize_tree(lower)}")
    if upper.root != at:
        raise TreeError(f"graft root mismatch: {upper.root!r} != {at!r}")
    overlap = (lower.edge_set & upper.edge_set) - {at}
    if overlap:
        raise TreeError(f"edge names reused in graft: {sorted(overlap)}")
    return Tree(lower.root, lower.vertices + upper.vertices)


def test_cut_then_graft_is_identity():
    t = parse_tree("r[a[x,y],b[]]")
    lower, upper = cut_at(t, "a")
    assert serialize_tree(lower) == "r[a,b[]]"
    assert serialize_tree(upper) == "a[x,y]"
    assert serialize_tree(graft(lower, "a", upper)) == serialize_tree(t)


def test_cut_requires_inner_edge():
    t = parse_tree("r[a]")
    with pytest.raises(TreeError):
        cut_at(t, "r")
    with pytest.raises(TreeError):
        cut_at(t, "a")


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_cut_graft_round_trip_random(seed):
    rng = Random(seed)
    t = random_tree(rng, 9, 0.3)
    inner = sorted(t.inner_edges)
    if not inner:
        return
    e = rng.choice(inner)
    lower, upper = cut_at(t, e)
    assert lower.edge_set | upper.edge_set == t.edge_set
    assert lower.edge_set & upper.edge_set == {e}
    assert serialize_tree(graft(lower, e, upper)) == serialize_tree(t)


def test_graft_rejects_name_clash():
    with pytest.raises(TreeError):
        graft(parse_tree("r[a,x]"), "a", parse_tree("a[x]"))


def test_contract_inner_merges_vertices():
    t = parse_tree("r[a[x,y],b]")
    got = contract_inner(t, ["a"])
    assert serialize_tree(got) == "r[b,x,y]"


def test_contract_stump_edge_deletes_branch():
    t = parse_tree("r[a[],b]")
    assert serialize_tree(contract_inner(t, ["a"])) == "r[b]"


def test_contract_nothing_is_identity():
    t = parse_tree("r[a[x],b]")
    assert serialize_tree(contract_inner(t, [])) == serialize_tree(t)


def test_interior_drops_stumps():
    t = parse_tree("r[a[x],b[]]")
    got = interior(t)
    assert serialize_tree(got) == "r[a[x],b]"
    assert serialize_tree(interior(got)) == serialize_tree(got)


def test_add_stumps_closes_leaves():
    t = parse_tree("r[a,b]")
    got = add_stumps(t, ["a"])
    assert serialize_tree(got) == "r[a[],b]"
    with pytest.raises(TreeError):
        add_stumps(t, ["r"])


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_interior_after_closing_all_leaves_random(seed):
    t = random_tree(Random(seed), 7, 0.3)
    closed = add_stumps(t, t.leaves)
    assert not closed.leaves
    assert serialize_tree(interior(closed)) == serialize_tree(interior(t))


# -- forests -----------------------------------------------------------------


def test_as_forest_wraps_tree():
    t = parse_tree("r[a]")
    f = as_forest(t)
    assert isinstance(f, Forest)
    assert f.components == (t,)
    assert as_forest(f) is f


def test_component_of_indexes_every_edge():
    f = parse_forest("{r[a];s[b[]]}")
    assert f.component_of["a"].root == "r"
    assert f.component_of["b"].root == "s"
    assert set(f.edges) == {"r", "a", "s", "b"}


def test_forest_rejects_shared_edge_names():
    with pytest.raises(TreeError):
        Forest((parse_tree("r[a]"), parse_tree("s[a]")))


def test_subtree_edges():
    t = parse_tree("r[a[x,y[]],b]")
    assert t.subtree_edges("a") == frozenset({"a", "x", "y"})
    assert t.subtree_edges("r") == t.edge_set


# -- the O(E) checks against the old ones ---------------------------------------


def check_tree(root, vertices):
    """Reference for the checks of :class:`Tree`: the old validator, which
    walks every edge down to the root (O(edges x depth))."""
    verts = tuple(sorted(vertices, key=lambda v: v.out_edge))
    above = {}
    for v in verts:
        if v.out_edge in above:
            raise TreeError(f"two vertices share output edge {v.out_edge!r}")
        above[v.out_edge] = v
    parent = {}
    for v in verts:
        for d in v.in_edges:
            if d == root:
                raise TreeError(f"root edge {d!r} used as an input")
            if d in parent:
                raise TreeError(f"edge {d!r} is an input of two vertices")
            parent[d] = v.out_edge
    edges = {root} | set(parent)
    for v in verts:
        if v.out_edge not in edges:
            raise TreeError(
                f"vertex output {v.out_edge!r} is neither the root nor an input"
            )
    for e in edges:
        seen = set()
        cur = e
        while cur != root:
            if cur in seen:
                raise TreeError(f"cycle through edge {cur!r}")
            seen.add(cur)
            cur = parent[cur]
    return above


def serialize_recursively(above, e):
    """Reference for :func:`serialize_tree`: the old recursive serializer."""
    v = above.get(e)
    if v is None:
        return e
    return e + "[" + ",".join(serialize_recursively(above, d) for d in v.in_edges) + "]"


class RecursiveParser:
    """Reference for :func:`parse_tree` and :func:`parse_forest`: the
    character scanner they replaced, with the old recursive ``edge``."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, ch):
        if self.peek() != ch:
            raise TreeError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def name(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in treecore_module.RESERVED_CHARS or ch.isspace():
                break
            self.pos += 1
        if self.pos == start:
            raise TreeError(f"expected edge name at position {start} in {self.text!r}")
        return self.text[start:self.pos]

    def edge(self, acc):
        nm = self.name()
        if self.peek() == "[":
            self.pos += 1
            ins = []
            if self.peek() != "]":
                ins.append(self.edge(acc))
                while self.peek() == ",":
                    self.pos += 1
                    ins.append(self.edge(acc))
            self.expect("]")
            acc.append(Vertex(nm, tuple(ins)))
        return nm

    def tree(self):
        acc = []
        root = self.edge(acc)
        return Tree(root, tuple(acc))

    def forest(self):
        self.expect("{")
        comps = []
        if self.peek() != "}":
            comps.append(self.tree())
            while self.peek() == ";":
                self.pos += 1
                comps.append(self.tree())
        self.expect("}")
        return Forest(tuple(comps))

    def end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise TreeError(f"trailing input at position {self.pos} in {self.text!r}")


def oracle_parse_tree(text):
    p = RecursiveParser(text)
    t = p.tree()
    p.end()
    return t


def oracle_parse_forest(text):
    p = RecursiveParser(text)
    f = p.forest() if p.peek() == "{" else Forest((p.tree(),))
    p.end()
    return f


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except TreeError as exc:
        return "error", str(exc)


def built(root, vertices):
    t = Tree(root, vertices)
    return serialize_tree(t), t.vertex_above


def checked(root, vertices):
    above = check_tree(root, vertices)
    return serialize_recursively(above, root), above


CORRUPTIONS = ("cycle", "input twice", "root as input", "orphan", "duplicate output")


def corrupt(t, kind, rng):
    """``t``'s vertices with one defect of the given kind, or None when ``t``
    is too small to carry it."""
    verts = list(t.vertices)
    below = {d: i for i, v in enumerate(verts) for d in v.in_edges}

    def with_inputs(i, ins):
        verts[i] = Vertex(verts[i].out_edge, tuple(ins))

    if kind == "cycle":
        # move an inner edge up into its own subtree, in place of an edge above it
        inner = sorted(t.inner_edges)
        if not inner:
            return None
        e = rng.choice(inner)
        m = rng.choice(sorted(t.subtree_edges(e) - {e}) or [e])
        if m == e:
            return None
        with_inputs(below[e], [d for d in verts[below[e]].in_edges if d != e])
        with_inputs(below[m], [e if d == m else d for d in verts[below[m]].in_edges])
    elif kind == "input twice":
        used = sorted(below)
        if not used or len(verts) < 2:
            return None
        d = rng.choice(used)
        others = [i for i in range(len(verts)) if i != below[d]]
        i = rng.choice(others)
        with_inputs(i, verts[i].in_edges + (d,))
    elif kind == "root as input":
        if not verts:
            return None
        i = rng.randrange(len(verts))
        with_inputs(i, verts[i].in_edges + (t.root,))
    elif kind == "orphan":
        verts.append(Vertex("z", rng.choice([(), ("z0",), ("z0", "z1")])))
    else:
        if not verts:
            return None
        out = rng.choice(verts).out_edge
        verts.append(Vertex(out, rng.choice([(), ("z0",)])))
    rng.shuffle(verts)
    return tuple(verts)


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_tree_checks_match_the_old_validator(seed):
    rng = Random(seed)
    t = random_tree(rng, 12, 0.25)
    verts = list(t.vertices)
    rng.shuffle(verts)
    got = outcome(built, t.root, tuple(verts))
    assert got[0] == "ok"
    assert got == outcome(checked, t.root, tuple(verts))


@given(seeds, st.sampled_from(CORRUPTIONS))
@settings(max_examples=400, deadline=None)
def test_corrupt_vertex_sets_fail_like_the_old_validator(seed, kind):
    rng = Random(seed)
    verts = None
    while verts is None:
        t = random_tree(rng, 16, 0.2)
        verts = corrupt(t, kind, rng)
    got = outcome(built, t.root, verts)
    assert got[0] == "error"
    assert got == outcome(checked, t.root, verts)


@pytest.mark.parametrize(
    "root, vertices, message",
    [
        ("r", [("r", "ab"), ("a", "c"), ("b", "c")], "edge 'c' is an input of two vertices"),
        ("r", [("r", "a"), ("a", "r")], "root edge 'r' used as an input"),
        ("r", [("r", "a"), ("x", "")], "vertex output 'x' is neither the root nor an input"),
        ("r", [("r", "a"), ("a", ""), ("a", "b")], "two vertices share output edge 'a'"),
        ("r", [("r", "a"), ("b", "c"), ("c", "b")], "cycle through edge"),
    ],
)
def test_each_defect_names_its_edge(root, vertices, message):
    verts = tuple(Vertex(o, tuple(ins)) for o, ins in vertices)
    with pytest.raises(TreeError, match=message):
        Tree(root, verts)
    with pytest.raises(TreeError, match=message):
        check_tree(root, verts)


# the reserved characters, and whitespace that is a space, a tab and three
# characters beyond ASCII (NEL, no-break space, ideographic space): the
# tokenizer's ``\s`` must skip exactly what ``str.isspace`` skips
@given(st.text(alphabet="ab[],;{} \t\x85\xa0\u3000", max_size=24))
@settings(max_examples=400, deadline=None)
def test_parser_matches_the_recursive_one(text):
    assert outcome(parse_tree, text) == outcome(oracle_parse_tree, text)
    assert outcome(parse_forest, text) == outcome(oracle_parse_forest, text)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_parser_matches_the_recursive_one_on_trees(seed):
    text = serialize_tree(random_tree(Random(seed), 12, 0.25))
    assert parse_tree(text) == oracle_parse_tree(text)
    text = serialize_forest(random_forest(Random(seed), 12, 0.25))
    assert parse_forest(text) == oracle_parse_forest(text)


def chain(n):
    return Tree("e0", tuple(Vertex(f"e{i}", (f"e{i + 1}",)) for i in range(n)))


def test_deep_chain_round_trips():
    t = chain(5000)
    text = serialize_tree(t)
    assert text == "e0" + "".join(f"[e{i}" for i in range(1, 5001)) + "]" * 5000
    assert parse_tree(text) == t
    assert parse_forest("{" + text + "}").components == (t,)


def test_deep_chain_defects_are_found():
    verts = chain(5000).vertices
    with pytest.raises(TreeError, match="root edge 'e0' used as an input"):
        Tree("e0", verts + (Vertex("e5000", ("e0",)),))
    # close the top of the chain into a loop hanging off nothing
    loop = verts[1:] + (Vertex("e5000", ("e1",)), Vertex("e0", ()))
    with pytest.raises(TreeError, match="cycle through edge"):
        Tree("e0", loop)


# -- the random tree generator -------------------------------------------------


def oracle_random_tree(rng, max_edges, stump_probability=0.2, prefix="e"):
    """``random_tree`` before its explicit stack: the same draws, grown by
    recursion in pre-order (so it fails on trees thousands of edges deep)."""
    budget = rng.randint(1, max_edges)
    used = 0
    vertices = []

    def fresh():
        nonlocal used
        used += 1
        return f"{prefix}{used - 1}"

    def grow(e):
        if used >= budget:
            return
        roll = rng.random()
        if roll < stump_probability:
            vertices.append(Vertex(e, ()))
            return
        if roll < stump_probability + 0.25:
            return
        k = rng.randint(1, min(3, budget - used))
        kids = tuple(fresh() for _ in range(k))
        vertices.append(Vertex(e, kids))
        for d in kids:
            grow(d)

    root = fresh()
    grow(root)
    return Tree(root, tuple(vertices))


@given(seeds, st.integers(min_value=1, max_value=60), st.sampled_from([0.0, 0.2, 0.5, 1.0]))
@settings(max_examples=200, deadline=None)
def test_random_tree_equals_recursive_oracle(seed, max_edges, stump_probability):
    # the same tree, vertex for vertex, and the same draws consumed
    rng, oracle_rng = Random(seed), Random(seed)
    t = random_tree(rng, max_edges, stump_probability, prefix="p")
    want = oracle_random_tree(oracle_rng, max_edges, stump_probability, prefix="p")
    assert (t.root, t.vertices) == (want.root, want.vertices)
    assert rng.getstate() == oracle_rng.getstate()


def test_random_tree_grows_past_the_recursion_limit():
    t = random_tree(Random(0), 20000, 0.0)
    assert max(t.depth.values()) == 4917


# -- edge-name check against the character loop it replaced -------------------


def oracle_check_name(name):
    """The per-character loop :func:`treecore.check_name` replaced."""
    if not name:
        raise TreeError("edge name must be nonempty")
    for ch in name:
        if ch in treecore_module.RESERVED_CHARS or ch.isspace():
            raise TreeError(f"illegal character {ch!r} in edge name {name!r}")
    return name


def _verdict(check, name):
    try:
        return check(name)
    except TreeError as exc:
        return ("error", str(exc))


def test_check_name_refuses_exactly_the_oracles_characters():
    # every code point, alone and after a legal prefix
    refused = []
    for cp in range(sys.maxunicode + 1):
        ch = chr(cp)
        for name in (ch, "e" + ch):
            got = _verdict(treecore_module.check_name, name)
            assert got == _verdict(oracle_check_name, name), (hex(cp), got)
        if got != "e" + ch:
            refused.append(ch)
    assert set("[],;{} \t\n\x0b\x0c\r\x85\xa0　") <= set(refused)
    assert len(refused) == 6 + sum(ch.isspace() for ch in map(chr, range(sys.maxunicode + 1)))


@given(st.text(alphabet=st.sampled_from("ab[],;{} \t 　x\xa0é"), max_size=12))
@settings(max_examples=400, deadline=None)
def test_check_name_message_equals_oracle_on_random_names(name):
    # the first illegal character is the one named, as the loop named it
    assert _verdict(treecore_module.check_name, name) == _verdict(oracle_check_name, name)


@given(st.text(max_size=20))
@settings(max_examples=300, deadline=None)
def test_check_name_equals_oracle_on_arbitrary_text(name):
    assert _verdict(treecore_module.check_name, name) == _verdict(oracle_check_name, name)
