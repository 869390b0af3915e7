import json
import math
import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import Forest, Tree, Vertex, as_forest, omega_obj, shuffles
from dendrotensor._rand import random_fin_simplex, random_forest, random_tree
from dendrotensor.levelforest import split_edge_name
from dendrotensor.render import gallery_dot, json_text, to_dot
from test_shuffle import random_factors

# -- DOT -------------------------------------------------------------------------

# Reference for the DOT writers: the code they replaced, which matched the
# level regex on every edge, quoted each id about three times and wrote the
# gallery's cluster lines as "  " + line.strip().

_ORACLE_LEVEL_RE = re.compile(r"^ℓ(\d+):")


def _oracle_q(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _oracle_level_of(edge):
    m = _ORACLE_LEVEL_RE.match(edge)
    return int(m.group(1)) if m else None


@given(st.text(alphabet="ℓ0123456789٣²:ax", max_size=8))
@settings(max_examples=300, deadline=None)
def test_split_edge_name_reads_the_level_the_regex_reads(edge):
    split = split_edge_name(edge)
    assert (None if split is None else split[0]) == _oracle_level_of(edge)
    if split is not None:
        assert edge.endswith(":" + split[1])


def oracle_emit_tree(t, tag, lines, ranks):
    def upper_id(e):
        return f"v:{tag}:{e}" if e in t.vertex_above else f"leaf:{tag}:{e}"

    for v in t.vertices:
        nid = f"v:{tag}:{v.out_edge}"
        if v.is_stump:
            lines.append(
                f"  {_oracle_q(nid)} [shape=square, style=filled, fillcolor=black, "
                'label="", width=0.12, fixedsize=true];'
            )
        else:
            lines.append(f"  {_oracle_q(nid)} [shape=point, width=0.08];")
    for e in t.leaves:
        lines.append(
            f"  {_oracle_q(f'leaf:{tag}:{e}')} [shape=circle, label=\"\", width=0.12, "
            "fixedsize=true];"
        )
    anchor = f"root:{tag}"
    lines.append(f"  {_oracle_q(anchor)} [shape=none, label=\"\", width=0.01];")
    for e in t.edges:
        parent_v = t.parent.get(e)
        lower = f"v:{tag}:{parent_v}" if parent_v is not None else anchor
        lines.append(
            f"  {_oracle_q(lower)} -> {_oracle_q(upper_id(e))} "
            f"[label={_oracle_q(e)}, arrowhead=none];"
        )
        lvl = _oracle_level_of(e)
        if lvl is not None:
            ranks.setdefault(lvl, []).append(upper_id(e))


def oracle_to_dot(scope, name="forest"):
    forest = as_forest(scope)
    lines = [
        f"digraph {_oracle_q(name)} {{",
        "  rankdir=BT;",
        "  node [fontsize=10];",
        "  edge [fontsize=10];",
    ]
    ranks = {}
    leveled = bool(forest.edges) and all(
        _oracle_level_of(e) is not None for e in forest.edges
    )
    for i, t in enumerate(forest.components):
        oracle_emit_tree(t, str(i), lines, ranks)
    if leveled and ranks:
        lo, hi = min(ranks), max(ranks)
        for lvl in range(lo, hi + 1):
            axis = f"lvl:{lvl}"
            lines.append(
                f"  {_oracle_q(axis)} [shape=plaintext, label={_oracle_q(f'ℓ{lvl}')}];"
            )
            members = " ".join(
                _oracle_q(n) + ";" for n in sorted(set(ranks.get(lvl, [])))
            )
            lines.append(f"  {{ rank=same; {_oracle_q(axis)}; {members} }}")
            if lvl > lo:
                lines.append(
                    f"  {_oracle_q(f'lvl:{lvl - 1}')} -> {_oracle_q(axis)} "
                    "[style=dashed, arrowhead=none];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_gallery_dot(trees, name="gallery"):
    lines = [
        f"digraph {_oracle_q(name)} {{",
        "  rankdir=BT;",
        "  node [fontsize=10];",
        "  edge [fontsize=10];",
    ]
    for i, t in enumerate(trees):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="{i}";')
        sub = []
        oracle_emit_tree(t, str(i), sub, {})
        lines.extend("  " + ln.strip() for ln in sub)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# characters that DOT quoting escapes or that sort unlike their escapes
AWKWARD = ['"', "\\", '\\"', "é", "ℓ", ":", "-"]


def rename(forest, rng, leveled):
    """``forest`` with every edge renamed: awkward characters spliced in at
    random and, when ``leveled`` is true, an ``ℓi:`` prefix on every edge
    (``i`` below 12, so levels both repeat and skip), or on some edges
    when it is ``None``."""
    names = {}
    for e in forest.edges:
        body = "".join(rng.choice(AWKWARD) for _ in range(rng.randint(0, 2))) + e
        if leveled or (leveled is None and rng.random() < 0.5):
            body = f"ℓ{rng.randrange(12)}:{body}"
        names[e] = body

    def tree(t):
        vertices = tuple(
            Vertex(names[v.out_edge], tuple(names[d] for d in v.in_edges)) for v in t.vertices
        )
        return Tree(names[t.root], vertices)

    return Forest(tuple(tree(t) for t in forest.components))


@pytest.mark.parametrize("leveled", [False, True, None])
def test_to_dot_matches_the_oracle_on_random_forests(leveled):
    rng = Random(f"to_dot:{leveled}")
    for _ in range(120):
        forest = rename(random_forest(rng, 14, 0.3), rng, leveled)
        assert to_dot(forest) == oracle_to_dot(forest)
        for t in forest.components:
            assert to_dot(t, 'a"b\\c') == oracle_to_dot(t, 'a"b\\c')


def test_to_dot_keeps_the_rank_lines_of_level_diagrams():
    rng = Random("to_dot:omega")
    ranked = 0
    for _ in range(80):
        forest = omega_obj(random_fin_simplex(rng, 4, 3))
        text = to_dot(forest, "omega")
        assert text == oracle_to_dot(forest, "omega")
        ranked += "rank=same" in text
    assert ranked > 40


def test_gallery_dot_matches_the_oracle():
    rng = Random("gallery")
    for _ in range(40):
        trees = [rename(as_forest(random_tree(rng, 10, 0.3)), rng, None).components[0]
                 for _ in range(rng.randint(0, 5))]
        assert gallery_dot(trees) == oracle_gallery_dot(trees)
        assert gallery_dot(trees, '"\\') == oracle_gallery_dot(trees, '"\\')
    for k in (1, 2, 3):
        listing = shuffles(random_factors(rng, k))
        assert gallery_dot(listing, "shuffles") == oracle_gallery_dot(listing, "shuffles")


# -- JSON -------------------------------------------------------------------------


def oracle_json(obj):
    return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


TEXT = st.text(
    st.one_of(
        st.sampled_from(
            ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ℓ", "😀", "\u2028"]
        ),
        st.characters(),
    ),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == oracle_json(value)


# keys json converts: int, float, bool and None become their JSON text;
# the writer hands any value holding such a key to json.dumps whole
KEYS = st.one_of(
    TEXT, st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.none()
)


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(KEYS, inner, max_size=3)),
    max_leaves=12,
))
def test_json_text_converts_or_refuses_keys_as_json_does(value):
    try:
        expected = oracle_json(value)
    except TypeError as exc:  # keys of mixed types cannot be sorted
        with pytest.raises(TypeError, match=re.escape(str(exc))):
            json_text(value)
    else:
        assert json_text(value) == expected


@pytest.mark.parametrize(
    "value, expected",
    [
        ({1: "a", "b": {2.5: None}}, TypeError),
        (
            {"x": {3: [True], 1: float("nan")}},
            '{\n  "x": {\n    "1": NaN,\n    "3": [\n      true\n    ]\n  }\n}\n',
        ),
        ({(1, 2): 0}, TypeError),
        ({"x": {1, 2}}, TypeError),
        ([], "[]\n"),
        ({"a": {}, "b": [[], ()]}, '{\n  "a": {},\n  "b": [\n    [],\n    []\n  ]\n}\n'),
        (-math.inf, "-Infinity\n"),
        ("ℓ\"\\\x01😀", '"ℓ\\"\\\\\\u0001😀"\n'),
    ],
)
def test_json_text_pinned_cases(value, expected):
    if expected is TypeError:
        with pytest.raises(TypeError):
            oracle_json(value)
        with pytest.raises(TypeError):
            json_text(value)
    else:
        assert oracle_json(value) == expected
        assert json_text(value) == expected


def test_json_text_refuses_a_cycle_as_json_does():
    cycle = {"a": []}
    cycle["a"].append(cycle)
    with pytest.raises(ValueError, match="Circular reference"):
        json_text(cycle)
