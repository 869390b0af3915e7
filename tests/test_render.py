import json
import math
import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    Forest,
    FreeForestOperad,
    Tree,
    TreeError,
    Vertex,
    as_forest,
    free_algebra,
    hom,
    omega_obj,
    serialize_forest,
    serialize_tree,
    shuffles,
    tensor_hom,
)
from dendrotensor import render as render_module
from dendrotensor._rand import random_fin_simplex, random_forest, random_tree
from dendrotensor.cli import main
from dendrotensor.levelforest import split_edge_name
from dendrotensor.render import (
    gallery_dot,
    gallery_pieces,
    json_escape,
    json_text,
    listing_json,
    map_texts,
    shuffle_clusters,
    term_texts,
    to_dot,
)
from dendrotensor.shuffle import _state_table
from dendrotensor.treecore import RESERVED_CHARS, parse_tree
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


def _shuffle_gallery(factors):
    return "".join(gallery_pieces(shuffle_clusters(_state_table(factors)), "shuffles"))


def test_shuffle_clusters_match_the_oracle():
    # the gallery written from the state table against the trees drawn by
    # the oracle: random factors with stumps, the same renamed with quotes,
    # backslashes and level prefixes, a lone factor, and children whose
    # sorted names (`a10`, `a1`) sort unlike their tuples
    rng = Random("shuffle_clusters")
    cases = [
        [parse_tree("r[a1,a10[]]"), parse_tree("x[y,z[]]")],
        [parse_tree('r[a",a#[q\\]]')],
        [parse_tree("a0")],
        [parse_tree("a0"), parse_tree("b0")],
    ]
    for k in (1, 2, 3):
        for _ in range(20):
            factors = random_factors(rng, k)
            cases.append(factors)
            cases.append(list(rename(Forest(tuple(factors)), rng, None).components))
    stumps = quotes = 0
    for factors in cases:
        text = _shuffle_gallery(factors)
        assert text == oracle_gallery_dot(shuffles(factors), "shuffles")
        stumps += "shape=square" in text
        quotes += '\\"' in text
    assert stumps > 20 and quotes > 5


def test_shuffle_clusters_of_unescaped_names_fail_the_oracle(monkeypatch):
    # negative control: a quote in a state name must be escaped
    factors = [parse_tree('r[a",b]'), parse_tree("x[y]")]
    expected = oracle_gallery_dot(shuffles(factors), "shuffles")
    assert _shuffle_gallery(factors) == expected
    monkeypatch.setattr(render_module, "_esc", lambda s: s)
    assert _shuffle_gallery(factors) != expected


def test_shuffle_cluster_tag_is_no_name_character():
    # the tag's place holder can be replaced because no edge name holds it
    assert render_module._TAG in RESERVED_CHARS
    with pytest.raises(TreeError):
        parse_tree("r[a" + render_module._TAG + "]")


# -- JSON -------------------------------------------------------------------------


def oracle_json(obj):
    return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


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


# -- listings ---------------------------------------------------------------------

# The map and term listings are written from names escaped once per listing;
# the oracle is json.dumps over the dicts the CLI built for each item before.


def replaced_map_json(m):
    return {
        "edge_map": dict(m.colors),
        "vertex_map": {
            v: {"output": op.output, "inputs": list(op.inputs)}
            for v, op in m.components
        },
    }


def replaced_tensor_map_json(m):
    return {**replaced_map_json(m), "witness_shuffle": serialize_tree(m.witness)}


def replaced_term_json(t):
    return {"indices": list(t.indices), "operation": str(t.label), "args": list(t.args)}


def oracle_listing(key, items):
    return oracle_json({"count": len(items), key: items})


def _written(key, texts):
    return "".join(listing_json(key, texts))


def test_listings_of_nothing_match_json_text():
    assert _written("maps", map_texts([])) == oracle_listing("maps", [])
    assert _written("maps", map_texts([], [])) == oracle_listing("maps", [])
    assert _written("terms", term_texts([])) == oracle_listing("terms", [])


def test_map_texts_match_the_replaced_dicts_on_random_hom(capsys):
    rng = Random("map_texts:hom")
    seen = dict.fromkeys(["empty", "bare-edge", "stump-image", "forest", "escaped", "maps"], 0)
    for i in range(160):
        src = rename(random_forest(rng, 4, 0.3, 2), rng, None)
        tgt = rename(random_forest(rng, 9, 0.3, 2, 1), rng, None)
        try:
            maps = hom(src, tgt, cap=3000)
        except TreeError:
            continue
        expected = oracle_listing("maps", [replaced_map_json(m) for m in maps])
        assert _written("maps", map_texts(maps)) == expected
        if i % 8 == 0:
            assert main(["hom", "--", serialize_forest(src), serialize_forest(tgt)]) == 0
            assert capsys.readouterr().out == expected
        seen["empty"] += not maps
        seen["bare-edge"] += any(not m.components for m in maps)
        seen["stump-image"] += any(not op.inputs for m in maps for _, op in m.components)
        seen["forest"] += len(src.components) > 1 and bool(maps)
        seen["escaped"] += '\\"' in expected and "\\\\" in expected
        seen["maps"] += len(maps)
    assert all(seen.values()), seen


def test_map_texts_match_the_replaced_dicts_on_random_tensor_hom(capsys):
    rng = Random("map_texts:tensor_hom")
    witnessed = 0
    for i in range(40):
        probe = rename(as_forest(random_tree(rng, 3, 0.3, "p")), rng, None).components[0]
        factors = [
            rename(as_forest(t), rng, None).components[0]
            for t in random_factors(rng, rng.choice((1, 2)), 40)
        ]
        maps = tensor_hom(probe, factors, cap=3000)
        expected = oracle_listing("maps", [replaced_tensor_map_json(m) for m in maps])
        witnesses = [json_escape(serialize_tree(m.witness)) for m in maps]
        assert _written("maps", map_texts(maps, witnesses)) == expected
        if i % 5 == 0:
            argv = ["tensor-hom", "--", serialize_tree(probe), *map(serialize_tree, factors)]
            assert main(argv) == 0
            assert capsys.readouterr().out == expected
        witnessed += len({id(m.witness) for m in maps}) > 1
    assert witnessed


def test_map_texts_keep_escapes_and_indents_apart():
    # one name as key, colour and input; an edge named like an escape
    src, tgt = Tree('"', (Vertex('"', ("\\", "é")),)), Tree("ℓ", (Vertex("ℓ", ('"', "\\\"")),))
    maps = hom(src, tgt)
    assert len(maps) == 2
    expected = oracle_listing("maps", [replaced_map_json(m) for m in maps])
    assert _written("maps", map_texts(maps)) == expected


def test_term_texts_match_the_replaced_dicts_on_random_free_algebras(capsys):
    rng = Random("term_texts")
    seen = dict.fromkeys(["empty", "nullary", "shared-colour"], 0)
    for i in range(80):
        forest = rename(random_forest(rng, 7, 0.35, 2, 1), rng, None)
        edges = sorted(forest.edges)
        names = [f"{rng.choice(AWKWARD)}g{j}" for j in range(rng.randint(1, 4))]
        generators = {g: rng.choice(edges) for g in names}
        inputs = {
            g: [rng.choice(AWKWARD) + f"{g}.{k}" for k in range(rng.randint(0, 2))]
            for g in generators
        }
        out = rng.choice(edges)
        terms = free_algebra(FreeForestOperad(forest), generators, inputs, out)
        expected = oracle_listing("terms", [replaced_term_json(t) for t in terms])
        assert _written("terms", term_texts(terms)) == expected
        if i % 8 == 0:
            argv = [
                "free-algebra", serialize_forest(forest),
                "--generators", json.dumps(generators), "--inputs", json.dumps(inputs),
                f"--output-color={out}",
            ]
            assert main(argv) == 0
            assert capsys.readouterr().out == expected
        seen["empty"] += not terms
        seen["nullary"] += any(not t.indices for t in terms)
        seen["shared-colour"] += len(set(generators.values())) < len(generators) and bool(terms)
    assert all(seen.values()), seen
