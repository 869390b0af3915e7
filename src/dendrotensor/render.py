"""Output text: Graphviz DOT for trees and forests, and indented JSON.

DOT conventions: the root hangs at the bottom, interior vertices are dots,
stumps are filled squares, leaves end in open circles, and every edge is
labeled by its name.  Forests whose edge names all carry level prefixes
(``ℓi:a``) additionally get one rank per level joined by a dashed level
axis, so the drawing reads like a level diagram.  One emitter draws the
trees of :func:`to_dot` and :func:`gallery_dot`.  The DOT gallery of the
shuffles of a factor tuple is written in the same bytes from the factors'
state table instead, with no tree built (:func:`shuffle_clusters`): every
line of it is fixed by one state or one (parent, child) pair.

:func:`json_text` is ``json.dumps`` with the indent, sorted keys and
trailing newline of every report and small object.  The listings of
``shuffles``, ``hom``, ``tensor-hom`` and ``free-algebra`` are written in
the same bytes from pieces instead: :func:`map_texts` and
:func:`term_texts` write each map or term from names escaped once per
listing (:func:`json_escape`), ``shuffles`` folds its texts from escaped
state names, and :func:`listing_json` writes any of them as head, one join
of the items and tail.
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .levelforest import split_edge_name
from .shuffle import _shuffle_parts, _Table
from .treecore import Forest, Tree, as_forest

if TYPE_CHECKING:
    from .lurie import FreeTerm
    from .omegacat import ForestInto, Operation

__all__ = [
    "to_dot",
    "gallery_dot",
    "gallery_pieces",
    "shuffle_clusters",
    "json_text",
    "json_escape",
    "listing_json",
    "map_texts",
    "term_texts",
]


class _Memo(dict):
    """A dict that fills a missing key ``k`` with ``make(k)``; a hit is a
    plain dict lookup."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[str], str]):
        super().__init__()
        self.make = make

    def __missing__(self, k: str) -> str:
        v = self[k] = self.make(k)
        return v


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _q(s: str) -> str:
    return '"' + _esc(s) + '"'


# where a shuffle cluster's lines take its tag: a reserved character, which
# no edge name holds
_TAG = "{"

_STUMP = '[shape=square, style=filled, fillcolor=black, label="", width=0.12, fixedsize=true];'
_POINT = "[shape=point, width=0.08];"
_LEAF = '[shape=circle, label="", width=0.12, fixedsize=true];'


def _emit_tree(t: Tree, tag: str, lines: list[str], ranks: dict[int, list[str]] | None) -> None:
    """Append the nodes and edges of ``t`` to ``lines``, each node id built
    once; given ``ranks``, also file each edge's upper node under the level
    of a level-prefixed edge name."""
    node: dict[str, str] = {}  # an edge's upper node: the vertex above it, or its leaf
    for v in t.vertices:
        nid = node[v.out_edge] = f'"v:{tag}:{_esc(v.out_edge)}"'
        lines.append(f"  {nid} {_STUMP if v.is_stump else _POINT}")
    for e in t.leaves:
        nid = node[e] = f'"leaf:{tag}:{_esc(e)}"'
        lines.append(f"  {nid} {_LEAF}")
    anchor = f'"root:{tag}"'
    lines.append(f'  {anchor} [shape=none, label="", width=0.01];')
    parent = t.parent
    lines += [
        f'  {anchor if (p := parent.get(e)) is None else node[p]} -> {node[e]} '
        f'[label="{_esc(e)}", arrowhead=none];'
        for e in t.edges
    ]
    if ranks is not None:
        above = t.vertex_above
        for e in t.edges:
            level = split_edge_name(e)
            if level is not None:
                kind = "v" if e in above else "leaf"
                ranks.setdefault(level[0], []).append(f"{kind}:{tag}:{e}")


def _head(name: str) -> list[str]:
    return [
        f"digraph {_q(name)} {{",
        "  rankdir=BT;",
        "  node [fontsize=10];",
        "  edge [fontsize=10];",
    ]


def to_dot(scope: Tree | Forest, name: str = "forest") -> str:
    forest = as_forest(scope)
    lines = _head(name)
    leveled = bool(forest.edges) and all(split_edge_name(e) is not None for e in forest.edges)
    ranks: dict[int, list[str]] | None = {} if leveled else None
    for i, t in enumerate(forest.components):
        _emit_tree(t, str(i), lines, ranks)
    if ranks:
        lo, hi = min(ranks), max(ranks)
        for lvl in range(lo, hi + 1):
            axis = f"lvl:{lvl}"
            lines.append(f"  {_q(axis)} [shape=plaintext, label={_q(f'ℓ{lvl}')}];")
            members = " ".join(_q(n) + ";" for n in sorted(set(ranks.get(lvl, []))))
            lines.append(f"  {{ rank=same; {_q(axis)}; {members} }}")
            if lvl > lo:
                lines.append(
                    f"  {_q(f'lvl:{lvl - 1}')} -> {_q(axis)} "
                    "[style=dashed, arrowhead=none];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def gallery_dot(trees: list[Tree] | tuple[Tree, ...], name: str = "gallery") -> str:
    """Several trees side by side as clusters of one digraph."""
    clusters = []
    for i, t in enumerate(trees):
        lines = [f"  subgraph cluster_{i} {{", f'    label="{i}";']
        _emit_tree(t, str(i), lines, None)
        lines.append("  }\n")
        clusters.append("\n".join(lines))
    return "".join(gallery_pieces(clusters, name))


def gallery_pieces(clusters: Sequence[str], name: str) -> tuple[str, str, str]:
    """A gallery of the cluster texts ``clusters`` in pieces to write in
    turn: head, the one join of the clusters and tail."""
    return "\n".join(_head(name)) + "\n", "".join(clusters), "}\n"


def shuffle_clusters(table: _Table) -> list[str]:
    """The cluster texts of ``gallery_dot(shuffles(factors), name)``, for
    :func:`gallery_pieces`, written from the factors' state table with no
    tree built.

    A cluster lists its vertex nodes, then its leaf nodes, each run sorted
    by name, the root anchor, and then its edges sorted by name, each drawn
    from its parent's node.  Each of these lines is fixed by a state or by a
    (parent, child) pair, up to the cluster's tag, so each is written once
    per listing, with each name escaped once, under an integer key that
    places it in any cluster.  The fold of
    :func:`~dendrotensor.shuffle._shuffle_parts` gives each shuffle the keys
    of its pairs' lines; the root's are the same in every shuffle.  A
    cluster is its lines in key order, joined, with the tag put in."""
    moves_of = dict(table)
    names = sorted(moves_of)
    n = len(names)
    rank = {s: r for r, s in enumerate(names)}
    # each line by its key, which places it in a cluster: a vertex node's
    # key is its state's rank r, a leaf node's n + r, the anchor's 2n and an
    # edge's (r + 2)(n + 1) plus its parent's rank (the anchor's -1)
    line: dict[int, str] = {}
    node: dict[str, int] = {}  # each state's node key
    lower = {-1: f'\n  "root:{_TAG}'}  # an edge line's start, by its parent's rank
    upper: dict[str, str] = {}  # an edge line's rest, by its child
    for r, s in enumerate(names):
        moves, q = moves_of[s], _esc(s)
        kind, shape = ("v", _POINT if moves[0] else _STUMP) if moves else ("leaf", _LEAF)
        k = node[s] = r if moves else n + r
        line[k] = f'\n  "{kind}:{_TAG}:{q}" {shape}'
        lower[r] = f'\n  "v:{_TAG}:{q}'
        upper[s] = f'" -> "{kind}:{_TAG}:{q}" [label="{q}", arrowhead=none];'
    line[2 * n] = lower[-1] + '" [shape=none, label="", width=0.01];'

    def edge(p: int, c: str) -> int:
        k = (rank[c] + 2) * (n + 1) + p
        line[k] = lower[p] + upper[c]
        return k

    def part(state: str, move: tuple[str, ...]) -> tuple[int, ...]:
        p = rank[state]
        return tuple(k for c in move for k in (node[c], edge(p, c)))

    root, listing = _shuffle_parts(table, part)
    top = (node[root], 2 * n, edge(-1, root))
    text = line.__getitem__
    clusters = []
    for i, keys in enumerate(listing):
        t = str(i)
        body = "".join(map(text, sorted(keys + top))).replace(_TAG, t)
        clusters.append(f'  subgraph cluster_{t} {{\n    label="{t}";{body}\n  }}\n')
    return clusters


def json_text(obj: object) -> str:
    """``obj`` as indented JSON with sorted keys and a newline: the text of
    every report and small object, and the bytes the listings are written
    in from pieces."""
    return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def json_escape(s: str) -> str:
    """``s`` as a JSON string body: :func:`json_text`'s escaping without the
    quotes.  It maps each character on its own, so the escape of a
    concatenation is the concatenation of the escapes."""
    return encode_basestring(s)[1:-1]


def listing_json(key: str, items: Sequence[str], quote: str = "") -> tuple[str, ...]:
    """``json_text({"count": n, key: values})`` in pieces to write in turn:
    head, the one join of the items and tail, with no copy of the whole text
    made.  Each item is one value's JSON text at the listing's indent
    (:func:`map_texts`, :func:`term_texts`) or, with ``quote='"'``, one
    string's escaped body (:func:`json_escape`).  ``key`` sorts after
    ``count``, as ``maps``, ``shuffles`` and ``terms`` do."""
    if not items:
        return (json_text({"count": 0, key: []}),)
    head = f'{{\n  "count": {len(items)},\n  {encode_basestring(key)}: [\n    {quote}'
    return head, f"{quote},\n    {quote}".join(items), f"{quote}\n  ]\n}}\n"


def _quoted() -> _Memo:
    """A memo of each name's quoted JSON string."""
    return _Memo(lambda s: f'"{json_escape(s)}"')


def _list(texts: list[str], pad: str) -> str:
    """A JSON list of the value texts ``texts`` whose own line starts with
    ``pad``, a newline and its indent."""
    if not texts:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(texts) + pad + "]"


def map_texts(maps: Sequence[ForestInto], witnesses: Iterable[str] | None = None) -> list[str]:
    """Each map's JSON text as the ``hom`` and ``tensor-hom`` listings hold
    it (:func:`listing_json`): ``{"edge_map": {edge: color}, "vertex_map":
    {vertex: {"inputs": [...], "output": color}}}``, and, given
    ``witnesses`` (one escaped text per map), ``"witness_shuffle"``.

    Written from the pair tuples, which are sorted by edge as the keys are,
    with each entry's key, each colour and each operation's whole block made
    once per call.  Operations are memoized by identity, which ``maps``
    keeps alive."""
    key = _Memo(lambda e: f'\n        "{json_escape(e)}": ')
    color = _quoted()
    blocks: dict[int, str] = {}

    def block(op: Operation) -> str:
        inputs = _list([color[d] for d in op.inputs], "\n          ")
        return f'{{\n          "inputs": {inputs},\n          "output": {color[op.output]}\n        }}'

    end = "\n    }"
    witness = _Memo(lambda w: f',\n      "witness_shuffle": "{w}"{end}')
    closes = repeat(end) if witnesses is None else map(witness.__getitem__, witnesses)
    out = []
    for m, close in zip(maps, closes):
        colors = [key[e] + color[c] for e, c in m.colors]
        parts = []
        for v, op in m.components:
            text = blocks.get(id(op))
            if text is None:
                text = blocks[id(op)] = block(op)
            parts.append(key[v] + text)
        edge_map = "{" + ",".join(colors) + "\n      }" if colors else "{}"
        vertex_map = "{" + ",".join(parts) + "\n      }" if parts else "{}"
        out.append(f'{{\n      "edge_map": {edge_map},\n      "vertex_map": {vertex_map}{close}')
    return out


def term_texts(terms: Sequence[FreeTerm]) -> list[str]:
    """Each term's JSON text as the ``free-algebra`` listing holds it
    (:func:`listing_json`): ``{"args": [...], "indices": [...],
    "operation": str(label)}``, from each argument and index quoted once per
    call and each label's line written once, by identity, which ``terms``
    keeps alive."""
    q = _quoted()
    labels: dict[int, str] = {}
    pad = "\n      "
    out = []
    for t in terms:
        op = labels.get(id(t.label))
        if op is None:
            op = labels[id(t.label)] = f',{pad}"operation": "{json_escape(str(t.label))}"\n    }}'
        args = _list([q[a] for a in t.args], pad)
        indices = _list([q[i] for i in t.indices], pad)
        out.append(f'{{{pad}"args": {args},{pad}"indices": {indices}{op}')
    return out
