"""Output text: Graphviz DOT for trees and forests, and indented JSON.

DOT conventions: the root hangs at the bottom, interior vertices are dots,
stumps are filled squares, leaves end in open circles, and every edge is
labeled by its name.  Forests whose edge names all carry level prefixes
(``ℓi:a``) additionally get one rank per level joined by a dashed level
axis, so the drawing reads like a level diagram.

:func:`json_text` writes the indented JSON of every command and report;
:func:`shuffles_json` writes the one listing it does not, in the same
bytes, from texts escaped beforehand (:func:`json_escape`).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Sequence

from .levelforest import split_edge_name
from .treecore import Forest, Tree, as_forest

__all__ = ["to_dot", "gallery_dot", "json_text", "json_escape", "shuffles_json"]


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _q(s: str) -> str:
    return '"' + _esc(s) + '"'


def _emit_tree(t: Tree, tag: str, lines: list[str], ranks: dict[int, list[str]] | None) -> None:
    """Append the nodes and edges of ``t`` to ``lines``, quoting each edge
    name once; given ``ranks``, also file each edge's upper node under the
    level of a level-prefixed edge name."""
    esc = {e: _esc(e) for e in t.edges}
    above = t.vertex_above
    for v in t.vertices:
        nid = f'"v:{tag}:{esc[v.out_edge]}"'
        if v.is_stump:
            lines.append(
                f"  {nid} [shape=square, style=filled, fillcolor=black, "
                'label="", width=0.12, fixedsize=true];'
            )
        else:
            lines.append(f"  {nid} [shape=point, width=0.08];")
    for e in t.leaves:
        lines.append(
            f'  "leaf:{tag}:{esc[e]}" [shape=circle, label="", width=0.12, fixedsize=true];'
        )
    anchor = f'"root:{tag}"'
    lines.append(f'  {anchor} [shape=none, label="", width=0.01];')
    parent = t.parent
    for e, x in esc.items():
        kind = "v" if e in above else "leaf"
        parent_v = parent.get(e)
        lower = f'"v:{tag}:{esc[parent_v]}"' if parent_v is not None else anchor
        lines.append(f'  {lower} -> "{kind}:{tag}:{x}" [label="{x}", arrowhead=none];')
        if ranks is not None:
            level = split_edge_name(e)
            if level is not None:
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
    lines = _head(name)
    for i, t in enumerate(trees):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="{i}";')
        _emit_tree(t, str(i), lines, None)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_text(obj: object) -> str:
    """``json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True)`` and
    a newline, byte for byte, written at the speed of the C string encoder
    (``json`` itself drops to its pure-Python encoder once ``indent`` is
    set).  Strings, dicts with ``str`` keys, lists and tuples are written
    here and every other scalar by ``json.dumps``; a value with any other
    dict key, or one this writer cannot finish (a cycle, say), goes whole
    through ``json.dumps``, which converts or refuses it as ``json`` does.

    ``shuffles --format json`` bypasses it for :func:`shuffles_json`, as its
    texts are escaped once per state name while they are folded; the bytes
    are the same, which the tests check against this function."""
    out: list[str] = []
    try:
        _write_json(obj, "\n", out)
    except (TypeError, RecursionError):
        return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)


def json_escape(s: str) -> str:
    """``s`` as a JSON string body: :func:`json_text`'s escaping without the
    quotes.  It maps each character on its own, so the escape of a
    concatenation is the concatenation of the escapes."""
    return encode_basestring(s)[1:-1]


def shuffles_json(escaped: Sequence[str]) -> tuple[str, ...]:
    """``json_text({"count": n, "shuffles": texts})`` in pieces to write in
    turn, from the escaped texts (:func:`json_escape`): head, the one join
    of the texts and tail, with no copy of the whole text made."""
    if not escaped:
        return (json_text({"count": 0, "shuffles": []}),)
    head = f'{{\n  "count": {len(escaped)},\n  "shuffles": [\n    "'
    return head, '",\n    "'.join(escaped), '"\n  ]\n}\n'


def _write_json(x: object, pad: str, out: list[str]) -> None:
    """Append the chunks of ``x`` to ``out``; ``pad`` is a newline and the
    indent of the line ``x`` starts on.  Every item of a container shares
    one separator string: a fresh one per item stayed alive in ``out``
    until the join."""
    if isinstance(x, str):
        out.append(encode_basestring(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for k in sorted(x):
            # encode_basestring raises TypeError on a key that is not a str
            out.append(sep + encode_basestring(k) + ": ")
            _write_json(x[k], inner, out)
            sep = comma
        out.append(pad + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = pad + "  "
        sep, comma = "[" + inner, "," + inner
        for item in x:
            out.append(sep)
            _write_json(item, inner, out)
            sep = comma
        out.append(pad + "]")
    else:
        out.append(json.dumps(x))
