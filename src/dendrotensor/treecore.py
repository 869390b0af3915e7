"""Finite rooted trees and forests with named edges.

A tree is presented by its edge names: every vertex sits directly above a
unique output edge and carries a finite (possibly empty) set of input edges.
Edges with no vertex above them are leaves; a vertex with no inputs is a
stump, and its output edge is a stump edge.  The same edge name may not occur
twice in one forest.

The concrete grammar is

    tree   := edge
    edge   := NAME node?
    node   := '[' (edge (',' edge)*)? ']'
    forest := '{' (tree (';' tree)*)? '}'

over tokens: each of the reserved characters ``[],;{}`` is a token, a NAME
is a maximal run of characters that are neither reserved nor whitespace (the
characters an edge name may hold), and whitespace between tokens is skipped.
So ``e`` is the edge-only tree, ``r[]`` the null corolla (one stump),
``r[a,b]`` the binary corolla and ``{}`` the empty forest.  Serialization is
canonical: children are emitted in sorted name order.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Generic, Iterable, NoReturn, Sequence, TypeVar

__all__ = [
    "TreeError",
    "Vertex",
    "Tree",
    "Forest",
    "corolla",
    "parse_tree",
    "parse_forest",
    "serialize_tree",
    "serialize_forest",
    "as_forest",
    "max_edges",
    "interior",
    "add_stumps",
    "cut_at",
    "contract_inner",
]

RESERVED_CHARS = frozenset("[],;{}")


class TreeError(ValueError):
    """Raised for malformed trees, forests, or invalid edge operations."""


_T = TypeVar("_T")


class _cached(Generic[_T]):
    """A cached property without ``functools.cached_property``'s lock (taken
    on every first access on CPython 3.11): a non-data descriptor whose
    first access stores the value in the instance ``__dict__``, where every
    later lookup finds it before the descriptor."""

    def __init__(self, func: Callable[[Any], _T]) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj: Any, owner: type | None = None) -> _T:
        if obj is None:
            return self  # type: ignore[return-value]
        value = obj.__dict__[self.name] = self.func(obj)
        return value


# the characters an edge name may not hold: a reserved character or
# whitespace (``\s`` matches exactly the characters for which
# ``str.isspace`` holds)
_NOT_NAME_CHARS = r"\s" + re.escape("".join(sorted(RESERVED_CHARS)))
_ILLEGAL = re.compile(f"[{_NOT_NAME_CHARS}]")
# a token of the tree grammar: an edge name (a maximal run of name
# characters) or else one non-space character, which is then a reserved
# one; ``finditer`` skips the whitespace between tokens
_TOKEN = re.compile(rf"[^{_NOT_NAME_CHARS}]+|\S")
# the tokens that cannot start an edge, "" marking the end of the text
_NOT_A_NAME = RESERVED_CHARS | {""}


def check_name(name: str) -> str:
    if not name:
        raise TreeError("edge name must be nonempty")
    bad = _ILLEGAL.search(name)
    if bad:
        raise TreeError(f"illegal character {bad.group()!r} in edge name {name!r}")
    return name


def _checked_make(cls, iterable: Iterable) -> tuple:
    """A record's ``_make`` through its checked constructor.  A namedtuple's
    ``_replace`` builds through ``_make``, so it checks too; only the
    trusted constructors below build unchecked."""
    return cls(*iterable)


class Vertex(namedtuple("Vertex", "out_edge in_edges")):
    """A vertex, identified by its output edge; ``in_edges`` is kept sorted.

    The tuple ``(out_edge, in_edges)``, hashed and compared in C; the
    constructor checks the names and sorts the inputs."""

    __slots__ = ()
    out_edge: str
    in_edges: tuple[str, ...]
    _make = classmethod(_checked_make)

    def __new__(cls, out_edge: str, in_edges: Iterable[str]) -> "Vertex":
        check_name(out_edge)
        ins = tuple(sorted(in_edges))
        for e in ins:
            check_name(e)
        if len(set(ins)) != len(ins):
            raise TreeError(f"duplicate input edges at vertex {out_edge!r}")
        return tuple.__new__(cls, (out_edge, ins))

    @property
    def is_stump(self) -> bool:
        return not self.in_edges


_out_edge = attrgetter("out_edge")


def _reject(root: str, verts: tuple[Vertex, ...]) -> NoReturn:
    """Raise the first error the tree checks find, taken in this order: two
    vertices with one output, the root used as an input, an edge that is an
    input twice, a vertex output that is neither the root nor an input, and
    a cycle (edges that never reach the root).  ``verts`` is sorted by
    output; called only on vertex sets that are not a tree."""
    outputs: set[str] = set()
    for v in verts:
        if v.out_edge in outputs:
            raise TreeError(f"two vertices share output edge {v.out_edge!r}")
        outputs.add(v.out_edge)
    parent: dict[str, str] = {}
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
    # walk each edge, in name order so that the edge a cycle names does not
    # hang on set order, down along parent links; edges already known to
    # reach the root end the walk, so each link is followed once
    rooted = {root}
    for e in sorted(edges):
        path: set[str] = set()
        cur = e
        while cur not in rooted:
            if cur in path:
                raise TreeError(f"cycle through edge {cur!r}")
            path.add(cur)
            cur = parent[cur]
        rooted |= path
    raise AssertionError(f"tree walk refused a tree rooted at {root!r}")


class Tree(namedtuple("Tree", "root vertices")):
    """A finite rooted tree, canonically ordered and validated on construction.

    The tuple ``(root, vertices)``, hashed and compared in C.  ``vertices``
    holds one :class:`Vertex` per vertex, sorted by its output edge; the
    constructor checks that the result is a single tree hanging below
    ``root`` with globally distinct edge names.  Trees derived here from
    valid ones skip the check (``_tree``).
    """

    root: str
    vertices: tuple[Vertex, ...]
    _make = classmethod(_checked_make)

    def __new__(cls, root: str, vertices: Iterable[Vertex]) -> "Tree":
        check_name(root)
        return tuple.__new__(cls, (root, tuple(sorted(vertices, key=_out_edge))))

    def __init__(self, root: str, vertices: Iterable[Vertex]) -> None:
        root, verts = self
        above = {v.out_edge: v for v in verts}
        # One walk up from the root, opening each vertex at most once.  A
        # tree opens every vertex and reaches each edge once.  A reused input,
        # the root as an input, a cycle or a vertex off the tree leaves a
        # vertex unopened or reaches some edge twice; two vertices with one
        # output leave ``above`` short.
        unopened = above.copy()
        reached = [root]
        for e in reached:  # reached grows as the walk goes
            v = unopened.pop(e, None)
            if v is not None:
                reached += v.in_edges
        if len(above) != len(verts) or unopened or len(set(reached)) != len(reached):
            _reject(root, verts)
        # vertex_above is a cached property; filling its slot here hands it the
        # dict just built instead of rebuilding it on first use (a trusted
        # build leaves it to that first use)
        self.__dict__["vertex_above"] = above

    # -- derived structure -------------------------------------------------

    @_cached
    def vertex_above(self) -> dict[str, Vertex]:
        """Map each non-leaf edge to the vertex whose output it is."""
        return {v.out_edge: v for v in self.vertices}

    @_cached
    def parent(self) -> dict[str, str]:
        """Map each non-root edge to the output edge of the vertex below it."""
        return {d: v.out_edge for v in self.vertices for d in v.in_edges}

    @_cached
    def edges(self) -> tuple[str, ...]:
        return tuple(sorted({self.root} | set(self.parent)))

    @_cached
    def edge_set(self) -> frozenset[str]:
        return frozenset(self.edges)

    @_cached
    def leaves(self) -> tuple[str, ...]:
        return tuple(e for e in self.edges if e not in self.vertex_above)

    @_cached
    def stump_edges(self) -> tuple[str, ...]:
        return tuple(v.out_edge for v in self.vertices if v.is_stump)

    @_cached
    def depth(self) -> dict[str, int]:
        """Edge distance from the root (the root has depth 0)."""
        out = {self.root: 0}
        pending = [self.root]
        while pending:
            e = pending.pop()
            v = self.vertex_above.get(e)
            if v is None:
                continue
            for d in v.in_edges:
                out[d] = out[e] + 1
                pending.append(d)
        return out

    def subtree_edges(self, e: str) -> frozenset[str]:
        """All edges weakly above ``e``."""
        if e not in self.edge_set:
            raise TreeError(f"no edge {e!r} in tree")
        got = {e}
        pending = [e]
        while pending:
            v = self.vertex_above.get(pending.pop())
            if v is None:
                continue
            for d in v.in_edges:
                got.add(d)
                pending.append(d)
        return frozenset(got)

    def is_inner(self, e: str) -> bool:
        """True when ``e`` is a non-root output edge of some vertex.

        Stump edges count: cutting below a stump is allowed and leaves the
        null corolla above the cut.
        """
        return e != self.root and e in self.vertex_above

    @_cached
    def inner_edges(self) -> tuple[str, ...]:
        return tuple(e for e in self.edges if self.is_inner(e))


class Forest(namedtuple("Forest", "components")):
    """A finite (possibly empty) sequence of trees with disjoint edge names.

    The tuple ``(components,)``, hashed and compared in C.  Component order
    is preserved as given; use :meth:`canonical_key` to compare forests up
    to component reordering.
    """

    components: tuple[Tree, ...]
    _make = classmethod(_checked_make)

    def __init__(self, components: tuple[Tree, ...]) -> None:
        seen: set[str] = set()
        for t in components:
            overlap = seen & t.edge_set
            if overlap:
                raise TreeError(f"edge names reused across components: {sorted(overlap)}")
            seen |= t.edge_set

    @_cached
    def edges(self) -> tuple[str, ...]:
        return tuple(sorted(e for t in self.components for e in t.edges))

    @_cached
    def edge_set(self) -> frozenset[str]:
        return frozenset(self.edges)

    @_cached
    def component_of(self) -> dict[str, Tree]:
        return {e: t for t in self.components for e in t.edges}

    def canonical_key(self) -> tuple[str, ...]:
        return tuple(sorted(serialize_tree(t) for t in self.components))


# the trusted constructors: each builds its tuple in C from fields that are
# valid by construction, inputs and vertices already sorted as the checked
# constructors sort them
_vertex = partial(tuple.__new__, Vertex)
_tree = partial(tuple.__new__, Tree)
_forest = partial(tuple.__new__, Forest)


# -- constructors ----------------------------------------------------------


def corolla(root: str, leaves: Sequence[str] = ()) -> Tree:
    """One vertex over ``root`` with the given inputs; no inputs is a stump."""
    return Tree(root, (Vertex(root, tuple(leaves)),))


def as_forest(x: Tree | Forest) -> Forest:
    """``x`` itself, or the forest of the one tree ``x`` (trusted: a tree is a
    forest of one)."""
    return x if isinstance(x, Forest) else _forest(((x,),))


# -- parsing / serialization ------------------------------------------------


def _at(text: str, i: int) -> str:
    """Where token ``i`` of ``text`` starts (the text's end when there are no
    more tokens), as parse errors say it."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return f"at position {starts[i] if i < len(starts) else len(text)} in {text!r}"


def _parse(text: str, forest: bool) -> Tree | Forest:
    """Read ``text`` as one tree, or as a forest when ``forest`` is set (a
    bare tree is then a one-tree forest).  Each vertex is built as its ``]``
    is read and each tree as it ends, so a vertex's or tree's error comes
    before any syntax error later in the text."""
    toks = _TOKEN.findall(text)
    toks.append("")  # the end of the text
    braced = forest and toks[0] == "{"
    i = int(braced)
    trees: list[Tree] = []
    more = not (braced and toks[i] == "}")
    while more:
        acc: list[Vertex] = []
        # the vertices whose "[" has been read and whose "]" has not, each
        # with the inputs parsed so far
        open_: list[tuple[str, list[str]]] = []
        while True:
            nm = toks[i]
            if nm in _NOT_A_NAME:
                raise TreeError(f"expected edge name {_at(text, i)}")
            i += 1
            if toks[i] == "[":
                i += 1
                if toks[i] != "]":
                    open_.append((nm, []))
                    continue
                i += 1
                acc.append(Vertex(nm, ()))
            # nm is complete: hand it to the open vertex below it, and close
            # that vertex too when no "," follows
            while open_:
                out, ins = open_[-1]
                ins.append(nm)
                if toks[i] == ",":
                    i += 1
                    break
                if toks[i] != "]":
                    raise TreeError(f"expected ']' {_at(text, i)}")
                i += 1
                open_.pop()
                acc.append(Vertex(out, tuple(ins)))
                nm = out
            else:
                break
        trees.append(Tree(nm, tuple(acc)))
        more = braced and toks[i] == ";"
        i += more
    if braced:
        if toks[i] != "}":
            raise TreeError(f"expected '}}' {_at(text, i)}")
        i += 1
    result = Forest(tuple(trees)) if forest else trees[0]
    if toks[i]:
        raise TreeError(f"trailing input {_at(text, i)}")
    return result


def parse_tree(text: str) -> Tree:
    return _parse(text, False)  # type: ignore[return-value]


def parse_forest(text: str) -> Forest:
    """Parse ``{t1;t2;...}``; a bare tree is accepted as a one-tree forest."""
    return _parse(text, True)  # type: ignore[return-value]


def serialize_tree(t: Tree) -> str:
    above = t.vertex_above
    out: list[str] = []
    # tokens still to emit, next one last: edge names, and the "," and "]"
    # that follow children (reserved characters, so never an edge name)
    stack = [t.root]
    while stack:
        e = stack.pop()
        out.append(e)
        v = above.get(e)
        if v is not None:
            out.append("[")
            stack.append("]")
            for d in reversed(v.in_edges):
                stack.append(d)
                stack.append(",")
            if v.in_edges:
                stack.pop()  # no "," before the first child
    return "".join(out)


def serialize_forest(f: Forest) -> str:
    return "{" + ";".join(serialize_tree(t) for t in f.components) + "}"


# -- edge operations ---------------------------------------------------------


def max_edges(t: Tree) -> tuple[str, ...]:
    """Edges with nothing strictly above them: leaves and stump edges."""
    return tuple(sorted(set(t.leaves) | set(t.stump_edges)))


def interior(t: Tree) -> Tree:
    """Delete every stump, turning each stump edge into a leaf (trusted: the
    rest of a tree's sorted vertices)."""
    return _tree((t.root, tuple([v for v in t.vertices if not v.is_stump])))


def add_stumps(t: Tree, leaves: Iterable[str]) -> Tree:
    """Close the named leaves with stumps."""
    names = sorted(set(leaves))
    leaf_set = set(t.leaves)
    for nm in names:
        if nm not in leaf_set:
            raise TreeError(f"{nm!r} is not a leaf of {serialize_tree(t)}")
    return Tree(t.root, t.vertices + tuple(Vertex(nm, ()) for nm in names))


def cut_at(t: Tree, e: str) -> tuple[Tree, Tree]:
    """Split at an inner edge ``e`` into (lower part with ``e`` a leaf, upper
    part rooted at ``e``).  Grafting the parts back recovers ``t``.  Both
    parts are trusted builds: each is a tree of ``t``'s sorted vertices."""
    if not t.is_inner(e):
        raise TreeError(f"{e!r} is not an inner edge of {serialize_tree(t)}")
    upper_edges = t.subtree_edges(e)
    upper = _tree((e, tuple([v for v in t.vertices if v.out_edge in upper_edges])))
    lower = _tree((t.root, tuple([v for v in t.vertices if v.out_edge not in upper_edges])))
    return lower, upper


def contract_inner(t: Tree, edges: Iterable[str]) -> Tree:
    """Contract a set of inner edges, merging the vertices they connect.

    Each surviving vertex keeps the first non-contracted edge reached walking
    down from its output through the contracted set; its inputs are the
    non-contracted inputs pooled over all merged vertices.  Contracting a
    stump edge deletes the branch it closes.  The result is a trusted build:
    every surviving edge stays the input of one vertex.
    """
    gone = set(edges)
    for e in gone:
        if not t.is_inner(e):
            raise TreeError(f"{e!r} is not an inner edge of {serialize_tree(t)}")

    def host(e: str) -> str:
        while e in gone:
            e = t.parent[e]
        return e

    pooled: dict[str, list[str]] = {}
    for v in t.vertices:
        h = host(v.out_edge)
        pooled.setdefault(h, [])
        pooled[h].extend(d for d in v.in_edges if d not in gone)
    return _tree((t.root, tuple([_vertex((h, tuple(sorted(pooled[h])))) for h in sorted(pooled)])))
