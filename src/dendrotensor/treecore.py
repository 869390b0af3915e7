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

so ``e`` is the edge-only tree, ``r[]`` the null corolla (one stump),
``r[a,b]`` the binary corolla and ``{}`` the empty forest.  Serialization is
canonical: children are emitted in sorted name order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Generic, Iterable, Iterator, NoReturn, Sequence, TypeVar

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
    "graft",
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


# a reserved character or whitespace (``\s`` matches exactly the
# characters for which ``str.isspace`` holds)
_ILLEGAL = re.compile(r"[\s" + re.escape("".join(sorted(RESERVED_CHARS))) + "]")


def check_name(name: str) -> str:
    if not name:
        raise TreeError("edge name must be nonempty")
    bad = _ILLEGAL.search(name)
    if bad:
        raise TreeError(f"illegal character {bad.group()!r} in edge name {name!r}")
    return name


@dataclass(frozen=True)
class Vertex:
    """A vertex, identified by its output edge; ``in_edges`` is kept sorted."""

    out_edge: str
    in_edges: tuple[str, ...]

    def __post_init__(self) -> None:
        check_name(self.out_edge)
        ins = tuple(sorted(self.in_edges))
        for e in ins:
            check_name(e)
        if len(set(ins)) != len(ins):
            raise TreeError(f"duplicate input edges at vertex {self.out_edge!r}")
        object.__setattr__(self, "in_edges", ins)

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
    # walk each edge down along parent links; edges already known to reach
    # the root end the walk, so each link is followed once
    rooted = {root}
    for e in edges:
        path: set[str] = set()
        cur = e
        while cur not in rooted:
            if cur in path:
                raise TreeError(f"cycle through edge {cur!r}")
            path.add(cur)
            cur = parent[cur]
        rooted |= path
    raise AssertionError(f"tree walk refused a tree rooted at {root!r}")


@dataclass(frozen=True)
class Tree:
    """A finite rooted tree, canonically ordered and validated on construction.

    ``vertices`` holds one :class:`Vertex` per vertex, keyed by its output
    edge; the constructor checks that the result is a single tree hanging
    below ``root`` with globally distinct edge names.
    """

    root: str
    vertices: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        root = check_name(self.root)
        verts = tuple(sorted(self.vertices, key=_out_edge))
        object.__setattr__(self, "vertices", verts)
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
        # dict just built instead of rebuilding it on first use
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

    def __str__(self) -> str:
        return serialize_tree(self)


@dataclass(frozen=True)
class Forest:
    """A finite (possibly empty) sequence of trees with disjoint edge names.

    Component order is preserved as given; use :meth:`canonical_key` to
    compare forests up to component reordering.
    """

    components: tuple[Tree, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for t in self.components:
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

    def __str__(self) -> str:
        return serialize_forest(self)

    def __iter__(self) -> Iterator[Tree]:
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)


# -- constructors ----------------------------------------------------------


def corolla(root: str, leaves: Sequence[str] = ()) -> Tree:
    """One vertex over ``root`` with the given inputs; no inputs is a stump."""
    return Tree(root, (Vertex(root, tuple(leaves)),))


def as_forest(x: Tree | Forest) -> Forest:
    return x if isinstance(x, Forest) else Forest((x,))


# -- parsing / serialization ------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise TreeError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in RESERVED_CHARS or ch.isspace():
                break
            self.pos += 1
        if self.pos == start:
            raise TreeError(f"expected edge name at position {start} in {self.text!r}")
        return self.text[start:self.pos]

    def edge(self, acc: list[Vertex]) -> str:
        """Parse one edge and everything above it, appending each vertex to
        ``acc`` as its ``]`` is read; returns the edge's name."""
        # the vertices whose "[" has been read and whose "]" has not, each
        # with the inputs parsed so far
        open_: list[tuple[str, list[str]]] = []
        while True:
            nm = self.name()
            if self.peek() == "[":
                self.pos += 1
                if self.peek() != "]":
                    open_.append((nm, []))
                    continue
                self.pos += 1
                acc.append(Vertex(nm, ()))
            # nm is complete: hand it to the open vertex below it, and close
            # that vertex too when no "," follows
            while open_:
                out, ins = open_[-1]
                ins.append(nm)
                if self.peek() == ",":
                    self.pos += 1
                    break
                self.expect("]")
                open_.pop()
                acc.append(Vertex(out, tuple(ins)))
                nm = out
            else:
                return nm

    def tree(self) -> Tree:
        acc: list[Vertex] = []
        root = self.edge(acc)
        return Tree(root, tuple(acc))

    def forest(self) -> Forest:
        self.expect("{")
        comps: list[Tree] = []
        if self.peek() != "}":
            comps.append(self.tree())
            while self.peek() == ";":
                self.pos += 1
                comps.append(self.tree())
        self.expect("}")
        return Forest(tuple(comps))

    def end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise TreeError(f"trailing input at position {self.pos} in {self.text!r}")


def parse_tree(text: str) -> Tree:
    p = _Parser(text)
    t = p.tree()
    p.end()
    return t


def parse_forest(text: str) -> Forest:
    """Parse ``{t1;t2;...}``; a bare tree is accepted as a one-tree forest."""
    p = _Parser(text)
    if p.peek() == "{":
        f = p.forest()
    else:
        f = Forest((p.tree(),))
    p.end()
    return f


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
    """Delete every stump, turning each stump edge into a leaf."""
    return Tree(t.root, tuple(v for v in t.vertices if not v.is_stump))


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
    part rooted at ``e``).  Grafting the parts back recovers ``t``."""
    if not t.is_inner(e):
        raise TreeError(f"{e!r} is not an inner edge of {serialize_tree(t)}")
    upper_edges = t.subtree_edges(e)
    upper = Tree(e, tuple(v for v in t.vertices if v.out_edge in upper_edges))
    lower = Tree(t.root, tuple(v for v in t.vertices if v.out_edge not in upper_edges))
    return lower, upper


def graft(lower: Tree, at: str, upper: Tree) -> Tree:
    """Attach ``upper`` (rooted at the leaf ``at`` of ``lower``) onto it."""
    if at not in lower.leaves:
        raise TreeError(f"{at!r} is not a leaf of {serialize_tree(lower)}")
    if upper.root != at:
        raise TreeError(f"graft root mismatch: {upper.root!r} != {at!r}")
    overlap = (lower.edge_set & upper.edge_set) - {at}
    if overlap:
        raise TreeError(f"edge names reused in graft: {sorted(overlap)}")
    return Tree(lower.root, lower.vertices + upper.vertices)


def contract_inner(t: Tree, edges: Iterable[str]) -> Tree:
    """Contract a set of inner edges, merging the vertices they connect.

    Each surviving vertex keeps the first non-contracted edge reached walking
    down from its output through the contracted set; its inputs are the
    non-contracted inputs pooled over all merged vertices.  Contracting a
    stump edge deletes the branch it closes.
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
    return Tree(t.root, tuple(Vertex(h, tuple(ins)) for h, ins in pooled.items()))
