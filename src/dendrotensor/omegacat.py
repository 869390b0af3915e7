"""Maps between the free colored operads generated by forests.

The free operad on a forest has one color per edge.  An operation with output
``e`` is a *cut*: a finite set of edges obtained from ``{e}`` by repeatedly
replacing an edge by the inputs of the vertex above it (a stump contributes
nothing, so nullary operations appear exactly when stumps can close every
branch).  Because each edge has at most one vertex above it, an operation is
determined by its output edge together with its set of input edges.
One fold, :func:`_fold`, lists the cuts of tree edges and of shuffle
states alike, over ``(node, moves)`` rows, each node after the nodes its
moves reach, as :func:`_rows_above` walks them up from one node: from an
edge, whose move goes to the inputs of the vertex above it
(:func:`_edge_moves`), or from a shuffle state.  Bounded by a number of
inputs, it lists only the cuts up to that arity, which is all a vertex of
that arity can map to.

A map out of a free forest operad is one tuple, :class:`ForestInto`: the
color of each edge (``colors``) and the operation of the target at each
vertex (``components``), hashed and compared in C.  It is a source-shaped
dendrex of the target's nerve, so :func:`hom` lists maps with
:func:`~dendrotensor.lurie.maps_into` and attaches both forests
(:class:`OperadMap`).  One walk up from a cut's output, with an explicit
stack, decides whether a set of edges is a cut and lists the vertices inside
it.  The image of a cut under a map (:func:`_image`) is that walk plus
:func:`validate`'s check at each vertex inside, once per call of
:func:`compose` or :func:`~dendrotensor.lurie.precompose`, which send each
vertex to the image of its image cut.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from typing import Any, Callable, Collection, Container, Iterable, Mapping, Sequence

from .treecore import Forest, Tree, TreeError, Vertex, _cached, as_forest, serialize_forest

__all__ = [
    "Operation",
    "OperadMap",
    "operations",
    "is_cut",
    "hom",
    "identity_map",
    "compose",
    "validate",
    "classify_elementary",
]


class Operation(namedtuple("Operation", "output inputs")):
    """An operation of a free forest operad: output edge plus input edge set,
    the inputs sorted and distinct.

    The tuple ``(output, inputs)``, ordered lexicographically by output and
    then inputs so operation-keyed results can be listed deterministically;
    hashing, equality and order run in C.  As a tuple it compares equal to
    the plain pair ``(output, inputs)``; no caller mixes the two.  Its
    fields cannot be assigned (:class:`AttributeError`)."""

    __slots__ = ()
    output: str
    inputs: tuple[str, ...]

    def __new__(cls, output: str, inputs: Iterable[str]) -> "Operation":
        ins = tuple(sorted(inputs))
        if len(set(ins)) != len(ins):
            raise TreeError(f"duplicate inputs in operation at {output!r}")
        return tuple.__new__(cls, (output, ins))

    @property
    def input_set(self) -> frozenset[str]:
        return frozenset(self.inputs)

    @property
    def is_identity(self) -> bool:
        return self.inputs == (self.output,)

    def __str__(self) -> str:
        return f"{self.output}<-({','.join(self.inputs)})"


def _fold(table: Iterable, tables: dict, limit: float = math.inf, keep: bool = True) -> None:
    """Fold into ``tables`` the cuts of the nodes of ``table``, ``(node,
    moves)`` pairs each after the nodes its moves reach: as sorted input
    tuples of at most ``limit`` inputs, listed by inputs, the node itself
    plus, move by move, every union of one cut per node the move reaches (a
    stump's empty move gives the empty cut).  The cuts a move unions are
    disjoint, so a partial union only grows and one past ``limit`` is
    dropped at once; the default ``inf`` keeps every cut.  Only a node with
    two moves can meet a cut twice, so only such nodes deduplicate.  With
    ``keep`` false each list read is popped or extended in place, for
    graphs in which every node has one reader."""
    take = tables.__getitem__ if keep else tables.pop
    for d, moves in table:
        if len(moves) == 1 and len(moves[0]) == 1:
            cuts = take(moves[0][0])
            if keep:
                cuts = cuts.copy()
            cuts.append((d,))
            cuts.sort()  # near-linear: one element appended to a sorted list
        elif moves:
            cuts = [(d,)]
            for move in moves:
                if len(move) == 1 and limit >= 1:  # each of the child's cuts is within the limit
                    cuts += take(move[0])
                    continue
                unions: list[tuple[str, ...]] = [()]
                for c in move:
                    below = take(c)
                    unions = [u + cut for u in unions for cut in below if len(u) + len(cut) <= limit]
                cuts += unions if len(move) == 1 else [tuple(sorted(u)) for u in unions]
            cuts = sorted(set(cuts) if len(moves) > 1 else cuts)
        else:
            cuts = [(d,)]
        tables[d] = cuts


def _rows_above(moves: Callable[[Any], Sequence[tuple]], start: Any, done: Container = ()) -> list:
    """The ``(node, moves(node))`` rows of the nodes weakly above ``start``,
    those its moves reach and so on, that ``done`` lacks, each row after the
    rows of the nodes its moves reach, as :func:`_fold` reads them.  One
    walk with its own stack; a node reached twice is expanded once."""
    rows: list = []
    reached: dict = {}  # a node's moves once expanded, None once rowed
    stack = [] if start in done else [start]
    while stack:
        d = stack.pop()
        if d not in reached:
            reached[d] = reach = moves(d)
            stack.append(d)  # rowed when popped again, after every node it reaches
            stack += [c for move in reach for c in move if c not in done and c not in reached]
        elif (reach := reached[d]) is not None:
            rows.append((d, reach))
            reached[d] = None
    return rows


def _edge_moves(t: Tree) -> Callable[[str], tuple]:
    """An edge's moves in ``t``, as in its one-factor shuffle state table:
    one, to the inputs of the vertex above it, if it has one."""
    above = t.vertex_above
    return lambda d: () if (v := above.get(d)) is None else (v.in_edges,)


def _operation(output: str, inputs: tuple[str, ...]) -> Operation:
    """An :class:`Operation` from inputs already sorted and distinct, as
    :func:`_fold` lists them: the tuple built directly, without checking
    them again."""
    return tuple.__new__(Operation, (output, inputs))


def _component(forest: Forest, e: str) -> Tree:
    t = forest.component_of.get(e)
    if t is None:
        raise TreeError(f"no edge {e!r} in {serialize_forest(forest)}")
    return t


def operations(scope: Tree | Forest, e: str) -> tuple[Operation, ...]:
    """All operations of the free operad on ``scope`` with output color ``e``,
    listed by number of inputs and then by the sorted inputs.

    An operation is a cut: ``{e}`` itself, or one cut above each input of
    the vertex above ``e`` taken together; a stump above ``e`` gives the
    nullary operation.  The edges of ``e``'s component weakly above ``e``
    are folded without a memo, so each node's list is dropped once read,
    and the fold's order (by inputs) is sorted stably by size.
    """
    cuts: dict[str, list[tuple[str, ...]]] = {}
    _fold(_rows_above(_edge_moves(_component(as_forest(scope), e)), e), cuts, keep=False)
    return tuple(_operation(e, c) for c in sorted(cuts[e], key=len))


def _cut_total(forest: Forest) -> int:
    """How many operations the free operad on ``forest`` has, unlisted: an edge
    has 1 cut at a leaf, else 1 plus the product of its inputs' counts."""
    cuts: dict[str, int] = {}
    for t in forest.components:
        for e in reversed(t.depth):  # the walk from the root, inputs first
            v = t.vertex_above.get(e)
            cuts[e] = 1 if v is None else 1 + math.prod([cuts[d] for d in v.in_edges])
    return sum(cuts.values())


def _cut_interior(t: Tree, e: str, members: Collection[str]) -> list[str] | None:
    """The edges from ``e`` up to the cut ``members``, members excluded and
    each edge listed before the edges above it, or ``None`` when ``members``
    (distinct edges) is not a cut of ``t`` with output ``e``.

    One walk up from ``e`` that stops at members: ``members`` is a cut
    exactly when every branch of the walk ends at a member or a stump and
    every member is reached.
    """
    if e not in t.edge_set:
        raise TreeError(f"no edge {e!r} in tree")
    interior: list[str] = []
    reached = 0
    pending = [e]
    while pending:
        d = pending.pop()
        if d in members:
            reached += 1
            continue
        v = t.vertex_above.get(d)
        if v is None:
            return None
        interior.append(d)
        pending.extend(v.in_edges)
    return interior if reached == len(members) else None


def is_cut(t: Tree, e: str, members: Iterable[str]) -> bool:
    """Decide whether ``members`` is a valid input set for output ``e``."""
    return _cut_interior(t, e, frozenset(members)) is not None


class ForestInto(namedtuple("ForestInto", "colors components")):
    """A map from the free operad of a forest into a finite operad: a color
    per edge and an operation per vertex (keyed by its output edge), as the
    tuple ``(colors, components)`` of pairs sorted by edge, hashed and
    compared in C."""

    colors: tuple[tuple[str, str], ...]
    components: tuple[tuple[str, Any], ...]

    @_cached
    def color(self) -> dict[str, str]:
        return dict(self.colors)

    @_cached
    def component(self) -> dict[str, Any]:
        return dict(self.components)

    @staticmethod
    def build(
        colors: Iterable[tuple[str, str]], components: Iterable[tuple[str, Any]]
    ) -> "ForestInto":
        """The map with these ``(edge, color)`` and ``(edge, operation)`` pairs."""
        return _forest_into((tuple(sorted(colors)), tuple(sorted(components))))


# the trusted constructor: the map with these pair tuples, each already
# sorted by edge
_forest_into = partial(tuple.__new__, ForestInto)


class OperadMap(namedtuple("OperadMap", "colors components source target"), ForestInto):
    """A map of free forest operads: a :class:`ForestInto` whose operations
    are cuts of ``target``, with its ``source`` and ``target`` forests."""

    source: Forest
    target: Forest

    @staticmethod
    def build(
        source: Tree | Forest,
        target: Tree | Forest,
        colors: Mapping[str, str],
        components: Mapping[str, Operation],
    ) -> "OperadMap":
        return OperadMap(
            tuple(sorted(colors.items())),
            tuple(sorted(components.items())),
            as_forest(source),
            as_forest(target),
        )


def _induced(
    source: Tree | Forest, target: Tree | Forest, rename: Callable[[str], str]
) -> OperadMap:
    """The map sending each edge ``e`` to ``rename(e)`` and each vertex to
    the cut over its renamed output with its renamed inputs."""
    src = as_forest(source)
    return OperadMap.build(
        src,
        target,
        {e: rename(e) for e in src.edges},
        {
            v.out_edge: Operation(rename(v.out_edge), tuple(map(rename, v.in_edges)))
            for t in src.components
            for v in t.vertices
        },
    )


def identity_map(scope: Tree | Forest) -> OperadMap:
    f = as_forest(scope)
    return _induced(f, f, lambda e: e)


def hom(
    source: Tree | Forest, target: Tree | Forest, cap: int | None = None
) -> tuple[OperadMap, ...]:
    """Enumerate every operad map between the generated free operads.

    Each map of :func:`~dendrotensor.lurie.maps_into` into
    :class:`~dendrotensor.lurie.FreeForestOperad` gets the two forests
    attached, in the order listed there.  Each source root may
    land on any target edge; a vertex of arity ``k`` then lands on any
    arity-``k`` cut above its output's image, in any of the ``k!`` input
    matchings; the target's cuts are folded only up to the source's arities.
    The empty source forest has exactly one (empty) map anywhere.  ``cap`` raises :class:`TreeError`
    when there are more maps than that, before any is built.
    """
    from .lurie import FreeForestOperad, maps_into

    src = as_forest(source)
    tgt = as_forest(target)
    maps = maps_into(src, FreeForestOperad(tgt), cap)
    return tuple([OperadMap(m.colors, m.components, src, tgt) for m in maps])


def _is_cut_of(forest: Forest, op: Operation) -> bool:
    """Whether ``op`` is a cut of ``forest``."""
    t = forest.component_of.get(op.output)
    return t is not None and _cut_interior(t, op.output, op.input_set) is not None


def _check_vertex(has: Callable[[Any], bool], m: ForestInto, v: Vertex) -> None:
    """Raise unless ``m`` sends the vertex ``v`` to an operation ``has``
    recognises, from the distinct colors of ``v``'s inputs to its output's."""
    op = m.component[v.out_edge]
    if op.output != m.color[v.out_edge]:
        raise TreeError(f"vertex {v.out_edge!r}: output color mismatch")
    images = [m.color[d] for d in v.in_edges]
    if len(set(images)) != len(images):
        raise TreeError(f"vertex {v.out_edge!r}: inputs collapse")
    if frozenset(images) != op.input_set:
        raise TreeError(f"vertex {v.out_edge!r}: input colors mismatch")
    if not has(op):
        raise TreeError(f"vertex {v.out_edge!r}: image is not a cut")


def _image(
    has: Callable[[Any], bool], m: ForestInto, forest: Forest, op: Operation, checked: set[str]
) -> Operation:
    """The image of the cut ``op`` of ``forest`` under ``m``, a map into a
    cut operad whose operations ``has`` recognises: one walk checks ``op``,
    each vertex inside it not yet in ``checked`` gets :func:`validate`'s
    check and joins ``checked``, and then, since a union of cuts along a cut
    is a cut, no walk checks the image."""
    t = _component(forest, op.output)
    interior = _cut_interior(t, op.output, op.input_set)
    if interior is None:
        raise TreeError(f"invalid cut {op} under a map")
    for e in interior:
        if e not in checked:
            _check_vertex(has, m, t.vertex_above[e])
            checked.add(e)
    return Operation(m.color[op.output], tuple([m.color[d] for d in op.inputs]))


def compose(g: OperadMap, f: OperadMap) -> OperadMap:
    """The composite ``g`` after ``f`` (``f`` lands where ``g`` starts); each
    vertex of ``g`` a cut of ``f`` covers is checked once per call."""
    if f.target is not g.source and f.target.canonical_key() != g.source.canonical_key():
        raise TreeError("compose: middle forests disagree")
    has, checked = partial(_is_cut_of, g.target), set()
    colors = {d: g.color[img] for d, img in f.colors}
    components = {w: _image(has, g, g.source, op, checked) for w, op in f.components}
    return OperadMap.build(f.source, g.target, colors, components)


def _strictly_sorted(pairs: tuple[tuple[str, Any], ...]) -> bool:
    return all(a[0] < b[0] for a, b in zip(pairs, pairs[1:]))


def validate(f: OperadMap) -> None:
    """Raise unless ``f`` is a well-formed operad map, its pair tuples
    strictly sorted by edge, as equality and the JSON writer read them."""
    src, tgt = f.source, f.target
    if not (_strictly_sorted(f.colors) and _strictly_sorted(f.components)):
        raise TreeError("colors and components must be strictly sorted by edge")
    if set(f.color) != set(src.edges):
        raise TreeError("color keys do not match source edges")
    for e, img in f.colors:
        if img not in tgt.edge_set:
            raise TreeError(f"edge image {img!r} not in target")
    if set(f.component) != {v.out_edge for t in src.components for v in t.vertices}:
        raise TreeError("component keys do not match source vertices")
    has = partial(_is_cut_of, tgt)
    for t in src.components:
        for v in t.vertices:
            _check_vertex(has, f, v)


def _maps_to_generator(f: OperadMap, out_edge: str) -> bool:
    op = f.component[out_edge]
    tgt = f.target.component_of[op.output]
    w = tgt.vertex_above.get(op.output)
    return w is not None and frozenset(w.in_edges) == op.input_set


def classify_elementary(f: OperadMap) -> str:
    """Tag a map as one of the elementary shapes, or ``other``.

    Tags: ``iso``, ``edge_of_corolla``, ``degeneracy``, ``inner_face``,
    ``outer_face``.  The source and target must be single trees for any tag
    except ``iso`` to apply.
    """
    src, tgt = f.source, f.target
    src_edges = [e for t in src.components for e in t.edges]
    values = [f.color[e] for e in src_edges]
    injective = len(set(values)) == len(values)
    surjective = set(values) == set(tgt.edge_set)
    n_src_verts = sum(len(t.vertices) for t in src.components)
    n_tgt_verts = sum(len(t.vertices) for t in tgt.components)
    all_generators = all(_maps_to_generator(f, w) for w in f.component)

    if injective and surjective and all_generators and n_src_verts == n_tgt_verts:
        return "iso"
    if len(src.components) != 1 or len(tgt.components) != 1:
        return "other"
    s_tree, t_tree = src.components[0], tgt.components[0]

    if not s_tree.vertices and len(t_tree.vertices) == 1:
        return "edge_of_corolla"

    identity_images = [w for w, op in f.components if op.is_identity]
    if (
        len(src_edges) == len(tgt.edge_set) + 1
        and surjective
        and len(identity_images) == 1
        and len(s_tree.vertex_above[identity_images[0]].in_edges) == 1
        and all(
            _maps_to_generator(f, w) for w in f.component if w != identity_images[0]
        )
    ):
        return "degeneracy"

    missing = set(tgt.edge_set) - set(values)
    if injective and len(missing) == 1 and n_src_verts == n_tgt_verts - 1:
        (d,) = missing
        non_gen = [w for w in f.component if not _maps_to_generator(f, w)]
        if t_tree.is_inner(d) and len(non_gen) == 1:
            return "inner_face"

    if injective and all_generators and n_src_verts == n_tgt_verts - 1:
        used = {op.output for _, op in f.components}
        unused = [w for w in t_tree.vertex_above if w not in used]
        if len(unused) == 1:
            return "outer_face"

    return "other"
