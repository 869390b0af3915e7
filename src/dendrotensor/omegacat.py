"""Maps between the free colored operads generated by forests.

The free operad on a forest has one color per edge.  An operation with output
``e`` is a *cut*: a finite set of edges obtained from ``{e}`` by repeatedly
replacing an edge by the inputs of the vertex above it (a stump contributes
nothing, so nullary operations appear exactly when stumps can close every
branch).  Because each edge has at most one vertex above it, an operation is
determined by its output edge together with its set of input edges.

A map between such operads is recorded by where the colors go (``edge_map``)
and where each generating vertex goes (``vertex_map``, an operation of the
target).  Such a map is a source-shaped dendrex of the nerve of the target
operad, so :func:`hom` lists them with :func:`~dendrotensor.lurie.maps_into`.
Composition pushes operations through the second map; no relations ever
have to be checked beyond cut validity, which is what :func:`validate` does.
One walk up from a cut's output, with an explicit stack, decides whether a
set of edges is a cut and lists the edges below it for substitution.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Mapping

from .treecore import Forest, Tree, TreeError, as_forest, serialize_forest

__all__ = [
    "Operation",
    "OperadMap",
    "operations",
    "is_cut",
    "hom",
    "identity_map",
    "compose",
    "validate",
    "is_valid",
    "classify_elementary",
]


@dataclass(frozen=True, order=True, slots=True)
class Operation:
    """An operation of a free forest operad: output edge plus input edge set.

    Ordered lexicographically by (output, inputs) so operation-keyed results
    can be listed deterministically."""

    output: str
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        ins = tuple(sorted(self.inputs))
        if len(set(ins)) != len(ins):
            raise TreeError(f"duplicate inputs in operation at {self.output!r}")
        object.__setattr__(self, "inputs", ins)

    @property
    def input_set(self) -> frozenset[str]:
        return frozenset(self.inputs)

    @property
    def is_identity(self) -> bool:
        return self.inputs == (self.output,)

    def __str__(self) -> str:
        return f"{self.output}<-({','.join(self.inputs)})"


def _cut_order(inputs: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    return len(inputs), inputs


def _cut_table(
    t: Tree, e: str, memo: dict[str, list[tuple[str, ...]]] | None = None
) -> list[tuple[str, ...]]:
    """The input sets of the cuts of ``t`` with output ``e``, each a sorted
    tuple, listed by size and then lexicographically.

    Built bottom-up with an explicit stack: the cuts above an edge are the
    edge itself plus every union of one cut per input of the vertex above
    it, so a stump gives the empty cut.  With ``memo`` the table of every
    edge above ``e`` is kept there and reused; without it each table is
    dropped as soon as the table below it is built.
    """
    keep = memo is not None
    tables = memo if keep else {}
    order: list[str] = []
    pending = [e]
    while pending:
        d = pending.pop()
        if d in tables:
            continue
        order.append(d)
        v = t.vertex_above.get(d)
        if v is not None:
            pending.extend(v.in_edges)
    take = tables.__getitem__ if keep else tables.pop
    for d in reversed(order):
        v = t.vertex_above.get(d)
        if v is None:
            cuts = [(d,)]
        elif len(v.in_edges) == 1:
            below = take(v.in_edges[0])
            cuts = list(below) if keep else below
            insort(cuts, (d,), key=_cut_order)
        else:
            unions: list[tuple[str, ...]] = [()]
            for c in v.in_edges:
                below = take(c)
                unions = [u + cut for u in unions for cut in below]
            cuts = [tuple(sorted(u)) for u in unions]
            cuts.append((d,))
            cuts.sort()
            cuts.sort(key=len)  # stable, so by size and then lexicographically
        tables[d] = cuts
    return tables[e] if keep else tables.pop(e)


def _operation(output: str, inputs: tuple[str, ...]) -> Operation:
    """An :class:`Operation` from inputs already sorted and distinct, as
    :func:`_cut_table` lists them, without checking them again."""
    op = object.__new__(Operation)
    object.__setattr__(op, "output", output)
    object.__setattr__(op, "inputs", inputs)
    return op


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
    nullary operation.
    """
    t = _component(as_forest(scope), e)
    return tuple(_operation(e, c) for c in _cut_table(t, e))


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


@dataclass(frozen=True)
class OperadMap:
    """A map of free forest operads, stored as sorted association tuples."""

    source: Forest
    target: Forest
    edge_map: tuple[tuple[str, str], ...]
    vertex_map: tuple[tuple[str, Operation], ...]

    @staticmethod
    def build(
        source: Tree | Forest,
        target: Tree | Forest,
        edge_map: Mapping[str, str],
        vertex_map: Mapping[str, Operation],
    ) -> "OperadMap":
        return OperadMap(
            as_forest(source),
            as_forest(target),
            tuple(sorted(edge_map.items())),
            tuple(sorted(vertex_map.items())),
        )

    @cached_property
    def edge(self) -> dict[str, str]:
        return dict(self.edge_map)

    @cached_property
    def vertex(self) -> dict[str, Operation]:
        return dict(self.vertex_map)


def identity_map(scope: Tree | Forest) -> OperadMap:
    f = as_forest(scope)
    return OperadMap.build(
        f,
        f,
        {e: e for e in f.edges},
        {
            v.out_edge: Operation(v.out_edge, v.in_edges)
            for t in f.components
            for v in t.vertices
        },
    )


def hom(source: Tree | Forest, target: Tree | Forest) -> tuple[OperadMap, ...]:
    """Enumerate every operad map between the generated free operads.

    Each map of :func:`~dendrotensor.lurie.maps_into` into
    :class:`~dendrotensor.lurie.FreeForestOperad` is read as an
    :class:`OperadMap`, in the order listed there.  Each source root may
    land on any target edge; a vertex of arity ``k`` then lands on any
    arity-``k`` cut above its output's image, in any of the ``k!`` input
    matchings.  The empty source forest has exactly one (empty) map
    anywhere.
    """
    from .lurie import FreeForestOperad, maps_into

    src = as_forest(source)
    tgt = as_forest(target)
    return tuple(
        OperadMap(src, tgt, m.colors, m.components)
        for m in maps_into(src, FreeForestOperad(tgt))
    )


def _push(g: OperadMap, op: Operation) -> Operation:
    """Image of a source operation under ``g``: a cut goes to the images of
    its inputs over the image of its output."""
    t = _component(g.source, op.output)
    if _cut_interior(t, op.output, op.input_set) is None:
        raise TreeError(f"invalid cut {op} pushed through map")
    ge = g.edge
    return Operation(ge[op.output], tuple(ge[d] for d in op.inputs))


def compose(g: OperadMap, f: OperadMap) -> OperadMap:
    """The composite ``g`` after ``f`` (``f`` lands where ``g`` starts)."""
    if f.target.canonical_key() != g.source.canonical_key():
        raise TreeError("compose: middle forests disagree")
    edge_map = {d: g.edge[img] for d, img in f.edge.items()}
    vertex_map = {w: _push(g, op) for w, op in f.vertex.items()}
    return OperadMap.build(f.source, g.target, edge_map, vertex_map)


def validate(f: OperadMap) -> None:
    """Raise unless ``f`` is a well-formed operad map."""
    src, tgt = f.source, f.target
    if set(f.edge) != set(src.edges):
        raise TreeError("edge_map keys do not match source edges")
    for e, img in f.edge.items():
        if img not in tgt.edge_set:
            raise TreeError(f"edge image {img!r} not in target")
    expected_vertices = {v.out_edge for t in src.components for v in t.vertices}
    if set(f.vertex) != expected_vertices:
        raise TreeError("vertex_map keys do not match source vertices")
    for t in src.components:
        for v in t.vertices:
            op = f.vertex[v.out_edge]
            if op.output != f.edge[v.out_edge]:
                raise TreeError(f"vertex {v.out_edge!r}: output color mismatch")
            images = [f.edge[d] for d in v.in_edges]
            if len(set(images)) != len(images):
                raise TreeError(f"vertex {v.out_edge!r}: inputs collapse")
            if frozenset(images) != op.input_set:
                raise TreeError(f"vertex {v.out_edge!r}: input colors mismatch")
            comp = tgt.component_of.get(op.output)
            if comp is None or not is_cut(comp, op.output, op.input_set):
                raise TreeError(f"vertex {v.out_edge!r}: image is not a cut")


def is_valid(f: OperadMap) -> bool:
    try:
        validate(f)
    except TreeError:
        return False
    return True


def _maps_to_generator(f: OperadMap, out_edge: str) -> bool:
    op = f.vertex[out_edge]
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
    values = [f.edge[e] for e in src_edges]
    injective = len(set(values)) == len(values)
    surjective = set(values) == set(tgt.edge_set)
    n_src_verts = sum(len(t.vertices) for t in src.components)
    n_tgt_verts = sum(len(t.vertices) for t in tgt.components)
    all_generators = all(_maps_to_generator(f, w) for w in f.vertex)

    if injective and surjective and all_generators and n_src_verts == n_tgt_verts:
        return "iso"
    if len(src.components) != 1 or len(tgt.components) != 1:
        return "other"
    s_tree, t_tree = src.components[0], tgt.components[0]

    if not s_tree.vertices and len(t_tree.vertices) == 1:
        return "edge_of_corolla"

    identity_images = [w for w, op in f.vertex.items() if op.is_identity]
    if (
        len(src_edges) == len(tgt.edge_set) + 1
        and surjective
        and len(identity_images) == 1
        and len(s_tree.vertex_above[identity_images[0]].in_edges) == 1
        and all(
            _maps_to_generator(f, w) for w in f.vertex if w != identity_images[0]
        )
    ):
        return "degeneracy"

    missing = set(tgt.edge_set) - set(values)
    if injective and len(missing) == 1 and n_src_verts == n_tgt_verts - 1:
        (d,) = missing
        non_gen = [w for w in f.vertex if not _maps_to_generator(f, w)]
        if t_tree.is_inner(d) and len(non_gen) == 1:
            return "inner_face"

    if injective and all_generators and n_src_verts == n_tgt_verts - 1:
        used = {op.output for op in f.vertex.values()}
        unused = [w for w in t_tree.vertex_above if w not in used]
        if len(unused) == 1:
            return "outer_face"

    return "other"
