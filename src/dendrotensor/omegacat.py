"""Maps between the free colored operads generated by forests.

The free operad on a forest has one color per edge.  An operation with output
``e`` is a *cut*: a finite set of edges obtained from ``{e}`` by repeatedly
replacing an edge by the inputs of the vertex above it (a stump contributes
nothing, so nullary operations appear exactly when stumps can close every
branch).  Because each edge has at most one vertex above it, an operation is
determined by its output edge together with its set of input edges.
One table, two algebras.  Cuts of tree edges and of shuffle states alike
grow over ``(node, moves)`` rows, each node after the nodes its moves
reach, as :func:`_rows_above` walks them up from one node; an edge's move
goes to the inputs of the vertex above it (:func:`_edge_moves`).
:func:`_fold` lists cuts as unions, bounded by an arity if asked, which is
all a vertex of that arity can map to; :func:`_counts` counts them as sums
over moves of products, weighting each node where a cut may stop: 1 for
every cut (:func:`_cut_total`), 1 at leaf states for shuffles (each the
root state grown into leaf states), a color's weight for free-algebra terms.

A finite colored operad (:class:`FiniteOperad`) is a table of operation
sets: the free operad of a forest (:class:`FreeForestOperad`) and the
tensor of trees (``shuffle.BVTensorOperad``) are cut operads that fold
their state tables when read (:class:`_CutOperad`); :class:`TableOperad`
is an explicit table.  A map out of a free forest operad into one is one
tuple, :class:`ForestInto`: the color of each edge (``colors``) and the
operation of the target at each vertex (``components``), hashed and
compared in C.  It is a source-shaped dendrex of the target's nerve;
:func:`maps_into` lists them, :func:`hom` attaches both forests to the maps
into a free forest operad (:class:`OperadMap`), and :func:`segal_cut_check`
and :func:`segal_components_check` decompose them.  One walk up from a cut's output, with an explicit
stack, decides whether a set of edges is a cut and lists the vertices inside
it.  The image of a cut under a map (:func:`_image`) is that walk plus
:func:`validate`'s check at each vertex inside, once per call of
:func:`compose` or :func:`precompose`, which send each
vertex to the image of its image cut.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from collections import namedtuple
from functools import partial
from itertools import permutations
from operator import itemgetter
from typing import Any, Callable, Collection, Container, Iterable, Mapping, Sequence

from .treecore import Forest, Tree, TreeError, Vertex, _cached, _checked_make, as_forest, cut_at, serialize_forest

__all__ = [
    "Operation",
    "ForestInto",
    "OperadMap",
    "operations",
    "is_cut",
    "FiniteOperad",
    "FreeForestOperad",
    "TableOperad",
    "maps_into",
    "hom",
    "identity_map",
    "compose",
    "precompose",
    "validate",
    "classify_elementary",
    "segal_cut_check",
    "segal_components_check",
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
    _make = classmethod(_checked_make)

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


def _fold(
    table: Iterable, tables: dict, limit: float = math.inf, keep: bool = True, own: Container | None = None
) -> None:
    """Fold into ``tables`` the cuts of the nodes of ``table``, ``(node,
    moves)`` pairs each after the nodes its moves reach: as sorted input
    tuples of at most ``limit`` inputs, listed by inputs, the node itself if
    ``own`` (default: all) holds it plus, move by move, every union of one
    cut per node the move reaches (a stump's empty move gives the empty
    cut).  The cuts a move unions are disjoint, so a partial union only
    grows and one past ``limit`` is dropped at once; the default ``inf``
    keeps every cut.  Only a node with two moves can meet a cut twice, so
    only such nodes deduplicate.  With ``keep`` false each list read is
    popped or extended in place, for graphs in which every node has one
    reader."""
    take = tables.__getitem__ if keep else tables.pop
    for d, moves in table:
        mine = [(d,)] if own is None or d in own else []
        if len(moves) == 1 and len(moves[0]) == 1:
            cuts = take(moves[0][0])
            if keep:
                cuts = cuts.copy()
            cuts += mine
            cuts.sort()  # near-linear: at most one element appended to a sorted list
        elif moves:
            cuts = mine
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
            cuts = mine
        tables[d] = cuts


def _counts(table: Iterable, own: Callable[[Any, Sequence[tuple]], int]) -> dict:
    """Per row of ``table``, in :func:`_fold`'s order, how many ways its node
    grows: it stops, weighted ``own(node, moves)``, or each node one move
    reaches grows (a stump's empty move in one way).  With ``own`` 1 these
    are :func:`_fold`'s cuts, a bound on them where a node has two moves."""
    counts: dict = {}
    for d, moves in table:
        counts[d] = own(d, moves) + sum([math.prod([counts[c] for c in move]) for move in moves])
    return counts


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
    """How many operations the free operad on ``forest`` has, unlisted: the
    cuts of each edge, counted by :func:`_counts` with every edge its own cut."""
    counts = [_counts(_rows_above(_edge_moves(t), t.root), lambda d, moves: 1) for t in forest.components]
    return sum(sum(c.values()) for c in counts)


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


# -- finite colored operads --------------------------------------------------

Label = Any


class FiniteOperad(ABC):
    """A finite colored operad presented by tables.

    Operation sets are indexed by an *unordered* family of input colors and
    an output color; ``ops`` ignores the order of ``inputs``.  ``subst``
    composes one operation into another; the cut-based realizations below
    support it (their operation families never repeat an input color, so
    arguments can be keyed by color), plain tables do not, nor does
    :func:`precompose` take them.
    """

    @abstractmethod
    def colors(self) -> tuple[str, ...]: ...

    @abstractmethod
    def ops(self, inputs: Sequence[str], output: str) -> tuple[Label, ...]: ...

    @abstractmethod
    def ops_by_output(
        self, output: str, arity: int | None = None
    ) -> tuple[tuple[tuple[str, ...], tuple[Label, ...]], ...]:
        """The ``(inputs, operations)`` entries with this output color, in a
        fixed order; with an ``arity``, exactly the entries of that many
        inputs, in the same relative order."""

    @abstractmethod
    def identity(self, color: str) -> Label: ...

    def subst(self, p: Label, args: Mapping[str, Label]) -> Label:
        raise NotImplementedError(f"{type(self).__name__} has no substitution")

    def ops_for_inputs(self, inputs: Sequence[str]) -> tuple[tuple[str, Label], ...]:
        """All ``(output color, operation)`` pairs accepting these inputs."""
        return self._input_index.get(tuple(sorted(inputs)), ())

    @_cached
    def _input_index(self) -> dict[tuple[str, ...], tuple[tuple[str, Label], ...]]:
        index: dict[tuple[str, ...], list[tuple[str, Label]]] = {}
        for c in self.colors():
            for key, labels in self.ops_by_output(c):
                index.setdefault(key, []).extend((c, p) for p in labels)
        return {key: tuple(pairs) for key, pairs in index.items()}


def _index_by_output(
    table: Mapping[tuple[tuple[str, ...], str], tuple[Label, ...]],
) -> dict[str, tuple[tuple[tuple[str, ...], tuple[Label, ...]], ...]]:
    """Group an ``(inputs, output) -> labels`` table by output, each group
    in the order of its inputs (the order of the sorted table)."""
    index: dict[str, list[tuple[tuple[str, ...], tuple[Label, ...]]]] = {}
    for (inputs, output), labels in sorted(table.items()):
        index.setdefault(output, []).append((inputs, labels))
    return {output: tuple(entries) for output, entries in index.items()}


class _CutOperad(FiniteOperad):
    """A finite operad whose operations are cuts, each an :class:`Operation`
    with distinct inputs: the trivial cut is the identity and substitution
    is cut union.  A subclass gives a table of ``(color, moves)`` pairs
    (``_states``).  A listing of a color the memo ``_folds`` lacks folds
    into it the rows of the colors above that color that it lacks
    (``_cuts``), so a leaf folds one row; its lists all hold the cuts of at
    most ``_limit`` inputs.  A listing of one arity ``k`` needs the bound
    ``k``, a full listing the bound ``inf``; the memo is emptied only when a
    larger bound than ``_limit`` is asked for.  A full listing is sorted
    stably by ``_key`` (the fold lists by inputs), an arity slice keeps the
    fold's order.  Listings are memoized per ``(color, arity)``."""

    _key = None

    def __init__(self, table: Iterable[tuple[str, Sequence[tuple[str, ...]]]]):
        self._states = dict(table)  # each color's moves, in the table's order
        self._colors = tuple(sorted(self._states))
        self._limit: float = 0  # the bound of every list in _folds
        self._folds: dict[str, list[tuple[str, ...]]] = {}
        self._listed: dict[tuple[str, int | None], tuple] = {}  # by (color, arity or None)
        self._by_inputs: dict[str, dict[tuple[str, ...], tuple[Operation]]] = {}

    def colors(self) -> tuple[str, ...]:
        return self._colors

    def _unknown(self, color: str) -> tuple[()]:
        return ()  # the listing of a color this operad lacks

    def _cuts(self, color: str) -> list[tuple[str, ...]]:
        """The color's cuts of at most ``_limit`` inputs, from ``_folds``."""
        cuts = self._folds.get(color)
        if cuts is None:
            rows = _rows_above(self._states.__getitem__, color, self._folds)
            _fold(rows, self._folds, self._limit)
            cuts = self._folds[color]
        return cuts

    def ops(self, inputs: Sequence[str], output: str) -> tuple[Label, ...]:
        index = self._by_inputs.get(output)
        if index is None and output in self._states:
            index = self._by_inputs[output] = dict(self.ops_by_output(output))
        return () if index is None else index.get(tuple(sorted(inputs)), ())

    def ops_by_output(
        self, output: str, arity: int | None = None
    ) -> tuple[tuple[tuple[str, ...], tuple[Label, ...]], ...]:
        entries = self._listed.get((output, arity))
        if entries is None:
            if output not in self._states:
                return self._unknown(output)
            bound = math.inf if arity is None else arity
            if bound > self._limit:  # a larger bound serves every smaller one
                self._limit, self._folds = bound, {}
            cuts = self._cuts(output)
            if arity is None:
                cuts = sorted(cuts, key=self._key)
            else:
                cuts = [c for c in cuts if len(c) == arity]
            entries = self._listed[output, arity] = tuple((c, (_operation(output, c),)) for c in cuts)
        return entries

    def identity(self, color: str) -> Label:
        return Operation(color, (color,))

    def subst(self, p: Operation, args: Mapping[str, Operation]) -> Operation:
        if set(args) != set(p.inputs):
            raise TreeError(f"substitution arguments do not match the inputs of {p}")
        collected: list[str] = []
        for c in p.inputs:
            q = args[c]
            if q.output != c:
                raise TreeError(f"substitution argument at {c!r} has output {q.output!r}")
            collected.extend(q.inputs)
        out = Operation(p.output, tuple(collected))
        if not self._has(out):
            raise TreeError(f"substitution produced {out}, which is not an operation")
        return out

    def _has(self, op: Operation) -> bool:
        """Whether the cut ``op`` is an operation of this operad: listed."""
        return bool(self.ops(op.inputs, op.output))


class FreeForestOperad(_CutOperad):
    """The free operad of a forest: colors are edges, operations are cuts,
    listed by size and then lexicographically; an unknown color raises.
    Its table gives each edge the moves it has in its tree's one-factor
    shuffle state table (:func:`_edge_moves`)."""

    _key = len

    def __init__(self, forest: Tree | Forest):
        self.forest = as_forest(forest)
        trees = self.forest.components
        super().__init__((e, moves(e)) for t in trees for moves in [_edge_moves(t)] for e in t.edges)

    ops_by_output = _CutOperad.ops_by_output  # per class, for perfbench/tracer.py

    def _unknown(self, color: str) -> tuple[()]:
        raise TreeError(f"no edge {color!r} in {serialize_forest(self.forest)}")

    def _has(self, op: Operation) -> bool:
        """Through the output's index when a listing built it, else one
        walk of the forest, with no listing built."""
        index = self._by_inputs.get(op.output)
        return op.inputs in index if index is not None else _is_cut_of(self.forest, op)


class TableOperad(FiniteOperad):
    """An operad presented by explicit tables, loadable from JSON.

    The JSON shape is ``{"colors": [...], "operations": [{"inputs": [...],
    "output": ..., "elements": [...]}, ...]}``; input order inside an entry
    is irrelevant.  Unary identities are synthesized as ``id:<color>``
    unless an entry already provides one.  No composition data is carried,
    so substitution is unavailable.
    """

    def __init__(
        self,
        colors: Sequence[str],
        table: Mapping[tuple[tuple[str, ...], str], Sequence[str]],
    ):
        self._colors = tuple(sorted(colors))
        cset = set(self._colors)
        self._table: dict[tuple[tuple[str, ...], str], tuple[str, ...]] = {}
        for (inputs, output), labels in sorted(table.items()):
            key = (tuple(sorted(inputs)), output)
            if output not in cset or any(c not in cset for c in key[0]):
                raise TreeError(f"operation table mentions unknown colors: {key}")
            merged = sorted(set(self._table.get(key, ())) | set(labels))
            self._table[key] = tuple(merged)
        for c in self._colors:
            key = ((c,), c)
            if not self._table.get(key):
                self._table[key] = (f"id:{c}",)
        self._by_output = _index_by_output(self._table)

    @staticmethod
    def from_json(obj: Mapping[str, Any] | str) -> "TableOperad":
        if isinstance(obj, str):
            obj = json.loads(obj)
        table: dict[tuple[tuple[str, ...], str], list[str]] = {}
        for entry in obj.get("operations", ()):
            key = (
                tuple(sorted(str(c) for c in entry["inputs"])),
                str(entry["output"]),
            )
            table.setdefault(key, []).extend(str(x) for x in entry["elements"])
        return TableOperad([str(c) for c in obj["colors"]], table)

    def to_json(self) -> dict[str, Any]:
        return {
            "colors": list(self._colors),
            "operations": [
                {"inputs": list(inputs), "output": output, "elements": list(labels)}
                for (inputs, output), labels in sorted(self._table.items())
            ],
        }

    def colors(self) -> tuple[str, ...]:
        return self._colors

    def ops(self, inputs: Sequence[str], output: str) -> tuple[Label, ...]:
        return self._table.get((tuple(sorted(inputs)), output), ())

    def ops_by_output(
        self, output: str, arity: int | None = None
    ) -> tuple[tuple[tuple[str, ...], tuple[Label, ...]], ...]:
        entries = self._by_output.get(output, ())
        return entries if arity is None else tuple(e for e in entries if len(e[0]) == arity)

    def identity(self, color: str) -> Label:
        return self._table[((color,), color)][0]


# -- maps out of a free forest operad ----------------------------------------


def _gather(order: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The function taking a sequence to the tuple of its items at
    ``order``, one C-level ``itemgetter`` call for two or more."""
    if len(order) > 1:
        return itemgetter(*order)
    if order:
        (i,) = order
        return lambda row: (row[i],)
    return lambda row: ()


def _sorting(names: Sequence[str]) -> Callable[[Sequence], tuple]:
    """The gather putting items named ``names`` (distinct) in name order."""
    return _gather(sorted(range(len(names)), key=names.__getitem__))


def _vertex_outs(scope: Tree | Forest) -> list[str]:
    """The output edges of the vertices, in the order of a map's
    ``components``."""
    return sorted(v.out_edge for t in as_forest(scope).components for v in t.vertices)


def _selecting(among: Sequence[str], names: Iterable[str]) -> Callable[[Sequence], tuple]:
    """The gather reading, from items named ``among``, those named ``names``."""
    at = {e: i for i, e in enumerate(among)}
    return _gather([at[e] for e in names])


def maps_into(
    scope: Tree | Forest, p: FiniteOperad, cap: int | None = None
) -> tuple[ForestInto, ...]:
    """Enumerate the maps from the free operad of ``scope`` into ``p``:
    choose a color per edge and, at each vertex, an operation accepting the
    chosen input colors (in any matching of inputs to colors).  A vertex of
    arity ``k`` asks ``p`` only for its families of ``k`` inputs
    (``p.ops_by_output(color, k)``).

    :func:`_key_passes` gives each component's keys with their moves and
    map counts; with a ``cap``, a count above it raises :class:`TreeError`
    before any map is listed.  :func:`_odometer` lists each component's
    maps as pair tuples already in edge order, and the maps out of a forest
    join one map of each component (:func:`_recombined`)."""
    passes = _key_passes(scope, p)
    if cap is not None:
        total = _map_count(passes, p)
        if total > cap:
            raise TreeError(f"map enumeration would produce {total} > cap {cap}")
    all_colors = p.colors()
    components = as_forest(scope).components
    parts = [_odometer(t, moves, count, all_colors) for t, (_, moves, count) in zip(components, passes)]
    rows = parts[0] if len(parts) == 1 else _recombined(components, parts)
    return tuple(map(_forest_into, rows))


def _odometer(
    t: Tree, moves: dict, count: dict, all_colors: Sequence[str]
) -> list[tuple[tuple, tuple]]:
    """The pair tuples of the maps out of ``t``, each in edge order, as
    :func:`maps_into` lists them: by root color, then as an odometer over
    the positions of ``t``'s Euler tour, a move on entering a vertex and a
    label on leaving it, the last position turning fastest.  At every
    vertex that is move, then ``product`` over the children, then label.
    A label position is left out where every move has one label, as no
    turn of it is possible.

    The choice at a position writes into two rows kept in edge order: a
    move writes its child keys (they are the ``(edge, color)`` pairs) and
    its first label's ``(edge, operation)`` pair, a label its own pair.  A
    move also sets the options of the positions it opens: its child
    vertices' moves and its own labels.  ``live`` holds the positions that
    can still turn, with their next option, the last on top; turning one
    resets every later position to its first option.  Every key reached
    has a count above 0 and keeps only the moves that reach a map
    (:func:`_key_passes`), so no reset meets a dead end and each turn emits
    one map."""
    above = t.vertex_above
    multi = {e for (e, _), fam_moves in moves.items() for labels, _ in fam_moves if len(labels) > 1}
    slot = {e: i for i, e in enumerate(t.edges)}  # the edges are sorted
    vslot = {e: i for i, e in enumerate(sorted(above))}
    # per position of the tour: the child slots it writes, the (child,
    # position) pairs and the label position it opens, and the slot and
    # edge of its (edge, operation) pair
    slots, opened, labelled, pair_at, edge = [], [], [], [], []
    stack = [(t.root, 0, 0)] if t.root in above else []  # (edge, position of its parent, child index)
    while stack:
        e, up, i = stack.pop()
        q = len(edge)
        edge.append(e)
        pair_at.append(vslot[e])
        labelled.append(None)
        if i < 0:  # the label position of the vertex entered at up
            labelled[up] = q
            slots.append(())
            opened.append(())
            continue
        if q:
            opened[up].append((i, q))
        ins = above[e].in_edges
        slots.append(tuple([slot[d] for d in ins]))
        opened.append([])
        if e in multi:
            stack.append((e, q, -1))
        for i in range(len(ins) - 1, -1, -1):
            if ins[i] in above:
                stack.append((ins[i], q, i))
    m = len(edge)
    colors: list = [None] * len(slot)
    comps: list = [None] * len(vslot)
    opts: list = [()] * m
    root = slot[t.root]
    rows: list[tuple[tuple, tuple]] = []
    for c in all_colors:
        key = (t.root, c)
        if not count[key]:
            continue
        colors[root] = key
        if not m:  # a bare edge
            rows.append(((key,), ()))
            continue
        opts[0] = moves[key]
        live = [(0, 0)]
        while live:
            q, j = live.pop()
            for q in range(q, m):
                o = opts[q]
                if len(o) > j + 1:
                    live.append((q, j + 1))
                labels, kids = o[j]
                for s, d in zip(slots[q], kids):
                    colors[s] = d
                for i, r in opened[q]:
                    opts[r] = moves[kids[i]]
                comps[pair_at[q]] = (edge[q], labels[0])
                if labelled[q] is not None:  # a label position's options, as moves
                    opts[labelled[q]] = [((lab,), ()) for lab in labels]
                j = 0
            rows.append((tuple(colors), tuple(comps)))
    return rows


def _recombined(
    components: Sequence[Tree], parts: Sequence[Sequence[tuple[tuple, tuple]]]
) -> list[tuple[tuple, tuple]]:
    """The pair tuples of each tuple of maps out of the ``components``, one
    map of each from ``parts`` in ``product`` order, where each map is given
    by its pair tuples sorted by edge.  A tuple's pairs are concatenated and
    put in edge order by one permutation, found once."""
    rows: list[tuple[tuple, tuple]] = [((), ())]
    for part in parts:
        rows = [(c + pc, v + pv) for c, v in rows for pc, pv in part]
    colors_of = _sorting([e for t in components for e in t.edges])
    components_of = _sorting([e for t in components for e in _vertex_outs(t)])
    return [(colors_of(c), components_of(v)) for c, v in rows]


def _key_passes(scope: Tree | Forest, p: FiniteOperad) -> list[tuple[str, dict, dict]]:
    """Per component of ``scope``, one explicit-stack pass over ``(edge,
    color)`` keys: ``(root, moves, count)``.  ``moves`` expands each key
    above a vertex into its ``(labels, child keys)`` moves and ``count``
    gives each key's number of sub-maps, listing the keys in post-order,
    each after its children.  A key's count is the sum over its moves of
    the labels times the product of the child counts; once it is known,
    only the moves of a count above 0 are kept.  A leaf key counts 1 and is
    done when first seen.

    The root keys are pushed in reverse, so they pop, and ``p`` is asked
    for their operations, in ``p.colors()`` order, root first.  A cut
    operad that folds lazily (``_CutOperad``) then folds at the first ask
    the rows above the first color, a root of its table in the usual case,
    in one :func:`_fold` call, where asking a leaf color first folds one
    row per call.  The order of the asks shows nowhere else:
    ``moves`` and ``count`` are read by key only."""
    all_colors = p.colors()
    passes: list[tuple[str, dict, dict]] = []
    for t in as_forest(scope).components:
        above = t.vertex_above
        moves: dict[tuple[str, str], list] = {}
        count: dict[tuple[str, str], int] = {}  # post-order: each key after its children
        stack = [(t.root, c) for c in reversed(all_colors)]
        if t.root not in above:
            count = dict.fromkeys(reversed(stack), 1)
            stack = []
        while stack:
            key = stack.pop()
            if key in count:
                continue
            fam_moves = moves.get(key)
            if fam_moves is not None:  # every child is done
                n = 0
                kept = []
                for move in fam_moves:
                    m = len(move[0])
                    for d in move[1]:
                        m *= count[d]
                    if m:
                        n += m
                        kept.append(move)
                moves[key] = kept
                count[key] = n
                continue
            ins = above[key[0]].in_edges
            k = len(ins)
            moves[key] = fam_moves = [
                (labels, tuple(zip(ins, assignment)))
                for fam, labels in p.ops_by_output(key[1], k)
                # fam is sorted: with distinct colors permutations come in order, once each
                for assignment in (permutations(fam) if k < 2 or len(set(fam)) == k
                                   else sorted(set(permutations(fam))))
            ]
            stack.append(key)
            for _, kids in fam_moves:
                for d in kids:
                    if d not in count:
                        if d[0] in above:
                            stack.append(d)
                        else:
                            count[d] = 1
        passes.append((t.root, moves, count))
    return passes


def _map_count(passes: list[tuple[str, dict, dict]], p: FiniteOperad) -> int:
    """How many maps :func:`maps_into` lists from these passes, read from
    their counts without building one: the product over components of the
    counts at the root."""
    total = 1
    for root, _, count in passes:
        total *= sum(count[(root, c)] for c in p.colors())
    return total


def hom(
    source: Tree | Forest, target: Tree | Forest, cap: int | None = None
) -> tuple[OperadMap, ...]:
    """Enumerate every operad map between the generated free operads.

    Each map of :func:`maps_into` into :class:`FreeForestOperad` gets the
    two forests attached, in the order listed there.  Each source root may
    land on any target edge; a vertex of arity ``k`` then lands on any
    arity-``k`` cut above its output's image, in any of the ``k!`` input
    matchings; the target's cuts are folded only up to the source's arities.
    The empty source forest has exactly one (empty) map anywhere.  ``cap`` raises :class:`TreeError`
    when there are more maps than that, before any is built.
    """
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


def precompose(p: FiniteOperad, m: ForestInto, h: OperadMap) -> ForestInto:
    """Precompose a map ``m`` out of the free operad of ``h.target`` with the
    operad map ``h``: each edge of ``h.source`` takes the color of its image,
    and each vertex the image under ``m`` of its image cut, a cut of ``p``
    (:func:`_image`); an operad ``p`` of another kind raises."""
    if not isinstance(p, _CutOperad):
        raise TreeError(f"precompose needs a cut operad, not a {type(p).__name__}")
    checked: set[str] = set()
    return ForestInto.build(
        ((e, m.color[img]) for e, img in h.colors),
        ((w, _image(p._has, m, h.target, op, checked)) for w, op in h.components),
    )


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


# -- Segal decompositions -----------------------------------------------------


def segal_cut_check(p: FiniteOperad, t: Tree, b: str) -> bool:
    """Maps out of the free operad of a tree are pairs of maps out of the
    two parts at an inner edge, agreeing on the edge's color.  Returns
    whether restriction is a bijection onto such pairs, no map listed twice.

    A pair of maps is compared as the concatenation of their field tuples;
    the restriction to each part is a fixed selection of the whole's edges
    and vertices."""
    lower, upper = cut_at(t, b)
    whole = maps_into(t, p)
    lows = maps_into(lower, p)
    ups = maps_into(upper, p)
    if len(set(lows)) != len(lows) or len(set(ups)) != len(ups):
        return False
    lo_b, up_b = lower.edges.index(b), upper.edges.index(b)
    ups_at: dict[str, list[ForestInto]] = {}
    for up in ups:
        ups_at.setdefault(up.colors[up_b][1], []).append(up)
    matched = {lo + up for lo in lows for up in ups_at.get(lo.colors[lo_b][1], ())}
    outs = _vertex_outs(t)
    lo_colors, up_colors = _selecting(t.edges, lower.edges), _selecting(t.edges, upper.edges)
    lo_comps, up_comps = _selecting(outs, _vertex_outs(lower)), _selecting(outs, _vertex_outs(upper))
    split = [
        (lo_colors(m.colors), lo_comps(m.components), up_colors(m.colors), up_comps(m.components))
        for m in whole
    ]
    distinct = set(split)
    return len(split) == len(distinct) == len(matched) and distinct == matched


def segal_components_check(p: FiniteOperad, f: Tree | Forest) -> bool:
    """Maps out of the free operad of a forest are tuples of maps out of its
    components (the empty forest admitting exactly the empty map).

    Checked from the whole's side: the whole's maps and each component's
    are distinct, the whole has as many as the product of the components'
    counts, and each component's restrictions of the whole's maps lie in its
    listing.  The restrictions are fixed, disjoint selections of the whole's
    edges and vertices that cover it, so restriction is injective and, with
    the counts, a bijection."""
    forest = as_forest(f)
    whole = maps_into(forest, p)
    parts = [maps_into(t, p) for t in forest.components]
    distinct = set(whole)
    if len(whole) != math.prod(len(q) for q in parts) or len(distinct) != len(whole):
        return False
    outs = _vertex_outs(forest)
    for t, q in zip(forest.components, parts):
        listed = set(q)
        colors, comps = _selecting(forest.edges, t.edges), _selecting(outs, _vertex_outs(t))
        if len(listed) != len(q) or not {(colors(c), comps(v)) for c, v in distinct} <= listed:
            return False
    return True
