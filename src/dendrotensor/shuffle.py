"""Shuffles of tuples of trees: the tensor calculus at the edge level.

A shuffle of trees ``S_1, ..., S_k`` is a tree whose edges are named by
tuples ``(e_1|...|e_k)`` of factor edges, grown from the root tuple by two
moves: advance one coordinate that still has a non-stump vertex above it
(placing that vertex's copies), or — when every coordinate is maximal in its
factor and at least one is a stump edge — close the tuple with a stump.  A
tuple all of whose coordinates are leaves is a leaf.  This is the unique
closing discipline for which the maximal edges of every shuffle are exactly
the tuples of factor-maximal edges.  A tuple of two or more coordinates is
named by :func:`encode`; a lone factor is the unit case, its own only
shuffle, and its states keep their bare edge names (:func:`_name`), so it
takes the same walk and folds as every other tuple.  The reachable tuples
and their moves are listed once, by one walk without recursion, and that
table is folded into the shuffles, their texts, the lines of their DOT
gallery (``render.shuffle_clusters``) or their count (``omegacat._counts``,
a shuffle being the root state grown into leaf states); the tensor operad
(:class:`BVTensorOperad`) folds it into cuts, every state in one loop, by the fold that lists a free
forest operad's cuts from its edge table (``omegacat._fold``), which is
this table for a lone factor.

The module also exposes the standard structure of the set of shuffles:
pairwise (and wider) intersections by contracting the non-shared inner
edges, transport of shuffles along closing a factor leaf with a stump,
recovery of all shuffles from the shuffles of the stump-free interiors, the
inclusion of nested (bracketed) shuffles into flat ones, and maps from a
probe tree into the tensor operad (``omegacat.maps_into``), each held by
some shuffle.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Callable, Collection, Iterable, Sequence, TypeVar

from .omegacat import ForestInto, OperadMap, _CutOperad, _counts, _induced, _rows_above, maps_into, validate
from .treecore import (
    Tree,
    TreeError,
    Vertex,
    _out_edge,
    _tree,
    _vertex,
    add_stumps,
    contract_inner,
    interior,
    max_edges,
    serialize_tree,
)

__all__ = [
    "encode",
    "decode",
    "flatten_name",
    "shuffles",
    "count_shuffles",
    "intersect",
    "inclusion_map",
    "stump_transport",
    "TransportResult",
    "interior_decomposition",
    "InteriorDecomposition",
    "assoc_inclusion",
    "AssocResult",
    "BVTensorOperad",
    "tensor_hom",
    "TensorHom",
]


def encode(coords: Sequence[str]) -> str:
    return "(" + "|".join(coords) + ")"


def _name(coords: Sequence[str]) -> str:
    """The edge name of a state: its bare edge name when it has one
    coordinate (a lone factor), else :func:`encode` of its coordinates."""
    return coords[0] if len(coords) == 1 else encode(coords)


def _check_tuplable(name: str) -> None:
    """Names entering tuples must decode back unambiguously: balanced
    parentheses and no separator outside them."""
    depth = 0
    for ch in name:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise TreeError(f"unbalanced parentheses in edge name {name!r}")
        elif ch == "|" and depth == 0:
            raise TreeError(f"bare separator in edge name {name!r}")
    if depth != 0:
        raise TreeError(f"unbalanced parentheses in edge name {name!r}")


def decode(name: str) -> tuple[str, ...]:
    """Split a tuple edge name into its (top-level) coordinates."""
    if not (name.startswith("(") and name.endswith(")")):
        raise TreeError(f"{name!r} is not a tuple edge name")
    inner = name[1:-1]
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in inner:
        if ch == "|" and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return tuple(parts)


def flatten_name(name: str) -> tuple[str, ...]:
    """Fully flatten a (possibly nested) tuple edge name to factor edges."""
    if name.startswith("(") and name.endswith(")"):
        out: list[str] = []
        for part in decode(name):
            out.extend(flatten_name(part))
        return tuple(out)
    return (name,)


# a state of the shuffle walk: one edge of each factor
_State = tuple[str, ...]


def _state_table(factors: Sequence[Tree]) -> list[tuple[str, list[tuple[str, ...]]]]:
    """Every state reachable from the root tuple with its moves, each state
    after the states its moves reach, so the root comes last.  States are
    given by their edge names (:func:`_name`), so a lone factor's table is
    the factor itself, one move per non-stump vertex and one close per stump.

    A move lists the states it opens: advancing coordinate ``i`` opens one
    per input of the vertex above it, closing a tuple with a stump opens
    none.  A state with no moves is a leaf.  The walk from the root tuple is
    :func:`~dendrotensor.omegacat._rows_above`'s.
    Every check on the factors is made here.
    """
    if not factors:
        raise TreeError("need at least one factor")
    if len(factors) > 1:  # a lone factor keeps its names
        for t in factors:
            for e in t.edges:
                _check_tuplable(e)
    seen: set[str] = set()
    for t in factors:
        dup = seen & t.edge_set
        if dup:
            raise TreeError(f"factors share edge names: {sorted(dup)}")
        seen |= t.edge_set
    above = [t.vertex_above for t in factors]

    def state_moves(state: _State) -> list[tuple[_State, ...]]:
        verts = [a.get(e) for a, e in zip(above, state)]
        moves = [
            tuple(state[:i] + (d,) + state[i + 1 :] for d in v.in_edges)
            for i, v in enumerate(verts)
            if v is not None and v.in_edges
        ]
        if not moves and any(v is not None for v in verts):
            moves = [()]
        return moves

    rows = _rows_above(state_moves, tuple(t.root for t in factors))
    name = {s: _name(s) for s, _ in rows}
    return [(name[s], [tuple(name[c] for c in move) for move in moves]) for s, moves in rows]


def shuffles(factors: Sequence[Tree]) -> tuple[Tree, ...]:
    """All shuffles of the given trees, in a deterministic order.

    A single factor is its own (only) shuffle and keeps its edge names.
    Each state of :func:`_state_table` gets the vertex tuples of its partial
    shuffles, move by move and then in ``product`` order over the moved-to
    states' lists; a list is dropped once every state that uses it is done.
    """
    return _shuffle_trees(_state_table(factors))


# the (state, moves) pairs of a state table, in its order; read more than once
_Table = Collection[tuple[str, Sequence[tuple[str, ...]]]]
_T = TypeVar("_T")


def _shuffle_trees(table: _Table) -> tuple[Tree, ...]:
    """:func:`shuffles`, folded from the factors' state table by
    :func:`_shuffle_parts` with one vertex per move; a lone factor's table
    folds back into a tree equal to the factor.  Every shuffle of valid
    factors is a tree, so vertices and trees are trusted builds, sorted as
    the checked constructors sort them."""
    root, listing = _shuffle_parts(table, lambda state, move: (_vertex((state, tuple(sorted(move)))),))
    return tuple([_tree((root, tuple(sorted(vs, key=_out_edge)))) for vs in listing])


def _shuffle_parts(
    table: _Table, part: Callable[[str, tuple[str, ...]], tuple[_T, ...]]
) -> tuple[str, list[tuple[_T, ...]]]:
    """The root state and, in :func:`shuffles` order, the concatenated
    ``part(state, move)`` tuples of each shuffle: a leaf state gives ``()``,
    a move gives its part and then, in ``product`` order, one tuple from
    each moved-to state.  ``part`` is called once per move.  A state's list
    is dropped once every state that uses it is done."""
    users = Counter(c for _, moves in table for move in moves for c in move)
    lists: dict[str, list[tuple[_T, ...]]] = {}
    for state, moves in table:
        lists[state] = [] if moves else [()]
        for move in moves:
            partial = [part(state, move)]
            for c in move:
                users[c] -= 1
                below = lists[c] if users[c] else lists.pop(c)
                partial = [head + p for head in partial for p in below]
            lists[state] += partial
    return state, lists[state]  # the root comes last


def _shuffle_texts(table: _Table, piece: Callable[[str], str] = str) -> list[str]:
    """The canonical texts (:func:`serialize_tree`) of :func:`shuffles`, in
    its order, folded from the factors' state table with no tree built: a
    leaf state is its name, a move gives ``name[`` and its children's texts,
    in the sorted order of their names (a vertex's order), then ``]``.  A
    lone factor's table folds into the factor's own text.

    ``piece`` maps each state name to what is written for it, once per
    state; children are still ordered by their names.  A ``piece`` that
    maps each character on its own, such as JSON string escaping, which
    leaves ``[``, ``,`` and ``]`` as they are, gives that map of every text."""
    users = Counter(c for _, moves in table for move in moves for c in move)
    lists: dict[str, list[str]] = {}
    for state, moves in table:
        text = piece(state)
        lists[state] = [] if moves else [text]
        for move in moves:
            below = []
            for c in move:
                users[c] -= 1
                below.append(lists[c] if users[c] else lists.pop(c))
            combos: Iterable[tuple[str, ...]] = product(*below)
            perm = sorted(range(len(move)), key=move.__getitem__)
            if perm != sorted(perm):
                combos = map(itemgetter(*perm), combos)
            head = text + "["
            lists[state] += [head + ",".join(combo) + "]" for combo in combos]
    return lists[state]  # the root comes last


def count_shuffles(factors: Sequence[Tree]) -> int:
    """How many shuffles the factors admit: :func:`_state_table` counted,
    nothing materialized, so cheap even when the answer is astronomically
    large."""
    return _count_states(_state_table(factors))


def _count_states(table: _Table) -> int:
    """:func:`count_shuffles`, from the factors' state table: the ways the
    root state grows (``omegacat._counts``) that stop at leaf states only."""
    return next(reversed(_counts(table, lambda state, moves: not moves).values()))  # the root comes last


def intersect(shuffs: Sequence[Tree]) -> Tree:
    """The common face of several shuffles of one factor tuple, computed by
    contracting, in each tree, the inner edges the others lack.  All the
    contractions must agree; anything else means the inputs were not
    shuffles of a common tuple."""
    if not shuffs:
        raise TreeError("need at least one tree to intersect")
    common = set(shuffs[0].edge_set)
    for t in shuffs[1:]:
        common &= t.edge_set
    results = [contract_inner(t, t.edge_set - common) for t in shuffs]
    keys = {serialize_tree(r) for r in results}
    if len(keys) != 1:
        raise TreeError("inconsistent intersection: inputs do not share a face")
    return results[0]


def inclusion_map(sub: Tree, sup: Tree) -> OperadMap:
    """The operad map realizing a common face inside a shuffle: edges go to
    themselves, a vertex goes to the cut of ``sup`` over its output with the
    same inputs."""
    if not sub.edge_set <= sup.edge_set:
        raise TreeError("not a face: edges missing from the bigger tree")
    m = _induced(sub, sup, lambda e: e)
    validate(m)
    return m


@dataclass(frozen=True)
class TransportResult:
    """Pairing of shuffles before/after closing one factor leaf with a stump."""

    factors_after: tuple[Tree, ...]
    pairs: tuple[tuple[Tree, Tree], ...]


def stump_transport(factors: Sequence[Tree], i: int, leaf: str) -> TransportResult:
    """Close leaf ``leaf`` of factor ``i`` with a stump and transport every
    shuffle across.  Every shuffle's leaves are the tuples of factor leaves,
    so each closes the same leaves: the tuples whose ``i``-th coordinate is
    ``leaf`` (``leaf`` itself for a lone factor).  The transported trees
    are checked against the texts folded from the modified factors' state
    table."""
    result, matched = _stump_transport(factors, i, leaf)
    if not matched:
        raise TreeError("stump transport failed to match the direct shuffles")
    return result


def _stump_transport(
    factors: Sequence[Tree], i: int, leaf: str, table: _Table | None = None
) -> tuple[TransportResult, bool]:
    """:func:`stump_transport`, from the factors' state ``table`` when one
    is given, with whether the transported trees match the direct shuffles
    instead of a raise when they do not."""
    if not 0 <= i < len(factors):
        raise TreeError(f"no factor {i}")
    after_factors = tuple(
        add_stumps(t, [leaf]) if j == i else t for j, t in enumerate(factors)
    )
    closing = {
        _name(c)
        for c in product(*([leaf] if j == i else t.leaves for j, t in enumerate(factors)))
    }
    shuffs = _shuffle_trees(_state_table(factors) if table is None else table)
    pairs = tuple((a, add_stumps(a, closing)) for a in shuffs)
    direct = sorted(_shuffle_texts(_state_table(after_factors)))
    return TransportResult(after_factors, pairs), direct == sorted(serialize_tree(b) for _, b in pairs)


@dataclass(frozen=True)
class InteriorDecomposition:
    """Every shuffle of the factors, recovered from a shuffle of their
    stump-free interiors by closing the boundary tuples."""

    interiors: tuple[Tree, ...]
    boundary: tuple[str, ...]
    pairs: tuple[tuple[Tree, Tree], ...]


def interior_decomposition(factors: Sequence[Tree]) -> InteriorDecomposition:
    """Recover every shuffle of the factors from the shuffles of their
    interiors (:func:`~dendrotensor.treecore.interior`).  An interior
    shuffle's leaves are the tuples of factor-maximal edges; closing the
    boundary, those with some stump-edge coordinate, gives a shuffle of the
    factors.  The closed trees are checked against the texts folded from
    the factors' state table."""
    return _interior_decomposition(factors)


def _interior_decomposition(factors: Sequence[Tree], table: _Table | None = None) -> InteriorDecomposition:
    """:func:`interior_decomposition`, from the factors' state ``table``
    when one is given."""
    ints = tuple(interior(t) for t in factors)
    max_tuples = {_name(c) for c in product(*(max_edges(t) for t in factors))}
    leaf_tuples = {_name(c) for c in product(*(t.leaves for t in factors))}
    boundary = tuple(sorted(max_tuples - leaf_tuples))
    pairs = tuple((b, add_stumps(b, boundary)) for b in shuffles(ints))
    direct = sorted(_shuffle_texts(_state_table(factors) if table is None else table))
    if direct != sorted(serialize_tree(c) for _, c in pairs):
        raise TreeError("interior decomposition failed to recover the shuffles")
    return InteriorDecomposition(ints, boundary, pairs)


Bracketing = int | Sequence["Bracketing"]


def _flatten_bracketing(br: Bracketing) -> list[int]:
    return [br] if isinstance(br, int) else [i for b in br for i in _flatten_bracketing(b)]


def _flatten_by(name: str, br: Bracketing) -> list[str]:
    """The factor edges of an edge of a nested shuffle at ``br``: ``name``
    is decoded only as deep as ``br`` nests, a factor's edge kept whole."""
    if isinstance(br, int):
        return [name]
    parts = decode(name) if len(br) > 1 else (name,)  # a lone block keeps its names
    return [e for part, b in zip(parts, br) for e in _flatten_by(part, b)]


def _rename(t: Tree, br: Bracketing) -> Tree:
    def flat(e: str) -> str:
        return _name(_flatten_by(e, br))

    return Tree(
        flat(t.root),
        tuple(
            Vertex(flat(v.out_edge), tuple(flat(d) for d in v.in_edges))
            for v in t.vertices
        ),
    )


@dataclass(frozen=True)
class AssocResult:
    """Nested shuffles (per a bracketing), flattened, sit inside the flat
    shuffles of the same factors; ``nested`` lists them, ``flat`` all of
    them, and every member of ``nested`` occurs in ``flat``."""

    nested: tuple[Tree, ...]
    flat: tuple[Tree, ...]
    unreached: tuple[str, ...]


def assoc_inclusion(factors: Sequence[Tree], bracketing: Bracketing) -> AssocResult:
    return _assoc_inclusion(factors, bracketing)


def _assoc_inclusion(factors: Sequence[Tree], bracketing: Bracketing, table: _Table | None = None) -> AssocResult:
    """:func:`assoc_inclusion`, its flat shuffles folded from the factors'
    state ``table`` when one is given."""
    order = _flatten_bracketing(bracketing)
    if order != list(range(len(factors))):
        raise TreeError(
            f"bracketing must cover factors 0..{len(factors) - 1} in order, got {order}"
        )
    if isinstance(bracketing, int) or len(list(bracketing)) < 2:
        raise TreeError("bracketing must group at least two blocks")

    def evaluate(br: Bracketing) -> list[Tree]:
        if isinstance(br, int):
            return [factors[br]]
        blocks = [evaluate(b) for b in br]
        out: list[Tree] = []
        for combo in product(*blocks):
            out.extend(shuffles(list(combo)))
        return out

    nested: dict[str, Tree] = {}
    for t in evaluate(bracketing):
        r = _rename(t, bracketing)
        nested[serialize_tree(r)] = r
    flat = _shuffle_trees(_state_table(factors) if table is None else table)
    flat_keys = {serialize_tree(t) for t in flat}
    unreached = tuple(sorted(k for k in nested if k not in flat_keys))
    return AssocResult(
        tuple(nested[k] for k in sorted(nested)), flat, unreached
    )


class BVTensorOperad(_CutOperad):
    """The tensor of trees as a finite operad: colors are the tuple edges of
    the shuffles, operations are the cuts of all shuffles with each cut
    appearing once.  Substitution is cut union, under which the family is
    closed.  Its table is the shuffle state table (:func:`_state_table`),
    built up front without any shuffle, so a lone factor is the free operad
    of that tree.  Entries are listed by sorted inputs; an unknown color
    lists nothing."""

    def __init__(self, factors: Sequence[Tree]):
        self.factors = tuple(factors)
        super().__init__(_state_table(self.factors))

    ops_by_output = _CutOperad.ops_by_output  # per class, for perfbench/tracer.py


class TensorHom(namedtuple("TensorHom", "colors components witness"), ForestInto):
    """A map from a probe tree into the shuffle tensor, a
    :class:`~dendrotensor.omegacat.ForestInto` whose colors are tuple edges
    and whose components are cuts, with ``witness``, the first shuffle that
    holds every edge image."""

    witness: Tree


def tensor_hom(
    probe: Tree, factors: Sequence[Tree], cap: int | None = None
) -> tuple[TensorHom, ...]:
    """All maps from the free operad of the tree ``probe`` into the tensor of
    the factors: the maps into :class:`BVTensorOperad`, sorted, each of
    which lands in a shuffle.  A forest probe is refused, as its components
    may land in different shuffles.  ``cap`` raises
    :class:`TreeError` when there are more maps than that, before any map
    or shuffle is built."""
    if not isinstance(probe, Tree):
        raise TreeError("tensor_hom takes a tree probe, not a forest")
    return _tensor_maps(probe, BVTensorOperad(factors), cap)


def _tensor_maps(probe: Tree, tensor: BVTensorOperad, cap: int | None = None) -> tuple[TensorHom, ...]:
    """:func:`tensor_hom` into ``tensor``, a built :class:`BVTensorOperad`,
    whose one state table gives both the operad and the witnesses."""
    maps = maps_into(probe, tensor, cap)
    trees = _shuffle_trees(tensor._states.items())
    out = []
    for m in sorted(maps):
        image = {c for _, c in m.colors}
        out.append(TensorHom(*m, next(a for a in trees if image <= a.edge_set)))
    return tuple(out)
