"""Finite pointed sets, finite colored operads, and the fiberwise calculus.

The first half implements pointed-set combinatorics on skeleta ``<n>``:
inert/active classification, the inert-active factorization, the collapse
maps ``rho(n, i)`` and the lexicographic smash product.

The second half implements finite colored operads as tables of operation
sets indexed by an input color multiset and an output color, with three
realizations: the free operad of a forest (operations are cuts), explicit
JSON-loadable tables, and the tensor of trees (the cuts of all shuffles,
each cut counted once).  On top of these sit:

* the fiberwise presentation of the category of operators: a morphism over
  a pointed map is a family of one operation per target element, composition
  is substitution, and inert maps act by restriction;
* :func:`check_fibrous`, which verifies at the set level that the
  presentation behaves fibrously, in three sections over one per-call hom
  memo (:class:`_Checks`): cocartesian lifts of inerts with their
  universal property, fibers decomposing as products, mapping into a tuple
  computed componentwise; :func:`check_category` over the same memo; and
  :func:`defect_fixtures`, five deliberately broken presentations;
* chains of the presentation over a level diagram, in bijection with maps
  out of the free operad of the diagram's forest, naturally in the diagram
  (:func:`precompose` reads images of cuts in a cut operad as cuts).  The
  chains are counted and listed from per-level tables (:func:`_chain_tables`,
  whose level 0 holds only the colorings with an arrow out); the nerve
  check walks those tables straight into the chains' images
  (:func:`_walk_images`), with no chain built;
* the two decompositions of maps out of a free forest operad: cutting a
  tree at an inner edge, and splitting a forest into its components;
* free algebra term sets with their symmetrization quotient; over a cut
  operad the terms are counted by ``omegacat._counts`` and only the cuts
  whose inputs all take an argument are folded (``omegacat._fold``).
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations_with_replacement, permutations, product
from operator import itemgetter
from random import Random
from typing import Any, NamedTuple

from .levelforest import STAR, FinSimplex, edge_name, restrict as restrict_simplex
from .omegacat import Operation, _counts, _edge_moves, _fold, _image, _is_cut_of, _operation, _rows_above
from .omegacat import ForestInto, OperadMap, _forest_into
from .shuffle import _state_table
from .treecore import Forest, Tree, TreeError, _cached, _checked_make, as_forest, cut_at, parse_forest, serialize_forest

__all__ = [
    "FinPtdObj",
    "FinPtdMor",
    "factorize",
    "rho",
    "smash",
    "FiniteOperad",
    "FreeForestOperad",
    "TableOperad",
    "BVTensorOperad",
    "EllObject",
    "EllMorphism",
    "ell_hom",
    "ell_identity",
    "ell_compose",
    "EllPresentation",
    "FibrousReport",
    "check_fibrous",
    "CategoryReport",
    "check_category",
    "defect_fixtures",
    "ForestInto",
    "maps_into",
    "Chain",
    "enumerate_chains",
    "chain_to_map",
    "map_to_chain",
    "restrict_chain",
    "precompose",
    "segal_cut_check",
    "segal_components_check",
    "FreeTerm",
    "free_algebra",
]

Elem = str | int
Label = Any


# ---------------------------------------------------------------------------
# pointed sets
# ---------------------------------------------------------------------------


class FinPtdObj(namedtuple("FinPtdObj", "elements")):
    """A finite pointed set, listed without its basepoint ``*``: the tuple
    ``(elements,)``, hashed and compared in C.  Its length is the number of
    elements."""

    elements: tuple[Elem, ...]
    _make = classmethod(_checked_make)

    def __new__(cls, elements: tuple[Elem, ...]) -> "FinPtdObj":
        if len(set(elements)) != len(elements):
            raise TreeError("pointed-set elements must be distinct")
        if STAR in elements:
            raise TreeError("'*' is the basepoint, not an element")
        return tuple.__new__(cls, (elements,))

    @staticmethod
    def skeleton(n: int) -> "FinPtdObj":
        """The skeleton ``<n>``, one shared object per ``n``, so that its
        positions and pointed set are built once for every user."""
        sk = _SKELETA.get(n)
        if sk is None:
            sk = _SKELETA[n] = FinPtdObj(tuple(range(1, n + 1)))
        return sk

    def __len__(self) -> int:
        return len(self.elements)

    @_cached
    def pointed(self) -> frozenset[Elem]:
        """The elements with the basepoint: the values a map into this set
        may take, built once for every map that checks them."""
        return frozenset(self.elements + (STAR,))

    @_cached
    def position(self) -> dict[Elem, int]:
        """Each element's index in ``elements``: where an object over this
        set keeps the element's colour."""
        return {x: i for i, x in enumerate(self.elements)}


_SKELETA: dict[int, FinPtdObj] = {}


class FinPtdMor(namedtuple("FinPtdMor", "src dst values")):
    """A pointed map, recorded on the non-basepoint source elements;
    ``values`` is aligned with ``src.elements`` and may hit ``STAR``.

    The tuple ``(src, dst, values)``, hashed and compared in C.  The
    constructor checks the values; maps built here skip it (``_ptd_mor``)."""

    src: FinPtdObj
    dst: FinPtdObj
    values: tuple[Elem, ...]
    _make = classmethod(_checked_make)

    def __init__(self, src: FinPtdObj, dst: FinPtdObj, values: tuple[Elem, ...]) -> None:
        if len(values) != len(src.elements):
            raise TreeError("pointed map must cover every source element")
        allowed = dst.pointed
        if not allowed.issuperset(values):
            bad = next(v for v in values if v not in allowed)
            raise TreeError(f"pointed map hits a non-element {bad!r}")

    @_cached
    def mapping(self) -> dict[Elem, Elem]:
        return dict(zip(self.src.elements, self.values))

    def __call__(self, x: Elem) -> Elem:
        return self.mapping[x]

    @_cached
    def fibers(self) -> dict[Elem, tuple[Elem, ...]]:
        """The fiber of every value hit (``STAR`` included), in source order."""
        out: dict[Elem, tuple[Elem, ...]] = {}
        for x, v in zip(self.src.elements, self.values):
            out[v] = out[v] + (x,) if v in out else (x,)
        return out

    def fiber(self, j: Elem) -> tuple[Elem, ...]:
        return self.fibers.get(j, ())

    @property
    def is_inert(self) -> bool:
        return all(len(self.fiber(j)) == 1 for j in self.dst.elements)

    @property
    def is_active(self) -> bool:
        return STAR not in self.values

    @property
    def is_identity(self) -> bool:
        return self.src == self.dst and self.values == self.src.elements

    @staticmethod
    def identity(x: FinPtdObj) -> "FinPtdMor":
        return _ptd_mor((x, x, x.elements))

    @_cached
    def _pointed_mapping(self) -> dict[Elem, Elem]:
        """``mapping`` with the basepoint sent to itself."""
        return dict(zip(self.src.elements + (STAR,), self.values + (STAR,)))

    def after(self, other: "FinPtdMor") -> "FinPtdMor":
        """Composite ``self ∘ other`` (basepoint absorbing)."""
        src, mid, values = other
        if mid is not self.src and mid != self.src:
            raise TreeError("pointed maps do not compose")
        return _ptd_mor((src, self.dst, tuple(map(self._pointed_mapping.__getitem__, values))))


# the trusted constructors: each builds its tuple from fields that are valid
# by construction, in C and without checking them again
_ptd_mor = partial(tuple.__new__, FinPtdMor)


def factorize(f: FinPtdMor) -> tuple[FinPtdMor, FinPtdMor]:
    """Split ``f`` as an inert map onto the skeleton of its survivors
    followed by an active map; composing the parts recovers ``f``."""
    survivors = [x for x, v in zip(f.src.elements, f.values) if v != STAR]
    mid = FinPtdObj.skeleton(len(survivors))
    index = {x: k + 1 for k, x in enumerate(survivors)}
    inert = FinPtdMor(f.src, mid, tuple(index.get(x, STAR) for x in f.src.elements))
    active = FinPtdMor(mid, f.dst, tuple(f.mapping[x] for x in survivors))
    return inert, active


def rho(n: int, i: int) -> FinPtdMor:
    """The inert collapse ``<n> -> <1>`` keeping only element ``i``."""
    if not 1 <= i <= n:
        raise TreeError(f"rho({n}, {i}) out of range")
    sk = FinPtdObj.skeleton(n)
    return _ptd_mor((sk, FinPtdObj.skeleton(1), tuple(1 if x == i else STAR for x in sk.elements)))


def smash(f: FinPtdMor, g: FinPtdMor) -> FinPtdMor:
    """Smash product of two maps between skeleta: pairs are ordered
    lexicographically, ``(i, j)`` of ``<m> ^ <n>`` being ``(i-1)n + j``."""
    for h in (f, g):
        for obj in (h.src, h.dst):
            if obj != FinPtdObj.skeleton(len(obj)):
                raise TreeError("smash is defined on skeleta")
    np_ = len(g.dst)
    values = []
    for i in f.src.elements:
        for j in g.src.elements:
            fi, gj = f(i), g(j)
            values.append(STAR if STAR in (fi, gj) else (fi - 1) * np_ + gj)
    return FinPtdMor(
        FinPtdObj.skeleton(len(f.src) * len(g.src)),
        FinPtdObj.skeleton(len(f.dst) * np_),
        tuple(values),
    )


# ---------------------------------------------------------------------------
# finite colored operads
# ---------------------------------------------------------------------------


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
    shuffle state table (``omegacat._edge_moves``)."""

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


class BVTensorOperad(_CutOperad):
    """The tensor of trees as a finite operad: colors are the tuple edges of
    the shuffles, operations are the cuts of all shuffles with each cut
    appearing once.  Substitution is cut union, under which the family is
    closed.  Its table is the shuffle state table (``shuffle._state_table``),
    built up front without any shuffle, so a lone factor is the free operad
    of that tree.  Entries are listed by sorted inputs; an unknown color
    lists nothing."""

    def __init__(self, factors: Sequence[Tree]):
        self.factors = tuple(factors)
        super().__init__(_state_table(self.factors))

    ops_by_output = _CutOperad.ops_by_output  # per class, for perfbench/tracer.py


# ---------------------------------------------------------------------------
# the fiberwise presentation
# ---------------------------------------------------------------------------


class EllObject(namedtuple("EllObject", "base colors")):
    """A pointed set with a color of the operad for each element: the tuple
    ``(base, colors)``, hashed and compared in C."""

    base: FinPtdObj
    colors: tuple[str, ...]
    _make = classmethod(_checked_make)

    def __new__(cls, base: FinPtdObj, colors: tuple[str, ...]) -> "EllObject":
        if len(colors) != len(base.elements):
            raise TreeError("need exactly one color per element")
        return tuple.__new__(cls, (base, colors))

    def color_of(self, x: Elem) -> str:
        return self.colors[self.base.position[x]]


class EllMorphism(namedtuple("EllMorphism", "alpha src dst components")):
    """A morphism over a pointed map: one operation per target element,
    accepting the colors of that element's fiber.  The tuple ``(alpha,
    src, dst, components)``, hashed and compared in C."""

    alpha: FinPtdMor
    src: EllObject
    dst: EllObject
    components: tuple[tuple[Elem, Label], ...]

    @_cached
    def component(self) -> dict[Elem, Label]:
        return dict(self.components)


_ell_obj = partial(tuple.__new__, EllObject)
_ell_mor = partial(tuple.__new__, EllMorphism)


def _choices(
    p: FiniteOperad, gamma: FinPtdMor, src: EllObject
) -> list[list[tuple[Elem, str, Label]]]:
    """For each target element ``k`` of ``gamma``, every ``(k, output color,
    operation)`` choice accepting the colors of ``k``'s fiber in ``src``."""
    pos, colors, fibers = src.base.position, src.colors, gamma.fibers
    return [
        [
            (k, c, lab)
            for c, lab in p.ops_for_inputs([colors[pos[i]] for i in fibers.get(k, ())])
        ]
        for k in gamma.dst.elements
    ]


def _arrow(
    gamma: FinPtdMor, src: EllObject, combo: Sequence[tuple[Elem, str, Label]]
) -> tuple[EllObject, EllMorphism]:
    """The target and the morphism out of ``src`` over ``gamma`` given by one
    :func:`_choices` entry per target element."""
    dst = _ell_obj((gamma.dst, tuple([c for _, c, _ in combo])))
    return dst, _ell_mor((gamma, src, dst, tuple([(k, lab) for k, _, lab in combo])))


def ell_hom(
    p: FiniteOperad, alpha: FinPtdMor, src: EllObject, dst: EllObject
) -> tuple[EllMorphism, ...]:
    """All morphisms from ``src`` to ``dst`` over ``alpha``: the product over
    target elements of the operation sets at the fiber colorings (empty as
    soon as one of those sets is)."""
    (a_src, a_dst, _), (s_base, colors), (d_base, d_colors) = alpha, src, dst
    if (a_src is not s_base and a_src != s_base) or (a_dst is not d_base and a_dst != d_base):
        raise TreeError("objects do not sit over the pointed map")
    pos, fibers, targets = s_base.position, alpha.fibers, d_base.elements
    per_elem = []
    for j, color in zip(targets, d_colors):
        labels = p.ops([colors[pos[i]] for i in fibers.get(j, ())], color)
        if not labels:
            return ()
        per_elem.append(labels)
    return tuple([_ell_mor((alpha, src, dst, tuple(zip(targets, combo))))
                  for combo in product(*per_elem)])


def ell_identity(p: FiniteOperad, x: EllObject) -> EllMorphism:
    base, colors = x
    comps = tuple(zip(base.elements, map(p.identity, colors)))
    return _ell_mor((FinPtdMor.identity(base), x, x, comps))


def ell_compose(p: FiniteOperad, g: EllMorphism, f: EllMorphism) -> EllMorphism:
    """The composite ``g`` after ``f``: substitute the components of ``f``
    into each component of ``g`` along the fibers of ``g``'s map."""
    (g_alpha, mid, g_dst, _), (f_alpha, f_src, f_dst, _) = g, f
    if f_dst is not mid and f_dst != mid:
        raise TreeError("fiberwise morphisms do not compose")
    pos, colors, fibers = mid.base.position, mid.colors, g_alpha.fibers
    f_comp, g_comp, subst = f.component, g.component, p.subst
    comps = []
    for k in g_dst.base.elements:
        args = {colors[pos[j]]: f_comp[j] for j in fibers.get(k, ())}
        comps.append((k, subst(g_comp[k], args)))
    return _ell_mor((g_alpha.after(f_alpha), f_src, g_dst, tuple(comps)))


class EllPresentation:
    """The fiberwise presentation of a finite operad, as the checks see it.

    Every listing, composition, and lift the fibrous checks use goes
    through these methods.  ``admit`` gives the multiplicity with which a
    structurally valid morphism is listed — always 1 here; the defect
    fixtures override it (or ``compose`` / ``inert_lift``) to misbehave in
    controlled ways.
    """

    def __init__(self, p: FiniteOperad):
        self.operad = p

    def admit(
        self, alpha: FinPtdMor, src: EllObject, dst: EllObject, mor: EllMorphism
    ) -> int:
        return 1

    def hom(
        self, alpha: FinPtdMor, src: EllObject, dst: EllObject
    ) -> tuple[EllMorphism, ...]:
        out = []
        for m in ell_hom(self.operad, alpha, src, dst):
            out.extend([m] * self.admit(alpha, src, dst, m))
        return tuple(out)

    def arrows_from(
        self, gamma: FinPtdMor, src: EllObject
    ) -> tuple[tuple[EllObject, EllMorphism], ...]:
        """Every morphism out of ``src`` over ``gamma`` paired with its
        target, targets enumerated by reachability (one ``(output color,
        operation)`` choice per target element)."""
        if gamma.src != src.base:
            raise TreeError("source object does not sit over the map")
        return self._admitted(gamma, src, _choices(self.operad, gamma, src))

    def _admitted(
        self, gamma: FinPtdMor, src: EllObject, choices: list[list[tuple[Elem, str, Label]]]
    ) -> tuple[tuple[EllObject, EllMorphism], ...]:
        """The arrows of :meth:`arrows_from`, from its :func:`_choices`."""
        out = []
        for combo in product(*choices):
            dst, mor = _arrow(gamma, src, combo)
            out.extend([(dst, mor)] * self.admit(gamma, src, dst, mor))
        return tuple(out)

    def compose(self, g: EllMorphism, f: EllMorphism) -> EllMorphism:
        return ell_compose(self.operad, g, f)

    def inert_lift(self, alpha: FinPtdMor, src: EllObject) -> EllMorphism:
        """The canonical lift of an inert map out of ``src``: restrict the
        coloring and use identity operations."""
        if not alpha.is_inert:
            raise TreeError("lifts are taken over inert maps only")
        targets = alpha.dst.elements
        colors = tuple([src.color_of(alpha.fiber(j)[0]) for j in targets])
        dst = _ell_obj((alpha.dst, colors))
        return _ell_mor((alpha, src, dst, tuple(zip(targets, map(self.operad.identity, colors)))))


# ---------------------------------------------------------------------------
# fibrous checks
# ---------------------------------------------------------------------------


@dataclass
class FibrousReport:
    cocartesian_checked: int = 0
    fiber_products_checked: int = 0
    component_formulas_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


class _PointedMaps(Sequence):
    """Every pointed map from ``src`` into each of ``dsts`` in turn, each
    block in the order ``product`` lists the value tuples (``STAR`` last
    among the choices).  The ``i``-th map is decoded from ``i`` when asked
    for, so sampling a few maps builds only those; ``Random.sample`` draws
    its indices from ``len`` alone and picks the same maps as it would from
    the materialized list."""

    def __init__(self, src: FinPtdObj, dsts: Sequence[FinPtdObj]):
        self.src = src
        # per target: its size and the values a map may take, STAR last
        self.blocks = tuple(
            (dst, (len(dst) + 1) ** len(src), dst.elements + (STAR,)) for dst in dsts
        )
        self.size = sum(n for _, n, _ in self.blocks)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> FinPtdMor:
        if not 0 <= i < self.size:
            raise IndexError("pointed map index out of range")
        for dst, n, choices in self.blocks:
            if i >= n:
                i -= n
                continue
            base = len(choices)
            values = []
            for _ in self.src.elements:
                i, digit = divmod(i, base)
                values.append(choices[digit])
            values.reverse()
            return _ptd_mor((self.src, dst, tuple(values)))


class _Inerts(Sequence):
    """Every inert map out of ``src``: for ``k = 0, ..., |src|`` in turn,
    one per ordered choice of ``k`` kept elements, in the order
    ``permutations`` lists them, the ``j``-th kept element sent to ``j``.
    As in :class:`_PointedMaps`, the ``i``-th map is decoded from ``i`` when
    asked for, so ``Random.sample`` picks the maps of the listed blocks
    while building only those it picks."""

    def __init__(self, src: FinPtdObj):
        self.src = src
        self.blocks = tuple(math.perm(len(src), k) for k in range(len(src) + 1))
        self.size = sum(self.blocks)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> FinPtdMor:
        if not 0 <= i < self.size:
            raise IndexError("inert map index out of range")
        k = 0
        while i >= self.blocks[k]:
            i -= self.blocks[k]
            k += 1
        rest = list(self.src.elements)
        index = {}
        for j in range(1, k + 1):  # the j-th kept element, ranked among the rest
            digit, i = divmod(i, math.perm(len(rest) - 1, k - j))
            index[rest.pop(digit)] = j
        values = tuple(index.get(x, STAR) for x in self.src.elements)
        return _ptd_mor((self.src, FinPtdObj.skeleton(k), values))


def _sample(rng: Random, pool: Sequence, k: int) -> list:
    """``rng.sample(pool, k)``, or all of ``pool`` when it has at most ``k``
    members.  The sample is drawn on the indices, which takes the same
    draws and picks the same positions (``Random.sample`` copies a small
    pool into a list first), so only the picked members are read."""
    if len(pool) <= k:
        return list(pool)
    return [pool[i] for i in rng.sample(range(len(pool)), k)]


def _coloring_pool(
    colors: Sequence[str], rng: Random, m: int, k: int
) -> list[tuple[str, ...]]:
    if not colors:
        return []
    total = len(colors) ** m
    if total <= k:
        return list(product(colors, repeat=m))
    # 3k colourings, each colour drawn as ``rng.choice(colors)`` draws it
    n, draw, bits = len(colors), rng.getrandbits, len(colors).bit_length()
    drawn = []
    for _ in range(3 * k * m):
        r = draw(bits)
        while r >= n:
            r = draw(bits)
        drawn.append(colors[r])
    return _sample(rng, sorted(set(zip(*[iter(drawn)] * m))), k)


def _sampled_arrows(
    pres: EllPresentation,
    rng: Random,
    gamma: FinPtdMor,
    src: EllObject,
    budget: int,
) -> list[tuple[EllObject, EllMorphism]]:
    """Morphisms out of ``src`` over ``gamma``: all of them when few, else a
    random selection assembled choice-by-choice."""
    choices = _choices(pres.operad, gamma, src)
    if math.prod(len(opts) for opts in choices) <= budget:
        return list(pres._admitted(gamma, src, choices))
    return [_arrow(gamma, src, [rng.choice(opts) for opts in choices]) for _ in range(budget)]


def check_fibrous(
    pres: EllPresentation,
    truncation: int = 4,
    rng: Random | None = None,
    *,
    colorings_per_shape: int = 2,
    inerts_per_shape: int = 4,
    betas_per_lift: int = 4,
    arrows_budget: int = 8,
    pairs_per_fiber: int = 3,
    max_failures: int = 25,
    stop_on_failure: bool = False,
) -> FibrousReport:
    """Verify, on finite sets, that the presentation behaves like the
    category of operators of an operad over pointed sets, in three
    sections run in this order:

    * every inert map has its canonical lift listed, and every morphism out
      of the lift's source factors uniquely through the lift (checked
      against all compatible test arrows up to ``truncation``, sampling
      colorings and arrows under the given budgets;
      :func:`_lift_failures`);
    * morphisms over an identity are exactly tuples of morphisms between
      the restrictions to single elements, via the collapse lifts
      (:func:`_fiber_failures`);
    * morphisms into an object over ``<m>`` are computed componentwise
      through the collapse lifts (:func:`_component_failures`).

    The report keeps the first ``max_failures`` failures.  With
    ``stop_on_failure`` it is returned as soon as the first failure is
    recorded: it then holds that one failure, the full run's first, and
    counts only the checks made up to it; use it when only
    ``report.passed`` is read.  A ``truncation`` below 0, or a sampling
    budget or ``max_failures`` below 1, which would run no check of some
    kind or keep no failure and so pass vacuously, raises
    :class:`TreeError`.

    The sections share one :class:`_Checks`, whose memo lists each hom at
    most once per call.  Random draws and comparisons are those of listing
    every hom afresh.
    """
    _check_budgets(
        "check_fibrous",
        truncation,
        colorings_per_shape=colorings_per_shape,
        inerts_per_shape=inerts_per_shape,
        betas_per_lift=betas_per_lift,
        arrows_budget=arrows_budget,
        pairs_per_fiber=pairs_per_fiber,
        max_failures=max_failures,
    )
    ctx = _Checks(pres, FibrousReport(), truncation, rng)
    failures = chain(
        _lift_failures(ctx, colorings_per_shape, inerts_per_shape, betas_per_lift, arrows_budget),
        _fiber_failures(ctx, pairs_per_fiber),
        _component_failures(ctx, colorings_per_shape, betas_per_lift),
    )
    return _gathered(ctx.report, failures, max_failures, stop_on_failure)


def _check_budgets(check: str, truncation: int, **budgets: int) -> None:
    """Refuse a truncation below 0, or a budget below 1, which would run no
    check of some kind or keep no failure and so pass vacuously."""
    if truncation < 0:
        raise TreeError(f"{check} needs truncation >= 0, got {truncation}")
    for name, value in budgets.items():
        if value < 1:
            raise TreeError(f"{check} needs {name} >= 1, got {value}")


def _gathered(report: Any, failures: Iterator[str], max_failures: int, stop_on_failure: bool) -> Any:
    """``report`` with the first ``max_failures`` of ``failures`` kept, or
    only the first one with ``stop_on_failure``, which then stops the
    checks there."""
    for msg in failures:
        if len(report.failures) < max_failures:
            report.failures.append(msg)
        if stop_on_failure:
            break
    return report


class _Checks:
    """One call of :func:`check_fibrous` or :func:`check_category`, shared
    by its sections: the presentation, the report whose counters they
    raise, the generator, the truncation, the operad's colours, the skeleta
    ``<0>`` to ``<truncation>``, and the call's hom memo.

    Each hom ``pres.hom(alpha, src, dst)`` is listed at most once per call:
    the memo, keyed by the caller's tuple ``(alpha, src, dst)`` (hashed in
    C), keeps the listing with its multiplicities (counts use it, so a
    family listed twice, as in the ``duplicate-family`` fixture, still
    counts twice) and, once membership is asked, the set of its morphisms.
    The memo goes with the call."""

    def __init__(self, pres: EllPresentation, report: Any, truncation: int, rng: Random | None) -> None:
        self.pres, self.report, self.truncation, self.rng = pres, report, truncation, rng or Random(0)
        self.colors = pres.operad.colors()
        self.skeleta = [FinPtdObj.skeleton(m) for m in range(truncation + 1)]
        self._listings: dict[tuple, tuple[EllMorphism, ...]] = {}
        self._members: dict[tuple, frozenset[EllMorphism]] = {}

    def listed(self, alpha: FinPtdMor, src: EllObject, dst: EllObject) -> tuple[EllMorphism, ...]:
        key = (alpha, src, dst)
        found = self._listings.get(key)
        if found is None:
            found = self._listings[key] = self.pres.hom(alpha, src, dst)
        return found

    def has(self, alpha: FinPtdMor, src: EllObject, dst: EllObject, mor: EllMorphism) -> bool:
        """Whether ``mor`` is listed in the hom ``(alpha, src, dst)``."""
        key = (alpha, src, dst)
        found = self._members.get(key)
        if found is None:
            found = self._members[key] = frozenset(self.listed(alpha, src, dst))
        return mor in found


def _lift_failures(
    ctx: _Checks, colorings_per_shape: int, inerts_per_shape: int, betas_per_lift: int, arrows_budget: int
) -> Iterator[str]:
    """Cocartesian lifts of inerts and their universal property, counted
    in ``cocartesian_checked``: each failure yielded when found."""
    pres, rng, listed, has = ctx.pres, ctx.rng, ctx.listed, ctx.has
    for m, src_base in enumerate(ctx.skeleta):
        inerts = _Inerts(src_base)
        for c in _coloring_pool(ctx.colors, rng, m, colorings_per_shape):
            x = _ell_obj((src_base, c))
            for alpha in _sample(rng, inerts, inerts_per_shape):
                lift = pres.inert_lift(alpha, x)
                ctx.report.cocartesian_checked += 1
                if not has(alpha, x, lift.dst, lift):
                    yield (
                        f"lift over {alpha.values} from colors {c} is not "
                        "among the listed morphisms"
                    )
                    continue
                y = lift.dst
                for beta in _sample(rng, _PointedMaps(y.base, ctx.skeleta), betas_per_lift):
                    gamma = beta.after(alpha)
                    # per target: how often each composite ``g ∘ lift`` occurs
                    through_lift: dict[EllObject, Counter[EllMorphism]] = {}
                    for z_obj, h in _sampled_arrows(pres, rng, gamma, x, arrows_budget):
                        if not has(gamma, x, z_obj, h):
                            yield (
                                f"componentwise morphism over {gamma.values} "
                                f"from colors {c} is not listed"
                            )
                            continue
                        if z_obj not in through_lift:
                            through_lift[z_obj] = Counter(
                                pres.compose(g, lift) for g in listed(beta, y, z_obj)
                            )
                        matches = through_lift[z_obj][h]
                        if matches != 1:
                            yield (
                                f"universal property: {matches} factorizations "
                                f"over beta={beta.values} of a morphism over "
                                f"{gamma.values} through the lift over "
                                f"{alpha.values} from colors {c}"
                            )


def _fiber_failures(ctx: _Checks, pairs_per_fiber: int) -> Iterator[str]:
    """Fibres over ``<m>`` as products of fibres over ``<1>``, counted in
    ``fiber_products_checked``: each failure yielded when found.  Every
    morphism's projections are composed, even after one that is not
    listed."""
    pres, rng, listed, has = ctx.pres, ctx.rng, ctx.listed, ctx.has
    one = FinPtdObj.skeleton(1)
    id_one = FinPtdMor.identity(one)
    for m in range(1, ctx.truncation + 1):
        base = ctx.skeleta[m]
        ident = FinPtdMor.identity(base)
        rhos = [rho(m, i) for i in base.elements]
        pool = _coloring_pool(ctx.colors, rng, m, 2 * pairs_per_fiber)
        pairs = [(a, b) for a in pool for b in pool]
        for c, d in _sample(rng, pairs, pairs_per_fiber):
            x, y = _ell_obj((base, c)), _ell_obj((base, d))
            ctx.report.fiber_products_checked += 1
            lhs = listed(ident, x, y)
            factors = [
                (_ell_obj((one, (c[i],))), _ell_obj((one, (d[i],)))) for i in range(m)
            ]
            expected = math.prod(len(listed(id_one, xi, yi)) for xi, yi in factors)
            if len(lhs) != expected:
                yield (
                    f"fiber over <{m}> at colors {c} -> {d}: {len(lhs)} "
                    f"morphisms, expected the product {expected}"
                )
                continue
            lifts = [pres.inert_lift(r, y) for r in rhos]
            seen = set()
            ok = True
            for g in lhs:
                projections = []
                for lift_i, (xi, yi) in zip(lifts, factors):
                    gi = pres.compose(lift_i, g)
                    single = _ell_mor(
                        (id_one, xi, _ell_obj((one, (gi.dst.colors[0],))), ((1, gi.component[1]),))
                    )
                    if not has(id_one, xi, yi, single):
                        ok = False
                    projections.append(gi)
                seen.add(tuple(projections))
            if not ok or len(seen) != len(lhs):
                yield (
                    f"fiber projections over <{m}> at colors {c} -> {d} "
                    "are not jointly bijective"
                )


def _component_failures(ctx: _Checks, colorings_per_shape: int, betas_per_lift: int) -> Iterator[str]:
    """Maps into a tuple computed componentwise through the collapse lifts,
    counted in ``component_formulas_checked``: each failure yielded when
    found.  A morphism's projections stop at the first that is not
    listed."""
    pres, rng, listed, has = ctx.pres, ctx.rng, ctx.listed, ctx.has
    for m in range(1, ctx.truncation + 1):
        tuple_base = ctx.skeleta[m]
        rhos = [rho(m, i) for i in tuple_base.elements]
        for c_x in _coloring_pool(ctx.colors, rng, m, colorings_per_shape):
            x = _ell_obj((tuple_base, c_x))
            lifts = [pres.inert_lift(r, x) for r in rhos]
            for ym, y_base in enumerate(ctx.skeleta):
                for f in _sample(rng, _PointedMaps(y_base, (tuple_base,)), betas_per_lift):
                    legs = [(r.after(f), lift.dst) for r, lift in zip(rhos, lifts)]
                    for c_y in _coloring_pool(ctx.colors, rng, ym, colorings_per_shape):
                        y = _ell_obj((y_base, c_y))
                        ctx.report.component_formulas_checked += 1
                        lhs = listed(f, y, x)
                        expected = math.prod(len(listed(leg, y, z)) for leg, z in legs)
                        if len(lhs) != expected:
                            yield (
                                f"componentwise count over f={f.values} into "
                                f"colors {c_x}: {len(lhs)} vs {expected}"
                            )
                            continue
                        seen = set()
                        ok = True
                        for g in lhs:
                            tup = []
                            for lift, (leg, z) in zip(lifts, legs):
                                gi = pres.compose(lift, g)
                                if not has(leg, y, z, gi):
                                    ok = False
                                    break
                                tup.append(gi)
                            else:
                                seen.add(tuple(tup))
                        if not ok or len(seen) != len(lhs):
                            yield (
                                f"componentwise projections over f={f.values} "
                                f"into colors {c_x} are not jointly bijective"
                            )


# -- the category check ------------------------------------------------------


@dataclass
class CategoryReport:
    identities_checked: int = 0
    units_checked: int = 0
    pairs_checked: int = 0
    triples_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_category(
    pres: EllPresentation,
    truncation: int = 2,
    rng: Random | None = None,
    *,
    max_failures: int = 25,
    stop_on_failure: bool = False,
) -> CategoryReport:
    """Verify, on objects over ``<m>`` for ``m`` up to ``truncation``, that
    the presentation is a category, which :func:`check_fibrous` takes for
    granted:

    * the identity (:func:`ell_identity`) of each object is listed, and is
      a unit on both sides for each morphism out of the object;
    * the composite of each composable pair is listed, over the composite
      pointed map, from the first source to the second target;
    * composition is associative on triples.

    Every coloring of every ``<m>`` is an object, and the morphisms out of
    an object are those :meth:`EllPresentation.arrows_from` lists over
    every pointed map into the skeleta up to ``truncation``.  Every
    morphism out of an object is paired with every morphism out of its
    target, and each pair with one morphism out of the pair's target,
    drawn with ``rng``, since all triples are several times as many.
    Failures are kept as :func:`check_fibrous` keeps them, and homs are
    listed through the same :class:`_Checks` memo; a ``truncation`` below 0
    or a ``max_failures`` below 1 raises :class:`TreeError`.
    """
    _check_budgets("check_category", truncation, max_failures=max_failures)
    ctx = _Checks(pres, CategoryReport(), truncation, rng)
    return _gathered(ctx.report, _category_failures(ctx), max_failures, stop_on_failure)


def _category_failures(ctx: _Checks) -> Iterator[str]:
    """The checks of :func:`check_category`, each failure yielded when
    found and the report's counters raised as the checks are made."""
    p, compose, has, report = ctx.pres.operad, ctx.pres.compose, ctx.has, ctx.report
    listed_out: dict[EllObject, list[EllMorphism]] = {}

    def out_of(x: EllObject) -> list[EllMorphism]:
        found = listed_out.get(x)
        if found is None:
            found = listed_out[x] = [
                mor for gamma in _PointedMaps(x.base, ctx.skeleta) for _, mor in ctx.pres.arrows_from(gamma, x)
            ]
        return found

    def closed(g: EllMorphism, f: EllMorphism) -> EllMorphism | None:
        """``g ∘ f`` when it is listed over the composite map, from ``f``'s
        source to ``g``'s target; else ``None``."""
        gf = compose(g, f)
        if gf[:3] == (g.alpha.after(f.alpha), f.src, g.dst) and has(*gf[:3], gf):
            return gf
        return None

    def unlisted(g: EllMorphism, f: EllMorphism) -> str:
        return (
            f"the composite of morphisms over {f.alpha.values} and "
            f"{g.alpha.values} from colors {f.src.colors} is not listed"
        )

    for m, base in enumerate(ctx.skeleta):
        for c in product(ctx.colors, repeat=m):
            x = _ell_obj((base, c))
            ident = ell_identity(p, x)
            report.identities_checked += 1
            if not has(*ident[:3], ident):
                yield f"the identity of colors {c} is not listed"
            for f in out_of(x):
                report.units_checked += 1
                if compose(f, ident) != f or compose(ell_identity(p, f.dst), f) != f:
                    yield (
                        f"the identities are not units for a morphism over "
                        f"{f.alpha.values} from colors {c}"
                    )
                for g in out_of(f.dst):
                    report.pairs_checked += 1
                    gf = closed(g, f)
                    if gf is None:
                        yield unlisted(g, f)
                        continue
                    for h in _sample(ctx.rng, out_of(g.dst), 1):
                        report.triples_checked += 1
                        hg = closed(h, g)
                        if hg is None:
                            yield unlisted(h, g)
                        elif compose(h, gf) != compose(hg, f):
                            yield (
                                f"composition is not associative over {f.alpha.values}, "
                                f"{g.alpha.values} and {h.alpha.values} from colors {c}"
                            )


# -- defect fixtures ---------------------------------------------------------


class _DropBinaryCollapse(EllPresentation):
    """Silently forgets every morphism over an active map ``<2> -> <1>``."""

    def admit(self, alpha, src, dst, mor):  # noqa: D102
        if alpha.is_active and len(alpha.src) == 2 and len(alpha.dst) == 1:
            return 0
        return 1


class _DropRestrictionFamilies(EllPresentation):
    """Forgets the identity-component morphisms over proper inert maps."""

    def admit(self, alpha, src, dst, mor):  # noqa: D102
        if alpha.is_inert and not alpha.is_identity:
            idents = [
                self.operad.identity(dst.color_of(k)) for k, _ in mor.components
            ]
            if [lab for _, lab in mor.components] == idents:
                return 0
        return 1


class _DuplicateActiveFamilies(EllPresentation):
    """Lists every morphism over a proper active map twice."""

    def admit(self, alpha, src, dst, mor):  # noqa: D102
        if alpha.is_active and not alpha.is_identity:
            return 2
        return 1


class _ForgetfulCompose(EllPresentation):
    """Composition that collapses the first non-identity component to an
    identity of the right output color."""

    def compose(self, g, f):  # noqa: D102
        honest = super().compose(g, f)
        comps = list(honest.components)
        for i, (k, lab) in enumerate(comps):
            ident = self.operad.identity(honest.dst.color_of(k))
            if lab != ident:
                comps[i] = (k, ident)
                return EllMorphism(
                    honest.alpha, honest.src, honest.dst, tuple(comps)
                )
        return honest


class _SkewLift(EllPresentation):
    """Inert lifts that sneak in a non-identity unary operation whenever the
    operad has one available."""

    def inert_lift(self, alpha, src):  # noqa: D102
        honest = super().inert_lift(alpha, src)
        colors = list(honest.dst.colors)
        comps = list(honest.components)
        for i, (k, lab) in enumerate(comps):
            c = colors[i]
            for out_color, cand in self.operad.ops_for_inputs((c,)):
                if cand != self.operad.identity(c) or out_color != c:
                    colors[i] = out_color
                    comps[i] = (k, cand)
                    dst = EllObject(honest.dst.base, tuple(colors))
                    return EllMorphism(alpha, src, dst, tuple(comps))
        return honest


def defect_fixtures() -> tuple[tuple[str, EllPresentation], ...]:
    """Five presentations over one small free forest operad, each broken in
    one way the fibrous checks must detect: a forgotten family over an
    active collapse, forgotten restriction morphisms over inerts, a
    duplicated family, a lossy composition, and a skewed inert lift."""
    base = parse_forest("{r[a[x],b[]]}")
    return (
        ("drop-active-family", _DropBinaryCollapse(FreeForestOperad(base))),
        ("drop-restrictions", _DropRestrictionFamilies(FreeForestOperad(base))),
        ("duplicate-family", _DuplicateActiveFamilies(FreeForestOperad(base))),
        ("lossy-compose", _ForgetfulCompose(FreeForestOperad(base))),
        ("skew-lift", _SkewLift(FreeForestOperad(base))),
    )


# ---------------------------------------------------------------------------
# maps out of free forest operads, chains, and the nerve bijection
# ---------------------------------------------------------------------------


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


class Chain(namedtuple("Chain", "simplex objects arrows")):
    """A chain of fiberwise morphisms lying over a level diagram: the tuple
    ``(simplex, objects, arrows)``, hashed and compared in C."""

    simplex: FinSimplex
    objects: tuple[EllObject, ...]
    arrows: tuple[EllMorphism, ...]


_chain = partial(tuple.__new__, Chain)


def _pointed_levels(a: FinSimplex) -> tuple[tuple[FinPtdObj, ...], tuple[FinPtdMor, ...]]:
    """The levels of ``a`` as pointed sets and its maps between them; read
    through :attr:`FinSimplex.pointed_levels`, which keeps them on ``a``."""
    xs = tuple(FinPtdObj(tuple(lev)) for lev in a.levels)
    out = []
    for i in range(a.n):
        step = a.alpha(i + 1)
        out.append(
            FinPtdMor(xs[i], xs[i + 1], tuple(step[b] for b in xs[i].elements))
        )
    return xs, tuple(out)


class _ChainTables(NamedTuple):
    """What :func:`_walk_chains` lists the chains over ``simplex`` from,
    built by :func:`_chain_tables`."""

    simplex: FinSimplex
    bottom: tuple[EllObject, ...]  # the level-0 objects that start a chain
    # per level, by coloring: the (target, arrow) pairs that reach the top
    levels: list[dict[tuple[str, ...], list[tuple[EllObject, EllMorphism]]]]
    total: int  # how many chains the walk lists


def _live_colorings(
    colors: Sequence[str], width: int, slots: list[tuple[list[int], list[tuple[str, ...]]]]
) -> list[tuple[str, ...]]:
    """The colorings of ``width`` positions by ``colors`` whose colors at
    each slot's positions (disjoint lists) are one of the slot's keys, in
    ``product(colors, repeat=width)`` order; a position in no slot takes
    any color.  Built from the slots' keys, so no other coloring is met."""
    placed = [j for fib, _ in slots for j in fib]
    free = sorted(set(range(width)).difference(placed))
    slots = slots + [(free, list(product(colors, repeat=len(free))))]
    place = _gather(sorted(range(width), key=[*placed, *free].__getitem__))
    rank = {c: r for r, c in enumerate(colors)}
    rows = [place(tuple(chain.from_iterable(combo))) for combo in product(*[keys for _, keys in slots])]
    return sorted(rows, key=lambda row: [rank[c] for c in row])


def _chain_tables(p: FiniteOperad, a: FinSimplex, cap: int | None = None) -> _ChainTables:
    """The tables :func:`enumerate_chains` walks: the arrows out of each
    coloring of a level, built once, level by level: each target's choices
    once per fiber colors, each target object once, looked up by its colors
    before it is built.  Level 0 lists its live colorings only, those with
    an arrow out (each target's fiber colors accepted by an operation, an
    empty fiber's by a nullary one; dying elements take any color), read
    from each target's live fiber colors; a diagram of one level lists
    every coloring.  Counting the chains from each coloring, top level
    down, keeps only the arrows that reach the top level, and a ``cap``
    below the total raises :class:`TreeError` before any chain is built."""
    xs, als = a.pointed_levels
    cols = p.colors()

    def choices(key: tuple[str, ...], k: Elem, seen: dict) -> list:
        opts = seen.get(key)
        if opts is None:
            opts = seen[key] = [(c, (k, lab)) for c, lab in p.ops_for_inputs(list(key))]
        return opts

    # per level and target: its fiber's positions, and its choices by fiber colors
    targets = [
        [([xs[i].position[x] for x in gamma.fibers.get(k, ())], k, {}) for k in gamma.dst.elements]
        for i, gamma in enumerate(als)
    ]
    width = len(xs[0].elements)
    if als:
        live = [(fib, [key for key in product(cols, repeat=len(fib)) if choices(key, k, seen)])
                for fib, k, seen in targets[0]]
        colorings = _live_colorings(cols, width, live)
    else:
        colorings = product(cols, repeat=width)
    objs = {c: _ell_obj((xs[0], c)) for c in colorings}
    bottom = list(objs.values())
    out: list[dict[tuple[str, ...], list[tuple[EllObject, EllMorphism]]]] = []  # per level, by coloring
    for gamma, level_targets in zip(als, targets):
        above: dict[tuple[str, ...], EllObject] = {}
        level = {}
        for colors, obj in objs.items():
            arrows = level[colors] = []
            per_target = []
            for fib, k, seen in level_targets:
                opts = choices(tuple([colors[j] for j in fib]), k, seen)
                if not opts:
                    break
                per_target.append(opts)
            else:
                for combo in product(*per_target):
                    dst_colors, comps = zip(*combo) if combo else ((), ())
                    dst = above.get(dst_colors)
                    if dst is None:
                        dst = above[dst_colors] = _ell_obj((gamma.dst, dst_colors))
                    arrows.append((dst, _ell_mor((gamma, obj, dst, comps))))
        out.append(level)
        objs = above
    count = dict.fromkeys(objs, 1)  # chains from each coloring of the level
    for level in reversed(out):
        below, count = count, {}
        for colors, arrows in level.items():
            arrows[:] = [(dst, mor) for dst, mor in arrows if below[dst.colors]]
            count[colors] = sum(below[dst.colors] for dst, _ in arrows)
    total = sum(count.values())
    if cap is not None and total > cap:
        raise TreeError(f"chain enumeration would produce {total} > cap {cap}")
    return _ChainTables(a, tuple(obj for obj in bottom if count[obj.colors]), out, total)


def _walk_chains(tables: _ChainTables) -> Iterator[Chain]:
    """The chains of ``tables``, depth first in ``product`` order, each
    built when it is reached; only the partial chains on the stack are
    kept."""
    a, bottom, levels, _ = tables
    stack = [((obj,), ()) for obj in reversed(bottom)]
    while stack:
        objects, arrows = stack.pop()
        if len(arrows) == len(levels):
            yield Chain(a, objects, arrows)
            continue
        stack += [
            (objects + (dst,), arrows + (mor,))
            for dst, mor in reversed(levels[len(arrows)][objects[-1].colors])
        ]


def _walk_images(tables: _ChainTables) -> Iterator[ForestInto]:
    """The images under :func:`chain_to_map` of the chains of ``tables``,
    in the order of :func:`_walk_chains`, with no chain built: each stack
    node carries the color and component pairs of its prefix, an object's
    from :func:`_object_pairs` and an arrow's from :func:`_level_pairs`
    when the node is pushed."""
    a, bottom, levels, _ = tables
    names, top = a.edge_names, len(levels)
    image = ForestInto.build if top > 9 else lambda colors, comps: _forest_into((colors, comps))
    stack = [(0, obj.colors, _object_pairs(a, 0, obj.colors), ()) for obj in reversed(bottom)]
    while stack:
        i, cs, colors, comps = stack.pop()
        if i == top:
            yield image(colors, comps)
            continue
        j = i + 1
        stack += [
            (j, dst.colors, colors + _object_pairs(a, j, dst.colors),
             comps + _level_pairs(names[j], j, mor.components))
            for dst, mor in reversed(levels[i][cs])
        ]


def enumerate_chains(
    p: FiniteOperad, a: FinSimplex, cap: int | None = None
) -> tuple[Chain, ...]:
    """All chains over the level diagram: a coloring of the bottom level,
    then one operation per element of each next level at its fiber colors
    (dying elements impose nothing; empty fibers take nullary operations).

    The chains are counted from :func:`_chain_tables` before any is built,
    so a ``cap`` below the total raises :class:`TreeError` at once; they are
    then listed by :func:`_walk_chains`, depth first in ``product`` order,
    through the targets that reach the top level only."""
    return tuple(_walk_chains(_chain_tables(p, a, cap)))


def _level_pairs(level: dict[str, str], i: int, items: Iterable[tuple[Elem, Any]]) -> tuple:
    """One level's ``(edge, value)`` pairs in edge order: each element names
    the table's edge, or ``ℓi:x`` afresh when it is off the table."""
    return tuple(sorted({level.get(x) or edge_name(i, str(x)): v for x, v in items}.items()))


def _object_pairs(a: FinSimplex, i: int, colors: tuple[str, ...]) -> tuple:
    """The ``(edge, color)`` pairs, in edge order, of a coloring of level
    ``i`` of ``a``: built once per diagram and coloring, and kept in the
    simplex's ``_map_pairs``."""
    seen = a._map_pairs[i]
    pairs = seen.get(colors)
    if pairs is None:  # the level's edge names, in its own order
        pairs = seen[colors] = tuple(sorted(zip(a.edge_names[i].values(), colors)))
    return pairs


def chain_to_map(ch: Chain) -> ForestInto:
    """Read a chain as a map out of the free operad of the diagram's forest:
    the level-``i`` element ``a`` colors edge ``ℓi:a``, the arrow component
    at ``a`` is the operation at vertex ``ℓi:a``.  Edge names are read from
    the simplex's table; an element off the simplex's levels is named
    afresh.

    An object over the level's own set is read once per diagram and
    coloring (:func:`_object_pairs`).  An arrow's pairs are built on every
    reading, since most arrows are read once."""
    a = ch.simplex
    names, levels = a.edge_names, a.levels
    colors, comps = [], []
    for i, (base, cs) in enumerate(ch.objects):
        if i < len(levels) and base.elements == levels[i]:
            colors += _object_pairs(a, i, cs)
        else:
            colors += _level_pairs(names[i] if i < len(names) else {}, i, zip(base.elements, cs))
    for i, mor in enumerate(ch.arrows, start=1):
        comps += _level_pairs(names[i] if i < len(names) else {}, i, mor.components)
    if len(ch.objects) > 10 or len(ch.arrows) > 9:  # "ℓ10:" sorts before "ℓ2:"
        return ForestInto.build(colors, comps)
    return _forest_into((tuple(colors), tuple(comps)))


def map_to_chain(p: FiniteOperad, a: FinSimplex, m: ForestInto) -> Chain:
    """Inverse of :func:`chain_to_map` over the same diagram."""
    xs, als = a.pointed_levels
    names = a.edge_names
    objs = [
        _ell_obj((xs[i], tuple([m.color[names[i][x]] for x in xs[i].elements])))
        for i in range(a.n + 1)
    ]
    arrows = [
        _ell_mor((als[i], objs[i], objs[i + 1],
                  tuple([(k, m.component[names[i + 1][k]]) for k in xs[i + 1].elements])))
        for i in range(a.n)
    ]
    return _chain((a, tuple(objs), tuple(arrows)))


def restrict_chain(p: FiniteOperad, ch: Chain, phi) -> Chain:
    """Reindex a chain along a monotone operator by composing its arrows
    (an empty segment contributes the identity)."""
    b = restrict_simplex(ch.simplex, phi)
    objs = [ch.objects[phi(j)] for j in range(phi.dom + 1)]
    arrows = []
    for j in range(1, phi.dom + 1):
        lo, hi = phi(j - 1), phi(j)
        if lo == hi:
            arrows.append(ell_identity(p, objs[j - 1]))
        else:
            acc = ch.arrows[lo]
            for t in range(lo + 1, hi):
                acc = ell_compose(p, ch.arrows[t], acc)
            arrows.append(acc)
    return _chain((b, tuple(objs), tuple(arrows)))


def precompose(p: FiniteOperad, m: ForestInto, h: OperadMap) -> ForestInto:
    """Precompose a map ``m`` out of the free operad of ``h.target`` with the
    operad map ``h``: each edge of ``h.source`` takes the color of its image,
    and each vertex the image under ``m`` of its image cut, a cut of ``p``
    (``omegacat._image``); an operad ``p`` of another kind raises."""
    if not isinstance(p, _CutOperad):
        raise TreeError(f"precompose needs a cut operad, not a {type(p).__name__}")
    checked: set[str] = set()
    return ForestInto.build(
        ((e, m.color[img]) for e, img in h.colors),
        ((w, _image(p._has, m, h.target, op, checked)) for w, op in h.components),
    )


# ---------------------------------------------------------------------------
# Segal decompositions
# ---------------------------------------------------------------------------


def segal_cut_check(p: FiniteOperad, t: Tree, b: str) -> bool:
    """Maps out of the free operad of a tree are pairs of maps out of the
    two parts at an inner edge, agreeing on the edge's color.  Returns
    whether the restriction pairing is a bijection onto such pairs.

    A pair of maps is compared as the concatenation of their field tuples;
    the restriction to each part is a fixed selection of the whole's edges
    and vertices."""
    lower, upper = cut_at(t, b)
    whole = maps_into(t, p)
    lows = maps_into(lower, p)
    ups = maps_into(upper, p)
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


# ---------------------------------------------------------------------------
# free algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeTerm:
    """A term of a free algebra: a sorted multiset of generator indices, an
    operation accepting their colors, and one argument per index."""

    indices: tuple[str, ...]
    label: Label
    args: tuple[str, ...]


def _weights(generators: Mapping[str, str], inputs: Mapping[str, Sequence[str]]) -> dict[str, int]:
    """Per color, the distinct arguments of its generators, summed: how many
    free-algebra terms an identity at that color has."""
    weights: dict[str, int] = {}
    for idx, color in generators.items():
        weights[color] = weights.get(color, 0) + len(set(inputs.get(idx, ())))
    return weights


def _term_counts(p: _CutOperad, weights: Mapping[str, int], output: str) -> dict[str, int]:
    """Per color weakly above ``output`` in ``p``'s state table, its count
    ``W`` (:func:`~dendrotensor.omegacat._counts`): its weight plus, per
    move, the product of ``W`` over the colors the move reaches.  In a free
    forest operad, where a color has at most one move, ``W(output)`` is the
    number of free-algebra terms at ``output``; where a color has two moves,
    which may meet a cut twice, it bounds that number."""
    if output not in p._states:
        p._unknown(output)  # a free forest operad refuses an unknown edge
        return {output: 0}
    return _counts(_rows_above(p._states.__getitem__, output), lambda d, moves: weights.get(d, 0))


def _free_algebra_count(
    p: _CutOperad, generators: Mapping[str, str], inputs: Mapping[str, Sequence[str]], output: str
) -> int:
    """How many terms :func:`free_algebra` lists at ``output`` over a free
    forest operad (a bound over another cut operad), counted without
    listing a cut."""
    return _term_counts(p, _weights(generators, inputs), output)[output]


def _live_cuts(
    p: _CutOperad, weights: Mapping[str, int], output: str
) -> list[tuple[tuple[str, ...], tuple[Label, ...]]]:
    """The ``(inputs, operations)`` entries at ``output`` of the cuts whose
    inputs all have a positive weight, the only cuts with free-algebra
    terms: :func:`_fold` over the moves whose colors all count above 0,
    each color its own cut when its weight is positive.  A move reaching a
    color of count 0 has no live union, so the colors only such moves reach
    are not folded."""
    counts = _term_counts(p, weights, output)
    if not counts[output]:
        return []
    live: dict[str, list[tuple[str, ...]]] = {}
    rows = _rows_above(lambda d: [move for move in p._states[d] if all(counts[c] for c in move)], output)
    _fold(rows, live, own={d for d, w in weights.items() if w})
    return [(cut, (_operation(output, cut),)) for cut in live[output]]


def free_algebra(
    p: FiniteOperad,
    generators: Mapping[str, str],
    inputs: Mapping[str, Sequence[str]],
    output: str,
) -> tuple[FreeTerm, ...]:
    """The set of free-algebra terms at ``output``: one orbit of
    ``(operation, arguments)`` for each multiset of generator indices whose
    colors the operation accepts, with one argument drawn per index.  An
    orbit is listed once, its arguments a sorted multiset per block of
    equal indices (the symmetric action of the realizations is trivial).

    Over a cut operad only the cuts whose inputs all take an argument are
    read (:func:`_live_cuts`); another operad lists every operation at
    ``output``."""
    def multisets(pool: Iterable[str], k: int) -> Iterator[tuple[str, ...]]:
        return combinations_with_replacement(sorted(set(pool)), k)

    by_color: dict[str, list[str]] = {}
    for idx in sorted(generators):
        by_color.setdefault(generators[idx], []).append(idx)
    if isinstance(p, _CutOperad):
        entries = _live_cuts(p, _weights(generators, inputs), output)
    else:
        entries = p.ops_by_output(output)
    terms: list[FreeTerm] = []
    for kappa, labels in entries:
        colors = sorted(Counter(kappa).items())
        for chosen in product(*[multisets(by_color.get(c, ()), k) for c, k in colors]):
            gamma = tuple(sorted(i for grp in chosen for i in grp))
            for parts in product(*[multisets(inputs.get(i, ()), k) for i, k in Counter(gamma).items()]):
                args = tuple([a for part in parts for a in part])
                terms += [FreeTerm(gamma, lab, args) for lab in labels]
    return tuple(sorted(terms, key=lambda t: (t.indices, str(t.label), t.args)))
