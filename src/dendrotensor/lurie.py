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
  presentation behaves fibrously (cocartesian lifts of inerts with their
  universal property, fibers decomposing as products, mapping into a tuple
  computed componentwise), plus :func:`defect_fixtures`, five deliberately
  broken presentations the checks must catch;
* chains of the presentation over a level diagram, in bijection with maps
  out of the free operad of the diagram's forest, naturally in the diagram;
* the two decompositions of maps out of a free forest operad: cutting a
  tree at an inner edge, and splitting a forest into its components;
* free algebra term sets with their symmetrization quotient.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement, permutations, product
from random import Random
from typing import Any

from .levelforest import STAR, FinSimplex, edge_name
from .omegacat import Operation, _component, _cut_interior, _cut_table, _operation, is_cut
from .shuffle import shuffles
from .treecore import Forest, Tree, TreeError, as_forest, cut_at

__all__ = [
    "FinPtdObj",
    "FinPtdMor",
    "classify",
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


@dataclass(frozen=True)
class FinPtdObj:
    """A finite pointed set, listed without its basepoint ``*``."""

    elements: tuple[Elem, ...]

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise TreeError("pointed-set elements must be distinct")
        if STAR in self.elements:
            raise TreeError("'*' is the basepoint, not an element")

    @staticmethod
    def skeleton(n: int) -> "FinPtdObj":
        return FinPtdObj(tuple(range(1, n + 1)))

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class FinPtdMor:
    """A pointed map, recorded on the non-basepoint source elements;
    ``values`` is aligned with ``src.elements`` and may hit ``STAR``."""

    src: FinPtdObj
    dst: FinPtdObj
    values: tuple[Elem, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.src.elements):
            raise TreeError("pointed map must cover every source element")
        allowed = set(self.dst.elements) | {STAR}
        for v in self.values:
            if v not in allowed:
                raise TreeError(f"pointed map hits a non-element {v!r}")

    def __hash__(self) -> int:
        # frozen, so the hash is kept: the fibrous checks key a memo on maps
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.src, self.dst, self.values))
        return h

    @cached_property
    def mapping(self) -> dict[Elem, Elem]:
        return dict(zip(self.src.elements, self.values))

    def __call__(self, x: Elem) -> Elem:
        return self.mapping[x]

    @cached_property
    def fibers(self) -> dict[Elem, tuple[Elem, ...]]:
        """The fiber of every value hit (``STAR`` included), in source order."""
        out: dict[Elem, list[Elem]] = {}
        for x, v in zip(self.src.elements, self.values):
            out.setdefault(v, []).append(x)
        return {v: tuple(xs) for v, xs in out.items()}

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
        return FinPtdMor(x, x, x.elements)

    def after(self, other: "FinPtdMor") -> "FinPtdMor":
        """Composite ``self ∘ other`` (basepoint absorbing)."""
        if other.dst != self.src:
            raise TreeError("pointed maps do not compose")
        vals = tuple(STAR if v == STAR else self.mapping[v] for v in other.values)
        return FinPtdMor(other.src, self.dst, vals)


def classify(f: FinPtdMor) -> tuple[str, ...]:
    """Sorted tags among ``active`` / ``inert`` (isomorphisms get both)."""
    tags = []
    if f.is_active:
        tags.append("active")
    if f.is_inert:
        tags.append("inert")
    return tuple(sorted(tags))


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
    return FinPtdMor(
        sk, FinPtdObj.skeleton(1), tuple(1 if x == i else STAR for x in sk.elements)
    )


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
    arguments can be keyed by color), plain tables do not.
    """

    @abstractmethod
    def colors(self) -> tuple[str, ...]: ...

    @abstractmethod
    def ops(self, inputs: Sequence[str], output: str) -> tuple[Label, ...]: ...

    @abstractmethod
    def ops_by_output(
        self, output: str
    ) -> tuple[tuple[tuple[str, ...], tuple[Label, ...]], ...]: ...

    @abstractmethod
    def identity(self, color: str) -> Label: ...

    def subst(self, p: Label, args: Mapping[str, Label]) -> Label:
        raise NotImplementedError(f"{type(self).__name__} has no substitution")

    def ops_for_inputs(self, inputs: Sequence[str]) -> tuple[tuple[str, Label], ...]:
        """All ``(output color, operation)`` pairs accepting these inputs."""
        try:
            index = self._input_index
        except AttributeError:
            index = {}
            for c in self.colors():
                for key, labels in self.ops_by_output(c):
                    index.setdefault(key, []).extend((c, p) for p in labels)
            self._input_index: dict[tuple[str, ...], list[tuple[str, Label]]] = index
        return tuple(index.get(tuple(sorted(inputs)), ()))


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
    is cut union.  Subclasses say which cuts are operations."""

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

    @abstractmethod
    def _has(self, op: Operation) -> bool:
        """Whether the cut ``op`` is an operation of this operad."""


class FreeForestOperad(_CutOperad):
    """The free operad of a forest: colors are edges, operations are cuts."""

    def __init__(self, forest: Tree | Forest):
        self.forest = as_forest(forest)
        self._cuts: dict[str, list[tuple[str, ...]]] = {}
        self._by_output: dict[str, tuple[tuple[tuple[str, ...], tuple[Operation]], ...]] = {}
        self._by_inputs: dict[str, dict[tuple[str, ...], tuple[Operation]]] = {}

    def colors(self) -> tuple[str, ...]:
        return self.forest.edges

    def ops(self, inputs: Sequence[str], output: str) -> tuple[Label, ...]:
        index = self._by_inputs.get(output)
        if index is None:
            if output not in self.forest.edge_set:
                return ()
            index = self._by_inputs[output] = dict(self.ops_by_output(output))
        return index.get(tuple(sorted(inputs)), ())

    def ops_by_output(
        self, output: str
    ) -> tuple[tuple[tuple[str, ...], tuple[Label, ...]], ...]:
        entries = self._by_output.get(output)
        if entries is None:
            t = _component(self.forest, output)
            entries = tuple(
                (c, (_operation(output, c),)) for c in _cut_table(t, output, self._cuts)
            )
            self._by_output[output] = entries
        return entries

    def _has(self, op: Operation) -> bool:
        return is_cut(_component(self.forest, op.output), op.output, op.inputs)


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
        self, output: str
    ) -> tuple[tuple[tuple[str, ...], tuple[Label, ...]], ...]:
        return self._by_output.get(output, ())

    def identity(self, color: str) -> Label:
        return self._table[((color,), color)][0]


class BVTensorOperad(_CutOperad):
    """The tensor of trees as a finite operad: colors are the tuple edges of
    the shuffles, operations are the cuts of all shuffles with each cut
    appearing once.  Substitution is cut union, under which the family is
    closed.

    The table is built once, from one bottom-up pass over the cuts of each
    shuffle, and indexed by output color with each color's operations in
    the order of their sorted inputs."""

    def __init__(self, factors: Sequence[Tree]):
        self.factors = tuple(factors)
        self.shuffle_trees = shuffles(self.factors)
        table: dict[tuple[tuple[str, ...], str], tuple[Operation]] = {}
        colors: set[str] = set()
        for t in self.shuffle_trees:
            colors |= t.edge_set
            cuts: dict[str, list[tuple[str, ...]]] = {}
            _cut_table(t, t.root, cuts)
            for e, inputs_at in cuts.items():
                for inputs in inputs_at:
                    key = (inputs, e)
                    if key not in table:
                        table[key] = (_operation(e, inputs),)
        self._colors = tuple(sorted(colors))
        self._table = table
        self._by_output = _index_by_output(table)

    def colors(self) -> tuple[str, ...]:
        return self._colors

    def ops(self, inputs: Sequence[str], output: str) -> tuple[Label, ...]:
        return self._table.get((tuple(sorted(inputs)), output), ())

    def ops_by_output(
        self, output: str
    ) -> tuple[tuple[tuple[str, ...], tuple[Label, ...]], ...]:
        return self._by_output.get(output, ())

    def _has(self, op: Operation) -> bool:
        return (op.inputs, op.output) in self._table


# ---------------------------------------------------------------------------
# the fiberwise presentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllObject:
    """A pointed set with a color of the operad for each element."""

    base: FinPtdObj
    colors: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.colors) != len(self.base.elements):
            raise TreeError("need exactly one color per element")

    def __hash__(self) -> int:
        # kept for the same memo as FinPtdMor's
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.base, self.colors))
        return h

    def color_of(self, x: Elem) -> str:
        return self.colors[self.base.elements.index(x)]


@dataclass(frozen=True)
class EllMorphism:
    """A morphism over a pointed map: one operation per target element,
    accepting the colors of that element's fiber."""

    alpha: FinPtdMor
    src: EllObject
    dst: EllObject
    components: tuple[tuple[Elem, Label], ...]

    @cached_property
    def component(self) -> dict[Elem, Label]:
        return dict(self.components)


def _fiber_colors(alpha: FinPtdMor, src: EllObject, j: Elem) -> tuple[str, ...]:
    return tuple(src.color_of(i) for i in alpha.fiber(j))


def ell_hom(
    p: FiniteOperad, alpha: FinPtdMor, src: EllObject, dst: EllObject
) -> tuple[EllMorphism, ...]:
    """All morphisms from ``src`` to ``dst`` over ``alpha``: the product over
    target elements of the operation sets at the fiber colorings."""
    if alpha.src != src.base or alpha.dst != dst.base:
        raise TreeError("objects do not sit over the pointed map")
    per_elem = []
    for j in dst.base.elements:
        fam = _fiber_colors(alpha, src, j)
        labels = p.ops(fam, dst.color_of(j))
        per_elem.append([(j, lab) for lab in labels])
    return tuple(
        EllMorphism(alpha, src, dst, tuple(combo)) for combo in product(*per_elem)
    )


def ell_identity(p: FiniteOperad, x: EllObject) -> EllMorphism:
    return EllMorphism(
        FinPtdMor.identity(x.base),
        x,
        x,
        tuple((j, p.identity(x.color_of(j))) for j in x.base.elements),
    )


def ell_compose(p: FiniteOperad, g: EllMorphism, f: EllMorphism) -> EllMorphism:
    """The composite ``g`` after ``f``: substitute the components of ``f``
    into each component of ``g`` along the fibers of ``g``'s map."""
    if f.dst != g.src:
        raise TreeError("fiberwise morphisms do not compose")
    comps = []
    for k in g.dst.base.elements:
        args = {g.src.color_of(j): f.component[j] for j in g.alpha.fiber(k)}
        comps.append((k, p.subst(g.component[k], args)))
    return EllMorphism(g.alpha.after(f.alpha), f.src, g.dst, tuple(comps))


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
        per_elem = []
        for k in gamma.dst.elements:
            fam = _fiber_colors(gamma, src, k)
            per_elem.append([(k, c, lab) for c, lab in self.operad.ops_for_inputs(fam)])
        out = []
        for combo in product(*per_elem):
            dst = EllObject(gamma.dst, tuple(c for _, c, _ in combo))
            mor = EllMorphism(gamma, src, dst, tuple((k, lab) for k, _, lab in combo))
            out.extend([(dst, mor)] * self.admit(gamma, src, dst, mor))
        return tuple(out)

    def compose(self, g: EllMorphism, f: EllMorphism) -> EllMorphism:
        return ell_compose(self.operad, g, f)

    def identity_of(self, x: EllObject) -> EllMorphism:
        return ell_identity(self.operad, x)

    def inert_lift(self, alpha: FinPtdMor, src: EllObject) -> EllMorphism:
        """The canonical lift of an inert map out of ``src``: restrict the
        coloring and use identity operations."""
        if not alpha.is_inert:
            raise TreeError("lifts are taken over inert maps only")
        colors = tuple(src.color_of(alpha.fiber(j)[0]) for j in alpha.dst.elements)
        dst = EllObject(alpha.dst, colors)
        return EllMorphism(
            alpha,
            src,
            dst,
            tuple((j, self.operad.identity(c)) for j, c in zip(alpha.dst.elements, colors)),
        )


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
        self.blocks = tuple((dst, (len(dst) + 1) ** len(src)) for dst in dsts)
        self.size = sum(n for _, n in self.blocks)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> FinPtdMor:
        if not 0 <= i < self.size:
            raise IndexError("pointed map index out of range")
        for dst, n in self.blocks:
            if i >= n:
                i -= n
                continue
            choices = dst.elements + (STAR,)
            values = []
            for _ in self.src.elements:
                i, digit = divmod(i, len(choices))
                values.append(choices[digit])
            return FinPtdMor(self.src, dst, tuple(reversed(values)))


def _all_inerts(src: FinPtdObj) -> list[FinPtdMor]:
    out = []
    for k in range(len(src.elements) + 1):
        for kept in permutations(src.elements, k):
            index = {x: i + 1 for i, x in enumerate(kept)}
            out.append(
                FinPtdMor(
                    src,
                    FinPtdObj.skeleton(k),
                    tuple(index.get(x, STAR) for x in src.elements),
                )
            )
    return out


def _sample(rng: Random, pool: Sequence, k: int) -> list:
    if len(pool) <= k:
        return list(pool)
    return rng.sample(pool, k)


def _coloring_pool(
    colors: Sequence[str], rng: Random, m: int, k: int
) -> list[tuple[str, ...]]:
    if not colors:
        return []
    total = len(colors) ** m
    if total <= k:
        return list(product(colors, repeat=m))
    pool = {tuple(rng.choice(colors) for _ in range(m)) for _ in range(3 * k)}
    return _sample(rng, sorted(pool), k)


def _sampled_arrows(
    pres: EllPresentation,
    rng: Random,
    gamma: FinPtdMor,
    src: EllObject,
    budget: int,
) -> list[tuple[EllObject, EllMorphism]]:
    """Morphisms out of ``src`` over ``gamma``: all of them when few, else a
    random selection assembled choice-by-choice."""
    per_elem = []
    total = 1
    for k in gamma.dst.elements:
        fam = _fiber_colors(gamma, src, k)
        opts = pres.operad.ops_for_inputs(fam)
        per_elem.append((k, opts))
        total *= len(opts)
    if total <= budget:
        return list(pres.arrows_from(gamma, src))
    out = []
    for _ in range(budget):
        combo = [(k, *rng.choice(opts)) for k, opts in per_elem]
        dst = EllObject(gamma.dst, tuple(c for _, c, _ in combo))
        mor = EllMorphism(gamma, src, dst, tuple((k, lab) for k, _, lab in combo))
        out.append((dst, mor))
    return out


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
) -> FibrousReport:
    """Verify, on finite sets, that the presentation behaves like the
    category of operators of an operad over pointed sets:

    * every inert map has its canonical lift listed, and every morphism out
      of the lift's source factors uniquely through the lift (checked
      against all compatible test arrows up to ``truncation``, sampling
      colorings and arrows under the given budgets);
    * morphisms over an identity are exactly tuples of morphisms between
      the restrictions to single elements, via the collapse lifts;
    * morphisms into an object over ``<m>`` are computed componentwise
      through the collapse lifts.

    Each hom ``pres.hom(alpha, src, dst)`` is listed at most once per call:
    a memo local to the call, keyed by the values of ``(alpha, src, dst)``,
    keeps the listing with its multiplicities (counts use it, so a family
    listed twice, as in the ``duplicate-family`` fixture, still counts
    twice) and, once membership is asked, the set of its morphisms.  The
    memo goes when the call returns.  Random draws and comparisons are those
    of listing every hom afresh.
    """
    rng = rng or Random(0)
    report = FibrousReport()
    colors = pres.operad.colors()
    listings: dict[tuple[FinPtdMor, EllObject, EllObject], tuple[EllMorphism, ...]] = {}
    members: dict[tuple[FinPtdMor, EllObject, EllObject], frozenset[EllMorphism]] = {}

    def listed(alpha: FinPtdMor, src: EllObject, dst: EllObject) -> tuple[EllMorphism, ...]:
        key = (alpha, src, dst)
        found = listings.get(key)
        if found is None:
            found = listings[key] = pres.hom(alpha, src, dst)
        return found

    def is_listed(
        alpha: FinPtdMor, src: EllObject, dst: EllObject, mor: EllMorphism
    ) -> bool:
        key = (alpha, src, dst)
        found = members.get(key)
        if found is None:
            found = members[key] = frozenset(listed(alpha, src, dst))
        return mor in found

    def fail(msg: str) -> None:
        if len(report.failures) < max_failures:
            report.failures.append(msg)

    # cocartesian lifts of inerts and their universal property
    targets = [FinPtdObj.skeleton(z) for z in range(truncation + 1)]
    for m in range(truncation + 1):
        src_base = FinPtdObj.skeleton(m)
        inerts = _all_inerts(src_base)
        for c in _coloring_pool(colors, rng, m, colorings_per_shape):
            x = EllObject(src_base, c)
            for alpha in _sample(rng, inerts, inerts_per_shape):
                lift = pres.inert_lift(alpha, x)
                report.cocartesian_checked += 1
                if not is_listed(alpha, x, lift.dst, lift):
                    fail(
                        f"lift over {alpha.values} from colors {c} is not "
                        "among the listed morphisms"
                    )
                    continue
                y = lift.dst
                betas = _PointedMaps(y.base, targets)
                for beta in _sample(rng, betas, betas_per_lift):
                    gamma = beta.after(alpha)
                    # per target: how often each composite ``g ∘ lift`` occurs
                    through_lift: dict[EllObject, Counter[EllMorphism]] = {}
                    for z_obj, h in _sampled_arrows(pres, rng, gamma, x, arrows_budget):
                        if not is_listed(gamma, x, z_obj, h):
                            fail(
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
                            fail(
                                f"universal property: {matches} factorizations "
                                f"over beta={beta.values} of a morphism over "
                                f"{gamma.values} through the lift over "
                                f"{alpha.values} from colors {c}"
                            )

    # fibers decompose as products over <1>
    one = FinPtdObj.skeleton(1)
    id_one = FinPtdMor.identity(one)
    for m in range(1, truncation + 1):
        base = FinPtdObj.skeleton(m)
        ident = FinPtdMor.identity(base)
        rhos = [rho(m, i) for i in base.elements]
        pool = _coloring_pool(colors, rng, m, 2 * pairs_per_fiber)
        pairs = [(a, b) for a in pool for b in pool]
        for c, d in _sample(rng, pairs, pairs_per_fiber):
            x, y = EllObject(base, c), EllObject(base, d)
            report.fiber_products_checked += 1
            lhs = listed(ident, x, y)
            factors = [
                (EllObject(one, (c[i],)), EllObject(one, (d[i],))) for i in range(m)
            ]
            expected = math.prod(len(listed(id_one, xi, yi)) for xi, yi in factors)
            if len(lhs) != expected:
                fail(
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
                    single = EllMorphism(
                        id_one,
                        xi,
                        EllObject(one, (gi.dst.colors[0],)),
                        ((1, gi.component[1]),),
                    )
                    if not is_listed(id_one, xi, yi, single):
                        ok = False
                    projections.append(gi)
                seen.add(tuple(projections))
            if not ok or len(seen) != len(lhs):
                fail(
                    f"fiber projections over <{m}> at colors {c} -> {d} "
                    "are not jointly bijective"
                )

    # mapping into a tuple is computed componentwise
    for m in range(1, truncation + 1):
        tuple_base = FinPtdObj.skeleton(m)
        rhos = [rho(m, i) for i in tuple_base.elements]
        for c_x in _coloring_pool(colors, rng, m, colorings_per_shape):
            x = EllObject(tuple_base, c_x)
            lifts = [pres.inert_lift(r, x) for r in rhos]
            for ym in range(truncation + 1):
                y_base = FinPtdObj.skeleton(ym)
                fs = _PointedMaps(y_base, (tuple_base,))
                for f in _sample(rng, fs, betas_per_lift):
                    legs = [r.after(f) for r in rhos]
                    for c_y in _coloring_pool(colors, rng, ym, colorings_per_shape):
                        y = EllObject(y_base, c_y)
                        report.component_formulas_checked += 1
                        lhs = listed(f, y, x)
                        rhs = [(leg, y, lift.dst) for leg, lift in zip(legs, lifts)]
                        expected = math.prod(len(listed(*key)) for key in rhs)
                        if len(lhs) != expected:
                            fail(
                                f"componentwise count over f={f.values} into "
                                f"colors {c_x}: {len(lhs)} vs {expected}"
                            )
                            continue
                        seen = set()
                        ok = True
                        for g in lhs:
                            tup = []
                            for lift, key in zip(lifts, rhs):
                                gi = pres.compose(lift, g)
                                if not is_listed(*key, gi):
                                    ok = False
                                    break
                                tup.append(gi)
                            else:
                                seen.add(tuple(tup))
                        if not ok or len(seen) != len(lhs):
                            fail(
                                f"componentwise projections over f={f.values} "
                                f"into colors {c_x} are not jointly bijective"
                            )
    return report


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
    from .treecore import parse_forest

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


@dataclass(frozen=True)
class ForestInto:
    """A map from the free operad of a forest into a finite operad: a color
    per edge and an operation per vertex (keyed by its output edge)."""

    colors: tuple[tuple[str, str], ...]
    components: tuple[tuple[str, Label], ...]

    @cached_property
    def color(self) -> dict[str, str]:
        return dict(self.colors)

    @cached_property
    def component(self) -> dict[str, Label]:
        return dict(self.components)


def maps_into(
    scope: Tree | Forest, p: FiniteOperad, cap: int | None = None
) -> tuple[ForestInto, ...]:
    """Enumerate the maps from the free operad of ``scope`` into ``p``:
    choose a color per edge and, at each vertex, an operation accepting the
    chosen input colors (in any matching of inputs to colors).  ``cap``
    aborts (with :class:`TreeError`) once the answer is known to exceed it,
    before materializing anything that large."""
    forest = as_forest(scope)
    all_colors = p.colors()
    per_comp: list[list[tuple[dict[str, str], dict[str, Label]]]] = []
    for t in forest.components:
        memo: dict[tuple[str, str], list] = {}

        def emb(e: str, c: str, t: Tree = t, memo=memo):
            key = (e, c)
            if key in memo:
                return memo[key]
            v = t.vertex_above.get(e)
            if v is None:
                memo[key] = [({e: c}, {})]
                return memo[key]
            out = []
            k = len(v.in_edges)
            for fam, labels in p.ops_by_output(c):
                if len(fam) != k:
                    continue
                for assignment in sorted(set(permutations(fam))):
                    branches = [
                        emb(d, assignment[i]) for i, d in enumerate(v.in_edges)
                    ]
                    if any(not b for b in branches):
                        continue
                    for combo in product(*branches):
                        for lab in labels:
                            cmap: dict[str, str] = {e: c}
                            vmap: dict[str, Label] = {e: lab}
                            for fc, fv in combo:
                                cmap.update(fc)
                                vmap.update(fv)
                            out.append((cmap, vmap))
            memo[key] = out
            return out

        frags: list[tuple[dict[str, str], dict[str, Label]]] = []
        for c in all_colors:
            frags.extend(emb(t.root, c))
        per_comp.append(frags)
    if cap is not None:
        total = 1
        for frags in per_comp:
            total *= len(frags)
        if total > cap:
            raise TreeError(f"map enumeration would produce {total} > cap {cap}")
    out = []
    for combo in product(*per_comp):
        cmap: dict[str, str] = {}
        vmap: dict[str, Label] = {}
        for fc, fv in combo:
            cmap.update(fc)
            vmap.update(fv)
        out.append(
            ForestInto(tuple(sorted(cmap.items())), tuple(sorted(vmap.items())))
        )
    return tuple(out)


@dataclass(frozen=True)
class Chain:
    """A chain of fiberwise morphisms lying over a level diagram."""

    simplex: FinSimplex
    objects: tuple[EllObject, ...]
    arrows: tuple[EllMorphism, ...]


def _level_objects(a: FinSimplex) -> tuple[FinPtdObj, ...]:
    return tuple(FinPtdObj(tuple(lev)) for lev in a.levels)


def _level_maps(a: FinSimplex) -> tuple[FinPtdMor, ...]:
    xs = _level_objects(a)
    out = []
    for i in range(a.n):
        step = a.alpha(i + 1)
        out.append(
            FinPtdMor(xs[i], xs[i + 1], tuple(step[b] for b in xs[i].elements))
        )
    return tuple(out)


def enumerate_chains(
    p: FiniteOperad, a: FinSimplex, cap: int | None = None
) -> tuple[Chain, ...]:
    """All chains over the level diagram: a coloring of the bottom level,
    then one operation per element of each next level at its fiber colors
    (dying elements impose nothing; empty fibers take nullary operations).
    ``cap`` aborts the enumeration with :class:`TreeError` once more than
    that many chains have been produced."""
    xs = _level_objects(a)
    als = _level_maps(a)
    chains: list[Chain] = []

    def rec(i: int, objs: list[EllObject], arrows: list[EllMorphism]) -> None:
        if i == a.n:
            if cap is not None and len(chains) >= cap:
                raise TreeError(f"chain enumeration exceeded cap {cap}")
            chains.append(Chain(a, tuple(objs), tuple(arrows)))
            return
        alpha = als[i]
        src = objs[-1]
        per_elem = []
        for k in xs[i + 1].elements:
            fam = _fiber_colors(alpha, src, k)
            per_elem.append([(k, c, lab) for c, lab in p.ops_for_inputs(fam)])
        for combo in product(*per_elem):
            dst = EllObject(xs[i + 1], tuple(c for _, c, _ in combo))
            mor = EllMorphism(alpha, src, dst, tuple((k, lab) for k, _, lab in combo))
            rec(i + 1, objs + [dst], arrows + [mor])

    for c0 in product(p.colors(), repeat=len(xs[0].elements)):
        rec(0, [EllObject(xs[0], tuple(c0))], [])
    return tuple(chains)


def chain_to_map(ch: Chain) -> ForestInto:
    """Read a chain as a map out of the free operad of the diagram's forest:
    the level-``i`` element ``a`` colors edge ``ℓi:a``, the arrow component
    at ``a`` is the operation at vertex ``ℓi:a``."""
    cmap: dict[str, str] = {}
    for i, obj in enumerate(ch.objects):
        for x in obj.base.elements:
            cmap[edge_name(i, str(x))] = obj.color_of(x)
    vmap: dict[str, Label] = {}
    for i, mor in enumerate(ch.arrows, start=1):
        for k, lab in mor.components:
            vmap[edge_name(i, str(k))] = lab
    return ForestInto(tuple(sorted(cmap.items())), tuple(sorted(vmap.items())))


def map_to_chain(p: FiniteOperad, a: FinSimplex, m: ForestInto) -> Chain:
    """Inverse of :func:`chain_to_map` over the same diagram."""
    xs = _level_objects(a)
    als = _level_maps(a)
    objs = [
        EllObject(
            xs[i], tuple(m.color[edge_name(i, str(x))] for x in xs[i].elements)
        )
        for i in range(a.n + 1)
    ]
    arrows = [
        EllMorphism(
            als[i],
            objs[i],
            objs[i + 1],
            tuple(
                (k, m.component[edge_name(i + 1, str(k))])
                for k in xs[i + 1].elements
            ),
        )
        for i in range(a.n)
    ]
    return Chain(a, tuple(objs), tuple(arrows))


def restrict_chain(p: FiniteOperad, ch: Chain, phi) -> Chain:
    """Reindex a chain along a monotone operator by composing its arrows
    (an empty segment contributes the identity)."""
    from .levelforest import restrict as restrict_simplex

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
    return Chain(b, tuple(objs), tuple(arrows))


def _eval_cut(p: FiniteOperad, m: ForestInto, forest: Forest, op: Operation) -> Label:
    """The image in ``p`` of a cut of the forest under a map out of its free
    operad: substitute the map's components bottom-up over the edges from
    the cut's inputs down to its output."""
    t = forest.component_of[op.output]
    interior = _cut_interior(t, op.output, op.input_set)
    if interior is None:
        raise TreeError(f"invalid cut {op} evaluated through map")
    value = {d: p.identity(m.color[d]) for d in op.inputs}
    for e in reversed(interior):
        args = {m.color[d]: value[d] for d in t.vertex_above[e].in_edges}
        value[e] = p.subst(m.component[e], args)
    return value[op.output]


def precompose(p: FiniteOperad, m: ForestInto, h) -> ForestInto:
    """Precompose a map out of the free operad of ``h.target`` with the
    operad map ``h``, yielding a map out of the free operad of
    ``h.source``."""
    cmap = {e: m.color[img] for e, img in h.edge.items()}
    vmap = {
        w: _eval_cut(p, m, h.target, op) for w, op in h.vertex.items()
    }
    return ForestInto(tuple(sorted(cmap.items())), tuple(sorted(vmap.items())))


# ---------------------------------------------------------------------------
# Segal decompositions
# ---------------------------------------------------------------------------


def _restrict_into(m: ForestInto, part: Tree | Forest) -> ForestInto:
    sub = as_forest(part)
    cmap = {e: m.color[e] for e in sub.edges}
    vmap = {
        v.out_edge: m.component[v.out_edge]
        for t in sub.components
        for v in t.vertices
    }
    return ForestInto(tuple(sorted(cmap.items())), tuple(sorted(vmap.items())))


def segal_cut_check(p: FiniteOperad, t: Tree, b: str) -> bool:
    """Maps out of the free operad of a tree are pairs of maps out of the
    two parts at an inner edge, agreeing on the edge's color.  Returns
    whether the restriction pairing is a bijection onto such pairs."""
    lower, upper = cut_at(t, b)
    whole = maps_into(t, p)
    lows = maps_into(lower, p)
    ups = maps_into(upper, p)
    matched = {
        (lo, up)
        for lo in lows
        for up in ups
        if lo.color[b] == up.color[b]
    }
    split = [(_restrict_into(m, lower), _restrict_into(m, upper)) for m in whole]
    return (
        len(split) == len(set(split)) == len(matched)
        and set(split) == matched
    )


def segal_components_check(p: FiniteOperad, f: Tree | Forest) -> bool:
    """Maps out of the free operad of a forest are tuples of maps out of its
    components (the empty forest admitting exactly the empty map)."""
    forest = as_forest(f)
    whole = maps_into(forest, p)
    parts = [maps_into(t, p) for t in forest.components]
    expected = 1
    for q in parts:
        expected *= len(q)
    if len(whole) != expected:
        return False
    rebuilt = set()
    for combo in product(*parts):
        cmap: dict[str, str] = {}
        vmap: dict[str, Label] = {}
        for frag in combo:
            cmap.update(frag.color)
            vmap.update(frag.component)
        rebuilt.add(
            ForestInto(tuple(sorted(cmap.items())), tuple(sorted(vmap.items())))
        )
    return rebuilt == set(whole)


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


def _canonical_term(
    indices: tuple[str, ...], label: Label, args: tuple[str, ...]
) -> FreeTerm:
    """Orbit representative under permutations of equal indices: arguments
    sorted within each block (the label is fixed, matching the trivial
    symmetric action of the table realizations)."""
    out: list[str] = []
    i = 0
    while i < len(indices):
        j = i
        while j < len(indices) and indices[j] == indices[i]:
            j += 1
        out.extend(sorted(args[i:j]))
        i = j
    return FreeTerm(indices, label, tuple(out))


def free_algebra(
    p: FiniteOperad,
    generators: Mapping[str, str],
    inputs: Mapping[str, Sequence[str]],
    output: str,
) -> tuple[FreeTerm, ...]:
    """The set of free-algebra terms at ``output``: one orbit of
    ``(operation, arguments)`` for each multiset of generator indices whose
    colors the operation accepts, with one argument drawn per index."""
    by_color: dict[str, list[str]] = {}
    for idx in sorted(generators):
        by_color.setdefault(generators[idx], []).append(idx)
    terms: set[FreeTerm] = set()
    for kappa, labels in p.ops_by_output(output):
        cnt = Counter(kappa)
        choice_lists = []
        feasible = True
        for c in sorted(cnt):
            idxs = by_color.get(c, [])
            if not idxs:
                feasible = False
                break
            choice_lists.append(
                list(combinations_with_replacement(idxs, cnt[c]))
            )
        if not feasible:
            continue
        for chosen in product(*choice_lists):
            gamma = tuple(sorted(i for grp in chosen for i in grp))
            arg_pools = [tuple(inputs.get(i, ())) for i in gamma]
            for lab in labels:
                for args in product(*arg_pools):
                    terms.add(_canonical_term(gamma, lab, args))
    return tuple(
        sorted(terms, key=lambda t: (t.indices, str(t.label), t.args))
    )
