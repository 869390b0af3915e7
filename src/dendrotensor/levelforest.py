"""Level diagrams of finite pointed sets and the forests they generate.

Fin_* comes first: pointed sets and maps (:class:`FinPtdObj`,
:class:`FinPtdMor`), the inert-active factorization, the collapse maps
``rho(n, i)``, the lexicographic smash product, and the pointed maps out of
a skeleton as ranked sequences (:class:`_PointedMaps`, :class:`_Inerts`).
Each skeleton and each map between skeleta is one shared object, kept with
its views in process-wide tables (``_SKELETA``, ``_MAPS``): the only memos
that outlive a call.

A :class:`FinSimplex` of length ``n`` is a chain ``A_0 -> A_1 -> ... -> A_n``
of finite sets where each map may also send elements to the basepoint ``*``
(dying).  Such a chain generates a forest: one edge per element, the element
``a`` at level ``i`` giving edge ``ℓi:a``; every level ``i >= 1`` element
carries a vertex whose inputs are its preimages one level down, so elements
with empty preimage become stumps.  Roots are the top-level elements together
with every element that dies.

Monotone reindexings of ``0..n`` act on chains by composing the maps, and
each reindexing induces a map of the generated free operads whose vertex
images are the level-uniform cuts.  Finally every forest is a retract of the
forest of a chain: pad each leaf up to a uniform height and read off levels.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import Any, Mapping

from .omegacat import OperadMap, Operation, _induced
from .treecore import (
    Forest,
    Tree,
    TreeError,
    _cached,
    _checked_make,
    _forest,
    _out_edge,
    _tree,
    _vertex,
    as_forest,
    check_name,
)

__all__ = [
    "STAR",
    "FinPtdObj",
    "FinPtdMor",
    "factorize",
    "rho",
    "smash",
    "FinSimplex",
    "SimplicialOperator",
    "edge_name",
    "omega_obj",
    "omega_mor",
    "restrict",
    "RetractWitness",
    "retract_witness",
]

STAR = "*"


def edge_name(level: int, element: str) -> str:
    return f"ℓ{level}:{element}"


def split_edge_name(edge: str) -> tuple[int, str] | None:
    """The ``(level, element)`` of an :func:`edge_name`, read up to the first
    ``:``; ``None`` unless ``edge`` is ``ℓ``, decimal digits, ``:`` and the
    element."""
    level, colon, element = edge[1:].partition(":")
    if edge[:1] == "ℓ" and colon and level.isdecimal():
        return int(level), element
    return None


def _element(value: Any) -> str:
    """The name of a level element or map value read from JSON: a string or
    an integer.  ``null``, booleans, floats, arrays and objects are refused."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return str(value)
    shown = json.dumps(value, ensure_ascii=False, default=repr)
    raise TreeError(f"level elements and map values must be strings or integers, got {shown}")


# -- Fin_*: finite pointed sets and pointed maps -----------------------------

Elem = str | int


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


# Fin_* up to truncation t is one finite category: each skeleton <n> and
# each map between skeleta (``_ptd_mor``, by ``(len(src), len(dst), values)``)
# is one object whose views are built once per process; the ranked
# sequences' decodes are kept by shape and the fibres' positions once.  No
# operad's data, at most sum over n, m <= t of (m + 1) ** n maps, and no map
# over any other set (such as a nerve's level sets) is kept.
_SKELETA: dict[int, FinPtdObj] = {}
_MAPS: dict[tuple[int, int, tuple[Elem, ...]], "FinPtdMor"] = {}
_DECODES: dict[tuple, dict[int, "FinPtdMor"]] = {}
_POSITIONS: dict[tuple[int, ...], tuple[int, ...]] = {}


def _skeletal(x: FinPtdObj) -> bool:
    """Whether ``x`` is the shared skeleton of its size, not an equal copy."""
    return _SKELETA.get(len(x.elements)) is x


class FinPtdMor(namedtuple("FinPtdMor", "src dst values")):
    """A pointed map, recorded on the non-basepoint source elements;
    ``values`` is aligned with ``src.elements`` and may hit ``STAR``.

    The tuple ``(src, dst, values)``, hashed and compared in C.  The
    constructor checks the values; maps built here skip it (``_ptd_mor``),
    and one shared map between skeleta keeps its composites (``after``)."""

    src: FinPtdObj
    dst: FinPtdObj
    values: tuple[Elem, ...]
    _make = classmethod(_checked_make)
    _composites: dict[tuple[Elem, ...], "FinPtdMor"] | None = None  # a shared map's own

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

    @_cached
    def slots(self) -> tuple[tuple[int, ...], ...]:
        """Per element of ``dst``, the positions in ``src.elements`` of its
        fiber: where an object over ``src`` keeps the fiber's colours."""
        out: dict[Elem, list[int]] = {j: [] for j in self.dst.elements}
        for i, v in enumerate(self.values):
            if v != STAR:
                out[v].append(i)
        slots = tuple(map(tuple, out.values()))
        if self._composites is None:
            return slots
        return tuple([_POSITIONS.setdefault(s, s) for s in slots])  # shared by the shared maps

    @_cached
    def is_inert(self) -> bool:
        return all(len(slot) == 1 for slot in self.slots)

    @property
    def is_active(self) -> bool:
        return STAR not in self.values

    @property
    def is_identity(self) -> bool:
        return self.src == self.dst and self.values == self.src.elements

    @staticmethod
    def identity(x: FinPtdObj) -> "FinPtdMor":
        return _ptd_mor((x, x, x.elements))

    def after(self, other: "FinPtdMor") -> "FinPtdMor":
        """Composite ``self ∘ other`` (basepoint absorbing), kept by a shared map."""
        src, mid, values = other
        if mid is not self.src and mid != self.src:
            raise TreeError("pointed maps do not compose")
        composites = self._composites
        if composites is None or _SKELETA.get(len(values)) is not src:
            composites = {}
        found = composites.get(values)
        if found is None:
            mine, pos = self.values, self.src.position
            image = tuple([STAR if v == STAR else mine[pos[v]] for v in values])
            found = composites[values] = _ptd_mor((src, self.dst, image))
        return found


def _ptd_mor(fields: tuple[FinPtdObj, FinPtdObj, tuple[Elem, ...]]) -> FinPtdMor:
    """The trusted constructor: the map with these fields, valid by
    construction and not checked again; between skeleta, the shared one."""
    src, dst, values = fields
    if not (_skeletal(src) and _skeletal(dst)):
        return tuple.__new__(FinPtdMor, fields)
    key = (len(src.elements), len(dst.elements), values)
    found = _MAPS.get(key)
    if found is None:
        found = _MAPS[key] = tuple.__new__(FinPtdMor, fields)
        found._composites = {}
    return found


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


class _Ranked(Sequence):
    """A sequence of maps by rank: the ``i``-th is decoded (``_decode``)
    when first asked for and kept, shared by every sequence of its
    ``shape`` between skeleta; ``Random.sample`` draws from ``len`` alone."""

    def __init__(self, shape: tuple, size: int, *objs: FinPtdObj) -> None:
        self.size = size
        self.decoded = _DECODES.setdefault(shape, {}) if all(map(_skeletal, objs)) else {}

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> FinPtdMor:
        if not 0 <= i < self.size:
            raise IndexError("map index out of range")
        found = self.decoded.get(i)
        if found is None:
            found = self.decoded[i] = self._decode(i)
        return found


class _PointedMaps(_Ranked):
    """Every pointed map from ``src`` into each of ``dsts`` in turn, each
    block in the order ``product`` lists the value tuples (``STAR`` last
    among the choices); ``Random.sample`` picks the same maps as it would
    from the materialized list."""

    def __init__(self, src: FinPtdObj, dsts: Sequence[FinPtdObj]):
        self.src = src
        # per target: its size and the values a map may take, STAR last
        self.blocks = tuple(
            (dst, (len(dst) + 1) ** len(src), dst.elements + (STAR,)) for dst in dsts
        )
        shape = ("maps", len(src), tuple([len(dst) for dst in dsts]))
        super().__init__(shape, sum(n for _, n, _ in self.blocks), src, *dsts)

    def _decode(self, i: int) -> FinPtdMor:
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


class _Inerts(_Ranked):
    """Every inert map out of ``src``: for ``k = 0, ..., |src|`` in turn,
    one per ordered choice of ``k`` kept elements, in the order
    ``permutations`` lists them, the ``j``-th kept element sent to ``j``."""

    def __init__(self, src: FinPtdObj):
        self.src = src
        self.blocks = tuple(math.perm(len(src), k) for k in range(len(src) + 1))
        super().__init__(("inerts", len(src)), sum(self.blocks), src)

    def _decode(self, i: int) -> FinPtdMor:
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


class FinSimplex(namedtuple("FinSimplex", "levels maps")):
    """A chain of composable maps between finite sets with a free basepoint.

    ``levels[i]`` lists the level-``i`` elements (order is remembered and
    used for deterministic output); ``maps[i]`` sends level-``i`` elements to
    level-``i+1`` elements or to ``STAR``.  The tuple ``(levels, maps)``,
    hashed and compared in C; the constructor checks it, and chains derived
    here from valid ones skip the check (``_fin_simplex``).

    What depends only on the chain (edge names, :attr:`forest`, restrictions,
    pointed levels) is built on first use and goes away with the chain.
    """

    levels: tuple[tuple[str, ...], ...]
    maps: tuple[tuple[tuple[str, str], ...], ...]
    _make = classmethod(_checked_make)

    def __init__(
        self,
        levels: tuple[tuple[str, ...], ...],
        maps: tuple[tuple[tuple[str, str], ...], ...],
    ) -> None:
        if not levels:
            raise TreeError("a chain needs at least one level")
        if len(maps) != len(levels) - 1:
            raise TreeError("need exactly one map per consecutive level pair")
        for lev in levels:
            for a in lev:
                check_name(a)
                if a == STAR:
                    raise TreeError("'*' is reserved for the basepoint")
            if len(set(lev)) != len(lev):
                raise TreeError("level elements must be distinct")
        for i, m in enumerate(maps):
            src = dict(m)
            if set(src) != set(levels[i]) or len(m) != len(levels[i]):
                raise TreeError(f"map {i} is not total on level {i}")
            allowed = set(levels[i + 1]) | {STAR}
            for a, b in m:
                if b not in allowed:
                    raise TreeError(f"map {i} sends {a!r} outside level {i + 1}")

    @property
    def n(self) -> int:
        return len(self.levels) - 1

    @_cached
    def edge_names(self) -> tuple[dict[str, str], ...]:
        """Per level, each element's :func:`edge_name`, built once per chain."""
        return tuple({x: edge_name(i, x) for x in lev} for i, lev in enumerate(self.levels))

    @_cached
    def forest(self) -> Forest:
        """The forest of this chain, built by :func:`omega_obj` once per chain
        and shared by every reader."""
        return omega_obj(self)

    @_cached
    def _restrictions(self) -> dict[SimplicialOperator, FinSimplex]:
        return {}

    @_cached
    def _map_pairs(self) -> tuple[dict, ...]:
        """Per level, the pair tuples ``lurie._object_pairs`` has built for
        object colours (read by ``chain_to_map`` and the chain walk), built
        once per colouring."""
        return tuple({} for _ in self.levels)

    @_cached
    def pointed_levels(self) -> tuple[tuple[FinPtdObj, ...], tuple[FinPtdMor, ...]]:
        """The levels as pointed sets and the maps between them, built once."""
        xs = tuple(FinPtdObj(tuple(lev)) for lev in self.levels)
        out = []
        for i in range(self.n):
            step = self.alpha(i + 1)
            out.append(
                FinPtdMor(xs[i], xs[i + 1], tuple(step[b] for b in xs[i].elements))
            )
        return xs, tuple(out)

    def alpha(self, i: int) -> dict[str, str]:
        """The map out of level ``i-1`` (so ``alpha(1)`` starts the chain)."""
        return dict(self.maps[i - 1])

    def comp(self, j: int, i: int) -> dict[str, str]:
        """Composite level ``j`` -> level ``i`` (``j <= i``), ``STAR`` absorbing."""
        if not 0 <= j <= i <= self.n:
            raise TreeError(f"bad composite range {j}..{i}")
        out = {a: a for a in self.levels[j]}
        for k in range(j + 1, i + 1):
            step = self.alpha(k)
            out = {a: (STAR if b == STAR else step[b]) for a, b in out.items()}
        return out

    # -- JSON ---------------------------------------------------------------

    @staticmethod
    def from_json(obj: Mapping[str, Any] | str) -> "FinSimplex":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, Mapping) or "levels" not in obj or "maps" not in obj:
            raise TreeError("chain JSON needs 'levels' and 'maps'")
        if not isinstance(obj["levels"], list) or not all(
            isinstance(lev, list) for lev in obj["levels"]
        ):
            raise TreeError("chain JSON 'levels' must be a list of lists")
        if not isinstance(obj["maps"], list) or not all(
            isinstance(m, Mapping) for m in obj["maps"]
        ):
            raise TreeError("chain JSON 'maps' must be a list of objects")
        levels = tuple(tuple(_element(a) for a in lev) for lev in obj["levels"])
        maps = tuple(
            tuple(sorted((_element(a), _element(b)) for a, b in m.items()))
            for m in obj["maps"]
        )
        return FinSimplex(levels, maps)

    def to_json(self) -> dict[str, Any]:
        return {
            "levels": [list(lev) for lev in self.levels],
            "maps": [dict(m) for m in self.maps],
        }


# the trusted constructor: a chain from valid levels and total maps
_fin_simplex = partial(tuple.__new__, FinSimplex)


class SimplicialOperator(namedtuple("SimplicialOperator", "dom cod values")):
    """A monotone map ``{0..dom} -> {0..cod}`` acting on chains by
    reindexing: the tuple ``(dom, cod, values)``, hashed and compared in C."""

    __slots__ = ()
    dom: int
    cod: int
    values: tuple[int, ...]
    _make = classmethod(_checked_make)

    def __init__(self, dom: int, cod: int, values: tuple[int, ...]) -> None:
        if dom < 0 or cod < 0 or len(values) != dom + 1:
            raise TreeError("operator arity mismatch")
        for a, b in zip(values, values[1:]):
            if a > b:
                raise TreeError("operator is not monotone")
        if values and not (0 <= values[0] and values[-1] <= cod):
            raise TreeError("operator values out of range")

    def __call__(self, j: int) -> int:
        return self.values[j]

    @staticmethod
    def identity(n: int) -> "SimplicialOperator":
        return SimplicialOperator(n, n, tuple(range(n + 1)))

    @staticmethod
    def face(n: int, i: int) -> "SimplicialOperator":
        """The injection ``{0..n-1} -> {0..n}`` that skips ``i``."""
        return SimplicialOperator(
            n - 1, n, tuple(j if j < i else j + 1 for j in range(n))
        )

    @staticmethod
    def degeneracy(n: int, i: int) -> "SimplicialOperator":
        """The surjection ``{0..n+1} -> {0..n}`` that repeats ``i``."""
        return SimplicialOperator(
            n + 1, n, tuple(j if j <= i else j - 1 for j in range(n + 2))
        )

    def after(self, other: "SimplicialOperator") -> "SimplicialOperator":
        """Composite ``self ∘ other``."""
        if other.cod != self.dom:
            raise TreeError("operator composition mismatch")
        return SimplicialOperator(
            other.dom, self.cod, tuple(self.values[v] for v in other.values)
        )


def restrict(a: FinSimplex, phi: SimplicialOperator) -> FinSimplex:
    """Reindex the chain along ``phi`` (levels ``phi(0), ..., phi(dom)``),
    once per chain and operator; the identity gives ``a`` itself.  The
    reindexed chain is a trusted build: ``a``'s levels and composites."""
    if phi.cod != a.n:
        raise TreeError(f"operator lands in {phi.cod}, chain has length {a.n}")
    if phi.values == tuple(range(a.n + 1)):
        return a
    memo = a._restrictions
    if (b := memo.get(phi)) is None:
        levels = tuple(a.levels[phi(j)] for j in range(phi.dom + 1))
        maps = tuple(
            tuple(sorted(a.comp(phi(j - 1), phi(j)).items()))
            for j in range(1, phi.dom + 1)
        )
        b = memo[phi] = _fin_simplex((levels, maps))
    return b


def omega_obj(a: FinSimplex) -> Forest:
    """The forest generated by a chain, built afresh on every call;
    :attr:`FinSimplex.forest` is the copy shared by the chain's readers.

    Component order: top-level elements first (in level order), then dying
    elements by ascending level, preserving level order within a level.
    Vertices, trees and the forest are trusted builds: a valid chain's edge
    names are valid and distinct, and each element is the input of at most
    one vertex, its image's.
    """
    n = a.n
    roots: list[tuple[int, str]] = [(n, x) for x in a.levels[n]]
    for i in range(n):
        step = a.alpha(i + 1)
        roots.extend((i, x) for x in a.levels[i] if step[x] == STAR)

    preim: dict[tuple[int, str], list[str]] = {}
    for i in range(1, n + 1):
        step = a.alpha(i)
        below: dict[str, list[str]] = {x: [] for x in a.levels[i]}
        for b in a.levels[i - 1]:  # one pass, so each list keeps level order
            if step[b] != STAR:
                below[step[b]].append(b)
        preim.update(((i, x), bs) for x, bs in below.items())

    names = a.edge_names

    def build(root_level: int, root_elem: str) -> Tree:
        verts = []
        pending = [(root_level, root_elem)]
        while pending:
            i, x = pending.pop()
            if i == 0:
                continue
            below = preim[(i, x)]
            verts.append(_vertex((names[i][x], tuple(sorted([names[i - 1][b] for b in below])))))
            pending.extend((i - 1, b) for b in below)
        verts.sort(key=_out_edge)
        return _tree((names[root_level][root_elem], tuple(verts)))

    return _forest((tuple([build(i, x) for i, x in roots]),))


def omega_mor(phi: SimplicialOperator, a: FinSimplex) -> OperadMap:
    """The operad map from the forest of the reindexed chain to the forest of
    ``a``: edges keep their element and move to the reindexed level, vertices
    land on the level-uniform cuts.  Both forests are the chains' shared
    copies, and edges are renamed through their :attr:`~FinSimplex.edge_names`."""
    b = restrict(a, phi)
    to = a.edge_names
    rename = {e: to[phi(j)][x] for j, names in enumerate(b.edge_names) for x, e in names.items()}
    return _induced(b.forest, a.forest, rename.__getitem__)


@dataclass(frozen=True)
class RetractWitness:
    """Exhibits a forest as a retract of the forest of a chain.

    ``section`` embeds the forest into ``omega`` (the forest generated by
    ``simplex``); ``retraction`` collapses the padding chains back, and their
    composite is the identity.  ``padded`` is ``omega`` with its plain edge
    names.
    """

    simplex: FinSimplex
    padded: Forest
    omega: Forest
    section: OperadMap
    retraction: OperadMap


def _padded_height(t: Tree) -> int:
    """The height :func:`retract_witness` pads every leaf of ``t`` to: the
    depth of its deepest leaf, or one above its deepest stump."""
    depth = t.depth
    h_leaf = max((depth[l] for l in t.leaves), default=0)
    h_stump = max((depth[s] + 1 for s in t.stump_edges), default=0)
    return max(h_leaf, h_stump)


def _padded_edge_count(f: Tree | Forest) -> int:
    """The number of edges of ``retract_witness(f).padded``, counted without
    building it: each leaf gains its height minus its depth."""
    total = 0
    for t in as_forest(f).components:
        height, depth = _padded_height(t), t.depth
        total += len(t.edges) + sum(height - depth[l] for l in t.leaves)
    return total


def retract_witness(f: Tree | Forest) -> RetractWitness:
    forest = as_forest(f)
    used = set(forest.edge_set)

    def fresh(base: str) -> str:
        nm = base
        while nm in used:
            nm += "_"
        check_name(nm)
        used.add(nm)
        return nm

    padded_comps: list[Tree] = []
    heights: list[int] = []
    base_of: dict[str, str] = {}
    for t in forest.components:
        depth, height = t.depth, _padded_height(t)
        verts = list(t.vertices)
        for leaf in t.leaves:
            below = leaf
            for k in range(1, height - depth[leaf] + 1):
                nm = fresh(f"{leaf}{k}")
                base_of[nm] = leaf
                verts.append(_vertex((below, (nm,))))
                below = nm
        # trusted: each leaf grows a chain of fresh, checked names
        verts.sort(key=_out_edge)
        padded_comps.append(_tree((t.root, tuple(verts))))
        heights.append(height)

    padded = _forest((tuple(padded_comps),))
    n = max(heights, default=0)

    level_of: dict[str, int] = {}
    by_level: list[list[str]] = [[] for _ in range(n + 1)]  # by component, then by name
    for t, height in zip(padded_comps, heights):
        depth = t.depth
        for e in t.edges:
            level_of[e] = level = height - depth[e]
            by_level[level].append(e)
    levels = tuple(map(tuple, by_level))
    maps = []
    for i in range(n):
        row = []
        for e in levels[i]:
            t = padded.component_of[e]
            parent = t.parent.get(e)
            row.append((e, parent if parent is not None else STAR))
        maps.append(tuple(sorted(row)))
    simplex = FinSimplex(levels, tuple(maps))
    omega = omega_obj(simplex)

    def up(e: str) -> str:
        return edge_name(level_of[e], e)

    section = _induced(forest, omega, up)

    def down(e: str) -> str:
        return base_of.get(e, e)

    r_edge = {up(e): down(e) for e in padded.edges}
    r_vertex: dict[str, Operation] = {}
    for t in padded_comps:
        for v in t.vertices:
            if v.out_edge in base_of or v.out_edge in forest.component_of[t.root].leaves:
                img = down(v.out_edge)
                r_vertex[up(v.out_edge)] = Operation(img, (img,))
            else:
                r_vertex[up(v.out_edge)] = Operation(
                    v.out_edge, tuple(v.in_edges)
                )
    retraction = OperadMap.build(omega, forest, r_edge, r_vertex)
    return RetractWitness(simplex, padded, omega, section, retraction)
