"""Level diagrams of finite pointed sets and the forests they generate.

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
from dataclasses import dataclass
from typing import Any, Mapping

from .omegacat import OperadMap, Operation, _induced
from .treecore import Forest, Tree, TreeError, Vertex, _cached, as_forest, check_name

__all__ = [
    "STAR",
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


@dataclass(frozen=True)
class FinSimplex:
    """A chain of composable maps between finite sets with a free basepoint.

    ``levels[i]`` lists the level-``i`` elements (order is remembered and
    used for deterministic output); ``maps[i]`` sends level-``i`` elements to
    level-``i+1`` elements or to ``STAR``.

    What depends only on the chain (edge names, :attr:`forest`, restrictions,
    pointed levels) is built on first use and goes away with the chain.
    """

    levels: tuple[tuple[str, ...], ...]
    maps: tuple[tuple[tuple[str, str], ...], ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise TreeError("a chain needs at least one level")
        if len(self.maps) != len(self.levels) - 1:
            raise TreeError("need exactly one map per consecutive level pair")
        for lev in self.levels:
            for a in lev:
                check_name(a)
                if a == STAR:
                    raise TreeError("'*' is reserved for the basepoint")
            if len(set(lev)) != len(lev):
                raise TreeError("level elements must be distinct")
        for i, m in enumerate(self.maps):
            src = dict(m)
            if set(src) != set(self.levels[i]) or len(m) != len(self.levels[i]):
                raise TreeError(f"map {i} is not total on level {i}")
            allowed = set(self.levels[i + 1]) | {STAR}
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
    def pointed_levels(self) -> tuple[tuple[Any, ...], tuple[Any, ...]]:
        """The levels as pointed sets and the maps between them, built once."""
        from .lurie import _pointed_levels

        return _pointed_levels(self)

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


@dataclass(frozen=True)
class SimplicialOperator:
    """A monotone map ``{0..dom} -> {0..cod}`` acting on chains by reindexing."""

    dom: int
    cod: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dom < 0 or self.cod < 0 or len(self.values) != self.dom + 1:
            raise TreeError("operator arity mismatch")
        for a, b in zip(self.values, self.values[1:]):
            if a > b:
                raise TreeError("operator is not monotone")
        if self.values and not (0 <= self.values[0] and self.values[-1] <= self.cod):
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
    once per chain and operator; the identity gives ``a`` itself."""
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
        b = memo[phi] = FinSimplex(levels, maps)
    return b


def omega_obj(a: FinSimplex) -> Forest:
    """The forest generated by a chain, built afresh on every call;
    :attr:`FinSimplex.forest` is the copy shared by the chain's readers.

    Component order: top-level elements first (in level order), then dying
    elements by ascending level, preserving level order within a level.
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
        verts: list[Vertex] = []
        pending = [(root_level, root_elem)]
        while pending:
            i, x = pending.pop()
            if i == 0:
                continue
            below = preim[(i, x)]
            verts.append(Vertex(names[i][x], tuple([names[i - 1][b] for b in below])))
            pending.extend((i - 1, b) for b in below)
        return Tree(names[root_level][root_elem], tuple(verts))

    return Forest(tuple(build(i, x) for i, x in roots))


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
                verts.append(Vertex(below, (nm,)))
                below = nm
        padded_comps.append(Tree(t.root, tuple(verts)))
        heights.append(height)

    padded = Forest(tuple(padded_comps))
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
