"""Seeded random instance generators for the verification suites.

Everything draws from an explicit :class:`random.Random` so suites are
reproducible; nothing here touches the global generator.
"""

from __future__ import annotations

from random import Random

from .levelforest import STAR, FinSimplex, SimplicialOperator
from .treecore import Forest, Tree, Vertex

__all__ = [
    "random_tree",
    "random_forest",
    "random_fin_simplex",
    "random_operator",
]


def random_tree(
    rng: Random,
    max_edges: int,
    stump_probability: float = 0.2,
    prefix: str = "e",
) -> Tree:
    """A rooted tree with between 1 and ``max_edges`` edges; interior growth
    stops at leaves or, with the given probability, at stumps."""
    budget = rng.randint(1, max_edges)
    root = f"{prefix}0"
    used = 1
    vertices: list[Vertex] = []
    pending = [root]  # grown in pre-order, each edge's inputs left to right
    while pending and used < budget:
        e = pending.pop()
        roll = rng.random()
        if roll < stump_probability:
            vertices.append(Vertex(e, ()))
        elif roll >= stump_probability + 0.25:
            k = rng.randint(1, min(3, budget - used))
            kids = tuple(f"{prefix}{used + i}" for i in range(k))
            used += k
            vertices.append(Vertex(e, kids))
            pending += reversed(kids)
    return Tree(root, tuple(vertices))


def random_forest(
    rng: Random,
    max_edges: int,
    stump_probability: float = 0.2,
    max_components: int = 3,
    min_components: int = 0,
) -> Forest:
    """A forest of up to ``max_components`` trees sharing a ``max_edges``
    total edge budget (possibly empty when ``min_components`` allows)."""
    k = rng.randint(min_components, max_components)
    comps: list[Tree] = []
    remaining = max_edges
    for i in range(k):
        if remaining <= 0:
            break
        share = max(1, remaining // (k - i))
        t = random_tree(rng, share, stump_probability, prefix=f"t{i}_")
        remaining -= len(t.edges)
        comps.append(t)
    return Forest(tuple(comps))


def random_fin_simplex(rng: Random, max_width: int, max_length: int) -> FinSimplex:
    """A chain of pointed maps with up to ``max_length`` steps between
    levels of up to ``max_width`` elements (empty levels allowed)."""
    n = rng.randint(0, max_length)
    widths = [rng.randint(0, max_width) for _ in range(n + 1)]
    levels = tuple(tuple(str(j) for j in range(1, w + 1)) for w in widths)
    maps = []
    for i in range(n):
        choices = list(levels[i + 1]) + [STAR]
        maps.append(tuple((a, rng.choice(choices)) for a in levels[i]))
    return FinSimplex(levels, tuple(maps))


def random_operator(rng: Random, dom: int, cod: int) -> SimplicialOperator:
    """A monotone map ``{0..dom} -> {0..cod}``, uniform over value tuples."""
    values = sorted(rng.randint(0, cod) for _ in range(dom + 1))
    return SimplicialOperator(dom, cod, tuple(values))
