#!/usr/bin/env python3
"""How fast shuffle counts grow: chains vs full binary trees.

Chains interleave like lattice paths (multinomials); bushy trees blow past
them because independent branches interleave independently.  The exact count
folds the table of shuffle states into sums of products, so no shuffle is
ever materialized.

Usage:
    python3 scripts/shuffle_growth.py --max-depth 4
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dendrotensor import Tree, Vertex, count_shuffles


def chain(prefix: str, n: int) -> Tree:
    names = [f"{prefix}{k}" for k in range(n + 1)]
    return Tree(names[0], tuple(Vertex(names[k], (names[k + 1],)) for k in range(n)))


def full_binary(prefix: str, depth: int) -> Tree:
    verts = []

    def grow(name: str, d: int) -> None:
        if d == 0:
            return
        kids = (f"{name}0", f"{name}1")
        verts.append(Vertex(name, kids))
        for kid in kids:
            grow(kid, d - 1)

    grow(prefix, depth)
    return Tree(prefix, tuple(verts))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-depth", type=int, default=4)
    args = ap.parse_args()

    print(f"{'n':>3} {'chain⊗chain':>14} {'binary⊗binary':>20}")
    for n in range(1, args.max_depth + 1):
        chains = count_shuffles([chain("a", n), chain("b", n)])
        bushy = count_shuffles([full_binary("a", n), full_binary("b", n)])
        print(f"{n:>3} {chains:>14} {bushy:>20}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
