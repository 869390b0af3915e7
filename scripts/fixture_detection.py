#!/usr/bin/env python3
"""Detection rate of the injected-defect fixtures as sampling budgets shrink.

With exhaustive budgets every fixture is caught deterministically; with tiny
random budgets detection becomes probabilistic.  This sweeps the budget and
reports the detection rate over seeds, fixture by fixture.  Each check stops
at its first failure, since only whether it failed is counted.

Beside the five fixtures of ``defect_fixtures()`` the matrix runs two more
(``silent_branch_fixtures()``), each built to fire one failure branch of the
fibrous checks that none of the five fires, and two presentations that are
not categories (``category_fixtures()``); the report's fixed set stays the
five.  The last column, ``category``, says whether ``check_category``
catches the fixture, at the truncation or, for a category fixture, at the
one it needs if that is higher.  It checks every object and pair, so it is
run once, at seed 0, which only draws the one triple checked per pair.

Usage:
    python3 scripts/fixture_detection.py --seeds 20 --truncation 2
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dendrotensor import (
    EllMorphism,
    EllObject,
    EllPresentation,
    FreeForestOperad,
    TableOperad,
    check_category,
    check_fibrous,
    defect_fixtures,
    ell_identity,
    parse_forest,
)


class DoubledFiberIdentity(EllPresentation):
    """Lists one morphism over the identity of ``<2>`` twice: the identity
    of the object colored by the first color at both elements.  The fiber
    over ``<2>`` then has one morphism more than the product of the fibers
    over ``<1>``."""

    def admit(self, alpha, src, dst, mor):  # noqa: D102
        if alpha.is_identity and len(alpha.src) == 2:
            c = self.operad.colors()[0]
            if mor == ell_identity(self.operad, EllObject(alpha.src, (c, c))):
                return 2
        return 1


class UnlistedFirstMorphism(EllPresentation):
    """Omits from ``hom`` the first morphism over every active map ``<2> ->
    <1>``, which ``arrows_from`` (through ``_admitted``, as ``admit`` still
    says 1) keeps yielding."""

    def hom(self, alpha, src, dst):  # noqa: D102
        listed = super().hom(alpha, src, dst)
        if alpha.is_active and len(alpha.src) == 2 and len(alpha.dst) == 1:
            return listed[1:]
        return listed


def silent_branch_fixtures():
    """The two presentations over the operad of ``defect_fixtures()``, each
    with the text of the failure branch it is built to fire."""
    base = parse_forest("{r[a[x],b[]]}")
    return (
        ("doubled-fiber-identity", DoubledFiberIdentity(FreeForestOperad(base)), "expected the product"),
        ("unlisted-first-morphism", UnlistedFirstMorphism(FreeForestOperad(base)), "is not listed"),
    )


class DropTernary(EllPresentation):
    """Lists no morphism with a component of arity 3 or more.  Composing
    two listed morphisms can make one (``<3> -> <2> -> <1>``), so it is not
    a category, yet its fibrous checks pass."""

    def admit(self, alpha, src, dst, mor):  # noqa: D102
        return 0 if any(len(alpha.fiber(k)) >= 3 for k in alpha.dst.elements) else 1


class ConstantCompose(EllPresentation):
    """Over an operad with one color ``c`` and two unary operations, ``1``
    (the identity) and ``e``, every composite has ``e`` at each target
    element: closed and associative, but the identities are not units."""

    def compose(self, g, f):  # noqa: D102
        comps = tuple((k, "e") for k in g.dst.base.elements)
        return EllMorphism(g.alpha.after(f.alpha), f.src, g.dst, comps)


def category_fixtures():
    """Two presentations that are not categories, with the truncation at
    which ``check_category`` is to catch each, kept out of
    ``defect_fixtures()`` and the fibrous suite."""
    return (
        ("drop-ternary", DropTernary(FreeForestOperad(parse_forest("{a[b,c[d,e]]}"))), 3),
        ("constant-compose", ConstantCompose(TableOperad(["c"], {(("c",), "c"): ["1", "e"]})), 2),
    )


@dataclass(frozen=True)
class BudgetLevel:
    name: str
    colorings: int
    inerts: int
    betas: int
    arrows: int
    pairs: int


LEVELS = (
    BudgetLevel("tiny", 1, 1, 1, 4, 1),
    BudgetLevel("small", 2, 2, 2, 8, 2),
    BudgetLevel("medium", 4, 6, 4, 32, 4),
    BudgetLevel("exhaustive", 999, 999, 999, 500, 999),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20, help="number of rng seeds per cell")
    ap.add_argument("--truncation", type=int, default=2)
    args = ap.parse_args()

    fixtures = (
        tuple((name, pres, args.truncation) for name, pres in defect_fixtures())
        + tuple((name, pres, args.truncation) for name, pres, _ in silent_branch_fixtures())
        + tuple((name, pres, max(args.truncation, t)) for name, pres, t in category_fixtures())
    )
    width = max(len(name) for name, _, _ in fixtures)
    header = " ".join(f"{name:>10}" for name in [lv.name for lv in LEVELS] + ["category"])
    print(f"{'fixture':<{width}} {header}")
    for name, pres, category_truncation in fixtures:
        cells = []
        for lv in LEVELS:
            caught = 0
            for seed in range(args.seeds):
                report = check_fibrous(
                    pres,
                    truncation=args.truncation,
                    rng=Random(seed),
                    colorings_per_shape=lv.colorings,
                    inerts_per_shape=lv.inerts,
                    betas_per_lift=lv.betas,
                    arrows_budget=lv.arrows,
                    pairs_per_fiber=lv.pairs,
                    stop_on_failure=True,
                )
                caught += 0 if report.passed else 1
            cells.append(f"{caught}/{args.seeds}")
        category = check_category(pres, category_truncation, Random(0), stop_on_failure=True)
        cells.append("passed" if category.passed else "caught")
        print(f"{name:<{width}} " + " ".join(f"{c:>10}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
