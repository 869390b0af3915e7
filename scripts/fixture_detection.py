#!/usr/bin/env python3
"""Detection rate of the injected-defect fixtures as sampling budgets shrink.

With exhaustive budgets every fixture is caught deterministically; with tiny
random budgets detection becomes probabilistic.  This sweeps the budget and
reports the detection rate over seeds, fixture by fixture.  Each check stops
at its first failure, since only whether it failed is counted.

Usage:
    python3 scripts/fixture_detection.py --seeds 20 --truncation 2
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dendrotensor import check_fibrous, defect_fixtures


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

    fixtures = defect_fixtures()
    width = max(len(name) for name, _ in fixtures)
    header = " ".join(f"{lv.name:>10}" for lv in LEVELS)
    print(f"{'fixture':<{width}} {header}")
    for name, pres in fixtures:
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
        print(f"{name:<{width}} " + " ".join(f"{c:>10}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
