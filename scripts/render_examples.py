#!/usr/bin/env python3
"""Write DOT renderings: a level-diagram forest and a shuffle gallery.

Usage:
    python3 scripts/render_examples.py --out-dir renders/
    dot -Tsvg renders/level_forest.dot -o level_forest.svg
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dendrotensor import FinSimplex, count_shuffles, omega_obj, parse_tree
from dendrotensor.cli import main as cli_main
from dendrotensor.render import to_dot

CHAIN = {
    "levels": [[1, 2, 3, 4], [1, 2, 3], [1]],
    "maps": [{"1": 1, "2": 1, "3": 3, "4": 3}, {"1": 1, "2": 1, "3": "*"}],
}
FACTORS = ["p[x,y[]]", "q[u]"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="renders")
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    forest = omega_obj(FinSimplex.from_json(CHAIN))
    (out / "level_forest.dot").write_text(to_dot(forest, "level_forest"), encoding="utf-8")

    gallery = out / "shuffle_gallery.dot"
    code = cli_main(["shuffles", *FACTORS, "--format", "dot", "--out", str(gallery)])
    if code:
        return code
    n = count_shuffles([parse_tree(t) for t in FACTORS])
    print(f"wrote {out / 'level_forest.dot'} and {gallery} ({n} shuffles)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
