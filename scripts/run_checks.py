#!/usr/bin/env python3
"""Run the verification suites across a sweep of seeds and summarize.

Each seed's line ends with the sha256 of its report bytes, so two checkouts
can be shown to write identical reports over a whole sweep.

Usage:
    python3 scripts/run_checks.py --seeds 42 7 9 11 --out-dir reports/
    python3 scripts/run_checks.py --suite fibrous --seeds 1 2 3 7 42
"""

import argparse
import hashlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dendrotensor.suites import SuiteConfig, report_json, run_check


@dataclass(frozen=True)
class SweepConfig:
    seeds: tuple[int, ...] = (42,)
    suite: str = "all"
    out_dir: str | None = None


def sweep(cfg: SweepConfig) -> int:
    total_failures = 0
    for seed in cfg.seeds:
        t0 = time.monotonic()
        report = run_check(cfg.suite, SuiteConfig(seed=seed))
        elapsed = time.monotonic() - t0
        n_records = sum(len(s["records"]) for s in report["suites"])
        total_failures += report["failures"]
        text = report_json(report)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        print(
            f"seed {seed:>6}: {report['failures']} failures / "
            f"{n_records} records in {elapsed:.1f}s  sha256 {digest}"
        )
        if cfg.out_dir:
            out = Path(cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"report-{cfg.suite}-{seed}.json").write_text(text, encoding="utf-8")
    return 1 if total_failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[42])
    ap.add_argument("--suite", default="all")
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()
    return sweep(SweepConfig(tuple(args.seeds), args.suite, args.out_dir))


if __name__ == "__main__":
    sys.exit(main())
