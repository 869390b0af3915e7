#!/usr/bin/env python3
"""Run the verification suites across a sweep of seeds and summarize.

Each seed's line ends with the sha256 of its report bytes, so two checkouts
can be shown to write identical reports over a whole sweep.  With
``--python PATH`` (repeatable) the sweep runs under each interpreter given,
in a child process with ``PYTHONDONTWRITEBYTECODE=1`` so that no checkout
gains ``__pycache__``, and prints one row per interpreter and seed.

Usage:
    python3 scripts/run_checks.py --seeds 42 7 9 11 --out-dir reports/
    python3 scripts/run_checks.py --suite fibrous --seeds 1 2 3 7 42
    python3 scripts/run_checks.py --seeds 42 1 2 3 7 \\
        --python ~/.pyenv/versions/3.10.13/bin/python \\
        --python ~/.pyenv/versions/3.13.0/bin/python
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class SweepConfig:
    seeds: tuple[int, ...] = (42,)
    suite: str = "all"
    out_dir: str | None = None


def sweep(cfg: SweepConfig) -> int:
    sys.path.insert(0, str(SRC))
    from dendrotensor.suites import SuiteConfig, report_json, run_check

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


def sweep_under(pythons: list[str], cfg: SweepConfig) -> int:
    """Run the sweep under each interpreter in turn, each row prefixed with
    the interpreter's version; reports go to one subdirectory per version."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    status = 0
    for python in pythons:
        version = subprocess.run(
            [python, "-c", "import platform; print(platform.python_version())"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        args = [python, __file__, "--suite", cfg.suite, "--seeds", *map(str, cfg.seeds)]
        if cfg.out_dir:
            args += ["--out-dir", str(Path(cfg.out_dir) / version)]
        done = subprocess.run(args, capture_output=True, text=True, env=env)
        for line in done.stdout.splitlines():
            print(f"python {version:<8} {line}")
        if done.returncode:
            print(f"python {version:<8} exit {done.returncode} {done.stderr.strip()}")
            status = 1
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[42])
    ap.add_argument("--suite", default="all")
    ap.add_argument("--out-dir", default=None)
    ap.add_argument(
        "--python", action="append", default=[], metavar="PATH",
        help="run the sweep under this interpreter instead (repeatable)",
    )
    args = ap.parse_args()
    cfg = SweepConfig(tuple(args.seeds), args.suite, args.out_dir)
    return sweep_under(args.python, cfg) if args.python else sweep(cfg)


if __name__ == "__main__":
    sys.exit(main())
