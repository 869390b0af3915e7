"""Benchmark runner for dendrotensor.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Runs one workload of ``perfbench/workloads.py`` in a closed loop: one
caller, one process, one thread, the next call only after the previous one
returned.  Set-up (import, input generation from ``--seed``, warm-up) is
repeated and its median reported.  The timed phase runs a fixed number of
whole passes over the workload's cases, in proportion to ``--seconds``
(``PASSES``); every result is checked outside the timed region.  Every
timed span is scaled to the host's speed during it, measured by a fixed
calibration loop run during and after it (``Clock``).
``--trace 1`` instead alternates untraced and traced passes and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  The line before it describes the
run (tail percentile, sample count, fail ratio, report digests, machine).
The exit code is 1 when a gate failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

from tracer import Tracer
from workloads import BUILDERS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
MODULES = ("treecore", "omegacat", "levelforest", "shuffle", "lurie", "suites", "cli", "render", "_rand")
SETUP_REPEATS = 9
# Whole passes over a workload's cases in a 20-second run; a run of
# --seconds makes round(PASSES * seconds / 20) of them.  A fixed pass count
# makes every run, and both commits of a comparison, time the same calls,
# so the sample behind call_s_tail is the same call each time; stopping on
# the clock let the pass count follow the machine's speed and moved that
# sample between calls.  The counts put that sample (the eleventh slowest)
# inside the samples of one of the slowest calls rather than on the edge
# between two: at 10 passes of `enumerate` it was the fastest of the
# slowest call's ten or the slowest of the next one's.  One pass takes about
# 2.5 s of `verify`, 1.8 s of `enumerate` and 0.8 s of `decompose` on the
# reference machine (2 cores, CPython 3.11).
PASSES = {"verify": 7, "enumerate": 15, "decompose": 25}
# The host's speed swings by 20-50% over seconds to minutes, which no run
# length averages out.  So a fixed loop of interpreter work (``spin``) is
# timed every CAL_PERIOD_S during a timed span (from a timer signal) and
# CAL_END times right after it, and the span's time, less the loops run
# inside it, is scaled by CAL_REF_S over the mean loop time from the loop
# before the span to the last after it.  The end-to-end times are thus
# seconds at the speed at which the loop takes CAL_REF_S (about the
# reference machine's median); the unscaled times are printed on the line
# before the result.
CAL_N = 2500
CAL_REF_S = 0.0006
CAL_PERIOD_S = 0.01
CAL_END = 4
# The loop reads this buffer at strides that miss the core's own caches:
# the slow phases are contention for memory as much as for the core, and
# within one process a loop of arithmetic alone left twice the spread over
# time on the calls' scaled times.  It adds 4 MiB to peak_rss_mib.
CAL_BUF = bytes(range(256)) * 16384
# Untraced and traced passes alternate this many times in a traced run; the
# overhead is the difference of their medians, and the traced pass of median
# length gives the per-layer metrics.
TRACE_PAIRS = 3


def spin(n: int = CAL_N) -> int:
    """Interpreter work, strided reads of ``CAL_BUF`` and small string
    allocations.  It allocates no object the garbage collector tracks, so
    its time does not depend on the program's heap."""
    t = (3, 1, 4, 1, 5, 9, 2, 6)
    buf = CAL_BUF
    s = j = 0
    for i in range(n):
        j = (j + 65599 + i) & 0x3FFFFF
        s = (s + t[i & 7] * buf[j]) & 0xFFFFF
        str(s)
    return s


class Clock:
    """Times spans and scales each to the host's speed during it."""

    def __init__(self) -> None:
        self.cal: list[float] = []  # every spin() time, in order
        self.paused = 0.0  # their sum
        self.busy = False
        self.calibrate(CAL_END)

    def calibrate(self, times: int = 1) -> None:
        if self.busy:  # a tick during an explicit calibration
            return
        self.busy = True
        for _ in range(times):
            t0 = perf_counter()
            spin()
            d = perf_counter() - t0
            self.cal.append(d)
            self.paused += d
        self.busy = False

    def __enter__(self) -> "Clock":
        signal.signal(signal.SIGALRM, lambda *_: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def span(self, fn: Callable[[], Any]) -> tuple[Any, BaseException | None, float, float]:
        """Run ``fn``; return its result, the exception it raised, and its
        unscaled and scaled seconds."""
        k, paused = len(self.cal) - 1, self.paused
        result, error = None, None
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller counts it as failed
            error = exc
        raw = perf_counter() - t0 - (self.paused - paused)
        self.calibrate(CAL_END)
        return result, error, raw, raw * CAL_REF_S / statistics.fmean(self.cal[k:])


def load_library() -> SimpleNamespace:
    """Import ``dendrotensor`` afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "dendrotensor" or m.startswith("dendrotensor.")]:
        del sys.modules[name]
    package = importlib.import_module("dendrotensor")
    mods = {m: importlib.import_module(f"dendrotensor.{m}") for m in MODULES}
    return SimpleNamespace(package=package, modules=MODULES, **mods)


def setup(workload: str, seed: int, workdir: Path) -> tuple[SimpleNamespace, Workload, list[float], list[float]]:
    """Import, build the inputs and warm up, ``SETUP_REPEATS`` times; the
    last workload built is the one measured.  Returns the scaled and the
    raw set-up times."""
    times, raw = [], []

    def once() -> tuple[SimpleNamespace, Workload]:
        dt = load_library()
        wl = BUILDERS[workload](dt, seed, workdir)
        for case in wl.warmup:
            case.run()
        return dt, wl

    with Clock() as clock:
        for _ in range(SETUP_REPEATS):
            built = None
            gc.collect()
            built, error, r, t = clock.span(once)
            if error is not None:
                raise error
            raw.append(r)
            times.append(t)
    return *built, times, raw


class Tally:
    """Call durations, items and failures of one phase."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.durations: list[float] = []
        self.raw: list[float] = []
        # per case (by id; labels are cut short and may repeat): its scaled
        # call times and its item counts
        self.by_case: dict[int, tuple[list[float], list[int]]] = {}
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.records: dict[str, int] = {}
        self.bytes_out = 0

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def call(self, case) -> None:
        """Time one call, then gate it and count its items untimed.  The
        call starts from a collected heap (see ``measure``)."""
        self.attempted += 1
        gc.collect()
        result, error, raw, scaled = self.clock.span(case.run)
        self.raw.append(raw)
        self.durations.append(scaled)
        if error is not None:  # a failing call counts against fail_ratio
            self.fail(case.label, error)
            return
        try:
            case.gate(result)
            n = case.items(result)
        except Exception as exc:
            self.fail(case.label, exc)
            return
        self.items += n
        times, items = self.by_case.setdefault(id(case), ([], []))
        times.append(scaled)
        items.append(n)
        if case.out is not None:
            self.bytes_out += case.out.stat().st_size
        if case.kind == "check":
            self.records[case.label] = n

    def call_s_p50(self) -> float:
        """The median over the cases of their median scaled call time.  The
        median of all calls fell between two cases and followed the slowest
        sample of the faster one."""
        return statistics.median(statistics.median(t) for t, _ in self.by_case.values())

    def items_per_s(self) -> float:
        """Items over call time of a typical pass: the sums over the cases
        of their median items and median scaled call time."""
        times = [statistics.median(t) for t, _ in self.by_case.values()]
        items = [statistics.median(n) for _, n in self.by_case.values()]
        return sum(items) / sum(times)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    def gate(self, what: str, check) -> None:
        self.attempted += 1
        try:
            check()
        except Exception as exc:
            self.fail(what, exc)


def run_pass(wl: Workload) -> tuple[Tally, float]:
    """One pass over the cases; returns the tally and the summed unscaled
    call time, which leaves out the gates between calls."""
    tally = Tally(Clock())
    for case in wl.cases:
        tally.call(case)
    return tally, sum(tally.raw)


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and the
    percentile it stands for."""
    xs = sorted(durations)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0 * (n - 1) / n
    return xs[n - 11], 100.0 * (n - 10) / n


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = bench_spec()
    if not (SRC / "dendrotensor" / "__init__.py").is_file():
        print(f"perfbench: no dendrotensor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args: argparse.Namespace, spec: dict, workdir: Path) -> int:
    dt, wl, setup_times, setup_raw = setup(args.workload, args.seed, workdir)
    # Leave the objects set-up made out of every later collection: each
    # call then starts from a heap collected in well under a millisecond,
    # and neither its garbage collection time nor the peak memory depends
    # on what the calls before it left or on the benchmark's own objects.
    gc.collect()
    gc.freeze()
    info: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "cases": len(wl.cases),
        "setup_s_each": [round(t, 4) for t in setup_times],
        "raw_setup_s_each": [round(t, 4) for t in setup_raw],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loop": "closed, 1 caller, 1 process, 1 thread",
    }
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        tally = Tally(Clock())
        untraced, traced = [], []
        for _ in range(TRACE_PAIRS):
            plain, busy = run_pass(wl)
            tally.add(plain)
            untraced.append(busy)
            tracer = Tracer(dt)
            tracer.install()
            try:
                one, busy = run_pass(wl)
            finally:
                tracer.uninstall()
            tally.add(one)
            traced.append((busy, tracer, one))
        busy, tracer, one = sorted(traced, key=lambda t: t[0])[TRACE_PAIRS // 2]
        overhead = busy - statistics.median(untraced)
        values = tracer.metrics(busy, overhead, one.bytes_out, one.records)
        spans = BUILD / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write(spans)
        info.update(
            untraced_pass_s=[round(b, 4) for b in untraced],
            traced_pass_s=[round(t[0], 4) for t in traced],
            spans=len(tracer.start),
            spans_file=str(spans.relative_to(ROOT)),
        )
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        with Clock() as clock:
            tally = Tally(clock)
            start = perf_counter()
            for _ in range(max(1, round(PASSES[args.workload] * args.seconds / 20))):
                for case in wl.cases:
                    tally.call(case)
            wall = perf_counter() - start
        busy = sum(tally.raw)
        p, pct = tail(tally.durations)
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (tally.items_per_s(), "1/s"),
            "call_s_p50": (tally.call_s_p50(), "s"),
            "call_s_tail": (p, "s"),
        }
        info.update(
            passes=len(tally.durations) // len(wl.cases),
            samples=len(tally.durations),
            tail_percentile=round(pct, 2),
            items=tally.items,
            busy_s=round(busy, 4),
            unscaled={
                "setup_s": statistics.median(setup_raw),
                "items_per_s": tally.items / busy,
                "call_s_p50": statistics.median(tally.raw),
                "call_s_tail": tail(tally.raw)[0],
            },
            wall_s=round(wall, 4),
        )
    for what, check in wl.final_gates:
        tally.gate(what, check)
    if not args.trace:
        values["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    missing = set(names) - set(values)
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json but not measured: {sorted(missing)}")
    info.update(
        fail_ratio={"value": tally.failed / tally.attempted, "unit": "ratio"},
        failed=tally.failed,
        attempted=tally.attempted,
        errors=tally.errors,
        **wl.facts,
    )
    correct = tally.failed == 0
    print("perfbench: " + json.dumps(info, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n][0], "unit": values[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
