#!/usr/bin/env python3
"""Which executable lines of each function in ``src/`` one run reaches.

The run happens in this process under ``sys.settrace``, which records line
events in files under ``src/`` only.  By default the run is the command line
``check all --seed 42``; any other ``dendrotensor`` command line can be given
instead, or ``--pytest ARGS`` runs a test selection.  For each function (its
comprehensions and lambdas counted with it) the census prints the lines the
run reached and the lines it did not, then a total per file.  It writes no
file: bytecode caching and pytest's cache are switched off.

Usage (the script's own options come before the command line):
    python3 scripts/line_census.py                       # check all --seed 42
    python3 scripts/line_census.py --only suites.py check functoriality --instances 1
    python3 scripts/line_census.py --only suites.py:_run --pytest "tests/test_suites.py -q"
"""

import argparse
import contextlib
import io
import shlex
import sys
from inspect import CO_OPTIMIZED
from itertools import groupby
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def _functions(path: Path):
    """``(qualname, lines)`` for each function defined in ``path``: the lines
    that hold its own instructions, its signature line left out."""
    found = []

    def walk(code, owner):
        if code.co_flags & CO_OPTIMIZED and code.co_name.startswith("<") and owner is not None:
            mine = owner  # a comprehension or lambda counts with its function
        elif code.co_flags & CO_OPTIMIZED:
            mine = (getattr(code, "co_qualname", code.co_name), set())
            found.append(mine)
        else:
            mine = None  # module or class body
        if mine is not None:
            lines = {line for _, _, line in code.co_lines() if line is not None}
            if mine is not owner:
                lines.discard(code.co_firstlineno)
            mine[1].update(lines)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, mine)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), None)
    return [(name, lines) for name, lines in found if lines]


def _spans(lines):
    """``1-3,7`` for the line numbers ``lines``."""
    runs = [[n for _, n in run] for _, run in groupby(enumerate(sorted(lines)), lambda p: p[1] - p[0])]
    return ",".join(f"{r[0]}" if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs) or "-"


def _traced(run):
    """Run ``run()`` under the tracer; return its result and the lines reached
    per file under ``src/``."""
    reached: dict[str, set[int]] = {}
    prefix = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set())
        return local

    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, reached


def _run_cli(argv):
    from dendrotensor.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _run_pytest(args):
    import pytest

    return pytest.main(["-p", "no:cacheprovider", *shlex.split(args)])


def census(reached, only=None):
    """The census lines for every function under ``src/`` whose
    ``file:qualname`` contains ``only``."""
    out, total = [], [0, 0]
    for path in sorted(SRC.rglob("*.py")):
        seen = reached.get(str(path), set())
        shown = path.relative_to(ROOT)
        per_file = [0, 0]
        for name, lines in _functions(path):
            if only and only not in f"{shown}:{name}":
                continue
            hit = lines & seen
            per_file[0] += len(hit)
            per_file[1] += len(lines)
            out.append(f"{shown}:{name}  {len(hit)}/{len(lines)}")
            out.append(f"    reached: {_spans(hit)}")
            out.append(f"    missed:  {_spans(lines - hit)}")
        if per_file[1]:
            out.append(f"{shown}: {per_file[0]}/{per_file[1]} lines reached")
            total[0] += per_file[0]
            total[1] += per_file[1]
    out.append(f"total: {total[0]}/{total[1]} lines reached")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument(
        "argv", nargs=argparse.REMAINDER, help="a dendrotensor command line (default: check all --seed 42)"
    )
    ap.add_argument("--pytest", metavar="ARGS", help="run this pytest selection instead of a command")
    ap.add_argument("--only", metavar="TEXT", help="list only the functions whose file:qualname contains TEXT")
    args = ap.parse_args()
    if args.pytest is not None and args.argv:
        ap.error("give a command line or --pytest, not both")
    if args.pytest is not None:
        what = f"pytest {args.pytest}"
        code, reached = _traced(lambda: _run_pytest(args.pytest))
    else:
        argv = args.argv or ["check", "all", "--seed", "42"]
        what = "dendrotensor " + " ".join(argv)
        code, reached = _traced(lambda: _run_cli(argv))
    print(f"# {what}: exit {int(code)}")
    print("\n".join(census(reached, args.only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
