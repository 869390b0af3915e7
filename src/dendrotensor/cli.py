"""Command-line front end.

Subcommands: ``omega`` (level diagram -> forest), ``hom`` (maps between
free forest operads), ``shuffles`` (tensor shuffle enumeration),
``tensor-hom`` (maps into a tensor of trees), ``free-algebra`` (term
listings), and ``check`` (the seeded verification suites).  Exit codes:
0 on success, 1 when a check suite reports failures, 2 on usage or parse
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import unicodedata
from pathlib import Path
from typing import Any, Iterable

from .levelforest import FinSimplex, omega_obj
from .lurie import BVTensorOperad, FreeForestOperad, free_algebra
from .omegacat import ForestInto, hom
from .render import gallery_pieces, json_escape, json_text, listing_json, map_texts
from .render import shuffle_clusters, term_texts, to_dot
from .shuffle import _count_states, _shuffle_texts, _state_table, _Table, _tensor_maps
from .suites import SUITE_NAMES, SuiteConfig, report_json, run_check
from .treecore import TreeError, parse_forest, parse_tree, serialize_forest, serialize_tree

__all__ = ["main"]

# default cap on the shuffles that ``shuffles`` and ``tensor-hom`` build and
# on the maps that ``hom`` and ``tensor-hom`` list; each is counted before
# anything is built
MAX_RESULTS = 1_000_000


def _read_json_source(arg: str) -> Any:
    """Accept inline JSON, ``-`` for stdin, or a file path."""
    if arg == "-":
        return json.load(sys.stdin)
    stripped = arg.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(arg)
    return json.loads(Path(arg).read_text(encoding="utf-8"))


def _refuse_control(names: Iterable[str], what: str = "edge name") -> None:
    """Refuse, for a ``--format text`` listing, which prints names bare, a
    name holding a control character (Unicode category ``Cc``)."""
    for e in names:
        for ch in e:
            if unicodedata.category(ch) == "Cc":
                raise TreeError(f"control character {ch!r} in {what} {e!r}")


def _emit(out: str | None, *pieces: str) -> None:
    """Write the pieces in turn to the file ``out``, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit_text(out: str | None, n: int, lines: Iterable[str]) -> None:
    """Write a ``--format text`` listing: a ``count: n`` line, then
    ``lines``, one per item."""
    _emit(out, f"count: {n}\n", "\n".join(lines), "\n" if n else "")


def _map_line(m: ForestInto, **extra: str) -> str:
    """A map as one line of a ``--format text`` listing."""
    vertex_map = {v: {"output": op.output, "inputs": list(op.inputs)} for v, op in m.components}
    entry = {"edge_map": dict(m.colors), "vertex_map": vertex_map, **extra}
    return json.dumps(entry, ensure_ascii=False, sort_keys=True)


def cmd_omega(args: argparse.Namespace) -> int:
    a = FinSimplex.from_json(_read_json_source(args.input))
    f = omega_obj(a)
    if args.format == "dot":
        _emit(args.out, to_dot(f, "omega"))
    elif args.format == "json":
        _emit(
            args.out,
            json_text(
                {
                    "forest": serialize_forest(f),
                    "components": len(f.components),
                    "edges": len(f.edges),
                }
            ),
        )
    else:
        _refuse_control(f.edges)
        _emit(args.out, serialize_forest(f) + "\n")
    return 0


def _check_cap(cap: int) -> int:
    if cap < 1:
        raise ValueError(f"--max-results must be at least 1, got {cap}")
    return cap


def cmd_hom(args: argparse.Namespace) -> int:
    src = parse_forest(args.source)
    tgt = parse_forest(args.target)
    maps = hom(src, tgt, cap=_check_cap(args.max_results))
    if args.format == "text":
        _emit_text(args.out, len(maps), map(_map_line, maps))
    else:
        _emit(args.out, *listing_json("maps", map_texts(maps)))
    return 0


def _check_shuffle_count(table: _Table, cap: int) -> int:
    """Refuse, before building any, a state table with more than ``cap``
    shuffles; return how many it has."""
    n = _count_states(table)
    if n > cap:
        raise ValueError(f"the factors have {n} shuffles, more than --max-results {cap}")
    return n


def cmd_shuffles(args: argparse.Namespace) -> int:
    factors = [parse_tree(t) for t in args.factors]
    if args.format == "text":
        _refuse_control(e for t in factors for e in t.edges)
    cap = _check_cap(args.max_results)
    table = _state_table(factors)
    n = _check_shuffle_count(table, cap)
    # every format is folded from the state table without trees: json and
    # text print each shuffle's canonical text, json escaping each state
    # name once instead of every text; dot writes one cluster per shuffle
    if args.format == "dot":
        listing = shuffle_clusters(table)
    else:
        listing = _shuffle_texts(table, json_escape if args.format == "json" else str)
    if len(listing) != n:
        raise ValueError(f"listed {len(listing)} shuffles, but the factors have {n}")
    if args.format == "dot":
        _emit(args.out, *gallery_pieces(listing, "shuffles"))
    elif args.format == "json":
        _emit(args.out, *listing_json("shuffles", listing, '"'))
    else:
        _emit_text(args.out, n, listing)
    return 0


def cmd_tensor_hom(args: argparse.Namespace) -> int:
    probe = parse_tree(args.probe)
    factors = [parse_tree(t) for t in args.factors]
    cap = _check_cap(args.max_results)
    # one state table: counted, then folded into the operad's cuts and the
    # witnesses
    tensor = BVTensorOperad(factors)
    _check_shuffle_count(tensor._states.items(), cap)
    homs = _tensor_maps(probe, tensor, cap)
    # many maps share a witness: serialize each witness once, keyed by the
    # tree object, which ``homs`` keeps alive
    piece = json_escape if args.format == "json" else str
    witness_text: dict[int, str] = {}
    witnesses = []
    for m in homs:
        text = witness_text.get(id(m.witness))
        if text is None:
            text = witness_text[id(m.witness)] = piece(serialize_tree(m.witness))
        witnesses.append(text)
    if args.format == "text":
        lines = (_map_line(m, witness_shuffle=w) for m, w in zip(homs, witnesses))
        _emit_text(args.out, len(homs), lines)
    else:
        _emit(args.out, *listing_json("maps", map_texts(homs, witnesses)))
    return 0


def cmd_free_algebra(args: argparse.Namespace) -> int:
    p = FreeForestOperad(parse_forest(args.operad))
    generators = _read_json_source(args.generators)
    if not isinstance(generators, dict) or not all(
        isinstance(c, str) for c in generators.values()
    ):
        raise TreeError("--generators must be a JSON object of index -> color string")
    inputs = _read_json_source(args.inputs)
    if not isinstance(inputs, dict) or not all(
        isinstance(xs, list) and all(isinstance(x, str) for x in xs)
        for xs in inputs.values()
    ):
        raise TreeError("--inputs must be a JSON object of index -> list of strings")
    if args.format == "text":
        _refuse_control([*p.forest.edges, args.output_color])
        _refuse_control(generators, "generator index")
        _refuse_control((x for xs in inputs.values() for x in xs), "input element")
    for idx, color in sorted(generators.items()):
        if color not in p.forest.edge_set:
            raise TreeError(f"generator {idx!r}: no edge {color!r} in {serialize_forest(p.forest)}")
    stray = sorted(inputs.keys() - generators.keys())
    if stray:
        raise TreeError(f"--inputs entry {stray[0]!r} names no generator")
    missing = sorted(generators.keys() - inputs.keys())
    if missing:
        raise TreeError(f"generator {missing[0]!r} has no --inputs entry")
    terms = free_algebra(p, generators, inputs, args.output_color)
    if args.format == "text":
        lines = (f"{'·'.join(t.indices)} | {t.label} | ({','.join(t.args)})" for t in terms)
        _emit_text(args.out, len(terms), lines)
    else:
        _emit(args.out, *listing_json("terms", term_texts(terms)))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    cfg = SuiteConfig(
        seed=args.seed,
        instances=args.instances,
        max_edges=args.max_edges,
        max_levels=args.max_levels,
        max_width=args.max_width,
        truncation=args.truncation,
        stump_probability=args.stump_probability,
    )
    t0 = time.monotonic()
    report = run_check(args.suite, cfg)
    elapsed = time.monotonic() - t0
    _emit(args.out, report_json(report))
    for s in report["suites"]:
        print(
            f"{s['suite']}: {len(s['records'])} records, {s['failures']} failures",
            file=sys.stderr,
        )
    print(
        f"total: {report['failures']} failures in {elapsed:.1f}s (seed {cfg.seed})",
        file=sys.stderr,
    )
    return 0 if report["failures"] == 0 else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one;
    parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="dendrotensor",
        description="Exact tree, forest, shuffle, and finite-operad combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    max_help = "refuse factors with more shuffles than this (default %(default)s)"

    p_omega = sub.add_parser("omega", help="turn a level diagram of pointed maps into its forest")
    p_omega.add_argument("input", help="level diagram JSON: inline, a path, or - for stdin")
    p_omega.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_omega.add_argument("--out", default=None)
    p_omega.set_defaults(func=cmd_omega)

    p_hom = sub.add_parser("hom", help="maps between the free operads of two forests")
    p_hom.add_argument("source", help="source forest, e.g. '{a[b,c]}' or a bare tree")
    p_hom.add_argument("target", help="target forest")
    p_hom.add_argument("--format", choices=("json", "text"), default="json")
    p_hom.add_argument("--out", default=None)
    p_hom.add_argument(
        "--max-results", type=int, default=MAX_RESULTS,
        help="refuse more maps than this (default %(default)s)",
    )
    p_hom.set_defaults(func=cmd_hom)

    p_sh = sub.add_parser("shuffles", help="enumerate the shuffles of a tensor of trees")
    p_sh.add_argument("factors", nargs="+", help="factor trees with disjoint edge names")
    p_sh.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_sh.add_argument("--out", default=None)
    p_sh.add_argument("--max-results", type=int, default=MAX_RESULTS, help=max_help)
    p_sh.set_defaults(func=cmd_shuffles)

    p_th = sub.add_parser("tensor-hom", help="maps from a tree's free operad into a tensor of trees")
    p_th.add_argument("probe", help="probe tree")
    p_th.add_argument("factors", nargs="+", help="tensor factor trees")
    p_th.add_argument("--format", choices=("json", "text"), default="json")
    p_th.add_argument("--out", default=None)
    p_th.add_argument(
        "--max-results", type=int, default=MAX_RESULTS,
        help="refuse factors with more shuffles, or more maps, than this (default %(default)s)",
    )
    p_th.set_defaults(func=cmd_tensor_hom)

    p_fa = sub.add_parser("free-algebra", help="free-algebra terms over a forest's free operad")
    p_fa.add_argument("operad", help="forest presenting the operad")
    p_fa.add_argument("--generators", required=True, help="JSON object: index -> color")
    p_fa.add_argument("--inputs", required=True, help="JSON object: index -> list of elements")
    p_fa.add_argument("--output-color", required=True, help="output color of the terms")
    p_fa.add_argument("--format", choices=("json", "text"), default="json")
    p_fa.add_argument("--out", default=None)
    p_fa.set_defaults(func=cmd_free_algebra)

    p_ck = sub.add_parser("check", help="run a seeded verification suite")
    p_ck.add_argument("suite", choices=("all",) + SUITE_NAMES)
    p_ck.add_argument("--seed", type=int, default=42)
    p_ck.add_argument("--instances", type=int, default=None)
    p_ck.add_argument("--max-edges", type=int, default=None)
    p_ck.add_argument("--max-levels", type=int, default=None)
    p_ck.add_argument("--max-width", type=int, default=None)
    p_ck.add_argument("--truncation", type=int, default=4)
    p_ck.add_argument("--stump-probability", type=float, default=0.2)
    p_ck.add_argument("--out", default=None)
    p_ck.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported; keep codes stable
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (TreeError, ValueError, KeyError, OSError) as exc:
        print(f"dendrotensor: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"dendrotensor: error: input nested too deeply ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
