"""Seeded verification suites behind the ``check`` command.

Each suite is a draw and a check.  The draw takes the suite's generator,
``Random(f"{seed}:{suite}")``, and an instance index, and returns the instance
and its witness, or ``None`` to reject the draw.  The check returns a
``(check, ok)`` result per check the suite declares; a third item adds to that
record's witness.  One driver, :func:`_run`, owns the rest: the instance loop,
the ``MAX_DRAWS`` retry, the rule that a :class:`TreeError` in a check fails
each declared check of that instance (the run goes on), and the records
``{check, instance, status, witness?}``.  Reports contain nothing
time-dependent, so identical seeds and configs give byte-identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from itertools import product
from random import Random
from typing import Any, Callable, NamedTuple

from ._rand import random_fin_simplex, random_forest, random_operator, random_tree
from .levelforest import (
    SimplicialOperator,
    _padded_edge_count,
    omega_mor,
    restrict,
    retract_witness,
    split_edge_name,
)
from .lurie import (
    EllPresentation,
    _chain_tables,
    _walk_chains,
    check_fibrous,
    chain_to_map,
    defect_fixtures,
    free_algebra,
    map_to_chain,
    restrict_chain,
)
from .omegacat import (
    FreeForestOperad,
    _cut_total,
    _key_passes,
    _map_count,
    compose,
    identity_map,
    maps_into,
    precompose,
    segal_components_check,
    segal_cut_check,
    validate,
)
from .render import json_text
from .shuffle import (
    _assoc_inclusion,
    _count_states,
    _interior_decomposition,
    _name,
    _shuffle_trees,
    _state_table,
    _stump_transport,
    inclusion_map,
    intersect,
)
from .treecore import (
    Forest,
    Tree,
    TreeError,
    Vertex,
    cut_at,
    max_edges,
    serialize_forest,
    serialize_tree,
)

__all__ = ["SuiteConfig", "SUITE_NAMES", "run_check", "report_json"]


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by every suite; ``None`` falls back to the suite's own
    default (the sizes the acceptance runs use).  Sizes must be at least 1,
    the truncation at least 0 and the stump probability in [0, 1]; anything
    else raises :class:`ValueError`."""

    seed: int = 42
    instances: int | None = None
    max_edges: int | None = None
    max_levels: int | None = None
    max_width: int | None = None
    truncation: int = 4
    stump_probability: float = 0.2

    def __post_init__(self) -> None:
        for name in ("instances", "max_edges", "max_levels", "max_width"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.truncation < 0:
            raise ValueError(f"truncation must be at least 0, got {self.truncation}")
        if not 0.0 <= self.stump_probability <= 1.0:
            raise ValueError(
                f"stump_probability must lie in [0, 1], got {self.stump_probability}"
            )


def _or_default(value: int | None, default: int) -> int:
    return default if value is None else value


Record = dict[str, Any]
Witness = dict[str, Any]


def _rec(check: str, instance: Any, ok: bool, witness: Any = None) -> Record:
    out: Record = {"check": check, "instance": instance, "status": "pass" if ok else "fail"}
    if witness is not None and not ok:
        out["witness"] = witness
    return out


def _rng(cfg: SuiteConfig, suite: str) -> Random:
    return Random(f"{cfg.seed}:{suite}")


MAX_DRAWS = 1000
MAX_CUTS = 10_000  # the most operations of an operad drawn by nerve or fibrous, which list them all


def _draw(attempt: Callable[[], Any], failure: str, **settings: Any) -> Any:
    """The first draw ``attempt`` accepts (it returns ``None`` to reject one),
    trying at most ``MAX_DRAWS`` times.  When every draw is rejected, raise
    :class:`ValueError` with ``failure`` and the settings that caused it."""
    for _ in range(MAX_DRAWS):
        found = attempt()
        if found is not None:
            return found
    shown = ", ".join(f"{k}={v}" for k, v in settings.items())
    raise ValueError(f"{failure} in {MAX_DRAWS} draws ({shown})")


def _operator_json(phi: SimplicialOperator) -> dict[str, Any]:
    return {"dom": phi.dom, "cod": phi.cod, "values": list(phi.values)}


class _Suite(NamedTuple):
    """One suite at one config, as :func:`_run` runs it."""

    params: dict[str, Any]  # the settings its report shows; "instances" counts the loop
    checks: tuple[str, ...]  # the checks each instance's results name, in order
    draw: Callable[[Random, int], tuple[Any, Witness] | None]
    check: Callable[[Any, Random], list[tuple]]  # (check, ok) or (check, ok, witness items)
    refusal: str = ""  # what every rejected draw lacked, for the give-up error
    bounds: dict[str, Any] = {}  # the settings that error names
    head: list[Record] = []  # fixed records ahead of the instances
    tail: Callable[[], list[Record]] = lambda: []  # fixed records built after them


# ---------------------------------------------------------------------------
# level-forest suites
# ---------------------------------------------------------------------------


def suite_functoriality(cfg: SuiteConfig) -> _Suite:
    width = _or_default(cfg.max_width, 5)
    length = _or_default(cfg.max_levels, 4)

    def draw(rng: Random, i: int) -> tuple[Any, Witness]:
        a = random_fin_simplex(rng, width, length)
        phi = random_operator(rng, rng.randint(0, length), a.n)
        psi = random_operator(rng, rng.randint(0, length), phi.dom)
        return (a, phi, psi), {"simplex": a.to_json()}

    def check(instance: Any, rng: Random) -> list[tuple]:
        a, phi, psi = instance
        ident = omega_mor(SimplicialOperator.identity(a.n), a) == identity_map(a.forest)
        lhs = omega_mor(phi.after(psi), a)
        comp = lhs == compose(omega_mor(phi, a), omega_mor(psi, restrict(a, phi)))
        chain = {"phi": _operator_json(phi), "psi": _operator_json(psi)}
        return [("identity", ident), ("composition", comp, chain)]

    n = _or_default(cfg.instances, 200)
    params = {"instances": n, "max_width": width, "max_levels": length}
    return _Suite(params, ("identity", "composition"), draw, check)


def _level_rename_iso(padded: Forest, omega: Forest) -> bool:
    """Whether stripping the level prefixes of ``omega`` recovers ``padded``
    exactly — the explicit isomorphism the padding promises."""
    mapping: dict[str, str] = {}
    for e in omega.edges:
        level = split_edge_name(e)
        if level is None:
            return False
        mapping[level[1]] = e
    if set(mapping) != padded.edge_set:
        return False
    renamed = Forest(
        tuple(
            Tree(
                mapping[t.root],
                tuple(
                    Vertex(mapping[v.out_edge], tuple(mapping[d] for d in v.in_edges))
                    for v in t.vertices
                ),
            )
            for t in padded.components
        )
    )
    return renamed.canonical_key() == omega.canonical_key()


# padded edges above which `retract` refuses a draw (padding grows as leaves × height)
MAX_PADDED_EDGES = 100_000


def suite_retract(cfg: SuiteConfig) -> _Suite:
    edges = _or_default(cfg.max_edges, 10)

    def draw(rng: Random, i: int) -> tuple[Any, Witness]:
        if i == 0:
            f = Forest(())
        else:
            sp = 0.5 if i % 3 == 0 else cfg.stump_probability
            f = random_forest(rng, edges, sp)
        if (padded := _padded_edge_count(f)) > MAX_PADDED_EDGES:
            raise ValueError(f"retract: instance {i} pads to {padded} edges > bound {MAX_PADDED_EDGES}")
        return f, {"forest": serialize_forest(f)}

    def check(f: Forest, rng: Random) -> list[tuple]:
        w = retract_witness(f)
        validate(w.section)
        validate(w.retraction)
        ok = (
            compose(w.retraction, w.section) == identity_map(f)
            and _level_rename_iso(w.padded, w.omega)
            and len(w.omega.edges) == _padded_edge_count(f)
        )
        return [("retract", ok)]

    params = {"instances": _or_default(cfg.instances, 100), "max_edges": edges}
    return _Suite(params, ("retract",), draw, check)


# ---------------------------------------------------------------------------
# Segal suites
# ---------------------------------------------------------------------------


def _tree_with_inner(
    rng: Random, max_edges_: int, sp: float, prefix: str, suite: str
) -> Tree:
    def attempt() -> Tree | None:
        t = random_tree(rng, max_edges_, sp, prefix=prefix)
        return t if t.inner_edges else None

    return _draw(
        attempt,
        f"{suite}: no tree with an inner edge",
        max_edges=max_edges_,
        stump_probability=sp,
    )


def _map_total(scope: Tree | Forest, p: FreeForestOperad) -> int:
    """How many maps ``maps_into(scope, p)`` lists, counted as its ``cap``
    check counts them, so that sizing a draw builds no map."""
    return _map_count(_key_passes(scope, p), p)


def suite_segal(cfg: SuiteConfig) -> _Suite:
    edges = _or_default(cfg.max_edges, 7)
    sp = cfg.stump_probability

    def draw(rng: Random, i: int) -> tuple[Any, Witness] | None:
        g = random_forest(rng, 8, sp, min_components=1)
        p = FreeForestOperad(g)
        t = _tree_with_inner(rng, edges, sp, "s", "segal")
        b = rng.choice(sorted(t.inner_edges))
        n_low, n_up = (_map_total(part, p) for part in cut_at(t, b))
        if max(n_low, n_up) > 20000 or n_low * n_up > 50000:
            return None
        return (p, t, b), {"tree": serialize_tree(t), "edge": b, "operad": serialize_forest(g)}

    return _Suite(
        {"instances": _or_default(cfg.instances, 100), "max_edges": edges},
        ("segal-cut",),
        draw,
        lambda instance, rng: [("segal-cut", segal_cut_check(*instance))],
        "no instance within the map-count bounds",
        {"max_edges": edges, "stump_probability": sp},
    )


def suite_d3(cfg: SuiteConfig) -> _Suite:
    sp = cfg.stump_probability

    def draw(rng: Random, i: int) -> tuple[Any, Witness] | None:
        f = Forest(()) if i == 0 else random_forest(rng, 8, sp)
        g = random_forest(rng, 6, sp, min_components=1)
        p = FreeForestOperad(g)
        sizes = [_map_total(t, p) for t in f.components]
        if max(sizes, default=0) > 20000 or math.prod(sizes) > 20000:
            return None
        return (p, f), {"forest": serialize_forest(f), "operad": serialize_forest(g)}

    return _Suite(
        {"instances": _or_default(cfg.instances, 50)},
        ("components",),
        draw,
        lambda instance, rng: [("components", segal_components_check(*instance))],
        "no instance within the map-count bound",
        {"stump_probability": sp},
    )


# ---------------------------------------------------------------------------
# nerve suite
# ---------------------------------------------------------------------------


def suite_nerve(cfg: SuiteConfig) -> _Suite:
    edges = _or_default(cfg.max_edges, 8)
    width = _or_default(cfg.max_width, 4)
    length = min(_or_default(cfg.max_levels, 3), 3)

    def draw(rng: Random, i: int) -> tuple[Any, Witness] | None:
        g = random_forest(rng, edges, cfg.stump_probability, min_components=1)
        p = FreeForestOperad(g)
        a = random_fin_simplex(rng, width, length)
        if len(p.colors()) ** len(a.levels[0]) > 2000 or _cut_total(g) > MAX_CUTS:
            return None
        try:
            tables = _chain_tables(p, a, cap=30000)
            maps = maps_into(a.forest, p, cap=60000)
        except TreeError:  # over a cap
            return None
        return (p, a, tables, maps), {"operad": serialize_forest(g), "simplex": a.to_json()}

    def check(instance: Any, rng: Random) -> list[tuple]:
        p, a, tables, maps = instance
        # each chain's image, walked with it off the tables, is struck off
        # the maps: a miss or a second hit strikes nothing, so the maps
        # struck fall short of the chains walked, or a map is left over
        left, kept, n = set(maps), [], 0
        distinct = len(left)
        for n, (ch, m) in enumerate(_walk_chains(tables), 1):
            left.discard(m)
            if n <= 50:
                kept.append((ch, m))
        ok = distinct == len(maps) == tables.total == n and not left
        # the first chains round-trip through their images, and naturality
        # reads chain_to_map's images of them
        images = [chain_to_map(ch) for ch, _ in kept]
        ok = ok and all(mine == m and map_to_chain(p, a, m) == ch for (ch, m), mine in zip(kept, images))
        phi = random_operator(rng, rng.randint(0, 3), a.n)
        h = omega_mor(phi, a)
        nat_ok = all(
            chain_to_map(restrict_chain(p, ch, phi)) == precompose(p, m, h)
            for (ch, _), m in zip(kept[:20], images)
        )
        drawn = {"phi": _operator_json(phi)}
        return [("nerve-bijection", ok, drawn), ("nerve-naturality", nat_ok, drawn)]

    sizes = {"max_edges": edges, "max_width": width, "max_levels": length}
    return _Suite(
        {"instances": _or_default(cfg.instances, 100), **sizes},
        ("nerve-bijection", "nerve-naturality"),
        draw,
        check,
        "no instance within the chain and map caps",
        {**sizes, "stump_probability": cfg.stump_probability},
    )


# ---------------------------------------------------------------------------
# fibrous suite
# ---------------------------------------------------------------------------


def suite_fibrous(cfg: SuiteConfig) -> _Suite:
    edges = _or_default(cfg.max_edges, 6)

    def draw(rng: Random, i: int) -> tuple[Any, Witness] | None:
        f = random_forest(rng, edges, cfg.stump_probability, min_components=1)
        if _cut_total(f) > MAX_CUTS:
            return None
        return (f, Random(f"{cfg.seed}:fibrous:{i}")), {"forest": serialize_forest(f)}

    def check(instance: Any, rng: Random) -> list[tuple]:
        f, own = instance
        pres = EllPresentation(FreeForestOperad(f))
        rep = check_fibrous(pres, truncation=cfg.truncation, rng=own)
        return [("fibrous", rep.passed, {"failures": rep.failures[:5]})]

    # a fixture's record carries only whether a defect was found, so its
    # check stops at the first failure instead of re-confirming the defect
    def fixtures() -> list[Record]:
        records = []
        for name, fixture in defect_fixtures():
            rep = check_fibrous(
                fixture, truncation=2, rng=Random(f"{cfg.seed}:fixture:{name}"),
                colorings_per_shape=999, inerts_per_shape=999, betas_per_lift=999,
                arrows_budget=500, pairs_per_fiber=999, stop_on_failure=True,
            )
            note = {"fixture": name, "note": "defect escaped every check"}
            records.append(_rec("defect-detected", name, not rep.passed, note))
        return records

    params = {
        "instances": _or_default(cfg.instances, 25),
        "truncation": cfg.truncation,
        "summary": f"verified up to ⟨{cfg.truncation}⟩",
    }
    refusal = "no forest within the cut bound"
    return _Suite(params, ("fibrous",), draw, check, refusal, {"max_edges": edges}, tail=fixtures)


# ---------------------------------------------------------------------------
# shuffle suites
# ---------------------------------------------------------------------------


def _linear(prefix: str, vertices: int) -> Tree:
    names = [f"{prefix}{k}" for k in range(vertices + 1)]
    return Tree(
        names[0],
        tuple(Vertex(names[k], (names[k + 1],)) for k in range(vertices)),
    )


def _random_factors(
    rng: Random, n_factors: int, max_edges_: int, sp: float, bound: int, suite: str
) -> tuple[list[Tree], list]:
    """Factors with at most ``bound`` shuffles, and their state table: the
    one table a check of these factors reads."""
    prefixes = "abcd"

    def attempt() -> tuple[list[Tree], list] | None:
        factors = [
            random_tree(rng, max_edges_, sp, prefix=prefixes[j])
            for j in range(n_factors)
        ]
        table = _state_table(factors)
        return (factors, table) if _count_states(table) <= bound else None

    return _draw(
        attempt,
        f"{suite}: no {n_factors} factors with at most {bound} shuffles",
        max_edges=max_edges_,
        stump_probability=sp,
    )


def _factors_witness(factors: list[Tree]) -> Witness:
    return {"factors": [serialize_tree(t) for t in factors]}


def suite_shuffles(cfg: SuiteConfig) -> _Suite:
    edges = _or_default(cfg.max_edges, 5)
    counts = []
    for m in range(1, 8):
        for k in range(1, 9 - m):
            count = len(_shuffle_trees(_state_table([_linear("u", m), _linear("v", k)])))
            expected = math.comb(m + k, m)
            witness = {"got": count, "expected": expected}
            counts.append(_rec("chain-count", f"{m}+{k}", count == expected, witness))

    def draw(rng: Random, i: int) -> tuple[Any, Witness]:
        factors, table = _random_factors(
            rng, rng.randint(1, 3), edges, cfg.stump_probability, 3000, "shuffles"
        )
        return (factors, table), _factors_witness(factors)

    def check(instance: Any, rng: Random) -> list[tuple]:
        factors, table = instance
        sh = _shuffle_trees(table)
        texts = [serialize_tree(s) for s in sh]
        distinct_ok = len(sh) >= 1 and len(set(texts)) == len(sh)
        root = _name(tuple(t.root for t in factors))
        root_ok = all(s.root == root for s in sh) and (
            len(factors) > 1 or sh == tuple(factors)
        )
        expected_max = sorted(_name(c) for c in product(*(max_edges(t) for t in factors)))
        max_ok = all(sorted(max_edges(s)) == expected_max for s in sh)
        inter_ok = True
        if len(sh) >= 2:
            if len(sh) * (len(sh) - 1) // 2 <= 5:
                pairs = [(a, b) for a in range(len(sh)) for b in range(a + 1, len(sh))]
            else:
                seen_pairs: set[tuple[int, int]] = set()
                while len(seen_pairs) < 5:
                    a, b = rng.sample(range(len(sh)), 2)
                    seen_pairs.add((min(a, b), max(a, b)))
                pairs = sorted(seen_pairs)
            for a, b in pairs:
                inter = intersect([sh[a], sh[b]])
                for s in (sh[a], sh[b]):
                    inclusion_map(inter, s)
                    removed = s.edge_set - inter.edge_set
                    if not removed <= set(s.inner_edges):
                        inter_ok = False
        leafy = [j for j, t in enumerate(factors) if t.leaves]
        transport_ok = True  # no leaf to close
        if leafy:
            j = rng.choice(leafy)
            leaf = rng.choice(sorted(factors[j].leaves))
            transport_ok = _stump_transport(factors, j, leaf, table)[1]
        return [
            ("root-law", root_ok),
            ("max-law", max_ok),
            ("distinct", distinct_ok),
            ("intersection", inter_ok),
            ("transport", transport_ok),
        ]

    return _Suite(
        {"instances": _or_default(cfg.instances, 100), "max_edges": edges},
        ("root-law", "max-law", "distinct", "intersection", "transport"),
        draw,
        check,
        head=counts,
    )


def suite_assoc(cfg: SuiteConfig) -> _Suite:
    three = ([[0, 1], 2], [0, [1, 2]])
    four = ([[0, 1], [2, 3]], [[[0, 1], 2], 3])

    def draw(rng: Random, i: int) -> tuple[Any, Witness]:
        nf = 4 if i % 5 == 4 else 3
        factors, table = _random_factors(rng, nf, 3, cfg.stump_probability, 2000, "assoc")
        br = rng.choice(four if nf == 4 else three)
        return (factors, br, table), {**_factors_witness(factors), "bracketing": br}

    def check(instance: Any, rng: Random) -> list[tuple]:
        res = _assoc_inclusion(*instance)
        ok = (
            not res.unreached
            and len(set(serialize_tree(t) for t in res.nested)) == len(res.nested)
            and len(res.nested) <= len(res.flat)
        )
        return [("assoc-inclusion", ok)]

    return _Suite({"instances": _or_default(cfg.instances, 25)}, ("assoc-inclusion",), draw, check)


def suite_interior(cfg: SuiteConfig) -> _Suite:
    sp = max(cfg.stump_probability, 0.35)

    def draw(rng: Random, i: int) -> tuple[Any, Witness]:
        factors, table = _random_factors(rng, rng.randint(1, 3), 4, sp, 2000, "interior")
        return (factors, table), _factors_witness(factors)

    def check(instance: Any, rng: Random) -> list[tuple]:
        factors, table = instance
        dec = _interior_decomposition(factors, table)
        closed = sorted(serialize_tree(p[1]) for p in dec.pairs)
        direct = sorted(serialize_tree(t) for t in _shuffle_trees(table))
        return [("interior", closed == direct and len(set(closed)) == len(closed))]

    return _Suite({"instances": _or_default(cfg.instances, 25)}, ("interior",), draw, check)


# ---------------------------------------------------------------------------
# free algebra suite
# ---------------------------------------------------------------------------


def _freealg_oracle(p, generators, inputs, output):
    """Independent brute force: enumerate ordered assignments and quotient by
    the orbit key (label, multiset of index/argument pairs)."""
    found = set()
    indices = sorted(generators)
    for kappa, labels in p.ops_by_output(output):
        k = len(kappa)
        for seq in product(indices, repeat=k):
            if tuple(sorted(generators[ix] for ix in seq)) != kappa:
                continue
            pools = [tuple(inputs.get(ix, ())) for ix in seq]
            for lab in labels:
                for args in product(*pools):
                    found.add((lab, tuple(sorted(zip(seq, args)))))
    return found


def suite_freealg(cfg: SuiteConfig) -> _Suite:
    def draw(rng: Random, i: int) -> tuple[Any, Witness]:
        g = random_forest(rng, 6, cfg.stump_probability, min_components=1)
        p = FreeForestOperad(g)
        colors = p.colors()
        gens = {f"g{j}": rng.choice(colors) for j in range(rng.randint(1, 4))}
        inputs = {ix: [f"{ix}.{t}" for t in range(rng.randint(0, 3))] for ix in gens}
        output = rng.choice(colors)
        witness = {
            "operad": serialize_forest(g),
            "generators": gens,
            "inputs": inputs,
            "output": output,
        }
        return (p, gens, inputs, output), witness

    def check(instance: Any, rng: Random) -> list[tuple]:
        terms = free_algebra(*instance)
        keys = {(t.label, tuple(sorted(zip(t.indices, t.args)))) for t in terms}
        return [("free-algebra", len(keys) == len(terms) and keys == _freealg_oracle(*instance))]

    return _Suite({"instances": _or_default(cfg.instances, 100)}, ("free-algebra",), draw, check)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


_SUITES: dict[str, Callable[[SuiteConfig], _Suite]] = {
    "functoriality": suite_functoriality,
    "retract": suite_retract,
    "segal": suite_segal,
    "d3": suite_d3,
    "nerve": suite_nerve,
    "fibrous": suite_fibrous,
    "shuffles": suite_shuffles,
    "assoc": suite_assoc,
    "interior": suite_interior,
    "freealg": suite_freealg,
}

SUITE_NAMES = tuple(_SUITES)


def _run(name: str, cfg: SuiteConfig) -> tuple[list[Record], dict[str, Any]]:
    """Draw and check suite ``name``'s instances one at a time; return its
    records and params.  A check that raises :class:`TreeError` fails every
    check the suite declares for that instance, and the run goes on."""
    suite = _SUITES[name](cfg)
    rng = _rng(cfg, name)
    records = list(suite.head)
    for i in range(suite.params["instances"]):
        instance, witness = _draw(
            lambda: suite.draw(rng, i), f"{name}: {suite.refusal}", **suite.bounds
        )
        try:
            results = suite.check(instance, rng)
        except TreeError as exc:
            results = [(check, False, {"error": str(exc)}) for check in suite.checks]
        for check, ok, *more in results:
            records.append(_rec(check, i, ok, {**witness, **more[0]} if more else witness))
    return records + suite.tail(), suite.params


def run_check(name: str, cfg: SuiteConfig, timings: dict[str, float] | None = None) -> dict[str, Any]:
    """Run one suite (or ``all``) and assemble the deterministic report;
    each suite's wall seconds go to ``timings``, when given."""
    if name != "all" and name not in _SUITES:
        raise TreeError(f"unknown suite {name!r}; choose from {('all',) + SUITE_NAMES}")
    names = SUITE_NAMES if name == "all" else (name,)
    suites = []
    total_failures = 0
    for s in names:
        t0 = time.perf_counter()
        records, params = _run(s, cfg)
        if timings is not None:
            timings[s] = time.perf_counter() - t0
        failures = sum(1 for r in records if r["status"] != "pass")
        total_failures += failures
        suites.append(
            {
                "suite": s,
                "params": params,
                "records": records,
                "failures": failures,
            }
        )
    return {
        "command": name,
        "config": asdict(cfg),
        "suites": suites,
        "failures": total_failures,
    }


def report_json(report: dict[str, Any]) -> str:
    return json_text(report)
