"""The three benchmark workloads: seeded inputs, timed calls and their gates.

Every workload is a list of :class:`Case` objects that one pass of the
timed loop runs in order.  A case holds the call, a function that counts
the call's items, and a gate that checks the call's result outside the
timed region.  Instances are drawn from a fixed generator and bounded
before the library builds anything: shuffles by the shuffle-count
recursion, ``hom`` targets by the cut-count recursion
``c(e) = 1 + prod c(inputs)``, free-operad targets by the exact map count
and free algebras by the exact term count, all computed here.  The
workload seed renames the edges and orders the calls.

The library is reached only through module attributes (``dt.lurie.maps_into``
and so on), looked up at call time, so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from itertools import permutations, product
from pathlib import Path
from random import Random
from types import SimpleNamespace
from typing import Any, Callable

# The instances are fixed; the workload seed renames their edges and orders
# the calls.  The suites of `verify` draw their instances inside the library
# from the suite seed, and over 48 suite seeds one seed's ten suites took
# 2.6-3.9 s.  Shapes of `enumerate` drawn per seed within the bounds below
# spread items_per_s by 30% and call_s_p50 by 43% over five seeds (IQR over
# median), against about 10% for fixed instances: the cost of a shuffle, a
# hom or a tensor operad depends on more than the counts that bound it.  42
# is the reference run `check all --seed 42`.
VERIFY_SUITE_SEED = 42
INSTANCE_SEED = 42


def renamer(seed: int) -> Callable[[str], str]:
    """Rename every edge ``<letter><digits>`` by giving each letter a
    two-letter prefix drawn from ``seed``; distinct letters stay distinct."""
    rng = Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"
    pairs = rng.sample([a + b for a in letters for b in letters], len(letters))
    prefix = dict(zip(letters, pairs))
    pattern = re.compile(r"\b([a-z])(\d+)")
    return lambda text: pattern.sub(lambda m: prefix[m.group(1)] + m.group(2), text)


class GateError(Exception):
    """A call returned a wrong or unparseable result."""


@dataclass
class Case:
    """One timed call: ``run()`` is timed, ``items(result)`` and
    ``gate(result)`` are not."""

    kind: str
    label: str
    run: Callable[[], Any]
    items: Callable[[Any], int]
    gate: Callable[[Any], None]
    out: Path | None = None


@dataclass
class Workload:
    cases: list[Case]
    warmup: list[Case]
    final_gates: list[tuple[str, Callable[[], None]]] = field(default_factory=list)
    facts: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# tree shapes and the counts that bound them
# ---------------------------------------------------------------------------


@dataclass
class Shape:
    """A tree as the benchmark draws it, before the library sees it:
    ``kids[e]`` lists the inputs of the vertex above ``e`` (empty for a
    stump); an edge without an entry is a leaf."""

    root: str
    kids: dict[str, list[str]]
    _cuts: dict[str, list[frozenset[str]]] = field(default_factory=dict, repr=False)

    def text(self, e: str | None = None) -> str:
        e = self.root if e is None else e
        if e not in self.kids:
            return e
        return f"{e}[{','.join(self.text(d) for d in self.kids[e])}]"

    def edges(self) -> list[str]:
        out, todo = [], [self.root]
        while todo:
            e = todo.pop()
            out.append(e)
            todo += self.kids.get(e, ())
        return out

    def inner_edges(self) -> list[str]:
        return sorted(e for e in self.kids if e != self.root)

    def cut_count(self, e: str | None = None) -> int:
        """``c(e) = 1 + prod c(inputs)``: the cuts above ``e``; a stump edge
        has two, itself and the empty cut."""
        e = self.root if e is None else e
        if e not in self.kids:
            return 1
        return 1 + math.prod(self.cut_count(d) for d in self.kids[e])

    def cuts(self, e: str) -> list[frozenset[str]]:
        """The cuts above ``e`` as input-edge sets, by the same recursion."""
        if e not in self._cuts:
            out = [frozenset((e,))]
            if e in self.kids:
                for parts in product(*(self.cuts(d) for d in self.kids[e])):
                    out.append(frozenset().union(*parts))
            self._cuts[e] = out
        return self._cuts[e]


def chain(prefix: str, vertices: int) -> Shape:
    """A linear tree with ``vertices`` unary vertices and one leaf."""
    return Shape(f"{prefix}0", {f"{prefix}{i}": [f"{prefix}{i + 1}"] for i in range(vertices)})


def binary(prefix: str, depth: int) -> Shape:
    """The complete binary tree of the given depth (depth 1 is a corolla)."""
    kids: dict[str, list[str]] = {}
    level = [f"{prefix}0"]
    for _ in range(depth):
        nxt = []
        for e in level:
            kids[e] = [f"{prefix}{len(kids) * 2 + 1}", f"{prefix}{len(kids) * 2 + 2}"]
            nxt += kids[e]
        level = nxt
    return Shape(f"{prefix}0", kids)


def corolla(prefix: str, arity: int) -> Shape:
    return Shape(f"{prefix}0", {f"{prefix}0": [f"{prefix}{i + 1}" for i in range(arity)]})


def grow_tree(
    rng: Random,
    prefix: str,
    edges: int,
    stump_p: float = 0.15,
    arities: tuple[int, ...] = (1, 2, 3),
    bushy: bool = False,
) -> Shape:
    """A random tree with at most ``edges`` edges, grown by giving a leaf a
    vertex with one of the ``arities``, or with probability ``stump_p``
    closing it with a stump.  The leaf is a random one, or the oldest one
    when ``bushy``, which keeps the tree shallow and its cut counts high."""
    kids: dict[str, list[str]] = {}
    count = 1
    open_ = [f"{prefix}0"]
    while count < edges and open_:
        e = open_.pop(0 if bushy else rng.randrange(len(open_)))
        if rng.random() < stump_p:
            kids[e] = []
            continue
        k = min(rng.choice(arities), edges - count)
        kids[e] = [f"{prefix}{count + i}" for i in range(k)]
        count += k
        open_ += kids[e]
    return Shape(f"{prefix}0", kids)


def count_shuffles(factors: list[Shape]) -> int:
    """How many shuffles the factors have: from a tuple of edges, advance
    any coordinate with a non-stump vertex above it (one branch per input);
    a tuple with none left is a leaf or closes with a stump."""
    memo: dict[tuple[str, ...], int] = {}

    def count(state: tuple[str, ...]) -> int:
        if state not in memo:
            total = 0
            for i, e in enumerate(state):
                ins = factors[i].kids.get(e)
                if ins:
                    total += math.prod(count(state[:i] + (d,) + state[i + 1 :]) for d in ins)
            memo[state] = total or 1
        return memo[state]

    return count(tuple(t.root for t in factors))


class CutIndex:
    """The cuts of a forest's free operad by (output color, arity)."""

    def __init__(self, target: list[Shape]):
        self.colors: list[str] = []
        self.by_arity: dict[tuple[str, int], list[tuple[str, ...]]] = {}
        for t in target:
            for c in t.edges():
                self.colors.append(c)
                for cut in t.cuts(c):
                    self.by_arity.setdefault((c, len(cut)), []).append(tuple(cut))


def count_maps(source: list[Shape], index: CutIndex) -> int:
    """How many maps the free operad of the forest ``source`` has into the
    free operad indexed by ``index``: a color per edge and, at each vertex
    of arity ``k``, an arity-``k`` cut over the output's color with one of
    its ``k!`` input matchings."""
    total = 1
    for s in source:
        memo: dict[tuple[str, str], int] = {}

        def count(e: str, c: str) -> int:
            key = (e, c)
            if key not in memo:
                ins = s.kids.get(e)
                if ins is None:
                    memo[key] = 1
                else:
                    n = 0
                    for cut in index.by_arity.get((c, len(ins)), ()):
                        for image in permutations(cut):
                            n += math.prod(count(d, x) for d, x in zip(ins, image))
                    memo[key] = n
            return memo[key]

        total *= sum(count(s.root, c) for c in index.colors)
    return total


def count_terms(target: Shape, generators: dict[str, str], inputs: dict[str, list[str]]) -> int:
    """Free-algebra terms at the root of ``target``.  Cut inputs are
    distinct colors, so a term picks one generator per input color and one
    argument per generator."""
    weight: dict[str, int] = {}
    for idx, color in generators.items():
        weight[color] = weight.get(color, 0) + len(inputs[idx])
    return sum(math.prod(weight.get(c, 0) for c in cut) for cut in target.cuts(target.root))


def forest_text(trees: list[Shape]) -> str:
    return "{" + ";".join(t.text() for t in trees) + "}"


def _draw(rng: Random, make: Callable[[], Any], size: Callable[[Any], int], lo: int, hi: int):
    """Draw until ``size`` lands in ``[lo, hi]``; sizes are computed before
    the library builds anything from the draw."""
    for _ in range(100_000):
        x = make()
        n = size(x)
        if lo <= n <= hi:
            return x, n
    raise RuntimeError(f"no draw in [{lo}, {hi}] after 100000 tries")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


# ---------------------------------------------------------------------------
# verify: the seeded check suites
# ---------------------------------------------------------------------------


def build_verify(dt: SimpleNamespace, seed: int, workdir: Path) -> Workload:
    """Each case is ``run_check(<suite>, SuiteConfig(seed=42))``; an item is
    one check record.  Gates: zero failures, and the report bytes of every
    repeat equal those of the first pass."""
    suites = dt.suites
    order = list(suites.SUITE_NAMES)
    Random(seed).shuffle(order)
    digests: dict[str, str] = {}
    entries: dict[str, Any] = {}

    def case(name: str) -> Case:
        def run():
            return suites.run_check(name, suites.SuiteConfig(seed=VERIFY_SUITE_SEED))

        def gate(report) -> None:
            _expect(report["failures"] == 0, f"{name}: {report['failures']} failures")
            digest = _sha(suites.report_json(report).encode())
            _expect(
                digests.setdefault(name, digest) == digest,
                f"{name}: report bytes differ between repeats",
            )
            entries.setdefault(name, report["suites"])

        return Case("check", name, run, lambda r: sum(len(s["records"]) for s in r["suites"]), gate)

    def check_all() -> None:
        out = workdir / "check-all.json"
        code = dt.cli.main(["check", "all", "--seed", str(VERIFY_SUITE_SEED), "--out", str(out)])
        _expect(code == 0, f"check all exited {code}")
        data = out.read_bytes()
        digests["all"] = _sha(data)
        report = json.loads(data)
        _expect(report["failures"] == 0, f"check all: {report['failures']} failures")
        for entry in report["suites"]:
            _expect(
                entries.get(entry["suite"]) == [entry],
                f"{entry['suite']}: differs between `check all` and a single-suite run",
            )

    cases = [case(name) for name in order]
    warm = next(c for c in cases if c.label == "interior")
    return Workload(
        cases,
        [warm],
        [("check all --seed 42", check_all)],
        {"suite_seed": VERIFY_SUITE_SEED, "report_sha256": digests},
    )


# ---------------------------------------------------------------------------
# enumerate: the CLI enumeration commands
# ---------------------------------------------------------------------------


def build_enumerate(dt: SimpleNamespace, seed: int, workdir: Path) -> Workload:
    """Each case is one in-process ``cli.main([...])`` writing to ``--out``;
    an item is one emitted object (the ``count`` field, or one forest for
    ``omega``)."""
    rng = Random(INSTANCE_SEED)
    rn = renamer(seed)
    tc, lurie = dt.treecore, dt.lurie
    cases: list[Case] = []

    def cli_case(kind: str, argv: list[str], fmt: str, check: Callable[[str], None]) -> Case:
        out = workdir / f"enumerate-{len(cases)}.{fmt}"
        digest: list[str] = []
        count: list[int] = []

        full = [rn(a) for a in argv] + ["--format", fmt, "--out", str(out)]

        def run():
            return dt.cli.main(full)

        def gate(code) -> None:
            _expect(code == 0, f"{kind} exited {code}")
            data = out.read_bytes()
            if digest:
                _expect(_sha(data) == digest[0], f"{kind}: output differs between repeats")
                return
            text = data.decode("utf-8")
            check(text)
            digest.append(_sha(data))
            count.append(1 if kind == "omega" else _objects(fmt, text))

        label = " ".join(a if len(a) < 60 else a[:57] + "..." for a in argv)
        return Case(kind, label, run, lambda code: count[0], gate, out)

    def library_count(pair: tuple[Shape, Shape]) -> int:
        return dt.shuffle.count_shuffles([tc.parse_tree(t.text()) for t in pair])

    # shuffles of a chain or a random tree with a random tree, bounded by
    # count_shuffles before the CLI builds them
    for fmt, lo, hi, k in (("json", 1800, 2200, 6), ("dot", 180, 220, 2)):
        for _ in range(k):
            def make():
                a = chain("a", rng.randint(3, 7)) if rng.random() < 0.5 else grow_tree(rng, "a", rng.randint(4, 9))
                return a, grow_tree(rng, "b", rng.randint(4, 9))

            (a, b), n = _draw(rng, make, count_shuffles, lo, hi)

            def check(text: str, fmt=fmt, n=n, pair=(a, b)) -> None:
                got = _objects(fmt, text)
                _expect(got == n == library_count(pair), f"shuffles: {got} trees, {n} counted")
                if fmt == "json":
                    doc = json.loads(text)
                    _expect(doc["count"] == len(set(doc["shuffles"])), "shuffles: count != distinct trees")

            cases.append(cli_case("shuffles", ["shuffles", a.text(), b.text()], fmt, check))

    # hom from a small tree into a tree with thousands of root cuts; only
    # arity-matching cuts give maps, so most of the cuts listed are waste
    sources = [corolla("s", 2), chain("s", 2), corolla("s", 3), binary("s", 2)]
    for lo, hi in ((5000, 6000), (11000, 13000), (11000, 13000)):
        src = rng.choice(sources)

        def make():
            return grow_tree(rng, "t", rng.randint(30, 45), 0.05, (1, 2, 2), bushy=True)

        def size(t: Shape) -> int:
            # hom lists the cuts over every target edge, c(e) summed over e
            if not lo <= sum(t.cut_count(e) for e in t.edges()) <= hi:
                return -1
            return count_maps([src], CutIndex([t]))

        tgt, n = _draw(rng, make, size, 50, 400)

        def check(text: str, src=src, tgt=tgt, n=n) -> None:
            doc = json.loads(text)
            _expect(doc["count"] == len(doc["maps"]) == n, f"hom: {doc['count']} maps, counted {n}")
            other = lurie.maps_into(tc.parse_tree(src.text()), lurie.FreeForestOperad(tc.parse_tree(tgt.text())))
            _expect(len(other) == n, f"hom: {n} maps but maps_into finds {len(other)}")

        cases.append(cli_case("hom", ["hom", src.text(), tgt.text()], "json", check))

    # maps from a probe tree into the tensor of two small trees
    for probe in (corolla("p", 2), chain("p", 2)):
        def make():
            return grow_tree(rng, "a", rng.randint(3, 5)), grow_tree(rng, "b", rng.randint(3, 5))

        (a, b), _n = _draw(rng, make, count_shuffles, 25, 35)

        def check(text: str) -> None:
            doc = json.loads(text)
            keys = {json.dumps([m["edge_map"], m["vertex_map"]], sort_keys=True) for m in doc["maps"]}
            _expect(doc["count"] == len(doc["maps"]) == len(keys), "tensor-hom: count != distinct maps")

        cases.append(cli_case("tensor-hom", ["tensor-hom", probe.text(), a.text(), b.text()], "json", check))

    # free-algebra terms at the root of a tree's free operad
    for _ in range(2):
        def make():
            t = grow_tree(rng, "f", rng.randint(6, 12))
            colors = t.edges()
            gens = {f"g{j}": rng.choice(colors) for j in range(rng.randint(3, 6))}
            return t, gens, {g: [f"{g}.{i}" for i in range(rng.randint(1, 3))] for g in gens}

        (t, gens, ins), n = _draw(rng, make, lambda x: count_terms(*x), 200, 400)
        argv = [
            "free-algebra", t.text(), "--generators", json.dumps(gens),
            "--inputs", json.dumps(ins), "--output-color", t.root,
        ]

        def check(text: str, n=n) -> None:
            doc = json.loads(text)
            _expect(doc["count"] == len(doc["terms"]) == n, f"free-algebra: {doc['count']} terms, counted {n}")

        cases.append(cli_case("free-algebra", argv, "json", check))

    # the forest of a level diagram
    for fmt in ("json", "json", "json", "dot"):
        a = dt._rand.random_fin_simplex(rng, 5, 4)
        edges = sum(len(level) for level in a.levels)

        def check(text: str, fmt=fmt, edges=edges) -> None:
            if fmt == "dot":
                _expect(text.startswith("digraph") and text.rstrip().endswith("}"), "omega: not DOT")
                return
            doc = json.loads(text)
            forest = tc.parse_forest(doc["forest"])
            _expect(len(forest.edges) == doc["edges"] == edges, "omega: edge count")
            _expect(len(forest.components) == doc["components"], "omega: component count")

        cases.append(cli_case("omega", ["omega", json.dumps(a.to_json())], fmt, check))

    warm = [next(c for c in cases if c.kind == k) for k in ("omega", "tensor-hom", "free-algebra")]
    Random(seed).shuffle(cases)
    return Workload(cases, warm)


def _objects(fmt: str, text: str) -> int:
    if fmt == "dot":
        return text.count("subgraph cluster_")
    return int(json.loads(text)["count"])


# ---------------------------------------------------------------------------
# decompose: maps into finite operads and the Segal checks
# ---------------------------------------------------------------------------


TENSOR_PAIRS = (
    ("x0[x1[x3,x4],x2[x5,x6]]", "y0[y1[y2[y3]]]"),
    ("x0[x1[x3,x4],x2[x5,x6]]", "y0[y1[y2[y3[y4]]]]"),
    ("x0[x1[],x2[x3,x4]]", "y0[y1[],y2[y3,y4]]"),
    ("x0[x1[x3,x4],x2[x5,x6]]", "y0[y1[y2,y3],y4]"),
)


def build_decompose(dt: SimpleNamespace, seed: int, workdir: Path) -> Workload:
    """Each case is one ``maps_into``, ``segal_cut_check`` or
    ``segal_components_check`` call, constructing its target operad inside
    the call; an item is one map enumerated by ``maps_into``, including the
    ones a Segal check enumerates (counted here before the run)."""
    rng = Random(INSTANCE_SEED)
    rn = renamer(seed)
    tc, lurie = dt.treecore, dt.lurie
    cases: list[Case] = []

    def operad_forest() -> list[Shape]:
        n = rng.randint(10, 15)
        if rng.random() < 0.5:
            return [grow_tree(rng, "g", n, 0.15, (1, 2, 2, 3), bushy=True)]
        k = rng.randint(3, n - 3)
        return [
            grow_tree(rng, "g", k, 0.15, (1, 2, 2, 3), bushy=True),
            grow_tree(rng, "h", n - k, 0.15, (1, 2, 2, 3), bushy=True),
        ]

    def scope(lo: int, hi: int, prefix: str = "s") -> Shape:
        return _draw(rng, lambda: grow_tree(rng, prefix, hi, 0.15, (1, 2)), lambda t: len(t.edges()), lo, hi)[0]

    def paired(make_scope: Callable[[], Any]) -> Callable[[], tuple[Any, list[Shape], CutIndex]]:
        """Draws of (scope, operad forest) that keep each forest for 30
        scopes, since the map count depends on both."""
        state: list = [None, None, 0]

        def make():
            if state[2] % 30 == 0:
                state[0] = operad_forest()
                state[1] = CutIndex(state[0])
            state[2] += 1
            return make_scope(), state[0], state[1]

        return make

    def free(g: list[Shape]):
        return tc.parse_forest(rn(forest_text(g)))

    # maps out of a small tree into the free operad of a 10-15 edge forest
    for _ in range(4):
        (s, g, _), n = _draw(rng, paired(lambda: scope(3, 6)), lambda x: count_maps([x[0]], x[2]), 80, 120)
        tree, forest = tc.parse_tree(rn(s.text())), free(g)

        def run(tree=tree, forest=forest):
            return lurie.maps_into(tree, lurie.FreeForestOperad(forest))

        def gate(maps, n=n) -> None:
            _expect(len(maps) == len(set(maps)) == n, f"maps_into: {len(maps)} maps, counted {n}")

        cases.append(Case("maps_into", f"{s.text()} -> {forest_text(g)}", run, len, gate))

    # maps out of a corolla or a chain into the tensor of two small trees.
    # The table of a tensor operad is known only once it is built, and
    # pairs of equal shuffle count differ tenfold in cost, so the pairs are
    # listed by hand.
    for a, b in TENSOR_PAIRS:
        factors = [tc.parse_tree(rn(a)), tc.parse_tree(rn(b))]
        for s in (corolla("s", 2), chain("s", 2)):
            tree = tc.parse_tree(rn(s.text()))

            def run(tree=tree, factors=factors):
                return lurie.maps_into(tree, lurie.BVTensorOperad(factors))

            def gate(maps) -> None:
                _expect(len(maps) == len(set(maps)) > 0, "maps_into tensor: repeated or no maps")

            cases.append(Case("maps_into_tensor", f"{s.text()} -> {a} x {b}", run, len, gate))

    # Segal decomposition at an inner edge
    for _ in range(1):
        def size(x) -> int:
            return count_maps([x[0]], x[2]) if x[0].inner_edges() else -1

        (t, g, index), whole = _draw(rng, paired(lambda: scope(4, 7)), size, 60, 100)
        b = rng.choice(t.inner_edges())
        upper = Shape(b, t.kids)
        lower = Shape(t.root, {e: k for e, k in t.kids.items() if e not in set(upper.edges())})
        n = whole + count_maps([lower], index) + count_maps([upper], index)
        tree, forest, b = tc.parse_tree(rn(t.text())), free(g), rn(b)

        def run(tree=tree, forest=forest, b=b):
            return lurie.segal_cut_check(lurie.FreeForestOperad(forest), tree, b)

        cases.append(Case("segal_cut", f"{t.text()} @ {b}", run, lambda r, n=n: n, _is_true("segal_cut_check")))

    # Segal decomposition into components
    for _ in range(1):
        (parts, g, index), whole = _draw(
            rng, paired(lambda: [scope(2, 4), scope(2, 3, "u")]), lambda x: count_maps(x[0], x[2]), 300, 450
        )
        n = whole + sum(count_maps([p], index) for p in parts)
        scope_forest, forest = free(parts), free(g)

        def run(scope_forest=scope_forest, forest=forest):
            return lurie.segal_components_check(lurie.FreeForestOperad(forest), scope_forest)

        cases.append(Case("segal_components", forest_text(parts), run, lambda r, n=n: n, _is_true("segal_components_check")))

    warm = [next(c for c in cases if c.kind == "maps_into")]
    Random(seed).shuffle(cases)
    return Workload(cases, warm)


def _is_true(what: str) -> Callable[[Any], None]:
    def gate(ok) -> None:
        _expect(ok is True, f"{what} returned {ok!r}")

    return gate


BUILDERS = {
    "verify": build_verify,
    "enumerate": build_enumerate,
    "decompose": build_decompose,
}
