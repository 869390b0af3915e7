"""The suite driver: which instances each suite draws, and how it records them.

A passing record carries no witness, so a report's digest cannot tell which
instances a suite drew.  The pins below can: one hashes every record as it is
built, witness included, and one hashes the state each suite's generator is
left in.  A change to how suites are run must keep both.
"""

import dataclasses
import hashlib
import json
import re
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from dendrotensor import levelforest, lurie, shuffle, suites
from dendrotensor.suites import SUITE_NAMES, SuiteConfig
from dendrotensor.treecore import TreeError, cut_at, interior, parse_forest

# suite -> (sha256 over every _rec call, sha256 over the generator's final state)
DRAW_PINS = {
    "functoriality": (
        "55f826688b491e51bdd7ccec74f80e8e561ac0d7ee9dec02800cb0d7c27f41c9",
        "8f9763f988f433b7b8168ce079a365de39ee172cc3e81b472fad216093274717",
    ),
    "retract": (
        "dbd057529a5e8672cc1ad9ec72040973f264edacbdfb24bcf40abe1ddf292438",
        "80fb6555b4912cfe9b57a61f271fa405217267b61fbd31d6456ded406da9fca3",
    ),
    "segal": (
        "1faaf99ede19e0a50c8b78c3ff8e2ce13a6d6aeb12a22fe20bc0445818553749",
        "943c3f3ff816ba071f2a08322f5c0343bc3a8c9134ef2c5abe0f89e94be8e5a6",
    ),
    "d3": (
        "6b7981527cb809923342dbb9b6d4e7006004bfe4e66211406d8abca6812a2dd2",
        "593a9f5e94a07e79a168943d3ec649fb837db9e40ec9f7e30f668b2254577275",
    ),
    "nerve": (
        "870043fefd498c5ec0a4fd760f6c675f6160a1a974f42ea79f937f1b305b29b9",
        "92fc171e419c923ec2489a336de925b1b92dbeaca75bf387e49eed847ed0597b",
    ),
    "fibrous": (
        "6e2e2d36266b4d8a9d70f3760d79a80c8257a6ead05ed09ca407a85a80012e72",
        "5c74ee038576936eb3b6c0c45bf0a394efc9be9eac909943b236136c42ae7b17",
    ),
    "shuffles": (
        "3fdade6a870d47c0a38a8722a7fb0ca2109c0dcb9cf4a382405f58973cc4d999",
        "b0517e1998408bc442b232b0893e96e48532fdd5db493985d64b27b546ce9ba0",
    ),
    "assoc": (
        "8ef3384d59a31a2331092379cf3315f279d092286714e66e16c56f95c42d24d0",
        "65c78cc9769ea4c6dbfea9ede134f3ef530d23970add44e1eb68155dea1d5a2f",
    ),
    "interior": (
        "e121ce7f14b70b719b4b1db40a29f4d5c70b2f78782e88871c3f83a64d1114c0",
        "334a9f0c1dc2dd19327c74ced78beb06b1316262b3937d956201132fd5c2406b",
    ),
    "freealg": (
        "3594cd3f2d9aa8bb19f1b8269aa236772838e12279ae2036a769d49129ed17b9",
        "fb1176a78fedc3911e559ee493edc0edc015e46b062bea50b719e68460099c55",
    ),
}


def _pins(monkeypatch, name, cfg):
    built, made = hashlib.sha256(), []
    real_rec, real_rng = suites._rec, suites._rng

    def rec(check, instance, ok, witness=None):
        built.update(json.dumps([check, instance, ok, witness], ensure_ascii=False).encode())
        return real_rec(check, instance, ok, witness)

    def rng(cfg, suite):
        made.append(real_rng(cfg, suite))
        return made[-1]

    monkeypatch.setattr(suites, "_rec", rec)
    monkeypatch.setattr(suites, "_rng", rng)
    suites.run_check(name, cfg)
    assert len(made) == 1
    return built.hexdigest(), hashlib.sha256(repr(made[0].getstate()).encode()).hexdigest()


def test_draw_pins_cover_every_suite():
    assert tuple(DRAW_PINS) == SUITE_NAMES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_draws_are_pinned(monkeypatch, name):
    assert _pins(monkeypatch, name, SuiteConfig(seed=42)) == DRAW_PINS[name]


def test_draw_pins_tell_seeds_apart(monkeypatch):
    # the report digests cannot: at three instances, seeds 42 and 43 give
    # identical `segal` sections, since no passing record shows its instance
    cfg42, cfg43 = SuiteConfig(seed=42, instances=3), SuiteConfig(seed=43, instances=3)
    assert _pins(monkeypatch, "segal", cfg42)[0] != _pins(monkeypatch, "segal", cfg43)[0]


# the callee of each suite's check that is made to raise; each runs in that
# check alone, so the draws and the fixed records are left as they are
CHECK_CALLEES = {
    "functoriality": "compose",
    "retract": "retract_witness",
    "segal": "segal_cut_check",
    "d3": "segal_components_check",
    "nerve": "omega_mor",
    "fibrous": "EllPresentation",
    "shuffles": "_name",
    "assoc": "_assoc_inclusion",
    "interior": "_interior_decomposition",
    "freealg": "free_algebra",
}


def _instance_records(report):
    return [r for r in report["suites"][0]["records"] if isinstance(r["instance"], int)]


def _declared(name, instances):
    checks = suites._SUITES[name](SuiteConfig()).checks
    return [(check, i) for i in range(instances) for check in checks]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_instance_records_the_checks_its_suite_declares(name):
    records = _instance_records(suites.run_check(name, SuiteConfig(seed=42, instances=2)))
    assert [(r["check"], r["instance"]) for r in records] == _declared(name, 2)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_an_error_in_a_check_fails_each_declared_check_and_the_run_goes_on(monkeypatch, name):
    def boom(*args, **kwargs):
        raise TreeError("boom")

    assert tuple(CHECK_CALLEES) == SUITE_NAMES
    monkeypatch.setattr(suites, CHECK_CALLEES[name], boom)
    records = _instance_records(suites.run_check(name, SuiteConfig(seed=42, instances=2)))
    assert [(r["check"], r["instance"]) for r in records] == _declared(name, 2)
    assert all(r["status"] == "fail" and r["witness"]["error"] == "boom" for r in records)


@pytest.mark.parametrize("callee", ["_chain_tables", "maps_into"])
def test_nerve_draw_over_a_cap_is_rejected_and_drawn_again(monkeypatch, callee):
    # a chain or map count over its cap raises TreeError in the draw (the
    # chains are counted by lurie._chain_tables, which enumerate_chains
    # walks), which rejects the draw: the suite draws again and the run
    # completes
    real, over = getattr(suites, callee), []

    def once_over(*args, **kwargs):
        if not over:
            over.append(args)
            raise TreeError("enumeration would produce 30001 > cap 30000")
        return real(*args, **kwargs)

    cfg = SuiteConfig(seed=42, instances=3)
    plain = _instance_records(suites.run_check("nerve", cfg))
    monkeypatch.setattr(suites, callee, once_over)
    records = _instance_records(suites.run_check("nerve", cfg))
    # a draw of the first instance was rejected and drawn again; each
    # instance still records both checks, and every check passes
    assert len(over) == 1
    assert [(r["check"], r["instance"]) for r in records] == _declared("nerve", 3)
    assert all(r["status"] == "pass" for r in records) and records == plain


def _merging_second_chain(honest):
    """A ``chain_to_map`` that reads the second chain it meets over each
    diagram as the first one's image."""
    first = {}

    def to_map(ch):
        seen = first.setdefault(ch.simplex, [])
        if len(seen) == 1 and ch != seen[0][0]:
            seen.append(None)
            return seen[0][1]
        m = honest(ch)
        if not seen:
            seen.append((ch, m))
        return m

    return to_map


def _walk_dropping_last(honest):
    """A walk that never yields its last item."""
    return lambda tables: list(honest(tables))[:-1]


def _walk_repeating_first(honest):
    """A walk that yields its first item twice."""
    return lambda tables: (lambda items: items[:1] + items)(list(honest(tables)))


def _walk_merging_two(honest):
    """A walk that yields its first item again in place of its second."""
    return lambda tables: (lambda items: items[:1] * 2 + items[2:] if len(items) > 1 else items)(list(honest(tables)))


def _adding_an_edge(honest):
    """A ``chain_to_map`` whose image colours one edge more, an edge off
    the diagram that ``map_to_chain`` does not read."""
    return lambda ch: (lambda m: m._replace(colors=m.colors + (("ℓ~", "x"),)))(honest(ch))


# defects the bijection check must catch: the callee patched in suites, the
# defect, and the failed records per check at seed 42.  The images are
# walked by lurie._walk_images and struck off the maps: a short walk is
# caught only by the maps left over, a walk with a repeat or a merge only
# by the maps struck falling short of the images walked.  A chain_to_map
# merging two chains is caught by the kept chains' round trip and their
# images against the walk's, one with an edge too many by the images
# against the walk's alone; a chain walk short of the image walk, by the
# kept chains' count against the walked images' (instances of at most 50
# chains)
NERVE_BIJECTION_DEFECTS = {
    "chain-to-map-merges-two": ("chain_to_map", _merging_second_chain,
                                {"nerve-bijection": 22, "nerve-naturality": 12}),
    "chain-to-map-adds-an-edge": ("chain_to_map", _adding_an_edge,
                                  {"nerve-bijection": 49, "nerve-naturality": 49}),
    "maps-drop-first": ("maps_into", lambda honest: lambda *args, **kw: honest(*args, **kw)[1:],
                        {"nerve-bijection": 49}),
    "maps-repeat-last": ("maps_into", lambda honest: lambda *args, **kw: (lambda ms: ms + ms[-1:])(honest(*args, **kw)),
                         {"nerve-bijection": 49}),
    "walk-drops-last": ("_walk_images", _walk_dropping_last, {"nerve-bijection": 49}),
    "walk-repeats-first": ("_walk_images", _walk_repeating_first, {"nerve-bijection": 49}),
    "walk-merges-two": ("_walk_images", _walk_merging_two, {"nerve-bijection": 36}),
    "chain-walk-drops-last": ("_walk_chains", _walk_dropping_last, {"nerve-bijection": 34}),
}


@pytest.mark.parametrize("defect", NERVE_BIJECTION_DEFECTS)
def test_nerve_bijection_catches_each_defect(monkeypatch, defect):
    # 49 of the 100 instances have a chain and a map; no failure is the
    # driver's TreeError rule
    callee, make, want = NERVE_BIJECTION_DEFECTS[defect]
    monkeypatch.setattr(suites, callee, make(getattr(suites, callee)))
    records = suites.run_check("nerve", SuiteConfig(seed=42))["suites"][0]["records"]
    failed = [r for r in records if r["status"] == "fail"]
    assert all("error" not in r["witness"] for r in failed)
    assert Counter(r["check"] for r in failed) == want


def test_level_rename_iso_refuses_what_the_padding_does_not_promise():
    padded = parse_forest("{r[a,b[c]]}")
    omega = parse_forest("{ℓ2:r[ℓ1:a,ℓ1:b[ℓ0:c]]}")
    assert suites._level_rename_iso(padded, omega)
    # an edge without a level prefix
    assert not suites._level_rename_iso(padded, parse_forest("{ℓ2:r[ℓ1:a,ℓ1:b[c]]}"))
    # every edge prefixed, but the renamed edge set is not the padded one's
    assert not suites._level_rename_iso(padded, parse_forest("{ℓ2:r[ℓ1:a,ℓ1:b[ℓ0:d]]}"))
    assert not suites._level_rename_iso(padded, parse_forest("{ℓ2:r[ℓ1:a,ℓ1:b]}"))
    # the same edge set in another shape
    assert not suites._level_rename_iso(padded, parse_forest("{ℓ2:r[ℓ1:b,ℓ1:a[ℓ0:c]]}"))


def test_shuffle_intersection_check_fails_on_a_face_missing_a_top_vertex(monkeypatch):
    # the intersection of two shuffles with one top vertex cut off, a vertex
    # whose inputs are all leaves, drops leaves of both shuffles: the
    # intersection check's own failure branch fires, and no other check does
    honest = suites.intersect

    def short(shuffs):
        inter = honest(shuffs)
        top = [
            v.out_edge for v in inter.vertices
            if v.in_edges and v.out_edge != inter.root and set(v.in_edges) <= set(inter.leaves)
        ]
        return cut_at(inter, top[0])[0] if top else inter

    monkeypatch.setattr(suites, "intersect", short)
    records = _instance_records(suites.run_check("shuffles", SuiteConfig(seed=42)))
    failed = [r for r in records if r["status"] == "fail"]
    assert failed and {r["check"] for r in failed} == {"intersection"}
    assert all("error" not in r["witness"] for r in failed)


def _repeat_last_shuffle(honest):
    """A ``_shuffle_trees`` that lists the last shuffle of two or more
    factors twice (their table's root state is a tuple name)."""

    def shuffles(table):
        sh = honest(table)
        return sh + sh[-1:] if table[-1][0].startswith("(") else sh

    return shuffles


def _keeping_components(keep):
    """A defect that keeps only the ``keep`` slice of the vertex components
    of each map the honest callee returns."""

    def make(honest):
        def defective(*args):
            m = honest(*args)
            return m._replace(components=m.components[keep])

        return defective

    return make


def _reversing_arrows(honest):
    """A ``map_to_chain`` whose chain lists its arrows in reverse."""

    def to_chain(*args):
        ch = honest(*args)
        return ch._replace(arrows=ch.arrows[::-1])

    return to_chain


def _padding_one_higher(honest):
    """A ``retract_witness`` that pads every leaf one level higher than
    ``_padded_height`` asks."""

    def witness(f):
        real = levelforest._padded_height
        levelforest._padded_height = lambda t: real(t) + 1
        try:
            return honest(f)
        finally:
            levelforest._padded_height = real

    return witness


def _last_leaf_left_open(honest):
    """An ``add_stumps`` that leaves the last of several leaves open."""
    return lambda t, leaves: honest(t, sorted(leaves)[:-1] if len(leaves) > 1 else leaves)


def _stumpless_upper(honest):
    """A ``cut_at`` whose upper part loses its stumps."""

    def cut(t, e):
        lower, upper = honest(t, e)
        return lower, interior(upper)

    return cut


# a defect per failure site, patched into the suite's own import (or, named
# "lurie.<callee>" or "shuffle.<callee>", into the check function's): the
# suite it runs in, the callee replaced, the defective callee built from the
# honest one, and the failed records per check at seed 42 out of that
# check's records
SITE_MUTANTS = {
    "identity-map-drops-first": (
        "functoriality",
        "identity_map",
        _keeping_components(slice(1, None)),
        {"identity": (152, 200)},
    ),
    "compose-drops-last": (
        "functoriality",
        "compose",
        _keeping_components(slice(None, -1)),
        {"composition": (126, 200)},
    ),
    "padding-one-higher": (
        "retract",
        "retract_witness",
        _padding_one_higher,
        {"retract": (60, 100)},
    ),
    "cut-upper-loses-stumps": (
        "segal",
        "lurie.cut_at",
        _stumpless_upper,
        {"segal-cut": (8, 100)},
    ),
    "chain-arrows-reversed": (
        "nerve",
        "map_to_chain",
        _reversing_arrows,
        {"nerve-bijection": (12, 100)},
    ),
    "precompose-drops-first": (
        "nerve",
        "precompose",
        _keeping_components(slice(1, None)),
        {"nerve-naturality": (30, 100)},
    ),
    "shuffles-repeat-last": (
        "shuffles",
        "_shuffle_trees",
        _repeat_last_shuffle,
        {"distinct": (68, 100), "chain-count": (28, 28)},
    ),
    "transport-leaves-last-leaf-open": (
        "shuffles",
        "shuffle.add_stumps",
        _last_leaf_left_open,
        {"transport": (11, 100)},
    ),
    "shuffle-trees-drop-last": (
        "interior",
        "_shuffle_trees",
        lambda honest: lambda *args: honest(*args)[:-1],
        {"interior": (25, 25)},
    ),
    "free-algebra-drop-first": (
        "freealg",
        "free_algebra",
        lambda honest: lambda *args: honest(*args)[1:],
        {"free-algebra": (64, 100)},
    ),
    "assoc-unreached": (
        "assoc",
        "_assoc_inclusion",
        lambda honest: lambda *args: dataclasses.replace(
            honest(*args), unreached=("x[y]",)
        ),
        {"assoc-inclusion": (25, 25)},
    ),
}


@pytest.mark.parametrize("mutant", SITE_MUTANTS)
def test_each_failure_site_fires_on_its_defect(monkeypatch, mutant):
    # the named check's own failure branch fires and no other check fails;
    # no failed witness carries an error, so it is not the driver's
    # TreeError rule that failed them
    suite, callee, make, want = SITE_MUTANTS[mutant]
    module, _, callee = callee.rpartition(".")
    owner = {"": suites, "lurie": lurie, "shuffle": shuffle}[module]
    monkeypatch.setattr(owner, callee, make(getattr(owner, callee)))
    records = suites.run_check(suite, SuiteConfig(seed=42))["suites"][0]["records"]
    failed = [r for r in records if r["status"] == "fail"]
    assert all("error" not in r["witness"] for r in failed)
    per_check = Counter(r["check"] for r in records)
    assert {c: (n, per_check[c]) for c, n in Counter(r["check"] for r in failed).items()} == want


# how many state tables each suite builds at seed 42: one per factor tuple
# drawn (rejected draws included), per tuple of interiors, per tuple with a
# leaf closed and per tuple of blocks a bracketing shuffles, and one per
# `chain-count` head record; a check reads the
# table its draw built (before, `shuffles` built 413, `interior` 100 and
# `assoc` 108)
STATE_TABLES = {
    "functoriality": 0, "retract": 0, "segal": 0, "d3": 0, "nerve": 0,
    "fibrous": 0, "shuffles": 221, "assoc": 83, "interior": 50, "freealg": 0,
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_builds_one_state_table_per_factor_tuple(monkeypatch, name):
    built = []
    real = shuffle._state_table
    for module in (shuffle, suites):
        monkeypatch.setattr(module, "_state_table", lambda factors: built.append(factors) or real(factors))
    suites.run_check(name, SuiteConfig(seed=42))
    assert len(built) == STATE_TABLES[name]


# The methods of random.Random that src/ draws with, and how a suite seeds
# its generator (an int or a "seed:suite" string): each method's stream at
# one seed, from a generator of its own, so that an interpreter whose
# Random draws differently fails here by name before any report digest.
# CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 give these streams.
RANDOM_STREAMS = {
    "seed": (lambda rng: [Random(42).random(), Random("42:retract").random()],
             [0.6394267984578837, 0.8722537081528386]),
    "choice": (lambda rng: [rng.choice("abcdefg") for _ in range(12)],
               ["a", "b", "b", "g", "c", "e", "c", "c", "a", "d", "a", "e"]),
    "sample": (lambda rng: [rng.sample(range(50), 5), rng.sample(range(1000), 3), rng.sample(range(4), 4)],
               [[34, 46, 23, 15, 47], [590, 235, 236], [3, 2, 1, 0]]),
    "randint": (lambda rng: [rng.randint(0, 9) for _ in range(12)] + [rng.randint(1, 1000) for _ in range(3)],
                [5, 3, 7, 3, 4, 1, 9, 6, 5, 7, 7, 2, 666, 914, 530]),
    "random": (lambda rng: [rng.random() for _ in range(3)],
               [0.57048240310926, 0.6453733719854664, 0.3074378586240749]),
    "getrandbits": (lambda rng: [rng.getrandbits(3) for _ in range(12)] + [rng.getrandbits(40)],
                    [1, 1, 0, 7, 4, 7, 5, 6, 1, 2, 5, 1, 78914251100]),
}


@pytest.mark.parametrize("method", RANDOM_STREAMS)
def test_random_streams_the_suites_draw_from_are_pinned(method):
    draw, stream = RANDOM_STREAMS[method]
    assert draw(Random(f"7:{method}")) == stream


def test_every_random_method_the_library_calls_has_a_pinned_stream():
    src = Path(suites.__file__).resolve().parent
    called = {m for path in src.glob("*.py") for m in re.findall(r"\brng\.(\w+)", path.read_text(encoding="utf-8"))}
    assert called == set(RANDOM_STREAMS) - {"seed"}
