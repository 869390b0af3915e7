"""Maps out of a free forest operad: one record, ``ForestInto``, with
``OperadMap`` and ``TensorHom`` adding only their own fields, and the maps
induced by renaming edges built in one place (``omegacat._induced``)."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    Forest,
    ForestInto,
    OperadMap,
    Operation,
    TensorHom,
    as_forest,
    contract_inner,
    identity_map,
    inclusion_map,
    omega_mor,
    omega_obj,
    parse_forest,
    parse_tree,
    restrict,
    retract_witness,
    shuffles,
    tensor_hom,
    validate,
)
from dendrotensor import suites as suites_module
from dendrotensor._rand import random_fin_simplex, random_forest, random_operator, random_tree
from dendrotensor.levelforest import _padded_edge_count, edge_name, split_edge_name
from dendrotensor.suites import MAX_PADDED_EDGES, SuiteConfig, run_check

seeds = st.integers(min_value=0, max_value=2**32 - 1)

SRC = str(Path(__file__).resolve().parents[1] / "src")


# -- the induced maps against the comprehensions they replaced -----------------


def replaced_identity_map(scope):
    """``identity_map`` before it called ``_induced``."""
    f = as_forest(scope)
    return OperadMap.build(
        f,
        f,
        {e: e for e in f.edges},
        {
            v.out_edge: Operation(v.out_edge, v.in_edges)
            for t in f.components
            for v in t.vertices
        },
    )


def replaced_omega_mor(phi, a):
    """``omega_mor`` before it called ``_induced``."""
    src = omega_obj(restrict(a, phi))
    tgt = omega_obj(a)

    def rename(e):
        lvl, elem = split_edge_name(e)
        return edge_name(phi(lvl), elem)

    edge_map = {e: rename(e) for e in src.edges}
    vertex_map = {
        v.out_edge: Operation(rename(v.out_edge), tuple(rename(d) for d in v.in_edges))
        for t in src.components
        for v in t.vertices
    }
    return OperadMap.build(src, tgt, edge_map, vertex_map)


def replaced_section(f, w):
    """The section of the retract witness ``w`` of ``f`` as built before it
    called ``_induced``: each edge goes up to its level of ``w.simplex``."""
    forest = as_forest(f)
    level_of = {e: i for i, level in enumerate(w.simplex.levels) for e in level}

    def up(e):
        return edge_name(level_of[e], e)

    return OperadMap.build(
        forest,
        w.omega,
        {e: up(e) for e in forest.edges},
        {
            v.out_edge: Operation(up(v.out_edge), tuple(up(d) for d in v.in_edges))
            for t in forest.components
            for v in t.vertices
        },
    )


def replaced_inclusion_map(sub, sup):
    """``inclusion_map`` before it called ``_induced``."""
    m = OperadMap.build(
        sub,
        sup,
        {e: e for e in sub.edges},
        {v.out_edge: Operation(v.out_edge, v.in_edges) for v in sub.vertices},
    )
    validate(m)
    return m


def _same_map(got, want):
    # dataclass equality compares the forests too; the explicit checks say
    # which part differs when one does
    assert type(got) is type(want) is OperadMap
    assert got.colors == want.colors
    assert got.components == want.components
    assert got.source == want.source and got.target == want.target
    assert got == want


@given(seeds, st.sampled_from([0.0, 0.3, 0.6]))
@settings(max_examples=80, deadline=None)
def test_identity_and_section_equal_replaced_builders(seed, stump_probability):
    f = random_forest(Random(seed), 9, stump_probability)
    _same_map(identity_map(f), replaced_identity_map(f))
    w = retract_witness(f)
    _same_map(w.section, replaced_section(f, w))


@pytest.mark.parametrize("text", ["{}", "{e}", "{r[]}", "{r[a[],b[c,d[]]]}", "{a[b[c]];d[]}"])
def test_induced_maps_on_fixed_forests(text):
    f = parse_forest(text)
    _same_map(identity_map(f), replaced_identity_map(f))
    w = retract_witness(f)
    _same_map(w.section, replaced_section(f, w))


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_omega_mor_equals_replaced_builder(seed):
    rng = Random(seed)
    a = random_fin_simplex(rng, 4, 3)
    phi = random_operator(rng, rng.randint(0, a.n), a.n)
    _same_map(omega_mor(phi, a), replaced_omega_mor(phi, a))


@given(seeds, st.sampled_from([0.0, 0.3]))
@settings(max_examples=80, deadline=None)
def test_inclusion_map_equals_replaced_builder(seed, stump_probability):
    rng = Random(seed)
    sup = random_tree(rng, 9, stump_probability)
    inner = list(sup.inner_edges)
    sub = contract_inner(sup, rng.sample(inner, rng.randint(0, len(inner))))
    _same_map(inclusion_map(sub, sup), replaced_inclusion_map(sub, sup))
    _same_map(inclusion_map(sup, sup), replaced_inclusion_map(sup, sup))


# -- equality compares the whole record (negative controls) --------------------


def test_inclusion_is_not_the_identity_of_its_face():
    sup = parse_tree("r[a[x,y],b]")
    sub = contract_inner(sup, ["a"])
    inc, ident = inclusion_map(sub, sup), identity_map(sub)
    assert (inc.colors, inc.components) == (ident.colors, ident.components)
    assert inc.source == ident.source and inc.target != ident.target
    assert inc != ident


def test_operad_map_never_equals_its_bare_record():
    for m in (identity_map(parse_tree("r[a,b[]]")), identity_map(Forest(()))):
        bare = ForestInto(m.colors, m.components)
        assert m != bare and bare != m
        assert len({m, bare}) == 2


def test_tensor_homs_with_other_witnesses_differ():
    factors = [parse_tree("x[y]"), parse_tree("u[v]")]
    (h,) = [h for h in tensor_hom(parse_tree("f"), factors) if h.colors == (("f", "(x|u)"),)]
    (other,) = [s for s in shuffles(factors) if s != h.witness]
    moved = TensorHom(h.colors, h.components, other)
    assert moved != h
    assert moved == TensorHom(h.colors, h.components, other)


# -- the retract suite is sized before it builds -------------------------------


@given(seeds, st.sampled_from([0.0, 0.3, 0.6]))
@settings(max_examples=100, deadline=None)
def test_padded_edge_count_equals_padded_forest(seed, stump_probability):
    f = random_forest(Random(seed), 14, stump_probability)
    assert _padded_edge_count(f) == len(retract_witness(f).padded.edges)


def test_padded_edge_count_on_fixed_forests():
    for text, edges in [("{}", 0), ("{e}", 1), ("{r[]}", 1), ("{r[a[x],b]}", 5), ("{r[a[],b]}", 4)]:
        f = parse_forest(text)
        assert _padded_edge_count(f) == edges == len(retract_witness(f).padded.edges)


def test_retract_over_bound_raises_before_building(monkeypatch):
    built = suites_module.retract_witness

    def guarded(f):
        assert _padded_edge_count(f) <= MAX_PADDED_EDGES, "built an instance over the bound"
        return built(f)

    monkeypatch.setattr(suites_module, "retract_witness", guarded)
    cfg = SuiteConfig(instances=2, max_edges=3000, stump_probability=0.0)
    with pytest.raises(ValueError, match=rf"pads to \d+ edges > bound {MAX_PADDED_EDGES}$"):
        run_check("retract", cfg)


def test_check_retract_over_bound_exits_2_with_one_line():
    # unbounded, this instance built its padding: 31.7 s at a 630 MiB peak
    code = "import sys; from dendrotensor.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "check", "retract", "--max-edges", "3000",
            "--instances", "2", "--stump-probability", "0"]
    env = {**os.environ, "PYTHONPATH": SRC}
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert time.monotonic() - start < 30
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1
    line = r"dendrotensor: error: retract: instance \d+ pads to (\d+) edges > bound (\d+)\n"
    match = re.fullmatch(line, done.stderr)
    assert match and int(match[1]) > int(match[2]) == MAX_PADDED_EDGES
