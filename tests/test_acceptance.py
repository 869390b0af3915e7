"""Acceptance gate: ten checks covering the whole surface at fixed sizes.

Each test prints a single ``ACCEPTANCE nn PASS`` line (visible with ``-s``;
under ``pytest -v`` the per-test PASSED/FAILED line carries the verdict) and
enforces its instance counts and wall-clock budgets.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

from dendrotensor.cli import main
from dendrotensor.suites import SuiteConfig, run_check

SEED = 42
# sha256 of the `check all --seed 42` report; a change that alters its bytes
# must say why and update this digest
REPORT_SHA256 = "3366aa59c75d1b0e4ee0a5e158115570340a712944b6921357f870258316c93e"


def _run(suite, bound_s, **cfg_kwargs):
    cfg = SuiteConfig(seed=SEED, **cfg_kwargs)
    t0 = time.monotonic()
    report = run_check(suite, cfg)
    elapsed = time.monotonic() - t0
    assert report["failures"] == 0, json.dumps(report["suites"], indent=2)[:2000]
    assert elapsed < bound_s, f"{suite} took {elapsed:.1f}s >= {bound_s}s"
    return report, elapsed


def _announce(n, text):
    print(f"ACCEPTANCE {n:02d} PASS — {text}")


def test_criterion_01_level_diagram_worked_example(capsys):
    t0 = time.monotonic()
    chain = json.dumps(
        {
            "levels": [[1, 2, 3, 4], [1, 2, 3], [1]],
            "maps": [{"1": 1, "2": 1, "3": 3, "4": 3}, {"1": 1, "2": 1, "3": "*"}],
        }
    )
    assert main(["omega", chain]) == 0
    out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    assert out == "{ℓ2:1[ℓ1:1[ℓ0:1,ℓ0:2],ℓ1:2[]];ℓ1:3[ℓ0:3,ℓ0:4]}\n"
    forest = out.strip()
    assert forest.count(";") == 1  # two components
    assert forest.count("ℓ") == 8  # eight edges
    assert forest.count("[]") == 1  # one stump
    assert elapsed < 1.0
    with capsys.disabled():
        _announce(1, f"worked level diagram reproduced bit-exactly in {elapsed:.2f}s")


def test_criterion_02_forest_map_functoriality(capsys):
    report, elapsed = _run("functoriality", 30.0, instances=200)
    (suite,) = report["suites"]
    assert suite["params"]["instances"] == 200
    kinds = {r["check"] for r in suite["records"]}
    assert {"identity", "composition"} <= kinds
    with capsys.disabled():
        _announce(2, f"200 operator pairs, identities and composites exact, {elapsed:.1f}s < 30s")


def test_criterion_03_retract_of_level_forest(capsys):
    report, elapsed = _run("retract", 30.0, instances=100, max_edges=10)
    (suite,) = report["suites"]
    assert len(suite["records"]) == 100
    with capsys.disabled():
        _announce(3, f"100 forests ≤ 10 edges retract through their level padding, {elapsed:.1f}s < 30s")


def test_criterion_04_segal_cut_decomposition(capsys):
    report, elapsed = _run("segal", 60.0, instances=100, max_edges=7)
    (suite,) = report["suites"]
    assert len(suite["records"]) == 100
    with capsys.disabled():
        _announce(4, f"100 inner-edge cut bijections incl. stump cuts, {elapsed:.1f}s < 60s")


def test_criterion_05_component_product_decomposition(capsys):
    report, elapsed = _run("d3", 30.0, instances=50)
    (suite,) = report["suites"]
    assert len(suite["records"]) == 50
    assert all(r["check"] == "components" for r in suite["records"])
    # the degenerate case: the empty forest admits exactly one map
    from dendrotensor import FreeForestOperad, parse_forest, segal_components_check

    assert segal_components_check(
        FreeForestOperad(parse_forest("{r[a]}")), parse_forest("{}")
    )
    with capsys.disabled():
        _announce(5, f"50 forest-to-component product bijections, {elapsed:.1f}s < 30s")


def test_criterion_06_chain_nerve_bijection(capsys):
    report, elapsed = _run(
        "nerve", 120.0, instances=100, max_edges=8, max_width=4, max_levels=3
    )
    (suite,) = report["suites"]
    kinds = {r["check"] for r in suite["records"]}
    assert {"nerve-bijection", "nerve-naturality"} <= kinds
    bijections = [r for r in suite["records"] if r["check"] == "nerve-bijection"]
    assert len(bijections) == 100
    with capsys.disabled():
        _announce(6, f"100 chain/forest-map bijections with naturality, {elapsed:.1f}s < 120s")


def test_criterion_07_fibrous_axioms_and_defect_fixtures(capsys):
    report, elapsed = _run("fibrous", 120.0, instances=25, truncation=4)
    (suite,) = report["suites"]
    honest = [r for r in suite["records"] if r["check"] == "fibrous"]
    fixtures = [r for r in suite["records"] if r["check"] == "defect-detected"]
    assert len(honest) == 25
    assert len(fixtures) == 5
    assert all(r["status"] == "pass" for r in fixtures)  # 100% detection
    assert suite["params"]["summary"] == "verified up to ⟨4⟩"
    with capsys.disabled():
        _announce(7, f"25 presentations fibrous at ⟨4⟩, 5/5 defect fixtures detected, {elapsed:.1f}s < 120s")


@lru_cache(maxsize=None)
def _paths(state):
    if all(s == 0 for s in state):
        return 1
    return sum(
        _paths(state[:i] + (s - 1,) + state[i + 1 :])
        for i, s in enumerate(state)
        if s
    )


def test_criterion_08_shuffle_calculus(capsys):
    from dendrotensor import Tree, Vertex, count_shuffles

    t0 = time.monotonic()
    # linear-chain counts against an independent lattice-path recursion
    def linear(prefix, n):
        names = [f"{prefix}{k}" for k in range(n + 1)]
        return Tree(
            names[0], tuple(Vertex(names[k], (names[k + 1],)) for k in range(n))
        )

    for m in range(1, 8):
        for k in range(1, 9 - m):
            assert count_shuffles([linear("u", m), linear("v", k)]) == _paths((m, k))
    report, elapsed_suite = _run("shuffles", 120.0, instances=100, max_edges=5)
    (suite,) = report["suites"]
    kinds = {r["check"] for r in suite["records"]}
    assert {"chain-count", "root-law", "max-law", "intersection", "transport"} <= kinds
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        _announce(8, f"100 shuffle instances plus DP chain counts m+n ≤ 8, {elapsed:.1f}s < 120s")


def test_criterion_09_free_algebra_against_brute_force(capsys):
    report, elapsed = _run("freealg", 60.0, instances=100)
    (suite,) = report["suites"]
    assert len(suite["records"]) == 100
    with capsys.disabled():
        _announce(9, f"100 free-algebra term sets equal brute-force orbits, {elapsed:.1f}s < 60s")


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    t0 = time.monotonic()
    blobs = []
    for name in ("first.json", "second.json"):
        dest = tmp_path / name
        assert main(["check", "all", "--seed", "42", "--out", str(dest)]) == 0
        blobs.append(dest.read_bytes())
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    assert blobs[0] == blobs[1], "reports differ across runs at the same seed"
    assert hashlib.sha256(blobs[0]).hexdigest() == REPORT_SHA256
    assert elapsed < 300.0
    with capsys.disabled():
        _announce(10, f"check all --seed 42 byte-identical twice, both runs in {elapsed:.1f}s < 300s")


def test_report_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # the memos on a level diagram are dicts keyed on values that hash
    # strings; two children with different string hashes write one report
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys; from dendrotensor.cli import main; sys.exit(main(sys.argv[1:]))"
    children = []
    for hash_seed in ("0", "12345"):
        dest = tmp_path / f"report-{hash_seed}.json"
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        argv = [sys.executable, "-c", code, "check", "all", "--seed", str(SEED), "--out", str(dest)]
        children.append((subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL), dest))
    try:
        assert [child.wait(timeout=300) for child, _ in children] == [0, 0]
    finally:
        for child, _ in children:
            child.kill()
    blobs = [dest.read_bytes() for _, dest in children]
    assert blobs[0] == blobs[1]
    assert hashlib.sha256(blobs[0]).hexdigest() == REPORT_SHA256


# sha256 of the `check all` report at further seeds, taken before the maps
# out of free forest operads were assembled by a fixed edge order; a change
# that alters these bytes must say why and update the digests
SEED_REPORT_SHA256 = {
    1: "3244a1e24ec079e845a46b32006f495756b34726d523216f920cdc881224fa99",
    2: "8e6d434a12378bf24ec50c0a67935890e3c0a38dbb035a985d3c3a76d57fd95d",
    3: "918bd90fc2c65258472697d6e08cc2fe1b154113aa97d5340719da9c50628874",
    7: "019f65f10aa9cc33d8501f9ba82418dabb1899388cb86d227be24cc773a5f3e1",
}


@pytest.mark.parametrize("seed", sorted(SEED_REPORT_SHA256))
def test_check_all_report_bytes_at_other_seeds(seed, tmp_path, capsys):
    dest = tmp_path / f"report-{seed}.json"
    assert main(["check", "all", "--seed", str(seed), "--out", str(dest)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == SEED_REPORT_SHA256[seed]
