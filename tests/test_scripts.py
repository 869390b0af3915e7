"""Each script under ``scripts/`` runs to completion on small arguments, so a
renamed attribute or function in the library cannot break one unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dendrotensor import parse_tree, shuffles
from dendrotensor.render import gallery_dot
from test_acceptance import REPORT_SHA256

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# the other interpreters the report digests are pinned on, where present
OTHER_PYTHONS = [
    path
    for version in ("3.10.13", "3.12.1", "3.13.0")
    if (path := Path.home() / ".pyenv" / "versions" / version / "bin" / "python").exists()
]


def _run(script, *args, env=None):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_checks_prints_the_pinned_digest():
    out = _run("run_checks.py", "--seeds", "42")
    assert f"sha256 {REPORT_SHA256}" in out


def test_run_checks_prints_a_row_per_interpreter_and_seed():
    version = ".".join(map(str, sys.version_info[:3]))
    out = _run("run_checks.py", "--suite", "retract", "--seeds", "1", "2", "--python", sys.executable,
               "--python", sys.executable).splitlines()
    assert len(out) == 4 and all(line.startswith(f"python {version} ") for line in out)
    assert [line.split()[3] for line in out] == ["1:", "2:", "1:", "2:"]
    assert out[0].split()[-1] == out[2].split()[-1] != out[1].split()[-1]


@pytest.mark.skipif(not OTHER_PYTHONS, reason="no CPython 3.10.13, 3.12.1 or 3.13.0 under ~/.pyenv/versions")
def test_run_checks_prints_the_pinned_digest_under_other_interpreters():
    pythons = [arg for path in OTHER_PYTHONS for arg in ("--python", str(path))]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = _run("run_checks.py", "--seeds", "42", *pythons, env=env).splitlines()
    assert len(out) == len(OTHER_PYTHONS)
    assert all(line.endswith(f"sha256 {REPORT_SHA256}") for line in out), out


@pytest.mark.parametrize(
    "script, args",
    [
        ("fixture_detection.py", ["--seeds", "1", "--truncation", "2"]),
        ("shuffle_growth.py", ["--max-depth", "2"]),
    ],
)
def test_script_runs(script, args):
    assert _run(script, *args)


def _span_lines(spans):
    out = set()
    for span in spans.split(","):
        lo, _, hi = span.partition("-")
        out.update(range(int(lo), int(hi or lo) + 1))
    return out


def test_line_census_lists_reached_and_missed_lines():
    out = _run("line_census.py", "check", "functoriality", "--instances", "1").splitlines()
    assert out[0] == "# dendrotensor check functoriality --instances 1: exit 0"
    at = next(k for k, line in enumerate(out) if line.startswith("src/dendrotensor/suites.py:_run "))
    (kind, reached), (other, missed) = out[at + 1].split(), out[at + 2].split()
    assert (kind, other) == ("reached:", "missed:")
    # a clean run never takes the driver's TreeError branch
    source = (SCRIPTS.parent / "src" / "dendrotensor" / "suites.py").read_text(encoding="utf-8")
    branch = source.splitlines().index("        except TreeError as exc:") + 1
    assert branch in _span_lines(missed) and branch - 1 in _span_lines(reached)
    assert out[-1].startswith("total: ") and out[-1].endswith(" lines reached")


def test_render_examples_writes_its_files(tmp_path):
    _run("render_examples.py", "--out-dir", str(tmp_path))
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["level_forest.dot", "shuffle_gallery.dot"]
    assert all((tmp_path / name).read_text(encoding="utf-8").startswith("digraph") for name in written)
    # the gallery drawn from shuffle trees is the oracle of the CLI's writer
    factors = [parse_tree("p[x,y[]]"), parse_tree("q[u]")]
    gallery = (tmp_path / "shuffle_gallery.dot").read_text(encoding="utf-8")
    assert gallery == gallery_dot(shuffles(factors), "shuffles")
