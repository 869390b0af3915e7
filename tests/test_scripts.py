"""Each script under ``scripts/`` runs to completion on small arguments, so a
renamed attribute or function in the library cannot break one unnoticed."""

import subprocess
import sys
from pathlib import Path

import pytest

from dendrotensor import parse_tree, shuffles
from dendrotensor.render import gallery_dot
from test_acceptance import REPORT_SHA256

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, *args):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_checks_prints_the_pinned_digest():
    out = _run("run_checks.py", "--seeds", "42")
    assert f"sha256 {REPORT_SHA256}" in out


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
