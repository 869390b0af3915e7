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


def test_render_examples_writes_its_files(tmp_path):
    _run("render_examples.py", "--out-dir", str(tmp_path))
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["level_forest.dot", "shuffle_gallery.dot"]
    assert all((tmp_path / name).read_text(encoding="utf-8").startswith("digraph") for name in written)
    # the gallery drawn from shuffle trees is the oracle of the CLI's writer
    factors = [parse_tree("p[x,y[]]"), parse_tree("q[u]")]
    gallery = (tmp_path / "shuffle_gallery.dot").read_text(encoding="utf-8")
    assert gallery == gallery_dot(shuffles(factors), "shuffles")
