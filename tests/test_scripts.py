"""The scripts under scripts/ start, and blobs_ab runs its shipped experiment."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_help_exits_0(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_blobs_ab_runs_once_on_a_short_copy_of_its_config(tmp_path):
    blobs_ab = runpy.run_path(str(ROOT / "scripts" / "blobs_ab.py"))
    raw = json.loads(blobs_ab["CONFIG"].read_text())
    raw["train"]["iterations"] = 200
    (tmp_path / "short.json").write_text(json.dumps(raw))
    row = blobs_ab["run_once"](tmp_path / "short.json", 0, "msl")
    assert set(row) == {"train_error", "test_error", "distance", "late_slope"}
    assert 0.0 <= row["train_error"] <= 1.0 and 0.0 <= row["test_error"] <= 1.0
    assert row["distance"] > 0.0
