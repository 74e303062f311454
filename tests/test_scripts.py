"""The scripts under scripts/ start, and loss_ab runs its shipped experiment."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msn import cli, trainer

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_help_exits_0(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


@pytest.mark.parametrize("iterations", [200, 1, 0])
def test_loss_ab_runs_a_pair_on_a_short_copy_of_its_config(tmp_path, iterations):
    loss_ab = runpy.run_path(str(ROOT / "scripts" / "loss_ab.py"))
    raw = json.loads(loss_ab["CONFIG"].read_text())
    raw["train"]["iterations"] = iterations
    (tmp_path / "short.json").write_text(json.dumps(raw))
    pair = loss_ab["run_pair"](tmp_path / "short.json", 0)
    assert list(pair) == ["msl", "ce"]
    for mode, s in pair.items():
        assert set(s) == set("train_error test_error saturated_at early_slope late_slope "
                             "final_distance within_first100 within_last100".split()), mode
        assert 0.0 <= s["train_error"] <= 1.0 and 0.0 <= s["test_error"] <= 1.0
        # saturating after iteration 0 leaves fewer than 200 iterations to fit
        assert s["saturated_at"] is None or 0 < s["saturated_at"] < 200
        assert s["early_slope"] is None
        # a slope needs 2 iterations, the distance and within-loss means 1
        assert (s["late_slope"] is None) == (iterations < 2)
        assert (s["final_distance"] is None) == (s["within_last100"] is None) == (iterations == 0)
    if iterations == 200:
        assert all(np.isfinite(s["late_slope"]) and s["final_distance"] > 0.0
                   for s in pair.values())
        assert pair["msl"]["within_first100"] > 0.0
        assert pair["ce"]["within_first100"] == pair["ce"]["within_last100"] == 0.0


@pytest.mark.parametrize("flip", [True, False])
def test_data_flip_reaches_train_from_msn_train_and_loss_ab(tmp_path, monkeypatch, flip):
    calls = []
    real = trainer.random_flip
    monkeypatch.setattr(trainer, "random_flip",
                        lambda images, rng: calls.append(len(images)) or real(images, rng))
    loss_ab = runpy.run_path(str(ROOT / "scripts" / "loss_ab.py"))
    raw = json.loads(loss_ab["CONFIG"].read_text())
    raw["train"]["iterations"] = 3
    raw["data"]["flip"] = flip
    (tmp_path / "flip.json").write_text(json.dumps(raw))
    assert cli.main(["train", "--config", str(tmp_path / "flip.json"),
                     "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == (3 if flip else 0)
    loss_ab["run_pair"](tmp_path / "flip.json", 0)
    assert len(calls) == (9 if flip else 0)  # and 3 batches in each loss mode


def test_record_golden_compare_names_the_runs_whose_bits_moved():
    compare = runpy.run_path(str(ROOT / "scripts" / "record_golden.py"))["compare"]
    run = {"metrics_csv_sha256": "a", "final_ckpt_sha256": "b", "metrics_csv": ["h", "1"]}
    old = {"fingerprint": {"numpy": "1"}, "runs": {"same": run, "moved": run, "gone": run}}
    new = {"fingerprint": {"numpy": "2"},
           "runs": {"same": dict(run), "moved": {**run, "metrics_csv": ["h", "2"]},
                    "added": run}}
    assert compare(old, new) == {"same": "unchanged", "moved": "changed", "added": "changed"}
    assert compare({}, new) == dict.fromkeys(new["runs"], "changed")


LINE_TRACE_SOURCE = '''\
"""Module docstring."""
import os


def f(x):
    """Function docstring."""
    if (x and
            os.sep):
        return (1 +
                2)
    try:
        y = 3
    except ValueError:
        raise RuntimeError(
            "unreached")
    for _ in range(y):
        y -= 1
    return y


class C:
    z = 4
'''


def test_line_trace_reports_each_statement_no_line_of_which_ran():
    unexecuted = runpy.run_path(str(ROOT / "scripts" / "line_trace.py"))["unexecuted"]
    # the if header ran through its second line, the return through its last;
    # docstrings, imports, def, class, try and except lines are not counted
    hit = {8, 10, 12, 16, 18}
    assert unexecuted(LINE_TRACE_SOURCE, hit) == [14, 17, 22]
    assert unexecuted(LINE_TRACE_SOURCE, set(range(1, 23))) == []
    assert unexecuted(LINE_TRACE_SOURCE, set()) == [7, 9, 12, 14, 16, 17, 18, 22]
