"""Tests of the benchmark itself (not part of tier-1):

    python3 -m pytest -q perfbench/test_bench.py

The smoke test runs all four workloads for a few operations, untraced and
traced, in fresh processes (about a minute, most of it two ZCA fits).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import HostSpeed, Tracer

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    tracer.starts[outer], tracer.ends[outer] = 0.0, 10.0
    tracer.starts[inner], tracer.ends[inner] = 2.0, 5.0
    assert tracer.parents[inner] == outer
    assert tracer.self_times() == [7.0, 3.0]


def test_wrapped_backward_is_recorded_under_the_op_name():
    sys.path.insert(0, str(HERE.parent / "src"))
    import msn.tensor as T

    tracer = Tracer()
    relu = tracer.wrap("tensor.relu", T.relu, tracer.wrap_backward("tensor.relu.bwd"))
    x = T.Tensor([[-1.0, 2.0]], requires_grad=True)
    out = relu(x)
    out.backward(seed=[[1.0, 1.0]])
    assert tracer.names == ["tensor.relu", "tensor.relu.bwd"]
    assert x.grad.tolist() == [[0.0, 1.0]]


def test_host_speed_factor_uses_the_median_of_nearby_samples():
    samples = [HostSpeed.REF_MS / 1e3] * 9 + [HostSpeed.REF_MS / 500] * 9
    factors = [round(f, 9) for f in HostSpeed.factors(samples)]
    assert factors[0] == 1.0 and factors[-1] == 0.5
    assert factors[8] == 1.0 and factors[9] == 0.5  # windows straddling the step


def test_eval_reference_allows_only_near_ties_to_flip():
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np
    import workloads

    logits = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5 + 1e-6]], dtype=np.float32)
    expected = dict(workloads.logits_summary(logits), test_error="0.333333")
    assert expected["near_ties"] == 1
    same = workloads.matches_reference(workloads.logits_summary(logits), "0.333333", 3, expected)
    flipped = workloads.matches_reference(workloads.logits_summary(logits), "0.666667", 3,
                                          expected)
    two_off = workloads.matches_reference(workloads.logits_summary(logits), "1.000000", 3,
                                          expected)
    wrong = workloads.matches_reference(workloads.logits_summary(logits * 1.01), "0.333333",
                                        3, expected)
    assert all(same.values()) and flipped["test_error_matches_reference"]
    assert not two_off["test_error_matches_reference"]
    assert not wrong["logits_match_reference"]


def test_smoke_prints_every_metric_for_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke passed"


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "train-blobs", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
