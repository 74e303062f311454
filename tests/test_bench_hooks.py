"""The names in `msn` that the benchmark under perfbench/ uses.

tier-1 collects only tests/, so without this file a change to src/msn that
breaks one of perfbench's hooks would pass it. The modules are loaded from
source with bytecode writing off, so nothing is written under perfbench/.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import msn
import msn.tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's `spans` and `workloads` modules, unloaded again afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    modules = []
    for name in ("spans", "workloads"):  # workloads imports spans by name
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules.append(module)
    return modules


def test_perfbench_hooks_resolve(bench):
    spans, workloads = bench
    assert spans.instrumentation(spans.Tracer(), msn)

    loss, arrays = workloads.gradcheck_problem(0)
    out = loss(*[msn.tensor.Tensor(a, requires_grad=True) for a in arrays])
    assert out.data.shape == () and np.isfinite(out.data)

    net = workloads.calibrated_network(workloads.blobs_small_config(), 0)
    assert len(net.heads) == 2
