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
from msn.verify import full_network_problem

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

    net = workloads.calibrated_network(workloads.blobs_small_config(), 0)
    assert len(net.heads) == 2


def test_gradcheck_problem_is_verifys(bench):
    # perfbench's gradcheck-net workload restates msn verify's full-network
    # problem; a change to either copy fails here, not silently in the benchmark
    _, workloads = bench
    loss, arrays = workloads.gradcheck_problem(0)
    verify_loss, names, verify_arrays = full_network_problem(0)
    by_name = dict(zip(names, verify_arrays))
    assert len(arrays) == len(workloads.GRADCHECK_PARAMS)
    for name, array in zip(workloads.GRADCHECK_PARAMS, arrays):
        want = by_name[name]
        assert array.dtype == want.dtype == np.float64, name
        assert array.shape == want.shape and array.tobytes() == want.tobytes(), name

    out = loss(*[msn.tensor.Tensor(a, requires_grad=True) for a in arrays]).data
    want = verify_loss(*[msn.tensor.Tensor(a, requires_grad=True) for a in verify_arrays]).data
    assert out.shape == () and np.isfinite(out)
    assert out.dtype == want.dtype == np.float64 and out == want
