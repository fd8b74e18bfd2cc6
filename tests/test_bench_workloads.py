"""One op of each benchmark workload, with its gates: the workloads reach the
library only through its public API, so an API change that breaks them
fails here before `perfbench/run.py` does."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its oracles as the top-level module `reference`
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("reference", None)


@pytest.mark.parametrize("name", ["long-chain", "joint-sample", "cli-presets"])
def test_one_op_passes_every_gate(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.setup()
    inp = workload.inputs(0)
    out = workload.op(0, inp)
    gates = workload.check(0, inp, out)
    if hasattr(workload, "cleanup"):
        workload.cleanup(inp)
    assert gates
    assert [g for g in gates if g[1] != workloads.PASS] == []
