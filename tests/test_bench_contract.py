"""The benchmark's workloads must run on the package without a failed step.

``perfbench/workloads.py`` drives heckedem through the API it was written
against: ``FieldRing(tower, "ext")``, the keys of ``chowrep.semisimplify``,
and the golden hashes of spins and CLI output in ``perfbench/golden.json``.
A change that breaks any of them fails the benchmark's steps, so this test
loads that file by path, as ``test_trace_contract.py`` loads the tracer,
and runs a few passes of every workload through its ``Recorder``.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# passes 0-3 of regular-q3 cover one b, all four spin chunks and the chain step
PASSES = {"regular-q3": 4, "supersingular-q5": 1, "algebra-generic": 1}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(PASSES))
def test_workload_passes_run_without_a_failed_step(name):
    workloads = load_workloads()
    workload = workloads.WORKLOADS[name](1, workloads.Golden())
    rec = workloads.Recorder()
    for i in range(PASSES[name]):
        workload.run_pass(i, rec)
    assert rec.failures == []
    assert rec.failed == 0 and rec.attempted > 0 and rec.checks > 0
