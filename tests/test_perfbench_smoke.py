"""One untraced pass of each benchmark workload (see ``perfbench/``).

The benchmark builds its inputs from the public API (``RunConfig``,
``ScalingStrategy``, ``variant_config``, ...), so a change to that API that
breaks a workload would otherwise show only when ``perfbench/run.py`` runs.
The harness modules are loaded by path; ``run.one_pass`` is called with the
``offo`` this suite imports, not with the fresh import ``run.setup`` makes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import offo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def harness():
    # workloads.py imports spans and run.one_pass imports workloads by bare name
    with pytest.MonkeyPatch.context() as mp:
        for name in ("spans", "workloads", "run"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
        yield sys.modules["run"], sys.modules["workloads"].WORKLOADS


@pytest.mark.parametrize("name", ["noisy-firstorder", "noiseless-models", "theory-retrace"])
def test_one_pass_has_no_failed_operation(harness, name):
    run, workloads = harness
    workload = workloads[name]
    inputs = workload.inputs(offo, SEED)
    result = run.one_pass(workload, offo, inputs)
    assert result.error is None
    assert result.ctx.failures == []
    assert result.attempted == workload.expected_ops(inputs) and result.failed == 0
    if name == "theory-retrace":  # its digest does not depend on the seed
        assert result.digest == run.stored_digest(workload, SEED)["digest"]
