"""The benchmark's traced pass rebinds public names of ``offo`` (see
``perfbench/spans.py``).  Its measured passes run untraced, so a rebound name
that is removed or renamed would otherwise show only as a crash of
``perfbench/run.py --trace 1``; these tests load the module by path and keep
every rebound name in place."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import offo

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rebound_name_exists(spans):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans._rebindings(offo)
               if attr not in owner.__dict__]
    assert missing == []


@pytest.mark.parametrize("tag", ["b1adagi1", "sdba"])
def test_instrumented_run_changes_nothing_and_is_restored(spans, tag):
    (problem,) = offo.load_suite(["beale"])
    bare = offo.bench.run_variant(problem, tag, max_iter=50)
    rec = spans.SpanRecorder("t")
    with spans.instrument(offo, rec):
        traced = offo.bench.run_variant(problem, tag, max_iter=50)
    assert spans.restored(offo) == []
    assert len(rec.start) > 0
    assert (traced.status, traced.iters) == (bare.status, bare.iters)
    np.testing.assert_array_equal(traced.x_final, bare.x_final)


def test_zero_model_step_goes_through_every_traced_name(spans):
    # a leaner trust-region loop must still call each rebound kernel once per step
    (problem,) = offo.load_suite(["rosenbr"])
    rec = spans.SpanRecorder("t")
    with spans.instrument(offo, rec):
        record = offo.bench.run_variant(problem, "adagi1", max_iter=40)
    assert spans.restored(offo) == []
    assert record.status == "budget-exhausted" and record.iters == 40
    summary = spans.SpanSummary(rec)
    for name in ("scaling.update", "step.region", "step.cauchy", "step.solve",
                 "step.model_value"):
        assert summary.calls(name, "driver.run") == record.iters, name
        assert summary.calls(name) == record.iters, name
