"""Per-layer metrics of one traced pass, named ``<layer>.<metric>``.

Layers are the ``offo`` modules.  Self times and call counts come from the
spans; the per-iteration and per-cell wall times come from the untraced
passes of the same run, so the spans do not inflate them.
"""

from __future__ import annotations

import statistics

import numpy as np

US_PER_ITER_TAGS = ("sdba", "adagi1", "maxgi01", "b1adagi1", "lmadagi3b", "Eadagi1",
                    "lbfgs3-two", "sharp1", "sharp2")

def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer(spans, counts: dict, traced, untraced: list):
    """Metrics of the traced pass ``traced`` given its span summary ``spans``,
    the hook counters ``counts`` and the untraced passes of the same run.

    Returns ``(metrics, detail)``.  ``metrics`` are the ``per_layer`` names of
    ``BENCHMARK.json``; every workload measures each of them.  ``detail`` holds
    the times of layers that only some workloads reach (the noise wrapper,
    scoring, the theory checks, the constructions, one variant's µs/iter):
    on the other workloads such a time would read 0 on every run.
    """
    fd_grads = spans.calls("problems.gradient", "problems.fd_hessian")
    update_calls = spans.calls("model.update")
    solve_calls = spans.calls("step.solve")
    runs = [r for p in untraced for r in p.ctx.runs]
    cell_ms = np.array([1e3 * r.seconds for r in runs])
    metrics = {
        "problems.gradient_calls": spans.calls("problems.gradient") - fd_grads,
        "problems.value_calls": spans.calls("problems.value"),
        "problems.hessian_calls": (spans.calls("problems.hessian")
                                   + spans.calls("problems.fd_hessian")),
        "problems.fd_gradient_calls": fd_grads,
        "problems.oracle_self_s": sum(spans.self_s(n) for n in (
            "problems.value", "problems.gradient", "problems.hessian")),
        "problems.evaluate_self_s": spans.self_s("problems.evaluate"),
        "problems.overflow_runs": sum(r.status == "overflow-failure" for r in traced.ctx.runs),
        "scaling.update_calls": spans.calls("scaling.update"),
        "scaling.update_self_s": spans.self_s("scaling.update"),
        "model.update_calls": update_calls,
        "model.update_self_s": spans.self_s("model.update"),
        "model.apply_calls": spans.calls("model.apply"),
        "model.apply_self_s": spans.self_s("model.apply"),
        "model.cap_products": spans.calls("model.apply", "model.update"),
        "model.secant_pairs": counts.get("model.secant_pairs", 0),
        "model.secant_accept_ratio": _ratio(counts.get("model.secant_accepted", 0),
                                            counts.get("model.secant_pairs", 0)),
        "model.cap_rescale_ratio": _ratio(counts.get("model.cap_rescales", 0), update_calls),
        "step.region_self_s": spans.self_s("step.region"),
        "step.cauchy_self_s": spans.self_s("step.cauchy"),
        "step.solve_calls": solve_calls,
        "step.solve_self_s": spans.self_s("step.solve"),
        "step.cg_products": spans.calls("model.apply", "step.solve"),
        "step.cauchy_fallback_ratio": _ratio(counts.get("step.cauchy_fallbacks", 0),
                                             solve_calls),
        "step.model_value_calls": spans.calls("step.model_value"),
        "step.model_value_self_s": spans.self_s("step.model_value"),
        "driver.iters": sum(r.evals for r in traced.ctx.runs),
        "driver.self_s": spans.self_s("driver.run"),
        "driver.armijo_backtracks": (counts.get("driver.armijo_trials", 0)
                                     - traced.ctx.steps.get("sdba", 0)),
        "driver.us_per_iter": _us_per_iter(runs),
        "bench.cells": spans.calls("driver.run", "bench.run_matrix"),
        "bench.cell_samples": len(cell_ms),
        "bench.cell_ms_p50": float(np.percentile(cell_ms, 50)) if len(runs) else 0.0,
        "bench.cell_ms_p90": float(np.percentile(cell_ms, 90)) if len(runs) else 0.0,
        "trace_overhead_frac": traced.wall / statistics.median(p.wall for p in untraced) - 1.0,
    }
    detail = {
        "problems.noise_self_s": spans.self_s("problems.noise"),
        "bench.score_self_s": spans.total_minus_children("bench.run_matrix", "driver.run"),
        "bench.aggregate_s": spans.total_s("bench.aggregate"),
        "bench.theory_check_s": spans.total_s("bench.theory_check"),
        "bench.series_suite_s": spans.total_s("bench.series_suite"),
        "sharpness.build_s": spans.total_s("sharpness.build"),
        "sharpness.verify_s": spans.total_s("sharpness.verify"),
    }
    for tag in US_PER_ITER_TAGS:
        detail[f"driver.us_per_iter.{tag}"] = _us_per_iter([r for r in runs if r.key[0] == tag])
    return ({name: float(value) for name, value in metrics.items()},
            {name: float(value) for name, value in detail.items() if value})


def _us_per_iter(runs) -> float:
    return 1e6 * _ratio(sum(r.seconds for r in runs), sum(r.evals for r in runs))
