"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines as they are produced).  The benchmark-matrix criteria share two
session-scoped result sets, whose cells are spread over two worker processes;
the theory criteria share one run of ``offo.bench.theory_battery``.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial

import numpy as np
import pytest

from offo.bench import BenchResults, aggregate, run_matrix, theory_battery
from offo.driver import VARIANTS, RunConfig, astr1
from offo.model import HessianModel, apply_model, update_model
from offo.problems import load_suite
from offo.sharpness import build_counterexample, interpolant_problem, verify_sharpness
from offo.step import make_region, solve_tr_step


def _line(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    return passed


# ---------------------------------------------------------------------------
# shared benchmark matrices (criteria 6, 7, 8) and theory battery (3, 4, 5)
# ---------------------------------------------------------------------------

BUDGET = 10_000
MATRIX_WORKERS = 2


@lru_cache(maxsize=None)
def _suite_by_name():
    return {p.name: p for p in load_suite()}


def _matrix_part(variant, problem_name, noise_levels, reps, master_seed):
    start = time.perf_counter()
    part = run_matrix([variant], [_suite_by_name()[problem_name]],
                      noise_levels=noise_levels, reps=reps,
                      master_seed=master_seed, max_iter=BUDGET)
    return part.cells, time.perf_counter() - start


def _parallel_matrix(variants, noise_levels, reps, master_seed):
    """``run_matrix(variants, load_suite(), ...)`` with the (variant, problem)
    blocks run in worker processes.  Cell seeds do not depend on run order,
    so the cells, in run_matrix's order, are the ones a single process makes.
    ``wall_seconds`` sums the blocks' times, so criterion 7 still bounds what
    the matrix costs in one process.
    """
    names = list(_suite_by_name())
    jobs = [(v, name) for v in variants for name in names]
    context = multiprocessing.get_context("fork")
    run = partial(_matrix_part, noise_levels=noise_levels, reps=reps,
                  master_seed=master_seed)
    with ProcessPoolExecutor(MATRIX_WORKERS, mp_context=context) as pool:
        parts = list(pool.map(run, *zip(*jobs)))
    results = BenchResults(cells=[c for cells, _ in parts for c in cells],
                           variants=list(variants), problems=names,
                           noise_levels=list(noise_levels))
    results.wall_seconds = sum(seconds for _, seconds in parts)
    return results


@pytest.fixture(scope="session")
def ordering_results():
    return _parallel_matrix(["adagi1", "adag1", "adag2", "adagi2"],
                            noise_levels=[0.0], reps=1, master_seed=42)


@pytest.fixture(scope="session")
def noise_results():
    return _parallel_matrix(["sdba", "adagi1", "maxgi01", "b1adagi1"],
                            noise_levels=[0.0, 0.25], reps=10, master_seed=42)


@pytest.fixture(scope="session")
def battery():
    """The theory battery at the acceptance budget, by check name (criteria 3-5)."""
    return {c["name"]: c for c in theory_battery(BUDGET)}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _sharpness_run(kind, params, iters):
    knots = build_counterexample(kind, params, iters)
    problem = interpolant_problem(knots)
    config = RunConfig(scaling=knots.strategy, model="none", norm="inf",
                       eps=1e-30, max_iter=iters, keep_trace=True)
    record = astr1(problem, config)
    return knots, verify_sharpness(knots, record)


def test_criterion_1_sharp1_reproduction():
    start = time.perf_counter()
    knots, report = _sharpness_run(
        "sharp1", {"mu": 0.5, "eta": 0.01, "varsigma": 0.01}, 10_000)
    elapsed = time.perf_counter() - start
    # the run must land on every knot with |g(x_k)| = k^-(0.51) (k >= 1)
    dev = report["max_grad_rel_dev"]
    ok = report["count"] == 10_001 and dev <= 1e-8 and elapsed < 10.0
    assert _line(1, ok,
                 f"slow-decay retrace (1e4 knots): max rel |g| dev {dev:.2e}, "
                 f"{elapsed:.1f}s")


def test_criterion_2_sharp2_reproduction():
    nu, omega = 1.0 / 9.0, 4.0 / 9.0 + 0.01
    knots, report = _sharpness_run("sharp2", {"nu": nu, "omega": omega}, 50_000)
    dev = report["max_grad_rel_dev"]
    # double-check against the closed-form decay law k^-omega
    k = np.arange(1, knots.knot_count + 1)
    law = np.max(np.abs(np.abs(knots.g) * k**omega - 1.0))
    ok = report["count"] == 50_001 and dev <= 1e-8 and law <= 1e-12
    assert _line(2, ok,
                 f"iteration-power retrace (5e4 knots): max rel |g| dev {dev:.2e}")


def test_criterion_3_guaranteed_decrease(battery):
    check = battery["guaranteed-decrease"]
    ok = check["violations"] == 0
    assert _line(3, ok,
                 f"decrease inequality, {len(VARIANTS)} variants x n in (1,5,20) x 1e4 "
                 f"iters: {check['violations']} margins below -1e-8, worst margin "
                 f"{check['min_margin']:.2e}")


def test_criterion_4_theory_bounds(battery):
    bounds = [c for name, c in battery.items() if name.startswith("bounds-")]
    total = sum(c["violations"] for c in bounds)
    vacuous = sum(c["vacuous"] for c in bounds)
    # the half-power constant's special-function dependency
    wm1 = battery["lambert-wm1-residual"]
    ok = (total == 0 and all(c["passed"] for c in bounds)
          and wm1["max_residual"] <= 1e-12 and wm1["branch_exact"])
    assert _line(4, ok,
                 f"k-order/mean-square/windowed bounds of {len(bounds)} runs, budget "
                 f"1e4 iters: {total} violations, {vacuous} vacuous; W_-1 residual "
                 f"{wm1['max_residual']:.1e}, branch point exact: {wm1['branch_exact']}")


def test_criterion_5_summation_lemma_suite(battery):
    check = battery["summation-lemma-suite"]
    ok = check["violations"] == 0 and check["seconds"] < 5.0
    assert _line(5, ok,
                 f"1000 random sequences x 4+1 bound forms: {check['violations']} "
                 f"violations, worst margin {check['min_margin']:.2e}, "
                 f"{check['seconds']:.1f}s")


def test_criterion_6_step_solver_contract(ordering_results, noise_results):
    cells = ordering_results.cells + noise_results.cells
    sbound = sum(c.counters["sbound_violations"] for c in cells)
    gcp = sum(c.counters["gcp_violations"] for c in cells)
    wfloor = sum(c.counters["wfloor_violations"] for c in cells)
    ok = sbound == 0 and gcp == 0 and wfloor == 0
    assert _line(6, ok,
                 f"{len(cells)} benchmark runs: {sbound} feasibility, {gcp} "
                 f"Cauchy-fraction, {wfloor} floor violations")


def test_criterion_7_noise_robustness(noise_results):
    stats = aggregate(noise_results)
    drops = {v: stats["rho"][(v, 0.0)] - stats["rho"][(v, 0.25)]
             for v in noise_results.variants}
    ok = (drops["sdba"] >= 20.0
          and all(abs(drops[v]) <= 10.0 for v in ("adagi1", "maxgi01", "b1adagi1"))
          and noise_results.wall_seconds < 1800.0)
    detail = ", ".join(f"{v}: {stats['rho'][(v, 0.0)]:.1f}->"
                       f"{stats['rho'][(v, 0.25)]:.1f}"
                       for v in noise_results.variants)
    assert _line(7, ok,
                 f"reliability at 25% noise ({detail}); "
                 f"{noise_results.wall_seconds/60:.1f} min")


def test_criterion_8_noiseless_ordering(ordering_results):
    stats = aggregate(ordering_results)
    pi = {v: stats["pi"][(v, 0.0)] for v in ordering_results.variants}
    rho = {v: stats["rho"][(v, 0.0)] for v in ordering_results.variants}
    ok = (pi["adagi1"] > pi["adag1"] > pi["adagi2"]
          and rho["adagi1"] > rho["adag2"] and rho["adagi1"] > rho["adagi2"])
    assert _line(8, ok,
                 "pi " + " ".join(f"{v}={pi[v]:.3f}" for v in pi)
                 + "; rho " + " ".join(f"{v}={rho[v]:.1f}" for v in rho))


def test_criterion_9_oracle_equivalence():
    # (a) box step vs closed-form minimizer on separable quadratics
    rng = np.random.default_rng(2718)
    worst_box = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        g = rng.standard_normal(n) * 3.0
        d = rng.uniform(0.1, 4.0, n)
        w = rng.uniform(0.2, 3.0, n)
        model = HessianModel("exact", n)
        model.dense = np.diag(d)
        tr = make_region("inf", g, w)
        s = solve_tr_step(g, model, tr, tau=0.1)
        closed = np.clip(-g / d, -tr.radii, tr.radii)
        worst_box = max(worst_box, float(np.max(np.abs(s - closed))))
    # (b) limited-memory model vs dense recursive BFGS oracle
    worst_lbfgs = 0.0
    for trial in range(30):
        n = int(rng.integers(2, 7))
        model = HessianModel("lbfgs", n)
        pairs = []
        for _ in range(int(rng.integers(1, 6))):
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if y @ s <= 1e-10:
                y = s + 0.05 * y
            update_model(model, s, y)
            pairs.append((s, y))
        kept = pairs[-3:]
        s0, y0 = kept[-1]
        dense = (s0 @ s0) / (y0 @ s0) * np.eye(n)
        for s, y in kept:
            bs = dense @ s
            dense = dense - np.outer(bs, bs) / (s @ bs) + np.outer(y, y) / (y @ s)
        got = np.column_stack([apply_model(model, e) for e in np.eye(n)])
        worst_lbfgs = max(worst_lbfgs,
                          float(np.max(np.abs(got - dense))) / max(1.0, float(np.max(np.abs(dense)))))
    ok = worst_box <= 1e-8 and worst_lbfgs <= 1e-10
    assert _line(9, ok,
                 f"box minimizer dev {worst_box:.2e} (200 instances); "
                 f"dense-BFGS dev {worst_lbfgs:.2e}")
