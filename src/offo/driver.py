"""The adaptively scaled trust-region loop and the Armijo steepest-descent baseline.

``astr1`` never consults the value oracle to make decisions; objective values
appear in its records only when instrumentation is switched on, and switching
it off changes no iterate.  ``sdba`` is the classical backtracking steepest
descent used as the function-evaluating baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidParameter, NonFiniteValue
from .model import init_model, update_model
from .problems import NoisyProblem, Problem
from .scaling import ScalingStrategy, init_scaling, update_scaling
from .step import cauchy_point, make_region, model_value, solve_tr_step

STATUS_CONVERGED = "converged"
STATUS_BUDGET = "budget-exhausted"
STATUS_OVERFLOW = "overflow-failure"

#: sufficient-decrease constant, step shrink factor and backtrack budget of sdba
ARMIJO_C = 1e-4
ARMIJO_FACTOR = 0.5
ARMIJO_MAX_BACKTRACKS = 60

#: variant tag -> (scaling tag, model kind, trust-region norm)
VARIANTS = {
    "adag1": ("adag1", "none", "two"),
    "adagi1": ("adagi1", "none", "inf"),
    "adag2": ("adag2", "none", "two"),
    "adagi2": ("adagi2", "none", "inf"),
    "maxg01": ("maxg01", "none", "two"),
    "maxgi01": ("maxgi01", "none", "inf"),
    "b1adagi1": ("adagi1", "bb", "inf"),
    "lmadagi3b": ("adagi1", "lbfgs3", "inf"),
    "Eadagi1": ("adagi1", "exact", "inf"),
}


#: largest n * max|g_i|^2 for which g.g surely cannot overflow
_DOT_LIMIT = 0.5 * float(np.finfo(float).max)


def euclidean_norm(g: np.ndarray) -> float:
    """||g||_2 of a nonempty 1-D array: ``np.linalg.norm(g)`` bit for bit where
    g.g cannot overflow, else computed on g divided by its largest magnitude."""
    big = float(np.abs(g).max())
    if big * big * g.size < _DOT_LIMIT:
        return math.sqrt(g.dot(g))
    if not big < math.inf:
        return big  # inf, or nan when g holds a nan
    u = g / big
    return big * math.sqrt(u.dot(u))


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one run bit for bit."""

    scaling: Union[ScalingStrategy, str] = "adagi1"
    model: str = "none"  # none | bb | lbfgs3 | exact
    norm: str = "inf"
    tau: float = 0.1
    eps: float = 1e-6
    max_iter: int = 100000
    noise_level: float = 0.0
    noise_seed: int = 0
    kappaB: float = 1e6
    record_f: bool = False
    keep_trace: bool = False
    variant: Optional[str] = None

    def __post_init__(self):
        if self.eps <= 0:
            raise InvalidParameter("eps must be > 0")
        if self.max_iter < 1:
            raise InvalidParameter("max_iter must be >= 1")
        if self.noise_level < 0:
            raise InvalidParameter("noise level must be >= 0")

    @property
    def strategy(self) -> ScalingStrategy:
        if isinstance(self.scaling, ScalingStrategy):
            return self.scaling
        return ScalingStrategy.from_tag(self.scaling)


def variant_config(tag: str, **overrides) -> RunConfig:
    """Run configuration matching one of the named algorithm variants."""
    if tag == "sdba":
        return RunConfig(variant="sdba", **overrides)
    if tag not in VARIANTS:
        raise InvalidParameter(f"unknown variant tag {tag!r}")
    scaling_tag, model_kind, norm = VARIANTS[tag]
    return RunConfig(scaling=scaling_tag, model=model_kind, norm=norm,
                     variant=tag, **overrides)


@dataclass
class RunRecord:
    """Outcome of one run, plus the optional full iterate trace."""

    problem: str
    variant: Optional[str]
    config: RunConfig
    status: str
    iters: int  # steps actually taken
    x_final: np.ndarray
    final_gnorm: float
    final_f: Optional[float]
    counters: dict
    neval: dict  # oracle call counts {"value", "gradient", "hessian"}
    trace: Optional[dict] = None

    @property
    def evals(self) -> int:
        """Derivative evaluations (= iterations); the profile cost measure."""
        return self.neval["gradient"]


class _Trace:
    """Column-wise trace accumulator (iterate rows + step rows)."""

    def __init__(self, keep, record_f):
        self.keep = keep
        self.record_f = record_f
        self.xs, self.gs, self.gnorms, self.fs = [], [], [], []
        self.ws, self.deltas, self.ss, self.qdecs, self.bnorms = [], [], [], [], []

    def iterate(self, x, g, gnorm, f):
        self.gnorms.append(gnorm)
        if self.record_f:
            self.fs.append(f)
        if self.keep:
            self.xs.append(x.copy())
            self.gs.append(g.copy())

    def step(self, w, delta, s, qdec, bnorm):
        if self.keep:
            self.ws.append(w.copy())
            self.deltas.append(delta.copy())
            self.ss.append(s.copy())
            self.qdecs.append(qdec)
            self.bnorms.append(bnorm)

    def freeze(self):
        out = {"gnorm": np.asarray(self.gnorms)}
        if self.record_f:
            out["f"] = np.asarray(self.fs)
        if self.keep:
            out["x"] = np.asarray(self.xs)
            out["g"] = np.asarray(self.gs)
            out["w"] = np.asarray(self.ws)
            out["delta"] = np.asarray(self.deltas)
            out["s"] = np.asarray(self.ss)
            out["qdec"] = np.asarray(self.qdecs)
            out["bnorm"] = np.asarray(self.bnorms)
        return out


def astr1(problem: Problem, config: RunConfig) -> RunRecord:
    """Run the scaled trust-region method on a problem.

    Each iteration evaluates the gradient, updates the scaling vector and the
    Hessian model, computes the generalized Cauchy point, solves the
    trust-region subproblem and steps.  Stops on the gradient norm test, on
    budget exhaustion, or when an oracle (gradient or, for the exact model,
    Hessian) overflows, which is recorded as a result, not raised.  The
    contract checks (step in the region, Cauchy fraction, scaling floor) run
    on every iteration and are counted in ``counters``.
    """
    n = problem.n
    oracle = NoisyProblem(problem, config.noise_level, config.noise_seed)
    strategy = config.strategy
    state = init_scaling(strategy, n)
    model = init_model(config.model if config.model != "none" else "zero", n, config.kappaB)
    counters = {"sbound_violations": 0, "gcp_violations": 0,
                "wfloor_violations": 0, "armijo_stalls": 0}
    trace = _Trace(config.keep_trace, config.record_f)
    want = ("value", "gradient") if config.record_f else ("gradient",)

    x = np.asarray(problem.x0, dtype=float).copy()
    prev_g = prev_s = None
    status = STATUS_BUDGET
    steps = 0
    g = np.zeros(n)
    gnorm = np.nan
    fval = None

    for k in range(config.max_iter + 1):
        try:
            out = oracle.evaluate(x, want)
        except NonFiniteValue:
            status = STATUS_OVERFLOW
            break
        g = out["gradient"]
        fval = out.get("value")
        gnorm = euclidean_norm(g)
        trace.iterate(x, g, gnorm, fval)
        if gnorm <= config.eps:
            status = STATUS_CONVERGED
            break
        if k == config.max_iter:
            status = STATUS_BUDGET
            break

        w = update_scaling(state, g, k)
        if not np.isfinite(w).all():
            # squared-gradient accumulators can overflow even for finite g
            status = STATUS_OVERFLOW
            break
        if not (w >= strategy.floor).all():
            counters["wfloor_violations"] += 1
        tr = make_region(config.norm, g, w)
        try:
            update_model(model, prev_s, None if k == 0 else g - prev_g, x, oracle)
        except NonFiniteValue:
            # the exact model's Hessian can overflow where the gradient does not
            status = STATUS_OVERFLOW
            break
        cp = cauchy_point(g, model, tr)
        s = solve_tr_step(g, model, tr, config.tau, cauchy=cp)

        if config.norm == "inf":
            feasible = bool((np.abs(s) <= tr.radii).all())
        else:
            feasible = float(np.linalg.norm(s)) <= tr.radius * (1.0 + 1e-12)
        if not feasible:
            counters["sbound_violations"] += 1
        q_s = model_value(g, model, s)
        q_c = q_s if s is cp.sQ else model_value(g, model, cp.sQ)
        if q_s > config.tau * q_c:
            counters["gcp_violations"] += 1

        if config.keep_trace:
            trace.step(w, tr.radii, s, cp.qdec, model.norm_bound())
        x = x + s
        prev_g, prev_s = g, s
        steps += 1

    return RunRecord(
        problem=problem.name,
        variant=config.variant,
        config=config,
        status=status,
        iters=steps,
        x_final=x,
        final_gnorm=gnorm,
        final_f=fval,
        counters=counters,
        neval=oracle.counts,
        trace=trace.freeze(),
    )


def sdba(problem: Problem, config: RunConfig) -> RunRecord:
    """Steepest descent with Armijo backtracking (the f-evaluating baseline)."""
    oracle = NoisyProblem(problem, config.noise_level, config.noise_seed)
    counters = {"sbound_violations": 0, "gcp_violations": 0,
                "wfloor_violations": 0, "armijo_stalls": 0}
    trace = _Trace(config.keep_trace, True)

    x = np.asarray(problem.x0, dtype=float).copy()
    status = STATUS_BUDGET
    steps = 0
    gnorm = np.nan
    fval = None

    for k in range(config.max_iter + 1):
        try:
            out = oracle.evaluate(x, ("value", "gradient"))
        except NonFiniteValue:
            status = STATUS_OVERFLOW
            break
        g = out["gradient"]
        fval = out["value"]
        gnorm = euclidean_norm(g)
        trace.iterate(x, g, gnorm, fval)
        if gnorm <= config.eps:
            status = STATUS_CONVERGED
            break
        if k == config.max_iter:
            status = STATUS_BUDGET
            break

        d = -g
        gd = float(g @ d)
        alpha = 1.0
        accepted = False
        for _ in range(ARMIJO_MAX_BACKTRACKS + 1):
            try:
                f_trial = oracle.evaluate(x + alpha * d, ("value",))["value"]
            except NonFiniteValue:
                f_trial = np.inf  # reject the trial point, keep backtracking
            if f_trial <= fval + ARMIJO_C * alpha * gd:
                accepted = True
                break
            alpha *= ARMIJO_FACTOR
        if not accepted:
            counters["armijo_stalls"] += 1
            status = STATUS_BUDGET
            break
        s = alpha * d
        trace.step(np.zeros(0), np.zeros(0), s, -alpha * gd, 0.0)
        x = x + s
        steps += 1

    return RunRecord(
        problem=problem.name,
        variant=config.variant or "sdba",
        config=config,
        status=status,
        iters=steps,
        x_final=x,
        final_gnorm=gnorm,
        final_f=fval,
        counters=counters,
        neval=oracle.counts,
        trace=trace.freeze(),
    )


def run_variant(problem: Problem, tag: str, **overrides) -> RunRecord:
    """Run a named variant on a problem."""
    config = variant_config(tag, **overrides)
    if tag == "sdba":
        return sdba(problem, config)
    return astr1(problem, config)


def fdecrease_margins(record: RunRecord, L: Optional[float] = None,
                      kappaB: Optional[float] = None) -> np.ndarray:
    """Margins of the guaranteed-decrease inequality at every iteration.

    Returns ``lhs_k - rhs_k`` where ``lhs_k = f(x_0) - f(x_{k+1})`` and
    ``rhs_k`` accumulates, over iterations ``j <= k`` and coordinates ``i``,

        g_{i,j}^2 / (2 kB w_{i,j}) * (tau * floor - kB (kB + L) / w_{i,j})

    with ``kB = max(1, sup_j ||B_j||)``.  ``L`` defaults to the empirical
    Lipschitz estimate ``max_j ||g_{j+1}-g_j|| / ||s_j||`` from the run itself.
    Nonnegative margins mean the inequality holds.
    """
    tr = record.trace
    if tr is None or "w" not in tr or "f" not in tr:
        raise InvalidParameter("fdecrease needs a run with keep_trace and record_f")
    gs, ws, ss, fs = tr["g"], tr["w"], tr["s"], tr["f"]
    t = ws.shape[0]
    if t == 0:
        return np.zeros(0)
    if ws.shape != ss.shape:
        raise InvalidParameter("fdecrease needs a trust-region run, not sdba")
    if L is None:
        dg = np.linalg.norm(gs[1 : t + 1] - gs[:t], axis=1)
        ds = np.linalg.norm(ss, axis=1)
        L = float(np.max(dg / np.where(ds > 0, ds, np.inf)))
    if kappaB is None:
        kappaB = max(1.0, float(np.max(tr["bnorm"])) if len(tr["bnorm"]) else 1.0)
    floor = record.config.strategy.floor
    tau = record.config.tau
    g2 = gs[:t] ** 2
    terms = g2 / (2.0 * kappaB * ws) * (tau * floor - kappaB * (kappaB + L) / ws)
    rhs = np.cumsum(terms.sum(axis=1))
    lhs = fs[0] - fs[1 : t + 1]
    return lhs - rhs


def record_to_json(record: RunRecord, max_trace_points: Optional[int] = 1000) -> dict:
    """JSON-serialisable summary of a run; the trace is downsampled if long."""
    out = {
        "problem": record.problem,
        "variant": record.variant,
        "status": record.status,
        "iters": record.iters,
        "evals": record.evals,
        "final_gnorm": record.final_gnorm,
        "final_f": record.final_f,
        "x_final": [float(v) for v in record.x_final],
        "counters": dict(record.counters),
        "neval": dict(record.neval),
    }
    tr = record.trace
    if tr is not None and max_trace_points:
        gn = tr["gnorm"]
        stride = max(1, int(np.ceil(len(gn) / max_trace_points)))
        idx = np.arange(0, len(gn), stride)
        if len(gn) and idx[-1] != len(gn) - 1:
            idx = np.append(idx, len(gn) - 1)
        sampled = {"k": idx.tolist(), "gnorm": gn[idx].tolist()}
        if "f" in tr:
            sampled["f"] = tr["f"][idx].tolist()
        out["trace"] = sampled
    return out


def save_record(record: RunRecord, path: str, max_trace_points: int = 1000) -> None:
    with open(path, "w") as fh:
        json.dump(record_to_json(record, max_trace_points), fh, indent=2)
