"""The adaptively scaled trust-region loop and the Armijo steepest-descent baseline.

``astr1`` never consults the value oracle to make decisions; objective values
appear in its records only when instrumentation is switched on, and switching
it off changes no iterate.  ``sdba`` is the classical backtracking steepest
descent used as the function-evaluating baseline.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParameter, NonFiniteInput, NonFiniteValue
from .model import HessianModel, update_model
from .problems import NoisyProblem, Problem, noise_setting
from .scaling import ScalingStrategy, euclidean_norm, init_scaling, update_scaling
from .step import NORMS, cauchy_point, make_region, model_value, solve_tr_step

STATUS_CONVERGED = "converged"
STATUS_BUDGET = "budget-exhausted"
STATUS_OVERFLOW = "overflow-failure"
STATUS_STALLED = "stalled"

#: sufficient-decrease constant, step shrink factor and backtrack budget of sdba
ARMIJO_C = 1e-4
ARMIJO_FACTOR = 0.5
ARMIJO_MAX_BACKTRACKS = 60

#: a JSON run record keeps every ceil(len / TRACE_POINTS)-th trace row and the last
TRACE_POINTS = 1000

#: ``RunConfig.model`` name -> ``HessianModel`` kind
MODELS = {"none": "zero", "bb": "bb", "lbfgs3": "lbfgs", "exact": "exact"}

#: variant tag -> (scaling kind, model name, trust-region norm); the one variant table
VARIANTS = {
    "adag1": ("adagrad-agg", "none", "two"),
    "adagi1": ("adagrad-comp", "none", "inf"),
    "adag2": ("ewma-agg", "none", "two"),
    "adagi2": ("ewma-comp", "none", "inf"),
    "maxg01": ("maxg-agg", "none", "two"),
    "maxgi01": ("maxg-comp", "none", "inf"),
    "b1adagi1": ("adagrad-comp", "bb", "inf"),
    "lmadagi3b": ("adagrad-comp", "lbfgs3", "inf"),
    "Eadagi1": ("adagrad-comp", "exact", "inf"),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one run bit for bit."""

    scaling: ScalingStrategy = ScalingStrategy("adagrad-comp")
    model: str = "none"  # a name of MODELS
    norm: str = "inf"
    tau: float = 0.1
    eps: float = 1e-6
    max_iter: int = 100000
    noise_level: float = 0.0
    noise_seed: int = 0
    record_f: bool = False
    keep_trace: bool = False
    variant: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.scaling, ScalingStrategy):
            raise InvalidParameter(f"scaling must be a ScalingStrategy, got {self.scaling!r}")
        if self.model not in MODELS:
            raise InvalidParameter(f"unknown model {self.model!r}, expected one of {list(MODELS)}")
        if self.norm not in NORMS:
            raise InvalidParameter(f"unknown trust-region norm {self.norm!r}")
        if not 0.0 < self.tau <= 1.0:
            raise InvalidParameter(f"tau must lie in (0,1], got {self.tau}")
        if not self.eps > 0:  # NaN included
            raise InvalidParameter(f"eps must be > 0, got {self.eps}")
        if self.max_iter < 1:
            raise InvalidParameter("max_iter must be >= 1")
        noise_setting(self.noise_level, self.noise_seed)


def variant_config(tag: str, **overrides) -> RunConfig:
    """Run configuration matching one of the named algorithm variants;
    ``overrides`` may also replace the variant's ``model`` or ``norm``, except
    for ``sdba``, which uses neither."""
    if tag == "sdba":
        if {"model", "norm"} & set(overrides):
            raise InvalidParameter("sdba has no model or norm to override")
        return RunConfig(variant="sdba", **overrides)
    if tag not in VARIANTS:
        raise InvalidParameter(f"unknown variant tag {tag!r}")
    kind, model, norm = VARIANTS[tag]
    return RunConfig(**{"scaling": ScalingStrategy(kind), "model": model, "norm": norm,
                        "variant": tag, **overrides})


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
    neval: dict  # oracle call counts {"value", "gradient", "hessian", "fd_gradient"}
    trace: Optional[dict] = None

    @property
    def evals(self) -> int:
        """Derivative evaluations (= iterations); the profile cost measure."""
        return self.neval["gradient"]


class _Trace:
    """Column-wise trace accumulator: one flat ``array("d")`` per column.

    ``gnorm`` and, with ``record_f``, ``f`` take one value per iterate;
    with ``keep`` the rows ``x`` and ``g`` (n wide) follow each iterate and
    ``w`` (``w_width`` wide: n for astr1, 0 for sdba), ``s`` (n wide) and
    the value ``bnorm`` each step.  A row is appended as a copy of its
    bytes, so the trace holds no array of the loop, and a gradient buffer
    that the oracle reuses is copied before the next query overwrites it.
    ``freeze`` views each column, without a copy, as a C-contiguous
    float64 array, ``(rows, width)`` for the row columns."""

    def __init__(self, keep, record_f, n, w_width):
        self.keep = keep
        self.record_f = record_f
        self.n, self.w_width = n, w_width
        self.gnorm, self.f, self.bnorm = array("d"), array("d"), array("d")
        self.x, self.g, self.w, self.s = array("d"), array("d"), array("d"), array("d")

    def iterate(self, x, g, gnorm, f):
        self.gnorm.append(gnorm)
        if self.record_f:
            self.f.append(f)
        if self.keep:
            self.x.frombytes(x.tobytes())
            self.g.frombytes(g.tobytes())

    def step(self, w, s, bnorm):
        if self.keep:
            self.w.frombytes(w.tobytes())
            self.s.frombytes(s.tobytes())
            self.bnorm.append(bnorm)

    def freeze(self):
        def view(col, *shape):
            return np.frombuffer(col, dtype=np.float64).reshape(shape or (len(col),))

        out = {"gnorm": view(self.gnorm)}
        if self.record_f:
            out["f"] = view(self.f)
        if self.keep:
            iterates, steps, n = len(self.gnorm), len(self.bnorm), self.n
            out["x"] = view(self.x, iterates, n)
            out["g"] = view(self.g, iterates, n)
            out["w"] = view(self.w, steps, self.w_width)
            out["s"] = view(self.s, steps, n)
            out["bnorm"] = view(self.bnorm)
        return out


def _run(problem: Problem, config: RunConfig, want: tuple, step, variant,
         w_width: int) -> RunRecord:
    """The iteration both methods share: query ``want`` at each iterate, stop
    on the gradient norm test or the budget, else step by
    ``step(x, g, f, oracle, counters, trace)``, whose kept ``w`` rows are
    ``w_width`` wide.  A step of None ends the run as ``stalled``, an
    overflow as ``overflow-failure`` (never raised)."""
    oracle = NoisyProblem(problem, config.noise_level, config.noise_seed)
    counters = {"sbound_violations": 0, "gcp_violations": 0,
                "wfloor_violations": 0}
    trace = _Trace(config.keep_trace, "value" in want, problem.n, w_width)

    x = problem._checked(problem.x0, want)[0].copy()
    status = STATUS_BUDGET
    gnorm = np.nan
    fval = None
    query, iterate = oracle._query, trace.iterate
    eps, max_iter = config.eps, config.max_iter
    sqrt, inf = math.sqrt, math.inf

    # one errstate per run: overflow surfaces as NonFiniteValue, never a warning
    with np.errstate(all="ignore"):
        for k in range(max_iter + 1):
            try:
                out = query(x, want)
                g = out["gradient"]
                fval = out.get("value")
                # ||g||_2 by one dot, as np.linalg.norm does, unless g.g overflows
                gg = g.dot(g)
                gnorm = sqrt(gg) if gg < inf else euclidean_norm(g)
                iterate(x, g, gnorm, fval)
                if gnorm <= eps:
                    status = STATUS_CONVERGED
                    break
                if k == max_iter:
                    break
                s = step(x, g, fval, oracle, counters, trace)
            except (NonFiniteValue, NonFiniteInput):
                # squared-gradient accumulators, the exact Hessian and g - prev_g
                # can overflow for finite gradients
                status = STATUS_OVERFLOW
                break
            if s is None:
                status = STATUS_STALLED
                break
            x = x + s

    return RunRecord(
        problem=problem.name,
        variant=variant,
        config=config,
        status=status,
        iters=k,  # every pass of the loop but the last took a step
        x_final=x,
        final_gnorm=gnorm,
        final_f=fval,
        counters=counters,
        neval=oracle.counts,
        trace=trace.freeze(),
    )


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
    floor = config.scaling.floor
    state = init_scaling(config.scaling, n)
    model = HessianModel(MODELS[config.model], n)
    # only the secant models read y = g - prev_g; the others are never given it
    secant = model.kind in ("bb", "lbfgs")
    norm, tau, keep_trace = config.norm, config.tau, config.keep_trace
    inf_norm = norm == "inf"
    prev_g = prev_s = None

    def step(x, g, fval, oracle, counters, trace):
        nonlocal prev_g, prev_s
        w = update_scaling(state, g)
        if np.count_nonzero(w < floor):  # w is finite: update_scaling raises otherwise
            counters["wfloor_violations"] += 1
        tr = make_region(norm, g, w)
        y = g - prev_g if secant and prev_g is not None else None
        update_model(model, prev_s, y, x, oracle)
        cp = cauchy_point(g, model, tr)
        s = solve_tr_step(g, model, tr, tau, cauchy=cp)

        if inf_norm:
            feasible = np.count_nonzero(np.abs(s) <= tr.radii) == s.size
        else:
            feasible = math.sqrt(s.dot(s)) <= tr.radius * (1.0 + 1e-12)
        if not feasible:
            counters["sbound_violations"] += 1
        if model_value(g, model, s) > tau * cp.q:
            counters["gcp_violations"] += 1

        if keep_trace:
            trace.step(w, s, model.bnorm)
        prev_g, prev_s = g, s
        return s

    want = ("value", "gradient") if config.record_f else ("gradient",)
    return _run(problem, config, want, step, config.variant, n)


_NO_W = np.zeros(0)  # the empty scaling row of every sdba step


def sdba(problem: Problem, config: RunConfig) -> RunRecord:
    """Steepest descent with Armijo backtracking (the f-evaluating baseline)."""

    def step(x, g, fval, oracle, counters, trace):
        d = -g
        gd = float(g @ d)
        alpha = 1.0
        for _ in range(ARMIJO_MAX_BACKTRACKS + 1):
            trial = x + alpha * d
            try:
                f_trial = oracle._query(trial, ("value",))["value"]
            except NonFiniteValue:
                f_trial = np.inf  # reject the trial point, keep backtracking
            if f_trial <= fval + ARMIJO_C * alpha * gd:
                if (trial == x).all():
                    break  # a step below the rounding of x: the search has stalled
                s = alpha * d
                trace.step(_NO_W, s, 0.0)
                return s
            alpha *= ARMIJO_FACTOR
        return None  # a stalled search ends the run

    return _run(problem, config, ("value", "gradient"), step, config.variant or "sdba", 0)


def run_variant(problem: Problem, tag: str, **overrides) -> RunRecord:
    """Run a named variant on a problem."""
    config = variant_config(tag, **overrides)
    if tag == "sdba":
        return sdba(problem, config)
    return astr1(problem, config)


def fdecrease_margins(record: RunRecord, L: float) -> np.ndarray:
    """Margins of the guaranteed-decrease inequality at every iteration.

    Returns ``lhs_k - rhs_k`` where ``lhs_k = f(x_0) - f(x_{k+1})`` and
    ``rhs_k`` accumulates, over iterations ``j <= k`` and coordinates ``i``,

        g_{i,j}^2 / (2 kB w_{i,j}) * (tau * floor - kB (kB + L) / w_{i,j})

    with ``kB = max(1, sup_j ||B_j||)`` from the trace and ``L`` a Lipschitz
    constant of the gradient.  Nonnegative margins mean the inequality holds.
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
    kappaB = max(1.0, float(np.max(tr["bnorm"])))
    floor = record.config.scaling.floor
    tau = record.config.tau
    g2 = gs[:t] ** 2
    terms = g2 / (2.0 * kappaB * ws) * (tau * floor - kappaB * (kappaB + L) / ws)
    rhs = np.cumsum(terms.sum(axis=1))
    lhs = fs[0] - fs[1 : t + 1]
    return lhs - rhs


def record_to_json(record: RunRecord) -> dict:
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
    if tr is not None:
        gn = tr["gnorm"]
        stride = max(1, int(np.ceil(len(gn) / TRACE_POINTS)))
        idx = np.arange(0, len(gn), stride)
        if len(gn) and idx[-1] != len(gn) - 1:
            idx = np.append(idx, len(gn) - 1)
        sampled = {"k": idx.tolist(), "gnorm": gn[idx].tolist()}
        if "f" in tr:
            sampled["f"] = tr["f"][idx].tolist()
        out["trace"] = sampled
    return out


def save_record(record: RunRecord, path: str) -> None:
    write_json(record_to_json(record), path)


def write_json(obj, path: str) -> None:
    """Write ``obj`` as strict JSON: a NaN or infinite float becomes null."""
    strict = json.loads(json.dumps(obj, default=float), parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump(strict, fh, indent=2, allow_nan=False)
