"""Experiment matrix, success/reliability/profile statistics and the theory battery.

Efficiency is measured in derivative evaluations, success by the three-clause
rule (gradient tolerance reached, or relative objective error below 1e-7, or
absolute error below 1e-7 when the optimum itself is below 1e-7).  Profiles
follow the standard best-ratio construction; the scalar score ``pi`` is the
mean height of the profile curve over the ratio interval [1, 50] (so a solver
that is best everywhere scores 0.98), and ``rho`` is the percentage of
successful runs.  Scoring always uses noise-free oracle values at the final
iterate, also for runs that only ever saw contaminated oracles.
"""

from __future__ import annotations

import csv
import time
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .driver import VARIANTS, RunConfig, RunRecord, astr1, fdecrease_margins, run_variant
from .errors import (
    ConfigMismatch,
    EmptyResults,
    InvalidParameter,
    MissingConstants,
    MissingReference,
    NonFiniteValue,
    integer,
)
from .problems import Problem, diag_quadratic, noise_setting
from .scaling import ScalingStrategy, euclidean_norm
from .sharpness import lambert_wm1

GRAD_SUCCESS_TOL = 1e-6
F_SUCCESS_TOL = 1e-7
PROFILE_TMAX = 50.0
COMPARABLE_F_RTOL = 1e-3


# ---------------------------------------------------------------------------
# run matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellResult:
    """Summary of one (variant, problem, noise level, replication) run."""

    variant: str
    problem: str
    noise_level: float
    rep: int
    status: str
    evals: int
    final_gnorm: float  # true gradient norm at the final iterate
    final_f: float  # true objective value at the final iterate
    success: bool
    counters: dict


@dataclass
class BenchResults:
    """All cells of one experiment, in deterministic order."""

    cells: list
    variants: list
    problems: list
    noise_levels: list

    def level_cells(self, level: float) -> list:
        return [c for c in self.cells if c.noise_level == level]


def _cell_seed(master_seed: int, variant: str, problem: str, level: float, rep: int) -> int:
    ss = np.random.SeedSequence([
        int(master_seed),
        zlib.crc32(variant.encode()),
        zlib.crc32(problem.encode()),
        int(round(level * 1e6)),
        int(rep),
    ])
    lo, hi = (int(v) for v in ss.generate_state(2, dtype=np.uint64))
    return lo | (hi << 64)


def _true_finals(problem: Problem, x_final: np.ndarray):
    if not np.isfinite(x_final).all():
        return np.inf, np.inf
    try:
        out = problem.evaluate(x_final, ("value", "gradient"))
    except NonFiniteValue:
        return np.inf, np.inf
    return float(out["value"]), euclidean_norm(out["gradient"])


def _scored(final_gnorm: float, final_f, problem: Problem) -> bool:
    if np.isfinite(final_gnorm) and final_gnorm <= GRAD_SUCCESS_TOL:
        return True
    if final_f is None or not np.isfinite(final_f):
        return False
    f_ref = problem.f_ref
    if f_ref is None:
        raise MissingReference(f"{problem.name} carries no reference optimum")
    if abs(f_ref) < F_SUCCESS_TOL:
        return abs(final_f) <= F_SUCCESS_TOL
    return abs(final_f - f_ref) / abs(f_ref) <= F_SUCCESS_TOL


def success(summary, problem: Problem) -> bool:
    """Three-clause success rule on true final values.

    ``summary`` needs ``final_gnorm`` and ``final_f`` attributes (a
    :class:`CellResult` or any record-like object).
    """
    return _scored(summary.final_gnorm, summary.final_f, problem)


def run_matrix(variants: Iterable[str], problems: Iterable[Problem],
               noise_levels: Iterable[float] = (0.0,), reps: int = 1,
               master_seed: int = 0, **config_overrides) -> BenchResults:
    """Execute every cell of the experiment grid.

    Per-cell noise seeds are derived from the master seed independently of
    execution order, so results are reproducible cell by cell.  Noiseless
    levels are deterministic and run a single replication.
    """
    variants = list(variants)
    problems = list(problems)
    noise_levels = [noise_setting(float(level))[0] for level in noise_levels]
    if not variants or not problems or not noise_levels:
        raise InvalidParameter("variants, problems and noise levels must be nonempty")
    if integer(reps, "reps") < 1:
        raise InvalidParameter("reps must be >= 1")
    if integer(master_seed, "master seed") < 0:
        raise InvalidParameter(f"master seed must be >= 0, got {master_seed}")

    cells = []
    for variant in variants:
        for problem in problems:
            for level in noise_levels:
                n_reps = reps if level > 0 else 1
                for rep in range(n_reps):
                    seed = _cell_seed(master_seed, variant, problem.name, level, rep)
                    record = run_variant(problem, variant, noise_level=level,
                                         noise_seed=seed, **config_overrides)
                    f_true, gnorm_true = _true_finals(problem, record.x_final)
                    cell = CellResult(
                        variant=variant,
                        problem=problem.name,
                        noise_level=level,
                        rep=rep,
                        status=record.status,
                        evals=record.evals,
                        final_gnorm=gnorm_true,
                        final_f=f_true,
                        success=_scored(gnorm_true, f_true, problem),
                        counters=dict(record.counters),
                    )
                    cells.append(cell)
    return BenchResults(cells=cells, variants=variants,
                        problems=[p.name for p in problems], noise_levels=noise_levels)


# ---------------------------------------------------------------------------
# aggregation: comparability, profiles, pi, rho
# ---------------------------------------------------------------------------

def comparable_problems(results: BenchResults) -> list:
    """Problems on which cross-variant comparison is meaningful.

    A problem is excluded when converged variants disagree on the final
    objective by more than a relative 1e-3 (they reached distinct stationary
    points).  The assessment uses the lowest noise level present.
    """
    base_level = min(results.noise_levels)
    finals: dict = {name: [] for name in results.problems}
    for cell in results.level_cells(base_level):
        if cell.status == "converged" and np.isfinite(cell.final_f):
            finals[cell.problem].append(cell.final_f)
    keep = []
    for name in results.problems:
        vals = finals[name]
        if len(vals) >= 2:
            spread = max(vals) - min(vals)
            scale = max(1.0, abs(max(vals)), abs(min(vals)))
            if spread > COMPARABLE_F_RTOL * scale:
                continue
        keep.append(name)
    return keep


def profile_area(ratios: np.ndarray, n_instances: int) -> float:
    """Mean of the profile step curve over [1, PROFILE_TMAX] (the ``pi`` score):
    instance i counts from max(1, r_i) on, if r_i <= PROFILE_TMAX."""
    if n_instances == 0:
        return 0.0
    rs = ratios[ratios <= PROFILE_TMAX]  # drops inf and NaN
    return float(np.sum(PROFILE_TMAX - np.maximum(rs, 1.0))) / (n_instances * PROFILE_TMAX)


def aggregate(results: BenchResults) -> dict:
    """Performance profiles, pi and rho per (variant, noise level)."""
    if not results.cells:
        raise EmptyResults("no cells to aggregate")
    comparable = comparable_problems(results)
    if not comparable:
        raise EmptyResults("comparability filter removed every problem")
    comp = set(comparable)

    pi: dict = {}
    rho: dict = {}
    profiles: dict = {}
    for level in results.noise_levels:
        cells = [c for c in results.level_cells(level) if c.problem in comp]
        # instances are (problem, rep) pairs; collect each variant's cost
        instances: dict = {}
        for c in cells:
            instances.setdefault((c.problem, c.rep), {})[c.variant] = c
        keys = sorted(instances)
        ratios = {v: np.full(len(keys), np.inf) for v in results.variants}
        for i, key in enumerate(keys):
            per_variant = instances[key]
            costs = [c.evals for c in per_variant.values() if c.success]
            if not costs:
                continue
            best = min(costs)
            for v, c in per_variant.items():
                if c.success:
                    ratios[v][i] = c.evals / best
        for v in results.variants:
            vc = [c for c in cells if c.variant == v]
            attempts = len(vc)
            wins = sum(c.success for c in vc)
            rho[(v, level)] = 100.0 * wins / attempts if attempts else 0.0
            pi[(v, level)] = profile_area(ratios[v], len(keys))
            profiles[(v, level)] = ratios[v]
    return {
        "pi": pi,
        "rho": rho,
        "profiles": profiles,
        "comparable": comparable,
        "excluded": [p for p in results.problems if p not in comp],
    }


def write_results_csv(results: BenchResults, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "problem", "noise_level", "rep", "status",
                         "evals", "final_gnorm", "final_f", "success"])
        for c in results.cells:
            writer.writerow([c.variant, c.problem, c.noise_level, c.rep, c.status,
                             c.evals, repr(c.final_gnorm), repr(c.final_f),
                             int(c.success)])


def write_stats_csv(results: BenchResults, path: str) -> dict:
    stats = aggregate(results)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "noise_level", "pi", "rho"])
        for level in results.noise_levels:
            for v in results.variants:
                writer.writerow([v, level, f"{stats['pi'][(v, level)]:.6f}",
                                 f"{stats['rho'][(v, level)]:.4f}"])
    return stats


# ---------------------------------------------------------------------------
# the summation lemma behind the adaptive-scaling analysis
# ---------------------------------------------------------------------------

def _partial_sums(a, xi: float, alpha: float):
    """The running sum b_k = sum_{j<=k} a_j of the nonnegative sequence ``a``
    and lhs_k = sum_{j<=k} a_j / (xi + b_j)^alpha, for xi > 0, along the last
    axis, so a 2-D ``a`` holds one sequence per row."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise InvalidParameter("sequence must be nonnegative")
    if not xi > 0:
        raise InvalidParameter(f"xi must be positive, got {xi}")
    b = np.cumsum(a, axis=-1)
    return b, np.cumsum(a / (xi + b) ** alpha, axis=-1)


def series_bound_margins(a: np.ndarray, xi: float, alpha: float) -> np.ndarray:
    """Margins rhs_k - lhs_k of the partial-sum bound, for every k, with b and
    lhs as :func:`_partial_sums` gives them; rhs is the closed-form bound
    (power form for alpha != 1, logarithmic form at alpha = 1)."""
    b, lhs = _partial_sums(a, xi, alpha)
    if alpha == 1.0:
        rhs = np.log((xi + b) / xi)
    else:
        rhs = ((xi + b) ** (1.0 - alpha) - xi ** (1.0 - alpha)) / (1.0 - alpha)
    return rhs - lhs


def series_corollary_margins(a: np.ndarray, xi: float, alpha: float) -> np.ndarray:
    """Margins of the simplified tail bounds (alpha < 1 and alpha > 1 forms),
    along the last axis as in :func:`series_bound_margins`."""
    b, lhs = _partial_sums(a, xi, alpha)
    if alpha < 1.0:
        rhs = (xi + b) ** (1.0 - alpha) / (1.0 - alpha)
    elif alpha > 1.0:
        rhs = np.full_like(b, xi ** (1.0 - alpha) / (alpha - 1.0))
    else:
        raise InvalidParameter("corollaries need alpha != 1")
    return rhs - lhs


#: the (alpha, margin function) forms of the series suite, checked at each xi
SERIES_FORMS = (
    (0.3, series_bound_margins),
    (1.7, series_bound_margins),
    (1.0, series_bound_margins),
    (0.3, series_corollary_margins),
    (1.7, series_corollary_margins),
)
SERIES_XIS = (0.01, 1.0)
#: rows of the series suite checked together; a block's temporaries fit in cache
SERIES_BLOCK = 128
#: the longest sequence the series suite draws
SERIES_MAX_LEN = 200


def series_suite(n_sequences: int = 1000, seed: int = 2024, rtol: float = 1e-12) -> dict:
    """Randomised verification of all four partial-sum inequality forms.

    The sequences are drawn one after the other into the rows of a
    zero-padded array, and each form is checked on a block of rows at once;
    the padding is never counted.
    """
    rng = np.random.default_rng(seed)
    seqs = np.zeros((n_sequences, SERIES_MAX_LEN))
    valid = np.zeros((n_sequences, SERIES_MAX_LEN), dtype=bool)
    for row, valid_row in zip(seqs, valid):
        length = int(rng.integers(1, SERIES_MAX_LEN + 1))
        a = row[:length]
        a[:] = rng.exponential(scale=rng.uniform(0.1, 10.0), size=length)
        if rng.uniform() < 0.1:
            a[rng.uniform(size=length) < 0.3] = 0.0  # exercise zero entries
        valid_row[:length] = True
    violations = 0
    worst = np.inf
    for start in range(0, n_sequences, SERIES_BLOCK):
        block = seqs[start:start + SERIES_BLOCK]
        mask = valid[start:start + SERIES_BLOCK]
        for xi in SERIES_XIS:
            for alpha, fn in SERIES_FORMS:
                margins = fn(block, xi, alpha)[mask]
                rel = margins / np.maximum(np.abs(margins), 1.0)
                worst = min(worst, float(rel.min()))
                violations += int(np.count_nonzero(rel < -rtol))
    return {"violations": violations, "worst_margin": worst,
            "checks": n_sequences * len(SERIES_XIS) * len(SERIES_FORMS)}


# ---------------------------------------------------------------------------
# theory constants and bound checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryConstants:
    """Problem and algorithm constants feeding the convergence bounds, at the admissible
    width vartheta = 1 and, for ``nu`` set, kappa_w = kappa_g and varsigma_min = varsigma."""

    n: int
    mu: float
    varsigma: float
    tau: float
    kappaB: float
    L: float
    kappa_g: float
    Gamma0: float
    nu: Optional[float] = None  # iteration-power regime only

    def __post_init__(self):
        for name in ("kappaB", "L", "kappa_g", "Gamma0"):
            val = getattr(self, name)
            if val is None or not np.isfinite(val):
                raise MissingConstants(f"{name} must be finite")

    @property
    def kappa1(self) -> float:
        return self.kappa_g ** (2 * self.mu) * self.kappaB / (self.tau * self.varsigma**self.mu)

    @property
    def kappa2(self) -> float:
        return self.n * self.kappa1 * (self.kappaB + self.L)

    @property
    def kappa3(self) -> float:
        mu, vs = self.mu, self.varsigma
        if not mu < 0.5:
            raise MissingConstants("kappa3 defined for mu < 1/2")
        t2 = (4.0 * self.n * self.kappaB * (self.kappaB + self.L)
              / ((1.0 - 2.0 * mu) * self.tau * vs**mu)) ** (1.0 / mu)
        t3 = (2.0 ** (2.0 * mu) * (1.0 - 2.0 * mu) * self.Gamma0
              / (self.n * (self.kappaB + self.L))) ** (1.0 / (1.0 - 2.0 * mu))
        return max(vs, t2, t3)

    @property
    def kappa4(self) -> float:
        return 2.0 * self.kappa1 * self.Gamma0

    @property
    def kappa5(self) -> float:
        mu, vs = self.mu, self.varsigma
        if not mu < 0.5:
            raise MissingConstants("kappa5 defined for mu < 1/2")
        return (self.kappa2 / (1.0 - 2.0 * mu)) * (
            (vs + self.kappa_g**2) ** (1.0 - 2.0 * mu) - vs ** (1.0 - 2.0 * mu))

    @property
    def kappa6(self) -> float:
        vs = self.varsigma
        denom = 8.0 * self.n * self.kappaB * (self.kappaB + self.L)
        ratio = self.tau * np.sqrt(vs) / denom
        wm1 = lambert_wm1(-ratio)
        t2 = 0.5 * np.exp(2.0 * self.Gamma0 / (self.n * (self.kappaB + self.L)))
        t3 = 0.5 * (denom / (self.tau * np.sqrt(vs))) ** 2 * wm1**2
        return max(vs, t2, t3)

    @property
    def kappa7(self) -> float:
        mu, vs = self.mu, self.varsigma
        if not mu > 0.5:
            raise MissingConstants("kappa7 defined for mu > 1/2")
        inner = self.Gamma0 + (self.n * (self.kappaB + self.L) * vs ** (1.0 - 2.0 * mu)
                               / (2.0 * (2.0 * mu - 1.0)))
        return (2.0 ** (1.0 + mu) * self.kappaB / (self.tau * vs**mu)
                * inner) ** (1.0 / (1.0 - mu))

    @property
    def kappa8(self) -> float:
        mu, vs = self.mu, self.varsigma
        if not mu > 0.5:
            raise MissingConstants("kappa8 defined for mu > 1/2")
        return 2.0 * self.kappa1 * self.Gamma0 + self.kappa2 * vs ** (1.0 - 2.0 * mu) / (
            2.0 * mu - 1.0)

    @property
    def regime(self) -> str:
        """The one of :data:`REGIMES` these constants govern: ``ming`` when
        ``nu`` is set, else the one ``mu`` falls in (below, at or above 1/2)."""
        return "ming" if self.nu is not None else REGIMES[(self.mu >= 0.5) + (self.mu > 0.5)]

    @property
    def kappa_order(self) -> float:
        """The k-order constant of the regime (kappa3 / kappa6 / kappa7)."""
        if self.regime == "mu_lt_half":
            return self.kappa3
        if self.regime == "mu_eq_half":
            return self.kappa6
        if self.regime == "mu_gt_half":
            return self.kappa7
        raise MissingConstants("the iteration-power regime has no k-order constant")

    # -- iteration-power ("ming") regime -----------------------------------

    @property
    def theta(self) -> float:
        """The window's theta, the midpoint of (0, tau * varsigma); j_theta and
        kappa_diamond read it, so its check of ``nu`` guards them too."""
        if self.nu is None:
            raise MissingConstants("the iteration-power constants need nu")
        return 0.5 * self.tau * self.varsigma

    @property
    def j_theta(self) -> float:
        """The window's start index; inf when it overflows a float."""
        base = self.kappaB * (self.kappaB + self.L) / (
            self.varsigma * (self.tau * self.varsigma - self.theta))
        try:
            return base ** (1.0 / self.nu)
        except OverflowError:
            return np.inf

    @property
    def kappa_diamond(self) -> float:
        return (2.0 * self.kappa_g * self.kappaB / self.theta) * (
            self.Gamma0 + self.n * (self.j_theta + 1.0) * self.kappa_g**2
            * (self.kappaB + self.L) / (2.0 * self.varsigma**2))


def constants_from_run(record: RunRecord, L: float, Gamma0: float) -> TheoryConstants:
    """Assemble bound constants for a kept-trace run on a known problem.

    ``kappa_g`` is taken as the largest infinity-norm gradient observed (at
    least 1, and large enough that kappa_g^2 >= g_{i,0}^2 + varsigma).
    ``kappaB`` is 1 for model-free runs, else the largest recorded bound.
    """
    trace = record.trace
    if trace is None or "g" not in trace:
        raise MissingConstants("theory checks need a run with keep_trace enabled")
    strat = record.config.scaling
    gs = trace["g"]
    kappa_g = max(1.0,
                  float(np.max(np.abs(gs))),
                  float(np.sqrt(np.max(gs[0] ** 2) + strat.varsigma)) * (1.0 + 1e-12))
    is_maxg = strat.kind.startswith("maxg")
    return TheoryConstants(
        n=gs.shape[1],
        mu=strat.nu if is_maxg else strat.mu,
        varsigma=strat.varsigma,
        tau=record.config.tau,
        kappaB=float(np.max(trace["bnorm"], initial=1.0)),
        L=L,
        kappa_g=kappa_g,
        Gamma0=Gamma0,
        nu=strat.nu if is_maxg else None,
    )


REGIMES = ("mu_lt_half", "mu_eq_half", "mu_gt_half", "ming")


def theory_check(record: RunRecord, constants: TheoryConstants, regime: str) -> dict:
    """Verify the gradient-norm bounds along a recorded noiseless run.

    Checks, at every iterate, the k-order inequality
    min_{j<=k} ||g_j|| * sqrt(k+1) <= kappa_circ and both members of the
    mean-square bound of the matching regime; in the iteration-power regime,
    the windowed bound beyond the computable index j_theta.  Returns a report
    with violation counts (all-zero means the run is consistent with theory).
    A ``regime`` other than ``constants.regime`` raises :class:`ConfigMismatch`.
    """
    if regime not in REGIMES:
        raise InvalidParameter(f"unknown regime {regime!r}")
    if regime != constants.regime:
        raise ConfigMismatch(f"regime {regime!r} does not govern {constants.regime!r} constants")
    gn = record.trace["gnorm"] if record.trace else None
    if gn is None or len(gn) == 0:
        raise MissingConstants("theory checks need the gradient-norm trace")
    gn = np.asarray(gn, dtype=float)
    k = np.arange(len(gn), dtype=float)
    mean_sq = np.cumsum(gn**2) / (k + 1.0)
    run_min = np.minimum.accumulate(gn)

    checks = {}

    def add(name, margins):
        margins = np.asarray(margins, dtype=float)
        checks[name] = {
            "violations": int(np.sum(margins < 0.0)),
            "min_margin": float(np.min(margins)) if margins.size else np.inf,
        }

    if regime == "ming":
        jt = constants.j_theta
        kd = constants.kappa_diamond
        if jt >= len(gn) - 1:  # no k > j_theta in the run; jt may be inf
            checks["ming_window"] = {"violations": 0, "min_margin": np.inf,
                                     "vacuous": True, "j_theta": jt}
        else:
            jlo = int(np.floor(jt)) + 1
            csum = np.cumsum(gn**2)
            idx = np.arange(jlo, len(gn))  # k values with a nonempty window
            head = csum[jlo - 1]
            window_mean = (csum[idx] - head) / (idx - jlo + 1.0)
            bound1 = kd * (idx + 1.0) ** constants.mu / (idx - jt)
            bound2 = 2.0 * kd * (jt + 1.0) / idx ** (1.0 - constants.mu)
            add("ming_window", bound1 - window_mean)
            add("ming_window_tail", bound2 - window_mean)
            checks["ming_window"]["j_theta"] = jt
    else:
        kappa = constants.kappa_order
        add("k_order", kappa - run_min * np.sqrt(k + 1.0))
        add("mean_sq_first", kappa / (k + 1.0) - mean_sq)
        if regime == "mu_lt_half":
            mu = constants.mu
            second = (constants.kappa4 / (k + 1.0) ** (1.0 - mu)
                      + constants.kappa5 / (k + 1.0) ** mu)
        elif regime == "mu_eq_half":
            second = (constants.kappa4 / np.sqrt(k + 1.0)
                      + constants.kappa2
                      * np.log1p((k + 1.0) * constants.kappa_g**2 / constants.varsigma)
                      / np.sqrt(k + 1.0))
        else:
            second = constants.kappa8 / (k + 1.0) ** (1.0 - constants.mu)
        add("mean_sq_second", second - mean_sq)

    total = sum(c["violations"] for c in checks.values())
    return {"regime": regime, "checks": checks, "violations": total}


def quadratic_testbed(n: int, x0_scale: float = 1.0) -> Problem:
    """Diagonal quadratic with curvatures spread over [0.1, 1]."""
    lam = np.linspace(0.1, 1.0, n) if n > 1 else np.array([1.0])
    x0 = np.full(n, x0_scale)
    return diag_quadratic(lam, x0, name=f"diagquad{n}")


#: the bound runs of the theory battery on quadratic_testbed(5), on the
#: infinity-norm region: (check name, regime, scaling, model name); one row
#: per scaling regime, then one per ``driver.VARIANTS`` row with a model
BOUND_RUNS = (
    ("bounds-mu_lt_half", "mu_lt_half", ScalingStrategy(kind="adagrad-comp", mu=0.25), "none"),
    ("bounds-mu_eq_half", "mu_eq_half", ScalingStrategy(kind="adagrad-comp", mu=0.5), "none"),
    ("bounds-mu_gt_half", "mu_gt_half", ScalingStrategy(kind="adagrad-comp", mu=0.75), "none"),
    ("bounds-ming", "ming", ScalingStrategy(kind="maxg-comp", mu=0.9, nu=0.9, varsigma=1.0),
     "none"),
    *((f"bounds-{tag}", "mu_eq_half", ScalingStrategy(kind), model)
      for tag, (kind, model, _) in VARIANTS.items() if model != "none"),
)

#: W_-1 arguments of the battery's residual check, from near 0 to the branch point
WM1_POINTS = (-1e-6, -0.05, -0.1, -0.2, -1 / np.e + 1e-9, -1 / np.e + 1e-10)


def theory_battery(iters: int = 10_000) -> list:
    """Numerical checks of the paper's claims, each a dict with ``name``,
    ``violations``, ``min_margin`` (negative at a violation), ``passed`` and
    ``seconds``: the summation lemma, one bound check per :data:`BOUND_RUNS`
    row, the guaranteed decrease (tolerance -1e-8, ``L = 1``) of every
    ``driver.VARIANTS`` tag on ``quadratic_testbed(n)``, n in (1, 5, 20), and
    the relative W_-1 residual (<= 1e-12) plus its exact branch point.  Every
    solver run stops at ``iters`` steps or at a gradient norm of 1e-30.  A
    bound check whose run checked no iterate is marked ``vacuous`` and fails.
    """
    checks = []

    def add(name, start, violations, min_margin, **detail):
        checks.append({"name": name, "violations": int(violations),
                       "min_margin": float(min_margin),
                       "passed": not violations and not detail.get("vacuous"),
                       "seconds": time.perf_counter() - start, **detail})

    start = time.perf_counter()
    series = series_suite()
    add("summation-lemma-suite", start, series["violations"], series["worst_margin"])

    for name, regime, scaling, model in BOUND_RUNS:
        start = time.perf_counter()
        problem = quadratic_testbed(5)
        record = astr1(problem, RunConfig(scaling=scaling, model=model, eps=1e-30,
                                          max_iter=iters, keep_trace=True))
        constants = constants_from_run(record, L=1.0, Gamma0=problem.value(problem.x0))
        parts = theory_check(record, constants, regime)["checks"].values()
        add(name, start, sum(c["violations"] for c in parts),
            min(c["min_margin"] for c in parts),
            vacuous=any(c.get("vacuous") for c in parts))

    start = time.perf_counter()
    margins = np.concatenate([
        fdecrease_margins(run_variant(quadratic_testbed(n), tag, eps=1e-30, max_iter=iters,
                                      keep_trace=True, record_f=True), L=1.0)
        for n in (1, 5, 20) for tag in VARIANTS])
    add("guaranteed-decrease", start, np.sum(margins < -1e-8), np.min(margins, initial=np.inf))

    start = time.perf_counter()
    rel = [abs(w * np.exp(w) - y) / abs(y) for y in WM1_POINTS for w in (lambert_wm1(y),)]
    exact = bool(lambert_wm1(-1 / np.e) == -1.0)
    add("lambert-wm1-residual", start, sum(r > 1e-12 for r in rel) + (not exact),
        1e-12 - max(rel), max_residual=float(max(rel)), branch_exact=exact)
    return checks
