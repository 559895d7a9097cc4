"""Experiment matrix, success/reliability/profile statistics and theory checks.

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
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .driver import RunRecord, euclidean_norm, run_variant
from .errors import (
    EmptyResults,
    InvalidParameter,
    MissingConstants,
    MissingReference,
    NonFiniteValue,
)
from .problems import Problem, diag_quadratic
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
    master_seed: int
    variants: list
    problems: list
    noise_levels: list
    reps: int

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


def _scored(final_gnorm: float, final_f, problem: Problem,
            gtol: float = GRAD_SUCCESS_TOL, ftol: float = F_SUCCESS_TOL) -> bool:
    if np.isfinite(final_gnorm) and final_gnorm <= gtol:
        return True
    if final_f is None or not np.isfinite(final_f):
        return False
    f_ref = problem.f_ref
    if f_ref is None:
        raise MissingReference(f"{problem.name} carries no reference optimum")
    if abs(f_ref) < ftol:
        return abs(final_f) <= ftol
    return abs(final_f - f_ref) / abs(f_ref) <= ftol


def success(summary, problem: Problem, gtol: float = GRAD_SUCCESS_TOL,
            ftol: float = F_SUCCESS_TOL) -> bool:
    """Three-clause success rule on true final values.

    ``summary`` needs ``final_gnorm`` and ``final_f`` attributes (a
    :class:`CellResult` or any record-like object).
    """
    return _scored(summary.final_gnorm, summary.final_f, problem, gtol, ftol)


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
    noise_levels = [float(v) for v in noise_levels]
    if not variants or not problems or not noise_levels:
        raise InvalidParameter("variants, problems and noise levels must be nonempty")
    if reps < 1:
        raise InvalidParameter("reps must be >= 1")

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
    return BenchResults(cells=cells, master_seed=master_seed, variants=variants,
                        problems=[p.name for p in problems],
                        noise_levels=noise_levels, reps=reps)


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


def profile_area(ratios: np.ndarray, n_instances: int, tmax: float = PROFILE_TMAX) -> float:
    """Mean of the profile step curve over [1, tmax] (the ``pi`` score)."""
    if n_instances == 0:
        return 0.0
    rs = np.sort(ratios[np.isfinite(ratios)])
    rs = rs[rs <= tmax]
    count = int(np.sum(rs <= 1.0))
    area = 0.0
    prev = 1.0
    for r in rs[rs > 1.0]:
        area += (r - prev) * count / n_instances
        prev = r
        count += 1
    area += (tmax - prev) * count / n_instances
    return area / tmax


def profile_curve(ratios: np.ndarray, n_instances: int, ts: np.ndarray) -> np.ndarray:
    """Fraction of instances solved within ratio t, for each t."""
    finite = np.sort(ratios[np.isfinite(ratios)])
    return np.searchsorted(finite, ts, side="right") / max(n_instances, 1)


def aggregate(results: BenchResults, tmax: float = PROFILE_TMAX) -> dict:
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
            pi[(v, level)] = profile_area(ratios[v], len(keys), tmax)
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

def series_bound_margins(a: np.ndarray, xi: float, alpha: float) -> np.ndarray:
    """Margins rhs_k - lhs_k of the partial-sum bound, for every k.

    lhs_k = sum_{j<=k} a_j / (xi + b_j)^alpha with b the running sum of the
    nonnegative sequence a; rhs is the closed-form bound (power form for
    alpha != 1, logarithmic form at alpha = 1).
    """
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise InvalidParameter("sequence must be nonnegative")
    if xi <= 0:
        raise InvalidParameter("xi must be positive")
    b = np.cumsum(a)
    lhs = np.cumsum(a / (xi + b) ** alpha)
    if alpha == 1.0:
        rhs = np.log((xi + b) / xi)
    else:
        rhs = ((xi + b) ** (1.0 - alpha) - xi ** (1.0 - alpha)) / (1.0 - alpha)
    return rhs - lhs


def series_corollary_margins(a: np.ndarray, xi: float, alpha: float) -> np.ndarray:
    """Margins of the simplified tail bounds (alpha < 1 and alpha > 1 forms)."""
    a = np.asarray(a, dtype=float)
    b = np.cumsum(a)
    lhs = np.cumsum(a / (xi + b) ** alpha)
    if alpha < 1.0:
        rhs = (xi + b) ** (1.0 - alpha) / (1.0 - alpha)
    elif alpha > 1.0:
        rhs = np.full_like(b, xi ** (1.0 - alpha) / (alpha - 1.0))
    else:
        raise InvalidParameter("corollaries need alpha != 1")
    return rhs - lhs


def series_suite(n_sequences: int = 1000, seed: int = 2024,
                 max_len: int = 200, rtol: float = 1e-12) -> dict:
    """Randomised verification of all four partial-sum inequality forms."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = np.inf
    checks = 0
    for _ in range(n_sequences):
        length = int(rng.integers(1, max_len + 1))
        a = rng.exponential(scale=rng.uniform(0.1, 10.0), size=length)
        if rng.uniform() < 0.1:
            a[rng.uniform(size=length) < 0.3] = 0.0  # exercise zero entries
        for xi in (0.01, 1.0):
            for alpha, fn in (
                (0.3, series_bound_margins),
                (1.7, series_bound_margins),
                (1.0, series_bound_margins),
                (0.3, series_corollary_margins),
                (1.7, series_corollary_margins),
            ):
                margins = fn(a, xi, alpha)
                scale = np.maximum(np.abs(margins), 1.0)
                rel = margins / scale
                worst = min(worst, float(np.min(rel)))
                violations += int(np.sum(rel < -rtol))
                checks += 1
    return {"violations": violations, "worst_margin": worst, "checks": checks}


# ---------------------------------------------------------------------------
# theory constants and bound checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryConstants:
    """Problem and algorithm constants feeding the convergence bounds."""

    n: int
    mu: float
    varsigma: float
    vartheta: float
    tau: float
    kappaB: float
    L: float
    kappa_g: float
    Gamma0: float
    nu: Optional[float] = None  # iteration-power regime only
    kappa_w: Optional[float] = None
    theta: Optional[float] = None
    varsigma_min: Optional[float] = None

    def __post_init__(self):
        for name in ("kappaB", "L", "kappa_g", "Gamma0"):
            val = getattr(self, name)
            if val is None or not np.isfinite(val):
                raise MissingConstants(f"{name} must be finite")

    @property
    def kappa1(self) -> float:
        return self.kappa_g ** (2 * self.mu) * self.kappaB / (
            self.tau * self.varsigma**self.mu * np.sqrt(self.vartheta))

    @property
    def kappa2(self) -> float:
        return self.n * self.kappa1 * (self.kappaB + self.L) / self.vartheta

    @property
    def kappa3(self) -> float:
        mu, vs, vt = self.mu, self.varsigma, self.vartheta
        if not mu < 0.5:
            raise MissingConstants("kappa3 defined for mu < 1/2")
        t2 = (4.0 * self.n * self.kappaB * (self.kappaB + self.L)
              / ((1.0 - 2.0 * mu) * self.tau * vs**mu * vt**1.5)) ** (1.0 / mu)
        t3 = (2.0 ** (2.0 * mu) * vt * (1.0 - 2.0 * mu) * self.Gamma0
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
        vs, vt = self.varsigma, self.vartheta
        denom = 8.0 * self.n * self.kappaB * (self.kappaB + self.L)
        ratio = self.tau * np.sqrt(vs) * vt**1.5 / denom
        wm1 = lambert_wm1(-ratio)
        t2 = 0.5 * np.exp(2.0 * self.Gamma0 * vt / (self.n * (self.kappaB + self.L)))
        t3 = 0.5 * (denom / (self.tau * np.sqrt(vs) * vt**1.5)) ** 2 * wm1**2
        return max(vs, t2, t3)

    @property
    def kappa7(self) -> float:
        mu, vs, vt = self.mu, self.varsigma, self.vartheta
        if not mu > 0.5:
            raise MissingConstants("kappa7 defined for mu > 1/2")
        inner = self.Gamma0 + (self.n * (self.kappaB + self.L) * vs ** (1.0 - 2.0 * mu)
                               / (2.0 * vt * (2.0 * mu - 1.0)))
        return (2.0 ** (1.0 + mu) * self.kappaB / (self.tau * vs**mu * np.sqrt(vt))
                * inner) ** (1.0 / (1.0 - mu))

    @property
    def kappa8(self) -> float:
        mu, vs = self.mu, self.varsigma
        if not mu > 0.5:
            raise MissingConstants("kappa8 defined for mu > 1/2")
        return 2.0 * self.kappa1 * self.Gamma0 + self.kappa2 * vs ** (1.0 - 2.0 * mu) / (
            2.0 * mu - 1.0)

    @property
    def kappa_order(self) -> float:
        """The k-order constant of the regime (kappa3 / kappa6 / kappa7)."""
        if self.mu < 0.5:
            return self.kappa3
        if self.mu == 0.5:
            return self.kappa6
        return self.kappa7

    # -- iteration-power ("ming") regime -----------------------------------

    def _need_ming(self):
        if self.nu is None or self.kappa_w is None or self.varsigma_min is None:
            raise MissingConstants("nu, kappa_w and varsigma_min are required")

    @property
    def theta_default(self) -> float:
        self._need_ming()
        return 0.5 * self.tau * self.varsigma_min

    @property
    def j_theta(self) -> float:
        self._need_ming()
        theta = self.theta if self.theta is not None else self.theta_default
        if not 0.0 < theta < self.tau * self.varsigma_min:
            raise MissingConstants("theta must lie in (0, tau * varsigma_min)")
        base = self.kappaB * (self.kappaB + self.L) / (
            self.varsigma_min * (self.tau * self.varsigma_min - theta))
        return base ** (1.0 / self.nu)

    @property
    def kappa_diamond(self) -> float:
        self._need_ming()
        theta = self.theta if self.theta is not None else self.theta_default
        return (2.0 * self.kappa_w * self.kappaB / theta) * (
            self.Gamma0 + self.n * (self.j_theta + 1.0) * self.kappa_g**2
            * (self.kappaB + self.L) / (2.0 * self.varsigma_min**2))


def constants_from_run(record: RunRecord, L: float, Gamma0: float,
                       theta: Optional[float] = None) -> TheoryConstants:
    """Assemble bound constants for a kept-trace run on a known problem.

    ``kappa_g`` is taken as the largest infinity-norm gradient observed (at
    least 1, and large enough that kappa_g^2 >= g_{i,0}^2 + varsigma).
    ``kappaB`` is 1 for model-free runs, else the largest recorded bound.
    """
    trace = record.trace
    if trace is None or "g" not in trace:
        raise MissingConstants("theory checks need a run with keep_trace enabled")
    strat = record.config.strategy
    gs = trace["g"]
    kappa_g = max(1.0,
                  float(np.max(np.abs(gs))),
                  float(np.sqrt(np.max(gs[0] ** 2) + strat.varsigma)) * (1.0 + 1e-12))
    bnorms = trace.get("bnorm")
    kappaB = max(1.0, float(np.max(bnorms))) if bnorms is not None and len(bnorms) else 1.0
    is_maxg = strat.kind.startswith("maxg")
    return TheoryConstants(
        n=gs.shape[1],
        mu=strat.nu if is_maxg else strat.mu,
        varsigma=strat.varsigma,
        vartheta=strat.vartheta,
        tau=record.config.tau,
        kappaB=kappaB,
        L=L,
        kappa_g=kappa_g,
        Gamma0=Gamma0,
        nu=strat.nu if is_maxg else None,
        kappa_w=kappa_g if is_maxg else None,
        theta=theta,
        varsigma_min=strat.floor if is_maxg else None,
    )


REGIMES = ("mu_lt_half", "mu_eq_half", "mu_gt_half", "ming")


def theory_check(record: RunRecord, constants: TheoryConstants, regime: str) -> dict:
    """Verify the gradient-norm bounds along a recorded noiseless run.

    Checks, at every iterate, the k-order inequality
    min_{j<=k} ||g_j|| * sqrt(k+1) <= kappa_circ and both members of the
    mean-square bound of the matching regime; in the iteration-power regime,
    the windowed bound beyond the computable index j_theta.  Returns a report
    with violation counts (all-zero means the run is consistent with theory).
    """
    if regime not in REGIMES:
        raise InvalidParameter(f"unknown regime {regime!r}")
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
        jlo = int(np.floor(jt)) + 1
        if jlo >= len(gn):
            checks["ming_window"] = {"violations": 0, "min_margin": np.inf,
                                     "vacuous": True, "j_theta": jt}
        else:
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
