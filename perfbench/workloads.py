"""The three benchmark workloads, written against ``offo``'s public API only.

Each workload builds its inputs from the seed (``inputs``) and then runs one
pass over them (``run``).  A pass reports every solver run it made, so the
runner can hash outcomes, and every operation it attempted, so the runner can
count failures.  The same code serves the untraced passes and the traced one;
``PassContext`` adds the spans around the benchmark's own calls only when a
recorder is attached.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from spans import traced_problem

_now = time.perf_counter

CONTRACT_COUNTERS = ("sbound_violations", "gcp_violations", "wfloor_violations")

#: acceptance thresholds of the theory battery
RETRACE_TOL = 1e-8
DECAY_LAW_TOL = 1e-12
FDECREASE_TOL = 1e-8


@dataclass
class Run:
    """One solver run of a pass: its cell key, outcome and wall time."""

    key: tuple  # (variant or tag, problem, noise level, replication)
    status: str
    evals: int
    x_final: np.ndarray
    seconds: float

    def digest(self) -> bytes:
        variant, problem, level, rep = self.key
        head = f"{variant}|{problem}|{float(level)!r}|{int(rep)}|{self.status}|{int(self.evals)}|"
        x = np.ascontiguousarray(self.x_final, dtype="<f8")
        return hashlib.sha256(head.encode() + x.tobytes()).digest()


@dataclass
class PassContext:
    """What one pass collects; holds the span recorder of a traced pass."""

    offo: object
    rec: object = None
    runs: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    scored: int = 0  # runs scored by the program's success rule
    successes: int = 0
    steps: dict = field(default_factory=dict)  # accepted steps per variant

    def span(self, name):
        return self.rec.span(name) if self.rec is not None else nullcontext()

    def problem(self, problem):
        return traced_problem(problem, self.rec) if self.rec is not None else problem

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def _record(self, key, record, seconds):
        self.runs.append(Run(key, record.status, record.evals,
                             np.array(record.x_final, dtype=float), seconds))
        self.steps[key[0]] = self.steps.get(key[0], 0) + record.iters

    def check_run(self, name: str, record, ok: bool = True, detail: str = "") -> None:
        """One op per run: its contract counters are zero and ``ok`` holds."""
        bad = {c: record.counters[c] for c in CONTRACT_COUNTERS if record.counters[c]}
        if bad:
            detail = f"{detail}; contract counters {bad}" if detail else f"contract counters {bad}"
        self.check(name, ok and not bad, detail)

    def astr1(self, tag: str, problem, config):
        """Run the trust-region driver directly; the run counts as one cell."""
        start = _now()
        with self.span("driver.run"):
            record = self.offo.astr1(problem, config)
        self._record((tag, record.problem, 0.0, 0), record, _now() - start)
        return record

    def matrix(self, variants, problems, levels, reps, seed, max_iter):
        """``run_matrix`` with every cell's record captured for the digest."""
        bench = self.offo.bench
        inner = bench.run_variant
        captured = []

        def capture(problem, tag, **overrides):
            start = _now()
            record = inner(problem, tag, **overrides)
            captured.append((record, _now() - start))
            return record

        bench.run_variant = capture
        try:
            with self.span("bench.run_matrix"):
                results = self.offo.run_matrix(variants, problems, noise_levels=levels,
                                               reps=reps, master_seed=seed,
                                               max_iter=max_iter)
        finally:
            bench.run_variant = inner
        if len(captured) != len(results.cells):
            raise RuntimeError("captured runs do not match the matrix cells")
        for cell, (record, seconds) in zip(results.cells, captured):
            if (cell.problem, cell.status, cell.evals) != (record.problem, record.status,
                                                           record.evals):
                raise RuntimeError(f"cell {cell.variant}/{cell.problem} does not match its run")
            key = (cell.variant, cell.problem, cell.noise_level, cell.rep)
            self._record(key, record, seconds)
            self.check_run("/".join(map(str, key)), record)
        self.scored += len(results.cells)
        self.successes += sum(c.success for c in results.cells)
        with self.span("bench.aggregate"):
            self.offo.aggregate(results)
        return results


class NoisyFirstOrder:
    """Scaled-down acceptance noise matrix: first-order variants and sdba."""

    name = "noisy-firstorder"
    digest_varies_with_seed = True  # the seed keys every noisy cell's stream
    variants = ("sdba", "adagi1", "maxgi01", "b1adagi1")
    levels = (0.0, 0.25)
    reps = 3
    max_iter = 50

    def inputs(self, offo, seed):
        return {"problems": offo.load_suite(), "seed": seed}

    def expected_ops(self, inputs):
        return len(self.variants) * len(inputs["problems"]) * (1 + self.reps)

    def run(self, ctx, inputs):
        problems = [ctx.problem(p) for p in inputs["problems"]]
        ctx.matrix(self.variants, problems, self.levels, self.reps, inputs["seed"],
                   self.max_iter)


class NoiselessModels:
    """Hessian-model variants at noise 0, plus lbfgs3 on the Euclidean ball."""

    name = "noiseless-models"
    digest_varies_with_seed = False
    variants = ("b1adagi1", "lmadagi3b", "Eadagi1")
    max_iter = 50

    def inputs(self, offo, seed):
        problems = offo.load_suite()
        ball = offo.RunConfig(model="lbfgs3", norm="two", max_iter=self.max_iter,
                              variant="lbfgs3-two")
        return {"problems": problems, "seed": seed, "ball": ball}

    def expected_ops(self, inputs):
        return (len(self.variants) + 1) * len(inputs["problems"])

    def run(self, ctx, inputs):
        problems = [ctx.problem(p) for p in inputs["problems"]]
        ctx.matrix(self.variants, problems, (0.0,), 1, inputs["seed"], self.max_iter)
        for problem in problems:
            record = ctx.astr1("lbfgs3-two", problem, inputs["ball"])
            ctx.check_run(f"lbfgs3-two/{problem.name}", record)


class TheoryRetrace:
    """Worst-case retraces, the decrease inequality, bound checks, series lemma."""

    name = "theory-retrace"
    digest_varies_with_seed = False  # the seed reaches series_suite only
    sharp = (("sharp1", {"mu": 0.5, "eta": 0.01, "varsigma": 0.01}, 10_000),
             ("sharp2", {"nu": 1.0 / 9.0, "omega": 4.0 / 9.0 + 0.01}, 50_000))
    fdecrease_tags = ("adagi1", "adag1", "adagi2", "adag2", "maxg01", "maxgi01")
    fdecrease_dims = (1, 5, 20)
    iters = 2000
    bound_regimes = (("adagrad-comp", 0.25, None, "mu_lt_half"),
                     ("adagrad-comp", 0.5, None, "mu_eq_half"),
                     ("adagrad-comp", 0.75, None, "mu_gt_half"),
                     ("maxg-comp", 0.1, 0.1, "ming"))
    n_sequences = 1000

    def inputs(self, offo, seed):
        testbeds = {n: offo.quadratic_testbed(n) for n in self.fdecrease_dims}
        fdecrease = {tag: offo.variant_config(tag, eps=1e-30, max_iter=self.iters,
                                              keep_trace=True, record_f=True)
                     for tag in self.fdecrease_tags}
        bounds = []
        for kind, mu, nu, regime in self.bound_regimes:
            extra = {} if nu is None else {"nu": nu}
            strat = offo.ScalingStrategy(kind=kind, mu=mu, **extra)
            bounds.append((regime, offo.RunConfig(scaling=strat, model="none", norm="inf",
                                                  eps=1e-30, max_iter=self.iters,
                                                  keep_trace=True)))
        return {"testbeds": testbeds, "fdecrease": fdecrease, "bounds": bounds,
                "seed": seed}

    def expected_ops(self, inputs):
        return (len(self.sharp) + len(self.fdecrease_tags) * len(self.fdecrease_dims)
                + len(self.bound_regimes) + 1)

    def run(self, ctx, inputs):
        offo = ctx.offo
        for kind, params, iters in self.sharp:
            with ctx.span("sharpness.build"):
                knots = offo.build_counterexample(kind, params, iters)
                problem = ctx.problem(offo.interpolant_problem(knots))
            config = offo.RunConfig(scaling=knots.strategy, model="none", norm="inf",
                                    eps=1e-30, max_iter=iters, keep_trace=True)
            record = ctx.astr1(kind, problem, config)
            with ctx.span("sharpness.verify"):
                report = offo.verify_sharpness(knots, record)
            ok = report["count"] == iters + 1 and report["max_grad_rel_dev"] <= RETRACE_TOL
            detail = f"{report['count']} knots, rel |g| dev {report['max_grad_rel_dev']:.2e}"
            if kind == "sharp2":
                k = np.arange(1, knots.knot_count + 1)
                law = float(np.max(np.abs(np.abs(knots.g) * k ** params["omega"] - 1.0)))
                ok = ok and law <= DECAY_LAW_TOL
                detail += f", decay-law dev {law:.2e}"
            ctx.check_run(kind, record, ok, detail)

        for n, base in inputs["testbeds"].items():
            problem = ctx.problem(base)
            for tag, config in inputs["fdecrease"].items():
                record = ctx.astr1(f"fdecrease-{tag}", problem, config)
                _score(ctx, record, base)
                with ctx.span("bench.fdecrease"):
                    margins = offo.fdecrease_margins(record, L=1.0)
                bad = int(np.sum(margins < -FDECREASE_TOL))
                ctx.check_run(f"fdecrease {tag} n={n}", record, bad == 0,
                              f"{bad} violations")

        base = inputs["testbeds"][5]
        problem = ctx.problem(base)
        gamma0 = problem.value(problem.x0)
        for regime, config in inputs["bounds"]:
            record = ctx.astr1(f"bounds-{regime}", problem, config)
            _score(ctx, record, base)
            with ctx.span("bench.theory_check"):
                constants = offo.constants_from_run(record, L=1.0, Gamma0=gamma0)
                report = offo.theory_check(record, constants, regime)
            ctx.check_run(f"bounds {regime}", record, report["violations"] == 0,
                          f"{report['violations']} violations")

        with ctx.span("bench.series_suite"):
            series = offo.series_suite(n_sequences=self.n_sequences, seed=inputs["seed"])
        ctx.check("series", series["violations"] == 0,
                  f"{series['violations']} violations in {series['checks']} checks")


def _score(ctx, record, problem) -> None:
    ctx.scored += 1
    ctx.successes += bool(ctx.offo.success(record, problem))


WORKLOADS = {w.name: w for w in (NoisyFirstOrder(), NoiselessModels(), TheoryRetrace())}
