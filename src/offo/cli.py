"""Command-line harness: single runs, the benchmark matrix, worst-case
constructions, and the theory-check battery."""

from __future__ import annotations

import argparse
import sys

from . import bench, driver, sharpness
from .problems import load_suite
from .driver import RunConfig, astr1, save_record
from .errors import InvalidParameter, OffoError

ALL_VARIANTS = [*driver.VARIANTS, "sdba"]


def _listed(convert):
    """argparse type of a comma-separated list, each entry ``convert``ed."""
    def parse(text):
        return [convert(s.strip()) for s in text.split(",")]
    parse.__name__ = f"comma-separated {convert.__name__}"  # named in argparse's error
    return parse


def _add_solve(sub):
    p = sub.add_parser("solve", help="run one variant on one problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--variant", default="adagi1", choices=ALL_VARIANTS)
    p.add_argument("--model", default=None, choices=list(driver.MODELS),
                   help="override the variant's Hessian model")
    p.add_argument("--norm", default=None, choices=["inf", "2"],
                   help="override the trust-region norm")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=100000)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="write the run record as JSON")


def _cmd_solve(args) -> int:
    problem = load_suite([args.problem])[0]
    # the JSON record reads only gnorm and f, which a run keeps without keep_trace
    overrides = dict(eps=args.eps, max_iter=args.max_iter, tau=args.tau,
                     noise_level=args.noise, noise_seed=args.seed)
    if args.model is not None:
        overrides["model"] = args.model
    if args.norm is not None:
        overrides["norm"] = "two" if args.norm == "2" else "inf"
    record = driver.run_variant(problem, args.variant, **overrides)
    print(f"{problem.name} {args.variant}: status={record.status} "
          f"iters={record.iters} evals={record.evals} "
          f"final_gnorm={record.final_gnorm:.3e}")
    if args.trace:
        save_record(record, args.trace)
        print(f"trace written to {args.trace}")
    return 0


def _add_bench(sub):
    p = sub.add_parser("bench", help="run the experiment matrix")
    p.add_argument("--suite", default="all", type=_listed(str),
                   help="'all' or comma-separated problem names")
    p.add_argument("--variants", default=",".join(ALL_VARIANTS), type=_listed(str))
    p.add_argument("--noise", default="0", type=_listed(float),
                   help="comma-separated relative noise levels")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=100000)
    p.add_argument("--out", default="results.csv")
    p.add_argument("--stats", default="stats.csv")


def _cmd_bench(args) -> int:
    problems = load_suite(None if args.suite == ["all"] else args.suite)
    variants, levels = args.variants, args.noise
    results = bench.run_matrix(variants, problems, levels, reps=args.reps,
                               master_seed=args.seed, eps=args.eps,
                               max_iter=args.max_iter)
    bench.write_results_csv(results, args.out)
    stats = bench.write_stats_csv(results, args.stats)
    print(f"{len(results.cells)} runs -> {args.out}; stats -> {args.stats}")
    for level in levels:
        ranked = sorted(((stats["rho"][(v, level)], stats["pi"][(v, level)], v)
                         for v in variants), reverse=True)
        print(f"noise {level:g}: " + "  ".join(
            f"{v}(pi={p:.2f},rho={r:.1f})" for r, p, v in ranked))
    return 0


def _add_sharpness(sub):
    p = sub.add_parser("sharpness", help="build a slow-convergence counterexample")
    p.add_argument("--kind", required=True, choices=["sharp1", "sharp2"])
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--varsigma", type=float, default=0.01)
    p.add_argument("--nu", type=float, default=1.0 / 9.0, help="sharp2 only, in (0,1)")
    p.add_argument("--omega", type=float, default=4.0 / 9.0 + 0.01)
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--grid", type=int, default=None, help="grid points for the sampled CSV")
    p.add_argument("--shift-f0", type=float, default=None,
                   help="shift values so the first one lands here (display)")
    p.add_argument("--out", default="knots.csv")
    p.add_argument("--grid-out", default=None)
    p.add_argument("--verify", action="store_true",
                   help="also rerun the driver over the interpolant and report deviations")


def _cmd_sharpness(args) -> int:
    if args.grid_out and args.grid is not None and args.grid < 1:  # before any file is written
        raise InvalidParameter(f"the grid needs at least 1 point, got {args.grid}")
    if args.kind == "sharp1":
        params = {"mu": args.mu, "eta": args.eta, "varsigma": args.varsigma}
    else:
        params = {"nu": args.nu, "omega": args.omega}
    knots = sharpness.build_counterexample(args.kind, params, args.iters)
    sharpness.export_knots(knots, args.out)
    print(f"{args.kind}: {knots.knot_count} knots -> {args.out}")
    if args.grid_out:
        sharpness.export_grid(knots, args.grid_out, num=args.grid,
                              shift_f0_to=args.shift_f0)
        print(f"grid -> {args.grid_out}")
    if args.verify:
        problem = sharpness.interpolant_problem(knots)
        config = RunConfig(scaling=knots.strategy, model="none", norm="inf",
                           eps=1e-30, max_iter=args.iters, keep_trace=True)
        record = astr1(problem, config)
        report = sharpness.verify_sharpness(knots, record)
        print(f"verify: knots={report['count']} "
              f"max|x-dev|={report['max_knot_dev']:.3e} "
              f"max rel |g|-dev={report['max_grad_rel_dev']:.3e}")
    return 0


def _add_check(sub):
    p = sub.add_parser("check", help="run the theory-verification battery")
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--out", default=None, help="write the report as JSON")


def _cmd_check(args) -> int:
    checks = bench.theory_battery(args.iters)
    for c in checks:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
              f"{'vacuous, ' if c.get('vacuous') else ''}{c['violations']} violations, "
              f"min margin {c['min_margin']:.3g}, {c['seconds']:.1f}s")
    if args.out:
        driver.write_json({"checks": checks}, args.out)  # a missing margin (inf) is null
        print(f"report -> {args.out}")
    return 0 if all(c["passed"] for c in checks) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="offo",
        description="Objective-function-free trust-region optimizers and their benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_solve(sub)
    _add_bench(sub)
    _add_sharpness(sub)
    _add_check(sub)
    args = parser.parse_args(argv)
    handler = {"solve": _cmd_solve, "bench": _cmd_bench,
               "sharpness": _cmd_sharpness, "check": _cmd_check}[args.command]
    try:
        return handler(args)
    except OffoError as exc:
        # a library error is a usage error: one line and status 2, as argparse reports
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
