import numpy as np
import pytest

from offo.bench import (
    BenchResults,
    CellResult,
    aggregate,
    comparable_problems,
    profile_area,
    run_matrix,
    success,
    write_results_csv,
    write_stats_csv,
)
from offo.errors import EmptyResults, InvalidParameter, MissingReference
from offo.problems import Problem, diag_quadratic, load_suite


def cell(variant, problem, level=0.0, rep=0, status="converged", evals=10,
         gnorm=1e-9, f=0.0, ok=True):
    return CellResult(variant=variant, problem=problem, noise_level=level,
                      rep=rep, status=status, evals=evals, final_gnorm=gnorm,
                      final_f=f, success=ok, counters={})


def results_of(cells, variants, problems, levels=(0.0,)):
    return BenchResults(cells=cells, variants=list(variants),
                        problems=list(problems), noise_levels=list(levels))


class TestSuccess:
    def _summary(self, gnorm, f):
        return cell("v", "p", gnorm=gnorm, f=f)

    def test_gradient_clause(self):
        p = diag_quadratic([1.0], [1.0])
        assert success(self._summary(5e-7, 123.0), p)

    def test_relative_clause(self):
        p = Problem("t", 1, np.zeros(1), lambda x: 0.0,
                    lambda x: np.zeros(1), f_ref=1.0)
        assert success(self._summary(1e-3, 1.0 + 5e-8), p)
        assert not success(self._summary(1e-3, 1.0 + 5e-7), p)

    def test_absolute_clause_for_tiny_optimum(self):
        p = Problem("t", 1, np.zeros(1), lambda x: 0.0,
                    lambda x: np.zeros(1), f_ref=0.0)
        assert success(self._summary(1e-3, 5e-8), p)
        assert not success(self._summary(1e-3, 5e-7), p)

    def test_missing_reference(self):
        p = Problem("t", 1, np.zeros(1), lambda x: 0.0, lambda x: np.zeros(1))
        with pytest.raises(MissingReference):
            success(self._summary(1e-3, 0.0), p)

    def test_overflowed_run_fails(self):
        p = diag_quadratic([1.0], [1.0])
        assert not success(self._summary(np.inf, np.inf), p)


class TestRunMatrix:
    def test_single_cell(self):
        res = run_matrix(["adagi1"], load_suite(["beale"]), [0.0], reps=1,
                         max_iter=2000)
        assert len(res.cells) == 1
        c = res.cells[0]
        assert c.status == "converged" and c.success

    def test_deterministic_under_master_seed(self):
        probs = load_suite(["beale"])
        a = run_matrix(["adagi1", "sdba"], probs, [0.0, 0.1], reps=2,
                       master_seed=7, max_iter=500)
        b = run_matrix(["adagi1", "sdba"], probs, [0.0, 0.1], reps=2,
                       master_seed=7, max_iter=500)
        for ca, cb in zip(a.cells, b.cells):
            assert ca == cb

    def test_noiseless_levels_collapse_to_one_rep(self):
        res = run_matrix(["adagi1"], load_suite(["beale"]), [0.0], reps=5,
                         max_iter=100)
        assert len(res.cells) == 1
        res = run_matrix(["adagi1"], load_suite(["beale"]), [0.1], reps=5,
                         max_iter=100)
        assert len(res.cells) == 5

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            run_matrix([], load_suite(["beale"]), [0.0])
        with pytest.raises(InvalidParameter):
            run_matrix(["adagi1"], load_suite(["beale"]), [0.0], reps=0)

    @pytest.mark.parametrize("level", [np.nan, np.inf, -0.1])
    def test_level_out_of_range_rejected_before_any_run(self, level):
        with pytest.raises(InvalidParameter, match="noise levels"):
            run_matrix(["adagi1"], load_suite(["beale"]), [0.0, level])


class TestProfileArea:
    def test_all_solved_at_best_cost(self):
        ratios = np.ones(4)
        assert profile_area(ratios, 4) == pytest.approx(49.0 / 50.0)

    def test_all_failed(self):
        ratios = np.full(4, np.inf)
        assert profile_area(ratios, 4) == 0.0

    def test_half_solved(self):
        ratios = np.array([1.0, np.inf])
        assert profile_area(ratios, 2) == pytest.approx(0.5 * 49.0 / 50.0)

    def test_ratio_beyond_window_ignored(self):
        ratios = np.array([1.0, 100.0])
        assert profile_area(ratios, 2) == pytest.approx(0.5 * 49.0 / 50.0)

    def test_interior_breakpoint(self):
        ratios = np.array([1.0, 2.0])
        expect = (0.5 * 1.0 + 1.0 * 48.0) / 50.0
        assert profile_area(ratios, 2) == pytest.approx(expect)


class TestAggregate:
    def test_empty(self):
        with pytest.raises(EmptyResults):
            aggregate(results_of([], ["a"], ["p"]))

    def test_trivial_ordering(self):
        cells = [
            cell("fast", "p1", evals=10), cell("fast", "p2", evals=10),
            cell("slow", "p1", evals=20), cell("slow", "p2", evals=40),
            cell("dead", "p1", status="budget-exhausted", ok=False, gnorm=1.0, f=9.9),
            cell("dead", "p2", status="budget-exhausted", ok=False, gnorm=1.0, f=9.9),
        ]
        stats = aggregate(results_of(cells, ["fast", "slow", "dead"], ["p1", "p2"]))
        assert stats["pi"][("fast", 0.0)] == pytest.approx(0.98)
        assert stats["rho"][("fast", 0.0)] == 100.0
        assert stats["pi"][("dead", 0.0)] == 0.0
        assert stats["rho"][("dead", 0.0)] == 0.0
        assert 0.0 < stats["pi"][("slow", 0.0)] < 0.98

    def test_rho_invariant_under_problem_relabeling(self):
        cells = [cell("a", "p1"), cell("a", "p2", status="budget-exhausted", ok=False),
                 cell("b", "p1"), cell("b", "p2")]
        stats1 = aggregate(results_of(cells, ["a", "b"], ["p1", "p2"]))
        renamed = [CellResult(**{**c.__dict__, "problem": c.problem.replace("p", "q")})
                   for c in cells]
        stats2 = aggregate(results_of(renamed, ["a", "b"], ["q1", "q2"]))
        assert stats1["rho"] == stats2["rho"]
        assert stats1["pi"] == stats2["pi"]

    def test_comparability_filter_excludes_disagreement(self):
        cells = [
            cell("a", "p1", f=0.0), cell("b", "p1", f=7.8),  # distinct minima
            cell("a", "p2", f=1.0), cell("b", "p2", f=1.0 + 1e-6),
        ]
        res = results_of(cells, ["a", "b"], ["p1", "p2"])
        assert comparable_problems(res) == ["p2"]
        stats = aggregate(res)
        assert stats["excluded"] == ["p1"]

    def test_filter_uses_lowest_level(self):
        cells = [
            cell("a", "p1", level=0.0, f=0.0), cell("b", "p1", level=0.0, f=0.0),
            cell("a", "p1", level=0.5, f=0.0), cell("b", "p1", level=0.5, f=7.0),
        ]
        res = results_of(cells, ["a", "b"], ["p1"], levels=(0.0, 0.5))
        assert comparable_problems(res) == ["p1"]

    def test_profile_theta_monotone_and_bounded(self):
        rng = np.random.default_rng(0)
        cells = []
        for v in ("a", "b"):
            for i in range(12):
                ok = rng.uniform() < 0.7
                cells.append(cell(v, f"p{i}", evals=int(rng.integers(5, 500)),
                                  ok=ok, gnorm=1e-9 if ok else 1.0,
                                  status="converged" if ok else "budget-exhausted",
                                  f=0.0))
        stats = aggregate(results_of(cells, ["a", "b"], [f"p{i}" for i in range(12)]))
        for v in ("a", "b"):
            assert 0.0 <= stats["pi"][(v, 0.0)] <= 0.98


class TestCsv:
    def test_results_and_stats_files(self, tmp_path):
        res = run_matrix(["adagi1", "sdba"], load_suite(["beale", "booth"]),
                         [0.0, 0.05], reps=2, max_iter=2000)
        rpath = tmp_path / "results.csv"
        spath = tmp_path / "stats.csv"
        write_results_csv(res, str(rpath))
        stats = write_stats_csv(res, str(spath))
        rlines = rpath.read_text().strip().splitlines()
        assert rlines[0] == "variant,problem,noise_level,rep,status,evals,final_gnorm,final_f,success"
        # 2 variants x 2 problems x (1 + 2) runs
        assert len(rlines) == 1 + 2 * 2 * 3
        slines = spath.read_text().strip().splitlines()
        assert slines[0] == "variant,noise_level,pi,rho"
        assert len(slines) == 1 + 2 * 2
        assert set(stats["pi"]) == {("adagi1", 0.0), ("adagi1", 0.05),
                                    ("sdba", 0.0), ("sdba", 0.05)}
