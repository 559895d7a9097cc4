import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import offo
from offo import bench, driver
from offo.cli import main
from offo.problems import load_suite


def assert_one_line_error(capsys, message):
    """A library error reaches the user as one argparse-style line on stderr,
    with no traceback and nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("offo: error: ")
    assert captured.err.count("\n") == 1 and message in captured.err
    assert "Traceback" not in captured.err


class TestSolve:
    def test_unknown_problem_is_a_usage_error(self, capsys):
        rc = main(["solve", "--problem", "nosuch"])
        assert rc == 2
        assert_one_line_error(capsys, "nosuch")

    def test_library_errors_exit_with_status_2(self):
        # the installed entry point hands main's return value to sys.exit
        src = str(Path(offo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", "import sys; from offo.cli import main; "
                               "sys.exit(main())", "solve", "--problem", "nosuch"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert proc.stderr.startswith("offo: error: ") and proc.stderr.count("\n") == 1

    def test_basic_run(self, capsys):
        rc = main(["solve", "--problem", "beale", "--variant", "adagi1",
                   "--max-iter", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "beale adagi1" in out and "status=converged" in out

    def test_trace_output(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        rc = main(["solve", "--problem", "booth", "--variant", "adagi1",
                   "--max-iter", "2000", "--trace", str(path)])
        assert rc == 0
        blob = json.loads(path.read_text())
        assert blob["problem"] == "booth"
        assert blob["status"] == "converged"
        assert blob["trace"]["gnorm"]

    @pytest.mark.parametrize("variant", ["adagi1", "sdba", "lmadagi3b"])
    def test_trace_file_is_the_json_of_a_kept_trace_run(self, tmp_path, capsys, variant):
        path, kept = tmp_path / "run.json", tmp_path / "kept.json"
        rc = main(["solve", "--problem", "rosenbr", "--variant", variant,
                   "--max-iter", "300", "--noise", "0.05", "--seed", "3", "--trace", str(path)])
        assert rc == 0
        record = driver.run_variant(load_suite(["rosenbr"])[0], variant, max_iter=300,
                                    noise_level=0.05, noise_seed=3, keep_trace=True)
        driver.write_json(driver.record_to_json(record), kept)
        assert path.read_bytes() == kept.read_bytes()

    def test_overrides(self, capsys):
        rc = main(["solve", "--problem", "booth", "--variant", "adagi1",
                   "--model", "bb", "--norm", "2", "--max-iter", "2000"])
        assert rc == 0

    def test_sdba_rejects_model_and_norm(self, capsys):
        rc = main(["solve", "--problem", "booth", "--variant", "sdba",
                   "--model", "exact", "--norm", "2", "--max-iter", "50"])
        assert rc == 2
        assert_one_line_error(capsys, "sdba has no model or norm")

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_outside_the_philox_key_is_a_library_error(self, capsys, seed):
        rc = main(["solve", "--problem", "beale", "--noise", "0.1", "--seed", seed,
                   "--max-iter", "10"])
        assert rc == 2
        assert_one_line_error(capsys, f"noise seed must lie in [0, 2**128), got {seed}")

    def test_noisy_run(self, capsys):
        rc = main(["solve", "--problem", "booth", "--variant", "sdba",
                   "--noise", "0.05", "--seed", "3", "--max-iter", "500"])
        assert rc == 0


class TestBench:
    def test_csv_outputs(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        stats = tmp_path / "stats.csv"
        rc = main(["bench", "--suite", "beale,booth", "--variants",
                   "adagi1,sdba", "--noise", "0,0.05", "--reps", "2",
                   "--max-iter", "2000", "--out", str(out), "--stats", str(stats)])
        assert rc == 0
        assert out.exists() and stats.exists()
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2 * 3

    @pytest.mark.parametrize("noise", ["0,abc", "0,", "x"])
    def test_bad_noise_list_is_a_usage_error(self, tmp_path, capsys, noise):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", "beale", "--noise", noise,
                  "--out", str(tmp_path / "r.csv"), "--stats", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --noise: invalid comma-separated float value" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_negative_seed_is_a_library_error(self, tmp_path, capsys):
        rc = main(["bench", "--suite", "beale", "--variants", "adagi1", "--seed", "-1",
                   "--max-iter", "10", "--out", str(tmp_path / "r.csv"),
                   "--stats", str(tmp_path / "s.csv")])
        assert rc == 2
        assert_one_line_error(capsys, "master seed must be >= 0, got -1")

    def test_nonfinite_noise_level_is_a_library_error(self, tmp_path, capsys):
        rc = main(["bench", "--suite", "beale", "--variants", "adagi1", "--noise", "0,nan",
                   "--max-iter", "10", "--out", str(tmp_path / "r.csv"),
                   "--stats", str(tmp_path / "s.csv")])
        assert rc == 2
        assert_one_line_error(capsys, "noise level must be finite")


class TestSharpness:
    def test_knots_and_verify(self, tmp_path, capsys):
        path = tmp_path / "knots.csv"
        rc = main(["sharpness", "--kind", "sharp1", "--iters", "200",
                   "--out", str(path), "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max|x-dev|" in out
        assert path.exists()

    def test_sharp2_grid(self, tmp_path):
        knots = tmp_path / "knots.csv"
        grid = tmp_path / "grid.csv"
        rc = main(["sharpness", "--kind", "sharp2", "--iters", "150",
                   "--out", str(knots), "--grid-out", str(grid),
                   "--grid", "50", "--shift-f0", "100"])
        assert rc == 0
        assert grid.exists()

    def test_negative_grid_size_is_a_library_error(self, tmp_path, capsys):
        rc = main(["sharpness", "--kind", "sharp1", "--iters", "10", "--grid", "-1",
                   "--out", str(tmp_path / "knots.csv"), "--grid-out", str(tmp_path / "g.csv")])
        assert rc == 2
        assert_one_line_error(capsys, "the grid needs at least 1 point, got -1")
        assert not (tmp_path / "knots.csv").exists() and not (tmp_path / "g.csv").exists()

    def test_sharp2_rejects_nu_one_by_name(self, tmp_path, capsys):
        rc = main(["sharpness", "--kind", "sharp2", "--nu", "1", "--iters", "10",
                   "--out", str(tmp_path / "knots.csv")])
        assert rc == 2
        assert_one_line_error(capsys, "nu must lie in (0,1), got 1.0")
        assert not (tmp_path / "knots.csv").exists()


class TestCheck:
    def test_battery_passes_and_writes_report(self, tmp_path, capsys, monkeypatch):
        battery, ran = bench.theory_battery, []

        def recorded(iters):
            ran.append(battery(iters))
            return ran[-1]

        monkeypatch.setattr(bench, "theory_battery", recorded)
        path = tmp_path / "report.json"
        rc = main(["check", "--iters", "400", "--out", str(path)])
        assert rc == 0
        blob = json.loads(path.read_text())
        assert all(c["passed"] for c in blob["checks"])
        names = [c["name"] for c in blob["checks"]]
        assert names == [c["name"] for c in ran[0]]
        assert "summation-lemma-suite" in names
        assert "lambert-wm1-residual" in names

    def test_report_is_strict_json(self, tmp_path, capsys):
        # at 50 iterations the bounds-ming window starts past the run
        path = tmp_path / "report.json"
        assert main(["check", "--iters", "50", "--out", str(path)]) == 2

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        blob = json.loads(path.read_text(), parse_constant=reject)
        ming = {c["name"]: c for c in blob["checks"]}["bounds-ming"]
        assert ming["vacuous"] and not ming["passed"]
        assert ming["min_margin"] is None

    def test_a_failing_check_fails_the_command(self, capsys, monkeypatch):
        failing = {"name": "broken", "violations": 3, "min_margin": -0.5,
                   "passed": False, "seconds": 0.0}
        monkeypatch.setattr(bench, "theory_battery", lambda iters: [failing])
        assert main(["check", "--iters", "10"]) == 2
        assert "[FAIL] broken" in capsys.readouterr().out

    def test_a_vacuous_check_says_so(self, capsys, monkeypatch):
        vacuous = {"name": "bounds-empty", "violations": 0, "min_margin": float("inf"),
                   "passed": False, "vacuous": True, "seconds": 0.0}
        monkeypatch.setattr(bench, "theory_battery", lambda iters: [vacuous])
        assert main(["check", "--iters", "10"]) == 2
        assert "[FAIL] bounds-empty: vacuous, 0 violations" in capsys.readouterr().out
