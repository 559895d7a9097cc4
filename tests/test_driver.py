import warnings

import numpy as np
import pytest

from offo.driver import (
    RunConfig,
    astr1,
    euclidean_norm,
    fdecrease_margins,
    record_to_json,
    run_variant,
    sdba,
    variant_config,
)
from offo.errors import InvalidParameter
from offo.problems import Problem, diag_quadratic, load_suite
from offo.scaling import ScalingStrategy


def quad1d(x0=1.0):
    return diag_quadratic([1.0], [x0], name="q1d")


class TestAstr1HandTrace:
    def test_first_step_matches_hand_computation(self):
        # f = x^2/2 from x0 = 1 with componentwise sum-of-squares scaling:
        # w0 = sqrt(1.01), s0 = -1/w0, x1 = 1 + s0, g1 = x1
        rec = astr1(quad1d(), variant_config("adagi1", keep_trace=True, max_iter=100))
        tr = rec.trace
        assert tr["w"][0, 0] == np.sqrt(1.01)
        np.testing.assert_allclose(tr["s"][0, 0], -0.9950371902099893, rtol=0, atol=0)
        np.testing.assert_allclose(tr["x"][1, 0], 0.004962809790010736, rtol=0, atol=0)
        np.testing.assert_allclose(tr["g"][1, 0], 0.004962809790010736, rtol=0, atol=0)
        assert rec.status == "converged"

    def test_stationary_start_converges_immediately(self):
        rec = astr1(diag_quadratic([2.0, 1.0], [0.0, 0.0]),
                    variant_config("adagi1"))
        assert rec.status == "converged"
        assert rec.iters == 0
        assert rec.evals == 1

    def test_update_identity_exact(self):
        rec = astr1(quad1d(), variant_config("adagi1", keep_trace=True, max_iter=50))
        xs, ss = rec.trace["x"], rec.trace["s"]
        for k in range(rec.iters):
            np.testing.assert_array_equal(xs[k + 1] - xs[k], ss[k])


class TestDeterminism:
    @pytest.mark.parametrize("tag", ["adagi1", "adag1", "maxgi01", "b1adagi1",
                                     "lmadagi3b", "Eadagi1"])
    def test_bit_identical_reruns(self, tag):
        (p,) = load_suite(["beale"])
        a = run_variant(p, tag, max_iter=300, keep_trace=True)
        b = run_variant(p, tag, max_iter=300, keep_trace=True)
        assert a.status == b.status and a.iters == b.iters
        np.testing.assert_array_equal(a.x_final, b.x_final)
        np.testing.assert_array_equal(a.trace["gnorm"], b.trace["gnorm"])

    def test_noisy_reruns_identical(self):
        (p,) = load_suite(["beale"])
        a = run_variant(p, "adagi1", max_iter=200, noise_level=0.25, noise_seed=7)
        b = run_variant(p, "adagi1", max_iter=200, noise_level=0.25, noise_seed=7)
        assert a.status == b.status
        np.testing.assert_array_equal(a.x_final, b.x_final)
        c = run_variant(p, "adagi1", max_iter=200, noise_level=0.25, noise_seed=8)
        assert not np.array_equal(a.x_final, c.x_final)

    def test_sdba_noisy_determinism(self):
        (p,) = load_suite(["tridia"])
        a = run_variant(p, "sdba", max_iter=500, noise_level=0.25, noise_seed=3)
        b = run_variant(p, "sdba", max_iter=500, noise_level=0.25, noise_seed=3)
        assert a.status == b.status and a.iters == b.iters
        np.testing.assert_array_equal(a.x_final, b.x_final)


class TestOffoPurity:
    def test_value_oracle_never_called_without_instrumentation(self):
        (p,) = load_suite(["woods"])
        rec = run_variant(p, "adagi1", max_iter=500)
        assert rec.neval["value"] == 0
        assert rec.neval["gradient"] == rec.iters + 1 == rec.evals

    def test_instrumentation_changes_no_iterate(self):
        (p,) = load_suite(["beale"])
        bare = run_variant(p, "adagi1", max_iter=300, keep_trace=True)
        instr = run_variant(p, "adagi1", max_iter=300, keep_trace=True, record_f=True)
        np.testing.assert_array_equal(bare.trace["x"], instr.trace["x"])
        assert instr.neval["value"] == instr.iters + 1

    def test_instrumentation_invariance_under_noise(self):
        (p,) = load_suite(["beale"])
        bare = run_variant(p, "adagi1", max_iter=100, keep_trace=True,
                           noise_level=0.1, noise_seed=5)
        instr = run_variant(p, "adagi1", max_iter=100, keep_trace=True,
                            record_f=True, noise_level=0.1, noise_seed=5)
        np.testing.assert_array_equal(bare.trace["x"], instr.trace["x"])


class TestAssertions:
    @pytest.mark.parametrize("tag", ["adagi1", "adag1", "adagi2", "maxg01",
                                     "maxgi01", "b1adagi1", "lmadagi3b", "Eadagi1"])
    def test_zero_contract_violations(self, tag):
        (p,) = load_suite(["rosenbr"])
        rec = run_variant(p, tag, max_iter=400)
        assert rec.counters["sbound_violations"] == 0
        assert rec.counters["gcp_violations"] == 0
        assert rec.counters["wfloor_violations"] == 0


class TestOverflow:
    def test_oracle_overflow_is_a_status_not_an_exception(self):
        p = Problem(
            name="explode", n=1, x0=np.array([800.0]),
            f=lambda x: float(np.exp(x[0])),
            g=lambda x: np.array([np.exp(x[0])]),
        )
        rec = astr1(p, variant_config("adagi1", max_iter=50))
        assert rec.status == "overflow-failure"
        assert rec.iters == 0

    def test_scaling_overflow_detected_for_finite_gradients(self):
        # exp(400) is finite but its square is not; the accumulator overflows
        p = Problem(
            name="bigslope", n=1, x0=np.array([400.0]),
            f=lambda x: float(np.exp(x[0])),
            g=lambda x: np.array([np.exp(x[0])]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = astr1(p, variant_config("adagi1", max_iter=50))
        assert rec.status == "overflow-failure"
        assert np.isfinite(rec.final_gnorm)

    def test_hessian_overflow_with_finite_gradient(self):
        # at x0, exp(a x0) = 1e-10: g = 1e150 is finite, h = a^2 * 1e-10 is not
        a = 1e160
        p = Problem(
            name="steephess", n=1, x0=np.array([np.log(1e-10) / a]),
            f=lambda x: float(np.exp(a * x[0])),
            g=lambda x: np.array([a * np.exp(a * x[0])]),
            h=lambda x: np.array([[a * a * np.exp(a * x[0])]]),
        )
        assert run_variant(p, "adagi1", max_iter=50).status == "converged"
        rec = run_variant(p, "Eadagi1", max_iter=50)
        assert rec.status == "overflow-failure"
        assert rec.iters == 0


class TestEuclideanNorm:
    def test_bit_identical_to_numpy_where_no_overflow(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 12, 20):
            for _ in range(200):
                g = rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150)
                assert euclidean_norm(g) == float(np.linalg.norm(g))

    def test_finite_where_the_dot_product_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert euclidean_norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
            assert euclidean_norm(np.array([np.finfo(float).max])) == np.finfo(float).max
            assert euclidean_norm(np.array([1.0, np.inf])) == np.inf


class TestSdba:
    def test_unit_step_accepted_on_easy_quadratic(self):
        # g0 = 1, trial alpha = 1: f(0) = 0 <= 0.5 - 1e-4 -> accept, x1 = 0
        rec = sdba(quad1d(), variant_config("sdba", keep_trace=True, max_iter=10))
        assert rec.trace["x"][1, 0] == 0.0
        assert rec.status == "converged"
        assert rec.iters == 1

    def test_stationary_start(self):
        rec = sdba(diag_quadratic([1.0], [0.0]), variant_config("sdba"))
        assert rec.status == "converged" and rec.iters == 0

    def test_value_oracle_consumed(self):
        (p,) = load_suite(["beale"])
        rec = run_variant(p, "sdba", max_iter=100)
        assert rec.neval["value"] > 0


class TestFdecrease:
    @pytest.mark.parametrize("tag", ["adagi1", "adag1", "adagi2", "adag2",
                                     "maxg01", "maxgi01"])
    def test_margins_nonnegative_on_quadratic(self, tag):
        p = diag_quadratic(np.linspace(0.1, 1.0, 5), np.ones(5))
        rec = run_variant(p, tag, eps=1e-30, max_iter=2000,
                          keep_trace=True, record_f=True)
        margins = fdecrease_margins(rec, L=1.0)
        assert margins.size > 0
        assert np.min(margins) >= -1e-8

    def test_requires_instrumented_trace(self):
        rec = run_variant(quad1d(), "adagi1", max_iter=10)
        with pytest.raises(InvalidParameter):
            fdecrease_margins(rec, L=1.0)
        # sdba traces have no scaling vectors
        (p,) = load_suite(["beale"])
        rec = run_variant(p, "sdba", max_iter=10, keep_trace=True, record_f=True)
        assert rec.iters > 0
        with pytest.raises(InvalidParameter):
            fdecrease_margins(rec, L=1.0)


class TestConfig:
    def test_invalid_eps(self):
        with pytest.raises(InvalidParameter):
            RunConfig(eps=0.0)

    def test_unknown_variant(self):
        with pytest.raises(InvalidParameter):
            variant_config("nope")

    def test_variant_mapping(self):
        cfg = variant_config("b1adagi1")
        assert cfg.model == "bb" and cfg.norm == "inf"
        assert cfg.strategy.kind == "adagrad-comp"
        cfg = variant_config("maxg01")
        assert cfg.norm == "two" and cfg.strategy.kind == "maxg-agg"
        cfg = variant_config("Eadagi1")
        assert cfg.model == "exact"

    def test_custom_strategy_accepted(self):
        strat = ScalingStrategy("adagrad-comp", mu=0.25)
        rec = astr1(quad1d(), RunConfig(scaling=strat, max_iter=20))
        assert rec.iters > 0


class TestRecordJson:
    def test_roundtrip_and_downsampling(self):
        import json

        rec = run_variant(quad1d(), "adagi1", max_iter=50, keep_trace=True,
                          record_f=True)
        blob = json.loads(json.dumps(record_to_json(rec, max_trace_points=5)))
        assert blob["problem"] == "q1d"
        assert blob["status"] == "converged"
        assert len(blob["trace"]["gnorm"]) <= 7
        assert blob["trace"]["k"][-1] == len(rec.trace["gnorm"]) - 1
