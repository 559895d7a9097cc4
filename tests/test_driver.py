import warnings
import weakref

import numpy as np
import pytest

from offo import driver
from offo import step as step_module
from offo.driver import (
    ARMIJO_MAX_BACKTRACKS,
    MODELS,
    TRACE_POINTS,
    VARIANTS,
    RunConfig,
    astr1,
    euclidean_norm,
    fdecrease_margins,
    record_to_json,
    run_variant,
    save_record,
    sdba,
    variant_config,
)
from offo.bench import quadratic_testbed
from offo.errors import InvalidParameter
from offo.problems import Problem, diag_quadratic, load_suite
from offo.model import KINDS as MODEL_KINDS, HessianModel
from offo.scaling import KINDS, ScalingStrategy
from offo.step import NORMS


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

    @pytest.mark.parametrize("record_f", [False, True])
    def test_kept_trace_has_exactly_its_documented_columns(self, record_f):
        rec = astr1(quad1d(), variant_config("adagi1", keep_trace=True, record_f=record_f,
                                             max_iter=5))
        keys = {"gnorm", "x", "g", "w", "s", "bnorm"} | ({"f"} if record_f else set())
        assert set(rec.trace) == keys
        assert len(rec.trace["w"]) == len(rec.trace["s"]) == len(rec.trace["bnorm"]) == rec.iters


def expsq():
    """exp(x.x) overflows at x0, so a run ends before any gradient norm exists."""
    return Problem(name="expsq", n=2, x0=np.array([200.0, -200.0]),
                   f=lambda x: float(np.exp(x @ x)), g=lambda x: 2.0 * x * np.exp(x @ x))


class TestKeptTrace:
    @pytest.mark.parametrize("tag, w_width", [("adagi1", 2), ("sdba", 0)])
    @pytest.mark.parametrize("overflows_at_x0", [False, True])
    def test_columns_are_c_contiguous_float64_rows_of_full_width(self, tag, w_width,
                                                                 overflows_at_x0):
        problem = expsq() if overflows_at_x0 else diag_quadratic([1.0, 4.0], [1.0, -1.0])
        rec = run_variant(problem, tag, max_iter=20, keep_trace=True, record_f=True)
        steps = rec.iters
        iterates = 0 if overflows_at_x0 else steps + 1
        assert (rec.status == "overflow-failure") == (steps == 0) == overflows_at_x0
        assert {k: v.shape for k, v in rec.trace.items()} == {
            "gnorm": (iterates,), "f": (iterates,), "x": (iterates, 2), "g": (iterates, 2),
            "w": (steps, w_width), "s": (steps, 2), "bnorm": (steps,)}
        for v in rec.trace.values():
            assert v.dtype == np.float64 and v.flags.c_contiguous

    def test_rows_are_copies_and_no_array_of_the_loop_outlives_its_iteration(self, monkeypatch):
        # the gradient oracle overwrites and returns one buffer at every query
        buf = np.empty(2)
        made = []  # (iteration, weak reference) of every x, w and s of the loop
        stale = []  # at each query, how many arrays of two or more iterations back are alive

        def gradient(x):
            k = len(stale)
            stale.append(sum(ref() is not None for j, ref in made if j < k - 1))
            made.append((k, weakref.ref(x)))
            return np.multiply(x, [1.0, 4.0], out=buf)

        def recorded(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                made.append((len(stale) - 1, weakref.ref(out)))
                return out
            return wrapper

        monkeypatch.setattr(driver, "update_scaling", recorded(driver.update_scaling))
        monkeypatch.setattr(driver, "solve_tr_step", recorded(driver.solve_tr_step))
        p = Problem(name="sharedbuf", n=2, x0=np.array([1.0, -1.0]),
                    f=lambda x: 0.5 * (x[0] ** 2 + 4.0 * x[1] ** 2), g=gradient)
        rec = astr1(p, variant_config("adagi1", eps=1e-30, keep_trace=True, max_iter=10))
        tr = rec.trace
        assert rec.iters == 10 and len(made) == 11 + 2 * 10
        assert stale == [0] * 11
        np.testing.assert_array_equal(tr["g"], tr["x"] * [1.0, 4.0])
        assert len(set(tr["g"][:, 0])) == rec.iters + 1


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

    @pytest.mark.parametrize("tag, per_step", [("adagi1", {"zero": 1}),
                                               ("b1adagi1", {"zero": 1, "model": 3}),
                                               ("lmadagi3b", {"zero": 1, "model": 3}),
                                               ("Eadagi1", {"model": 3})])
    def test_model_value_calls_per_step(self, monkeypatch, tag, per_step):
        # the Cauchy value is taken once, in cauchy_point, and shared by the
        # solver's fallback test and the driver's Cauchy-fraction check
        events = []
        model_value = step_module.model_value

        def cauchy(g, model, tr):
            events.append("zero" if model.is_zero else "model")
            return step_module.cauchy_point(g, model, tr)

        def counting(g, model, s):
            events.append("value")
            return model_value(g, model, s)

        monkeypatch.setattr(driver, "cauchy_point", cauchy)
        monkeypatch.setattr(driver, "model_value", counting)
        monkeypatch.setattr(step_module, "model_value", counting)
        (p,) = load_suite(["beale"])
        rec = run_variant(p, tag, max_iter=30)
        steps = []  # [model kind, model_value calls] per step
        for event in events:
            if event == "value":
                steps[-1][1] += 1
            else:
                steps.append([event, 0])
        assert len(steps) == rec.iters == 30
        calls = {}
        for kind, count in steps:
            calls.setdefault(kind, set()).add(count)
        assert calls == {kind: {count} for kind, count in per_step.items()}


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

    def test_hessian_norm_overflow_with_finite_hessian(self):
        # every entry is finite, but the symmetric part's norm is not
        h = np.array([[1e308, 1.5e308], [1.5e308, 1e308]])
        p = Problem(
            name="bighess", n=2, x0=np.array([1.0, 1.0]),
            f=lambda x: float(0.5 * x @ x), g=lambda x: x.copy(), h=lambda x: h,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = astr1(p, RunConfig(scaling=ScalingStrategy("adagrad-comp"), model="exact",
                                     max_iter=3))
        assert rec.status == "overflow-failure"
        assert rec.iters == 0

    def test_secant_pair_overflow_with_finite_gradients(self):
        # g flips between +-0.9e308: both are finite, their difference is not
        p = Problem(
            name="flip", n=1, x0=np.array([0.6]),
            f=lambda x: float(1.8e306 * np.log(np.cosh(50.0 * x[0]))),
            g=lambda x: np.array([0.9e308 * np.tanh(50.0 * x[0])]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = astr1(p, RunConfig(scaling=ScalingStrategy("maxg-comp"), model="bb", max_iter=5))
        assert rec.status == "overflow-failure"
        assert rec.iters == 1

    def test_gradient_norm_is_numpys_wherever_the_dot_product_is_finite(self):
        # n * max|g_i|^2 >= DBL_MAX / 2, where euclidean_norm rescales, while
        # g.g = 1.62e308 is still finite
        p = Problem(name="bigflat", n=2, x0=np.zeros(2), f=lambda x: 0.0,
                    g=lambda x: np.array([0.9e154, -0.9e154]))
        rec = astr1(p, RunConfig(scaling=ScalingStrategy("adagrad-comp"), max_iter=2,
                                 keep_trace=True))
        assert rec.status == "budget-exhausted" and rec.iters == 2
        for g, gnorm in zip(rec.trace["g"], rec.trace["gnorm"]):
            assert gnorm == float(np.linalg.norm(g))

    def test_maxg_agg_steps_where_the_gradient_norm_is_finite(self):
        # ||(exp(400), 0)||_2 is finite although its square is not
        p = Problem(
            name="bigslope2", n=2, x0=np.array([400.0, 0.0]),
            f=lambda x: float(np.exp(x[0]) + 0.5 * x[1] ** 2),
            g=lambda x: np.array([np.exp(x[0]), x[1]]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run_variant(p, "maxg01", max_iter=5)
        assert rec.status == "budget-exhausted"
        assert rec.iters == 5
        assert np.isfinite(rec.final_gnorm)


class TestErrstatePerRun:
    """A run enters np.errstate a fixed number of times, not once per iteration."""

    @pytest.mark.parametrize("tag, problem", [
        ("adagi1", quadratic_testbed(5, x0_scale=100.0)),
        ("sdba", load_suite(["rosenbr"])[0]),
        ("Eadagi1", load_suite(["cube"])[0]),
    ], ids=["adagi1", "sdba", "Eadagi1"])
    def test_entries_do_not_grow_with_iterations(self, monkeypatch, tag, problem):
        entries = []

        class CountingErrstate(np.errstate):
            def __enter__(self):
                entries.append(self)
                return super().__enter__()

        monkeypatch.setattr(np, "errstate", CountingErrstate)
        rec = run_variant(problem, tag, max_iter=2000)
        assert rec.iters == 2000
        assert len(entries) <= 2


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

    def test_uphill_gradient_stalls_the_search(self):
        # g = -1e20 x points uphill on f = x^2/2, and steeply enough that even
        # the shortest trial moves off x0: no trial passes the Armijo test
        p = Problem(name="uphill", n=1, x0=np.array([1.0]),
                    f=lambda x: float(0.5 * x @ x), g=lambda x: -1e20 * x)
        rec = sdba(p, variant_config("sdba", max_iter=10))
        assert rec.status == "stalled"
        assert rec.iters == 0
        assert rec.neval["value"] == 1 + 1 + ARMIJO_MAX_BACKTRACKS

    def test_null_step_stalls_the_search(self):
        # g = -x points uphill on f = x^2/2: the first trial to pass the Armijo
        # test is alpha = 2^-53, below the rounding of x0 = 1, so x + s == x
        p = Problem(name="uphill-mild", n=1, x0=np.array([1.0]),
                    f=lambda x: float(0.5 * x @ x), g=lambda x: -x)
        rec = sdba(p, variant_config("sdba", max_iter=10))
        assert rec.status == "stalled"
        assert rec.iters == 0
        np.testing.assert_array_equal(rec.x_final, p.x0)
        assert rec.neval["value"] == 1 + 54

    def test_oracle_overflow_at_x0(self):
        p = Problem(name="explode", n=1, x0=np.array([800.0]),
                    f=lambda x: float(np.exp(x[0])), g=lambda x: np.array([np.exp(x[0])]))
        rec = sdba(p, variant_config("sdba", max_iter=10))
        assert rec.status == "overflow-failure"
        assert rec.iters == 0

    def test_overflowing_trial_value_is_rejected(self):
        # f = exp(x^2) from x0 = 3: the unit trial x0 - g(x0) ~ -4.9e4 overflows
        p = Problem(name="steepwell", n=1, x0=np.array([3.0]),
                    f=lambda x: float(np.exp(x[0] ** 2)),
                    g=lambda x: np.array([2.0 * x[0] * np.exp(x[0] ** 2)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = sdba(p, variant_config("sdba", max_iter=1, keep_trace=True))
        assert rec.status == "budget-exhausted"
        assert rec.iters == 1
        assert rec.neval["value"] > 3  # several trials were backtracked
        s = rec.trace["s"][0, 0]
        assert -rec.trace["g"][0, 0] < s < 0.0
        assert rec.trace["f"][1] < rec.trace["f"][0]


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

    @pytest.mark.parametrize("field, value", [
        ("eps", np.nan), ("noise_level", np.nan), ("noise_level", np.inf),
        ("noise_level", -0.1), ("tau", 0.0), ("tau", -0.5), ("tau", 1.5), ("tau", np.nan),
        ("noise_seed", -1), ("noise_seed", 2**128),
    ])
    def test_out_of_range_value_rejected_when_built(self, field, value):
        with pytest.raises(InvalidParameter, match=field.split("_")[0]):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
    def test_non_integer_noise_seed_rejected_when_built(self, seed):
        # a run would otherwise use int(seed) while its record keeps the seed as given
        with pytest.raises(InvalidParameter, match="noise seed must be an integer"):
            RunConfig(noise_seed=seed)

    @pytest.mark.parametrize("max_iter", [1e4, 10.0, "10"])
    def test_non_integer_max_iter_rejected_when_built(self, max_iter):
        # not left to fail as a bare TypeError in range() once the run starts
        with pytest.raises(InvalidParameter, match="max_iter must be an integer"):
            RunConfig(max_iter=max_iter)

    @pytest.mark.parametrize("override", [{"model": "zero"}, {"model": "lbfgs"},
                                          {"model": "nope"}, {"norm": "2"},
                                          {"norm": "euclid"}])
    def test_unknown_model_or_norm_rejected_when_built(self, override):
        with pytest.raises(InvalidParameter, match="unknown"):
            RunConfig(**override)

    def test_every_model_name_maps_to_a_model_kind(self):
        assert list(MODELS) == list(dict.fromkeys(m for _, m, _ in VARIANTS.values()))
        assert sorted(MODELS.values()) == sorted(MODEL_KINDS)
        for kind in MODELS.values():
            assert HessianModel(kind, 2).kind == kind

    def test_unknown_variant(self):
        with pytest.raises(InvalidParameter):
            variant_config("nope")

    def test_variant_mapping(self):
        cfg = variant_config("b1adagi1")
        assert cfg.model == "bb" and cfg.norm == "inf"
        assert cfg.scaling.kind == "adagrad-comp"
        cfg = variant_config("maxg01")
        assert cfg.norm == "two" and cfg.scaling.kind == "maxg-agg"
        cfg = variant_config("Eadagi1")
        assert cfg.model == "exact"
        cfg = variant_config("adagi1", model="bb", norm="two")
        assert cfg.model == "bb" and cfg.norm == "two" and cfg.variant == "adagi1"

    @pytest.mark.parametrize("override", [{"model": "exact"}, {"norm": "two"},
                                          {"model": "none", "norm": "inf"}])
    def test_sdba_rejects_model_and_norm(self, override):
        with pytest.raises(InvalidParameter, match="sdba"):
            variant_config("sdba", **override)
        assert variant_config("sdba", max_iter=5).variant == "sdba"

    @pytest.mark.parametrize("tag", VARIANTS)
    def test_every_variant_row_builds_a_config(self, tag):
        kind, model, norm = VARIANTS[tag]
        assert kind in KINDS and norm in NORMS
        HessianModel(MODELS[model], 3)  # raises for a kind it does not know
        cfg = variant_config(tag)
        assert (cfg.scaling, cfg.model, cfg.norm, cfg.variant) == (
            ScalingStrategy(kind), model, norm, tag)

    @pytest.mark.parametrize("scaling", ["adagi1", "adagrad-comp", None])
    def test_scaling_must_be_a_strategy(self, scaling):
        with pytest.raises(InvalidParameter, match="ScalingStrategy"):
            RunConfig(scaling=scaling)

    def test_default_scaling_is_componentwise_adagrad(self):
        assert RunConfig().scaling == ScalingStrategy("adagrad-comp")

    def test_custom_strategy_accepted(self):
        strat = ScalingStrategy("adagrad-comp", mu=0.25)
        rec = astr1(quad1d(), RunConfig(scaling=strat, max_iter=20))
        assert rec.iters > 0


class TestRecordJson:
    def test_roundtrip_and_downsampling(self):
        import json

        # a flat curvature makes the run longer than TRACE_POINTS
        problem = diag_quadratic([1e-3], [10.0], name="q1d")
        rec = run_variant(problem, "adagi1", max_iter=2000, keep_trace=True, record_f=True)
        rows = len(rec.trace["gnorm"])
        assert rows > TRACE_POINTS
        blob = json.loads(json.dumps(record_to_json(rec)))
        assert blob["problem"] == "q1d"
        assert blob["status"] == "converged"
        assert len(blob["trace"]["gnorm"]) <= TRACE_POINTS + 1
        assert blob["trace"]["k"][-1] == rows - 1
        assert blob["trace"]["f"] == rec.trace["f"][blob["trace"]["k"]].tolist()

    def test_saved_record_is_strict_json(self, tmp_path):
        import json

        rec = astr1(expsq(), RunConfig(max_iter=10, keep_trace=True, record_f=True))
        assert rec.status == "overflow-failure" and np.isnan(rec.final_gnorm)
        save_record(rec, tmp_path / "run.json")

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        blob = json.loads((tmp_path / "run.json").read_text(), parse_constant=reject)
        assert blob["final_gnorm"] is None
        assert blob["x_final"] == [200.0, -200.0]
