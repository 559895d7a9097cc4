import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offo.bench import (
    TheoryConstants,
    constants_from_run,
    quadratic_testbed,
    series_bound_margins,
    series_corollary_margins,
    series_suite,
    theory_battery,
    theory_check,
)
from offo.driver import RunConfig, astr1
from offo.errors import ConfigMismatch, InvalidParameter, MissingConstants
from offo.scaling import ScalingStrategy


class TestSeriesLemma:
    def test_exact_margins_on_simple_sequence(self):
        # single term: a0/(xi+a0) vs log((xi+a0)/xi)
        m = series_bound_margins(np.array([1.0]), 1.0, 1.0)
        assert m[0] == pytest.approx(np.log(2.0) - 0.5)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
    def test_margins_nonnegative_random(self, alpha):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.exponential(size=rng.integers(1, 100))
            m = series_bound_margins(a, 0.01, alpha)
            assert np.all(m >= -1e-12 * np.maximum(np.abs(m), 1.0))

    def test_corollaries(self):
        rng = np.random.default_rng(2)
        a = rng.exponential(size=60)
        assert np.all(series_corollary_margins(a, 1.0, 0.3) >= 0)
        assert np.all(series_corollary_margins(a, 1.0, 1.7) >= 0)
        with pytest.raises(InvalidParameter):
            series_corollary_margins(a, 1.0, 1.0)

    def test_negative_sequence_rejected(self):
        with pytest.raises(InvalidParameter):
            series_bound_margins(np.array([-1.0]), 1.0, 0.5)

    @pytest.mark.parametrize("alpha", [0.3, 1.7])
    @pytest.mark.parametrize("margins", [series_bound_margins, series_corollary_margins])
    def test_both_forms_reject_a_negative_term_and_xi_at_most_zero(self, margins, alpha):
        with pytest.raises(InvalidParameter, match="nonnegative"):
            margins(np.array([1.0, -1.0]), 1.0, alpha)
        for xi in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidParameter, match="xi must be positive"):
                margins(np.ones(3), xi, alpha)

    def test_suite_runs_clean(self):
        out = series_suite(n_sequences=100, seed=5)
        assert out["violations"] == 0
        assert out["worst_margin"] >= -1e-12

    @pytest.mark.parametrize("seed", [2024, 1])
    def test_suite_pinned(self, seed):
        assert series_suite(seed=seed) == {"violations": 0, "worst_margin": 0.0, "checks": 10000}

    @pytest.mark.parametrize("seed, rtol", [(2024, 1e-12), (1, 1e-12), (5, -0.5), (9, -2.0)])
    def test_suite_equals_the_rowwise_reference(self, seed, rtol):
        """A negative ``rtol`` turns most margins into violations, so the
        counts compared are not all zero; 150 rows span two blocks."""
        got = series_suite(n_sequences=150, seed=seed, rtol=rtol)
        assert got == _series_suite_rowwise(150, seed, 200, rtol)
        if rtol < 0:
            assert got["violations"] > 0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_padded_stack_equals_rowwise_calls(self, data):
        """Each row of a zero-padded 2-D stack gets, bit for bit, the margins
        of its own sequence checked alone."""
        lengths = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
        stack = np.zeros((len(lengths), max(lengths) + data.draw(st.integers(0, 5))))
        terms = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))
        seqs = []
        for row, length in zip(stack, lengths):
            row[:length] = data.draw(st.lists(terms, min_size=length, max_size=length))
            seqs.append(row[:length].copy())
        for xi in (0.01, 1.0):
            for alpha in (0.3, 1.0, 1.7):
                forms = [series_bound_margins]
                if alpha != 1.0:
                    forms.append(series_corollary_margins)
                for fn in forms:
                    for row, a in zip(fn(stack, xi, alpha), seqs):
                        assert row[:a.size].tobytes() == fn(a, xi, alpha).tobytes()


def _series_suite_rowwise(n_sequences, seed, max_len, rtol):
    """``series_suite`` as one loop over the sequences, each checked alone."""
    rng = np.random.default_rng(seed)
    violations, worst = 0, np.inf
    for _ in range(n_sequences):
        length = int(rng.integers(1, max_len + 1))
        a = rng.exponential(scale=rng.uniform(0.1, 10.0), size=length)
        if rng.uniform() < 0.1:
            a[rng.uniform(size=length) < 0.3] = 0.0
        for xi in (0.01, 1.0):
            for alpha, fn in ((0.3, series_bound_margins), (1.7, series_bound_margins),
                              (1.0, series_bound_margins), (0.3, series_corollary_margins),
                              (1.7, series_corollary_margins)):
                margins = fn(a, xi, alpha)
                rel = margins / np.maximum(np.abs(margins), 1.0)
                worst = min(worst, float(np.min(rel)))
                violations += int(np.sum(rel < -rtol))
    return {"violations": violations, "worst_margin": worst, "checks": 10 * n_sequences}


def _testbed_run(mu=0.5, kind="adagrad-comp", nu=0.1, varsigma=0.01, tau=0.1,
                 n=3, iters=1500):
    problem = quadratic_testbed(n)
    if kind == "adagrad-comp":
        strat = ScalingStrategy(kind=kind, mu=mu, varsigma=varsigma)
    else:
        strat = ScalingStrategy(kind=kind, mu=mu, nu=nu, varsigma=varsigma)
    config = RunConfig(scaling=strat, model="none", norm="inf", tau=tau,
                       eps=1e-30, max_iter=iters, keep_trace=True)
    record = astr1(problem, config)
    gamma0 = problem.value(problem.x0)
    return record, constants_from_run(record, L=1.0, Gamma0=gamma0)


class TestConstants:
    def test_all_finite_positive(self):
        record, c = _testbed_run(mu=0.25)
        for name in ("kappa1", "kappa2", "kappa3", "kappa4", "kappa5"):
            val = getattr(c, name)
            assert np.isfinite(val) and val > 0
        record, c = _testbed_run(mu=0.5)
        for name in ("kappa1", "kappa2", "kappa4", "kappa6"):
            val = getattr(c, name)
            assert np.isfinite(val) and val > 0
        record, c = _testbed_run(mu=0.75)
        for name in ("kappa7", "kappa8"):
            val = getattr(c, name)
            assert np.isfinite(val) and val > 0

    def test_regime_gating(self):
        _, c = _testbed_run(mu=0.5)
        with pytest.raises(MissingConstants):
            c.kappa3
        with pytest.raises(MissingConstants):
            c.kappa7
        with pytest.raises(MissingConstants):
            c.j_theta  # not an iteration-power run

    def test_ming_constants(self):
        _, c = _testbed_run(kind="maxg-comp", mu=0.1, nu=0.1)
        assert c.varsigma == 0.01 and c.regime == "ming"
        assert np.isfinite(c.kappa_diamond) and c.kappa_diamond > 0
        assert c.j_theta > 1e40  # enormous for the default parameters

    def test_kappa_g_honours_start_floor(self):
        record, c = _testbed_run(mu=0.5)
        g0 = record.trace["g"][0]
        assert c.kappa_g**2 >= np.max(g0**2) + c.varsigma


class TestTheoryCheck:
    @pytest.mark.parametrize("mu,regime", [(0.25, "mu_lt_half"),
                                           (0.5, "mu_eq_half"),
                                           (0.75, "mu_gt_half")])
    def test_adagrad_regimes_pass(self, mu, regime):
        record, constants = _testbed_run(mu=mu)
        report = theory_check(record, constants, regime)
        assert report["violations"] == 0
        assert report["checks"]["k_order"]["min_margin"] >= 0

    def test_ming_regime_vacuous_window_passes(self):
        record, constants = _testbed_run(kind="maxg-comp", mu=0.1, nu=0.1)
        report = theory_check(record, constants, "ming")
        assert report["violations"] == 0
        assert report["checks"]["ming_window"].get("vacuous") is True

    def test_ming_window_start_that_overflows_a_float_is_vacuous(self):
        # (k_B (k_B + L) / ...) ** (1 / nu) overflows for nu = 0.01
        strat = ScalingStrategy("maxg-comp", mu=0.5, nu=0.01, varsigma=0.01)
        record = astr1(quadratic_testbed(5), RunConfig(scaling=strat, max_iter=200,
                                                       keep_trace=True))
        constants = constants_from_run(record, L=1.0, Gamma0=1.0)
        assert constants.j_theta == np.inf
        report = theory_check(record, constants, "ming")
        assert report["violations"] == 0
        assert report["checks"]["ming_window"] == {"violations": 0, "min_margin": np.inf,
                                                   "vacuous": True, "j_theta": np.inf}

    def test_ming_regime_nonvacuous_window(self):
        # varsigma = 1, tau = 1 and a large power make j_theta small, so the
        # windowed bound is actually exercised
        record, constants = _testbed_run(kind="maxg-comp", mu=0.9, nu=0.9,
                                         varsigma=1.0, tau=1.0, iters=800)
        assert constants.j_theta < 10
        report = theory_check(record, constants, "ming")
        assert report["checks"]["ming_window"].get("vacuous") is None
        assert report["violations"] == 0

    @pytest.mark.parametrize("mu", [0.25, 0.75])
    def test_mean_square_bound_of_another_regime_raises(self, mu):
        # the mu = 1/2 bounds do not govern these runs, so no report may pass them
        record, constants = _testbed_run(mu=mu)
        with pytest.raises(ConfigMismatch, match="mu_eq_half"):
            theory_check(record, constants, "mu_eq_half")

    def test_iteration_power_and_accumulator_regimes_do_not_mix(self):
        record, constants = _testbed_run(kind="maxg-comp", mu=0.5, nu=0.5)
        assert constants.regime == "ming"
        with pytest.raises(ConfigMismatch):
            theory_check(record, constants, "mu_eq_half")
        with pytest.raises(MissingConstants):
            constants.kappa_order
        record, constants = _testbed_run(mu=0.5)
        with pytest.raises(ConfigMismatch):
            theory_check(record, constants, "ming")

    def test_unknown_regime(self):
        record, constants = _testbed_run()
        with pytest.raises(InvalidParameter):
            theory_check(record, constants, "nope")

    def test_needs_trace(self):
        problem = quadratic_testbed(2)
        record = astr1(problem, RunConfig(max_iter=5))
        record2 = astr1(problem, RunConfig(max_iter=5, keep_trace=True))
        constants = constants_from_run(record2, L=1.0, Gamma0=1.0)
        record.trace = None
        with pytest.raises(MissingConstants):
            theory_check(record, constants, "mu_eq_half")


def test_constants_require_trace():
    problem = quadratic_testbed(2)
    record = astr1(problem, RunConfig(max_iter=5))
    with pytest.raises(MissingConstants):
        constants_from_run(record, L=1.0, Gamma0=1.0)


def test_theory_constants_validation():
    with pytest.raises(MissingConstants):
        TheoryConstants(n=1, mu=0.5, varsigma=0.01, tau=0.1,
                        kappaB=np.nan, L=1.0, kappa_g=1.0, Gamma0=1.0)


def test_battery_fails_a_vacuous_bound_check():
    # the bounds-ming window starts at j_theta ~ 60.3, past a 50-step run
    short = {c["name"]: c for c in theory_battery(50)}["bounds-ming"]
    assert short["vacuous"] and not short["passed"]
    long = {c["name"]: c for c in theory_battery(400)}["bounds-ming"]
    assert not long["vacuous"] and long["passed"]
    assert long["violations"] == 0 and np.isfinite(long["min_margin"])
