import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from offo.driver import RunConfig, astr1, run_variant
from offo.errors import ConfigMismatch, InvalidParameter, OutOfDomain
from offo.scaling import ScalingStrategy, init_scaling, update_scaling
from offo.sharpness import (
    Interpolant,
    KnotSequence,
    _replay,
    build_counterexample,
    export_grid,
    export_knots,
    interpolant_problem,
    lambert_wm1,
    verify_sharpness,
    zeta,
)


class TestZeta:
    def test_basel_value(self):
        assert abs(zeta(2.0) - np.pi**2 / 6.0) <= 1e-12

    @pytest.mark.parametrize("s", [1.02, 1.1, 1.5, 2.0, 3.0, 4.5, 10.0])
    def test_matches_reference(self, s):
        assert abs(zeta(s) - special.zeta(s)) <= 1e-12 * abs(special.zeta(s))

    def test_domain(self):
        with pytest.raises(InvalidParameter):
            zeta(1.0)


class TestLambertWm1:
    def test_branch_point_exact(self):
        assert lambert_wm1(-1.0 / np.e) == -1.0

    def test_reference_value(self):
        w = lambert_wm1(-0.1)
        assert abs(w - (-3.5771520639572972)) <= 1e-12
        assert abs(w * np.exp(w) + 0.1) <= 1e-13

    def test_explicit_bound(self):
        # |W_-1(-e^(-x-1))| <= 1 + sqrt(2x) + x at x = 1
        w = lambert_wm1(-np.exp(-2.0))
        assert abs(w - (-3.1461932206205825)) <= 1e-12
        assert abs(w) <= 1.0 + np.sqrt(2.0) + 1.0

    @pytest.mark.parametrize("y", [-1e-12, -1e-6, -0.01, -0.05, -0.2, -0.3,
                                   -1 / np.e + 1e-9, -1 / np.e + 1e-13])
    def test_residual_and_branch(self, y):
        w = lambert_wm1(y)
        assert w <= -1.0
        assert abs(w * np.exp(w) - y) <= 1e-12 * abs(y)

    @pytest.mark.parametrize("y", [-0.05, -0.2, -0.36])
    def test_matches_scipy_branch(self, y):
        assert abs(lambert_wm1(y) - special.lambertw(y, k=-1).real) <= 1e-12

    @pytest.mark.parametrize("y", [0.0, 0.5, -0.4, -1.0, np.nan])
    def test_domain_errors(self, y):
        with pytest.raises(OutOfDomain):
            lambert_wm1(y)


class TestBuildSharp1:
    def test_first_entries(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01,
                                                "varsigma": 0.01}, 50)
        assert knots.g[0] == -2.0
        assert knots.g[1] == -1.0
        np.testing.assert_allclose(knots.s[0], 2.0 / np.sqrt(4.01), rtol=0)
        np.testing.assert_allclose(knots.s[0], 0.9987523388778446, rtol=1e-14)
        assert knots.f[0] == 4.0 / np.sqrt(4.01) + zeta(1.02)

    def test_gradient_decay_exponent(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01}, 200)
        k = np.arange(1, 201)
        np.testing.assert_allclose(np.abs(knots.g[1:]), k ** (-0.51), rtol=1e-15)

    def test_values_stay_in_band(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01}, 3000)
        assert np.all(knots.f >= 0.0)
        assert np.all(knots.f <= knots.f[0])
        assert np.all(np.diff(knots.f) < 0.0)

    def test_hermite_admissibility(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01}, 3000)
        kf = knots.kappa_f
        assert kf == max(1.5 * (0.01 + 5.0) ** 0.5, knots.f[0], 2.0)
        df = np.abs(np.diff(knots.f) - knots.g[:-1] * knots.s)
        assert np.all(df <= kf * knots.s**2 + 1e-15)
        dg = np.abs(np.diff(knots.g))
        assert np.all(dg <= kf * np.abs(knots.s) * (1 + 1e-12))

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            build_counterexample("sharp1", {"mu": 1.0, "eta": 0.01}, 10)
        with pytest.raises(InvalidParameter):
            build_counterexample("sharp1", {"mu": 0.5, "eta": 0.0}, 10)
        with pytest.raises(InvalidParameter):
            build_counterexample("sharp1", {}, 1)
        with pytest.raises(InvalidParameter):
            build_counterexample("sharp3", {}, 10)


class TestBuildSharp2:
    def test_sequences(self):
        nu, omega = 1.0 / 9.0, 4.0 / 9.0 + 0.01
        knots = build_counterexample("sharp2", {"nu": nu, "omega": omega}, 100)
        assert knots.k_start == 1
        k = np.arange(1, 102)
        np.testing.assert_allclose(np.abs(knots.g), k ** (-omega), rtol=1e-15)
        np.testing.assert_allclose(knots.s, k[:-1] ** (-(omega + nu)), rtol=1e-13)
        assert knots.f[0] == zeta(2 * omega + nu)
        assert knots.kappa_f == omega

    def test_values_positive_and_bounded(self):
        nu, omega = 1.0 / 9.0, 4.0 / 9.0 + 0.01
        knots = build_counterexample("sharp2", {"nu": nu, "omega": omega}, 5000)
        assert np.all(knots.f > 0.0)
        assert np.all(knots.f <= zeta(2 * omega + nu))

    def test_hermite_admissibility_with_kappa_omega(self):
        nu, omega = 1.0 / 9.0, 4.0 / 9.0 + 0.01
        knots = build_counterexample("sharp2", {"nu": nu, "omega": omega}, 2000)
        dg = np.abs(np.diff(knots.g))
        assert np.all(dg <= omega * knots.s * (1 + 1e-12))

    def test_threshold_rejected(self):
        nu = 1.0 / 9.0
        with pytest.raises(InvalidParameter):
            build_counterexample("sharp2", {"nu": nu, "omega": 0.5 * (1 - nu)}, 10)
        with pytest.raises(InvalidParameter):
            build_counterexample("sharp2", {"nu": 0.0, "omega": 0.5}, 10)

    def test_nu_one_rejected_by_name(self):
        # nu is also the scaling rule's mu, which must lie in (0,1)
        with pytest.raises(InvalidParameter, match="nu must lie in"):
            build_counterexample("sharp2", {"nu": 1.0, "omega": 0.5}, 10)


class TestBuild:
    @pytest.mark.parametrize("K", [1e4, 10.0, 2.5, "10", None])
    def test_non_integral_K_rejected_by_name(self, K):
        with pytest.raises(InvalidParameter, match="K must be an integer"):
            build_counterexample("sharp1", {}, K)

    @pytest.mark.parametrize("kind", ["sharp1", "sharp2"])
    def test_numpy_integer_K_accepted(self, kind):
        knots = build_counterexample(kind, {}, np.int64(40))
        same = build_counterexample(kind, {}, 40)
        assert knots.knot_count == 41
        for name in "xfgs":
            assert getattr(knots, name).tobytes() == getattr(same, name).tobytes()

    def test_sharp2_build_peaks_at_its_knot_arrays(self):
        # the prescribed gradients are built in place, not as a K+1 float list
        tracemalloc.start()
        try:
            knots = build_counterexample("sharp2", {"nu": 1.0 / 9.0, "omega": 4.0 / 9.0 + 0.01},
                                         50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert knots.knot_count == 50_001
        assert peak <= 2_000_000


def _replay_by_update_scaling(strategy, grads, f0):
    """Reference knots: the driver's own scaling update, one step at a time."""
    state = init_scaling(strategy, 1)
    x, f, s = [0.0], [float(f0)], []
    for gj in grads[:-1]:
        sj = abs(gj) / update_scaling(state, np.array([gj])).item()
        s.append(sj)
        x.append(x[-1] + sj)
        f.append(f[-1] + gj * sj)
    return np.array(s), np.array(x), np.array(f)


#: exponents at which NumPy's array power and Python's ** disagree in the last
#: bit for some k <= 500: sharp2's nu and omega, and sharp1's 1/2 + eta
POWER_EXPONENTS = (1.0 / 9.0, 4.0 / 9.0 + 0.01, 0.51)


def test_numpy_and_python_power_disagree_at_the_pinned_exponents():
    k = np.arange(1, 501)
    for e in POWER_EXPONENTS:
        assert any(float(a) != int(b) ** e for a, b in zip(k ** e, k)), e


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["sharp1", "sharp2"]),
       rate=st.floats(0.01, 0.99),
       varsigma=st.floats(0.001, 1.0),
       steps=st.integers(1, 499),
       exponent=st.one_of(st.sampled_from(POWER_EXPONENTS), st.floats(0.01, 2.0)),
       data=st.data())
@example(kind="sharp2", rate=1.0 / 9.0, varsigma=1.0, steps=499,
         exponent=4.0 / 9.0 + 0.01, data=None)
@example(kind="sharp1", rate=0.5, varsigma=0.01, steps=499, exponent=0.51, data=None)
def test_replay_matches_the_driver_rule_bit_for_bit(kind, rate, varsigma, steps,
                                                    exponent, data):
    # rate is sharp1's mu or sharp2's nu; gradients are either the builders'
    # -1/k**e, with Python's power, or arbitrary
    if data is None or data.draw(st.booleans()):
        grads = [-1.0 / k**exponent for k in range(1, steps + 2)]
    else:
        grads = data.draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=True),
                                   min_size=steps + 1, max_size=steps + 1))
    if kind == "sharp1":
        strategy = ScalingStrategy(kind="adagrad-comp", mu=rate, varsigma=varsigma)
    else:
        strategy = ScalingStrategy(kind="maxg-comp", mu=rate, nu=rate, varsigma=varsigma)
    f0 = 1.0 + exponent
    knots = _replay(kind, strategy, np.array(grads), f0, 0, 1.0)
    s, x, f = _replay_by_update_scaling(strategy, grads, f0)
    assert knots.s.tobytes() == s.tobytes()
    assert knots.x.tobytes() == x.tobytes()
    assert knots.f.tobytes() == f.tobytes()


class TestInterpolant:
    def test_knot_interpolation_exact(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01}, 500)
        fn = Interpolant(knots)
        vals = np.array([fn(x, 0) for x in knots.x])
        slopes = np.array([fn(x, 1) for x in knots.x])
        assert np.max(np.abs(vals - knots.f)) <= 1e-12
        assert np.max(np.abs(slopes - knots.g)) <= 1e-12

    def test_symmetric_cubic_midpoint(self):
        knots = KnotSequence(
            kind="sharp1", k_start=0,
            x=np.array([0.0, 1.0]), f=np.array([0.0, 1.0]),
            g=np.array([0.0, 0.0]), s=np.array([1.0]), kappa_f=1.0,
            strategy=None)
        fn = Interpolant(knots)
        assert fn(0.5, 0) == 0.5

    def test_out_of_domain_left_only(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01}, 20)
        fn = Interpolant(knots)
        with pytest.raises(OutOfDomain):
            fn(-1e-9)
        # beyond the last knot: constant-slope linear extension
        xr = knots.x[-1] + 5.0
        assert fn(xr, 1) == knots.g[-1]
        assert fn(xr, 2) == 0.0
        np.testing.assert_allclose(fn(xr, 0), knots.f[-1] + knots.g[-1] * 5.0, rtol=1e-15)

    def test_second_derivative_bounded_over_first_spans(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01,
                                                "varsigma": 0.01}, 100)
        fn = Interpolant(knots)
        grid = np.linspace(knots.x[0], knots.x[-1], 20001)
        curv = np.array([fn(x, 2) for x in grid])
        kf = knots.kappa_f
        # Hermite theory bounds |f''| by a modest multiple of kappa_f
        assert np.max(np.abs(curv)) <= 10.0 * kf

    def test_interpolant_min_above_zero_band(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01}, 1000)
        fn = Interpolant(knots)
        grid = np.linspace(knots.x[0], knots.x[-1], 50001)
        assert min(fn(x, 0) for x in grid) >= -1e-9


@functools.lru_cache(maxsize=None)
def _interpolant(kind):
    params = {"sharp1": {"mu": 0.5, "eta": 0.01}, "sharp2": {"nu": 1 / 9, "omega": 4 / 9 + 0.01}}
    return Interpolant(build_counterexample(kind, params[kind], 300))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["sharp1", "sharp2"]), order=st.sampled_from([0, 1, 2]),
       j=st.integers(0, 299), dist=st.floats(1e-300, 1e6),
       fracs=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20))
def test_queries_are_floats_and_none_lies_left_of_the_knots(kind, order, j, dist, fracs):
    fn = _interpolant(kind)
    xs = fn.knots.x
    between = [xs[j] + frac * (xs[j + 1] - xs[j]) for frac in fracs]
    for x in [xs[j], *between, xs[-1], xs[-1] + dist]:
        assert type(fn(float(x), order)) is float
    with pytest.raises(OutOfDomain):
        fn(float(xs[0] - dist), order)


@st.composite
def query_sequences(draw, xs):
    """Points a retrace and its neighbours ask for: exact knot hits (the first
    and the last included), points between knots and past the last knot, in a
    forward sweep, a backward sweep or as drawn, each repeated 1-3 times, with
    one NaN put in somewhere."""
    m = len(xs)
    between = st.tuples(st.integers(0, m - 2), st.floats(0.0, 1.0, exclude_max=True))
    point = st.one_of(
        st.integers(0, m - 1).map(lambda j: float(xs[j])),
        between.map(lambda t: float(xs[t[0]] + t[1] * (xs[t[0] + 1] - xs[t[0]]))),
        st.floats(0.0, 1e6).map(lambda d: float(xs[-1] + d)),
    )
    points = draw(st.lists(point, min_size=1, max_size=25))
    sweep = draw(st.sampled_from(["forward", "backward", "as drawn"]))
    if sweep != "as drawn":
        points.sort(reverse=sweep == "backward")
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    queries = [x for x, r in zip(points, repeats) for _ in range(r)]
    queries.insert(draw(st.integers(0, len(queries))), float("nan"))
    return queries


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["sharp1", "sharp2"]), order=st.sampled_from([0, 1, 2]),
       data=st.data())
def test_reused_interpolant_answers_any_query_order_like_a_fresh_one(kind, order, data):
    # the cached instance keeps the interval of its last query across examples
    reused = _interpolant(kind)
    knots = reused.knots
    for x in data.draw(query_sequences(knots.x)):
        got = np.float64(reused(x, order)).tobytes()
        assert got == np.float64(Interpolant(knots)(x, order)).tobytes(), x


class TestVerify:
    def _run(self, knots, iters):
        problem = interpolant_problem(knots)
        config = RunConfig(scaling=knots.strategy, model="none", norm="inf",
                           eps=1e-30, max_iter=iters, keep_trace=True)
        return astr1(problem, config)

    def test_sharp1_retraced_exactly(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01}, 800)
        report = verify_sharpness(knots, self._run(knots, 800))
        assert report["count"] == 801
        assert report["max_knot_dev"] <= 1e-10
        assert report["max_grad_rel_dev"] <= 1e-8

    def test_sharp2_retraced_exactly(self):
        knots = build_counterexample("sharp2", {"nu": 1 / 9, "omega": 4 / 9 + 0.01}, 800)
        report = verify_sharpness(knots, self._run(knots, 800))
        assert report["max_knot_dev"] <= 1e-10
        assert report["max_grad_rel_dev"] <= 1e-8

    def test_short_record_gives_short_report(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01}, 100)
        report = verify_sharpness(knots, self._run(knots, 10))
        assert report["count"] == 11

    def test_kept_retrace_peaks_at_a_small_multiple_of_its_trace(self):
        # every kept column grows as one flat float64 buffer, not one ndarray per row
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01, "varsigma": 0.01},
                                     10_000)
        tracemalloc.start()
        try:
            record = self._run(knots, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.iters == 10_000
        assert peak <= 5 * sum(col.nbytes for col in record.trace.values())

    def test_mismatched_scaling_rejected(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01}, 50)
        problem = interpolant_problem(knots)
        record = run_variant(problem, "maxgi01", eps=1e-30, max_iter=20,
                             keep_trace=True)
        with pytest.raises(ConfigMismatch):
            verify_sharpness(knots, record)

    def test_model_and_trace_requirements(self):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01}, 50)
        problem = interpolant_problem(knots)
        config = RunConfig(scaling=knots.strategy, model="bb", norm="inf",
                           eps=1e-30, max_iter=10, keep_trace=True)
        with pytest.raises(ConfigMismatch):
            verify_sharpness(knots, astr1(problem, config))
        config = RunConfig(scaling=knots.strategy, model="none", norm="inf",
                           eps=1e-30, max_iter=10, keep_trace=False)
        with pytest.raises(ConfigMismatch):
            verify_sharpness(knots, astr1(problem, config))


class TestExports:
    def test_knot_csv(self, tmp_path):
        knots = build_counterexample("sharp1", {"mu": 0.5, "eta": 0.01}, 10)
        path = tmp_path / "knots.csv"
        export_knots(knots, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,x,f,g,s"
        assert len(lines) == knots.knot_count + 1
        first = lines[1].split(",")
        assert float(first[1]) == 0.0 and float(first[3]) == -2.0

    # sha256 of the grid CSVs, pinned so that no rewrite of the evaluation moves a byte
    @pytest.mark.parametrize("kind, K, options, digest", [
        ("sharp1", 300, {}, "0b27d2099a1252a6b6ec1a060f754bd14c7ba0bcad5960cc42deceb975f4527f"),
        ("sharp2", 50, {"num": 100, "shift_f0_to": 100.0},
         "ecd6a8ae4be16f71d6b9d2a0b05d32c4b3905610076177106452bf2c6f3e7736"),
    ])
    def test_grid_csv_bytes(self, tmp_path, kind, K, options, digest):
        path = tmp_path / "grid.csv"
        export_grid(build_counterexample(kind, {}, K), str(path), **options)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_grid_csv_with_shift(self, tmp_path):
        knots = build_counterexample("sharp2", {"nu": 1 / 9, "omega": 4 / 9 + 0.01}, 50)
        path = tmp_path / "grid.csv"
        export_grid(knots, str(path), num=100, shift_f0_to=100.0)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 101
        assert float(lines[1].split(",")[1]) == 100.0
