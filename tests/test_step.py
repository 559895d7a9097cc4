import numpy as np
import pytest

from offo.errors import DimensionMismatch, InvalidParameter, NonFiniteInput
from offo.model import apply_model, init_model, update_model
from offo.step import cauchy_point, make_region, model_value, solve_tr_step


def bb_model(sigma, n):
    m = init_model("bb", n, kappaB=1e6)
    s = np.zeros(n)
    s[0] = 1.0
    update_model(m, s, sigma * s)  # ||s||^2 / y's = 1/sigma ... so invert
    m.sigma = sigma  # set the scalar directly for test clarity
    return m


def exactish_model(matrix):
    """Dense symmetric operator via the exact kind, bypassing any problem."""
    n = matrix.shape[0]
    m = init_model("exact", n, kappaB=1e6)
    m.dense = np.asarray(matrix, dtype=float)
    return m


def line_search_gamma(g, B, sL, grid=200001):
    """Brute-force minimizer of the model along [0,1]*sL."""
    gammas = np.linspace(0.0, 1.0, grid)
    vals = gammas * float(g @ sL) + 0.5 * gammas**2 * float(sL @ (B @ sL))
    return gammas[np.argmin(vals)]


class TestCauchyPoint:
    def test_zero_gradient(self):
        m = init_model("zero", 2)
        tr = make_region("inf", np.zeros(2), np.ones(2))
        cp = cauchy_point(np.zeros(2), m, tr)
        np.testing.assert_array_equal(cp.sL, np.zeros(2))
        np.testing.assert_array_equal(cp.sQ, np.zeros(2))
        assert cp.qdec == 0.0

    def test_positive_curvature_interior_minimizer(self):
        g = np.array([2.0])
        m = exactish_model(np.array([[4.0]]))
        tr = make_region("inf", g, np.ones(1))
        cp = cauchy_point(g, m, tr)
        assert cp.sL[0] == -2.0
        assert cp.gamma == 0.25
        assert cp.sQ[0] == -0.5
        assert cp.qdec == 0.5
        # brute-force line-search oracle agrees
        assert abs(line_search_gamma(g, np.array([[4.0]]), cp.sL) - 0.25) < 1e-5

    def test_negative_curvature_goes_full_length(self):
        g = np.array([1.0])
        m = exactish_model(np.array([[-2.0]]))
        tr = make_region("inf", g, np.ones(1))
        cp = cauchy_point(g, m, tr)
        assert cp.gamma == 1.0
        assert cp.sQ[0] == cp.sL[0] == -1.0
        assert abs(line_search_gamma(g, np.array([[-2.0]]), cp.sL) - 1.0) < 1e-5

    def test_sign_convention_and_radii(self):
        g = np.array([3.0, -1.0, 0.0])
        w = np.array([1.5, 0.5, 2.0])
        tr = make_region("inf", g, w)
        np.testing.assert_array_equal(tr.radii, [2.0, 2.0, 0.0])
        cp = cauchy_point(g, init_model("zero", 3), tr)
        np.testing.assert_array_equal(cp.sL, [-2.0, 2.0, 0.0])

    def test_nonfinite_rejected(self):
        tr = make_region("inf", np.ones(1), np.ones(1))
        with pytest.raises(NonFiniteInput):
            cauchy_point(np.array([np.nan]), init_model("zero", 1), tr)


class TestZeroModelShortcuts:
    @pytest.mark.parametrize("norm", ["inf", "two"])
    def test_cauchy_point_and_model_value(self, norm):
        rng = np.random.default_rng(11)
        for n in (1, 3, 12):
            zero = init_model("zero", n)
            for _ in range(50):
                g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
                w = 10.0 ** rng.uniform(-2, 2, n)
                cp = cauchy_point(g, zero, make_region(norm, g, w))
                assert cp.gamma == 1.0
                np.testing.assert_array_equal(cp.sQ, cp.sL)
                assert cp.qdec == -(g @ cp.sL)
                s = rng.standard_normal(n)
                assert model_value(g, zero, s) == float(g @ s)

    def test_dimension_still_checked(self):
        zero = init_model("zero", 3)
        with pytest.raises(DimensionMismatch):
            cauchy_point(np.ones(2), zero, make_region("inf", np.ones(2), np.ones(2)))
        with pytest.raises(DimensionMismatch):
            model_value(np.ones(2), zero, np.ones(2))

    def test_nonzero_model_still_applied(self, monkeypatch):
        products = []

        def counting(model, v):
            products.append(v)
            return apply_model(model, v)

        monkeypatch.setattr("offo.step.apply_model", counting)
        m = bb_model(2.0, 2)
        g = np.array([1.0, -1.0])
        cp = cauchy_point(g, m, make_region("inf", g, np.ones(2)))
        assert len(products) == 1
        # q(gamma sL) = -2 gamma + 2 gamma^2 is least at gamma = 1/2
        assert cp.gamma == 0.5 and cp.qdec == 0.5
        assert model_value(g, m, cp.sQ) == -0.5
        assert len(products) == 2


class TestSolveBox:
    def test_zero_model_returns_linear_minimizer(self):
        g = np.array([0.3, -2.0, 0.0])
        w = np.array([1.0, 4.0, 1.0])
        tr = make_region("inf", g, w)
        m = init_model("zero", 3)
        s = solve_tr_step(g, m, tr)
        np.testing.assert_array_equal(s, -np.sign(g) * tr.radii)

    def test_interior_newton_point(self):
        g = np.array([1.0, 1.0])
        m = exactish_model(np.eye(2))
        tr = make_region("inf", g, np.full(2, 0.1))  # Delta = 10 each
        s = solve_tr_step(g, m, tr)
        np.testing.assert_allclose(s, [-1.0, -1.0], atol=1e-10)
        resid = g + apply_model(m, s)
        assert np.linalg.norm(resid) <= 1e-10

    def test_one_face_active_separable(self):
        g = np.array([1.0, 1.0])
        m = exactish_model(np.eye(2))
        tr = make_region("inf", g, np.array([2.0, 0.1]))  # Delta = (0.5, 10)
        s = solve_tr_step(g, m, tr)
        np.testing.assert_allclose(s, [-0.5, -1.0], atol=1e-12)

    def test_feasibility_is_exact(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            n = int(rng.integers(1, 6))
            g = rng.standard_normal(n) * 10
            w = rng.uniform(0.05, 5.0, n)
            a = rng.standard_normal((n, n))
            m = exactish_model((a + a.T) / 2)
            tr = make_region("inf", g, w)
            s = solve_tr_step(g, m, tr, tau=0.1)
            assert np.all(np.abs(s) <= tr.radii)  # no tolerance

    def test_cauchy_fraction_always_met(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            n = int(rng.integers(1, 6))
            g = rng.standard_normal(n)
            w = rng.uniform(0.05, 5.0, n)
            a = rng.standard_normal((n, n))
            m = exactish_model((a + a.T) / 2)
            tr = make_region("inf", g, w)
            for tau in (0.1, 1.0):
                s = solve_tr_step(g, m, tr, tau=tau)
                cp = cauchy_point(g, m, tr)
                q_s = model_value(g, m, s)
                q_c = model_value(g, m, cp.sQ)
                assert q_s <= tau * q_c + 1e-14 * max(1.0, abs(q_c))

    def test_separable_quadratic_closed_form(self):
        # per-coordinate: min g_i s + 0.5 d_i s^2 on [-Delta_i, Delta_i]
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(1, 4))
            g = rng.standard_normal(n) * 3
            d = rng.uniform(0.1, 4.0, n)
            w = rng.uniform(0.2, 3.0, n)
            m = exactish_model(np.diag(d))
            tr = make_region("inf", g, w)
            s = solve_tr_step(g, m, tr, tau=0.1)
            closed = np.clip(-g / d, -tr.radii, tr.radii)
            np.testing.assert_allclose(s, closed, atol=1e-8)

    def test_invalid_tau(self):
        g = np.ones(1)
        tr = make_region("inf", g, np.ones(1))
        with pytest.raises(InvalidParameter):
            solve_tr_step(g, init_model("zero", 1), tr, tau=0.0)


class TestSolveBall:
    def test_zero_model_ball(self):
        g = np.array([3.0, 4.0])
        w = np.full(2, 2.0)
        tr = make_region("two", g, w)
        s = solve_tr_step(g, init_model("zero", 2), tr)
        np.testing.assert_allclose(s, -g / 2.0, rtol=1e-15)
        assert np.linalg.norm(s) <= tr.radius * (1 + 1e-12)

    def test_interior_newton(self):
        g = np.array([1.0, 1.0])
        m = exactish_model(np.eye(2))
        tr = make_region("two", g, np.full(2, 0.01))  # radius >> 1
        s = solve_tr_step(g, m, tr)
        np.testing.assert_allclose(s, [-1.0, -1.0], atol=1e-10)

    def test_boundary_on_negative_curvature(self):
        g = np.array([1.0, 0.0])
        m = exactish_model(np.diag([-1.0, 0.5]))
        tr = make_region("two", g, np.full(2, 1.0))
        s = solve_tr_step(g, m, tr)
        assert np.linalg.norm(s) <= tr.radius * (1 + 1e-12)
        assert np.linalg.norm(s) >= tr.radius * (1 - 1e-10)
        cp = cauchy_point(g, m, tr)
        assert model_value(g, m, s) <= 0.1 * model_value(g, m, cp.sQ) + 1e-14

    def test_ball_feasibility_random(self):
        rng = np.random.default_rng(12)
        for trial in range(50):
            n = int(rng.integers(1, 6))
            g = rng.standard_normal(n)
            w = np.full(n, rng.uniform(0.1, 3.0))
            a = rng.standard_normal((n, n))
            m = exactish_model((a + a.T) / 2)
            tr = make_region("two", g, w)
            s = solve_tr_step(g, m, tr)
            assert np.linalg.norm(s) <= tr.radius * (1 + 1e-12)


def test_unknown_norm_rejected():
    with pytest.raises(InvalidParameter):
        make_region("one", np.ones(2), np.ones(2))
