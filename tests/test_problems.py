import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offo.driver import run_variant
from offo.errors import (
    DimensionMismatch,
    InvalidParameter,
    NonFiniteValue,
    UnknownProblem,
)
from offo.problems import (
    WANT_KINDS,
    NoisyProblem,
    Problem,
    diag_quadratic,
    fd_hessian,
    load_suite,
)

#: dimensions as printed in the source collection's problem table
TABLE_DIMS = {
    "arglina": 10, "arwhead": 10, "bard": 3, "beale": 2, "booth": 2,
    "box3": 3, "brownal": 10, "broyden3d": 10, "chebyqad": 10, "cliff": 2,
    "cube": 2, "dixmaana": 12, "dqartic": 10, "freuroth": 4, "helix": 3,
    "hilbert": 10, "integreq": 10, "jensmp": 2, "kowosb": 4, "morebv": 12,
    "osborneb": 11, "penalty1": 10, "powellsg": 12, "rosenbr": 10,
    "sisser": 2, "tridia": 10, "vardim": 10, "watson": 12, "woods": 12,
}


class TestRegistry:
    def test_suite_size(self):
        assert len(load_suite()) >= 25

    def test_dimensions_match_table(self):
        for p in load_suite():
            assert p.n == TABLE_DIMS[p.name], p.name
            assert p.x0.shape == (p.n,)

    def test_every_problem_has_reference(self):
        for p in load_suite():
            assert p.f_ref is not None

    def test_load_by_name(self):
        (p,) = load_suite(["rosenbr"])
        assert p.name == "rosenbr" and p.n == 10

    def test_unknown_name(self):
        with pytest.raises(UnknownProblem):
            load_suite(["nosuch"])


class TestEvaluate:
    def test_beale_values(self):
        (p,) = load_suite(["beale"])
        out = p.evaluate(np.array([1.0, 1.0]), ("value", "gradient"))
        assert out["value"] == 14.203125
        np.testing.assert_allclose(out["gradient"], [0.0, 27.75], rtol=0, atol=0)

    def test_quadratic_all_oracles(self):
        p = diag_quadratic([1.0], [3.0])
        out = p.evaluate(np.array([3.0]), ("value", "gradient", "hessian"))
        assert out["value"] == 4.5
        assert out["gradient"][0] == 3.0
        assert out["hessian"][0, 0] == 1.0

    def test_returns_exactly_requested(self):
        (p,) = load_suite(["beale"])
        out = p.evaluate(p.x0, ("gradient",))
        assert set(out) == {"gradient"}

    def test_empty_want_rejected(self):
        (p,) = load_suite(["beale"])
        with pytest.raises(InvalidParameter):
            p.evaluate(p.x0, ())

    def test_dimension_mismatch(self):
        (p,) = load_suite(["beale"])
        with pytest.raises(DimensionMismatch):
            p.evaluate(np.zeros(3), ("value",))

    def test_overflow_reported(self):
        (p,) = load_suite(["cliff"])
        with pytest.raises(NonFiniteValue):
            p.evaluate(np.array([200.0, -200.0]), ("value",))


def _fd_gradient(p, x):
    h = np.cbrt(np.finfo(float).eps) * (1.0 + np.abs(x))
    out = np.zeros(p.n)
    for j in range(p.n):
        e = np.zeros(p.n)
        e[j] = h[j]
        out[j] = (p.value(x + e) - p.value(x - e)) / (2.0 * h[j])
    return out


@pytest.mark.parametrize("name", sorted(TABLE_DIMS))
def test_oracle_consistency_at_six_points(name):
    """Central differences of f match g, and of g match H, at x0 plus 5
    perturbations (relative tolerance 1e-5)."""
    (p,) = load_suite([name])
    rng = np.random.default_rng(1234)
    points = [p.x0] + [
        p.x0 + 0.05 * (1.0 + np.abs(p.x0)) * rng.standard_normal(p.n)
        for _ in range(5)
    ]
    for x in points:
        g = p.evaluate(x, ("gradient",))["gradient"]
        fd = _fd_gradient(p, x)
        assert np.max(np.abs(fd - g)) <= 1e-5 * (1.0 + np.max(np.abs(g)))
    x = points[1]
    hess = p.evaluate(x, ("hessian",))["hessian"]
    fd_h = fd_hessian(p.g, x)
    assert np.max(np.abs(hess - fd_h)) <= 1e-5 * (1.0 + np.max(np.abs(fd_h)))
    np.testing.assert_allclose(hess, hess.T, atol=1e-10 * (1 + np.max(np.abs(hess))))


class TestNoise:
    def test_level_zero_is_identity(self):
        (p,) = load_suite(["beale"])
        noisy = NoisyProblem(p, 0.0, 123)
        for _ in range(3):
            out = noisy.evaluate(p.x0, ("value", "gradient"))
        clean = p.evaluate(p.x0, ("value", "gradient"))
        assert out["value"] == clean["value"]
        np.testing.assert_array_equal(out["gradient"], clean["gradient"])

    def test_equal_query_sequences_are_identical(self):
        (p,) = load_suite(["woods"])
        a = NoisyProblem(p, 0.05, 99)
        b = NoisyProblem(p, 0.05, 99)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = p.x0 + rng.standard_normal(p.n)
            oa = a.evaluate(x, ("value", "gradient"))
            ob = b.evaluate(x, ("value", "gradient"))
            assert oa["value"] == ob["value"]
            np.testing.assert_array_equal(oa["gradient"], ob["gradient"])

    def test_order_within_query_does_not_matter(self):
        (p,) = load_suite(["woods"])
        a = NoisyProblem(p, 0.05, 7)
        b = NoisyProblem(p, 0.05, 7)
        ga = a.evaluate(p.x0, ("gradient",))["gradient"]
        both = b.evaluate(p.x0, ("value", "gradient"))
        np.testing.assert_array_equal(ga, both["gradient"])

    def test_multiplicative_form_matches_reference_stream(self):
        base = diag_quadratic([1.0, 1.0], [1.0, -2.0])
        level, seed = 0.05, 321
        noisy = NoisyProblem(base, level, seed)
        x = np.array([2.0, -4.0])
        got = noisy.evaluate(x, ("gradient",))["gradient"]
        xi = noisy._draws(0, "gradient", 2)
        expect = base.evaluate(x, ("gradient",))["gradient"] * (1.0 + level * xi)
        np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("seed", [0, 321, 2**64 + 5])
    def test_stream_is_a_fresh_philox_per_query_and_quantity(self, seed):
        """``size=None`` (the value's one draw) is the first draw of the
        block, as a float."""
        noisy = NoisyProblem(diag_quadratic([1.0], [1.0]), 0.1, seed)
        key = [seed % 2**64, seed >> 64]
        for query in (0, 7, 1000, 2**40):
            for index, kind in enumerate(("value", "gradient", "hessian")):
                for size in (None, 1, 2, 9):
                    philox = np.random.Philox(key=key, counter=[0, 0, index, query])
                    expect = np.random.Generator(philox).standard_normal(size)
                    np.testing.assert_array_equal(noisy._draws(query, kind, size), expect)
                assert noisy._draws(query, kind) == noisy._draws(query, kind, 1)[0]

    @pytest.mark.parametrize("kind", ["value", "gradient", "hessian"])
    def test_consecutive_queries_share_no_draw(self, kind):
        """Up to a 12 x 12 Hessian's 144 draws, the block of query q + 1
        holds none of the draws of query q."""
        noisy = NoisyProblem(diag_quadratic([1.0], [1.0]), 0.1, 12345)
        for query in (0, 1, 199):
            for size in (1, 5, 8, 12, 100, 144):
                now, then = noisy._draws(query, kind, size), noisy._draws(query + 1, kind, size)
                assert np.intersect1d(now, then).size == 0

    def test_noise_changes_with_seed_and_query(self):
        (p,) = load_suite(["beale"])
        n1 = NoisyProblem(p, 0.1, 1)
        n2 = NoisyProblem(p, 0.1, 2)
        g1 = n1.evaluate(p.x0, ("gradient",))["gradient"]
        g2 = n2.evaluate(p.x0, ("gradient",))["gradient"]
        assert not np.array_equal(g1, g2)
        g1b = n1.evaluate(p.x0, ("gradient",))["gradient"]
        assert not np.array_equal(g1, g1b)

    def test_counts_calls_per_kind_including_overflows(self):
        (p,) = load_suite(["cliff"])
        oracle = NoisyProblem(p, 0.0, 0)
        oracle.evaluate(p.x0, ("value", "gradient"))
        oracle.evaluate(p.x0, ("gradient",))
        with pytest.raises(NonFiniteValue):
            oracle.evaluate(np.array([200.0, -200.0]), ("value",))
        assert oracle.counts == {"value": 2, "gradient": 2, "hessian": 0, "fd_gradient": 0}

    @pytest.mark.parametrize("name, per_hessian", [("osborneb", 22), ("rosenbr", 0)])
    def test_fd_gradient_counts_2n_per_hessian_without_analytic_hessian(self, name, per_hessian):
        (p,) = load_suite([name])
        oracle = NoisyProblem(p, 0.1, 0)
        oracle.evaluate(p.x0, ("gradient", "hessian"))
        oracle.evaluate(p.x0, ("hessian",))
        assert oracle.counts == {"value": 0, "gradient": 1, "hessian": 2,
                                 "fd_gradient": 2 * per_hessian}
        rec = run_variant(p, "Eadagi1", max_iter=5)
        assert rec.neval["hessian"] == 5
        assert rec.neval["fd_gradient"] == per_hessian * rec.neval["hessian"]
        assert rec.evals == rec.neval["gradient"] == 6

    def test_negative_level_rejected(self):
        (p,) = load_suite(["beale"])
        with pytest.raises(InvalidParameter):
            NoisyProblem(p, -0.1, 0)

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_nonfinite_level_rejected(self, level):
        # not left to surface as a non-finite gradient at the first query
        (p,) = load_suite(["beale"])
        with pytest.raises(InvalidParameter, match="noise level must be finite"):
            NoisyProblem(p, level, 0)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", None])
    def test_non_integer_seed_rejected(self, seed):
        # truncated, a fractional seed would draw noise from a seed its record does not name
        (p,) = load_suite(["beale"])
        with pytest.raises(InvalidParameter, match="noise seed must be an integer"):
            NoisyProblem(p, 0.1, seed)

    def test_integer_like_seeds_kept_exactly(self):
        (p,) = load_suite(["beale"])
        for seed in (np.uint64(12345), np.int64(7), True):
            noisy = NoisyProblem(p, 0.1, seed)
            assert type(noisy.seed) is int and noisy.seed == int(seed)

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**128 + 5])
    def test_seed_outside_the_philox_key_rejected(self, seed):
        """Keyed by its low 128 bits, such a seed would alias one inside."""
        (p,) = load_suite(["beale"])
        with pytest.raises(InvalidParameter, match="noise seed must lie in"):
            NoisyProblem(p, 0.1, seed)
        assert NoisyProblem(p, 0.1, 2**128 - 1).seed == 2**128 - 1

    def test_unbiased_at_desk_scale(self):
        """Mean over 1e4 seeds matches the clean gradient componentwise to
        3 * level * |g| / 100 (a three-sigma band for that many draws)."""
        base = diag_quadratic([1.0, 2.0], [1.0, 1.0])
        x = np.array([1.5, -0.5])
        g = base.evaluate(x, ("gradient",))["gradient"]
        level = 0.05
        total = np.zeros(2)
        n_seeds = 10**4
        for seed in range(n_seeds):
            total += NoisyProblem(base, level, seed).evaluate(x, ("gradient",))["gradient"]
        mean = total / n_seeds
        assert np.all(np.abs(mean - g) <= 3.0 * level * np.abs(g) / 100.0)


class TestNoisyEntryPoint:
    """``NoisyProblem.evaluate`` validates every query before it counts it."""

    @settings(max_examples=40, deadline=None)
    @given(want=st.lists(st.sampled_from(WANT_KINDS + ("Value", "grad", "")), max_size=4),
           level=st.sampled_from([0.0, 0.1]))
    def test_want_validated(self, want, level):
        (p,) = load_suite(["beale"])
        oracle = NoisyProblem(p, level, 0)
        if want and all(kind in WANT_KINDS for kind in want):
            assert set(oracle.evaluate(p.x0, want)) == set(want)
        else:
            with pytest.raises(InvalidParameter):
                oracle.evaluate(p.x0, want)
            assert oracle.counts == dict.fromkeys(WANT_KINDS + ("fd_gradient",), 0)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.lists(st.integers(0, 3), max_size=3), level=st.sampled_from([0.0, 0.1]))
    def test_point_shape_validated(self, shape, level):
        (p,) = load_suite(["beale"])
        oracle = NoisyProblem(p, level, 0)
        x = np.ones(shape)
        if x.shape == (p.n,):
            assert np.isfinite(oracle.evaluate(x, ("gradient",))["gradient"]).all()
        else:
            with pytest.raises(DimensionMismatch):
                oracle.evaluate(x, ("gradient",))

    def test_noisy_counts_include_overflows(self):
        (p,) = load_suite(["cliff"])
        oracle = NoisyProblem(p, 0.1, 0)
        oracle.evaluate(p.x0, ("value", "gradient"))
        with pytest.raises(NonFiniteValue):
            oracle.evaluate(np.array([200.0, -200.0]), ("value", "gradient"))
        assert oracle.counts == {"value": 2, "gradient": 2, "hessian": 0, "fd_gradient": 0}


def _constant_gradient(grad) -> Problem:
    grad = np.array(grad)
    return Problem("constgrad", grad.size, np.zeros(grad.size), lambda x: 0.0,
                   lambda x: grad.copy())


class TestGradientFiniteness:
    """The oracle takes a gradient as finite when g.g is, and otherwise tests
    it component by component; g.g overflows for (1e200, -1e200)."""

    @pytest.mark.parametrize("level", [0.0, 0.1])
    def test_overflowing_dot_product_passes(self, level):
        oracle = NoisyProblem(_constant_gradient([1e200, -1e200]), level, 3)
        with np.errstate(all="ignore"):
            g = oracle._query(np.zeros(2), ("gradient",))["gradient"]
            assert np.isfinite(g).all()
            assert np.isfinite(oracle.base._query(np.zeros(2), ("gradient",))["gradient"]).all()
        assert oracle.counts["gradient"] == 1 and oracle._query_index == 1

    @pytest.mark.parametrize("level", [0.0, 0.1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nan_or_inf_raises(self, level, bad):
        """Counted, but the query index is not used up: the base output is
        not finite."""
        oracle = NoisyProblem(_constant_gradient([1e200, bad]), level, 3)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValue):
            oracle._query(np.zeros(2), ("gradient",))
        assert oracle.counts["gradient"] == 1 and oracle._query_index == 0

    @pytest.mark.parametrize("level", [None, 0.0, 0.1])
    def test_evaluate_leaks_no_warning(self, level):
        base = _constant_gradient([1e200, -1e200])
        oracle = base if level is None else NoisyProblem(base, level, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = oracle.evaluate(np.zeros(2), ("value", "gradient"))
        assert np.isfinite(out["gradient"]).all()


# The kernels as first written, one loop or list per step, in residual form:
# the reference that the vectorised brownal, chebyqad, integreq, rosenbr,
# woods and powellsg oracles equal bit for bit.

def _brownal_reference(x):
    n = x.size
    r, jac = np.empty(n), np.ones((n, n))
    for i in range(n - 1):
        r[i] = x[i] + x.sum() - (n + 1.0)
        jac[i, i] = 2.0
    r[-1] = np.prod(x) - 1.0
    for j in range(n):
        jac[-1, j] = np.prod(np.delete(x, j))
    return float(r @ r), 2.0 * jac.T @ r


def _chebyqad_reference(x):
    n = x.size
    z = 2.0 * x - 1.0
    tprev, t = np.ones_like(x), z
    dprev, d = np.zeros_like(x), np.full_like(x, 2.0)
    tvals, dvals = [t.copy()], [d.copy()]
    for _ in range(1, n):
        tnext = 2.0 * z * t - tprev
        dnext = 4.0 * t + 2.0 * z * d - dprev
        tprev, t, dprev, d = t, tnext, d, dnext
        tvals.append(t.copy())
        dvals.append(d.copy())
    r, jac = np.empty(n), np.empty((n, n))
    for j in range(n):
        integral = 0.0 if j % 2 == 0 else -1.0 / ((j + 1) ** 2 - 1.0)
        r[j] = tvals[j].mean() - integral
        for i in range(n):
            jac[j, i] = dvals[j][i] / n
    return float(r @ r), 2.0 * jac.T @ r


def _integreq_reference(x):
    n = x.size
    hstep = 1.0 / (n + 1.0)
    t = hstep * np.arange(1.0, n + 1.0)
    u = (x + t + 1.0) ** 3
    lower = np.cumsum(t * u)
    upper = np.cumsum(((1.0 - t) * u)[::-1])[::-1]
    upper_strict = upper - (1.0 - t) * u
    r = x + hstep * ((1.0 - t) * lower + t * upper_strict) / 2.0
    du = 3.0 * (x + t + 1.0) ** 2
    w = np.where(
        np.arange(n)[:, None] >= np.arange(n)[None, :],
        (1.0 - t)[:, None] * t[None, :],
        t[:, None] * (1.0 - t)[None, :],
    )
    jac = np.eye(n) + hstep * w * du[None, :] / 2.0
    return float(r @ r), 2.0 * jac.T @ r


def _rosenbr_reference(x):
    m = x.size - 1
    r, jac = np.empty(2 * m), np.zeros((2 * m, x.size))
    for i in range(m):
        r[i] = 10.0 * (x[i + 1] - x[i] * x[i])
        jac[i, i], jac[i, i + 1] = -20.0 * x[i], 10.0
        r[m + i] = 1.0 - x[i]
        jac[m + i, i] = -1.0
    return float(r @ r), 2.0 * jac.T @ r


def _blocks_reference(x, kinds):
    """Residual kind t of block j as row t * nb + j; ``kinds(a, b, c, d)``
    lists each kind's residual and its slopes by slot within the block."""
    nb = x.size // 4
    rows = [kinds(*x[4 * j : 4 * j + 4]) for j in range(nb)]
    r, jac = np.empty(len(rows[0]) * nb), np.zeros((len(rows[0]) * nb, x.size))
    for j, block in enumerate(rows):
        for t, (res, slopes) in enumerate(block):
            r[t * nb + j] = res
            for slot, slope in slopes.items():
                jac[t * nb + j, 4 * j + slot] = slope
    return float(r @ r), 2.0 * jac.T @ r


def _woods_kinds(a, b, c, d):
    s90, s10, s01 = math.sqrt(90.0), math.sqrt(10.0), math.sqrt(0.1)
    return [(10.0 * (b - a * a), {0: -20.0 * a, 1: 10.0}), (1.0 - a, {0: -1.0}),
            (s90 * (d - c * c), {2: -2.0 * s90 * c, 3: s90}), (1.0 - c, {2: -1.0}),
            (s10 * (b + d - 2.0), {1: s10, 3: s10}), (s01 * (b - d), {1: s01, 3: -s01})]


def _powellsg_kinds(a, b, c, d):
    s5, s10 = math.sqrt(5.0), math.sqrt(10.0)
    u, v = b - 2.0 * c, a - d
    p, q = 2.0 * u, 2.0 * s10 * v
    return [(a + 10.0 * b, {0: 1.0, 1: 10.0}), (s5 * (c - d), {2: s5, 3: -s5}),
            (u * u, {1: p, 2: -2.0 * p}), (s10 * (v * v), {0: q, 3: -q})]


KERNEL_REFERENCES = {"brownal": _brownal_reference, "chebyqad": _chebyqad_reference,
                     "integreq": _integreq_reference, "rosenbr": _rosenbr_reference,
                     "woods": lambda x: _blocks_reference(x, _woods_kinds),
                     "powellsg": lambda x: _blocks_reference(x, _powellsg_kinds)}


@pytest.mark.parametrize("name", sorted(KERNEL_REFERENCES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernels_equal_the_loop_reference(name, data):
    """f and g bit for bit at points around x0, with up to two coordinates
    exactly +0 or -0; the offsets are normal draws, so products round."""
    (p,) = load_suite([name])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = p.x0 + data.draw(st.sampled_from([1e-3, 0.1, 1.0])) * rng.standard_normal(p.n)
    for i in data.draw(st.sets(st.integers(0, p.n - 1), max_size=2)):
        x[i] = data.draw(st.sampled_from([0.0, -0.0]))
    f_ref, g_ref = KERNEL_REFERENCES[name](x)
    assert np.float64(p.f(x)).tobytes() == np.float64(f_ref).tobytes()
    assert p.g(x).tobytes() == g_ref.tobytes()


def test_fd_hessian_is_symmetric():
    (p,) = load_suite(["bard"])
    h = fd_hessian(p.g, p.x0)
    np.testing.assert_array_equal(h, h.T)


def test_diag_quadratic_validation():
    with pytest.raises(InvalidParameter):
        diag_quadratic([1.0, -1.0], [0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        diag_quadratic([1.0], [0.0, 0.0])
