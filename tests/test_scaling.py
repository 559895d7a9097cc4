import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offo.errors import DimensionMismatch, InvalidParameter, NonFiniteInput, NonFiniteValue
from offo.scaling import EWMA_BETA2, ScalingStrategy, euclidean_norm, init_scaling, update_scaling


def drive(strategy, gradients):
    state = init_scaling(strategy, len(gradients[0]))
    ws = []
    for g in gradients:
        ws.append(update_scaling(state, np.asarray(g, float)))
    return np.array(ws)


class TestInit:
    def test_adagrad_comp_empty(self):
        state = init_scaling(ScalingStrategy("adagrad-comp"), 3)
        assert state.k == -1
        np.testing.assert_array_equal(state.acc, np.zeros(3))

    def test_maxg_running_max_starts_at_floor(self):
        state = init_scaling(ScalingStrategy("maxg-comp", mu=0.1, nu=0.1), 2)
        np.testing.assert_array_equal(state.acc, [0.01, 0.01])

    @pytest.mark.parametrize("kwargs", [
        dict(kind="nope"),
        dict(kind="adagrad-comp", mu=0.0),
        dict(kind="adagrad-comp", mu=1.0),
        dict(kind="adagrad-comp", varsigma=0.0),
        dict(kind="adagrad-comp", varsigma=1.5),
        dict(kind="maxg-agg", mu=0.1, nu=0.0),
        dict(kind="maxg-comp", mu=0.1, nu=0.5),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameter):
            ScalingStrategy(**kwargs)

    def test_bad_dimension(self):
        with pytest.raises(InvalidParameter):
            init_scaling(ScalingStrategy("adagrad-comp"), 0)


class TestUpdateValues:
    def test_adagrad_comp_first_step(self):
        # w_0 = (0.01 + g^2)^0.5 componentwise
        ws = drive(ScalingStrategy("adagrad-comp", mu=0.5, varsigma=0.01), [(3.0, 0.0)])
        np.testing.assert_allclose(ws[0], [np.sqrt(9.01), 0.1], rtol=0, atol=0)

    def test_zero_gradients_hit_floor(self):
        ws = drive(ScalingStrategy("adagrad-comp", mu=0.5, varsigma=0.01),
                   [(0.0, 0.0)] * 4)
        np.testing.assert_array_equal(ws, np.full((4, 2), 0.1))

    def test_maxg_comp_history(self):
        ws = drive(ScalingStrategy("maxg-comp", mu=0.1, nu=0.1, varsigma=0.01),
                   [(2.0, 0.005), (1.0, 0.001)])
        expect = 2.0 ** 0.1 * np.array([2.0, 0.01])
        np.testing.assert_allclose(ws[1], expect, rtol=1e-15)
        np.testing.assert_allclose(ws[1], [2.1435469250725863, 0.010717734625362931],
                                   rtol=1e-12)

    def test_adagrad_agg_shares_scalar(self):
        ws = drive(ScalingStrategy("adagrad-agg", mu=0.5, varsigma=0.01),
                   [(3.0, 4.0)])
        np.testing.assert_allclose(ws[0], np.full(2, np.sqrt(25.01)), rtol=0)

    def test_ewma_discounting(self):
        g0, g1 = 2.0, 1.0
        ws = drive(ScalingStrategy("ewma-comp", mu=0.5, varsigma=0.01), [(g0,), (g1,)])
        expect = np.sqrt(0.01 + EWMA_BETA2 * g0**2 + g1**2)
        np.testing.assert_allclose(ws[1][0], expect, rtol=1e-15)

    def test_ewma_agg_matches_norm_accumulation(self):
        ws = drive(ScalingStrategy("ewma-agg", mu=0.5, varsigma=0.01),
                   [(1.0, 2.0), (0.5, 0.5)])
        expect = np.sqrt(0.01 + 0.9 * 5.0 + 0.5)
        np.testing.assert_allclose(ws[1], np.full(2, expect), rtol=1e-15)

    def test_maxg_agg_uses_euclidean_norm(self):
        ws = drive(ScalingStrategy("maxg-agg", mu=0.1, nu=0.1, varsigma=0.01),
                   [(3.0, 4.0)])
        np.testing.assert_allclose(ws[0], np.full(2, 5.0), rtol=0)


class TestUpdateErrors:
    def test_dimension_mismatch(self):
        state = init_scaling(ScalingStrategy("adagrad-comp"), 2)
        with pytest.raises(DimensionMismatch):
            update_scaling(state, np.zeros(3))

    def test_nonfinite_input(self):
        state = init_scaling(ScalingStrategy("adagrad-comp"), 2)
        with pytest.raises(NonFiniteInput):
            update_scaling(state, np.array([1.0, np.nan]))


@st.composite
def gradient_histories(draw):
    n = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 12))
    vals = draw(st.lists(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=n, max_size=n),
        min_size=steps, max_size=steps))
    return np.array(vals)


KINDS = ["adagrad-comp", "adagrad-agg", "ewma-comp", "ewma-agg", "maxg-comp", "maxg-agg"]


def _strategy(kind):
    if kind.startswith("maxg"):
        return ScalingStrategy(kind, mu=0.1, nu=0.1)
    return ScalingStrategy(kind)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(history=gradient_histories())
def test_floor_holds_for_all_kinds(kind, history):
    strat = _strategy(kind)
    ws = drive(strat, history)
    if kind.startswith("maxg"):
        # iteration-power lower bound: varsigma (k+1)^nu <= w
        ks = np.arange(len(history))[:, None]
        assert np.all(ws >= strat.varsigma * (ks + 1.0) ** strat.nu)
    assert np.all(ws >= strat.floor)


@pytest.mark.parametrize("kind", ["adagrad-comp", "adagrad-agg"])
@settings(max_examples=40, deadline=None)
@given(history=gradient_histories())
def test_adagrad_upper_sandwich_and_monotone(kind, history):
    strat = _strategy(kind)
    ws = drive(strat, history)
    total = np.cumsum(np.sum(history**2, axis=1))
    upper = (strat.varsigma + total) ** strat.mu
    assert np.all(ws <= upper[:, None] * (1 + 1e-12))
    assert np.all(np.diff(ws, axis=0) >= -1e-15)


@settings(max_examples=40, deadline=None)
@given(history=gradient_histories())
def test_maxg_upper_bound_under_gradient_cap(history):
    strat = _strategy("maxg-comp")
    ws = drive(strat, history)
    kappa_g = max(1.0, float(np.max(np.abs(history))))
    ks = np.arange(len(history))[:, None]
    assert np.all(ws <= kappa_g * (ks + 1.0) ** strat.mu * (1 + 1e-12))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None)
@given(history=gradient_histories(), data=st.data())
def test_permutation_equivariance(kind, history, data):
    n = history.shape[1]
    perm = data.draw(st.permutations(range(n)))
    perm = np.asarray(perm)
    ws = drive(_strategy(kind), history)
    ws_perm = drive(_strategy(kind), history[:, perm])
    if kind.endswith("comp"):
        # componentwise accumulators commute with the permutation exactly
        np.testing.assert_array_equal(ws[:, perm], ws_perm)
    else:
        # the shared scalar is permutation-invariant up to summation rounding
        np.testing.assert_allclose(ws[:, perm], ws_perm, rtol=1e-14, atol=0)


def _warmed_state(kind, history):
    """State after folding in every row of ``history``, and a snapshot of it."""
    state = init_scaling(_strategy(kind), history.shape[1])
    for g in history:
        update_scaling(state, g)
    acc = None if state.acc is None else state.acc.copy()
    return state, (state.k, acc, state.agg)


def _assert_unchanged(state, snapshot):
    k, acc, agg = snapshot
    assert state.k == k and state.agg == agg
    if acc is None:
        assert state.acc is None
    else:
        np.testing.assert_array_equal(state.acc, acc)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(history=gradient_histories(), data=st.data())
def test_nonfinite_gradient_rejected_and_state_kept(kind, history, data):
    state, snapshot = _warmed_state(kind, history[:-1])
    g = history[-1].copy()
    g[data.draw(st.integers(0, g.size - 1))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(NonFiniteInput):
        update_scaling(state, g)
    _assert_unchanged(state, snapshot)


#: smallest |g_i| that overflows w: its square for the sum-of-squares kinds,
#: (k + 1)^nu |g_i| with k >= 1 and nu = 0.1 for the running-max kinds
OVERFLOW_FROM = {"adagrad-comp": 1.4e154, "adagrad-agg": 1.4e154, "ewma-comp": 1.4e154,
                 "ewma-agg": 1.4e154, "maxg-comp": 1.7e308, "maxg-agg": 1.7e308}


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(history=gradient_histories(), data=st.data())
def test_accumulator_overflow_raises_and_state_kept(kind, history, data):
    state, snapshot = _warmed_state(kind, history)
    g = history[-1].copy()
    big = data.draw(st.floats(OVERFLOW_FROM[kind], np.finfo(float).max))
    g[data.draw(st.integers(0, g.size - 1))] = data.draw(st.sampled_from([big, -big]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
        update_scaling(state, g)
    _assert_unchanged(state, snapshot)


def _update_scaling_reference(state, g_k):
    """``update_scaling`` before its finiteness test became one w.w: the
    elementwise test on every call, and ``g_k`` converted with np.asarray."""
    g_k = np.asarray(g_k, dtype=float)
    if g_k.shape != (state.n,):
        raise DimensionMismatch(f"gradient has shape {g_k.shape}, expected ({state.n},)")
    k = state.k + 1
    strat = state.strategy
    kind = strat.kind
    acc, agg = state.acc, state.agg
    if kind in ("adagrad-comp", "ewma-comp"):
        acc = (EWMA_BETA2 * acc if kind == "ewma-comp" else acc) + g_k * g_k
        w = (strat.varsigma + acc) ** strat.mu
    elif kind in ("adagrad-agg", "ewma-agg"):
        agg = (EWMA_BETA2 * agg if kind == "ewma-agg" else agg) + float(g_k.dot(g_k))
        w = np.full(state.n, (strat.varsigma + agg) ** strat.mu)
    elif kind == "maxg-comp":
        acc = np.maximum(acc, np.abs(g_k))
        w = (k + 1) ** strat.nu * acc
    else:
        agg = max(euclidean_norm(g_k), agg)
        w = np.full(state.n, (k + 1) ** strat.nu * agg)
    if np.count_nonzero(np.isfinite(w)) != w.size:
        if not np.isfinite(g_k).all():
            raise NonFiniteInput("gradient contains NaN or inf")
        raise NonFiniteValue(f"{kind} accumulator overflowed at iteration {k}")
    state.k, state.acc, state.agg = k, acc, agg
    return w


#: zeros of both signs, subnormals, values near overflow and non-finite values
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e154, -1.3e154, 1.4e154,
               1e307, -1.7e308, np.finfo(float).max, np.nan, np.inf, -np.inf)


def edge_floats():
    return st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_subnormal=True))


def _outcome(update, state, g):
    """w's bytes or the exception's type, and the state afterwards."""
    try:
        got = update(state, g).tobytes()
    except (NonFiniteInput, NonFiniteValue) as exc:
        got = type(exc)
    acc = None if state.acc is None else state.acc.tobytes()
    return got, state.k, acc, state.agg


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_update_matches_the_elementwise_finiteness_test_byte_for_byte(kind, data):
    n = data.draw(st.integers(1, 4))
    steps = data.draw(st.integers(1, 5))
    history = data.draw(st.lists(st.lists(edge_floats(), min_size=n, max_size=n),
                                 min_size=steps, max_size=steps))
    state, reference = init_scaling(_strategy(kind), n), init_scaling(_strategy(kind), n)
    # under an errstate, as in the driver: near-overflow values warn in both
    with np.errstate(all="ignore"):
        for g in np.array(history, dtype=float):
            assert _outcome(update_scaling, state, g) == _outcome(
                _update_scaling_reference, reference, g)
