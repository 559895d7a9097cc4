import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offo.errors import DimensionMismatch, InvalidParameter, NonFiniteInput
from offo.model import KAPPA_B, HessianModel, apply_model, update_model
from offo.problems import Problem


def dense_of(model, n):
    return np.column_stack([apply_model(model, e) for e in np.eye(n)])


def dense_bfgs_update(B, s, y):
    """Textbook dense BFGS update of B with pair (s, y)."""
    Bs = B @ s
    return B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (y @ s)


class TestBB:
    def test_formula(self):
        m = HessianModel("bb", 2)
        update_model(m, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        np.testing.assert_array_equal(dense_of(m, 2), 0.5 * np.eye(2))

    def test_small_curvature_keeps_previous(self):
        m = HessianModel("bb", 2)
        s = np.array([1.0, 0.0])
        update_model(m, s, 2.0 * s)
        update_model(m, s, 1e-20 * s)  # y's = 1e-20 ||s||^2 < threshold
        assert m.sigma == 0.5

    def test_zero_step_ignored(self):
        m = HessianModel("bb", 2)
        update_model(m, np.zeros(2), np.zeros(2))
        assert m.is_zero

    def test_scalar_apply(self):
        m = HessianModel("bb", 2)
        update_model(m, np.array([2.0, 0.0]), np.array([1.0, 0.0]))  # sigma = 4/2
        np.testing.assert_array_equal(apply_model(m, np.array([2.0, 4.0])), [4.0, 8.0])


class TestZeroAndErrors:
    def test_zero_kind(self):
        m = HessianModel("zero", 2)
        update_model(m, np.ones(2), np.ones(2))
        np.testing.assert_array_equal(apply_model(m, np.array([5.0, -3.0])), [0.0, 0.0])
        assert m.is_zero and m.bnorm == 0.0

    def test_dimension_mismatch(self):
        m = HessianModel("zero", 2)
        with pytest.raises(DimensionMismatch):
            apply_model(m, np.ones(3))

    def test_nonfinite_pair(self):
        m = HessianModel("bb", 2)
        with pytest.raises(NonFiniteInput):
            update_model(m, np.array([np.inf, 0.0]), np.ones(2))

    def test_invalid_kind_and_cap(self):
        with pytest.raises(InvalidParameter):
            HessianModel("nope", 2)


class TestLBFGS:
    def test_single_pair_identity_direction(self):
        m = HessianModel("lbfgs", 2)
        s = np.array([1.0, 0.0])
        update_model(m, s, s)  # sigma = 1, secant pair (s, s)
        np.testing.assert_allclose(apply_model(m, s), s, atol=1e-14)

    @pytest.mark.parametrize("n,updates", [(1, 3), (2, 1), (2, 3), (3, 2), (4, 3), (6, 5)])
    def test_matches_dense_bfgs_oracle(self, n, updates):
        rng = np.random.default_rng(n * 100 + updates)
        m = HessianModel("lbfgs", n)
        pairs = []
        for _ in range(updates):
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if y @ s <= 1e-12:
                y = s + 0.1 * y  # keep curvature positive
            if y @ s <= 1e-12:
                y = s.copy()
            update_model(m, s, y)
            pairs.append((s, y))
        kept = pairs[-3:]
        s0, y0 = kept[-1][0], kept[-1][1]
        base = (s0 @ s0) / (y0 @ s0) * np.eye(n)
        dense = base
        for s, y in kept:
            dense = dense_bfgs_update(dense, s, y)
        np.testing.assert_allclose(dense_of(m, n), dense, rtol=1e-10, atol=1e-10)

    def test_secant_property_most_recent_pair(self):
        rng = np.random.default_rng(5)
        n = 5
        m = HessianModel("lbfgs", n)
        for _ in range(4):
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if y @ s <= 0:
                y = -y
            update_model(m, s, y)
        np.testing.assert_allclose(apply_model(m, s), y, rtol=1e-10)

    def test_overflowing_rebuild_keeps_previous_operator(self):
        m = HessianModel("lbfgs", 2)
        update_model(m, np.array([1.0, 0.0]), np.array([2.0, 0.5]))
        pairs, dense, scale, bnorm = list(m.pairs), m.dense.copy(), m.scale, m.bnorm
        with np.errstate(all="ignore"):  # y y' / y's = 1e600 in its corner
            update_model(m, np.array([0.0, 1.0]), np.array([1e300, 1.0]))
        assert len(m.pairs) == 1 and m.pairs[0] is pairs[0]
        np.testing.assert_array_equal(m.dense, dense)
        assert (m.scale, m.bnorm) == (scale, bnorm)

    def test_eviction_beyond_three_pairs(self):
        m = HessianModel("lbfgs", 3)
        rng = np.random.default_rng(1)
        for _ in range(7):
            s = rng.standard_normal(3)
            update_model(m, s, s + 0.5 * rng.standard_normal(3) * 0.01)
        assert len(m.pairs) == 3


class TestExact:
    def test_uses_problem_hessian(self):
        from offo.problems import diag_quadratic

        p = diag_quadratic([2.0, 3.0], [1.0, 1.0])
        m = HessianModel("exact", 2)
        update_model(m, None, None, x_next=np.array([0.5, 0.5]), problem=p)
        np.testing.assert_array_equal(dense_of(m, 2), np.diag([2.0, 3.0]))

    def test_symmetrised_under_noise(self):
        from offo.problems import NoisyProblem, diag_quadratic

        p = NoisyProblem(diag_quadratic([2.0, 3.0], [1.0, 1.0]), 0.3, 11)
        m = HessianModel("exact", 2)
        update_model(m, None, None, x_next=np.array([0.5, 0.5]), problem=p)
        dense = dense_of(m, 2)
        np.testing.assert_array_equal(dense, dense.T)


@pytest.mark.parametrize("kind", ["bb", "lbfgs", "exact"])
def test_symmetry_probe_20_vectors(kind):
    rng = np.random.default_rng(77)
    n = 6
    m = HessianModel(kind, n)
    if kind == "exact":
        from offo.problems import load_suite

        (p,) = load_suite(["kowosb"])
        m = HessianModel(kind, 4)
        n = 4
        update_model(m, None, None, x_next=p.x0, problem=p)
    else:
        for _ in range(4):
            s = rng.standard_normal(n)
            y = s + 0.3 * rng.standard_normal(n)
            if y @ s <= 0:
                y = s.copy()
            update_model(m, s, y)
    for _ in range(20):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        left = u @ apply_model(m, v)
        right = v @ apply_model(m, u)
        assert abs(left - right) <= 1e-12 * max(1.0, abs(left), abs(right))


@pytest.mark.parametrize("kind", ["bb", "lbfgs", "exact"])
def test_norm_cap_enforced(kind):
    rng = np.random.default_rng(3)
    n = 4
    m = HessianModel(kind, n)
    if kind == "exact":
        from offo.problems import diag_quadratic

        p = diag_quadratic([5.0 * KAPPA_B, 1.0, 1.0, 1.0], np.zeros(4))
        update_model(m, None, None, x_next=np.zeros(4), problem=p)
    else:
        for _ in range(3):
            s = rng.standard_normal(n)
            y = 50.0 * KAPPA_B * s + rng.standard_normal(n)
            update_model(m, s, y)
    # the stored norm respects the cap after enforcement
    assert m.bnorm <= KAPPA_B * (1.0 + 1e-8)
    # and a direct dense check agrees
    dense = dense_of(m, n)
    assert np.linalg.norm(dense, 2) <= KAPPA_B * (1.0 + 1e-6)


def _hessian_problem(a):
    """A problem whose Hessian is the fixed matrix ``a`` everywhere."""
    n = a.shape[0]
    return Problem(name="fixed-hessian", n=n, x0=np.zeros(n), f=lambda x: 0.5 * float(x @ a @ x),
                   g=lambda x: a @ x, h=lambda x: a)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["lbfgs", "exact"]), n=st.integers(1, 6),
       k=st.integers(1, 6), level=st.sampled_from([0.1, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_cap_is_exact_on_random_models(kind, n, k, level, seed):
    """||B||_2 <= KAPPA_B, and bnorm is ||B||_2, for random pair sets
    (lbfgs) and random symmetric Hessians (exact) around the cap."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = KAPPA_B * level * 10.0 ** rng.uniform(0.0, 0.3, n)
    if kind == "exact":
        eigs *= rng.choice([-1.0, 1.0], n)
    a = q @ np.diag(eigs) @ q.T
    m = HessianModel(kind, n)
    if kind == "exact":
        update_model(m, None, None, x_next=np.zeros(n), problem=_hessian_problem(a))
    else:
        for _ in range(k):
            s = rng.standard_normal(n)
            update_model(m, s, a @ s + rng.standard_normal(n))
    if kind == "lbfgs" and m.dense is not None:
        np.testing.assert_array_equal(m.dense, m.dense.T)
    norm = float(np.linalg.norm(dense_of(m, n), 2))
    assert norm <= KAPPA_B * (1.0 + 1e-12)
    assert m.bnorm == pytest.approx(norm, rel=1e-12, abs=0.0)
