"""Differentiable test problems, their oracles, and the per-run noisy oracle.

The suite is a low-dimensional subset of a classical unconstrained testing
collection (More-Garbow-Hillstrom / CUTE style definitions), each problem
carrying value/gradient/Hessian oracles, a standard starting point and a
reference optimal value used by the success criterion of the benchmark
harness.  Each of the 24 sums of squares is defined once, by its residuals
and their Jacobian, and ``_least_squares`` derives f = r.r and g = 2 J'r
from them.  ``NoisyProblem`` draws the noise of each query from its own
Philox block, keyed by a seed in [0, 2**128).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonFiniteValue,
    UnknownProblem,
)

WANT_KINDS = ("value", "gradient", "hessian")

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


def fd_hessian(grad: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central finite differences of a gradient, symmetrised.

    Step per coordinate is sqrt(machine eps) * (1 + |x_i|).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = _SQRT_EPS * (1.0 + np.abs(x))
    cols = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h[j]
        cols[:, j] = (grad(x + e) - grad(x - e)) / (2.0 * h[j])
    return 0.5 * (cols + cols.T)


@dataclass(frozen=True)
class Problem:
    """A smooth unconstrained problem with value/gradient/Hessian oracles."""

    name: str
    n: int
    x0: np.ndarray
    f: Callable[[np.ndarray], float]
    g: Callable[[np.ndarray], np.ndarray]
    h: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_ref: Optional[float] = None

    def value(self, x) -> float:
        return self.evaluate(x, ("value",))["value"]

    def evaluate(self, x, want: Iterable[str]) -> dict:
        """Evaluate the requested oracles at ``x``.

        Returns a dict holding exactly the requested quantities.  Non-finite
        outputs raise :class:`NonFiniteValue` rather than propagating silently.
        """
        x, want = self._checked(x, want)
        with np.errstate(all="ignore"):
            return self._query(x, want)

    def _query(self, x: np.ndarray, want: tuple) -> dict:
        """Evaluate a validated query under the caller's ``np.errstate``; a
        non-finite output raises :class:`NonFiniteValue`."""
        out = self._outputs(x, want)
        kind = _nonfinite(out)
        if kind is not None:
            raise NonFiniteValue(f"{self.name}: {kind} overflowed at the queried point")
        return out

    def _checked(self, x, want):
        """The query validated: ``x`` as a float n-vector, ``want`` as a tuple."""
        want = tuple(want)
        if not want:
            raise InvalidParameter("want must be a nonempty subset of value/gradient/hessian")
        for kind in want:
            if kind not in WANT_KINDS:
                raise InvalidParameter(f"unknown oracle kind {kind!r}")
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(
                f"{self.name}: point has shape {x.shape}, expected ({self.n},)"
            )
        return x, want

    def _outputs(self, x, want) -> dict:
        """Oracle outputs at a validated query, shapes checked, finiteness not."""
        out = {}
        if "value" in want:
            out["value"] = float(self.f(x))
        if "gradient" in want:
            out["gradient"] = g = np.asarray(self.g(x), dtype=float)
            if g.shape != (self.n,):
                raise DimensionMismatch(f"{self.name}: gradient oracle returned wrong shape")
        if "hessian" in want:
            hess = self.h(x) if self.h is not None else fd_hessian(self.g, x)
            out["hessian"] = np.asarray(hess, dtype=float)
            if out["hessian"].shape != (self.n, self.n):
                raise DimensionMismatch(f"{self.name}: hessian oracle returned wrong shape")
        return out


def _nonfinite(out: dict) -> Optional[str]:
    """The first quantity of ``out`` holding a NaN or inf, else None.

    Runs under the caller's ``np.errstate``: a gradient is finite when g.g
    is, and only a g.g that overflows or is NaN needs the elementwise test.
    """
    for kind, val in out.items():
        if kind == "value":
            finite = math.isfinite(val)
        elif kind == "gradient":
            finite = val.dot(val) < math.inf or np.isfinite(val).all()
        else:
            finite = np.isfinite(val).all()
        if not finite:
            return kind
    return None


def noise_setting(level: float, seed: int) -> tuple:
    """``(level, seed)`` as a finite float >= 0 and an int in [0, 2**128), the
    128-bit Philox key (a wider seed would alias one inside), else an error."""
    if not 0.0 <= level < math.inf:  # NaN included
        raise InvalidParameter(f"noise level must be finite and >= 0, got {level}")
    try:
        index = operator.index(seed)
    except TypeError:
        raise InvalidParameter(f"noise seed must be an integer, got {seed!r}") from None
    if not 0 <= index < 2**128:
        raise InvalidParameter(f"noise seed must lie in [0, 2**128), got {seed}")
    return float(level), index


class NoisyProblem:
    """The per-run oracle of a problem: call counts and relative noise.

    ``counts`` holds the number of calls per oracle kind, including calls
    that overflowed, and under ``fd_gradient`` the 2n gradient calls that
    each Hessian query spends on a problem without an analytic Hessian.
    Those finite differences use the noise-free gradient; the noise is
    applied to the differenced Hessian, as to any other output.  Every
    oracle output component y is replaced by ``y * (1 + level * xi)``
    where xi is a standard normal from a Philox stream keyed by the seed, an
    integer in [0, 2**128).
    The block of a query and quantity starts at counter ``[0, 0, quantity,
    query]`` and its draws advance only the low words, so no block reaches
    into another.  Within one query the draws are assigned to components in
    order, so which quantities are requested together does not change any
    one quantity's noise.  Two instances with equal (base, level, seed)
    produce identical outputs for identical query sequences.  At level 0 the
    base outputs are returned untouched, so the same class is the noiseless
    oracle.
    """

    _KIND_INDEX = {"value": 0, "gradient": 1, "hessian": 2}

    def __init__(self, base: Problem, level: float, seed: int):
        self.base = base
        self.level, self.seed = noise_setting(level, seed)
        self.counts = dict.fromkeys(WANT_KINDS + ("fd_gradient",), 0)
        self._query_index = 0
        key = [self.seed & 0xFFFFFFFFFFFFFFFF, self.seed >> 64]
        self._bitgen = np.random.Philox(counter=[0, 0, 0, 0], key=key)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state  # no draws yet, so the buffer is empty
        self._counter = self._state["state"]["counter"]

    def _draws(self, query: int, kind: str, size=None):
        """Standard normals of the fresh (query, quantity) block: ``size`` of
        them, or one float when ``size`` is None (the same first draw)."""
        self._counter[2], self._counter[3] = self._KIND_INDEX[kind], query
        self._bitgen.state = self._state
        return self._gen.standard_normal(size)

    def evaluate(self, x, want: Iterable[str]) -> dict:
        """Validate the query, then evaluate it as the solvers do."""
        x, want = self.base._checked(x, want)
        with np.errstate(all="ignore"):
            return self._query(x, want)

    def _query(self, x: np.ndarray, want: tuple) -> dict:
        """Count, evaluate and perturb a validated query, under the caller's
        ``np.errstate``; a non-finite output raises :class:`NonFiniteValue`."""
        counts, base, level = self.counts, self.base, self.level
        for kind in want:
            counts[kind] += 1
        if base.h is None and "hessian" in want:
            counts["fd_gradient"] += 2 * base.n
        out = noisy = base._outputs(x, want)
        query = self._query_index
        if level != 0.0:
            noisy = {}
            for kind, val in out.items():
                if kind == "value":
                    xi = self._draws(query, kind)
                else:
                    xi = self._draws(query, kind, val.size).reshape(val.shape)
                noisy[kind] = val * (1.0 + level * xi)
        bad = _nonfinite(noisy)
        if bad is not None:
            if _nonfinite(out) is None:  # only a finite base output uses up its query
                self._query_index += 1
            raise NonFiniteValue(f"{base.name}: {bad} is non-finite at the queried point")
        self._query_index = query + 1
        return noisy


def diag_quadratic(lambdas, x0, name: str = "diagquad") -> Problem:
    """Convex quadratic f(x) = 0.5 * sum(lambda_i x_i^2), used as a testbed
    with exactly known Lipschitz constant (max lambda) and optimum 0."""
    lam = np.asarray(lambdas, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if lam.shape != x0.shape:
        raise DimensionMismatch("lambdas and x0 must have equal length")
    if np.any(lam <= 0):
        raise InvalidParameter("quadratic testbed needs positive curvatures")
    return Problem(
        name=name,
        n=lam.size,
        x0=x0,
        f=lambda x: 0.5 * float(x @ (lam * x)),
        g=lambda x: lam * x,
        h=lambda x: np.diag(lam),
        f_ref=0.0,
    )


# ---------------------------------------------------------------------------
# suite definitions
# ---------------------------------------------------------------------------

_REGISTRY: dict = {}


def _register(builder):
    prob = builder()
    _REGISTRY[prob.name] = prob
    return builder


def _least_squares(name, x0, residuals, h, f_ref) -> Problem:
    """The sum-of-squares problem f = r.r, g = 2 J'r.

    ``residuals(x, jac)`` returns the residual vector r, or ``(r, J)`` with
    the Jacobian J[i, j] = dr_i/dx_j when ``jac`` is true.
    """
    def f(x):
        r = residuals(x, False)
        return float(r @ r)

    def g(x):
        r, jac = residuals(x, True)
        return 2.0 * jac.T @ r

    return Problem(name, x0.size, x0, f, g, h, f_ref)


@_register
def _arglina():
    n, m = 10, 20
    a = np.eye(m, n) - 2.0 / m  # r = A x - 1 is linear

    def residuals(x, jac):
        r = a @ x - 1.0
        return (r, a) if jac else r

    def h(x):
        return 2.0 * np.eye(n)

    return _least_squares("arglina", np.ones(n), residuals, h, 10.0)


@_register
def _arwhead():
    n = 10

    def f(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        return float(np.sum(t**2 - 4.0 * x[:-1] + 3.0))

    def g(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        out = np.zeros(n)
        out[:-1] = 4.0 * x[:-1] * t - 4.0
        out[-1] = 4.0 * x[-1] * np.sum(t)
        return out

    def h(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        out = np.zeros((n, n))
        out[np.arange(n - 1), np.arange(n - 1)] = 4.0 * (3.0 * x[:-1] ** 2 + x[-1] ** 2)
        out[:-1, -1] = out[-1, :-1] = 8.0 * x[:-1] * x[-1]
        out[-1, -1] = np.sum(4.0 * (x[:-1] ** 2 + 3.0 * x[-1] ** 2))
        return out

    return Problem("arwhead", n, np.ones(n), f, g, h, 0.0)


@_register
def _bard():
    y = np.array([0.14, 0.18, 0.22, 0.25, 0.29, 0.32, 0.35, 0.39, 0.37,
                  0.58, 0.73, 0.96, 1.34, 2.10, 4.39])
    u = np.arange(1.0, 16.0)
    v = 16.0 - u
    w = np.minimum(u, v)

    def residuals(x, jac):
        d = v * x[1] + w * x[2]
        r = y - (x[0] + u / d)
        if not jac:
            return r
        return r, np.column_stack((np.full(u.size, -1.0), u * v / d**2, u * w / d**2))

    return _least_squares("bard", np.ones(3), residuals, None, 8.21487730657896e-3)


@_register
def _beale():
    y = np.array([1.5, 2.25, 2.625])
    p = np.array([1.0, 2.0, 3.0])

    def residuals(x, jac):
        r = y - x[0] * (1.0 - x[1] ** p)
        if not jac:
            return r
        return r, np.column_stack((-(1.0 - x[1] ** p), p * x[0] * x[1] ** (p - 1.0)))

    def h(x):
        # 2 J'J plus 2 sum_i r_i times the Hessian of r_i
        r, jac = residuals(x, True)
        out = 2.0 * jac.T @ jac
        out[0, 1] = out[1, 0] = out[0, 1] + 2.0 * float(r @ (p * x[1] ** (p - 1.0)))
        out[1, 1] += 2.0 * float(r @ (p * (p - 1.0) * x[0] * x[1] ** (p - 2.0)))
        return out

    return _least_squares("beale", np.array([1.0, 1.0]), residuals, h, 0.0)


@_register
def _booth():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    b = np.array([7.0, 5.0])

    def residuals(x, jac):
        r = a @ x - b
        return (r, a) if jac else r

    def h(x):
        return 2.0 * a.T @ a

    return _least_squares("booth", np.zeros(2), residuals, h, 0.0)


@_register
def _box3():
    t = 0.1 * np.arange(1.0, 11.0)
    c = np.exp(-t) - np.exp(-10.0 * t)

    def residuals(x, jac):
        e0, e1 = np.exp(-t * x[0]), np.exp(-t * x[1])
        r = e0 - e1 - x[2] * c
        if not jac:
            return r
        return r, np.column_stack((-t * e0, t * e1, -c))

    return _least_squares("box3", np.array([0.0, 10.0, 20.0]), residuals, None, 0.0)


@_register
def _brownal():
    n = 10
    # rows i < n-1 of the Jacobian: dr_i/dx_j = 1 + delta_ij
    linear = np.eye(n) + 1.0
    # row j: the indices of x without x_j
    others = np.array([[i for i in range(n) if i != j] for j in range(n)])

    def residuals(x, jac):
        r = x + x.sum() - (n + 1.0)
        r[-1] = x.prod() - 1.0
        if not jac:
            return r
        out = linear.copy()
        out[-1] = x[others].prod(axis=1)  # robust at zero coordinates
        return r, out

    return _least_squares("brownal", np.full(n, 0.5), residuals, None, 0.0)


@_register
def _broyden3d():
    n = 10
    # the linear coupling: dr_i/dx_{i-1} = -1, dr_i/dx_{i+1} = -2
    band = -np.eye(n, k=-1) - 2.0 * np.eye(n, k=1)

    def residuals(x, jac):
        r = (3.0 - 2.0 * x) * x + band @ x + 1.0
        return (r, band + np.diag(3.0 - 4.0 * x)) if jac else r

    return _least_squares("broyden3d", -np.ones(n), residuals, None, 0.0)


@_register
def _chebyqad():
    n = 10
    integrals = np.array([0.0 if j % 2 == 1 else -1.0 / (j * j - 1.0)
                          for j in range(1, n + 1)])

    def residuals(x, jac):
        # row j: the shifted Chebyshev polynomial T~_{j+1} at each x_i
        z = 2.0 * x - 1.0
        z2 = 2.0 * z
        tv = np.empty((n, n))
        tv[0] = z
        tprev = np.ones_like(x)
        for j in range(1, n):
            tv[j] = z2 * tv[j - 1] - tprev
            tprev = tv[j - 1]
        r = tv.mean(axis=1) - integrals
        if not jac:
            return r
        tv4 = 4.0 * tv
        # row j: the derivative of T~_{j+1} at each x_i
        dv = np.empty((n, n))
        dv[0] = 2.0
        dprev = np.zeros_like(x)
        for j in range(1, n):
            dv[j] = tv4[j - 1] + z2 * dv[j - 1] - dprev
            dprev = dv[j - 1]
        return r, dv / n

    x0 = np.arange(1.0, n + 1.0) / (n + 1.0)
    # f_ref comes from a reference run, not from the literature
    return _least_squares("chebyqad", x0, residuals, None, 4.77271369637534e-3)


@_register
def _cliff():
    def f(x):
        return float((0.01 * (x[0] - 3.0)) ** 2 - (x[0] - x[1]) + np.exp(20.0 * (x[0] - x[1])))

    def g(x):
        e = np.exp(20.0 * (x[0] - x[1]))
        return np.array([2e-4 * (x[0] - 3.0) - 1.0 + 20.0 * e, 1.0 - 20.0 * e])

    def h(x):
        e = np.exp(20.0 * (x[0] - x[1]))
        return np.array([[2e-4 + 400.0 * e, -400.0 * e], [-400.0 * e, 400.0 * e]])

    return Problem("cliff", 2, np.array([0.0, -1.0]), f, g, h, 0.19978661367770)


@_register
def _cube():
    def residuals(x, jac):
        r = np.array([x[0] - 1.0, 10.0 * (x[1] - x[0] ** 3)])
        return (r, np.array([[1.0, 0.0], [-30.0 * x[0] ** 2, 10.0]])) if jac else r

    def h(x):
        r = x[1] - x[0] ** 3
        return np.array([
            [2.0 - 1200.0 * r * x[0] + 1800.0 * x[0] ** 4, -600.0 * x[0] ** 2],
            [-600.0 * x[0] ** 2, 200.0],
        ])

    return _least_squares("cube", np.array([-1.2, 1.0]), residuals, h, 0.0)


@_register
def _dixmaana():
    n, m = 12, 4
    alpha, gamma, delta = 1.0, 0.125, 0.125

    def f(x):
        val = 1.0 + alpha * np.sum(x**2)
        val += gamma * np.sum(x[: 2 * m] ** 2 * x[m : 3 * m] ** 4)
        val += delta * np.sum(x[:m] * x[2 * m : 3 * m])
        return float(val)

    def g(x):
        out = 2.0 * alpha * x
        out[: 2 * m] += 2.0 * gamma * x[: 2 * m] * x[m : 3 * m] ** 4
        out[m : 3 * m] += 4.0 * gamma * x[: 2 * m] ** 2 * x[m : 3 * m] ** 3
        out[:m] += delta * x[2 * m : 3 * m]
        out[2 * m : 3 * m] += delta * x[:m]
        return out

    return Problem("dixmaana", n, 2.0 * np.ones(n), f, g, None, 1.0)


@_register
def _dqartic():
    n = 10
    i = np.arange(1.0, n + 1.0)

    def residuals(x, jac):
        d = x - i
        return (d * d, np.diag(2.0 * d)) if jac else d * d

    def h(x):
        return np.diag(12.0 * (x - i) ** 2)

    return _least_squares("dqartic", 2.0 * np.ones(n), residuals, h, 0.0)


@_register
def _freuroth():
    n = 4
    # residuals i and i + n - 1 depend on x_i with slope 1 and on x_{i+1}
    at_a, at_b = np.tile(np.eye(n - 1, n), (2, 1)), np.tile(np.eye(n - 1, n, k=1), (2, 1))

    def residuals(x, jac):
        a, b = x[:-1], x[1:]
        r1 = -13.0 + a + ((5.0 - b) * b - 2.0) * b
        r2 = -29.0 + a + ((b + 1.0) * b - 14.0) * b
        r = np.concatenate((r1, r2))
        if not jac:
            return r
        d = np.concatenate((10.0 * b - 3.0 * b**2 - 2.0, 3.0 * b**2 + 2.0 * b - 14.0))
        return r, at_a + d[:, None] * at_b

    x0 = np.array([0.5, -2.0, 0.5, -2.0])
    # f_ref comes from a reference run, not from the literature
    return _least_squares("freuroth", x0, residuals, None, 2.85503407977690)


@_register
def _helix():
    def residuals(x, jac):
        r2 = x[0] ** 2 + x[1] ** 2
        rad = np.sqrt(r2)
        # the angle of (x1, x2) over 2 pi, in (-1/4, 3/4]
        theta = math.atan(x[1] / x[0]) / (2.0 * math.pi) + (0.0 if x[0] > 0 else 0.5)
        r = np.array([10.0 * (x[2] - 10.0 * theta), 10.0 * (rad - 1.0), x[2]])
        if not jac:
            return r
        c = 50.0 / (math.pi * r2)  # -100 dtheta/dx = c (x2, -x1)
        return r, np.array([[c * x[1], -c * x[0], 10.0],
                            [10.0 * x[0] / rad, 10.0 * x[1] / rad, 0.0], [0.0, 0.0, 1.0]])

    return _least_squares("helix", np.array([-1.0, 0.0, 0.0]), residuals, None, 0.0)


@_register
def _hilbert():
    n = 10
    i = np.arange(1, n + 1)
    a = 1.0 / (i[:, None] + i[None, :] - 1.0)

    def f(x):
        return 0.5 * float(x @ (a @ x))

    def g(x):
        return a @ x

    def h(x):
        return a.copy()

    return Problem("hilbert", n, np.ones(n), f, g, h, 0.0)


@_register
def _integreq():
    n = 10
    hstep = 1.0 / (n + 1.0)
    t = hstep * np.arange(1.0, n + 1.0)

    # hstep times the kernel weight of t_j in residual i
    hw = hstep * np.where(
        np.arange(n)[:, None] >= np.arange(n)[None, :],
        (1.0 - t)[:, None] * t[None, :],
        t[:, None] * (1.0 - t)[None, :],
    )
    eye = np.eye(n)

    def residuals(x, jac):
        u = (x + t + 1.0) ** 3
        lower = np.cumsum(t * u)                      # sum_{j<=i} t_j u_j
        upper = np.cumsum(((1.0 - t) * u)[::-1])[::-1]  # sum_{j>=i} (1-t_j) u_j
        upper_strict = upper - (1.0 - t) * u
        r = x + hstep * ((1.0 - t) * lower + t * upper_strict) / 2.0
        if not jac:
            return r
        du = 3.0 * (x + t + 1.0) ** 2
        return r, eye + hw * du[None, :] / 2.0

    return _least_squares("integreq", t * (t - 1.0), residuals, None, 0.0)


@_register
def _jensmp():
    i = np.arange(1.0, 11.0)

    def residuals(x, jac):
        e0, e1 = np.exp(i * x[0]), np.exp(i * x[1])
        r = 2.0 + 2.0 * i - (e0 + e1)
        return (r, np.column_stack((-i * e0, -i * e1))) if jac else r

    return _least_squares("jensmp", np.array([0.3, 0.4]), residuals, None, 124.362182355615)


@_register
def _kowosb():
    y = np.array([0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627,
                  0.0456, 0.0342, 0.0323, 0.0235, 0.0246])
    u = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 0.167, 0.125, 0.1,
                  0.0833, 0.0714, 0.0625])

    def residuals(x, jac):
        den = u * (u + x[2]) + x[3]
        q = u * (u + x[1]) / den  # the model over x[0]
        r = y - x[0] * q
        if not jac:
            return r
        return r, -np.column_stack((q, x[0] * u / den, -x[0] * q * u / den, -x[0] * q / den))

    x0 = np.array([0.25, 0.39, 0.415, 0.39])
    return _least_squares("kowosb", x0, residuals, None, 3.07505603849239e-4)


@_register
def _morebv():
    n = 12
    hstep = 1.0 / (n + 1.0)
    t = hstep * np.arange(1.0, n + 1.0)

    # the linear coupling: dr_i/dx_{i-1} = dr_i/dx_{i+1} = -1
    band = -np.eye(n, k=-1) - np.eye(n, k=1)

    def residuals(x, jac):
        r = 2.0 * x + band @ x + hstep**2 * (x + t + 1.0) ** 3 / 2.0
        if not jac:
            return r
        return r, band + np.diag(2.0 + 1.5 * hstep**2 * (x + t + 1.0) ** 2)

    return _least_squares("morebv", t * (t - 1.0), residuals, None, 0.0)


@_register
def _osborneb():
    y = np.array([
        1.366, 1.191, 1.112, 1.013, 0.991, 0.885, 0.831, 0.847, 0.786, 0.725,
        0.746, 0.679, 0.608, 0.655, 0.616, 0.606, 0.602, 0.626, 0.651, 0.724,
        0.649, 0.649, 0.694, 0.644, 0.624, 0.661, 0.612, 0.558, 0.533, 0.495,
        0.500, 0.423, 0.395, 0.375, 0.372, 0.391, 0.396, 0.405, 0.428, 0.429,
        0.523, 0.562, 0.607, 0.653, 0.672, 0.708, 0.633, 0.668, 0.645, 0.632,
        0.591, 0.559, 0.597, 0.625, 0.739, 0.710, 0.729, 0.720, 0.636, 0.581,
        0.428, 0.292, 0.162, 0.098, 0.054,
    ])
    t = np.arange(65.0) / 10.0

    def residuals(x, jac):
        # the model: x[0] exp(-t x[4]) plus three Gaussians with amplitudes
        # x[1:4], widths x[5:8] and centres x[8:11]
        d = t[:, None] - x[8:11]
        e = np.column_stack((np.exp(-t * x[4]), np.exp(-(d**2) * x[5:8])))
        r = y - e @ x[:4]
        if not jac:
            return r
        a = x[1:4] * e[:, 1:]
        # minus the model's derivatives
        return r, -np.column_stack((e, -t * x[0] * e[:, 0], -(d**2) * a, 2.0 * d * x[5:8] * a))

    x0 = np.array([1.3, 0.65, 0.65, 0.7, 0.6, 3.0, 5.0, 7.0, 2.0, 4.5, 5.5])
    return _least_squares("osborneb", x0, residuals, None, 4.01377362935477e-2)


@_register
def _penalty1():
    n = 10
    a = 1e-5
    sa = math.sqrt(a)
    lin = np.vstack((sa * np.eye(n), np.zeros(n)))  # the last row, 2 x, varies

    def residuals(x, jac):
        r = np.concatenate((sa * (x - 1.0), [x @ x - 0.25]))
        if not jac:
            return r
        out = lin.copy()
        out[-1] = 2.0 * x
        return r, out

    def h(x):
        s = np.sum(x**2) - 0.25
        return (2.0 * a + 4.0 * s) * np.eye(n) + 8.0 * np.outer(x, x)

    return _least_squares("penalty1", np.arange(1.0, n + 1.0), residuals, h, 7.08765146709037e-5)


@_register
def _powellsg():
    n, nb = 12, 3
    s5, s10 = math.sqrt(5.0), math.sqrt(10.0)
    # row t * nb + j is residual kind t of block j, with slopes[t] in block j's
    # variables; lin viewed as (kind, block, block, slot), the slopes of kind 2
    # in slots 1 and 2 and of kind 3 in slots 0 and 3 vary with x
    slopes = [[1.0, 10.0, 0.0, 0.0], [0.0, 0.0, s5, -s5], [0.0] * 4, [0.0] * 4]
    lin = np.einsum("tc,jk->tjkc", slopes, np.eye(nb)).reshape(-1, n)
    vary = np.ravel_multi_index(([[2], [2], [3], [3]], *np.diag_indices(nb), [[1], [2], [0], [3]]),
                                (4, nb, nb, 4)).ravel()

    def residuals(x, jac):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        r = np.concatenate((a + 10.0 * b, s5 * (c - d), (b - 2.0 * c) ** 2, s10 * (a - d) ** 2))
        if not jac:
            return r
        p, q = 2.0 * (b - 2.0 * c), 2.0 * s10 * (a - d)
        out = lin.copy()
        out.flat[vary] = np.concatenate((p, -2.0 * p, q, -q))
        return r, out

    def h(x):
        out = np.zeros((n, n))
        for k in range(0, n, 4):
            a, b, c, d = x[k], x[k + 1], x[k + 2], x[k + 3]
            q = 120.0 * (a - d) ** 2
            p = 12.0 * (b - 2.0 * c) ** 2
            blk = np.array([
                [2.0 + q, 20.0, 0.0, -q],
                [20.0, 200.0 + p, -2.0 * p, 0.0],
                [0.0, -2.0 * p, 10.0 + 4.0 * p, -10.0],
                [-q, 0.0, -10.0, 10.0 + q],
            ])
            out[k : k + 4, k : k + 4] = blk
        return out

    x0 = np.tile([3.0, -1.0, 0.0, 1.0], nb)
    return _least_squares("powellsg", x0, residuals, h, 0.0)


@_register
def _rosenbr():
    n = 10
    # rows i < n-1: 10 (x_{i+1} - x_i^2), whose slope in x_i varies; rows n-1+i: 1 - x_i
    lin = np.vstack((10.0 * np.eye(n - 1, n, k=1), -np.eye(n - 1, n)))

    def residuals(x, jac):
        a = x[:-1]
        r = np.concatenate((10.0 * (x[1:] - a**2), 1.0 - a))
        if not jac:
            return r
        out = lin.copy()
        out.flat[: (n - 1) * (n + 1) : n + 1] = -20.0 * a
        return r, out

    def h(x):
        r = x[1:] - x[:-1] ** 2
        out = np.zeros((n, n))
        idx = np.arange(n - 1)
        out[idx, idx] += -400.0 * r + 800.0 * x[:-1] ** 2 + 2.0
        out[idx + 1, idx + 1] += 200.0
        out[idx, idx + 1] = out[idx + 1, idx] = -400.0 * x[:-1]
        return out

    x0 = np.tile([-1.2, 1.0], n // 2)
    return _least_squares("rosenbr", x0, residuals, h, 0.0)


@_register
def _sisser():
    def f(x):
        return float(3.0 * x[0] ** 4 - 2.0 * x[0] ** 2 * x[1] ** 2 + 3.0 * x[1] ** 4)

    def g(x):
        return np.array([
            12.0 * x[0] ** 3 - 4.0 * x[0] * x[1] ** 2,
            -4.0 * x[0] ** 2 * x[1] + 12.0 * x[1] ** 3,
        ])

    def h(x):
        return np.array([
            [36.0 * x[0] ** 2 - 4.0 * x[1] ** 2, -8.0 * x[0] * x[1]],
            [-8.0 * x[0] * x[1], -4.0 * x[0] ** 2 + 36.0 * x[1] ** 2],
        ])

    return Problem("sisser", 2, np.array([1.0, 0.1]), f, g, h, 0.0)


@_register
def _tridia():
    n = 10
    i = np.arange(2.0, n + 1.0)
    w = np.sqrt(i)
    # r = A x - e1: x_1 - 1, then sqrt(i) (2 x_i - x_{i-1}) for i = 2..n
    a = np.diag(np.append(1.0, 2.0 * w)) - np.diag(w, k=-1)

    def residuals(x, jac):
        r = a @ x
        r[0] -= 1.0
        return (r, a) if jac else r

    def h(x):
        out = np.zeros((n, n))
        out[0, 0] = 2.0
        idx = np.arange(1, n)
        out[idx, idx] += 8.0 * i
        out[idx - 1, idx - 1] += 2.0 * i
        out[idx, idx - 1] = out[idx - 1, idx] = -4.0 * i
        return out

    return _least_squares("tridia", np.ones(n), residuals, h, 0.0)


@_register
def _vardim():
    n = 10
    i = np.arange(1.0, n + 1.0)
    lin = np.vstack((np.eye(n), i, np.zeros(n)))  # the last row, 2 s i, varies

    def residuals(x, jac):
        s = i @ (x - 1.0)
        r = np.concatenate((x - 1.0, (s, s * s)))
        if not jac:
            return r
        out = lin.copy()
        out[-1] = 2.0 * s * i
        return r, out

    def h(x):
        s = float(i @ (x - 1.0))
        return 2.0 * np.eye(n) + (2.0 + 12.0 * s**2) * np.outer(i, i)

    return _least_squares("vardim", 1.0 - i / n, residuals, h, 0.0)


@_register
def _watson():
    n = 12
    t = np.arange(1.0, 30.0) / 29.0
    powers = t[:, None] ** np.arange(n)[None, :]          # t^(j-1)
    dpowers = np.arange(n)[None, :] * t[:, None] ** np.arange(-1, n - 1)[None, :]  # d/dt

    def residuals(x, jac):
        # 29 residuals at t_i, then x_1 and x_2 - x_1^2 - 1
        bsum = powers @ x
        r = np.concatenate((dpowers @ x - bsum**2 - 1.0, [x[0], x[1] - x[0] ** 2 - 1.0]))
        if not jac:
            return r
        out = np.zeros((31, n))
        out[:29] = dpowers - 2.0 * bsum[:, None] * powers
        out[29, 0] = out[30, 1] = 1.0
        out[30, 0] = -2.0 * x[0]
        return r, out

    return _least_squares("watson", np.zeros(n), residuals, None, 4.72238110338512e-10)


@_register
def _woods():
    n, nb = 12, 3
    s90, s10, s01 = math.sqrt(90.0), math.sqrt(10.0), math.sqrt(0.1)
    # rows and varying slopes as in powellsg: kind 0 varies in slot 0, kind 2 in slot 2
    slopes = [[0.0, 10.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, s90],
              [0.0, 0.0, -1.0, 0.0], [0.0, s10, 0.0, s10], [0.0, s01, 0.0, -s01]]
    lin = np.einsum("tc,jk->tjkc", slopes, np.eye(nb)).reshape(-1, n)
    vary = np.ravel_multi_index(([[0], [2]], *np.diag_indices(nb), [[0], [2]]),
                                (6, nb, nb, 4)).ravel()

    def residuals(x, jac):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        r = np.concatenate((10.0 * (b - a**2), 1.0 - a, s90 * (d - c**2), 1.0 - c,
                            s10 * (b + d - 2.0), s01 * (b - d)))
        if not jac:
            return r
        out = lin.copy()
        out.flat[vary] = np.concatenate((-20.0 * a, -2.0 * s90 * c))
        return r, out

    def h(x):
        out = np.zeros((n, n))
        for k in range(0, n, 4):
            a, b, c, d = x[k], x[k + 1], x[k + 2], x[k + 3]
            blk = np.array([
                [-400.0 * (b - a**2) + 800.0 * a**2 + 2.0, -400.0 * a, 0.0, 0.0],
                [-400.0 * a, 220.2, 0.0, 19.8],
                [0.0, 0.0, -360.0 * (d - c**2) + 720.0 * c**2 + 2.0, -360.0 * c],
                [0.0, 19.8, -360.0 * c, 200.2],
            ])
            out[k : k + 4, k : k + 4] = blk
        return out

    x0 = np.tile([-3.0, -1.0, -3.0, -1.0], nb)
    return _least_squares("woods", x0, residuals, h, 0.0)


# ---------------------------------------------------------------------------
# registry access
# ---------------------------------------------------------------------------

def suite_names() -> list:
    """Names of every implemented suite problem, sorted."""
    return sorted(_REGISTRY)


def load_suite(names: Optional[Iterable[str]] = None) -> list:
    """Return the requested problems (all of them when ``names`` is None)."""
    if names is None:
        return [_REGISTRY[name] for name in suite_names()]
    out = []
    for name in names:
        if name not in _REGISTRY:
            raise UnknownProblem(f"no problem named {name!r} in the registry")
        out.append(_REGISTRY[name])
    return out
