"""Differentiable test problems, their oracles, and the per-run noisy oracle.

The suite is a low-dimensional subset of a classical unconstrained testing
collection (More-Garbow-Hillstrom / CUTE style definitions), each problem
carrying value/gradient/Hessian oracles, a standard starting point and a
reference optimal value used by the success criterion of the benchmark
harness.
"""

from __future__ import annotations

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
    f_ref_provenance: Optional[str] = None  # "literature" | "reference-run"

    def value(self, x) -> float:
        return self.evaluate(x, ("value",))["value"]

    def gradient(self, x) -> np.ndarray:
        return self.evaluate(x, ("gradient",))["gradient"]

    def hessian(self, x) -> np.ndarray:
        return self.evaluate(x, ("hessian",))["hessian"]

    def evaluate(self, x, want: Iterable[str]) -> dict:
        """Evaluate the requested oracles at ``x``.

        Returns a dict holding exactly the requested quantities.  Non-finite
        outputs raise :class:`NonFiniteValue` rather than propagating silently.
        """
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
        out = {}
        with np.errstate(all="ignore"):
            if "value" in want:
                out["value"] = float(self.f(x))
            if "gradient" in want:
                out["gradient"] = np.asarray(self.g(x), dtype=float)
                if out["gradient"].shape != (self.n,):
                    raise DimensionMismatch(f"{self.name}: gradient oracle returned wrong shape")
            if "hessian" in want:
                hess = self.h(x) if self.h is not None else fd_hessian(self.g, x)
                out["hessian"] = np.asarray(hess, dtype=float)
                if out["hessian"].shape != (self.n, self.n):
                    raise DimensionMismatch(f"{self.name}: hessian oracle returned wrong shape")
        for kind, val in out.items():
            if not np.isfinite(val).all():
                raise NonFiniteValue(f"{self.name}: {kind} overflowed at the queried point")
        return out


class NoisyProblem:
    """The per-run oracle of a problem: call counts and relative noise.

    ``counts`` holds the number of calls per oracle kind, including calls
    that overflowed.  Every oracle output component y is replaced by
    ``y * (1 + level * xi)`` where xi is a standard normal from a
    counter-based stream keyed by (seed, query index, quantity); within one
    query the draws are assigned to components in order, so which quantities
    are requested together does not change any one quantity's noise.  Two
    instances with equal (base, level, seed) produce identical outputs for
    identical query sequences.  At level 0 the base outputs are returned
    untouched, so the same class is the noiseless oracle.
    """

    _KIND_INDEX = {"value": 0, "gradient": 1, "hessian": 2}

    def __init__(self, base: Problem, level: float, seed: int):
        if level < 0:
            raise InvalidParameter(f"noise level must be >= 0, got {level}")
        self.base = base
        self.level = float(level)
        self.seed = int(seed)
        self.counts = dict.fromkeys(WANT_KINDS, 0)
        self._query_index = 0
        key = [self.seed & 0xFFFFFFFFFFFFFFFF, (self.seed >> 64) & 0xFFFFFFFFFFFFFFFF]
        self._bitgen = np.random.Philox(counter=[0, 0, 0, 0], key=key)
        self._gen = np.random.Generator(self._bitgen)

    def _draws(self, query: int, kind: str, size: int) -> np.ndarray:
        # rewind the counter-based stream to the (query, quantity) block;
        # equivalent to a fresh Philox at that counter, but much cheaper
        state = self._bitgen.state
        state["state"]["counter"][:] = (query, self._KIND_INDEX[kind], 0, 0)
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bitgen.state = state
        return self._gen.standard_normal(size)

    def evaluate(self, x, want: Iterable[str]) -> dict:
        want = tuple(want)
        for kind in want:
            if kind in self.counts:  # the base rejects unknown kinds
                self.counts[kind] += 1
        out = self.base.evaluate(x, want)
        query = self._query_index
        self._query_index += 1
        if self.level == 0.0:
            return out
        noisy = {}
        for kind, val in out.items():
            if kind == "value":
                xi = self._draws(query, kind, 1)[0]
                noisy[kind] = val * (1.0 + self.level * xi)
            else:
                arr = np.asarray(val)
                xi = self._draws(query, kind, arr.size).reshape(arr.shape)
                noisy[kind] = arr * (1.0 + self.level * xi)
            if not np.isfinite(noisy[kind]).all():
                raise NonFiniteValue(f"{self.base.name}: noisy {kind} is non-finite")
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
        f_ref_provenance="literature",
    )


# ---------------------------------------------------------------------------
# suite definitions
# ---------------------------------------------------------------------------

_REGISTRY: dict = {}


def _register(builder):
    prob = builder()
    _REGISTRY[prob.name] = prob
    return builder


@_register
def _arglina():
    n, m = 10, 20

    def f(x):
        s = x.sum()
        r1 = x - 2.0 * s / m - 1.0
        r2 = -2.0 * s / m - 1.0
        return float(r1 @ r1 + (m - n) * r2 * r2)

    def g(x):
        s = x.sum()
        r1 = x - 2.0 * s / m - 1.0
        r2 = -2.0 * s / m - 1.0
        return 2.0 * (r1 - (2.0 / m) * (r1.sum() + (m - n) * r2))

    def h(x):
        return 2.0 * np.eye(n)

    return Problem("arglina", n, np.ones(n), f, g, h, 10.0, "literature")


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

    return Problem("arwhead", n, np.ones(n), f, g, h, 0.0, "literature")


_BARD_Y = np.array([0.14, 0.18, 0.22, 0.25, 0.29, 0.32, 0.35, 0.39, 0.37,
                    0.58, 0.73, 0.96, 1.34, 2.10, 4.39])


@_register
def _bard():
    u = np.arange(1.0, 16.0)
    v = 16.0 - u
    w = np.minimum(u, v)

    def residuals(x):
        d = v * x[1] + w * x[2]
        return _BARD_Y - (x[0] + u / d), d

    def f(x):
        r, _ = residuals(x)
        return float(r @ r)

    def g(x):
        r, d = residuals(x)
        # d model / d x = (1, -u v / d^2, -u w / d^2)
        jr = -2.0 * r
        return np.array([
            jr.sum(),
            float(jr @ (-u * v / d**2)),
            float(jr @ (-u * w / d**2)),
        ])

    return Problem("bard", 3, np.ones(3), f, g, None, 8.21487730657896e-3, "literature")


@_register
def _beale():
    y = np.array([1.5, 2.25, 2.625])
    p = np.array([1.0, 2.0, 3.0])

    def f(x):
        r = y - x[0] * (1.0 - x[1] ** p)
        return float(r @ r)

    def g(x):
        r = y - x[0] * (1.0 - x[1] ** p)
        dr1 = -(1.0 - x[1] ** p)
        dr2 = p * x[0] * x[1] ** (p - 1.0)
        return np.array([2.0 * float(r @ dr1), 2.0 * float(r @ dr2)])

    def h(x):
        r = y - x[0] * (1.0 - x[1] ** p)
        dr1 = -(1.0 - x[1] ** p)
        dr2 = p * x[0] * x[1] ** (p - 1.0)
        d12 = p * x[1] ** (p - 1.0)
        d22 = p * (p - 1.0) * x[0] * x[1] ** (p - 2.0)
        out = np.empty((2, 2))
        out[0, 0] = 2.0 * float(dr1 @ dr1)
        out[0, 1] = out[1, 0] = 2.0 * float(dr1 @ dr2 + r @ d12)
        out[1, 1] = 2.0 * float(dr2 @ dr2 + r @ d22)
        return out

    return Problem("beale", 2, np.array([1.0, 1.0]), f, g, h, 0.0, "literature")


@_register
def _booth():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    b = np.array([7.0, 5.0])

    def f(x):
        r = a @ x - b
        return float(r @ r)

    def g(x):
        return 2.0 * a.T @ (a @ x - b)

    def h(x):
        return 2.0 * a.T @ a

    return Problem("booth", 2, np.zeros(2), f, g, h, 0.0, "literature")


@_register
def _box3():
    t = 0.1 * np.arange(1.0, 11.0)
    c = np.exp(-t) - np.exp(-10.0 * t)

    def f(x):
        r = np.exp(-t * x[0]) - np.exp(-t * x[1]) - x[2] * c
        return float(r @ r)

    def g(x):
        r = np.exp(-t * x[0]) - np.exp(-t * x[1]) - x[2] * c
        return np.array([
            2.0 * float(r @ (-t * np.exp(-t * x[0]))),
            2.0 * float(r @ (t * np.exp(-t * x[1]))),
            2.0 * float(r @ (-c)),
        ])

    return Problem("box3", 3, np.array([0.0, 10.0, 20.0]), f, g, None, 0.0, "literature")


@_register
def _brownal():
    n = 10

    def f(x):
        s = x.sum()
        r = x[:-1] + s - (n + 1.0)
        rn = np.prod(x) - 1.0
        return float(r @ r + rn * rn)

    def g(x):
        s = x.sum()
        r = x[:-1] + s - (n + 1.0)
        rn = np.prod(x) - 1.0
        out = np.full(n, 2.0 * r.sum())
        out[:-1] += 2.0 * r
        # gradient of the product term, robust at zero coordinates
        for j in range(n):
            pj = np.prod(np.delete(x, j))
            out[j] += 2.0 * rn * pj
        return out

    return Problem("brownal", n, np.full(n, 0.5), f, g, None, 0.0, "literature")


@_register
def _broyden3d():
    n = 10

    def residuals(x):
        xm = np.concatenate(([0.0], x[:-1]))
        xp = np.concatenate((x[1:], [0.0]))
        return (3.0 - 2.0 * x) * x - xm - 2.0 * xp + 1.0

    def f(x):
        r = residuals(x)
        return float(r @ r)

    def g(x):
        r = residuals(x)
        out = 2.0 * (3.0 - 4.0 * x) * r
        out[:-1] += 2.0 * (-1.0) * r[1:]
        out[1:] += 2.0 * (-2.0) * r[:-1]
        return out

    return Problem("broyden3d", n, -np.ones(n), f, g, None, 0.0, "literature")


@_register
def _chebyqad():
    n = 10

    def _cheb(x):
        # shifted Chebyshev polynomials T~_1..T~_n and derivatives at each x_i
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
        return np.array(tvals), np.array(dvals)

    integrals = np.array([0.0 if j % 2 == 1 else -1.0 / (j * j - 1.0)
                          for j in range(1, n + 1)])

    def f(x):
        tv, _ = _cheb(x)
        r = tv.mean(axis=1) - integrals
        return float(r @ r)

    def g(x):
        tv, dv = _cheb(x)
        r = tv.mean(axis=1) - integrals
        return (2.0 / n) * (r @ dv)

    x0 = np.arange(1.0, n + 1.0) / (n + 1.0)
    return Problem("chebyqad", n, x0, f, g, None, 4.77271369637534e-3, "reference-run")


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

    return Problem("cliff", 2, np.array([0.0, -1.0]), f, g, h, 0.19978661367770, "literature")


@_register
def _cube():
    def f(x):
        return float((x[0] - 1.0) ** 2 + 100.0 * (x[1] - x[0] ** 3) ** 2)

    def g(x):
        r = x[1] - x[0] ** 3
        return np.array([2.0 * (x[0] - 1.0) - 600.0 * r * x[0] ** 2, 200.0 * r])

    def h(x):
        r = x[1] - x[0] ** 3
        return np.array([
            [2.0 - 1200.0 * r * x[0] + 1800.0 * x[0] ** 4, -600.0 * x[0] ** 2],
            [-600.0 * x[0] ** 2, 200.0],
        ])

    return Problem("cube", 2, np.array([-1.2, 1.0]), f, g, h, 0.0, "literature")


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

    return Problem("dixmaana", n, 2.0 * np.ones(n), f, g, None, 1.0, "literature")


@_register
def _dqartic():
    n = 10
    i = np.arange(1.0, n + 1.0)

    def f(x):
        return float(np.sum((x - i) ** 4))

    def g(x):
        return 4.0 * (x - i) ** 3

    def h(x):
        return np.diag(12.0 * (x - i) ** 2)

    return Problem("dqartic", n, 2.0 * np.ones(n), f, g, h, 0.0, "literature")


@_register
def _freuroth():
    n = 4

    def residuals(x):
        a, b = x[:-1], x[1:]
        r1 = -13.0 + a + ((5.0 - b) * b - 2.0) * b
        r2 = -29.0 + a + ((b + 1.0) * b - 14.0) * b
        return r1, r2

    def f(x):
        r1, r2 = residuals(x)
        return float(r1 @ r1 + r2 @ r2)

    def g(x):
        b = x[1:]
        r1, r2 = residuals(x)
        d1 = 10.0 * b - 3.0 * b**2 - 2.0
        d2 = 3.0 * b**2 + 2.0 * b - 14.0
        out = np.zeros(n)
        out[:-1] += 2.0 * (r1 + r2)
        out[1:] += 2.0 * (r1 * d1 + r2 * d2)
        return out

    x0 = np.array([0.5, -2.0, 0.5, -2.0])
    return Problem("freuroth", n, x0, f, g, None, 2.85503407977690, "reference-run")


@_register
def _helix():
    def theta(x):
        if x[0] > 0:
            return np.arctan(x[1] / x[0]) / (2.0 * np.pi)
        return np.arctan(x[1] / x[0]) / (2.0 * np.pi) + 0.5

    def f(x):
        r = np.hypot(x[0], x[1])
        return float(100.0 * ((x[2] - 10.0 * theta(x)) ** 2 + (r - 1.0) ** 2) + x[2] ** 2)

    def g(x):
        r2 = x[0] ** 2 + x[1] ** 2
        r = np.sqrt(r2)
        a = x[2] - 10.0 * theta(x)
        dth1 = -x[1] / (2.0 * np.pi * r2)
        dth2 = x[0] / (2.0 * np.pi * r2)
        return np.array([
            -2000.0 * a * dth1 + 200.0 * (r - 1.0) * x[0] / r,
            -2000.0 * a * dth2 + 200.0 * (r - 1.0) * x[1] / r,
            200.0 * a + 2.0 * x[2],
        ])

    return Problem("helix", 3, np.array([-1.0, 0.0, 0.0]), f, g, None, 0.0, "literature")


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

    return Problem("hilbert", n, np.ones(n), f, g, h, 0.0, "literature")


@_register
def _integreq():
    n = 10
    hstep = 1.0 / (n + 1.0)
    t = hstep * np.arange(1.0, n + 1.0)

    def residuals(x):
        u = (x + t + 1.0) ** 3
        lower = np.cumsum(t * u)                      # sum_{j<=i} t_j u_j
        upper = np.cumsum(((1.0 - t) * u)[::-1])[::-1]  # sum_{j>=i} (1-t_j) u_j
        upper_strict = upper - (1.0 - t) * u
        return x + hstep * ((1.0 - t) * lower + t * upper_strict) / 2.0

    def f(x):
        r = residuals(x)
        return float(r @ r)

    def g(x):
        r = residuals(x)
        du = 3.0 * (x + t + 1.0) ** 2
        w = np.where(
            np.arange(n)[:, None] >= np.arange(n)[None, :],
            (1.0 - t)[:, None] * t[None, :],
            t[:, None] * (1.0 - t)[None, :],
        )
        jac = np.eye(n) + hstep * w * du[None, :] / 2.0
        return 2.0 * jac.T @ r

    x0 = t * (t - 1.0)
    return Problem("integreq", n, x0, f, g, None, 0.0, "literature")


@_register
def _jensmp():
    i = np.arange(1.0, 11.0)

    def f(x):
        r = 2.0 + 2.0 * i - (np.exp(i * x[0]) + np.exp(i * x[1]))
        return float(r @ r)

    def g(x):
        r = 2.0 + 2.0 * i - (np.exp(i * x[0]) + np.exp(i * x[1]))
        return np.array([
            2.0 * float(r @ (-i * np.exp(i * x[0]))),
            2.0 * float(r @ (-i * np.exp(i * x[1]))),
        ])

    return Problem("jensmp", 2, np.array([0.3, 0.4]), f, g, None, 124.362182355615, "literature")


_KOWOSB_Y = np.array([0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627,
                      0.0456, 0.0342, 0.0323, 0.0235, 0.0246])
_KOWOSB_U = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 0.167, 0.125, 0.1,
                      0.0833, 0.0714, 0.0625])


@_register
def _kowosb():
    y, u = _KOWOSB_Y, _KOWOSB_U

    def f(x):
        num = u * (u + x[1])
        den = u * (u + x[2]) + x[3]
        r = y - x[0] * num / den
        return float(r @ r)

    def g(x):
        num = u * (u + x[1])
        den = u * (u + x[2]) + x[3]
        model = x[0] * num / den
        r = y - model
        jr = -2.0 * r
        return np.array([
            float(jr @ (num / den)),
            float(jr @ (x[0] * u / den)),
            float(jr @ (-x[0] * num * u / den**2)),
            float(jr @ (-x[0] * num / den**2)),
        ])

    x0 = np.array([0.25, 0.39, 0.415, 0.39])
    return Problem("kowosb", 4, x0, f, g, None, 3.07505603849239e-4, "literature")


@_register
def _morebv():
    n = 12
    hstep = 1.0 / (n + 1.0)
    t = hstep * np.arange(1.0, n + 1.0)

    def residuals(x):
        xm = np.concatenate(([0.0], x[:-1]))
        xp = np.concatenate((x[1:], [0.0]))
        return 2.0 * x - xm - xp + hstep**2 * (x + t + 1.0) ** 3 / 2.0

    def f(x):
        r = residuals(x)
        return float(r @ r)

    def g(x):
        r = residuals(x)
        diag = 2.0 + 1.5 * hstep**2 * (x + t + 1.0) ** 2
        out = 2.0 * diag * r
        out[:-1] += 2.0 * (-1.0) * r[1:]
        out[1:] += 2.0 * (-1.0) * r[:-1]
        return out

    x0 = t * (t - 1.0)
    return Problem("morebv", n, x0, f, g, None, 0.0, "literature")


_OSBORNEB_Y = np.array([
    1.366, 1.191, 1.112, 1.013, 0.991, 0.885, 0.831, 0.847, 0.786, 0.725,
    0.746, 0.679, 0.608, 0.655, 0.616, 0.606, 0.602, 0.626, 0.651, 0.724,
    0.649, 0.649, 0.694, 0.644, 0.624, 0.661, 0.612, 0.558, 0.533, 0.495,
    0.500, 0.423, 0.395, 0.375, 0.372, 0.391, 0.396, 0.405, 0.428, 0.429,
    0.523, 0.562, 0.607, 0.653, 0.672, 0.708, 0.633, 0.668, 0.645, 0.632,
    0.591, 0.559, 0.597, 0.625, 0.739, 0.710, 0.729, 0.720, 0.636, 0.581,
    0.428, 0.292, 0.162, 0.098, 0.054,
])


@_register
def _osborneb():
    y = _OSBORNEB_Y
    t = np.arange(65.0) / 10.0

    def pieces(x):
        e1 = np.exp(-t * x[4])
        e2 = np.exp(-((t - x[8]) ** 2) * x[5])
        e3 = np.exp(-((t - x[9]) ** 2) * x[6])
        e4 = np.exp(-((t - x[10]) ** 2) * x[7])
        return e1, e2, e3, e4

    def f(x):
        e1, e2, e3, e4 = pieces(x)
        r = y - (x[0] * e1 + x[1] * e2 + x[2] * e3 + x[3] * e4)
        return float(r @ r)

    def g(x):
        e1, e2, e3, e4 = pieces(x)
        r = y - (x[0] * e1 + x[1] * e2 + x[2] * e3 + x[3] * e4)
        jr = -2.0 * r
        return np.array([
            float(jr @ e1),
            float(jr @ e2),
            float(jr @ e3),
            float(jr @ e4),
            float(jr @ (-t * x[0] * e1)),
            float(jr @ (-((t - x[8]) ** 2) * x[1] * e2)),
            float(jr @ (-((t - x[9]) ** 2) * x[2] * e3)),
            float(jr @ (-((t - x[10]) ** 2) * x[3] * e4)),
            float(jr @ (2.0 * (t - x[8]) * x[5] * x[1] * e2)),
            float(jr @ (2.0 * (t - x[9]) * x[6] * x[2] * e3)),
            float(jr @ (2.0 * (t - x[10]) * x[7] * x[3] * e4)),
        ])

    x0 = np.array([1.3, 0.65, 0.65, 0.7, 0.6, 3.0, 5.0, 7.0, 2.0, 4.5, 5.5])
    return Problem("osborneb", 11, x0, f, g, None, 4.01377362935477e-2, "literature")


@_register
def _penalty1():
    n = 10
    a = 1e-5

    def f(x):
        return float(a * np.sum((x - 1.0) ** 2) + (np.sum(x**2) - 0.25) ** 2)

    def g(x):
        s = np.sum(x**2) - 0.25
        return 2.0 * a * (x - 1.0) + 4.0 * s * x

    def h(x):
        s = np.sum(x**2) - 0.25
        return (2.0 * a + 4.0 * s) * np.eye(n) + 8.0 * np.outer(x, x)

    return Problem("penalty1", n, np.arange(1.0, n + 1.0), f, g, h, 7.08765146709037e-5, "literature")


@_register
def _powellsg():
    n = 12

    def f(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        return float(np.sum((a + 10.0 * b) ** 2 + 5.0 * (c - d) ** 2
                            + (b - 2.0 * c) ** 4 + 10.0 * (a - d) ** 4))

    def g(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        out = np.zeros(n)
        out[0::4] = 2.0 * (a + 10.0 * b) + 40.0 * (a - d) ** 3
        out[1::4] = 20.0 * (a + 10.0 * b) + 4.0 * (b - 2.0 * c) ** 3
        out[2::4] = 10.0 * (c - d) - 8.0 * (b - 2.0 * c) ** 3
        out[3::4] = -10.0 * (c - d) - 40.0 * (a - d) ** 3
        return out

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

    x0 = np.tile([3.0, -1.0, 0.0, 1.0], n // 4)
    return Problem("powellsg", n, x0, f, g, h, 0.0, "literature")


@_register
def _rosenbr():
    n = 10

    def f(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def g(x):
        r = x[1:] - x[:-1] ** 2
        out = np.zeros(n)
        out[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
        out[1:] += 200.0 * r
        return out

    def h(x):
        r = x[1:] - x[:-1] ** 2
        out = np.zeros((n, n))
        idx = np.arange(n - 1)
        out[idx, idx] += -400.0 * r + 800.0 * x[:-1] ** 2 + 2.0
        out[idx + 1, idx + 1] += 200.0
        out[idx, idx + 1] = out[idx + 1, idx] = -400.0 * x[:-1]
        return out

    x0 = np.tile([-1.2, 1.0], n // 2)
    return Problem("rosenbr", n, x0, f, g, h, 0.0, "literature")


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

    return Problem("sisser", 2, np.array([1.0, 0.1]), f, g, h, 0.0, "literature")


@_register
def _tridia():
    n = 10
    i = np.arange(2.0, n + 1.0)

    def f(x):
        return float((x[0] - 1.0) ** 2 + np.sum(i * (2.0 * x[1:] - x[:-1]) ** 2))

    def g(x):
        r = 2.0 * x[1:] - x[:-1]
        out = np.zeros(n)
        out[0] = 2.0 * (x[0] - 1.0)
        out[1:] += 4.0 * i * r
        out[:-1] += -2.0 * i * r
        return out

    def h(x):
        out = np.zeros((n, n))
        out[0, 0] = 2.0
        idx = np.arange(1, n)
        out[idx, idx] += 8.0 * i
        out[idx - 1, idx - 1] += 2.0 * i
        out[idx, idx - 1] = out[idx - 1, idx] = -4.0 * i
        return out

    return Problem("tridia", n, np.ones(n), f, g, h, 0.0, "literature")


@_register
def _vardim():
    n = 10
    i = np.arange(1.0, n + 1.0)

    def f(x):
        s = float(i @ (x - 1.0))
        return float(np.sum((x - 1.0) ** 2) + s**2 + s**4)

    def g(x):
        s = float(i @ (x - 1.0))
        return 2.0 * (x - 1.0) + (2.0 * s + 4.0 * s**3) * i

    def h(x):
        s = float(i @ (x - 1.0))
        return 2.0 * np.eye(n) + (2.0 + 12.0 * s**2) * np.outer(i, i)

    x0 = 1.0 - i / n
    return Problem("vardim", n, x0, f, g, h, 0.0, "literature")


@_register
def _watson():
    n = 12
    t = np.arange(1.0, 30.0) / 29.0
    powers = t[:, None] ** np.arange(n)[None, :]          # t^(j-1)
    dpowers = np.arange(1, n)[None, :] * t[:, None] ** np.arange(n - 1)[None, :]

    def f(x):
        bsum = powers @ x
        asum = dpowers @ x[1:]
        r = asum - bsum**2 - 1.0
        return float(r @ r + x[0] ** 2 + (x[1] - x[0] ** 2 - 1.0) ** 2)

    def g(x):
        bsum = powers @ x
        asum = dpowers @ x[1:]
        r = asum - bsum**2 - 1.0
        jac = np.zeros((29, n))
        jac[:, 1:] = dpowers
        jac -= 2.0 * bsum[:, None] * powers
        out = 2.0 * jac.T @ r
        r31 = x[1] - x[0] ** 2 - 1.0
        out[0] += 2.0 * x[0] - 4.0 * x[0] * r31
        out[1] += 2.0 * r31
        return out

    return Problem("watson", n, np.zeros(n), f, g, None, 4.72238110338512e-10, "literature")


@_register
def _woods():
    n = 12

    def f(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        return float(np.sum(100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2
                            + 90.0 * (d - c**2) ** 2 + (1.0 - c) ** 2
                            + 10.0 * (b + d - 2.0) ** 2 + 0.1 * (b - d) ** 2))

    def g(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        out = np.zeros(n)
        out[0::4] = -400.0 * a * (b - a**2) - 2.0 * (1.0 - a)
        out[1::4] = 200.0 * (b - a**2) + 20.0 * (b + d - 2.0) + 0.2 * (b - d)
        out[2::4] = -360.0 * c * (d - c**2) - 2.0 * (1.0 - c)
        out[3::4] = 180.0 * (d - c**2) + 20.0 * (b + d - 2.0) - 0.2 * (b - d)
        return out

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

    x0 = np.tile([-3.0, -1.0, -3.0, -1.0], n // 4)
    return Problem("woods", n, x0, f, g, h, 0.0, "literature")


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


MANIFEST_VERSION = 1


def registry_manifest() -> dict:
    """JSON-serialisable manifest of the problem registry."""
    return {
        "version": MANIFEST_VERSION,
        "problems": [
            {
                "name": p.name,
                "n": p.n,
                "x0": [float(v) for v in p.x0],
                "f_ref": None if p.f_ref is None else float(p.f_ref),
                "f_ref_provenance": p.f_ref_provenance,
            }
            for p in load_suite()
        ],
    }
