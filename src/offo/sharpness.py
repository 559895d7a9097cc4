"""Worst-case slow-convergence constructions and their Hermite realizations.

Two knot-sequence families are built: the ``sharp1`` sequence whose gradient
norms decay like k^-(1/2+eta) under the componentwise sum-of-squares scaling,
and the ``sharp2`` sequence decaying like k^-omega under an iteration-power
scaling.  Piecewise-cubic Hermite interpolation turns either sequence into a
univariate objective on which the trust-region driver reproduces the knots
exactly; one interval lookup per query gives its value, slope and curvature.
The module also hosts the scalar special functions those constructions and
the theory constants need (Riemann zeta on (1, inf) and the secondary real
branch of the Lambert W function).
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .errors import ConfigMismatch, InvalidParameter, OutOfDomain
from .problems import Problem
from .scaling import ScalingStrategy

# even Bernoulli numbers B_2 .. B_16 for the Euler-Maclaurin tail
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30,
              5.0 / 66, -691.0 / 2730, 7.0 / 6, -3617.0 / 510)


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1 by direct series plus Euler-Maclaurin tail.

    Accurate to well below 1e-12 relative for s >= 1.01 with its fixed
    24-term head.
    """
    if s <= 1.0:
        raise InvalidParameter(f"zeta implemented for s > 1 only, got {s}")
    n = 24
    head = float(np.sum(np.arange(1, n) ** (-s)))
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    poch = s
    fact = 1.0
    power = n ** (-s - 1.0)
    for j, b in enumerate(_BERNOULLI, start=1):
        fact *= (2.0 * j - 1.0) * (2.0 * j)
        tail += b / fact * poch * power
        poch *= (s + 2.0 * j - 1.0) * (s + 2.0 * j)
        power /= n * n
    return head + tail


def lambert_wm1(y: float) -> float:
    """Secondary real branch W_-1 of w e^w = y for y in [-1/e, 0).

    Returns w <= -1 with residual |w e^w - y| <= 1e-12 |y|; exactly -1.0 at
    the branch point.  Bracketed Newton/bisection hybrid on h(w) = w e^w - y.
    """
    ymin = -float(np.exp(-1.0))
    if not np.isfinite(y) or y >= 0.0 or y < ymin:
        raise OutOfDomain(f"W_-1 needs y in [-1/e, 0), got {y}")
    if y == ymin:
        return -1.0
    # series fallback immediately next to the branch point, where h' vanishes
    p = 1.0 + np.e * y
    if p <= 1e-12:
        s = np.sqrt(max(2.0 * p, 0.0))
        return -1.0 - s - s * s / 3.0

    lo = -51.0  # h(lo) > 0 for every y of interest; widen for extreme inputs
    while lo * np.exp(lo) < y and lo > -700.0:
        lo *= 2.0
    hi = -1.0  # h(hi) = -1/e - y <= 0
    log_my = np.log(-y)
    w = log_my - np.log(-log_my)  # asymptotic guess, exact as y -> 0-
    if not lo < w < hi:
        w = 0.5 * (lo + hi)
    for _ in range(100):
        ew = np.exp(w)
        h = w * ew - y
        if abs(h) <= 1e-13 * abs(y):
            break
        if h > 0.0:
            lo = w
        else:
            hi = w
        dh = (1.0 + w) * ew
        w = w - h / dh if dh != 0.0 else np.nan
        if not lo < w < hi:
            w = 0.5 * (lo + hi)
        if hi - lo <= 4.0 * np.spacing(max(abs(lo), abs(hi))):
            break
    return float(w)


@dataclass(frozen=True)
class KnotSequence:
    """Iterate/value/gradient/step sequences realizing a slow-decay run.

    Index ``j`` of the arrays corresponds to iteration counter
    ``k = k_start + j`` (sharp2 sequences start at k = 1).  ``x``, ``f`` and
    ``g`` have one more entry than ``s``.
    """

    kind: str  # "sharp1" or "sharp2"
    k_start: int
    x: np.ndarray
    f: np.ndarray
    g: np.ndarray
    s: np.ndarray
    kappa_f: float
    strategy: ScalingStrategy

    @property
    def knot_count(self) -> int:
        return len(self.x)


def build_counterexample(kind: str, params: dict, K: int) -> KnotSequence:
    """Generate K steps of a slow-convergence sequence.

    ``sharp1`` params: mu in (0,1), eta in (0,1], varsigma in (0,1].
    ``sharp2`` params: nu in (0,1), omega in (0.5*(1-nu), 1].
    ``K`` is an integer (NumPy integers included) of at least 2.

    The scaling factors follow the driver's rule in closed form, pinned to
    ``update_scaling`` by ``test_replay_matches_the_driver_rule_bit_for_bit``,
    so a driver run over the Hermite interpolant retraces the knots bit for
    bit.
    """
    try:
        K = operator.index(K)
    except TypeError:
        raise InvalidParameter(f"K must be an integer, got {K!r}") from None
    if K < 2:
        raise InvalidParameter(f"need at least K = 2 steps, got K = {K}")
    if kind == "sharp1":
        return _build_sharp1(params, K)
    if kind == "sharp2":
        return _build_sharp2(params, K)
    raise InvalidParameter(f"unknown counterexample kind {kind!r}")


def _build_sharp1(params: dict, K: int) -> KnotSequence:
    mu = float(params.get("mu", 0.5))
    eta = float(params.get("eta", 0.01))
    varsigma = float(params.get("varsigma", 0.01))
    if not 0.0 < eta <= 1.0:
        raise InvalidParameter(f"eta must lie in (0,1], got {eta}")
    strategy = ScalingStrategy(kind="adagrad-comp", mu=mu, varsigma=varsigma)
    # Python's power, not NumPy's: the two differ in the last bit for some k
    e = 0.5 + eta
    grads = np.fromiter(chain((-2.0,), (-1.0 / k**e for k in range(1, K + 1))), float, K + 1)
    f0 = 4.0 / (varsigma + 4.0) ** mu + zeta(1.0 + 2.0 * eta)
    kappa_f = max(1.5 * (varsigma + 5.0) ** mu, f0, 2.0)
    return _replay("sharp1", strategy, grads, f0, 0, kappa_f)


def _build_sharp2(params: dict, K: int) -> KnotSequence:
    nu = float(params.get("nu", 1.0 / 9.0))
    omega = float(params.get("omega", 4.0 / 9.0 + 0.01))
    if not 0.0 < nu < 1.0:
        raise InvalidParameter(f"nu must lie in (0,1), got {nu}")
    if not 0.5 * (1.0 - nu) < omega <= 1.0:
        raise InvalidParameter(
            f"omega must lie in (0.5*(1-nu), 1]; got omega={omega}, nu={nu} "
            "(at or below the threshold the objective is unbounded below)"
        )
    # w_k = k^nu for k >= 1 is exactly the maxg rule with unit floor, since
    # every |g_k| <= 1 keeps the running max at the floor
    strategy = ScalingStrategy(kind="maxg-comp", mu=nu, nu=nu, varsigma=1.0)
    grads = np.fromiter((-1.0 / k**omega for k in range(1, K + 2)), float, K + 1)
    return _replay("sharp2", strategy, grads, zeta(2.0 * omega + nu), 1, omega)


def _replay(kind, strategy, grads, f0, k_start, kappa_f) -> KnotSequence:
    """Knots of the run that meets the prescribed gradients ``grads``: the
    step from knot j is s_j = |g_j| / w_j, and the values follow
    f_{j+1} = f_j + g_j s_j.  w_j is the driver's ``adagrad-comp`` or
    ``maxg-comp`` rule in closed form: the loop's operations on the same
    operands, with the sequential ``add.accumulate`` adding in the loop's
    order.  Temporaries live in the output arrays.
    """
    steps = len(grads) - 1
    g = grads[:steps]
    x, f = np.empty(steps + 1), np.empty(steps + 1)
    if strategy.kind == "adagrad-comp":
        # w_j = (varsigma + sum_{l <= j} g_l^2) ** mu, NumPy's power as in update_scaling
        w = np.multiply(g, g)
        np.cumsum(w, out=w)
        w += strategy.varsigma
        w **= strategy.mu
    else:  # maxg-comp: w_j = (j + 1) ** nu * max(varsigma, max_{l <= j} |g_l|)
        # Python's power, as in update_scaling: NumPy's differs in the last bit for some j
        nu = strategy.nu
        w = np.fromiter(((k + 1) ** nu for k in range(steps)), float, steps)
        runmax = x[1:]
        np.abs(g, out=runmax)
        np.maximum(runmax, strategy.varsigma, out=runmax)
        np.maximum.accumulate(runmax, out=runmax)
        w *= runmax
    s = np.divide(np.abs(g, out=f[1:]), w, out=w)  # s_j = |g_j| / w_j, in w's buffer
    x[0] = 0.0
    x[1:] = s
    np.cumsum(x, out=x)
    f[0] = f0
    np.multiply(g, s, out=f[1:])
    np.cumsum(f, out=f)
    return KnotSequence(kind, k_start, x, f, grads, s, kappa_f, strategy)


class Interpolant:
    """Piecewise cubic matching prescribed values and slopes at the knots.

    On each interval the unique cubic through (f_k, g_k, f_{k+1}, g_{k+1});
    past the last knot a constant-slope linear extension.  Queries are scalar;
    those left of the first knot raise :class:`OutOfDomain`.
    """

    def __init__(self, knots: KnotSequence):
        self.knots = knots
        x, f, g = knots.x, knots.f, knots.g
        h = np.diff(x)
        if np.any(h <= 0.0):
            raise InvalidParameter("knot abscissae must be strictly increasing")
        df = np.diff(f) / h
        self._c2 = (3.0 * df - 2.0 * g[:-1] - g[1:]) / h
        self._c3 = (g[:-1] + g[1:] - 2.0 * df) / (h * h)
        self._last = len(x) - 1
        self._first_x, self._last_x = x.item(0), x.item(self._last)
        self._i = 0  # the interval of the last query inside the knots

    def __call__(self, x: float, order: int = 0) -> float:
        """Evaluate the interpolant (order 0), slope (1) or curvature (2) at x."""
        if order not in (0, 1, 2):
            raise InvalidParameter("order must be 0, 1 or 2")
        return self._at(float(x))[order]

    def _at(self, x: float) -> tuple:
        """Value, slope and curvature at a plain float, from one lookup.

        The interval ``i`` with ``xs[i] <= x < xs[i+1]`` is found by walking
        right from the last query's interval, so a nondecreasing sequence of
        queries, such as a retrace, does not search the knots; a query left of
        that interval searches them.  A NaN keeps the last interval and
        evaluates to NaN.
        """
        if x < self._first_x:
            raise OutOfDomain("query left of the first knot")
        xs, f, g = self.knots.x, self.knots.f, self.knots.g
        if x >= self._last_x:  # the last knot itself gives its stored value and slope
            g0 = g.item(self._last)
            return f.item(self._last) + g0 * (x - self._last_x), g0, 0.0
        i = self._i
        if x < xs.item(i):
            i = int(xs.searchsorted(x, side="right")) - 1
        else:
            while xs.item(i + 1) <= x:  # stops at i = last - 1, since x < xs[last]
                i += 1
        self._i = i
        # f0 + g0 t + c2 t^2 + c3 t^3 and its first two derivatives
        t, f0, g0 = x - xs.item(i), f.item(i), g.item(i)
        c2, c3 = self._c2.item(i), self._c3.item(i)
        return (f0 + g0 * t + c2 * t * t + c3 * t * t * t,
                g0 + 2.0 * c2 * t + 3.0 * c3 * t * t,
                2.0 * c2 + 6.0 * c3 * t)


def interpolant_problem(knots: KnotSequence) -> Problem:
    """Wrap the piecewise-cubic interpolant as a 1-D problem the driver can run on."""
    at = Interpolant(knots)._at
    return Problem(
        name=f"{knots.kind}-interp",
        n=1,
        x0=np.array([knots.x[0]]),
        f=lambda x: at(x.item(0))[0],
        g=lambda x: np.array([at(x.item(0))[1]]),
        h=lambda x: np.array([[at(x.item(0))[2]]]),
    )


def verify_sharpness(knots: KnotSequence, record) -> dict:
    """Compare a driver run against the knot sequence it should retrace.

    The record must come from the trust-region driver with no Hessian model,
    the knot sequence's own scaling strategy, the infinity norm, and a kept
    trace.  Returns per-run maxima of the iterate and gradient deviations.
    """
    config = record.config
    if config.model != "none":
        raise ConfigMismatch("verification runs must use the zero Hessian model")
    if config.norm != "inf":
        raise ConfigMismatch("verification runs must use the infinity norm")
    if config.scaling != knots.strategy:
        raise ConfigMismatch("run scaling does not match the construction's scaling")
    trace = record.trace
    if trace is None or "x" not in trace:
        raise ConfigMismatch("verification needs a run with keep_trace enabled")

    xs = trace["x"][:, 0]
    gs = trace["g"][:, 0]
    m = min(len(xs), knots.knot_count)
    if m == 0:
        return {"count": 0, "max_knot_dev": 0.0, "max_grad_rel_dev": 0.0}
    if abs(xs[0] - knots.x[0]) != 0.0:
        raise ConfigMismatch("run did not start from the construction's origin")
    knot_dev = np.abs(xs[:m] - knots.x[:m])
    grad_rel = np.abs(np.abs(gs[:m]) - np.abs(knots.g[:m])) / np.abs(knots.g[:m])
    return {
        "count": int(m),
        "max_knot_dev": float(np.max(knot_dev)),
        "max_grad_rel_dev": float(np.max(grad_rel)),
    }


def export_knots(knots: KnotSequence, path: str) -> None:
    """Write the knot table (k, x, f, g, s) as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "x", "f", "g", "s"])
        for j in range(knots.knot_count):
            srow = repr(float(knots.s[j])) if j < len(knots.s) else ""
            writer.writerow([knots.k_start + j, repr(float(knots.x[j])),
                             repr(float(knots.f[j])), repr(float(knots.g[j])),
                             srow])


def export_grid(knots: KnotSequence, path: str, num: Optional[int] = None,
                shift_f0_to: Optional[float] = None) -> None:
    """Sample (x, f, f', f'') on a uniform grid over the knot span as CSV.

    ``shift_f0_to`` adds a constant so the first value lands there (display
    convenience; slopes are untouched).  Default resolution is 2000 points
    per decade of the knot count; ``num`` must be at least 1.
    """
    at = Interpolant(knots)._at
    if num is None:
        num = 2000 * max(1, int(np.ceil(np.log10(knots.knot_count))))
    if num < 1:
        raise InvalidParameter(f"the grid needs at least 1 point, got {num}")
    # v + -0.0 is v bit for bit, -0.0 included
    shift = -0.0 if shift_f0_to is None else shift_f0_to - knots.f.item(0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "f", "fprime", "fsecond"])
        for x in np.linspace(knots.x[0], knots.x[-1], num).tolist():
            v, slope, curvature = at(x)
            writer.writerow([repr(x), repr(v + shift), repr(slope), repr(curvature)])
