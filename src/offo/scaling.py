"""Scaling-factor rules that turn gradient history into the positive vector w_k.

Six rules are implemented behind one update interface.  The ``-comp`` kinds
keep one accumulator per coordinate, the ``-agg`` kinds share a single scalar
accumulator (built from Euclidean gradient norms) across all coordinates:

* ``adagrad-comp``  w_i = (sigma + sum_l g_{i,l}^2)^mu            (variant ``adagi1``)
* ``adagrad-agg``   w_i = (sigma + sum_l ||g_l||^2)^mu            (variant ``adag1``)
* ``ewma-comp``     same as adagrad-comp, discounted by EWMA_BETA2 (variant ``adagi2``)
* ``ewma-agg``      same as adagrad-agg, discounted by EWMA_BETA2  (variant ``adag2``)
* ``maxg-comp``     w_i = (k+1)^nu * max(sigma, max_l |g_{i,l}|)  (variant ``maxgi01``)
* ``maxg-agg``      w_i = (k+1)^nu * max(sigma, max_l ||g_l||)    (variant ``maxg01``)

``driver.VARIANTS`` maps each variant tag to its kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NonFiniteInput, NonFiniteValue

#: the scaling kinds, as ``ScalingStrategy.kind`` names them
KINDS = ("adagrad-comp", "adagrad-agg", "ewma-comp", "ewma-agg", "maxg-comp", "maxg-agg")

#: the discount of the ewma kinds' accumulators
EWMA_BETA2 = 0.9

#: largest n * max|g_i|^2 for which g.g surely cannot overflow
_DOT_LIMIT = 0.5 * float(np.finfo(float).max)


def euclidean_norm(g: np.ndarray) -> float:
    """||g||_2 of a nonempty 1-D array: ``np.linalg.norm(g)`` bit for bit where
    g.g cannot overflow, else computed on g divided by its largest magnitude."""
    big = float(np.abs(g).max())
    if big * big * g.size < _DOT_LIMIT:
        return math.sqrt(g.dot(g))
    if not big < math.inf:
        return big  # inf, or nan when g holds a nan
    u = g / big
    return big * math.sqrt(u.dot(u))


@dataclass(frozen=True)
class ScalingStrategy:
    """Parameters of one scaling rule.

    ``mu`` is the accumulator exponent, ``nu`` the iteration-power exponent of
    the maxg kinds and ``varsigma`` the positive floor constant.
    """

    kind: str
    mu: float = 0.5
    nu: float = 0.1
    varsigma: float = 0.01

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameter(f"unknown scaling kind {self.kind!r}")
        if not 0.0 < self.mu < 1.0:
            raise InvalidParameter(f"mu must lie in (0,1), got {self.mu}")
        if not 0.0 < self.varsigma <= 1.0:
            raise InvalidParameter(f"varsigma must lie in (0,1], got {self.varsigma}")
        if self.kind.startswith("maxg") and not 0.0 < self.nu <= self.mu:
            raise InvalidParameter(
                f"maxg kinds need 0 < nu <= mu < 1, got nu={self.nu}, mu={self.mu}"
            )

    @property
    def floor(self) -> float:
        """Proven lower bound on every emitted w_{i,k}: the AS.5 constant at
        vartheta = 1, since every rule emits the top of its admissible interval."""
        if self.kind.startswith("maxg"):
            return self.varsigma
        return self.varsigma**self.mu


@dataclass
class ScalingState:
    """Mutable per-run accumulator behind :func:`update_scaling`."""

    strategy: ScalingStrategy
    n: int
    k: int = -1  # the iteration of the last update, -1 before the first
    acc: np.ndarray = field(default=None)  # per-coordinate accumulator
    agg: float = 0.0  # shared scalar accumulator of the -agg kinds


def init_scaling(strategy: ScalingStrategy, n: int) -> ScalingState:
    """Create the k=0 state with empty accumulators for an n-dimensional run."""
    if n < 1:
        raise InvalidParameter(f"dimension must be >= 1, got {n}")
    state = ScalingState(strategy=strategy, n=n)
    if strategy.kind == "maxg-comp":
        # running max starts at the floor so max(varsigma, .) is built in
        state.acc = np.full(n, strategy.varsigma)
    elif strategy.kind == "maxg-agg":
        state.agg = strategy.varsigma
    elif strategy.kind.endswith("comp"):
        state.acc = np.zeros(n)
    return state


def update_scaling(state: ScalingState, g_k: np.ndarray) -> np.ndarray:
    """Fold the gradient ``g_k`` of iteration k = ``state.k + 1`` into the
    state and emit w_k; the first call is iteration 0.  A non-finite
    ``g_k`` (a float array) raises :class:`NonFiniteInput`, an overflowing
    accumulator :class:`NonFiniteValue`; both leave ``state`` as it was.
    Outside an ``np.errstate``, NumPy warns of the overflow before the
    exception, and of an overflowing w.w when w is finite but above ~1e154.
    """
    if g_k.shape != (state.n,):
        raise DimensionMismatch(f"gradient has shape {g_k.shape}, expected ({state.n},)")
    k = state.k + 1
    strat = state.strategy
    kind = strat.kind
    acc, agg = state.acc, state.agg
    # a NaN or inf in g_k reaches w in every branch, so w's check covers g_k
    if kind in ("adagrad-comp", "ewma-comp"):
        acc = (EWMA_BETA2 * acc if kind == "ewma-comp" else acc) + g_k * g_k
        w = (strat.varsigma + acc) ** strat.mu
    elif kind in ("adagrad-agg", "ewma-agg"):
        agg = (EWMA_BETA2 * agg if kind == "ewma-agg" else agg) + float(g_k.dot(g_k))
        w = np.full(state.n, (strat.varsigma + agg) ** strat.mu)
    elif kind == "maxg-comp":
        acc = np.maximum(acc, np.abs(g_k))
        w = (k + 1) ** strat.nu * acc
    else:  # maxg-agg; the norm comes first so that max() keeps a NaN
        agg = max(euclidean_norm(g_k), agg)
        w = np.full(state.n, (k + 1) ** strat.nu * agg)
    # w is finite when w.w is; only a w.w that overflows or is NaN needs the elementwise test
    if not (w.dot(w) < math.inf or np.isfinite(w).all()):
        if not np.isfinite(g_k).all():
            raise NonFiniteInput("gradient contains NaN or inf")
        raise NonFiniteValue(f"{kind} accumulator overflowed at iteration {k}")
    state.k, state.acc, state.agg = k, acc, agg
    return w
