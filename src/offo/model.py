"""Bounded symmetric Hessian approximations B_k for the quadratic model.

Four kinds are supported:

* ``zero``   B = 0 (purely first-order),
* ``bb``     the scalar diagonal approximation  B = (||s||^2 / y's) I,
* ``lbfgs``  up to ``LBFGS_PAIRS`` BFGS updates, by the stored secant pairs,
  of the scalar base sigma I built from the newest accepted pair.  The
  operator is rebuilt once per accepted pair by the dense BFGS recursion,
  oldest pair first, and stored as a dense matrix,
* ``exact``  the problem's own (symmetrised) Hessian at the new iterate.

Every kind enforces the spectral-norm cap ``KAPPA_B`` by rescaling the whole
operator, which preserves symmetry.  The norm it caps is exact: sigma for
``bb`` and the largest eigenvalue magnitude of the dense matrix for
``lbfgs`` and ``exact``, computed once per update.  Storing the matrix costs
n^2 floats and an n x n eigensolve per update, as for the exact kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NonFiniteInput, NonFiniteValue

KINDS = ("zero", "bb", "lbfgs", "exact")

#: the number of secant pairs the lbfgs kind keeps
LBFGS_PAIRS = 3

#: relative curvature threshold below which a secant pair is discarded
CURVATURE_MIN = 1e-15

#: the cap on ||B_k||_2 that every kind enforces (the paper's kappa_B)
KAPPA_B = 1e6


@dataclass
class HessianModel:
    """Symmetric operator with a spectral-norm cap; a fresh bb or lbfgs model
    is B = 0 until a usable secant pair arrives."""

    kind: str
    n: int
    sigma: float = 0.0  # the bb scalar
    pairs: list = field(default_factory=list)  # lbfgs (s, y) ring buffer, oldest first
    dense: np.ndarray = None  # lbfgs and exact: the symmetric matrix before rescaling
    scale: float = 1.0  # cap-enforcement rescaling of the whole operator
    bnorm: float = 0.0  # ||B||_2 after rescaling, as of the last update

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameter(f"unknown model kind {self.kind!r}")

    @property
    def is_zero(self) -> bool:
        """True when the operator is identically zero (lets callers shortcut)."""
        if self.kind == "zero":
            return True
        if self.kind == "bb":
            return self.sigma == 0.0
        return self.dense is None


def apply_model(model: HessianModel, v: np.ndarray) -> np.ndarray:
    """The product B v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (model.n,):
        raise DimensionMismatch(f"vector has shape {v.shape}, expected ({model.n},)")
    if model.is_zero:
        return np.zeros(model.n)
    if model.kind == "bb":
        return (model.scale * model.sigma) * v
    return model.scale * (model.dense @ v)


def update_model(model, s_k, y_k, x_next=None, problem=None) -> HessianModel:
    """Fold the just-completed step into the model and re-enforce the cap.

    ``s_k``/``y_k`` are the step and gradient difference of the completed
    iteration (both None on the very first call, when no step exists yet).
    The exact kind ignores them and queries the Hessian of ``problem`` (a
    ``Problem`` or ``NoisyProblem``) at ``x_next``, a float n-vector, without
    validating it and under the caller's ``np.errstate``; an overflowed
    Hessian, or one whose symmetric part or norm overflows, raises
    ``NonFiniteValue``.  Mutates and returns ``model``.
    """
    if model.kind == "exact":
        if problem is None or x_next is None:
            raise InvalidParameter("exact model needs the problem and the new iterate")
        hess = problem._query(x_next, ("hessian",))["hessian"]
        model.dense = 0.5 * (hess + hess.T)  # noisy oracles may break symmetry
        norm = _dense_norm(model.dense)
        if not math.isfinite(norm):  # a finite Hessian can overflow here
            raise NonFiniteValue("exact Hessian model overflowed")
        _cap(model, norm)
        return model
    if model.kind == "zero" or s_k is None:
        return model

    s_k = np.asarray(s_k, dtype=float)
    y_k = np.asarray(y_k, dtype=float)
    if s_k.shape != (model.n,) or y_k.shape != (model.n,):
        raise DimensionMismatch("secant pair has wrong shape")
    if not (np.isfinite(s_k).all() and np.isfinite(y_k).all()):
        raise NonFiniteInput("secant pair contains NaN or inf")

    ss = float(s_k @ s_k)
    ys = float(y_k @ s_k)
    if ss == 0.0 or ys < CURVATURE_MIN * ss:
        return model  # curvature safeguard failed: keep the previous operator

    if model.kind == "bb":
        model.sigma = ss / ys
        _cap(model, model.sigma)
        return model

    # lbfgs: fresh scalar base from the newest pair, then the buffer's updates;
    # each term is an outer product divided by a scalar, so B stays exactly symmetric
    pairs = [*model.pairs, (s_k.copy(), y_k.copy())][-LBFGS_PAIRS:]
    dense = (ss / ys) * np.eye(model.n)
    for s, y in pairs:
        bs = dense @ s
        dense += np.outer(y, y) / (y @ s) - np.outer(bs, bs) / (s @ bs)
    if not np.isfinite(dense).all():
        return model  # the rebuild overflowed: keep the previous operator
    model.pairs, model.dense = pairs, dense
    _cap(model, _dense_norm(dense))
    return model


def _dense_norm(dense: np.ndarray) -> float:
    """||B||_2 of a symmetric matrix: its largest eigenvalue magnitude."""
    eig = np.linalg.eigvalsh(dense)  # ascending
    return float(max(-eig[0], eig[-1]))


def _cap(model: HessianModel, norm: float) -> None:
    """Rescale the operator of exact norm ``norm`` to ||B||_2 <= KAPPA_B."""
    model.scale = KAPPA_B / norm if norm > KAPPA_B else 1.0
    model.bnorm = model.scale * norm
