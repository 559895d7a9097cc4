"""Generalized Cauchy point and trust-region step computation.

The trust region is either the box |s_i| <= Delta_i with Delta_i =
|g_i| / w_i (``inf`` norm), or the Euclidean ball of radius ||g/w||_2
(``two`` norm).  The returned step always satisfies the region bound exactly
and achieves at least the fraction ``tau`` of the generalized Cauchy point's
model decrease; when the iterative solver fails to, the Cauchy step itself is
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NonFiniteInput
from .model import HessianModel, apply_model

NORMS = ("inf", "two")

#: gradient-relative and absolute floors of the CG residual tolerance
CG_RTOL = 1e-5
CG_ATOL = 1e-12
#: model products the CG solvers may spend, per dimension
CG_PRODUCTS_PER_DIM = 5


@dataclass(slots=True)
class TrustRegion:
    """Region geometry for one iteration (built once per iteration, so not
    frozen: a frozen dataclass costs about three times as much to build)."""

    norm: str  # "inf" or "two"
    # |g_i| / w_i for both norms: the box's half-widths (inf), or the vector
    # whose Euclidean norm is the ball's radius (two)
    radii: np.ndarray

    @property
    def radius(self) -> float:
        """Scalar radius of the two-norm ball."""
        return math.sqrt(self.radii.dot(self.radii))


def make_region(norm: str, g: np.ndarray, w: np.ndarray) -> TrustRegion:
    """Region defined by the scaled gradient: radii_i = |g_i| / w_i."""
    if norm not in NORMS:
        raise InvalidParameter(f"unknown trust-region norm {norm!r}")
    return TrustRegion(norm, np.abs(g) / w)


@dataclass(slots=True)
class CauchyData:
    """Scaled steepest-descent step sL, the model's minimizer sQ along it and
    the model value q at sQ (not frozen, like :class:`TrustRegion`)."""

    sL: np.ndarray
    sQ: np.ndarray
    q: float


def model_value(g: np.ndarray, model: HessianModel, s: np.ndarray) -> float:
    """Quadratic model g's + 0.5 s'Bs at a step."""
    if model.is_zero and s.shape == (model.n,):
        return float(g.dot(s))
    return float(g @ s + 0.5 * (s @ apply_model(model, s)))


def cauchy_point(g: np.ndarray, model: HessianModel, tr: TrustRegion) -> CauchyData:
    """Minimize the quadratic model along the scaled steepest descent step."""
    # sL_i = -sgn(g_i) Delta_i; sgn(0) = 0 and Delta_i = 0 there anyway.
    # For the two-norm ball this is -g/w, which sits exactly on the sphere.
    sL = -np.sign(g) * tr.radii
    gsl = float(g.dot(sL))  # <= 0 by construction
    # a NaN or inf g_i makes gsl NaN or -inf, also at a zero radius, where
    # NumPy warns of inf * 0 unless the caller holds an np.errstate
    if not math.isfinite(gsl) and not np.isfinite(g).all():
        raise NonFiniteInput("gradient contains NaN or inf")
    if model.is_zero and sL.shape == (model.n,):
        return CauchyData(sL, sL, gsl)  # a linear model is least at the full step
    curv = float(sL @ apply_model(model, sL))
    gamma = min(1.0, abs(gsl) / curv) if curv > 0.0 else 1.0
    sQ = gamma * sL
    return CauchyData(sL, sQ, model_value(g, model, sQ))


def solve_tr_step(
    g: np.ndarray,
    model: HessianModel,
    tr: TrustRegion,
    tau: float = 0.1,
    cauchy: CauchyData = None,
) -> np.ndarray:
    """Approximately minimize the quadratic model (``g`` a float array) in the region.

    Runs projected truncated CG on the box (inf norm) or Steihaug-Toint CG on
    the ball (two norm).  The ball solver stops at the first crossing of
    ||g + Bs||_2 <= max(1e-12, 1e-5 ||g||_2); the box solver keeps polishing
    the free subspace within the 5n product budget so that it lands on the
    exact box minimizer of convex models (the same inequality then holds
    with room to spare).  If the iterate fails the Cauchy-fraction test it is
    discarded in favour of sQ.  Callers that already computed the Cauchy data
    may pass it in; they then vouch that ``g`` is finite.
    """
    if not 0.0 < tau <= 1.0:
        raise InvalidParameter(f"tau must lie in (0,1], got {tau}")

    cp = cauchy if cauchy is not None else cauchy_point(g, model, tr)
    if model.is_zero:
        return cp.sL  # exact box/ball minimizer of the linear model

    if tr.norm == "inf":
        if model.kind == "bb":
            # separable quadratic: the box minimizer is available in closed
            # form, which is exactly where the projected CG converges
            sigma = model.scale * model.sigma
            s = np.clip(-g / sigma, -tr.radii, tr.radii)
        else:
            s = _projected_cg_box(g, model, tr.radii)
    else:
        s = _steihaug_toint(g, model, tr.radius)

    return s if model_value(g, model, s) <= tau * cp.q else cp.sQ


def _cg_tol(g: np.ndarray) -> float:
    return max(CG_ATOL, CG_RTOL * math.sqrt(g.dot(g)))


def _projected_cg_box(g, model, delta):
    """Truncated CG restricted to free coordinates of the box |s_i| <= delta_i.

    When a coordinate hits its face it is clamped there and frozen and CG
    restarts in the reduced space; along nonpositive curvature the iterate
    moves straight to the boundary.  Once the reduced residual is small, face
    coordinates whose gradient points back into the box are released again,
    so on convex problems the exact box minimizer is reached.
    """
    n = g.size
    budget = CG_PRODUCTS_PER_DIM * n
    s = np.zeros(n)
    free = delta > 0.0
    # polish to near-machine residual within the product budget: the box
    # minimizer is then reproduced exactly on separable models, and the
    # nominal max(1e-12, 1e-5||g||) stopping inequality holds a fortiori
    tol = max(CG_ATOL, 1e-14 * math.sqrt(g.dot(g)))
    products = 0

    while products < budget:
        r = g + apply_model(model, s)
        products += 1
        rf = r[free]  # empty when nothing is free, so the test then passes
        converged = math.sqrt(rf.dot(rf)) <= tol
        if converged:
            # release faces where sliding back inside would decrease the model
            lower = (delta > 0.0) & ~free & (s <= -delta) & (r < -tol)
            upper = (delta > 0.0) & ~free & (s >= delta) & (r > tol)
            release = lower | upper
            if not release.any():
                break
            free |= release
            continue
        products = _cg_on_free(model, s, r, free, delta, tol, budget, products)

    np.clip(s, -delta, delta, out=s)
    return s


def _cg_on_free(model, s, r, free, delta, tol, budget, products):
    """One CG sweep over the current free set; mutates s, r and free.

    Ends when a face is hit (that coordinate is clamped and frozen), the
    reduced residual passes the tolerance, or the product budget runs out.
    Returns the updated product count.
    """
    p = np.where(free, -r, 0.0)
    rfree2 = float(r[free] @ r[free])
    while products < budget:
        bp = apply_model(model, p)
        products += 1
        curv = float(p @ bp)
        alpha_max, hit = _box_step(s, p, delta, free)
        if curv <= 0.0 and not math.isfinite(alpha_max):
            break  # degenerate direction, nothing to gain
        if curv <= 0.0:
            alpha = alpha_max
        else:
            alpha = rfree2 / curv
            if alpha >= alpha_max:
                alpha = alpha_max
            else:
                hit = None
        s += alpha * p
        if hit is not None:
            # land exactly on the faces and freeze those coordinates
            s[hit] = np.sign(p[hit]) * delta[hit]
            free[hit] = False
            break
        r += alpha * bp
        rnew2 = float(r[free] @ r[free])
        if math.sqrt(rnew2) <= tol:
            break
        p = np.where(free, -r + (rnew2 / rfree2) * p, 0.0)
        rfree2 = rnew2
    return products


def _box_step(s, p, delta, free):
    """Max alpha with |s_i + alpha p_i| <= delta_i on free coords, and the
    indices of the coordinates attaining it."""
    moving = np.flatnonzero(free & (p != 0.0))
    if moving.size == 0:
        return math.inf, None
    pm = p[moving]  # nonzero, so no division below can fail
    steps = (np.where(pm > 0.0, delta[moving], -delta[moving]) - s[moving]) / pm
    alpha = float(steps.min())
    if not math.isfinite(alpha):
        return math.inf, None
    return alpha, moving[steps <= alpha * (1.0 + 1e-14)]


def _steihaug_toint(g, model, radius):
    """Classic truncated CG on the Euclidean ball of the given radius."""
    n = g.size
    s = np.zeros(n)
    if radius <= 0.0:
        return s
    r = g.copy()
    tol = _cg_tol(g)
    if math.sqrt(r.dot(r)) <= tol:
        return s
    p = -r
    for _ in range(CG_PRODUCTS_PER_DIM * n):
        bp = apply_model(model, p)
        curv = float(p @ bp)
        if curv <= 0.0:
            return _to_ball_boundary(s, p, radius)
        r2 = float(r @ r)
        alpha = r2 / curv
        s_next = s + alpha * p
        if math.sqrt(s_next.dot(s_next)) >= radius:
            return _to_ball_boundary(s, p, radius)
        s = s_next
        r = r + alpha * bp
        r2_new = float(r @ r)
        if math.sqrt(r2_new) <= tol:
            break
        p = -r + (r2_new / r2) * p
    nrm = math.sqrt(s.dot(s))
    if nrm > radius:
        s *= radius / nrm
    return s


def _to_ball_boundary(s, p, radius):
    """Follow p from s to the sphere ||s + sigma p|| = radius (positive root)."""
    pp = float(p @ p)
    if pp == 0.0:
        return s
    sp = float(s @ p)
    ss = float(s @ s)
    disc = sp * sp + pp * (radius * radius - ss)
    sigma = (-sp + math.sqrt(max(disc, 0.0))) / pp
    out = s + sigma * p
    nrm = math.sqrt(out.dot(out))
    if nrm > radius:
        out *= radius / nrm
    return out
