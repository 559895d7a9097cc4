"""Generalized Cauchy point and trust-region step computation.

The trust region is either the box |s_i| <= Delta_i with Delta_i =
|g_i| / w_i (``inf`` norm), or the Euclidean ball of radius ||g/w||_2
(``two`` norm).  The returned step always satisfies the region bound exactly
and achieves at least the fraction ``tau`` of the generalized Cauchy point's
model decrease; when the iterative solver fails to, the Cauchy step itself is
returned.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class TrustRegion:
    """Region geometry for one iteration."""

    norm: str  # "inf" or "two"
    radii: np.ndarray  # per-coordinate Delta_i (inf) or scaled direction g/w (two)

    @property
    def radius(self) -> float:
        """Scalar radius of the two-norm ball."""
        return float(np.linalg.norm(self.radii))


def make_region(norm: str, g: np.ndarray, w: np.ndarray) -> TrustRegion:
    """Region defined by the scaled gradient: radii_i = |g_i| / w_i."""
    if norm not in NORMS:
        raise InvalidParameter(f"unknown trust-region norm {norm!r}")
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    return TrustRegion(norm, np.abs(g) / w)


@dataclass(frozen=True)
class CauchyData:
    """Scaled steepest-descent step sL, its model minimizer sQ = gamma*sL."""

    sL: np.ndarray
    gamma: float
    sQ: np.ndarray
    qdec: float  # -(g'sQ + 0.5 sQ'B sQ) >= 0


def model_value(g: np.ndarray, model: HessianModel, s: np.ndarray) -> float:
    """Quadratic model g's + 0.5 s'Bs at a step."""
    if model.is_zero and np.shape(s) == (model.n,):
        return float(g @ s)
    return float(g @ s + 0.5 * (s @ apply_model(model, s)))


def cauchy_point(g: np.ndarray, model: HessianModel, tr: TrustRegion) -> CauchyData:
    """Minimize the quadratic model along the scaled steepest descent step."""
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise NonFiniteInput("gradient contains NaN or inf")
    # sL_i = -sgn(g_i) Delta_i; sgn(0) = 0 and Delta_i = 0 there anyway.
    # For the two-norm ball this is -g/w, which sits exactly on the sphere.
    sL = -np.sign(g) * tr.radii
    gsl = float(g @ sL)  # <= 0 by construction
    if model.is_zero and sL.shape == (model.n,):
        # what the general formula gives for curv = +0.0, sign of zero included
        return CauchyData(sL=sL, gamma=1.0, sQ=sL, qdec=-(gsl + 0.0))
    curv = float(sL @ apply_model(model, sL))
    if curv > 0.0:
        gamma = min(1.0, abs(gsl) / curv)
    else:
        gamma = 1.0
    sQ = gamma * sL
    qdec = -(gamma * gsl + 0.5 * gamma * gamma * curv)
    return CauchyData(sL=sL, gamma=gamma, sQ=sQ, qdec=qdec)


def solve_tr_step(
    g: np.ndarray,
    model: HessianModel,
    tr: TrustRegion,
    tau: float = 0.1,
    cauchy: CauchyData = None,
) -> np.ndarray:
    """Approximately minimize the quadratic model inside the trust region.

    Runs projected truncated CG on the box (inf norm) or Steihaug-Toint CG on
    the ball (two norm).  The ball solver stops at the first crossing of
    ||g + Bs||_2 <= max(1e-12, 1e-5 ||g||_2); the box solver keeps polishing
    the free subspace within the 5n product budget so that it lands on the
    exact box minimizer of convex models (the same inequality then holds
    with room to spare).  If the iterate fails the Cauchy-fraction test it is
    discarded in favour of sQ.  Callers that already computed the Cauchy data
    may pass it in.
    """
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise NonFiniteInput("gradient contains NaN or inf")
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

    q_s = model_value(g, model, s)
    q_cauchy = model_value(g, model, cp.sQ)
    if q_s <= tau * q_cauchy:
        return s
    return cp.sQ


def _cg_tol(g: np.ndarray) -> float:
    return max(CG_ATOL, CG_RTOL * float(np.linalg.norm(g)))


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
    tol = max(CG_ATOL, 1e-14 * float(np.linalg.norm(g)))
    products = 0

    while products < budget:
        r = g + apply_model(model, s)
        products += 1
        converged = not free.any() or np.linalg.norm(r[free]) <= tol
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
        if curv <= 0.0 and not np.isfinite(alpha_max):
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
        if np.sqrt(rnew2) <= tol:
            break
        p = np.where(free, -r + (rnew2 / rfree2) * p, 0.0)
        rfree2 = rnew2
    return products


def _box_step(s, p, delta, free):
    """Max alpha with |s_i + alpha p_i| <= delta_i on free coords, and a mask
    of the coordinates attaining it."""
    moving = free & (p != 0.0)
    if not moving.any():
        return np.inf, None
    target = np.where(p > 0.0, delta, -delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.where(moving, (target - s) / p, np.inf)
    alpha = float(steps.min())
    if not np.isfinite(alpha):
        return np.inf, None
    hit = steps <= alpha * (1.0 + 1e-14)
    return alpha, hit


def _steihaug_toint(g, model, radius):
    """Classic truncated CG on the Euclidean ball of the given radius."""
    n = g.size
    s = np.zeros(n)
    if radius <= 0.0:
        return s
    r = g.copy()
    tol = _cg_tol(g)
    if np.linalg.norm(r) <= tol:
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
        if np.linalg.norm(s_next) >= radius:
            return _to_ball_boundary(s, p, radius)
        s = s_next
        r = r + alpha * bp
        r2_new = float(r @ r)
        if np.sqrt(r2_new) <= tol:
            break
        p = -r + (r2_new / r2) * p
    nrm = float(np.linalg.norm(s))
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
    sigma = (-sp + np.sqrt(max(disc, 0.0))) / pp
    out = s + sigma * p
    nrm = float(np.linalg.norm(out))
    if nrm > radius:
        out *= radius / nrm
    return out
