"""Population-level effects for a known coefficient support.

Three reference quantities for a support {b_1..b_d} with Gram matrix S:

* the pooled effect, the weighted mean of the support points, optimal on
  average over the coefficient distribution;
* the maximin effect, the point of the convex hull closest to the origin in
  the S-metric, which maximizes the worst-case explained variance;
* the pred-maximin effect, the center of the smallest enclosing S-ball of
  the support, which minimizes the worst-case residual variance.

Both hull problems reduce to quadratic programs over the simplex of hull
weights and are solved by Frank-Wolfe with away steps: the linear
minimization oracle over a simplex is a vertex scan, so every step is exact
and the duality gap gives a rigorous stopping certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidWeights, NonConverged
from .lp import origin_hull_weights
from .model import SupportSet

DEFAULT_GAP_TOL = 1e-9
DEFAULT_MAX_ITER = 200_000


@dataclass(frozen=True)
class HullSolution:
    """A point of the convex hull together with its simplex weights."""

    point: np.ndarray
    weights: np.ndarray
    gap: float
    iterations: int


def pooled_effect(support: SupportSet, weights=None) -> np.ndarray:
    """Weighted mean of the support points.

    With a full-rank Gram matrix the average-case optimal coefficient is
    exactly the mean coefficient, so no optimization is needed.
    """
    d = support.d
    if weights is None:
        w = np.full(d, 1.0 / d)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (d,):
            raise InvalidWeights(f"need {d} weights, got shape {w.shape}")
        if np.any(w < 0.0) or not np.isclose(w.sum(), 1.0, atol=1e-9):
            raise InvalidWeights("weights must be nonnegative and sum to 1")
    return support.points.T @ w


def _fw_simplex_qp(P, sigma, linear, tol, max_iter):
    """Minimize w'(P S P')w + linear'w over the probability simplex.

    The quadratic form is applied lazily through P and S, so the d x d
    Hessian is never materialized (d may be large).  Away steps give linear
    convergence; a step keeps a running product q = (P S P')w up to date so
    each iteration costs one operator application.
    """
    d = P.shape[0]
    sig_pts = P @ sigma          # d x p, reused by every operator call

    def apply_q(v):
        return sig_pts @ (P.T @ v)

    w = np.zeros(d)
    start = int(np.argmin(np.einsum("ij,ij->i", P, sig_pts) + linear))
    w[start] = 1.0
    q = apply_q(w)

    for it in range(max_iter):
        grad = 2.0 * q + linear
        s = int(np.argmin(grad))
        fw_gap = float(w @ grad - grad[s])
        if fw_gap <= tol:
            return w, fw_gap, it
        active = np.where(w > 0.0)[0]
        a = int(active[np.argmax(grad[active])])
        away_gap = float(grad[a] - w @ grad)

        if fw_gap >= away_gap:
            direction = -w.copy()
            direction[s] += 1.0
            gamma_max = 1.0
        else:
            direction = w.copy()
            direction[a] -= 1.0
            wa = w[a]
            gamma_max = wa / (1.0 - wa) if wa < 1.0 else np.inf

        q_dir = apply_q(direction)
        curv = float(direction @ q_dir)
        slope = float(grad @ direction)
        if curv <= 1e-300:
            gamma = gamma_max if slope < 0 else 0.0
        else:
            gamma = min(max(-slope / (2.0 * curv), 0.0), gamma_max)
        if gamma <= 0.0:
            return w, fw_gap, it
        w = w + gamma * direction
        q = q + gamma * q_dir
        # numerical cleanup keeps the iterate on the simplex; refresh the
        # running product now and then so rounding drift cannot accumulate
        w[w < 1e-15] = 0.0
        w /= w.sum()
        if (it + 1) % 512 == 0:
            q = apply_q(w)

    grad = 2.0 * apply_q(w) + linear
    gap = float(w @ grad - grad.min())
    if gap > tol:
        raise NonConverged("simplex QP did not reach the gap tolerance", residual=gap)
    return w, gap, max_iter


def hull_projection(support: SupportSet, tol: float = DEFAULT_GAP_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> HullSolution:
    """S-metric projection of the origin onto the convex hull of the support.

    When the origin lies inside the hull (decided by an exact feasibility
    LP), the projection is the zero vector and is returned as such.
    """
    P = support.points
    w_zero = origin_hull_weights(P)
    if w_zero is not None:
        return HullSolution(point=np.zeros(support.p), weights=w_zero,
                            gap=0.0, iterations=0)
    w, gap, iters = _fw_simplex_qp(P, support.sigma, np.zeros(support.d), tol, max_iter)
    return HullSolution(point=P.T @ w, weights=w, gap=gap, iterations=iters)


def maximin_effect(support: SupportSet, tol: float = DEFAULT_GAP_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """The coefficient vector maximizing the worst-case explained variance.

    Geometrically the minimum-S-norm point of the convex hull of the
    support.  The returned point g satisfies the first-order condition
    2 g'S(b_j - g) >= -tol for every support point b_j.
    """
    return hull_projection(support, tol=tol, max_iter=max_iter).point


def pred_maximin_effect(support: SupportSet, tol: float = DEFAULT_GAP_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """The coefficient vector minimizing the worst-case residual variance.

    Equivalent to the center of the smallest ball (in the S-metric) that
    encloses all support points.  The center is a hull point whose weights
    solve  min_w  w'Qw - diag(Q)'w  over the simplex with Q = P S P', the
    dual of the enclosing-ball problem; the duality gap of that program
    bounds the suboptimality of the worst-case residual variance directly.
    """
    P = support.points
    sig_pts = P @ support.sigma
    diag_q = np.einsum("ij,ij->i", P, sig_pts)
    w, _, _ = _fw_simplex_qp(P, support.sigma, -diag_q, tol, max_iter)
    return P.T @ w


def conservative_check(support: SupportSet, beta,
                       tol: float = DEFAULT_GAP_TOL) -> tuple[bool, float, np.ndarray]:
    """Is the expected inner product of predictions and residuals nonnegative
    for every support point?

    Returns ``(ok, worst_value, worst_point)`` where ``worst_value`` is
    min_b beta'S(b - beta) and ``worst_point`` the minimizing support point.
    The maximin effect passes this check by construction: its predictions may
    under-explain the signal but are never negatively correlated with the
    residuals.
    """
    beta = np.asarray(beta, dtype=np.float64)
    inner = support.points @ (support.sigma @ beta) - float(beta @ support.sigma @ beta)
    worst = int(np.argmin(inner))
    value = float(inner[worst])
    return value >= -tol, value, support.points[worst].copy()
