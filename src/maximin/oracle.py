"""Population-level effects for a known coefficient support.

Three reference quantities for a support {b_1..b_d} with Gram matrix S:

* the pooled effect, the weighted mean of the support points, optimal on
  average over the coefficient distribution;
* the maximin effect, the point of the convex hull closest to the origin in
  the S-metric, which maximizes the worst-case explained variance;
* the pred-maximin effect, the center of the smallest enclosing S-ball of
  the support, which minimizes the worst-case residual variance.

Both hull problems reduce to quadratic programs over the simplex of hull
weights and are solved exactly by one primal active-set method: it prices
every point with one operator application and solves a small KKT system on
the points with positive weight, so it ends after finitely many steps.  Its
certificate is the Frank-Wolfe duality gap, at most max(tol, k eps max_j
||b_j||^2_S), the rounding level of the gradient where that exceeds tol.  The
hull QP also decides whether the origin lies in the hull, which makes the
maximin effect zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidWeights, NonConverged
from .model import SupportSet

DEFAULT_GAP_TOL = 1e-9
DEFAULT_MAX_ITER = 200_000
_GAP_FLOOR_ULPS = 16     # k in the gap floor k eps max_j b_j'S b_j
# singular values of the KKT matrix below this share of the largest are
# taken as zero: the active points are then affinely dependent
_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class HullSolution:
    """A point of the convex hull with the hull QP's weights, gap and
    iterations; the point is exactly zero when the origin lies in the hull."""

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


def _simplex_qp(P, sigma, linear, tol, max_iter):
    """Minimize w'(P S P')w + linear'w over the probability simplex.

    A primal active-set method.  Each outer iteration prices every point
    with one operator application (the d x d matrix P S P' is never
    formed), stops once the Frank-Wolfe gap w'grad - min(grad) is within
    max(tol, k eps max_j Q_jj), the gradient's rounding level at
    k = ``_GAP_FLOOR_ULPS``, and otherwise adds the cheapest point to the
    active set; then ``_descend`` moves to the minimizer over the active
    set's affine hull, dropping points whose weight reaches zero on the way.
    A priced point that is already active makes it solve the same set again
    from the current weights, which refines them; an outer iteration that
    leaves the set as it was and does not lower the gap raises
    ``NonConverged`` instead of repeating itself.

    Returns ``(w, gap, iterations)``; ``gap`` is the true gap of ``w``.
    """
    sig_pts = P @ sigma          # d x p, reused by every pricing
    diag_q = np.einsum("ij,ij->i", P, sig_pts)
    tol = max(tol, _GAP_FLOOR_ULPS * np.finfo(np.float64).eps * float(diag_q.max()))
    start = int(np.argmin(diag_q + linear))
    active, wa = np.array([start]), np.ones(1)
    same_set, last_gap = False, np.inf
    for it in itertools.count():
        grad = 2.0 * (sig_pts @ (P[active].T @ wa)) + linear
        s = int(np.argmin(grad))
        gap = float(wa @ grad[active] - grad[s])
        if gap <= tol:
            w = np.zeros(P.shape[0])
            w[active] = wa
            return w, gap, it
        if it == max_iter:
            raise NonConverged("simplex QP did not reach the gap tolerance",
                               residual=gap)
        if same_set and gap >= last_gap:
            raise NonConverged("simplex QP stalled: solving the active set "
                               "again does not lower the gap", residual=gap)
        if s in active:
            grown, w0 = active, wa
        else:
            grown, w0 = np.append(active, s), np.append(wa, 0.0)
        keep, wa = _descend(sig_pts[grown] @ P[grown].T, linear[grown], w0)
        same_set = np.array_equal(np.sort(grown[keep]), np.sort(active))
        active, last_gap = grown[keep], gap


def _descend(Q, c, w):
    """Descend from the simplex point ``w`` to a subset of its points on whose
    affine hull w'Qw + c'w has a minimizer with positive weights.

    The equality-constrained problem on the current subset is solved through
    its bordered KKT matrix, factored by an SVD so that an affinely dependent
    subset shows as a rank loss.  A positive solution is the answer.
    Otherwise the iterate moves toward it, or, on a dependent subset, along
    the null direction that does not raise the objective (there the objective
    is linear, and unbounded below when ``c`` has a component along it),
    until the first weight reaches zero; that point is dropped and the
    smaller subset solved again.  Returns ``(indices kept, their weights)``.
    """
    idx = np.arange(w.size)
    while idx.size > 1:
        k = idx.size
        q2 = 2.0 * Q[np.ix_(idx, idx)]
        grad = q2 @ w + c[idx]
        grad -= w @ grad      # the multiplier absorbs a constant shift
        border = float(np.abs(q2).max())   # balances the two blocks
        kkt = np.empty((k + 1, k + 1))
        kkt[:k, :k] = q2
        kkt[:k, k] = kkt[k, :k] = border
        kkt[k, k] = 0.0
        u, sv, vt = np.linalg.svd(kkt)
        if sv[-1] > _RANK_RTOL * sv[0]:
            # the step to the minimizer, solved from the gradient at w so
            # that solving again from a rounded solution refines it
            direction = (vt.T @ ((u.T @ np.append(-grad, 0.0)) / sv))[:k]
            v = w + direction
            if np.all(v > 0.0):
                return idx, v / v.sum()
            blocked = v <= 0.0
        else:
            direction = vt[-1, :k]
            if direction @ grad > 0.0:
                direction = -direction
            blocked = direction < 0.0
        # step to the first zero: t_i = w_i / -direction_i on the blocked
        # points (a new point enters at weight 0, so t may be 0)
        ratios = np.full(k, np.inf)
        ratios[blocked] = w[blocked] / np.maximum(-direction[blocked], 1e-300)
        j = int(np.argmin(ratios))
        w = w + ratios[j] * direction
        w[j] = 0.0
        keep = w > 0.0
        idx, w = idx[keep], w[keep] / w[keep].sum()
    return idx, np.ones(1)


def hull_projection(support: SupportSet, tol: float = DEFAULT_GAP_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> HullSolution:
    """S-metric projection of the origin onto the convex hull of the support.

    One hull QP decides both cases: if its hull point g does not strictly
    separate, min_j b_j'S g <= 0, the origin is in the hull (a convex
    combination equal to zero makes that minimum nonpositive for every g)
    and the zero vector is returned with the QP's weights, gap and iterations.
    """
    P = support.points
    w, gap, iters = _simplex_qp(P, support.sigma, np.zeros(support.d), tol, max_iter)
    point = P.T @ w
    if float((P @ (support.sigma @ point)).min()) <= 0.0:
        point = np.zeros(support.p)
    return HullSolution(point=point, weights=w, gap=gap, iterations=iters)


def maximin_effect(support: SupportSet, tol: float = DEFAULT_GAP_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """The coefficient vector maximizing the worst-case explained variance.

    Geometrically the minimum-S-norm point of the convex hull of the
    support.  The returned point g satisfies the first-order condition
    2 g'S(b_j - g) >= -max(tol, k eps max_j b_j'S b_j) for every support
    point b_j, and is exactly zero when the origin lies in the hull.
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
    w, _, _ = _simplex_qp(P, support.sigma, -diag_q, tol, max_iter)
    return P.T @ w


def conservative_check(support: SupportSet, beta,
                       tol: float = DEFAULT_GAP_TOL) -> tuple[bool, float, np.ndarray]:
    """Is the expected inner product of predictions and residuals nonnegative
    for every support point?

    Returns ``(ok, worst_value, worst_point)`` where ``worst_value`` is
    min_b beta'S(b - beta) and ``worst_point`` the minimizing support point.
    The maximin effect passes this check by construction: its predictions may
    under-explain the signal but are never negatively correlated with the
    residuals.  ``tol`` is relative to max_b b'S b (the check passes when
    ``worst_value >= -tol max_b b'S b``), so units do not change the verdict.
    """
    beta = np.asarray(beta, dtype=np.float64)
    inner = support.points @ (support.sigma @ beta) - float(beta @ support.sigma @ beta)
    worst = int(np.argmin(inner))
    value = float(inner[worst])
    scale = float(((support.points @ support.sigma) * support.points).sum(axis=1).max())
    return value >= -tol * scale, value, support.points[worst].copy()
