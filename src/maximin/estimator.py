"""Empirical worst-group estimators.

Two routes to an estimate:

* :func:`fit_reweighted` alternates a per-group weight update (weights
  proportional to a negative power of each group's explained variance, so
  badly explained groups dominate) with one weighted penalized regression.
  The weighted subproblem is a coordinate-descent lasso for the l1 penalty
  and a closed-form spectral solve for the l2 penalty; under a norm bound
  it is solved exactly over the norm ball.

* :func:`fit_maximal_penalty` computes the direction that the penalized
  estimator approaches as the penalty grows to its vanishing threshold, as a
  linear program over the G x p per-group cross-products only: the design
  matrix never enters, and the solver reads the cross-products in place, so
  storage is O(G^2 + p) on top of them.  :func:`rescale` then restores a
  prediction scale exactly, from one parabola per group.

Every fit is computed here: :func:`_fit_stats` fits one set of statistics,
:func:`_fit_chunk` a stack of them, as cross-validation does, on the same
routes.

The data enter only through per-group Gram matrices, cross-products and
sizes, and no other summary of Y, held in one :class:`GroupStats`: the one
input of every consumer below the public functions, which share it through
:func:`_validated_stats`, so it is validated and built once per (Dataset,
GroupSpec) pair.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    AllGroupsNonpositive,
    Infeasible,
    NonConverged,
    SolverError,
    ValidationError,
)
from .lp import _simplex_stack, simplex_solve
from .model import (
    L1,
    L2,
    MODE_CONSTRAINED,
    MODE_MAXIMAL,
    MODE_PENALIZED,
    Dataset,
    GroupSpec,
    MaximinFit,
    PenaltyConfig,
    validate,
)
from .oracle import DEFAULT_MAX_ITER, _simplex_qp

WEIGHT_FLOOR_SCALE = 1e-6
# exponent of the power mean that the reweighting loop maximizes: the mean
# grows with its exponent, so a smaller one lies nearer the worst group, but
# no exponent in (0, 1) reaches it
_ZETA = 0.01
_MAX_SWEEPS = 20_000     # coordinate-descent sweeps per weighted step


def _group_mass(group_V, zeta, floor, sizes):
    """Weight mass of each group in the outer loop: n_g * v_g^(zeta-1),
    normalized to sum to one.

    Group values are clamped below at ``floor`` before exponentiation, so
    groups whose fit currently explains nothing (or worse) receive the
    largest weight without dividing by zero.
    """
    v = np.maximum(np.asarray(group_V, dtype=np.float64), floor)
    raw = sizes * np.power(v, zeta - 1.0)
    return raw / raw.sum()


@dataclass(frozen=True, eq=False)
class GroupStats:
    """Per-group sufficient statistics of validated data: all a fit reads.

    ``grams`` (G, p, p) and ``crosses`` (G, p) are X_g'X_g / n_g and
    X_g'Y_g / n_g, ``sizes`` (G,) the n_g.  A stack of B sets of G groups
    each, all of one size pattern, holds grams (B, G, p, p) and crosses
    (B, G, p) with the one ``sizes``.  The arrays are not copied.
    """

    grams: np.ndarray
    crosses: np.ndarray
    sizes: np.ndarray

    def terms(self, beta) -> tuple[np.ndarray, np.ndarray]:
        """a_g = c_g'beta and q_g = beta' Gram_g beta of every group: scaled
        by s, beta explains 2 s a_g - s^2 q_g of group g.  On a stack, beta
        (B, p) holds one direction per set and the terms are (B, G)."""
        column = beta[..., :, None]
        return ((self.crosses @ column)[..., 0],
                ((self.grams @ column[..., None, :, :])[..., 0] @ column)[..., 0])

    def values(self, beta) -> np.ndarray:
        """Empirical explained variance of beta in every group at once."""
        a, q = self.terms(beta)
        return 2.0 * a - q


def _group_stats(dataset: Dataset, groups) -> GroupStats:
    """Statistics of the given index sets."""
    G = len(groups)
    p = dataset.p
    grams = np.empty((G, p, p))
    crosses = np.empty((G, p))
    sizes = np.empty(G)
    for g, idx in enumerate(groups):
        Xg = dataset.X[idx]
        Yg = dataset.Y[idx]
        n_g = idx.shape[0]
        grams[g] = Xg.T @ Xg / n_g
        crosses[g] = Xg.T @ Yg / n_g
        sizes[g] = n_g
    return GroupStats(grams, crosses, sizes)


def _validated_stats(dataset: Dataset, spec: GroupSpec) -> GroupStats:
    """Validate the data and groups, then build their statistics, once per
    (Dataset, GroupSpec) pair.

    Both types are immutable, so the spec keeps the statistics of the last
    dataset it was called with, keyed by a weak reference to that dataset
    object (an equal but distinct dataset or spec is validated and built
    again), and every later call with the same pair returns them.  They go
    with the spec, so a spec made for one call frees them when it is freed.
    Their arrays are read-only, since every consumer shares them.  A pair
    that fails validation raises on every call and is never stored.  The
    entry is one tuple, replaced whole, so threads that miss together each
    build and store a correct one.
    """
    memo = spec.__dict__.get("_stats_memo")
    if memo is not None and memo[0]() is dataset:
        return memo[1]
    validate(dataset, spec)
    stats = _group_stats(dataset, spec.groups)
    for a in (stats.grams, stats.crosses, stats.sizes):
        a.setflags(write=False)
    spec.__dict__["_stats_memo"] = (weakref.ref(dataset), stats)
    return stats


def _solve_weighted_l1(A, d, lam, beta0, tol, kappa=None):
    """Coordinate descent on  -2 b'd + b'Ab + lam * ||b||_1, or at lam = 0
    the exact minimizer of  -2 b'd + b'Ab  over the ball ||b||_1 <= kappa.

    Every diagonal entry of A is positive (see :func:`_fit_at_lambda`).  The
    coordinates are swept until the largest coordinate change is at most
    ``tol`` times the largest |b_j|, so an all-zero answer stops at once.
    When a bound kappa is given and the descent's answer lies outside the
    ball, the ball's minimizer is b = P'w with P = kappa [I; -I] its 2p
    vertices and w the simplex QP of the hull oracle with Q = P A P' and
    linear term -2 P d, solved to the duality gap ``tol`` times that QP's
    own scale, kappa^2 max_j A_jj + max |linear|: every stop is relative.
    """
    p = d.shape[0]
    beta = beta0.copy()
    diag = np.diag(A)
    Ab = A @ beta
    t = 0.5 * lam
    for _ in range(_MAX_SWEEPS):
        delta_max = 0.0
        for j in range(p):
            old = beta[j]
            z = d[j] - Ab[j] + diag[j] * old
            if z > t:
                new = (z - t) / diag[j]
            elif z < -t:
                new = (z + t) / diag[j]
            else:
                new = 0.0
            if new != old:
                Ab += (new - old) * A[:, j]
                beta[j] = new
                delta_max = max(delta_max, abs(new - old))
        if delta_max <= tol * np.abs(beta).max(initial=0.0):
            break
    else:
        raise NonConverged("coordinate descent hit the sweep limit", residual=delta_max)
    if kappa is None or np.abs(beta).sum() <= kappa:
        return beta
    P = kappa * np.vstack([np.eye(p), -np.eye(p)])
    linear = -2.0 * (P @ d)
    gap = tol * (kappa * kappa * float(diag.max()) + float(np.abs(linear).max()))
    w, _, _ = _simplex_qp(P, A, linear, gap, DEFAULT_MAX_ITER)
    return P.T @ w


def _solve_weighted_l2(A, d, lam, kappa=None):
    """Exact minimizer of  -2 b'd + b'Ab + lam * ||b||_2, or at lam = 0 of
    -2 b'd + b'Ab  over the ball ||b||_2 <= kappa.

    The first-order condition gives b = (A + mu I)^{-1} d with a scalar
    mu >= 0.  For the penalty, mu is tied to lam by  mu * ||b(mu)|| = lam / 2,
    a strictly increasing function of mu; lam = 0 degenerates to the plain
    weighted least-squares solve.  For the ball, mu = 0 when that solve lies
    inside it, and otherwise ||b(mu)|| = kappa, strictly decreasing in mu and
    at most kappa at mu = ||d|| / kappa: the trust-region step (More and
    Sorensen, 1983).  Either root is bisected to adjacent floats.

    Signal of d along a null direction of A (an eigenvalue at most 1e-12 of
    the largest) is refused; without it the null directions are dropped.
    """
    p = d.shape[0]
    evals, evecs = np.linalg.eigh(A)
    d_tilde = evecs.T @ d
    null = evals <= 1e-12 * evals.max(initial=0.0)
    if null.any():
        if np.linalg.norm(d_tilde[null]) > 1e-10 * np.linalg.norm(d):
            raise SolverError(
                "weighted Gram matrix is singular along the response direction")
        # no signal in the null space: restrict to the positive eigenspace
        evals, evecs, d_tilde = evals[~null], evecs[:, ~null], d_tilde[~null]

    if lam == 0.0:
        free = d_tilde / evals
        if kappa is None or np.linalg.norm(free) <= kappa:
            return evecs @ free
        mu = _bisect(lambda mu: np.linalg.norm(d_tilde / (evals + mu)) > kappa,
                     0.0, float(np.linalg.norm(d_tilde)) / kappa)
        return evecs @ (d_tilde / (evals + mu))
    norm_d = np.linalg.norm(d_tilde)
    if 2.0 * norm_d <= lam:
        return np.zeros(p)

    def g(mu):
        return mu * np.linalg.norm(d_tilde / (evals + mu)) - 0.5 * lam

    # ||b(mu)|| >= ||d~|| / (evals[-1] + mu), so g(hi) >= 0
    hi = lam * float(evals[-1]) / (2.0 * norm_d - lam)
    mu = _bisect(lambda mu: g(mu) < 0.0, 0.0, hi)
    return evecs @ (d_tilde / (evals + mu))


def _log_power_merit(group_V, sizes, zeta):
    """log of (sum_g n_g V_g^zeta)^(1/zeta); NaN whenever some group variance
    is nonpositive.

    With N = sum_g n_g this is log N / zeta plus the log of the size-weighted
    power mean (sum_g (n_g / N) V_g^zeta)^(1/zeta).  For zeta in (0, 1) that
    mean lies between the geometric and the arithmetic mean of the group
    variances: it is not a soft minimum (see "Exact empirical maximin with a
    duality-gap certificate" in ROADMAP.md).
    """
    v = np.asarray(group_V, dtype=np.float64)
    if np.any(v <= 0.0):
        return float("nan")
    return float(np.log((sizes * np.power(v, zeta)).sum()) / zeta)


def _bisect(holds, lo: float, hi: float) -> float:
    """Bisect [lo, hi], keeping holds(lo) true and holds(hi) false, until
    lo and hi are adjacent floats; returns the last midpoint (lo or hi)."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if holds(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _line_search_step(v0, slope, curv, sizes, zeta, floor) -> float:
    """Step s in [0, 1] maximizing sum_g n_g h(v0_g + s slope_g - s^2 curv_g),
    with h the power curve V^zeta continued below the floor by its tangent.

    h is concave and strictly increasing, so the merit is concave in s, and
    its slope is a positive multiple of the clamped weight mass at V(s) times
    dV/ds: the outer loop's own weights make the weighted solution an ascent
    direction, where a flat clamp would be blind to how negative a bad group
    gets.  Bisection on the sign of that slope runs to adjacent floats.
    """
    def rising(s):
        V = v0 + s * slope - s * s * curv
        return _group_mass(V, zeta, floor, sizes) @ (slope - 2.0 * s * curv) > 0.0

    if not rising(0.0):
        return 0.0
    if rising(1.0):
        return 1.0
    return _bisect(rising, 0.0, 1.0)


def lambda_max(dataset: Dataset, spec: GroupSpec, q: str = L1) -> float:
    """Penalty level at which the uniformly weighted fit collapses to zero.

    Twice the max-coordinate (l1) or the euclidean norm (l2) of the pooled
    cross-product; the top of a penalty grid, such as the one
    :func:`select.select_penalty` searches.
    """
    stats = _validated_stats(dataset, spec)
    pooled = stats.sizes @ stats.crosses / stats.sizes.sum()
    if q == L1:
        return 2.0 * float(np.abs(pooled).max())
    if q == L2:
        return 2.0 * float(np.linalg.norm(pooled))
    raise ValidationError(f"penalty q must be {L1!r} or {L2!r}")


def _norm_q(beta, q):
    return float(np.abs(beta).sum()) if q == L1 else float(np.linalg.norm(beta))


def _fit_at_lambda(stats: GroupStats, config: PenaltyConfig, lam: float) -> MaximinFit:
    """The outer reweighting loop at one fixed penalty level.

    In constrained mode (called with lam = 0) every weighted step is solved
    exactly over the ball ||b||_q <= kappa, so one run of the loop fits the
    constrained estimator and each iterate, a convex combination of points
    of the ball, stays inside it.

    A predictor that is zero in every group (a zero Gram diagonal) gets an
    exact 0 and is dropped; the weights are positive, so A keeps a positive
    diagonal.
    """
    kappa = config.kappa if config.mode == MODE_CONSTRAINED else None
    grams, crosses, sizes = stats.grams, stats.crosses, stats.sizes
    keep = np.diagonal(grams, axis1=1, axis2=2).any(axis=0)
    if not keep.all():
        grams, crosses = grams[:, keep][:, :, keep], crosses[:, keep]
    G, p = crosses.shape
    flat_grams = grams.reshape(G, p * p)
    mass = sizes / sizes.sum()          # uniform per-observation start
    beta = np.zeros(p)
    group_V = np.zeros(G)
    inner_tol = 0.01 * config.tol
    path = []
    best_beta, best_V, best_score = beta, group_V, -np.inf
    converged = False
    iterations = 0

    for iterations in range(1, config.max_iter + 1):
        A = (mass @ flat_grams).reshape(p, p)
        d = mass @ crosses
        if config.q == L1:
            cand = _solve_weighted_l1(A, d, lam, beta, inner_tol, kappa)
        else:
            cand = _solve_weighted_l2(A, d, lam, kappa)

        # V_g(beta + s d) = V_g(beta) + s slope_g - s^2 curv_g, so the new
        # group values come from the parabolas without another pass over
        # the Gram matrices
        direction = cand - beta
        Gd = grams @ direction
        slope = 2.0 * (crosses @ direction - Gd @ beta)
        curv = Gd @ direction
        step = 1.0
        # line-search the outer step on the tangent-continued power merit;
        # the raw update is bang-bang as soon as groups clamp at the floor,
        # and even on the positive region the full linearized step
        # overshoots, so the loop would otherwise creep or oscillate
        if iterations > 1:
            # floor was set from this group_V at the end of the last round
            step = _line_search_step(group_V, slope, curv, sizes, _ZETA, floor)
            cand = beta + step * direction

        V_new = group_V + step * slope - step * step * curv
        delta = float(np.abs(V_new - group_V).max())
        beta, group_V = cand, V_new
        path.append(_log_power_merit(group_V, sizes, _ZETA))

        score = float(group_V.min()) - lam * _norm_q(beta, config.q)
        if score > best_score:
            best_beta, best_V, best_score = beta.copy(), group_V.copy(), score

        scale = float(np.abs(group_V).max())
        if delta <= config.tol * scale:
            converged = True
            break
        floor = WEIGHT_FLOOR_SCALE * scale
        mass = _group_mass(group_V, _ZETA, floor, sizes)

    if not converged:
        beta, group_V = best_beta, best_V
    full = np.zeros(keep.shape[0])
    full[keep] = beta
    return MaximinFit(beta=full, group_V=group_V, scale=1.0,
                      iterations=iterations, converged=converged,
                      objective_path=tuple(path))


def fit_reweighted(dataset: Dataset, spec: GroupSpec,
                   config: PenaltyConfig) -> MaximinFit:
    """Iteratively reweighted worst-group fit, penalized or constrained.

    Starts from uniform weights and alternates the weight update with one
    weighted penalized regression; stops when no group's explained variance
    moves by more than ``config.tol`` times the largest |V_g| (a relative
    accuracy, so the fit does not depend on the units of X or Y) or after
    ``config.max_iter`` rounds (in which case the best iterate is returned
    with ``converged=False``).

    The weights are proportional to n_g V_g^(zeta - 1) with the fixed
    exponent zeta = 0.01, so a fixed point of the loop maximizes
    sum_g n_g V_g^zeta.  That is a size-weighted power mean of the group
    variances, between their geometric and arithmetic means: a surrogate for
    the worst-group value min_g V_g, not a soft minimum of it, and on
    inhomogeneous data the two maximizers can lie far apart (see "Exact
    empirical maximin with a duality-gap certificate" in ROADMAP.md).

    Constrained mode runs the same loop without a penalty and solves each
    weighted step exactly over the ball ||b||_q <= kappa: the l2 step is a
    trust-region solve, the l1 step a simplex QP over the ball's 2p
    vertices.  The fit therefore never leaves the ball.  A step whose
    unconstrained solution lies inside the ball is that solution, so a bound
    that no step reaches returns the unpenalized fit.

    Raises :class:`AllGroupsNonpositive` when a fit without penalty
    (penalized with lam = 0, or constrained) leaves every group's explained
    variance at or below zero: the worst-case signal is then
    indistinguishable from zero.
    """
    stats = _validated_stats(dataset, spec)
    if config.mode == MODE_MAXIMAL:
        raise ValidationError("maximal mode is computed by fit_maximal_penalty")
    return _fit_stats(stats, config)


def fit_maximal_penalty(cross_products, config: PenaltyConfig | None = None) -> np.ndarray:
    """Direction limit of the penalized estimator at its vanishing threshold.

    Minimizes the l1 norm subject to a unit lower bound on every group
    alignment beta'c_g: the linear program of :func:`lp.simplex_solve`,
    which reads the G x p cross-products C in place, so memory is O(G^2 + p)
    on top of C.  The design matrix is never touched.  Raises
    :class:`Infeasible` when no direction aligns positively with all
    groups, which is exactly the vanishing-signal geometry.
    """
    if config is not None and config.q != L1:
        raise ValidationError("the maximal-penalty direction is defined for the l1 penalty")
    return simplex_solve(np.atleast_2d(cross_products)).beta


def rescale(beta, dataset: Dataset, spec: GroupSpec) -> float:
    """Optimal prediction scale for a fixed direction.

    Maximizes  min_g (2 s beta'c_g - s^2 beta' Gram_g beta)  over s >= 0, a
    minimum of concave parabolas, exactly: see :func:`_rescale`.  Zero is
    returned whenever some group's alignment is nonpositive (the objective
    then slopes down immediately).
    """
    beta = np.asarray(beta, dtype=np.float64)
    if not np.any(beta):
        raise ValidationError("rescale needs a nonzero direction")
    a, q = _validated_stats(dataset, spec).terms(beta)
    return float(_rescale(a[None], q[None])[0])


def _rescale(a, q) -> np.ndarray:
    """:func:`rescale` of every row of a stack of directions, from their
    terms a_g = beta'c_g and q_g = beta' Gram_g beta (see
    :meth:`GroupStats.terms`), both (B, G); one direction is a stack of one,
    and a row's scale is the one it gets alone, to the bit.

    The objective is s * min_g (2 a_g - s q_g), so on each stretch where
    line k is the lowest of the lines 2 a_g - s q_g its best point is the
    vertex a_k / q_k.  The walk follows that lower envelope from s = 0: on
    the active line it stops at the vertex (clipped below at the kink where
    the line took over), unless a steeper line crosses first, in which case
    it moves to that crossing.  Every move goes to a strictly steeper line,
    so there are at most G of them.  The rows walk in lockstep, and a row
    that has stopped is masked out of every division with ``where=``.
    """
    B, G = a.shape
    rows = np.arange(B)
    scale = np.zeros(B)
    walking = a.min(axis=1) > 0.0
    # lowest at s = 0, steepest on ties
    k = np.where(a == a.min(axis=1, keepdims=True), q, -np.inf).argmax(axis=1)
    kink = np.zeros(B)
    while walking.any():
        ak, qk = a[rows, k], q[rows, k]
        vertex = np.maximum(kink, np.divide(ak, qk, out=np.full(B, np.inf),
                                            where=walking & (qk > 0.0)))
        steeper = walking[:, None] & (q > qk[:, None])
        cross = np.divide(2.0 * (a - ak[:, None]), q - qk[:, None],
                          out=np.full((B, G), np.inf), where=steeper)
        j = cross.argmin(axis=1)
        moving = walking & (cross[rows, j] < vertex)
        stopped = walking & ~moving
        if np.any(qk[stopped] <= 0.0):
            raise SolverError("all group quadratic terms vanish for this direction")
        scale[stopped] = vertex[stopped]
        kink[moving] = np.maximum(cross[rows, j], kink)[moving]
        k[moving] = j[moving]
        walking = moving
    return scale


def fit_with_config(dataset: Dataset, spec: GroupSpec,
                    config: PenaltyConfig) -> MaximinFit:
    """Dispatch on the configured mode; maximal mode includes the rescale."""
    return _fit_stats(_validated_stats(dataset, spec), config)


def _fit_stats(stats: GroupStats, config: PenaltyConfig) -> MaximinFit:
    """:func:`fit_with_config` on group statistics already built from
    validated data; maximal mode is the stack of one of :func:`_fit_chunk`.
    A fit without penalty (lam = 0, or constrained) whose every V_g is at
    most zero raises :class:`AllGroupsNonpositive`; a zero response gives exact zeros."""
    if config.mode == MODE_MAXIMAL:
        beta, scale, group_V, vanished = _fit_chunk(
            GroupStats(stats.grams[None], stats.crosses[None], stats.sizes), config)
        if vanished[0]:
            raise Infeasible("no direction aligns positively with every group")
        return MaximinFit(beta=beta[0], group_V=group_V[0], scale=float(scale[0]),
                          iterations=0, converged=True)
    lam = config.lam if config.mode == MODE_PENALIZED else 0.0
    fit = _fit_at_lambda(stats, config, lam)
    if lam == 0.0 and float(fit.group_V.max()) <= 0.0:
        raise AllGroupsNonpositive("no coefficient vector positively explains any group")
    return fit


def _fit_chunk(stats: GroupStats, config: PenaltyConfig):
    """The fit of every set of a stack of B statistics sets, each the one
    :func:`_fit_stats` gives it alone: (beta (B, p), scale (B,), group_V
    (B, G), vanished (B,)).  A fit vanishes when its maximal LP is
    infeasible or it raises :class:`AllGroupsNonpositive`; it is then the
    zero fit, with beta, scale and group_V all zero.

    Maximal mode solves the B LPs as one stack, takes every program's terms
    in batched products, rescales all of them in one walk and forms
    group_V = s (2a - s q) from the same terms.  The reweighted modes fit
    the sets one after another.
    """
    if config.mode == MODE_MAXIMAL:
        beta, _, _, vanished = _simplex_stack(stats.crosses)
        a, q = stats.terms(beta)
        scale = _rescale(a, q)
        s = scale[:, None]
        return beta, scale, s * (2.0 * a - s * q), vanished
    B, G, p = stats.crosses.shape
    beta, scale, group_V = np.zeros((B, p)), np.zeros(B), np.zeros((B, G))
    vanished = np.zeros(B, dtype=bool)
    for b in range(B):
        try:
            fit = _fit_stats(GroupStats(stats.grams[b], stats.crosses[b], stats.sizes), config)
        except AllGroupsNonpositive:
            vanished[b] = True
            continue
        beta[b], scale[b], group_V[b] = fit.beta, fit.scale, fit.group_V
    return beta, scale, group_V, vanished
