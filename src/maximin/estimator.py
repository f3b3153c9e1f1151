"""Empirical worst-group estimators.

Two routes to an estimate:

* :func:`fit_reweighted` alternates a per-group weight update (weights
  proportional to a negative power of each group's explained variance, so
  badly explained groups dominate) with one weighted penalized regression.
  The weighted subproblem is a coordinate-descent lasso for the l1 penalty
  and a closed-form spectral solve for the l2 penalty.

* :func:`fit_maximal_penalty` computes the direction that the penalized
  estimator approaches as the penalty grows to its vanishing threshold, as a
  linear program over per-group cross-products only: the design matrix never
  enters, so storage is O(pG).  :func:`rescale` then restores a prediction
  scale by a one-dimensional concave search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    AllGroupsNonpositive,
    NonConverged,
    SolverError,
    ValidationError,
)
from .lp import simplex_solve
from .model import (
    L1,
    L2,
    MODE_MAXIMAL,
    MODE_PENALIZED,
    Dataset,
    GroupSpec,
    MaximinFit,
    PenaltyConfig,
    validate,
)

WEIGHT_FLOOR_SCALE = 1e-6


@dataclass(frozen=True)
class WeightState:
    """Per-observation weights, constant within groups, summing to one."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


def _group_mass(group_V, zeta, floor, sizes):
    """Normalized per-group weight mass n_g * v_g^(zeta-1) / sum."""
    v = np.maximum(np.asarray(group_V, dtype=np.float64), floor)
    raw = sizes * np.power(v, zeta - 1.0)
    return raw / raw.sum()


def update_weights(group_V, zeta: float, floor: float, group_sizes=None) -> WeightState:
    """Weight update of the outer loop.

    Group values are clamped below at ``floor`` before exponentiation, so
    groups whose fit currently explains nothing (or worse) receive the
    largest weight without dividing by zero.  The returned per-observation
    weights are constant within each group and normalized to sum to one.
    """
    group_V = np.asarray(group_V, dtype=np.float64)
    if not (0.0 < zeta < 1.0):
        raise ValidationError("zeta must lie strictly inside (0, 1)")
    if floor <= 0.0:
        raise ValidationError("floor must be positive")
    if group_sizes is None:
        sizes = np.ones(group_V.shape[0])
    else:
        sizes = np.asarray(group_sizes, dtype=np.float64)
    mass = _group_mass(group_V, zeta, floor, sizes)
    return WeightState(w=np.repeat(mass / sizes, sizes.astype(np.int64)))


def _group_stats(dataset: Dataset, spec: GroupSpec):
    """Per-group Gram matrices, cross-products and sizes."""
    G = spec.n_groups
    p = dataset.p
    grams = np.empty((G, p, p))
    crosses = np.empty((G, p))
    sizes = np.empty(G)
    for g, idx in enumerate(spec.groups):
        Xg = dataset.X[idx]
        Yg = dataset.Y[idx]
        n_g = idx.shape[0]
        grams[g] = Xg.T @ Xg / n_g
        crosses[g] = Xg.T @ Yg / n_g
        sizes[g] = n_g
    return grams, crosses, sizes


def _group_variances(grams, crosses, beta):
    """Empirical explained variance of beta in every group at once."""
    quad = np.einsum("gij,i,j->g", grams, beta, beta)
    return 2.0 * crosses @ beta - quad


def _soft_threshold(z, t):
    return np.sign(z) * max(abs(z) - t, 0.0)


def _solve_weighted_l1(A, d, lam, beta0, tol, max_sweeps=20_000):
    """Coordinate descent on  -2 b'd + b'Ab + lam * ||b||_1.

    Sweeps until the largest coordinate change falls below a scale-free
    threshold.
    """
    p = d.shape[0]
    beta = beta0.copy()
    Ab = A @ beta
    diag = np.diag(A)
    for _ in range(max_sweeps):
        delta_max = 0.0
        for j in range(p):
            old = beta[j]
            z = d[j] - Ab[j] + diag[j] * old
            if diag[j] <= 1e-300:
                new = 0.0
            else:
                new = _soft_threshold(z, 0.5 * lam) / diag[j]
            if new != old:
                Ab += (new - old) * A[:, j]
                beta[j] = new
                delta_max = max(delta_max, abs(new - old))
        if delta_max < tol * (1.0 + np.abs(beta).max(initial=0.0)):
            return beta
    raise NonConverged("coordinate descent hit the sweep limit", residual=delta_max)


def _solve_weighted_l2(A, d, lam):
    """Exact minimizer of  -2 b'd + b'Ab + lam * ||b||_2.

    The first-order condition gives b = (A + mu I)^{-1} d with the scalar mu
    tied to lam by  mu * ||b(mu)|| = lam / 2, a strictly increasing function
    of mu, so a bracketed scalar root-find is exact.  lam = 0 degenerates to
    the plain weighted least-squares solve.
    """
    p = d.shape[0]
    evals, evecs = np.linalg.eigh(A)
    if evals[0] <= 1e-12 * max(1.0, evals[-1]):
        dn = evecs.T @ d
        null = evals <= 1e-12 * max(1.0, evals[-1])
        if np.linalg.norm(dn[null]) > 1e-10 * max(1.0, np.linalg.norm(d)):
            raise SolverError(
                "weighted Gram matrix is singular along the response direction")
        # no signal in the null space: restrict to the positive eigenspace
        keep = ~null
        evals, evecs, d_tilde = evals[keep], evecs[:, keep], dn[keep]
    else:
        d_tilde = evecs.T @ d

    if lam == 0.0:
        return evecs @ (d_tilde / evals)
    from scipy.optimize import brentq  # slow to import; unused at lam = 0

    norm_d = np.linalg.norm(d_tilde)
    if 2.0 * norm_d <= lam:
        return np.zeros(p)

    def g(mu):
        return mu * np.linalg.norm(d_tilde / (evals + mu)) - 0.5 * lam

    hi = max(lam, float(evals[-1]), 1.0)
    while g(hi) < 0.0:
        hi *= 4.0
    mu = brentq(g, 0.0, hi, xtol=1e-15, rtol=1e-14)
    return evecs @ (d_tilde / (evals + mu))


_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo, hi, iters=40):
    """Maximize a scalar function on [lo, hi]; returns (argmax, max).

    Exact for concave f, a safe improvement heuristic otherwise (callers
    compare against the interval endpoints anyway).
    """
    a, b = lo, hi
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
    ends = [(lo, f(lo)), (hi, f(hi)), (x1, f1), (x2, f2)]
    return max(ends, key=lambda t: t[1])


def _log_power_merit(group_V, sizes, zeta):
    """log of (sum_g n_g V_g^zeta)^(1/zeta); NaN whenever some group variance
    is nonpositive.

    With N = sum_g n_g this is log N / zeta plus the log of the size-weighted
    power mean (sum_g (n_g / N) V_g^zeta)^(1/zeta).  For zeta in (0, 1) that
    mean lies between the geometric and the arithmetic mean of the group
    variances: it is not a soft minimum (see "Certify the worst-group
    objective" in ROADMAP.md).
    """
    v = np.asarray(group_V, dtype=np.float64)
    if np.any(v <= 0.0):
        return float("nan")
    return float(np.log((sizes * np.power(v, zeta)).sum()) / zeta)


def _clamped_power_merit(group_V, sizes, zeta, floor):
    """sum_g n_g h(V_g) with h the power curve V^zeta continued below the
    floor by its tangent line.

    The tangent continuation keeps h concave and strictly increasing, and its
    slope at clamped values is exactly the clamped weight formula, so the
    weighted subproblem's solution is an ascent direction for this merit.  A
    flat clamp would instead be blind to how negative a bad group gets.
    """
    v = np.asarray(group_V, dtype=np.float64)
    h = np.where(v >= floor,
                 np.power(np.maximum(v, floor), zeta),
                 floor ** zeta + zeta * floor ** (zeta - 1.0) * (v - floor))
    return float((sizes * h).sum())


def lambda_max(dataset: Dataset, spec: GroupSpec, q: str = L1) -> float:
    """Penalty level at which the uniformly weighted fit collapses to zero.

    Twice the max-coordinate (l1) or the euclidean norm (l2) of the pooled
    cross-product; a valid bracket endpoint for penalty searches.
    """
    validate(dataset, spec)
    _, crosses, sizes = _group_stats(dataset, spec)
    pooled = sizes @ crosses / sizes.sum()
    if q == L1:
        return 2.0 * float(np.abs(pooled).max())
    if q == L2:
        return 2.0 * float(np.linalg.norm(pooled))
    raise ValidationError(f"penalty q must be {L1!r} or {L2!r}")


def _norm_q(beta, q):
    return float(np.abs(beta).sum()) if q == L1 else float(np.linalg.norm(beta))


def _fit_at_lambda(grams, crosses, sizes, config: PenaltyConfig, lam: float) -> MaximinFit:
    """The outer reweighting loop at one fixed penalty level."""
    G, p = crosses.shape
    mass = sizes / sizes.sum()          # uniform per-observation start
    beta = np.zeros(p)
    group_V = _group_variances(grams, crosses, beta)
    inner_tol = max(1e-14, 0.01 * config.tol)
    path = []
    best_beta, best_V, best_score = beta, group_V, -np.inf
    converged = False
    iterations = 0

    for iterations in range(1, config.max_iter + 1):
        A = np.einsum("g,gij->ij", mass, grams)
        d = mass @ crosses
        if config.q == L1:
            cand = _solve_weighted_l1(A, d, lam, beta, inner_tol)
        else:
            cand = _solve_weighted_l2(A, d, lam)

        # line-search the outer step on the tangent-continued power merit;
        # the raw update is bang-bang as soon as groups clamp at the floor,
        # and even on the positive region the full linearized step
        # overshoots, so the loop would otherwise creep or oscillate
        if iterations > 1:
            floor = WEIGHT_FLOOR_SCALE * max(1.0, float(group_V.max()))
            direction = cand - beta

            def merit_at(step):
                V_s = _group_variances(grams, crosses, beta + step * direction)
                return _clamped_power_merit(V_s, sizes, config.zeta, floor)

            best_step, best_merit = _golden_section(merit_at, 0.0, 1.0)
            if best_merit >= merit_at(0.0):
                cand = beta + best_step * direction
            else:
                cand = beta

        V_new = _group_variances(grams, crosses, cand)
        delta = float(np.abs(V_new - group_V).max())
        beta, group_V = cand, V_new
        path.append(_log_power_merit(group_V, sizes, config.zeta))

        score = float(group_V.min()) - lam * _norm_q(beta, config.q)
        if score > best_score:
            best_beta, best_V, best_score = beta.copy(), group_V.copy(), score

        if delta < config.tol:
            converged = True
            break
        floor = WEIGHT_FLOOR_SCALE * max(1.0, float(group_V.max()))
        mass = _group_mass(group_V, config.zeta, floor, sizes)

    if not converged:
        beta, group_V = best_beta, best_V
    return MaximinFit(beta=beta, group_V=group_V, scale=1.0,
                      iterations=iterations, converged=converged,
                      objective_path=tuple(path))


def fit_reweighted(dataset: Dataset, spec: GroupSpec,
                   config: PenaltyConfig) -> MaximinFit:
    """Iteratively reweighted worst-group fit, penalized or constrained.

    Starts from uniform weights and alternates the weight update with one
    weighted penalized regression; stops when no group's explained variance
    moves by more than ``config.tol`` or after ``config.max_iter`` rounds (in
    which case the best iterate is returned with ``converged=False``).

    The weights are proportional to n_g V_g^(zeta - 1), so a fixed point of
    the loop maximizes sum_g n_g V_g^zeta.  For zeta in (0, 1) that is a
    size-weighted power mean of the group variances, between their
    geometric and arithmetic means: a surrogate for the worst-group value
    min_g V_g, not a soft minimum of it, and on inhomogeneous data the two
    maximizers can lie far apart (see "Certify the worst-group objective"
    in ROADMAP.md).

    Constrained mode realizes the norm bound by bisecting the penalty level
    until the fitted norm lands within 1% of kappa; when even the
    unpenalized fit satisfies the bound the constraint is slack and the
    unpenalized fit is returned.

    Raises :class:`AllGroupsNonpositive` when an effectively unpenalized fit
    leaves every group's explained variance at or below zero: the worst-case
    signal is then indistinguishable from zero.
    """
    validate(dataset, spec)
    if config.mode == MODE_MAXIMAL:
        raise ValidationError("maximal mode is computed by fit_maximal_penalty")
    grams, crosses, sizes = _group_stats(dataset, spec)

    # a fit is "dead" when even its best group explains nothing beyond
    # numerical dust relative to the response scale
    dead_level = 1e-12 * max(1.0, float(dataset.Y @ dataset.Y) / dataset.n)

    if config.mode == MODE_PENALIZED:
        fit = _fit_at_lambda(grams, crosses, sizes, config, config.lam)
        if config.lam == 0.0 and float(fit.group_V.max()) <= dead_level:
            raise AllGroupsNonpositive(
                "no coefficient vector positively explains any group")
        return fit

    # constrained mode
    kappa = float(config.kappa)
    fit0 = _fit_at_lambda(grams, crosses, sizes, config, 0.0)
    if _norm_q(fit0.beta, config.q) <= kappa:
        if float(fit0.group_V.max()) <= dead_level:
            raise AllGroupsNonpositive(
                "no coefficient vector positively explains any group")
        return fit0

    pooled = sizes @ crosses / sizes.sum()
    hi = 2.0 * (np.abs(pooled).max() if config.q == L1 else np.linalg.norm(pooled))
    fit_hi = _fit_at_lambda(grams, crosses, sizes, config, hi)
    guard = 0
    while _norm_q(fit_hi.beta, config.q) > kappa and guard < 60:
        hi *= 2.0
        fit_hi = _fit_at_lambda(grams, crosses, sizes, config, hi)
        guard += 1

    lo = 0.0
    best = fit_hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fit_mid = _fit_at_lambda(grams, crosses, sizes, config, mid)
        norm_mid = _norm_q(fit_mid.beta, config.q)
        if norm_mid > kappa:
            lo = mid
        else:
            hi = mid
            best = fit_mid
        if abs(norm_mid - kappa) <= 0.01 * kappa:
            return fit_mid
    return MaximinFit(beta=best.beta, group_V=best.group_V, scale=1.0,
                      iterations=best.iterations, converged=False,
                      objective_path=best.objective_path)


def fit_maximal_penalty(cross_products, config: PenaltyConfig | None = None) -> np.ndarray:
    """Direction limit of the penalized estimator at its vanishing threshold.

    Minimizes the l1 norm subject to a unit lower bound on every group
    alignment beta'c_g, as a linear program on the split beta = b+ - b-.
    Only the per-group cross-products enter; the design matrix is never
    touched.  Raises :class:`Infeasible` when no direction aligns positively
    with all groups, which is exactly the vanishing-signal geometry.
    """
    if config is not None and config.q != L1:
        raise ValidationError("the maximal-penalty direction is defined for the l1 penalty")
    C = np.atleast_2d(np.asarray(cross_products, dtype=np.float64))
    G, p = C.shape
    # [C, -C, -I] written in place: no temporary the size of C
    A = np.empty((G, 2 * p + G))
    A[:, :p] = C
    np.negative(C, out=A[:, p:2 * p])
    A[:, 2 * p:] = -np.eye(G)
    b = np.ones(G)
    c = np.concatenate([np.ones(2 * p), np.zeros(G)])
    res = simplex_solve(c, A, b)
    return res.x[:p] - res.x[p:2 * p]


def rescale(beta, dataset: Dataset, spec: GroupSpec, tol: float = 1e-12) -> float:
    """Optimal prediction scale for a fixed direction.

    Maximizes  min_g (2 s beta'c_g - s^2 beta' Gram_g beta)  over s >= 0, a
    minimum of concave parabolas, by ternary search.  Zero is returned
    whenever some group's alignment is nonpositive (the objective then slopes
    down immediately).
    """
    beta = np.asarray(beta, dtype=np.float64)
    if not np.any(beta):
        raise ValidationError("rescale needs a nonzero direction")
    validate(dataset, spec)
    grams, crosses, _ = _group_stats(dataset, spec)
    return _rescale(beta, grams, crosses, tol)


def _rescale(beta, grams, crosses, tol: float = 1e-12) -> float:
    """:func:`rescale` on group statistics already built from validated data."""
    a = crosses @ beta
    q = np.einsum("gij,i,j->g", grams, beta, beta)
    if float(a.min()) <= 0.0:
        return 0.0
    with np.errstate(divide="ignore"):
        vertices = np.where(q > 0.0, a / np.maximum(q, 1e-300), np.inf)
    finite = vertices[np.isfinite(vertices)]
    if finite.size == 0:
        raise SolverError("all group quadratic terms vanish for this direction")
    lo, hi = 0.0, 2.0 * float(finite.max())

    top = hi

    def objective(s):
        return float((2.0 * s * a - s * s * q).min())

    while hi - lo > tol * (1.0 + hi):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if objective(m1) < objective(m2):
            lo = m1
        else:
            hi = m2
    s = 0.5 * (lo + hi)

    # polish: the optimum is either the vertex of the active parabola or a
    # crossing of two active parabolas; value comparisons alone stall at
    # sqrt(eps) accuracy near the flat top
    values = 2.0 * s * a - s * s * q
    active = np.where(values <= values.min() + 1e-6 * (1.0 + abs(values.min())))[0]
    candidates = []
    for g in active:
        if q[g] > 0.0:
            candidates.append(a[g] / q[g])
    for i in active:
        for j in active:
            if i < j and abs(q[i] - q[j]) > 1e-300:
                candidates.append(2.0 * (a[i] - a[j]) / (q[i] - q[j]))
    # ternary point goes last: max() keeps the first of a tie, so an exact
    # vertex beats an equal-valued approximate point
    candidates.append(s)
    best = max((c for c in candidates if 0.0 <= c <= top),
               key=objective, default=s)
    return float(best)


def fit_with_config(dataset: Dataset, spec: GroupSpec,
                    config: PenaltyConfig) -> MaximinFit:
    """Dispatch on the configured mode; maximal mode includes the rescale."""
    if config.mode != MODE_MAXIMAL:
        return fit_reweighted(dataset, spec, config)
    validate(dataset, spec)
    grams, crosses, _ = _group_stats(dataset, spec)
    direction = fit_maximal_penalty(crosses, config)
    s = _rescale(direction, grams, crosses)
    group_V = _group_variances(grams, crosses, s * direction)
    return MaximinFit(beta=direction, group_V=group_V, scale=s,
                      iterations=0, converged=True)
