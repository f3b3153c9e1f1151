"""Brute-force grid oracles used by the tests.

These deliberately share no code with the package solvers: hull minima come
from exhaustive evaluation over a simplex grid of hull weights, streamed in
chunks so even fine grids stay within memory, and hull membership from a
HiGHS feasibility program.
"""

import numpy as np


def _compositions_upto3(total):
    """All (a, b, c) >= 0 with a + b + c = total, as an (N, 3) int array."""
    counts = np.arange(total + 1, 0, -1)
    a = np.repeat(np.arange(total + 1), counts)
    # b counts up from 0 within each run of equal a
    starts = np.cumsum(counts) - counts
    b = np.arange(counts.sum()) - np.repeat(starts, counts)
    c = total - a - b
    return np.stack([a, b, c], axis=1)


def simplex_grid_chunks(K, d):
    """Yield integer weight chunks (rows sum to K) covering the whole grid."""
    if d == 1:
        yield np.array([[K]], dtype=np.int64)
    elif d == 2:
        first = np.arange(K + 1)
        yield np.stack([first, K - first], axis=1)
    elif d == 3:
        yield _compositions_upto3(K)
    elif d == 4:
        for i in range(K + 1):
            rest = _compositions_upto3(K - i)
            col = np.full((rest.shape[0], 1), i, dtype=np.int64)
            yield np.hstack([col, rest])
    else:
        raise ValueError("grid oracle supports d <= 4")


def grid_hull_min(points, sigma, step):
    """argmin of g' sigma g over the hull-weight grid; returns (gamma, value)."""
    P = np.asarray(points, dtype=np.float64)
    d = P.shape[0]
    K = int(round(1.0 / step))
    Q = P @ np.asarray(sigma, dtype=np.float64) @ P.T
    best_val, best_w = np.inf, None
    for chunk in simplex_grid_chunks(K, d):
        W = chunk.astype(np.float64)
        vals = ((W @ Q) * W).sum(axis=1)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_w = W[i] / K
    return P.T @ best_w, best_val / (K * K)


def grid_pred_maximin(points, sigma, step):
    """argmin over the hull-weight grid of max_j R(gamma; b_j)."""
    P = np.asarray(points, dtype=np.float64)
    S = np.asarray(sigma, dtype=np.float64)
    d = P.shape[0]
    K = int(round(1.0 / step))
    best_val, best_gamma = np.inf, None
    for chunk in simplex_grid_chunks(K, d):
        W = chunk.astype(np.float64) / K
        gammas = W @ P
        worst = np.full(W.shape[0], -np.inf)
        for b in P:
            diff = gammas - b
            worst = np.maximum(worst, ((diff @ S) * diff).sum(axis=1))
        i = int(np.argmin(worst))
        if worst[i] < best_val:
            best_val = float(worst[i])
            best_gamma = gammas[i].copy()
    return best_gamma, best_val


def random_support(rng, p=None, d=None, scale=1.25):
    """A random support set with a well-conditioned random Gram matrix."""
    from maximin.model import SupportSet

    if p is None:
        p = int(rng.integers(1, 4))
    if d is None:
        d = int(rng.integers(1, 5))
    points = scale * rng.uniform(-1.0, 1.0, size=(d, p))
    A = rng.standard_normal((p, p))
    sigma = A @ A.T / p + 0.3 * np.eye(p)
    return SupportSet(points=points, sigma=sigma)


def sigma_norm(v, sigma):
    v = np.asarray(v, dtype=np.float64)
    return float(np.sqrt(v @ sigma @ v))


def enumerate_simplex_qp(points, sigma, linear):
    """argmin of w'Qw + linear'w over the simplex, Q = P sigma P', by
    enumeration; returns (w, value).

    The minimum is attained at a vertex of the optimal face, whose support
    has a nonsingular bordered KKT matrix, so solving that system on every
    subset and keeping the best nonnegative solution finds it exactly.
    Subsets with a singular system are skipped.
    """
    P = np.asarray(points, dtype=np.float64)
    d = P.shape[0]
    if d > 6:
        raise ValueError("enumeration oracle supports d <= 6")
    Q = P @ np.asarray(sigma, dtype=np.float64) @ P.T
    c = np.asarray(linear, dtype=np.float64)
    best_val, best_w = np.inf, None
    for mask in range(1, 2 ** d):
        sub = np.array([i for i in range(d) if mask >> i & 1])
        k = sub.size
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * Q[np.ix_(sub, sub)]
        kkt[:k, k] = kkt[k, :k] = 1.0
        if np.linalg.cond(kkt) > 1e12:
            continue
        v = np.linalg.solve(kkt, np.append(-c[sub], 1.0))[:k]
        if np.any(v < 0.0):
            continue
        w = np.zeros(d)
        w[sub] = v
        val = float(w @ Q @ w + c @ w)
        if val < best_val:
            best_val, best_w = val, w
    return best_w, best_val


def origin_in_hull(points):
    """Does 0 lie in the convex hull of the points?  HiGHS feasibility of
    P'w = 0, sum(w) = 1, w >= 0."""
    from scipy.optimize import linprog

    P = np.asarray(points, dtype=np.float64)
    d, p = P.shape
    A = np.vstack([P.T, np.ones((1, d))])
    b = np.zeros(p + 1)
    b[-1] = 1.0
    res = linprog(np.zeros(d), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS feasibility check failed: {res.message}")
    return res.status == 0
