"""Revised two-phase simplex for small-row linear programs.

Solves  min c'x  subject to  Ax = b, x >= 0.  The intended problem shapes
have few rows (a handful of constraints) and possibly millions of columns,
so the solver never forms the full tableau.  It keeps only the inverse
tableau ``[B^-1 | x_B]`` over the cost row ``[-y | -objective]``, of size
(m+1) x (m+1).  Each iteration prices every column with one matvec
``d = c - A'y``, forms the entering column ``B^-1 a_j`` and pivots the small
tableau, so memory is O(m^2 + n) on top of A, which is never copied.
Entering columns follow Dantzig pricing with lowest-index tie-breaking;
after a stretch of degenerate pivots the rule switches to Bland's rule,
which guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import Infeasible, NonConverged, SolverError

_STALL_LIMIT = 40
# pricing, ratio-test and progress tolerance
_TOL = 1e-9


@dataclass(frozen=True)
class LpResult:
    x: np.ndarray
    objective: float
    iterations: int


def _pivot(T: np.ndarray, basis: np.ndarray, work: np.ndarray,
           row: int, col: int, alpha: np.ndarray) -> None:
    """Pivot the inverse tableau T on ``row``.  ``alpha`` holds the entering
    column B^-1 a_col with its reduced cost last, and is overwritten; ``work``
    is scratch of T's shape, so a pivot allocates nothing of size m^2."""
    T[row] /= alpha[row]
    alpha[row] = 0.0
    # rank-1 elimination of the entering column from every other row
    np.multiply(alpha[:, None], T[row], out=work)
    T -= work
    basis[row] = col


def _run_phase(A, rowscale, cost, T, basis, d, work, alpha, max_iter):
    """Pivot until optimal; returns the iteration count.

    ``cost`` is None in phase 1, whose objective is the sum of the
    artificials; in phase 2 the artificial columns are locked out.
    T[-1, -1] tracks -objective.
    """
    m, n = A.shape
    priced, artificial = d[:n], d[n:]
    inverse, duals, x_basic = T[:m, :m], T[-1, :m], T[:m, -1]
    column = alpha[:m]
    ratios = np.empty(m)
    if cost is not None:
        artificial.fill(np.inf)
    iters = 0
    bland = False
    stalled = 0
    last = T[-1, -1]
    while True:
        # reduced costs: c - A_s'y for the original columns, and 1 - y for
        # the artificial ones in phase 1 (see simplex_solve for the scaling)
        np.matmul(duals, A, out=priced)
        if cost is None:
            np.multiply(duals, rowscale, out=artificial)
            artificial += 1.0
        else:
            priced += cost
        j = int(d.argmin())
        if not d[j] < -_TOL:
            return iters
        if bland:
            j = int(np.less(d, -_TOL, out=below).argmax())
        if j < n:
            np.matmul(inverse, A[:, j], out=column)
        else:
            np.multiply(inverse[:, j - n], rowscale[j - n], out=column)
        alpha[-1] = d[j]
        positive = column > _TOL
        if not positive.any():
            raise SolverError("linear program is unbounded")
        ratios.fill(np.inf)
        np.divide(x_basic, column, out=ratios, where=positive)
        best = ratios.min()
        ties = np.where(ratios <= best + _TOL * (1.0 + abs(best)))[0]
        row = int(ties[basis[ties].argmin()])
        _pivot(T, basis, work, row, j, alpha)
        iters += 1
        if iters >= max_iter:
            raise NonConverged("simplex iteration limit reached",
                               residual=float(-T[-1, -1]))
        if T[-1, -1] > last + _TOL * (1.0 + abs(last)):
            last = T[-1, -1]
            stalled = 0
        else:
            stalled += 1
            if stalled >= _STALL_LIMIT and not bland:
                bland = True
                below = np.empty(d.shape, dtype=bool)


def simplex_solve(c, A, b, *, max_iter: int | None = None) -> LpResult:
    """Two-phase simplex on the standard form min c'x, Ax = b, x >= 0.

    ``max_iter`` (default 200 + 100(m+1)) caps the pivots of the whole
    solve, both phases together; reaching it raises :class:`NonConverged`.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if A.ndim != 2:
        raise SolverError("A must be a matrix")
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise SolverError("incompatible LP dimensions")

    # The simplex runs on the row-normalized A_s = D A, D = diag(1/rowscale),
    # whose signs make b_s = D b >= 0, for pivot-tolerance stability.  A is
    # left alone: T stores B_s^-1 D and -y_s'D in its first m columns, so the
    # duals price the columns of A and the entering column is T[:m, :m] a_j.
    # max/min rather than abs keeps A-sized temporaries out.
    scale = np.maximum(np.maximum(A.max(axis=1), -A.min(axis=1)), np.abs(b))
    scale[scale == 0.0] = 1.0
    rowscale = np.where(b < 0, -scale, scale)

    if max_iter is None:
        max_iter = 200 + 100 * (m + 1)

    # the all-artificial starting basis: B_s = I, and every phase-1 dual is
    # one, as every artificial costs 1
    T = np.zeros((m + 1, m + 1))
    np.fill_diagonal(T[:m, :m], 1.0 / rowscale)
    T[:m, -1] = b / rowscale
    T[-1, :m] = -1.0 / rowscale
    T[-1, -1] = -T[:m, -1].sum()
    basis = np.arange(n, n + m, dtype=np.int64)
    d = np.empty(n + m)
    work = np.empty_like(T)
    alpha = np.empty(m + 1)

    # phase 1: minimize the artificial sum
    iters = _run_phase(A, rowscale, None, T, basis, d, work, alpha, max_iter)
    infeas = float(-T[-1, -1])
    if infeas > 1e-7:
        raise Infeasible(f"no feasible point (phase-1 residual {infeas:.3e})")

    # evict artificials still basic at level ~0; rows with no original pivot
    # element are redundant and stay inert from here on
    row_i = d[:n]
    for i in range(m):
        if basis[i] >= n:
            np.matmul(T[i, :m], A, out=row_i)
            np.abs(row_i, out=row_i)
            j = int(row_i.argmax())
            if row_i[j] > 1e-7:
                np.matmul(T[:m, :m], A[:, j], out=alpha[:m])
                alpha[-1] = 0.0   # the cost row is rebuilt for phase 2
                _pivot(T, basis, work, i, j, alpha)
                iters += 1

    # phase 2 with the true objective: the cost row becomes -c_B'[B^-1 | x_B]
    keep = basis < n
    c_basic = np.zeros(m)
    c_basic[keep] = c[basis[keep]]
    T[-1] = -(c_basic @ T[:m])
    # max_iter caps the whole solve: phase 2 gets what phase 1 left
    iters += _run_phase(A, rowscale, c, T, basis, d, work, alpha,
                        max_iter - iters)

    x = np.zeros(n)
    keep = basis < n
    x[basis[keep]] = T[:m, -1][keep]
    # tiny negative entries are pivot-tolerance dust
    np.clip(x, 0.0, None, out=x)
    return LpResult(x=x, objective=float(c @ x), iterations=iters)
