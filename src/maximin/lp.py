"""Revised two-phase simplex for the maximal-penalty linear program.

Solves the one LP of the package,

    min ||beta||_1  subject to  C beta >= 1,

for a G x p cross-product matrix C with few rows (the groups) and possibly
millions of columns.  On the split beta = b+ - b- with slacks s, its
standard form is  min 1'(b+ + b-)  subject to  [C, -C, -I](b+, b-, s) = 1,
all variables nonnegative, but that constraint matrix is never formed: every
column is read from C itself.  The solver keeps only the inverse tableau
``[B^-1 | x_B]`` over the cost row ``[-y | -objective]``, of size
(G+1) x (G+1).  Each iteration prices every column from one pass
``u = y'C`` (the columns of -C price at -u, the slacks at -y), forms the
entering column ``B^-1 a_j`` and pivots the small tableau, so memory is
O(G^2 + p) on top of C, which is never copied.  Entering columns follow
Dantzig pricing with lowest-index tie-breaking; after a stretch of
degenerate pivots the rule switches to Bland's rule, which guarantees
termination.  The costs are nonnegative, so the program is never unbounded;
it is infeasible exactly when no beta aligns positively with every row.
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
    beta: np.ndarray
    objective: float
    iterations: int


def _pivot(T: np.ndarray, basis: np.ndarray, work: np.ndarray,
           row: int, col: int, alpha: np.ndarray) -> None:
    """Pivot the inverse tableau T on ``row``.  ``alpha`` holds the entering
    column B^-1 a_col with its reduced cost last, and is overwritten; ``work``
    is scratch of T's shape, so a pivot allocates nothing of size G^2."""
    T[row] /= alpha[row]
    alpha[row] = 0.0
    # rank-1 elimination of the entering column from every other row
    np.multiply(alpha[:, None], T[row], out=work)
    T -= work
    basis[row] = col


def _price(C, y, d) -> None:
    """Write y'a_j for the columns [C, -C, -I] into ``d``, in that order."""
    p = C.shape[1]
    np.matmul(y, C, out=d[:p])
    np.negative(d[:p], out=d[p:2 * p])
    np.negative(y, out=d[2 * p:2 * p + y.shape[0]])


def _column(C, rowscale, inverse, j, out) -> None:
    """Write the entering column B^-1 a_j into ``out``.  Past the columns of
    [C, -C, -I] come the artificials, whose columns are the row scales."""
    G, p = C.shape
    if j < 2 * p:
        np.matmul(inverse, C[:, j % p], out=out)
        if j >= p:
            np.negative(out, out=out)
    elif j < 2 * p + G:
        np.negative(inverse[:, j - 2 * p], out=out)
    else:
        np.multiply(inverse[:, j - 2 * p - G], rowscale[j - 2 * p - G], out=out)


def _run_phase(C, rowscale, phase2, T, basis, d, work, alpha, max_iter):
    """Pivot until optimal; returns the iteration count.

    Phase 1 minimizes the sum of the artificials; in phase 2, on the l1
    cost, the artificial columns are locked out.  T[-1, -1] tracks
    -objective.
    """
    G, p = C.shape
    n = 2 * p + G
    artificial = d[n:]
    duals, x_basic = T[-1, :G], T[:G, -1]
    column = alpha[:G]
    ratios = np.empty(G)
    if phase2:
        artificial.fill(np.inf)
    iters = 0
    bland = False
    stalled = 0
    last = T[-1, -1]
    while True:
        # reduced costs: cost - A_s'y for the columns of [C, -C, -I], and
        # 1 - y for the artificial ones in phase 1 (see simplex_solve for
        # the scaling)
        _price(C, duals, d)
        if phase2:
            d[:2 * p] += 1.0
        else:
            np.multiply(duals, rowscale, out=artificial)
            artificial += 1.0
        j = int(d.argmin())
        if not d[j] < -_TOL:
            return iters
        if bland:
            j = int(np.less(d, -_TOL, out=below).argmax())
        _column(C, rowscale, T[:G, :G], j, column)
        alpha[-1] = d[j]
        positive = column > _TOL
        if not positive.any():
            # a bounded program always has a pivot row: this is breakdown
            raise SolverError("simplex found no pivot row for the entering column")
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


def simplex_solve(C, *, max_iter: int | None = None) -> LpResult:
    """Two-phase simplex on  min ||beta||_1  subject to  C beta >= 1.

    C is left unchanged.  ``max_iter`` (default 200 + 100(G+1)) caps the
    pivots of the whole solve, both phases together; reaching it raises
    :class:`NonConverged`.  Raises :class:`Infeasible` when no beta meets
    the constraints.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise SolverError("C must be a matrix")
    G, p = C.shape
    n = 2 * p + G

    # The simplex runs on the row-normalized A_s = D [C, -C, -I] with
    # D = diag(1/rowscale), rowscale_i = max(|C_i|_inf, 1), for pivot-tolerance
    # stability.  T stores B_s^-1 D and -y_s'D in its first G columns, so the
    # duals price the unscaled columns and the entering column is
    # T[:G, :G] a_j.  max/min rather than abs keeps C-sized temporaries out.
    rowscale = np.maximum(np.maximum(C.max(axis=1), -C.min(axis=1)), 1.0)

    if max_iter is None:
        max_iter = 200 + 100 * (G + 1)

    # the all-artificial starting basis: B_s = I, and every phase-1 dual is
    # one, as every artificial costs 1
    T = np.zeros((G + 1, G + 1))
    np.fill_diagonal(T[:G, :G], 1.0 / rowscale)
    T[:G, -1] = 1.0 / rowscale
    T[-1, :G] = -1.0 / rowscale
    T[-1, -1] = -T[:G, -1].sum()
    basis = np.arange(n, n + G, dtype=np.int64)
    d = np.empty(n + G)
    work = np.empty_like(T)
    alpha = np.empty(G + 1)

    # phase 1: minimize the artificial sum
    iters = _run_phase(C, rowscale, False, T, basis, d, work, alpha, max_iter)
    infeas = float(-T[-1, -1])
    if infeas > 1e-7:
        raise Infeasible(f"no feasible point (phase-1 residual {infeas:.3e})")

    # evict artificials still basic at level ~0; the slack columns give
    # [C, -C, -I] full row rank, so a row keeps its artificial only when all
    # its pivot elements are below the threshold
    row_i = d[:n]
    for i in range(G):
        if basis[i] >= n:
            _price(C, T[i, :G], d)
            np.abs(row_i, out=row_i)
            j = int(row_i.argmax())
            if row_i[j] > 1e-7:
                _column(C, rowscale, T[:G, :G], j, alpha[:G])
                alpha[-1] = 0.0   # the cost row is rebuilt for phase 2
                _pivot(T, basis, work, i, j, alpha)
                iters += 1

    # phase 2 with the l1 cost: the cost row becomes -c_B'[B^-1 | x_B], where
    # c_B is 1 on b+ and b- and 0 on the slacks
    c_basic = (basis < 2 * p).astype(np.float64)
    T[-1] = -(c_basic @ T[:G])
    # max_iter caps the whole solve: phase 2 gets what phase 1 left
    iters += _run_phase(C, rowscale, True, T, basis, d, work, alpha,
                        max_iter - iters)

    x = np.zeros(2 * p)
    keep = basis < 2 * p
    x[basis[keep]] = T[:G, -1][keep]
    # tiny negative entries are pivot-tolerance dust
    np.clip(x, 0.0, None, out=x)
    return LpResult(beta=x[:p] - x[p:], objective=float(x.sum()),
                    iterations=iters)
