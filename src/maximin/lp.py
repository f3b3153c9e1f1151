"""Revised two-phase simplex for the maximal-penalty linear program.

Solves the one LP of the package,

    min ||beta||_1  subject to  C beta >= 1,

for a G x p cross-product matrix C with few rows (the groups) and possibly
millions of columns, as the same program on C/sigma: min ||beta'||_1
subject to (C/sigma) beta' >= 1, whose answer beta' is returned as
beta'/sigma.  sigma is the power of two above max|C|, so the division is
exact, and the entries of C/sigma lie below one, on the scale of the unit
costs.  Dantzig pricing is not invariant to column scaling: on the raw C the
balance between the structural and the slack reduced costs followed C's
units, and so did the pivot path, down to the column order (93 pivots on the
benchmark's 20 x 200000 matrix, 1342 or the pivot cap under column
permutations of it, against 23 on every order on C/sigma).

Each row is equilibrated as well: row i is divided by rho_i, the power of
two above its infinity norm on C/sigma, so it has norm in [1/2, 1) and
right-hand side 1/rho_i >= 1, and its slack and its phase-1 artificial count
in the units of that row.  The pricing, ratio-test and phase-1 tolerances
are absolute, and in these units they hold for rows whose scales differ by
many decades.  Multiplying every row by sigma gives the form the solver
stores, in C's own columns: with R = diag(r), r_i = sigma rho_i the power of
two above ||C_i||_inf, and the split beta' = b+ - b- with slacks s,

    min 1'(b+ + b-)  subject to  [C, -C, -R](b+, b-, s) = sigma 1,

all variables nonnegative, with artificials of columns R in phase 1.
Scaling all rows alike leaves the pivot path alone, and every factor is a
power of two, so this is the program on C/sigma to the bit; 1/sigma sits in
the right-hand side and in the stored duals y, which are those of
C beta >= 1, and no pass over C is rescaled.

The constraint matrix is never formed: every column is read from C itself.
The solver keeps only the inverse tableau ``[B^-1 | x_B]`` over the cost row
``[-y | -objective]``, of size (G+1) x (G+1).  Each iteration prices every
column from one pass ``u = y'C`` (the columns of -C price at -u, the slacks
at -ry), forms the entering column ``B^-1 a_j`` and pivots the small
tableau, so memory is O(G^2 + p) on top of C, which is never copied.
Entering columns follow Dantzig pricing with lowest-index tie-breaking;
after a stretch of degenerate pivots the rule switches to Bland's rule,
which guarantees termination.  The costs are nonnegative, so the program is
never unbounded; it is infeasible exactly when no beta aligns positively
with every row.

Every answer is checked in C's own units before it is returned, with the
relative tolerance ``_CERT_TOL``, from two more passes over C.  An optimum
needs C beta >= 1 (row i up to a fraction _CERT_TOL of ||C_i||_inf
||beta||_1, which bounds the rounding of C_i beta), duals y >= 0 with
||C'y||_inf <= 1, and ||beta||_1 = 1'y; by weak duality such a beta is
optimal to that tolerance.
``Infeasible`` needs the phase-1 duals to be a Farkas certificate: y >= 0 and
1'y > 0 with C'y = 0 relative to r'y (so relative to each row's own scale),
which bounds the l1 norm of every feasible beta below by
1'y / (_CERT_TOL r'y); a zero row is its own certificate, and is refused
before any pivot.  When phase 1 ends short of feasibility without such a
certificate, phase 2 runs on and its own certificate decides; an answer that
fails its check raises :class:`SolverError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import Infeasible, NonConverged, SolverError

_STALL_LIMIT = 40
# pricing, ratio-test and progress tolerance
_TOL = 1e-9
# relative tolerance of the optimality and infeasibility certificates
_CERT_TOL = 1e-9


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


def _price(C, slack, y, d) -> None:
    """Write y'a_j for the columns [C, -C, diag(slack)] into ``d``, in that
    order."""
    p = C.shape[1]
    np.matmul(y, C, out=d[:p])
    np.negative(d[:p], out=d[p:2 * p])
    np.multiply(y, slack, out=d[2 * p:2 * p + y.shape[0]])


def _column(C, slack, inverse, j, out) -> None:
    """Write the entering column B^-1 a_j into ``out``.  Past the columns of
    [C, -C, diag(slack)] come the artificials, of columns -diag(slack)."""
    G, p = C.shape
    if j < 2 * p:
        np.matmul(inverse, C[:, j % p], out=out)
        if j >= p:
            np.negative(out, out=out)
    elif j < 2 * p + G:
        np.multiply(inverse[:, j - 2 * p], slack[j - 2 * p], out=out)
    else:
        np.multiply(inverse[:, j - 2 * p - G], -slack[j - 2 * p - G], out=out)


def _run_phase(C, slack, phase2, T, basis, d, work, alpha, max_iter):
    """Pivot until optimal; returns the iteration count.

    Phase 1 minimizes the sum of the artificials; in phase 2, on the l1
    cost, the artificial columns are locked out.  T[-1, -1] tracks
    -objective.
    """
    G, p = C.shape
    n = 2 * p + G
    artificial = d[n:]
    duals, x_basic, inverse = T[-1, :G], T[:G, -1], T[:G, :G]
    column = alpha[:G]
    ratios = np.empty(G)
    if phase2:
        artificial.fill(np.inf)
    iters = 0
    bland = False
    stalled = 0
    last = T[-1, -1]
    while True:
        # reduced costs: cost - a_j'y for the columns of [C, -C, -R], and
        # 1 - r y for the artificial ones in phase 1, where r y is the
        # slack's (duals holds -y)
        _price(C, slack, duals, d)
        if phase2:
            d[:2 * p] += 1.0
        else:
            np.subtract(1.0, d[2 * p:n], out=artificial)
        j = int(d.argmin())
        if not d[j] < -_TOL:
            return iters
        if bland:
            j = int(np.less(d, -_TOL, out=below).argmax())
        _column(C, slack, inverse, j, column)
        alpha[-1] = d[j]
        positive = column > _TOL
        ratios.fill(np.inf)
        np.divide(x_basic, column, out=ratios, where=positive)
        row = int(ratios.argmin())
        best = ratios[row]
        if best == np.inf:
            # a bounded program always has a pivot row: this is breakdown
            raise SolverError("simplex found no pivot row for the entering column")
        ties = np.where(ratios <= best + _TOL * (1.0 + abs(best)))[0]
        if ties.size > 1:
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
    the constraints, and :class:`SolverError` when an answer fails its
    certificate (see the module docstring).
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise SolverError("C must be a matrix")
    G, p = C.shape
    n = 2 * p + G

    # max/min rather than abs keeps C-sized temporaries out
    rownorm = np.maximum(C.max(axis=1), -C.min(axis=1))
    if not rownorm.all():
        raise Infeasible("a zero row of C cannot reach 1")
    # sigma is the power of two above max|C|, r_i the one above ||C_i||_inf
    sigma = math.ldexp(1.0, math.frexp(float(rownorm.max(initial=0.0)))[1])
    slack = np.ldexp(-1.0, np.frexp(rownorm)[1])

    if max_iter is None:
        max_iter = 200 + 100 * (G + 1)

    # the all-artificial starting basis B = R: x_B = sigma/r, and every
    # phase-1 dual is 1/r, as every artificial costs 1
    T = np.zeros((G + 1, G + 1))
    T[-1, :G] = 1.0 / slack
    np.fill_diagonal(T[:G, :G], -T[-1, :G])
    T[:G, -1] = -sigma * T[-1, :G]
    T[-1, -1] = -T[:G, -1].sum()
    basis = np.arange(n, n + G)
    d = np.empty(n + G)
    work = np.empty_like(T)
    alpha = np.empty(G + 1)

    # phase 1: minimize the artificial sum
    iters = _run_phase(C, slack, False, T, basis, d, work, alpha, max_iter)
    infeas = float(-T[-1, -1])
    # the stored duals are -y; pivot-tolerance dust below zero is clipped
    if infeas > 1e-7 and _farkas(C, slack, -np.minimum(T[-1, :G], 0.0), d[:p]):
        raise Infeasible(f"no feasible point (phase-1 residual {infeas:.3e})")

    # evict artificials still basic at level ~0; the slack columns give
    # [C, -C, -R] full row rank, so a row keeps its artificial only when all
    # its pivot elements are below the threshold
    row_i = d[:n]
    for i in range(G):
        if basis[i] >= n:
            _price(C, slack, T[i, :G], d)
            np.abs(row_i, out=row_i)
            j = int(row_i.argmax())
            if row_i[j] > 1e-7:
                _column(C, slack, T[:G, :G], j, alpha[:G])
                alpha[-1] = 0.0   # the cost row is rebuilt for phase 2
                _pivot(T, basis, work, i, j, alpha)
                iters += 1

    # phase 2 with the l1 cost: the cost row becomes -c_B'[B^-1 | x_B], where
    # c_B is 1 on b+ and b- and 0 on the slacks
    c_basic = (basis < 2 * p).astype(np.float64)
    T[-1] = -(c_basic @ T[:G])
    # max_iter caps the whole solve: phase 2 gets what phase 1 left
    iters += _run_phase(C, slack, True, T, basis, d, work, alpha,
                        max_iter - iters)

    # b+ and b- of a column are never both basic (their columns are
    # dependent), so beta is read off the basic levels alone
    keep = basis < 2 * p
    cols = basis[keep]
    # tiny negative levels are pivot-tolerance dust
    level = np.maximum(T[:G, -1][keep], 0.0) / sigma
    np.negative(level, out=level, where=cols >= p)
    beta = np.zeros(p)
    beta[cols % p] = level
    objective = float(np.abs(level).sum())
    _check_optimal(C, rownorm, beta, objective, -np.minimum(T[-1, :G], 0.0), d[:p])
    return LpResult(beta=beta, objective=objective, iterations=iters)


def _check_optimal(C, rownorm, beta, objective, y, u) -> None:
    """Raise SolverError unless beta and the duals y >= 0 certify
    optimality; ``u`` is scratch of length p."""
    # C beta >= 1 up to rounding, which ||C_i||_inf ||beta||_1 bounds; a
    # pass over C rather than a gather of the active columns, which would
    # hand the interpreter lock to other threads on every solve
    reach = C @ beta
    if (reach + _CERT_TOL * objective * rownorm).min(initial=1.0) < 1.0:
        raise SolverError("LP certificate failed: C beta >= 1 is violated "
                          f"by {1.0 - reach.min():.3e}")
    np.matmul(y, C, out=u)
    dual = np.abs(u, out=u).max(initial=0.0)
    if dual > 1.0 + _CERT_TOL:
        raise SolverError(f"LP certificate failed: ||C'y||_inf = {dual!r} > 1")
    gap = abs(objective - y.sum())
    if gap > _CERT_TOL * objective:
        raise SolverError(f"LP certificate failed: duality gap {gap:.3e} "
                          f"at objective {objective:.6e}")


def _farkas(C, slack, y, u) -> bool:
    """Whether the duals y >= 0 prove C beta >= 1 infeasible, with C'y = 0
    relative to r'y = -slack'y; ``u`` is scratch of length p."""
    if not y.sum() > 0.0:
        return False
    np.matmul(y, C, out=u)
    return np.abs(u, out=u).max(initial=0.0) <= -_CERT_TOL * (y @ slack)
