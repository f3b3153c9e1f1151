"""Revised dual simplex for the maximal-penalty linear program.

Solves the one LP of the package,

    min ||beta||_1  subject to  C beta >= 1,

for a G x p cross-product matrix C with few rows (the groups) and possibly
millions of columns, as the same program on C/sigma: min ||beta'||_1
subject to (C/sigma) beta' >= 1, whose answer beta' is returned as
beta'/sigma.  sigma is the power of two above max|C|, so the division is
exact, and the entries of C/sigma lie below one, on the scale of the unit
costs, so the absolute tolerances do not follow C's units.

Each row is equilibrated as well: row i is divided by rho_i, the power of
two above its infinity norm on C/sigma, so it has norm in [1/2, 1) and
right-hand side 1/rho_i >= 1, and its slack counts in the units of that
row.  The ratio-test and feasibility tolerances are absolute, and in these
units they hold for rows whose scales differ by many decades.  Multiplying
every row by sigma rho_i gives the form the solver stores, in C's own
columns: with R = diag(r), r_i = sigma rho_i the power of two above
||C_i||_inf, and the split beta' = b+ - b- with slacks s,

    min 1'(b+ + b-)  subject to  [C, -C, -R](b+, b-, s) = sigma 1,

all variables nonnegative.  Scaling rows leaves the pivot path alone, and
every factor is a power of two, so this is the program on C/sigma to the
bit; 1/sigma sits in the right-hand side and in the stored duals y, which
are those of C beta >= 1, and no pass over C is rescaled.

The costs are nonnegative, so the all-slack basis B = -R is dual feasible:
its duals are y = 0 and every reduced cost equals its cost.  Its levels
x_B = -sigma/r are negative, and the dual simplex (Lemke 1954) runs from
there in one phase.  Each pivot takes the most negative level as the
leaving row and reads C once, as the two-row product [-y; row of B^-1] C,
which prices the columns and gives their pivot-row entries; of b+_j and
b-_j only the one with a negative entry can enter, so the ratio test runs
over p columns and the G slacks.  The solver keeps only the inverse
tableau ``[B^-1 | x_B]`` over the cost row ``[-y | -objective]``, of size
(G+1) x (G+1), so memory is O(G^2 + p) on top of C, which is never copied.
Ties go to the lowest position; after a stretch of pivots that do not
raise the objective, both choices switch to Bland's rule, on one variable
order (b+, b-, then the slacks), which guarantees termination.  The
program is never unbounded; it is infeasible exactly when no beta aligns
positively with every row.  Basic levels within the feasibility tolerance
of zero, in the sigma-scaled units, are read as zeros.

Every answer is checked in C's own units before it is returned, with the
relative tolerance ``_CERT_TOL``, from two more passes over C.  An optimum
needs C beta >= 1 (row i up to a fraction _CERT_TOL of ||C_i||_inf
||beta||_1, which bounds the rounding of C_i beta), duals y >= 0 with
||C'y||_inf <= 1, and ||beta||_1 = 1'y; by weak duality such a beta is
optimal to that tolerance.  A leaving row with no entering column has
a nonnegative row of B^-1 [C, -C, -R] at a negative level, so that row of
B^-1, negated, is a Farkas vector.  ``Infeasible`` needs it to pass as one:
y >= 0 and 1'y > 0 with C'y = 0 relative to r'y (so relative to each row's
own scale), which bounds the l1 norm of every feasible beta below by
1'y / (_CERT_TOL r'y); a zero row is its own certificate, and is refused
before any pivot.  A leaving row that fails this test, or an answer that
fails its check, raises :class:`SolverError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import Infeasible, NonConverged, NonFiniteData, SolverError

_STALL_LIMIT = 40
# ratio-test, feasibility and progress tolerance
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


def _column(C, slack, inverse, j, out) -> None:
    """Write the entering column B^-1 a_j of [C, -C, diag(slack)] into
    ``out``."""
    p = C.shape[1]
    if j < 2 * p:
        np.matmul(inverse, C[:, j % p], out=out)
        if j >= p:
            np.negative(out, out=out)
    else:
        np.multiply(inverse[:, j - 2 * p], slack[j - 2 * p], out=out)


def _dual_simplex(C, slack, T, basis, max_iter) -> int:
    """Pivot from a dual feasible basis until every basic level is
    nonnegative; returns the iteration count.  T[-1, -1] tracks -objective,
    which falls with every pivot that makes progress."""
    G, p = C.shape
    x_basic, inverse = T[:G, -1], T[:G, :G]
    lead = np.empty((2, G))
    wu = np.empty((2, p))
    w, u = wu
    ratio = np.empty(p + G)
    eligible = np.empty(p + G, dtype=bool)
    alpha = np.empty(G + 1)
    work = np.empty_like(T)
    iters = 0
    bland = False
    stalled = 0
    last = T[-1, -1]
    while True:
        rows = np.flatnonzero(x_basic < -_TOL)
        if not rows.size:
            return iters
        # the most negative level leaves, or under Bland's rule the lowest
        # basic variable below zero
        row = int(rows[(basis[rows] if bland else x_basic[rows]).argmin()])
        if iters >= max_iter:
            raise NonConverged("simplex iteration limit reached",
                               residual=float(-x_basic[row]))
        # w = -y'C and u, the leaving row of B^-1 C, in one pass over C
        lead[0], lead[1] = T[-1, :G], T[row, :G]
        np.matmul(lead, C, out=wu)
        # ratio d_j / -alpha_j over the columns with alpha_j < 0 in the
        # leaving row: b+_j (alpha u_j, cost 1 + w_j) when u_j < 0, b-_j
        # (alpha -u_j, cost 1 - w_j) when u_j > 0, both (sign u_j - w_j)/u_j
        np.greater(np.abs(u, out=ratio[:p]), _TOL, out=eligible[:p])
        np.sign(u, out=ratio[:p])
        ratio[:p] -= w
        np.divide(ratio[:p], u, out=ratio[:p], where=eligible[:p])
        # slack i: alpha rho_i slack_i and cost -y_i slack_i, ratio y_i/rho_i
        np.multiply(lead[1], slack, out=ratio[p:])
        np.less(ratio[p:], -_TOL, out=eligible[p:])
        np.divide(lead[0], lead[1], out=ratio[p:], where=eligible[p:])
        np.negative(ratio[p:], out=ratio[p:])
        np.copyto(ratio, np.inf, where=np.logical_not(eligible, out=eligible))
        # negative ratios are reduced costs at rounding level
        np.maximum(ratio, 0.0, out=ratio)
        k = int(ratio.argmin())
        best = ratio[k]
        if best == np.inf:
            # this row of B^-1 [C, -C, -R] is nonnegative at a negative
            # level: the row of B^-1, negated, is a Farkas vector
            if _farkas(C, slack, -np.minimum(lead[1], 0.0), u):
                raise Infeasible("no feasible point (Farkas certificate "
                                 f"at basic level {x_basic[row]:.3e})")
            raise SolverError("simplex found no entering column for a "
                              "negative level and no Farkas certificate")
        # the variable index: b+_j is j, b-_j is p + j, slack i is 2p + i
        if bland:
            ties = np.flatnonzero(ratio <= best + _TOL * (1.0 + best))
            j = int((ties + p * ((ties >= p) | (u[ties % p] > 0))).min())
        else:
            j = k + p if k >= p or u[k] > 0 else k
        _column(C, slack, inverse, j, alpha[:G])
        if j < p:
            alpha[-1] = 1.0 + w[j]
        elif j < 2 * p:
            alpha[-1] = 1.0 - w[j - p]
        else:
            alpha[-1] = slack[j - 2 * p] * lead[0, j - 2 * p]
        _pivot(T, basis, work, row, j, alpha)
        iters += 1
        if T[-1, -1] < last - _TOL * (1.0 + abs(last)):
            last = T[-1, -1]
            stalled = 0
        else:
            stalled += 1
            if stalled >= _STALL_LIMIT:
                bland = True


def simplex_solve(C, *, max_iter: int | None = None) -> LpResult:
    """Dual simplex on  min ||beta||_1  subject to  C beta >= 1.

    C is left unchanged.  ``max_iter`` (default 200 + 100(G+1)) caps the
    pivots of the solve; a solve that needs more raises
    :class:`NonConverged`.  Raises :class:`NonFiniteData` when C holds NaN
    or inf, :class:`Infeasible` when no beta meets the constraints, and
    :class:`SolverError` when an answer fails its certificate (see the
    module docstring).
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise SolverError("C must be a matrix")
    G, p = C.shape

    # max/min rather than abs keeps C-sized temporaries out; NaN and inf
    # carry through, and C beta would hide them from the certificate
    rownorm = np.maximum(C.max(axis=1, initial=0.0),
                         -C.min(axis=1, initial=0.0))
    if not np.isfinite(rownorm).all():
        raise NonFiniteData("C must be finite")
    if not rownorm.all():
        raise Infeasible("a zero row of C cannot reach 1")
    # sigma is the power of two above max|C|, r_i the one above ||C_i||_inf
    sigma = math.ldexp(1.0, math.frexp(float(rownorm.max(initial=0.0)))[1])
    slack = np.ldexp(-1.0, np.frexp(rownorm)[1])

    if max_iter is None:
        max_iter = 200 + 100 * (G + 1)

    # the all-slack basis B = -R: x_B = -sigma/r, y = 0 and objective 0
    T = np.zeros((G + 1, G + 1))
    np.fill_diagonal(T[:G, :G], 1.0 / slack)
    T[:G, -1] = sigma / slack
    basis = np.arange(2 * p, 2 * p + G)
    iters = _dual_simplex(C, slack, T, basis, max_iter)

    # b+ and b- of a column are never both basic (their columns are
    # dependent), so beta is read off the basic levels alone
    keep = basis < 2 * p
    cols = basis[keep]
    level = T[:G, -1][keep]
    # levels within the feasibility tolerance of zero are pivot dust
    level[level <= _TOL] = 0.0
    level /= sigma
    np.negative(level, out=level, where=cols >= p)
    support = cols % p
    beta = np.zeros(p)
    beta[support] = level
    objective = float(np.abs(level).sum())
    _check_optimal(C, rownorm, beta, support, objective,
                   -np.minimum(T[-1, :G], 0.0), np.empty(p))
    return LpResult(beta=beta, objective=objective, iterations=iters)


def _check_optimal(C, rownorm, beta, support, objective, y, u) -> None:
    """Raise SolverError unless beta and the duals y >= 0 certify
    optimality; beta is zero outside the columns ``support``, and ``u`` is
    scratch of length p."""
    # C beta >= 1 up to rounding, which ||C_i||_inf ||beta||_1 bounds
    reach = C[:, support] @ beta[support]
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
    """Whether y >= 0 proves C beta >= 1 infeasible, with C'y = 0 relative
    to r'y = -slack'y; ``u`` is scratch of length p."""
    if not y.sum() > 0.0:
        return False
    np.matmul(y, C, out=u)
    return np.abs(u, out=u).max(initial=0.0) <= -_CERT_TOL * (y @ slack)
