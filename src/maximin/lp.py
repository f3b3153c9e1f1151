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
1'y / (_CERT_TOL r'y); a zero row is its own certificate, found before
any pivot.  A leaving row that fails this test, or an answer that fails
its check, raises :class:`SolverError`.

One kernel solves a stack of B programs of one shape, C of shape
(B, G, p), in lockstep: :func:`simplex_solve` is the stack of one, and
the group-count cross-validation stacks the training programs of many
splits.  Each step pivots every program that still has a level below
zero, by the rules above applied to that program alone (its own leaving
row, entering variable, stall count, switch to Bland's rule and pivot
cap), so each program takes the pivot path it takes alone and returns the
same beta to the bit.  The buffers are those of one program with a
leading axis: one batched two-row product over C per step, the ratio test
over (B, p + G) and a rank-1 update of the B inverse tableaux, with the
programs that have stopped kept out by ``where=``; only the entering
column B^-1 a_j is formed one program at a time, from a view of C.  Memory
is O(B (G^2 + p)) on top of C, which is never copied, and a pivot
allocates nothing of length p.  A program with a zero row, or whose
leaving row is a Farkas certificate, stops as infeasible with beta = 0;
NaN or inf in C, a failed certificate or a program over its cap raises
for the whole stack.
"""

from __future__ import annotations

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


def _pivot(T: np.ndarray, basis: np.ndarray, work: np.ndarray, rows: np.ndarray,
           cols: np.ndarray, alpha: np.ndarray, moving: np.ndarray) -> None:
    """Pivot the inverse tableau T[b] of every program b with ``moving[b]``
    on row ``rows[b]``, entering ``cols[b]``.  ``alpha[b]`` holds the
    entering column B^-1 a_col with its reduced cost last, and is
    overwritten; ``work`` is scratch of T's shape, so a pivot allocates
    nothing of size G^2.  The other programs keep their tableaux."""
    lanes = np.arange(T.shape[0])
    pivot = T[lanes, rows]
    np.divide(pivot, alpha[lanes, rows][:, None], out=pivot, where=moving[:, None])
    T[lanes, rows] = pivot
    alpha[lanes, rows] = 0.0
    # rank-1 elimination of the entering column from every other row
    np.multiply(alpha[:, :, None], pivot[:, None, :], out=work, where=moving[:, None, None])
    np.subtract(T, work, out=T, where=moving[:, None, None])
    basis[lanes, rows] = np.where(moving, cols, basis[lanes, rows])


def _column(C, slack, lead, w, inverse, j, out) -> None:
    """Write the entering column B^-1 a_j of [C, -C, diag(slack)] of one
    program into ``out[:-1]`` and its reduced cost into ``out[-1]``;
    ``lead[0]`` is -y and ``w`` is -y'C."""
    G, p = C.shape
    if j < 2 * p:
        np.matmul(inverse, C[:, j % p], out=out[:G])
        if j >= p:
            np.negative(out[:G], out=out[:G])
            out[G] = 1.0 - w[j - p]
        else:
            out[G] = 1.0 + w[j]
    else:
        np.multiply(inverse[:, j - 2 * p], slack[j - 2 * p], out=out[:G])
        out[G] = slack[j - 2 * p] * lead[0, j - 2 * p]


def _dual_simplex(C, slack, T, basis, infeasible, max_iter) -> np.ndarray:
    """Pivot every program of the stack from a dual feasible basis until
    all its basic levels are nonnegative, or until its leaving row proves
    it infeasible, which sets its entry of ``infeasible``; a program set
    there on entry never pivots.  Returns the pivots of each program.
    T[b, -1, -1] tracks -objective of program b, which falls with every
    pivot that makes progress."""
    B, G, p = C.shape
    x_basic, inverse = T[:, :G, -1], T[:, :G, :G]
    lanes = np.arange(B)
    lead = np.empty((B, 2, G))
    wu = np.empty((B, 2, p))
    w, u = wu[:, 0], wu[:, 1]
    ratio = np.empty((B, p + G))
    eligible = np.empty((B, p + G), dtype=bool)
    below = np.empty((B, G), dtype=bool)
    pick = np.empty((B, G))
    alpha = np.zeros((B, G + 1))
    work = np.empty_like(T)
    iters = np.zeros(B, dtype=np.int64)
    active = ~infeasible
    bland = np.zeros(B, dtype=bool)
    stalled = np.zeros(B, dtype=np.int64)
    last = T[:, -1, -1].copy()
    step = 0
    while True:
        # a program with no level below zero is optimal and stops
        np.less(x_basic, -_TOL, out=below)
        active &= below.any(axis=1)
        if not active.any():
            return iters
        # the most negative level leaves, or under Bland's rule the lowest
        # basic variable below zero; ties go to the lowest row
        np.copyto(pick, x_basic)
        np.copyto(pick, basis, where=bland[:, None])
        np.copyto(pick, np.inf, where=np.logical_not(below, out=below))
        row = pick.argmin(axis=1)
        if step >= max_iter:
            b = int(active.argmax())
            raise NonConverged("simplex iteration limit reached",
                               residual=float(-x_basic[b, row[b]]))
        # w = -y'C and u, the leaving row of B^-1 C, in one pass over C
        lead[:, 0] = T[:, -1, :G]
        lead[:, 1] = T[lanes, row, :G]
        np.matmul(lead, C, out=wu)
        # ratio d_j / -alpha_j over the columns with alpha_j < 0 in the
        # leaving row: b+_j (alpha u_j, cost 1 + w_j) when u_j < 0, b-_j
        # (alpha -u_j, cost 1 - w_j) when u_j > 0, both (sign u_j - w_j)/u_j
        np.greater(np.abs(u, out=ratio[:, :p]), _TOL, out=eligible[:, :p])
        np.sign(u, out=ratio[:, :p])
        ratio[:, :p] -= w
        np.divide(ratio[:, :p], u, out=ratio[:, :p], where=eligible[:, :p])
        # slack i: alpha rho_i slack_i and cost -y_i slack_i, ratio y_i/rho_i
        np.multiply(lead[:, 1], slack, out=ratio[:, p:])
        np.less(ratio[:, p:], -_TOL, out=eligible[:, p:])
        np.divide(lead[:, 0], lead[:, 1], out=ratio[:, p:], where=eligible[:, p:])
        np.negative(ratio[:, p:], out=ratio[:, p:])
        np.copyto(ratio, np.inf, where=np.logical_not(eligible, out=eligible))
        # negative ratios are reduced costs at rounding level
        np.maximum(ratio, 0.0, out=ratio)
        k = ratio.argmin(axis=1)
        best = ratio[lanes, k]
        for b in np.flatnonzero(active & (best == np.inf)):
            # this row of B^-1 [C, -C, -R] is nonnegative at a negative
            # level: the row of B^-1, negated, is a Farkas vector
            if not _farkas(C[b], slack[b], -np.minimum(lead[b, 1], 0.0), u[b]):
                raise SolverError("simplex found no entering column for a "
                                  "negative level and no Farkas certificate")
            infeasible[b] = True
            active[b] = False
        # the variable index: b+_j is j, b-_j is p + j, slack i is 2p + i
        j = k + p * ((k >= p) | (u[lanes, np.minimum(k, p - 1)] > 0.0))
        for b in np.flatnonzero(active & bland):
            ties = np.flatnonzero(ratio[b] <= best[b] + _TOL * (1.0 + best[b]))
            j[b] = (ties + p * ((ties >= p) | (u[b, ties % p] > 0))).min()
        for b in np.flatnonzero(active).tolist():
            _column(C[b], slack[b], lead[b], w[b], inverse[b], int(j[b]), alpha[b])
        _pivot(T, basis, work, row, j, alpha, active)
        iters += active
        step += 1
        # programs that stopped never pivot again, so their counts are moot
        gain = T[:, -1, -1] < last - _TOL * (1.0 + np.abs(last))
        np.copyto(last, T[:, -1, -1], where=gain)
        stalled = np.where(gain, 0, stalled + 1)
        bland |= stalled >= _STALL_LIMIT


def _simplex_stack(C, *, max_iter: int | None = None):
    """:func:`simplex_solve` on every program C[b] of a float64 stack C of
    shape (B, G, p), in lockstep; C is left unchanged.

    Returns (beta, objective, iterations, infeasible), stacked over the
    programs, with beta = 0 for an infeasible one.  ``max_iter`` caps the
    pivots of each program.  NaN or inf anywhere in C, a failed
    certificate of any program or a program over the cap raises for the
    whole stack, as :func:`simplex_solve` does.
    """
    B, G, p = C.shape
    # max/min rather than abs keeps C-sized temporaries out; NaN and inf
    # carry through, and C beta would hide them from the certificate
    rownorm = np.maximum(C.max(axis=2, initial=0.0), -C.min(axis=2, initial=0.0))
    if not np.isfinite(rownorm).all():
        raise NonFiniteData("C must be finite")
    # a zero row cannot reach 1, so it certifies its own program infeasible
    infeasible = ~rownorm.all(axis=1)
    # sigma is the power of two above max|C|, r_i the one above ||C_i||_inf
    sigma = np.ldexp(1.0, np.frexp(rownorm.max(axis=1, initial=0.0))[1])
    slack = np.ldexp(-1.0, np.frexp(rownorm)[1])

    if max_iter is None:
        max_iter = 200 + 100 * (G + 1)

    # the all-slack basis B = -R: x_B = -sigma/r, y = 0 and objective 0
    T = np.zeros((B, G + 1, G + 1))
    diagonal = np.arange(G)
    T[:, diagonal, diagonal] = 1.0 / slack
    T[:, :G, -1] = sigma[:, None] / slack
    basis = np.tile(np.arange(2 * p, 2 * p + G), (B, 1))
    iterations = _dual_simplex(C, slack, T, basis, infeasible, max_iter)

    # b+ and b- of a column are never both basic (their columns are
    # dependent), so beta is read off the basic levels alone; levels within
    # the feasibility tolerance of zero are pivot dust, and the slacks'
    # zero levels go to a column past the last
    level = T[:, :G, -1].copy()
    level[(basis >= 2 * p) | (level <= _TOL) | infeasible[:, None]] = 0.0
    level /= sigma[:, None]
    np.negative(level, out=level, where=basis >= p)
    cols = np.where(basis < 2 * p, basis - p * (basis >= p), p)
    beta = np.zeros((B, p + 1))
    np.put_along_axis(beta, cols, level, axis=1)
    objective = np.abs(level).sum(axis=1)
    _check_optimal(C, rownorm, cols, level, objective,
                   -np.minimum(T[:, -1, :G], 0.0), ~infeasible)
    return beta[:, :p], objective, iterations, infeasible


def simplex_solve(C, *, max_iter: int | None = None) -> LpResult:
    """Dual simplex on  min ||beta||_1  subject to  C beta >= 1.

    C is left unchanged.  ``max_iter`` (default 200 + 100(G+1)) caps the
    pivots of the solve; a solve that needs more raises
    :class:`NonConverged`.  Raises :class:`NonFiniteData` when C holds NaN
    or inf, :class:`Infeasible` when no beta meets the constraints, and
    :class:`SolverError` when an answer fails its certificate (see the
    module docstring).  This is the stack of one program.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise SolverError("C must be a matrix")
    beta, objective, iterations, infeasible = _simplex_stack(C[None], max_iter=max_iter)
    if infeasible[0]:
        raise Infeasible("no feasible point (a zero row of C, or a Farkas "
                         "certificate)")
    return LpResult(beta=beta[0], objective=float(objective[0]),
                    iterations=int(iterations[0]))


def _check_optimal(C, rownorm, cols, level, objective, y, solved) -> None:
    """Raise SolverError unless every program b with ``solved[b]`` has its
    beta (``level[b]`` on the columns ``cols[b]``, a column past the last
    for a slack) and its duals y[b] >= 0 certify optimality."""
    B, G, p = C.shape
    if not solved.any():
        return
    # C beta >= 1 up to rounding, which ||C_i||_inf ||beta||_1 bounds; C is
    # read through the basic columns only
    basic = C[np.arange(B)[:, None, None], np.arange(G)[:, None],
              np.minimum(cols, p - 1)[:, None, :]]
    reach = np.matmul(basic, level[:, :, None])[:, :, 0]
    low = (reach + _CERT_TOL * objective[:, None] * rownorm).min(axis=1, initial=1.0)
    failed = solved & (low < 1.0)
    if failed.any():
        b = int(failed.argmax())
        raise SolverError("LP certificate failed: C beta >= 1 is violated "
                          f"by {1.0 - reach[b].min():.3e}")
    u = np.matmul(y[:, None, :], C)[:, 0]
    dual = np.abs(u, out=u).max(axis=1, initial=0.0)
    failed = solved & (dual > 1.0 + _CERT_TOL)
    if failed.any():
        b = int(failed.argmax())
        raise SolverError(f"LP certificate failed: ||C'y||_inf = {dual[b]!r} > 1")
    gap = np.abs(objective - y.sum(axis=1))
    failed = solved & (gap > _CERT_TOL * objective)
    if failed.any():
        b = int(failed.argmax())
        raise SolverError(f"LP certificate failed: duality gap {gap[b]:.3e} "
                          f"at objective {objective[b]:.6e}")


def _farkas(C, slack, y, u) -> bool:
    """Whether y >= 0 proves C beta >= 1 infeasible, with C'y = 0 relative
    to r'y = -slack'y; ``u`` is scratch of length p."""
    if not y.sum() > 0.0:
        return False
    np.matmul(y, C, out=u)
    return np.abs(u, out=u).max(initial=0.0) <= -_CERT_TOL * (y @ slack)
