import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from maximin import (Infeasible, NonConverged, NonFiniteData, PenaltyConfig,
                     SolverError, fit_maximal_penalty)
from maximin import lp
from maximin.lp import simplex_solve


def _highs(C):
    # the same program on the split beta = b+ - b-, as inequalities
    G, p = C.shape
    return linprog(np.ones(2 * p), A_ub=np.hstack([-C, C]), b_ub=-np.ones(G),
                   bounds=(0, None), method="highs")


def _feasible_C(rng, G, p, draw):
    # rows flipped to align positively with a random direction, so that
    # a scaled copy of it meets C beta >= 1
    while True:
        C = draw((G, p))
        a = C @ draw(p)
        if np.all(a != 0.0):
            return C * np.sign(a)[:, None]


def _check_optimal(C, res, ref, atol, feas_atol):
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, abs=atol)
    assert float(np.abs(res.beta).sum()) == pytest.approx(res.objective, abs=1e-12)
    assert np.all(C @ res.beta >= 1.0 - feas_atol)


def test_known_solution():
    # min |b1| + |b2|  s.t.  b1 + 2 b2 >= 1
    res = simplex_solve(np.array([[1.0, 2.0]]))
    np.testing.assert_allclose(res.beta, [0.0, 0.5], atol=1e-12)
    assert res.objective == pytest.approx(0.5)
    # a row that needs a negative coefficient: -2 b2 >= 1
    res = simplex_solve(np.array([[1.0, 0.0], [0.0, -2.0]]))
    np.testing.assert_allclose(res.beta, [1.0, -0.5], atol=1e-12)
    assert res.objective == pytest.approx(1.5)


def test_no_rows():
    # no constraint: beta = 0 is optimal before any pivot
    res = simplex_solve(np.zeros((0, 3)))
    np.testing.assert_array_equal(res.beta, np.zeros(3))
    assert res.objective == 0.0 and res.iterations == 0


def test_infeasible():
    # b >= 1 and -b >= 1 cannot both hold; neither can 0'b >= 1
    with pytest.raises(Infeasible):
        simplex_solve(np.array([[1.0], [-1.0]]))
    with pytest.raises(Infeasible):
        simplex_solve(np.zeros((1, 3)))
    # a zero row next to a tiny one
    with pytest.raises(Infeasible):
        simplex_solve(np.array([[0.0, 0.0], [1e-9, 0.0]]))
    # rows without columns are zero rows
    with pytest.raises(Infeasible):
        simplex_solve(np.zeros((2, 0)))


def test_non_finite_C_is_rejected():
    # C beta is NaN for these, and NaN passes every comparison of the check
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteData):
            simplex_solve(np.array([[bad, 1.0], [1.0, 1.0]]))


def test_degenerate_redundant_rows_terminate():
    # duplicated rows create degenerate bases; the solve must still
    # terminate at the optimum
    for C in (np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]),
              np.array([[1.0, 2.0, 3.0]] * 3),
              np.array([[1.0, -1.0], [1.0, -1.0], [0.5, 2.0], [0.5, 2.0]])):
        res = simplex_solve(C)
        _check_optimal(C, res, _highs(C), atol=1e-9, feas_atol=1e-9)


def test_iteration_cap():
    # the all-slack start leaves both rows below 1, one pivot lifts one
    with pytest.raises(NonConverged):
        simplex_solve(np.eye(2), max_iter=1)


def test_iteration_cap_counts_every_pivot():
    # the cap admits exactly max_iter pivots of the one dual-simplex loop
    rng = np.random.default_rng(7)
    C = _feasible_C(rng, 3, 8, rng.standard_normal)
    n = simplex_solve(C).iterations
    assert n >= 2
    assert simplex_solve(C, max_iter=n).iterations == n
    with pytest.raises(NonConverged):
        simplex_solve(C, max_iter=n - 1)


def test_inputs_left_unchanged():
    # rows with unequal scales exercise the row scaling
    rng = np.random.default_rng(11)
    C = _feasible_C(rng, 4, 9, rng.standard_normal)
    C *= np.array([[1e-3], [1.0], [50.0], [2.0]])
    C0 = C.copy()
    res = simplex_solve(C)
    np.testing.assert_array_equal(C, C0)
    _check_optimal(C, res, _highs(C), atol=1e-7, feas_atol=1e-8)


def _wide_cross_products(G, p):
    # the benchmark's wide maximal-penalty recipe: noise, a shared weak
    # column and one strong column per group
    rng = np.random.Generator(np.random.Philox(1406))
    C = rng.standard_normal((G, p)) * 0.05
    C[:, 0] = 0.52
    for g in range(G):
        C[g, g + 1] = 1.4 + 0.3 * g
    return C


def test_mid_size_maximal_lp_pivots_and_optimum():
    G, p = 8, 5000
    C = _wide_cross_products(G, p)
    res = simplex_solve(C)
    # pins the pivot path of the dual simplex from the all-slack basis
    assert res.iterations == 4
    _check_optimal(C, res, _highs(C), atol=1e-9, feas_atol=1e-9)


def test_maximal_penalty_memory_stays_below_half_of_C():
    # the solver reads C in place: a standard-form copy [C, -C, -I] alone
    # would take twice C's bytes
    C = _wide_cross_products(20, 50_000)
    tracemalloc.start()
    try:
        beta = fit_maximal_penalty(C, PenaltyConfig(q="l1", mode="maximal"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(C @ beta >= 1.0 - 1e-9)
    assert peak < 0.5 * C.nbytes


def test_against_scipy_on_random_programs():
    rng = np.random.default_rng(7)
    for _ in range(120):
        G = int(rng.integers(1, 6))
        p = int(rng.integers(1, 9))
        C = _feasible_C(rng, G, p, rng.standard_normal)
        _check_optimal(C, simplex_solve(C), _highs(C), atol=1e-7, feas_atol=1e-8)


def test_infeasible_detection_matches_scipy():
    # four random rows in the plane: about half the draws admit no beta
    rng = np.random.default_rng(8)
    outcomes = set()
    for _ in range(60):
        C = rng.standard_normal((4, 2))
        ref = _highs(C)
        try:
            simplex_solve(C)
            ours_feasible = True
        except Infeasible:
            ours_feasible = False
        assert ours_feasible == (ref.status == 0)
        outcomes.add(ours_feasible)
    assert outcomes == {True, False}


def test_against_scipy_with_many_groups():
    # G up to 30 rows: feasible Gaussian draws, unaligned ones (mostly
    # infeasible once G > p) and integer-rounded aligned ones, where ties
    # and degenerate pivots are common
    rng = np.random.default_rng(123)
    outcomes = set()
    for t in range(300):
        G, p = int(rng.integers(1, 31)), int(rng.integers(1, 61))
        if t % 3 == 0:
            C = _feasible_C(rng, G, p, rng.standard_normal)
        elif t % 3 == 1:
            C = rng.standard_normal((G, p))
        else:
            C = _feasible_C(rng, G, p, lambda shape: np.round(2.0 * rng.standard_normal(shape)))
        ref = _highs(C)
        try:
            res = simplex_solve(C)
        except Infeasible:
            assert ref.status == 2
            outcomes.add(False)
            continue
        _check_optimal(C, res, ref, atol=1e-7, feas_atol=1e-8)
        outcomes.add(True)
    assert outcomes == {True, False}


def test_bland_rule_against_scipy(monkeypatch):
    # switching to Bland's rule after every non-improving pivot must still
    # reach the optimum, on integer data where degenerate pivots are common
    monkeypatch.setattr(lp, "_STALL_LIMIT", 1)
    rng = np.random.default_rng(12)

    def draw(shape):
        return np.round(2.0 * rng.standard_normal(shape))

    for _ in range(60):
        G = int(rng.integers(1, 6))
        p = int(rng.integers(1, 10))
        C = _feasible_C(rng, G, p, draw)
        _check_optimal(C, simplex_solve(C), _highs(C), atol=1e-7, feas_atol=1e-8)


def test_wide_program_pivots_do_not_depend_on_column_order():
    # a primal simplex on the raw C took 93 pivots in demo order, and 1342
    # or the pivot cap under these permutations
    C = _wide_cross_products(20, 200_000)
    base = simplex_solve(C)
    assert base.iterations == 4
    for seed in (0, 1, 2):
        order = np.random.Generator(np.random.Philox(seed)).permutation(C.shape[1])
        res = simplex_solve(C[:, order])
        assert res.iterations == base.iterations
        assert res.objective == pytest.approx(base.objective, rel=1e-12)


def test_wide_program_answer_has_no_pivot_dust():
    # every row is met by the shared column alone; basic levels left at
    # rounding level by the pivots read as exact zeros
    C = _wide_cross_products(20, 200_000)
    beta = simplex_solve(C).beta
    np.testing.assert_array_equal(np.flatnonzero(beta), [0])
    assert beta[0] == pytest.approx(1.0 / 0.52, rel=1e-15)


def test_answer_scales_exactly_with_C():
    # C 2^k is solved as the same program on C/sigma, so beta scales by 2^-k
    # to the bit, far outside the units where absolute tolerances hold
    C = _wide_cross_products(8, 500)
    base = simplex_solve(C)
    for k in (-60, -20, 20, 60):
        res = simplex_solve(np.ldexp(C, k))
        np.testing.assert_array_equal(np.ldexp(res.beta, k), base.beta)
        assert res.iterations == base.iterations
    cfg = PenaltyConfig(q="l1", mode="maximal")
    np.testing.assert_array_equal(fit_maximal_penalty(np.ldexp(C, 40), cfg),
                                  np.ldexp(fit_maximal_penalty(C, cfg), -40))


def test_badly_scaled_infeasible_program():
    # opposite signs in one coordinate; raw-C tolerances returned beta = 6.9e-8
    with pytest.raises(Infeasible):
        simplex_solve(np.array([[14569618.153052555], [-53184220.30534141]]))


def _scaled_programs(rng, count, low, high):
    """Random programs with G <= 4 rows and p <= 3 columns, a third of them
    with two nearly opposite rows, each row scaled by 10^U(low, high)."""
    for _ in range(count):
        G, p = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        C = rng.standard_normal((G, p))
        if G >= 2 and rng.random() < 1 / 3:
            C[1] = -C[0] + 1e-3 * rng.standard_normal(p)
        yield C * 10.0 ** rng.uniform(low, high, (G, 1))


def _relative_excess(C, beta):
    # min_i (C beta - 1)_i on the rounding scale of (C beta)_i, |C||beta|
    return float(np.min((C @ beta - 1.0) / np.maximum(np.abs(C) @ np.abs(beta), 1.0)))


def _outcomes(programs):
    """Tally the solver against HiGHS on C/sigma (sigma the power of two at
    or above max|C|: on the raw C, HiGHS's absolute tolerances fail too).
    'wrong' is an Infeasible where HiGHS finds a beta, a beta that violates
    C beta >= 1 beyond rounding, or an objective above a feasible HiGHS
    optimum; 'error' is a raised SolverError, and 'disagree' a certified
    beta where HiGHS finds none."""
    tally = {"agree": 0, "wrong": 0, "error": 0}
    for C in programs:
        p = C.shape[1]
        sigma = 2.0 ** np.ceil(np.log2(np.abs(C).max()))
        ref = _highs(C / sigma)
        ref_beta = (ref.x[:p] - ref.x[p:]) / sigma if ref.status == 0 else None
        ref_ok = ref_beta is not None and _relative_excess(C, ref_beta) >= -1e-9
        try:
            res = simplex_solve(C)
        except Infeasible:
            tally["wrong" if ref_ok else "agree"] += 1
            continue
        except SolverError:
            tally["error"] += 1
            continue
        if (_relative_excess(C, res.beta) < -1e-9
                or ref_ok and res.objective > (1 + 1e-6) * np.abs(ref_beta).sum()):
            kind = "wrong"
        elif ref.status == 0:
            kind = "agree"
        else:
            kind = "disagree"
        tally[kind] = tally.get(kind, 0) + 1
    return tally


@pytest.mark.parametrize("low, high", [(6, 9), (-9, -6)])
def test_uniform_row_scales_agree_with_highs(low, high):
    rng = np.random.default_rng(1)
    assert _outcomes(_scaled_programs(rng, 300, low, high)) == {
        "agree": 300, "wrong": 0, "error": 0}


def test_rows_two_decades_apart_are_answered():
    rng = np.random.default_rng(1)
    assert _outcomes(_scaled_programs(rng, 500, -2, 2)) == {
        "agree": 500, "wrong": 0, "error": 0}


def test_rows_four_decades_apart_are_never_answered_wrongly():
    rng = np.random.default_rng(1)
    assert _outcomes(_scaled_programs(rng, 1500, -4, 4))["wrong"] == 0


def test_certificate_rejects_a_suboptimal_answer(monkeypatch):
    # a dual simplex stopped after one pivot holds a basis whose levels are
    # not all nonnegative: its beta misses C beta >= 1, and the primal check
    # must refuse it
    rng = np.random.default_rng(7)
    C = _feasible_C(rng, 3, 8, rng.standard_normal)
    assert simplex_solve(C).iterations >= 2
    real = lp._dual_simplex

    def one_pivot(C, slack, T, basis, infeasible, max_iter):
        try:
            return real(C, slack, T, basis, infeasible, 1)
        except NonConverged:
            return np.ones(C.shape[0], dtype=np.int64)

    monkeypatch.setattr(lp, "_dual_simplex", one_pivot)
    with pytest.raises(SolverError, match="C beta >= 1 is violated"):
        simplex_solve(C)


def _mixed_stack(rng, draw):
    """A stack of programs of one random shape: aligned (feasible) draws,
    raw draws (often infeasible once G > 1) and, at times, one program with
    a zero row."""
    B, G, p = int(rng.integers(1, 12)), int(rng.integers(1, 8)), int(rng.integers(1, 10))
    C = np.stack([_feasible_C(rng, G, p, draw) if rng.random() < 0.5 else draw((G, p))
                  for _ in range(B)])
    if rng.random() < 0.3:
        C[rng.integers(B), rng.integers(G)] = 0.0
    return C


@pytest.mark.parametrize("stall", [40, 1])
@pytest.mark.parametrize("integer", [False, True])
def test_stack_matches_one_at_a_time(monkeypatch, stall, integer):
    # every program of a stack takes its own pivot path: the same beta, to
    # the bit, and the same pivot count or Infeasible verdict as a solve of
    # it alone; integer data under a stall limit of 1 run Bland's rule
    monkeypatch.setattr(lp, "_STALL_LIMIT", stall)
    rng = np.random.default_rng(31 + stall + integer)

    def draw(shape):
        x = rng.standard_normal(shape)
        return np.round(2.0 * x) if integer else x

    verdicts, zero_row = set(), False
    for _ in range(120):
        C = _mixed_stack(rng, draw)
        beta, objective, iterations, infeasible = lp._simplex_stack(C)
        zero_row |= bool((np.abs(C).max(axis=2) == 0.0).any())
        for b in range(C.shape[0]):
            try:
                res = simplex_solve(C[b])
            except Infeasible:
                assert infeasible[b] and not beta[b].any()
                verdicts.add(False)
                continue
            assert not infeasible[b]
            np.testing.assert_array_equal(beta[b], res.beta)
            assert iterations[b] == res.iterations
            assert objective[b] == res.objective
            verdicts.add(True)
    assert verdicts == {True, False} and zero_row


def test_bland_rule_changes_pivot_paths_in_a_stack(monkeypatch):
    # the stall limit of 1 in test_stack_matches_one_at_a_time is not moot:
    # on these integer stacks Bland's rule takes other pivots
    rng = np.random.default_rng(5)
    stacks = [_mixed_stack(rng, lambda shape: np.round(2.0 * rng.standard_normal(shape)))
              for _ in range(60)]
    counts = {}
    for stall in (40, 1):
        monkeypatch.setattr(lp, "_STALL_LIMIT", stall)
        counts[stall] = np.concatenate([lp._simplex_stack(C)[2] for C in stacks])
    assert np.any(counts[40] != counts[1])


def test_one_program_over_the_cap_stops_the_stack():
    # eye(2) needs two pivots, the other program one: the cap holds per
    # program, and a program over it raises for the whole stack
    fast = np.array([[1.0, 0.0], [1.0, 0.0]])
    beta, _, iterations, _ = lp._simplex_stack(fast[None], max_iter=1)
    np.testing.assert_array_equal(beta, [[1.0, 0.0]])
    assert iterations.tolist() == [1]
    with pytest.raises(NonConverged):
        lp._simplex_stack(np.stack([fast, np.eye(2)]), max_iter=1)
    assert lp._simplex_stack(np.stack([fast, np.eye(2)]), max_iter=2)[2].tolist() == [1, 2]


def test_farkas_certificate():
    # the slack columns -R of rows with unit norms
    slack, u = np.array([-1.0, -1.0]), np.empty(2)
    # b >= 1 and -b >= 1: y = (1, 1) gives C'y = 0
    assert lp._farkas(np.array([[1.0], [-1.0]]), slack, np.array([1.0, 1.0]), u[:1])
    # a feasible program has no certificate
    C = np.array([[1.0, 0.0], [-1.0, 1e-3]])
    assert not lp._farkas(C, slack, np.array([1.0, 1.0]), u)
    assert not lp._farkas(C, slack, np.zeros(2), u)
