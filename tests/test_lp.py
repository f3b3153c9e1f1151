import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from maximin import Infeasible, NonConverged, PenaltyConfig, fit_maximal_penalty
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


def test_infeasible():
    # b >= 1 and -b >= 1 cannot both hold; neither can 0'b >= 1
    with pytest.raises(Infeasible):
        simplex_solve(np.array([[1.0], [-1.0]]))
    with pytest.raises(Infeasible):
        simplex_solve(np.zeros((1, 3)))


def test_degenerate_redundant_rows_terminate():
    # duplicated rows create degenerate bases; the solve must still
    # terminate at the optimum
    for C in (np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]),
              np.array([[1.0, 2.0, 3.0]] * 3),
              np.array([[1.0, -1.0], [1.0, -1.0], [0.5, 2.0], [0.5, 2.0]])):
        res = simplex_solve(C)
        _check_optimal(C, res, _highs(C), atol=1e-9, feas_atol=1e-9)


def test_iteration_cap():
    # phase 1 needs one pivot per row to drive both artificials out
    with pytest.raises(NonConverged):
        simplex_solve(np.eye(2), max_iter=1)


def test_iteration_cap_covers_both_phases(monkeypatch):
    # each phase fits under the cap on its own, the two together do not
    rng = np.random.default_rng(2)
    C = _feasible_C(rng, 3, 8, rng.standard_normal)
    phases = []
    real = lp._run_phase
    monkeypatch.setattr(lp, "_run_phase",
                        lambda *a: phases.append(real(*a)) or phases[-1])
    res = simplex_solve(C)
    p1, p2 = phases
    assert p1 >= 2 and p2 >= 2
    assert res.iterations == p1 + p2
    with pytest.raises(NonConverged):
        simplex_solve(C, max_iter=max(p1, p2) + 1)
    assert simplex_solve(C, max_iter=p1 + p2 + 1).iterations == p1 + p2


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
    # pins the pivot path that Dantzig pricing with lowest-index ties takes
    assert res.iterations == 30
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
