import numpy as np
import pytest
from scipy.optimize import linprog

from maximin import Infeasible, NonConverged, SolverError
from maximin import lp
from maximin.lp import origin_hull_weights, origin_in_hull, simplex_solve


def test_known_solution():
    # min x + y  s.t.  x + 2y = 4
    res = simplex_solve(np.array([1.0, 1.0]), np.array([[1.0, 2.0]]), np.array([4.0]))
    np.testing.assert_allclose(res.x, [0.0, 2.0], atol=1e-12)
    assert res.objective == pytest.approx(2.0)


def test_negative_rhs_handled():
    # same program written with a flipped row
    res = simplex_solve(np.array([1.0, 1.0]), np.array([[-1.0, -2.0]]), np.array([-4.0]))
    np.testing.assert_allclose(res.x, [0.0, 2.0], atol=1e-12)


def test_infeasible():
    # x1 + x2 = -1 is impossible for x >= 0
    with pytest.raises(Infeasible):
        simplex_solve(np.zeros(2), np.array([[1.0, 1.0]]), np.array([-1.0]))


def test_degenerate_redundant_rows_terminate():
    # duplicated constraints create degenerate bases; must still terminate
    A = np.array([[1.0, 1.0, 1.0],
                  [1.0, 1.0, 1.0],
                  [2.0, 2.0, 2.0]])
    b = np.array([3.0, 3.0, 6.0])
    res = simplex_solve(np.array([1.0, 2.0, 3.0]), A, b)
    assert res.objective == pytest.approx(3.0)
    np.testing.assert_allclose(A @ res.x, b, atol=1e-9)


def test_unbounded():
    # min -x1  s.t.  x1 - x2 = 1: x1 grows without bound along x2
    with pytest.raises(SolverError, match="unbounded"):
        simplex_solve(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0]))


def test_iteration_cap():
    # phase 1 needs one pivot per row to drive both artificials out
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(NonConverged):
        simplex_solve(np.ones(3), A, np.array([1.0, 2.0]), max_iter=1)


def test_inputs_left_unchanged():
    # rows with unequal scales and a negative right-hand side exercise the
    # row scaling and the sign flip
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 9)) * np.array([[1e-3], [1.0], [50.0], [2.0]])
    A[1] = -np.abs(A[1])
    b = A @ rng.uniform(0.5, 1.5, size=9)
    c = np.abs(rng.standard_normal(9))
    A0, b0, c0 = A.copy(), b.copy(), c.copy()
    simplex_solve(c, A, b)
    np.testing.assert_array_equal(A, A0)
    np.testing.assert_array_equal(b, b0)
    np.testing.assert_array_equal(c, c0)


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
    A = np.hstack([C, -C, -np.eye(G)])
    c = np.concatenate([np.ones(2 * p), np.zeros(G)])
    res = simplex_solve(c, A, np.ones(G))
    # pins the pivot path that Dantzig pricing with lowest-index ties takes
    assert res.iterations == 30
    ref = linprog(np.ones(2 * p), A_ub=np.hstack([-C, C]), b_ub=-np.ones(G),
                  bounds=(0, None), method="highs")
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)
    beta = res.x[:p] - res.x[p:2 * p]
    assert np.all(C @ beta >= 1.0 - 1e-9)


def test_against_scipy_on_random_programs():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(120):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, m + 8))
        A = rng.standard_normal((m, n))
        # generate from a known feasible point so most cases are feasible
        x_feas = rng.uniform(0.0, 2.0, size=n)
        b = A @ x_feas
        if trial % 3 == 0:
            c = rng.standard_normal(n)          # may be unbounded
        else:
            c = np.abs(rng.standard_normal(n))  # bounded below by zero
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if ref.status == 3:
            continue  # unbounded; our solver raises instead, skip value check
        assert ref.status == 0
        res = simplex_solve(c, A, b)
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        np.testing.assert_allclose(A @ res.x, b, atol=1e-8)
        assert np.all(res.x >= -1e-10)
        checked += 1
    assert checked >= 90


def test_infeasible_detection_matches_scipy():
    rng = np.random.default_rng(8)
    agree = 0
    for _ in range(60):
        m, n = 3, 4
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m) * 3.0
        ref = linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        try:
            simplex_solve(np.zeros(n), A, b)
            ours_feasible = True
        except Infeasible:
            ours_feasible = False
        assert ours_feasible == (ref.status == 0)
        agree += 1
    assert agree == 60


def test_bland_rule_against_scipy(monkeypatch):
    # switching to Bland's rule after every non-improving pivot must still
    # reach the optimum, on integer data where degenerate pivots are common
    monkeypatch.setattr(lp, "_STALL_LIMIT", 1)
    rng = np.random.default_rng(12)
    for _ in range(60):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, m + 10))
        A = np.round(rng.standard_normal((m, n)))
        b = A @ np.round(rng.uniform(0.0, 2.0, size=n))
        c = np.round(np.abs(rng.standard_normal(n)), 1)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        res = simplex_solve(c, A, b)
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        np.testing.assert_allclose(A @ res.x, b, atol=1e-8)


class TestOriginInHull:
    def test_segment_through_origin(self):
        assert origin_in_hull(np.array([[1.0], [-1.0]]))

    def test_segment_missing_origin(self):
        assert not origin_in_hull(np.array([[1.0], [2.0]]))

    def test_triangle_containing_origin(self):
        pts = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert origin_in_hull(pts)

    def test_shifted_triangle(self):
        pts = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]]) + 5.0
        assert not origin_in_hull(pts)

    def test_origin_on_boundary(self):
        pts = np.array([[0.0, 1.0], [0.0, -1.0], [3.0, 0.0]])
        assert origin_in_hull(pts)

    def test_random_cases_against_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            p = int(rng.integers(1, 4))
            pts = rng.uniform(-1.0, 1.0, size=(d, p)) + rng.uniform(-0.5, 0.5, size=p)
            A = np.vstack([pts.T, np.ones((1, d))])
            b = np.zeros(p + 1)
            b[-1] = 1.0
            ref = linprog(np.zeros(d), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            assert origin_in_hull(pts) == (ref.status == 0)

    def test_weights_certify_membership(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            d = int(rng.integers(2, 12))
            p = int(rng.integers(1, 5))
            pts = rng.standard_normal((d, p)) * rng.uniform(0.1, 10.0)
            pts -= rng.dirichlet(np.ones(d)) @ pts   # put 0 inside the hull
            w = origin_hull_weights(pts)
            assert w is not None
            assert np.all(w >= 0.0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(pts.T @ w, 0.0, atol=1e-9 * np.abs(pts).max())
