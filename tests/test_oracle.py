import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maximin import (
    SupportSet,
    WeightsInvalid,
    conservative_check,
    hull_projection,
    maximin_effect,
    pooled_effect,
    pop_explained_variance,
    pred_maximin_effect,
)
from maximin import oracle
from maximin.grouping import rng_from_seed
from gridoracle import (
    enumerate_simplex_qp,
    grid_hull_min,
    grid_pred_maximin,
    origin_in_hull,
    random_support,
    sigma_norm,
)

I2 = np.eye(2)
TWO_POINT = SupportSet(points=[[1.0, -4.0], [1.0, 6.0]], sigma=I2)


class TestPooledEffect:
    def test_single_point(self):
        s = SupportSet(points=[[0.3, -2.0]], sigma=I2)
        np.testing.assert_allclose(pooled_effect(s), [0.3, -2.0])

    def test_uniform_mean(self):
        np.testing.assert_allclose(pooled_effect(TWO_POINT), [1.0, 1.0])

    def test_weighted_mean(self):
        s = SupportSet(points=[[2.0, 0.0], [0.0, 2.0]], sigma=I2)
        np.testing.assert_allclose(pooled_effect(s, [0.25, 0.75]), [0.5, 1.5])

    @pytest.mark.parametrize("weights", [[0.5, 0.6], [-0.1, 1.1], [1.0]])
    def test_invalid_weights(self, weights):
        with pytest.raises(WeightsInvalid):
            pooled_effect(TWO_POINT, weights)


class TestMaximinEffect:
    def test_segment_projection(self):
        # 1-D minimization of 1 + t^2 over the segment of second coordinates
        np.testing.assert_allclose(maximin_effect(TWO_POINT), [1.0, 0.0], atol=1e-8)

    def test_zero_when_origin_in_hull(self):
        s = SupportSet(points=[[1.0], [-1.0]], sigma=[[1.0]])
        np.testing.assert_array_equal(maximin_effect(s), [0.0])

    def test_projection_onto_diagonal_segment(self):
        s = SupportSet(points=[[2.0, 0.0], [0.0, 2.0]], sigma=I2)
        np.testing.assert_allclose(maximin_effect(s), [1.0, 1.0], atol=1e-8)

    def test_single_point_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = random_support(rng, d=1)
            np.testing.assert_allclose(maximin_effect(s), s.points[0], atol=1e-9)

    def test_first_order_condition(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s = random_support(rng)
            g = maximin_effect(s)
            inner = 2.0 * (s.points @ (s.sigma @ g) - g @ s.sigma @ g)
            assert inner.min() >= -1e-8

    def test_output_in_hull_with_weight_certificate(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            s = random_support(rng)
            sol = hull_projection(s)
            assert np.all(sol.weights >= 0.0)
            assert sol.weights.sum() == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(s.points.T @ sol.weights, sol.point,
                                       atol=1e-9)

    def test_zero_in_hull_detected_by_feasibility(self):
        rng = np.random.default_rng(3)
        zeros_seen = 0
        for _ in range(300):
            s = random_support(rng, p=2, d=4, scale=1.0)
            g = maximin_effect(s)
            if origin_in_hull(s.points):
                assert np.all(g == 0.0)
                zeros_seen += 1
        assert zeros_seen > 10  # the case actually occurs in this family

    def test_definition_level_optimality(self):
        # no candidate beats the returned point's worst-case explained variance
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = random_support(rng)
            g = maximin_effect(s)
            v_star = min(pop_explained_variance(g, b, s.sigma) for b in s.points)
            for _ in range(20):
                beta = rng.standard_normal(s.p) * 1.5
                v = min(pop_explained_variance(beta, b, s.sigma) for b in s.points)
                assert v <= v_star + 1e-7

    def test_grid_equivalence_step_1e3(self):
        # exhaustive hull-weight grid at step 1e-3 for d <= 3
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = random_support(rng, d=int(rng.integers(1, 4)))
            g = maximin_effect(s)
            g_grid, _ = grid_hull_min(s.points, s.sigma, step=1e-3)
            assert sigma_norm(g - g_grid, s.sigma) < 1e-2

    def test_robustness_monotone_under_added_points(self):
        # adding support points never moves the hull farther from the origin
        rng = np.random.default_rng(6)
        for _ in range(200):
            s = random_support(rng)
            extra = 1.5 * rng.uniform(-1.0, 1.0, size=s.p)
            bigger = SupportSet(points=np.vstack([s.points, extra]), sigma=s.sigma)
            before = sigma_norm(maximin_effect(s), s.sigma)
            after = sigma_norm(maximin_effect(bigger), s.sigma)
            assert after <= before + 1e-6


def test_non_convergence_raises_with_residual():
    from maximin import NonConverged

    # the optimum mixes all three points, so one step cannot reach it
    s = SupportSet(points=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                           [-0.4, -0.4, 1.0]], sigma=np.eye(3))
    with pytest.raises(NonConverged) as e:
        maximin_effect(s, max_iter=1)
    assert e.value.residual is not None and e.value.residual > 0.0
    np.testing.assert_allclose(maximin_effect(s), [0.0, 0.0, 1.0], atol=1e-8)


def _zero_exactly_when_inside(points, sigma=None):
    """hull_projection returns the zero point exactly when HiGHS finds the
    origin in the hull, and then its weights write the origin as a convex
    combination; returns HiGHS's answer."""
    points = np.asarray(points, dtype=np.float64)
    if sigma is None:
        sigma = np.eye(points.shape[1])
    sol = hull_projection(SupportSet(points=points, sigma=sigma))
    inside = origin_in_hull(points)
    assert (not np.any(sol.point)) == inside
    if inside:
        w = sol.weights
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(points.T @ w, 0.0, atol=1e-9 * np.abs(points).max())
    return inside


class TestOriginInHull:
    def test_segment_through_origin(self):
        assert _zero_exactly_when_inside([[1.0], [-1.0]])

    def test_segment_missing_origin(self):
        assert not _zero_exactly_when_inside([[1.0], [2.0]])

    def test_triangle_containing_origin(self):
        pts = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert _zero_exactly_when_inside(pts)

    def test_shifted_triangle(self):
        pts = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]]) + 5.0
        assert not _zero_exactly_when_inside(pts)

    def test_origin_on_boundary(self):
        pts = np.array([[0.0, 1.0], [0.0, -1.0], [3.0, 0.0]])
        assert _zero_exactly_when_inside(pts)

    def test_random_cases_against_scipy(self):
        rng = np.random.default_rng(9)
        inside = 0
        for _ in range(100):
            d = int(rng.integers(1, 6))
            p = int(rng.integers(1, 4))
            pts = rng.uniform(-1.0, 1.0, size=(d, p)) + rng.uniform(-0.5, 0.5, size=p)
            inside += _zero_exactly_when_inside(pts)
        assert 10 <= inside <= 90   # both answers occur in this family

    def test_weights_certify_membership(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            d = int(rng.integers(2, 12))
            p = int(rng.integers(1, 5))
            pts = rng.standard_normal((d, p)) * rng.uniform(0.1, 10.0)
            pts -= rng.dirichlet(np.ones(d)) @ pts   # put 0 inside the hull
            A = rng.standard_normal((p, p))
            assert _zero_exactly_when_inside(pts, A @ A.T / p + 0.3 * np.eye(p))


def _scaled_support(rng, scale):
    """A random support as in ``random_support``, times ``scale``."""
    s = random_support(rng, d=int(rng.integers(2, 7)))
    return SupportSet(points=scale * s.points, sigma=s.sigma), s


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e6])
def test_hull_solvers_at_large_scale(scale):
    # gradient entries near 2 b_j'S b_j carry rounding far above an absolute
    # 1e-9 there; both QPs must still converge, decide zero-in-hull as HiGHS
    # does, and move with the scale of the support
    rng = np.random.default_rng(13)
    inside = 0
    for _ in range(100):
        big, unit = _scaled_support(rng, scale)
        inside += _zero_exactly_when_inside(big.points, big.sigma)
        bound = 1e-6 * scale * np.abs(unit.points).max()
        np.testing.assert_allclose(hull_projection(big).point,
                                   scale * hull_projection(unit).point, atol=bound)
        np.testing.assert_allclose(pred_maximin_effect(big),
                                   scale * pred_maximin_effect(unit), atol=bound)
    assert 10 <= inside <= 90   # both answers occur in this family


class TestPredMaximinEffect:
    def test_single_point(self):
        s = SupportSet(points=[[0.7, 0.1]], sigma=I2)
        np.testing.assert_allclose(pred_maximin_effect(s), [0.7, 0.1], atol=1e-9)

    def test_midpoint_of_two_points(self):
        s = SupportSet(points=[[1.0], [3.0]], sigma=[[1.0]])
        np.testing.assert_allclose(pred_maximin_effect(s), [2.0], atol=1e-8)

    def test_symmetric_pair(self):
        s = SupportSet(points=[[-1.0], [1.0]], sigma=[[1.0]])
        np.testing.assert_allclose(pred_maximin_effect(s), [0.0], atol=1e-8)

    def test_differs_from_maximin_in_general(self):
        g = maximin_effect(TWO_POINT)
        c = pred_maximin_effect(TWO_POINT)
        assert not np.allclose(g, c)
        np.testing.assert_allclose(c, [1.0, 1.0], atol=1e-8)  # ball center

    def test_grid_equivalence(self):
        rng = np.random.default_rng(7)
        from maximin import pop_residual_variance
        for _ in range(20):
            s = random_support(rng, d=int(rng.integers(1, 4)))
            beta = pred_maximin_effect(s)
            worst = max(pop_residual_variance(beta, b, s.sigma) for b in s.points)
            _, grid_val = grid_pred_maximin(s.points, s.sigma, step=2e-3)
            assert worst <= grid_val + 1e-6


class TestConservativeCheck:
    def test_maximin_is_conservative(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            s = random_support(rng)
            ok, value, _ = conservative_check(s, maximin_effect(s), tol=1e-8)
            assert ok, value

    def test_zero_vector_vacuously_conservative(self):
        ok, value, _ = conservative_check(TWO_POINT, [0.0, 0.0])
        assert ok and value == 0.0

    def test_pooled_point_fails_here(self):
        ok, value, worst = conservative_check(TWO_POINT, [1.0, 1.0])
        assert not ok
        assert value == pytest.approx(-5.0)
        np.testing.assert_allclose(worst, [1.0, -4.0])

    @pytest.mark.parametrize("k", [-30, -7, 9, 40])
    def test_verdict_is_unit_free(self, k):
        # points, beta and S times 2^k scale every inner product and the
        # tolerance's scale max_b b'S b by 2^(3k), exactly, so the verdict
        # and the worst point stay; the pooled point of TWO_POINT misses by
        # 5 at scale 37, so its verdict turns at tol = 5/37 at every k
        rng = np.random.default_rng(9)
        cases = [(random_support(rng), None) for _ in range(20)]
        cases = [(s, maximin_effect(s)) for s, _ in cases] + [(TWO_POINT, np.ones(2))]
        for s, beta in cases:
            scaled = SupportSet(points=np.ldexp(s.points, k), sigma=np.ldexp(s.sigma, k))
            for tol in (1e-12, 1e-8, 5.0 / 37.0 - 1e-9, 5.0 / 37.0 + 1e-9):
                ok, value, worst = conservative_check(s, beta, tol=tol)
                got = conservative_check(scaled, np.ldexp(beta, k), tol=tol)
                assert got[0] == ok
                assert got[1] == np.ldexp(value, 3 * k)
                np.testing.assert_array_equal(got[2], np.ldexp(worst, k))
        assert not conservative_check(TWO_POINT, np.ones(2), tol=5.0 / 37.0 - 1e-9)[0]
        assert conservative_check(TWO_POINT, np.ones(2), tol=5.0 / 37.0 + 1e-9)[0]


def _degenerate_support(rng):
    """Up to six points in R^1..R^4: plain, with duplicated rows, with points
    on lines through earlier ones, or on a half-integer lattice, so that
    active sets become affinely dependent."""
    d, p = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    kind = int(rng.integers(0, 4))
    if kind == 3:
        points = rng.integers(-2, 3, size=(d, p)) / 2.0
    else:
        points = 1.25 * rng.uniform(-1.0, 1.0, size=(d, p))
    for i in range(1, d):
        if kind == 1 and rng.random() < 0.4:
            points[i] = points[rng.integers(0, i)]
        elif kind == 2 and i >= 2 and rng.random() < 0.5:
            a, b = rng.choice(i, 2, replace=False)
            points[i] = points[a] + rng.choice([-1.0, 0.5, 2.0]) * (points[b] - points[a])
    A = rng.standard_normal((p, p))
    return points, A @ A.T / p + 0.3 * np.eye(p)


def _both_linear_terms(points, sigma):
    """The hull QP (no linear term) and the enclosing-ball QP (-diag Q)."""
    return np.zeros(len(points)), -np.einsum("ij,jk,ik->i", points, sigma, points)


class TestSimplexQp:
    def test_matches_enumeration(self, monkeypatch):
        # spy on the KKT factorizations to see the rank-deficient
        # (affinely dependent) branch run on this family
        svd, dependent = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            sv = svd(a, compute_uv=False)
            dependent.append(sv[-1] <= oracle._RANK_RTOL * sv[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        rng = np.random.default_rng(11)
        for _ in range(600):
            points, sigma = _degenerate_support(rng)
            Q = points @ sigma @ points.T
            for linear in _both_linear_terms(points, sigma):
                w, gap, _ = oracle._simplex_qp(points, sigma, linear, 1e-12,
                                               oracle.DEFAULT_MAX_ITER)
                _, best = enumerate_simplex_qp(points, sigma, linear)
                assert gap <= 1e-12
                assert w @ Q @ w + linear @ w == pytest.approx(best, abs=1e-12)
        assert sum(dependent) >= 50

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), enclosing_ball=st.booleans())
    def test_kkt_certificate(self, seed, enclosing_ball):
        points, sigma = _degenerate_support(np.random.default_rng(seed))
        linear = _both_linear_terms(points, sigma)[int(enclosing_ball)]
        w, _, _ = oracle._simplex_qp(points, sigma, linear, oracle.DEFAULT_GAP_TOL,
                                     oracle.DEFAULT_MAX_ITER)
        grad = 2.0 * points @ sigma @ (points.T @ w) + linear
        mean = float(w @ grad)
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(grad >= mean - 1e-9)
        assert np.all(np.abs(grad[w > 0.0] - mean) <= 1e-9)

    def test_enclosing_ball_with_dependent_active_set(self):
        # 1, 3, then 0 enter in turn; the third point makes three collinear
        # active points, whose KKT system is inconsistent, and the null-space
        # step drops the point 1 in the middle
        points, sigma = np.array([[1.0], [0.0], [3.0]]), np.eye(1)
        w, gap, _ = oracle._simplex_qp(points, sigma, -points[:, 0] ** 2, 1e-12,
                                       oracle.DEFAULT_MAX_ITER)
        np.testing.assert_allclose(w, [0.0, 0.5, 0.5], atol=1e-15)
        assert gap <= 1e-12


# the wide_solvers support in generation order: 2000 Philox(1407) normals in
# R^20 with 3 added to the first coordinate
_WIDE = np.random.Generator(np.random.Philox(1407)).standard_normal((2000, 20))
_WIDE[:, 0] += 3.0
# its hull point from the Frank-Wolfe solver this package used before, at
# gap 9.6e-10 after 3038 iterations
_WIDE_FW_POINT = [
    0.2812656419, 0.0293848694, 0.0229745879, -0.0218273955, -0.0057398961,
    0.0038531495, 0.0089577955, 0.0176695427, 0.0126664947, 0.0441560413,
    0.0406813049, 0.0280037920, 0.0626958209, 0.0020007774, 0.0230800947,
    0.0015280236, -0.0244146558, 0.0592824449, -0.0049258876, 0.0580417131]


class TestWideSupportCertificates:
    def test_hull_projection(self):
        sol = hull_projection(SupportSet(points=_WIDE, sigma=np.eye(20)), tol=1e-12)
        assert sol.gap <= 1e-12
        assert sol.iterations <= 40   # 24 measured
        np.testing.assert_allclose(sol.point, _WIDE_FW_POINT, atol=1e-6)

    def test_enclosing_ball(self):
        _, gap, iterations = oracle._simplex_qp(
            _WIDE, np.eye(20), -np.einsum("ij,ij->i", _WIDE, _WIDE), 1e-12,
            oracle.DEFAULT_MAX_ITER)
        assert gap <= 1e-12
        assert iterations <= 30       # 15 measured

    def test_zero_in_hull_without_the_lp(self):
        # the zero-in-hull instance on which a phase-1 feasibility LP hits
        # its pivot cap: the hull QP alone reaches the origin, and
        # hull_projection returns the exact zero point
        points = rng_from_seed(1).standard_normal((20_000, 50))
        points[:, 0] += 3.0
        w, gap, _ = oracle._simplex_qp(points, np.eye(50), np.zeros(20_000),
                                       oracle.DEFAULT_GAP_TOL, oracle.DEFAULT_MAX_ITER)
        assert gap <= 1e-9
        assert float(np.sum((points.T @ w) ** 2)) <= 1e-20
        sol = hull_projection(SupportSet(points=points, sigma=np.eye(50)))
        np.testing.assert_array_equal(sol.point, np.zeros(50))
        np.testing.assert_array_equal(sol.weights, w)
        assert sol.gap == gap
