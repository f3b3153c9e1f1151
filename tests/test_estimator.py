import numpy as np
import pytest
from scipy.optimize import linprog

from maximin import (
    AllGroupsNonpositive,
    Dataset,
    GroupSpec,
    Infeasible,
    PenaltyConfig,
    SolverError,
    SupportSet,
    ValidationError,
    consecutive_blocks,
    emp_explained_variance,
    fit_maximal_penalty,
    fit_reweighted,
    fit_with_config,
    lambda_max,
    maximin_effect,
    rescale,
    update_weights,
)
from maximin import estimator

L1CFG = PenaltyConfig(q="l1", mode="maximal")


def exact_gram_design(rng, n, p):
    """n x p design whose empirical Gram is exactly the identity."""
    U = np.linalg.qr(rng.standard_normal((n, p)))[0]
    return np.sqrt(n) * U


def two_group_data(rng, b1, b2, n_g, noise=0.0, exact=False):
    p = len(b1)
    if exact:
        X1, X2 = exact_gram_design(rng, n_g, p), exact_gram_design(rng, n_g, p)
    else:
        X1, X2 = rng.standard_normal((n_g, p)), rng.standard_normal((n_g, p))
    X = np.vstack([X1, X2])
    Y = np.concatenate([X1 @ np.asarray(b1), X2 @ np.asarray(b2)])
    if noise:
        Y = Y + noise * rng.standard_normal(2 * n_g)
    spec = GroupSpec(groups=(np.arange(n_g), np.arange(n_g, 2 * n_g)))
    return Dataset(X=X, Y=Y), spec


class TestUpdateWeights:
    def test_equal_variances_give_uniform_weights(self):
        for zeta in (0.01, 0.3, 0.9):
            ws = update_weights([1.0, 1.0], zeta, 1e-6)
            np.testing.assert_allclose(ws.w, [0.5, 0.5])

    def test_power_formula(self):
        ws = update_weights([1.0, 4.0], 0.01, 1e-6)
        expected_ratio = 1.0 / 4.0 ** (0.01 - 1.0)   # = 4^0.99
        assert ws.w[0] / ws.w[1] == pytest.approx(expected_ratio)
        assert ws.w[1] / ws.w[0] == pytest.approx(0.25356, abs=1e-4)

    def test_clamped_group_dominates(self):
        ws = update_weights([-0.5, 1.0], 0.01, 1e-6)
        assert ws.w[0] / ws.w[1] == pytest.approx((1e-6) ** (-0.99), rel=1e-9)

    def test_normalized_over_observations(self):
        ws = update_weights([0.5, 2.0, 1.0], 0.2, 1e-6, group_sizes=[3, 5, 2])
        assert ws.w.shape == (10,)
        assert ws.w.sum() == pytest.approx(1.0)
        # constant within groups
        assert len(set(np.round(ws.w[:3], 15))) == 1
        assert len(set(np.round(ws.w[3:8], 15))) == 1

    def test_domain(self):
        with pytest.raises(ValidationError):
            update_weights([1.0], 1.5, 1e-6)
        with pytest.raises(ValidationError):
            update_weights([1.0], 0.5, 0.0)


class TestSingleGroup:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        for q in ("l1", "l2"):
            X = rng.standard_normal((300, 6))
            b = rng.standard_normal(6)
            Y = X @ b + 0.2 * rng.standard_normal(300)
            ds = Dataset(X=X, Y=Y)
            fit = fit_reweighted(ds, consecutive_blocks(300, 1),
                                 PenaltyConfig(q=q, mode="penalized", lam=0.0))
            ols = np.linalg.solve(X.T @ X, X.T @ Y)
            np.testing.assert_allclose(fit.beta, ols, atol=1e-7)

    def test_noiseless_interpolation(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((120, 4))
        b = rng.standard_normal(4)
        ds = Dataset(X=X, Y=X @ b)
        fit = fit_reweighted(ds, consecutive_blocks(120, 1),
                             PenaltyConfig(q="l2", mode="penalized", lam=0.0))
        assert np.abs(fit.beta - b).max() < 1e-8
        assert fit.converged


class TestPenalizedSolvers:
    def test_l1_against_scipy_qp_free_solution(self):
        # with lam=0 the weighted lasso reduces to the linear solve
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = int(rng.integers(2, 6))
            X = rng.standard_normal((200, p))
            Y = rng.standard_normal(200)
            ds = Dataset(X=X, Y=Y)
            fit = fit_reweighted(ds, consecutive_blocks(200, 1),
                                 PenaltyConfig(q="l1", mode="penalized", lam=0.0,
                                               tol=1e-10))
            ols = np.linalg.solve(X.T @ X, X.T @ Y)
            np.testing.assert_allclose(fit.beta, ols, atol=1e-6)

    def test_l1_soft_threshold_on_orthogonal_design(self):
        # exactly orthogonal columns: lasso = soft-thresholded least squares
        rng = np.random.default_rng(3)
        n, p = 64, 4
        X = exact_gram_design(rng, n, p)
        b = np.array([1.5, -0.7, 0.2, 0.0])
        Y = X @ b
        ds = Dataset(X=X, Y=Y)
        lam = 0.6
        fit = fit_reweighted(ds, consecutive_blocks(n, 1),
                             PenaltyConfig(q="l1", mode="penalized", lam=lam,
                                           tol=1e-12))
        expected = np.sign(b) * np.maximum(np.abs(b) - lam / 2.0, 0.0)
        np.testing.assert_allclose(fit.beta, expected, atol=1e-8)

    def test_l2_norm_penalty_first_order_condition(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = int(rng.integers(2, 6))
            X = rng.standard_normal((150, p))
            Y = rng.standard_normal(150) + X @ rng.standard_normal(p)
            ds = Dataset(X=X, Y=Y)
            lam = 0.4
            fit = fit_reweighted(ds, consecutive_blocks(150, 1),
                                 PenaltyConfig(q="l2", mode="penalized", lam=lam))
            beta = fit.beta
            if np.linalg.norm(beta) == 0.0:
                continue
            A = X.T @ X / 150
            d = X.T @ Y / 150
            grad = 2.0 * A @ beta - 2.0 * d + lam * beta / np.linalg.norm(beta)
            assert np.abs(grad).max() < 1e-8

    def test_fit_vanishes_at_lambda_max_both_norms(self):
        rng = np.random.default_rng(5)
        for q in ("l1", "l2"):
            for _ in range(20):
                p = int(rng.integers(2, 5))
                G = int(rng.integers(1, 4))
                n = 60 * G
                X = rng.standard_normal((n, p))
                Y = X @ rng.standard_normal(p) + 0.3 * rng.standard_normal(n)
                ds = Dataset(X=X, Y=Y)
                spec = consecutive_blocks(n, G)
                lam = lambda_max(ds, spec, q)
                fit = fit_reweighted(ds, spec,
                                     PenaltyConfig(q=q, mode="penalized", lam=lam))
                assert np.abs(fit.beta).max() < 1e-12
                # just below the threshold the fit is nonzero
                fit2 = fit_reweighted(ds, spec,
                                      PenaltyConfig(q=q, mode="penalized",
                                                    lam=0.95 * lam, tol=1e-10))
                assert np.abs(fit2.beta).max() > 0.0


class TestReweightedMultiGroup:
    def test_constrained_norm_within_one_percent(self):
        rng = np.random.default_rng(6)
        for q in ("l1", "l2"):
            ds, spec = two_group_data(rng, [1.0, 0.8, 0.0], [1.0, -0.8, 0.1],
                                      300, noise=0.1)
            full = fit_reweighted(ds, spec,
                                  PenaltyConfig(q=q, mode="penalized", lam=0.0))
            full_norm = np.abs(full.beta).sum() if q == "l1" else \
                np.linalg.norm(full.beta)
            kappa = 0.5 * full_norm       # forces the constraint active
            fit = fit_reweighted(ds, spec,
                                 PenaltyConfig(q=q, mode="constrained", kappa=kappa))
            norm = np.abs(fit.beta).sum() if q == "l1" else np.linalg.norm(fit.beta)
            assert abs(norm - kappa) <= 0.01 * kappa

    def test_constraint_slack_returns_unpenalized(self):
        rng = np.random.default_rng(7)
        ds, spec = two_group_data(rng, [1.0, 0.4], [1.0, -0.4], 200, noise=0.05)
        free = fit_reweighted(ds, spec, PenaltyConfig(q="l1", mode="penalized", lam=0.0))
        fit = fit_reweighted(ds, spec, PenaltyConfig(q="l1", mode="constrained",
                                                     kappa=100.0))
        np.testing.assert_allclose(fit.beta, free.beta, atol=1e-12)

    def test_group_v_matches_emp_explained_variance(self):
        rng = np.random.default_rng(8)
        ds, spec = two_group_data(rng, [1.0, 0.5], [1.0, -0.5], 150, noise=0.1)
        fit = fit_reweighted(ds, spec, PenaltyConfig(q="l2", mode="penalized", lam=0.0))
        for g, idx in enumerate(spec.groups):
            assert fit.group_V[g] == pytest.approx(
                emp_explained_variance(ds, idx, fit.beta), abs=1e-12)

    def test_monotone_outer_objective(self):
        # shared strong signal keeps every group variance positive; the
        # power-mean objective must then climb monotonically
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = int(rng.integers(2, 5))
            b0 = rng.standard_normal(p)
            b0[0] = 2.0
            ds, spec = two_group_data(rng, b0 + 0.2 * rng.standard_normal(p),
                                      b0 + 0.2 * rng.standard_normal(p),
                                      150, noise=0.05)
            fit = fit_reweighted(ds, spec,
                                 PenaltyConfig(q="l2", mode="penalized", lam=0.0))
            path = np.array(fit.objective_path)
            finite = path[np.isfinite(path)]
            assert len(finite) >= 1
            assert np.all(np.diff(finite) >= -1e-9 * (1.0 + np.abs(finite[:-1])))

    def test_all_groups_nonpositive(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((40, 3))
        ds = Dataset(X=X, Y=np.zeros(40))
        with pytest.raises(AllGroupsNonpositive):
            fit_reweighted(ds, consecutive_blocks(40, 2),
                           PenaltyConfig(q="l2", mode="penalized", lam=0.0))

    def test_penalized_zero_fit_returns_quietly(self):
        # at the vanishing penalty level the zero fit is expected, not an error
        rng = np.random.default_rng(11)
        ds, spec = two_group_data(rng, [1.0, 0.3], [1.0, -0.3], 100, noise=0.1)
        lam = lambda_max(ds, spec, "l1")
        fit = fit_reweighted(ds, spec, PenaltyConfig(q="l1", mode="penalized", lam=lam))
        assert np.all(fit.beta == 0.0)

    def test_non_convergence_returns_best_iterate(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((400, 2))
        Y = np.concatenate([X[:200] @ [1.0, 2.5], X[200:] @ [1.0, -2.5]])
        ds = Dataset(X=X, Y=Y)
        spec = consecutive_blocks(400, 2)
        short = fit_reweighted(ds, spec,
                               PenaltyConfig(q="l2", mode="penalized", lam=0.0,
                                             max_iter=1, tol=1e-12))
        assert not short.converged and short.iterations == 1
        assert np.all(np.isfinite(short.beta))
        # the converged fit improves the worst group over the one-step fit
        full = fit_reweighted(ds, spec,
                              PenaltyConfig(q="l2", mode="penalized", lam=0.0,
                                            max_iter=100))
        assert full.group_V.min() > short.group_V.min()

    def test_maximal_mode_dispatch(self):
        rng = np.random.default_rng(12)
        ds, spec = two_group_data(rng, [1.0, 0.3], [1.0, -0.3], 100)
        with pytest.raises(ValidationError):
            fit_reweighted(ds, spec, PenaltyConfig(q="l1", mode="maximal"))
        fit = fit_with_config(ds, spec, PenaltyConfig(q="l1", mode="maximal"))
        assert fit.scale > 0.0
        assert fit.group_V.shape == (2,)
        # the scale is the public rescale of the direction, to the last bit
        assert fit.scale == rescale(fit.beta, ds, spec)

    def test_maximal_mode_validates_once(self, monkeypatch):
        calls = []
        real = estimator.validate
        monkeypatch.setattr(estimator, "validate",
                            lambda *a: calls.append(1) or real(*a))
        rng = np.random.default_rng(13)
        ds, spec = two_group_data(rng, [1.0, 0.3], [1.0, -0.3], 100)
        fit_with_config(ds, spec, PenaltyConfig(q="l1", mode="maximal"))
        assert len(calls) == 1


class TestBasicInequality:
    def test_exact_gram_symmetric_instances(self):
        # empirical Grams equal the population Gram exactly and the two
        # groups mirror each other, so the constrained fit must dominate
        # every feasible candidate up to solver precision
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = int(rng.integers(2, 5))
            a, u = 0.7 + rng.random(), 0.5 + rng.random()
            b1 = np.zeros(p); b1[0] = a; b1[1] = u
            b2 = np.zeros(p); b2[0] = a; b2[1] = -u
            ds, spec = two_group_data(rng, b1, b2, 64, exact=True)
            kappa = float(np.abs(b1).sum())
            fit = fit_reweighted(ds, spec,
                                 PenaltyConfig(q="l1", mode="constrained",
                                               kappa=kappa, tol=1e-10,
                                               max_iter=200))
            base = min(emp_explained_variance(ds, g, fit.beta)
                       for g in spec.groups)
            bmm = maximin_effect(SupportSet(points=[b1, b2], sigma=np.eye(p)))
            candidates = [bmm] + [rng.standard_normal(p) * rng.random()
                                  for _ in range(40)]
            for xi in candidates:
                norm1 = np.abs(xi).sum()
                if norm1 > kappa:
                    xi = xi * (kappa / norm1)
                v = min(emp_explained_variance(ds, g, xi) for g in spec.groups)
                assert v <= base + 1e-6

    def test_general_instances_within_soft_weighting_bias(self):
        # asymmetric groups expose the power-weighting reading of the outer
        # loop: the fit maximizes a soft minimum, so a bounded slack against
        # the exact worst-case optimum is expected and allowed here
        rng = np.random.default_rng(14)
        for _ in range(25):
            p = int(rng.integers(2, 5))
            G = int(rng.integers(2, 4))
            n_g = 300
            b0 = rng.standard_normal(p)
            bs = [b0 + 0.3 * rng.standard_normal(p) for _ in range(G)]
            X = rng.standard_normal((G * n_g, p))
            Y = np.concatenate([X[g * n_g:(g + 1) * n_g] @ bs[g] for g in range(G)])
            Y = Y + 0.05 * rng.standard_normal(G * n_g)
            ds = Dataset(X=X, Y=Y)
            spec = consecutive_blocks(G * n_g, G)
            kappa = max(float(np.abs(b).sum()) for b in bs)
            fit = fit_reweighted(ds, spec,
                                 PenaltyConfig(q="l1", mode="constrained",
                                               kappa=kappa))
            base = min(emp_explained_variance(ds, g, fit.beta)
                       for g in spec.groups)
            bmm = maximin_effect(SupportSet(points=np.vstack(bs), sigma=np.eye(p)))
            candidates = [bmm] + [rng.standard_normal(p) * rng.random()
                                  for _ in range(40)]
            scale = max(1.0, abs(base))
            for xi in candidates:
                norm1 = np.abs(xi).sum()
                if norm1 > kappa:
                    xi = xi * (kappa / norm1)
                v = min(emp_explained_variance(ds, g, xi) for g in spec.groups)
                assert v <= base + 0.25 * scale


class TestMaximalPenalty:
    def test_single_constraint(self):
        np.testing.assert_allclose(fit_maximal_penalty([[2.0, 0.0]], L1CFG),
                                   [0.5, 0.0], atol=1e-12)

    def test_two_orthogonal_constraints(self):
        np.testing.assert_allclose(
            fit_maximal_penalty([[1.0, 0.0], [0.0, 1.0]], L1CFG),
            [1.0, 1.0], atol=1e-12)

    def test_opposed_constraints_infeasible(self):
        with pytest.raises(Infeasible):
            fit_maximal_penalty([[1.0], [-1.0]], L1CFG)

    def test_l2_not_supported(self):
        with pytest.raises(ValidationError):
            fit_maximal_penalty([[1.0, 0.0]], PenaltyConfig(q="l2", mode="maximal"))

    def test_against_scipy_lp(self):
        rng = np.random.default_rng(15)
        solved = 0
        for _ in range(60):
            G = int(rng.integers(1, 5))
            p = int(rng.integers(2, 7))
            C = rng.standard_normal((G, p))
            C[:, 0] = np.abs(C[:, 0]) + 0.3  # guarantee feasibility
            c_obj = np.ones(2 * p)
            A_ub = np.hstack([-C, C])
            ref = linprog(c_obj, A_ub=A_ub, b_ub=-np.ones(G),
                          bounds=(0, None), method="highs")
            assert ref.status == 0
            beta = fit_maximal_penalty(C, L1CFG)
            assert np.abs(beta).sum() == pytest.approx(ref.fun, abs=1e-8)
            assert np.all(C @ beta >= 1.0 - 1e-9)
            solved += 1
        assert solved == 60

    def test_direction_invariant_under_common_rescaling(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            G, p = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            C = rng.standard_normal((G, p))
            C[:, 0] = np.abs(C[:, 0]) + 0.5
            base = fit_maximal_penalty(C, L1CFG)
            scaled = fit_maximal_penalty(10.0 * C, L1CFG)
            np.testing.assert_allclose(scaled * 10.0, base, atol=1e-9)

    def test_never_touches_design(self):
        # the operation accepts bare cross-products: a high-dimensional
        # direction from two vectors, without any n x p matrix
        p = 30_000
        c1 = np.zeros(p); c1[0] = 2.0
        c2 = np.zeros(p); c2[0] = 1.0; c2[1] = 1.0
        beta = fit_maximal_penalty([c1, c2], L1CFG)
        # beta_1 >= 0.5 and beta_1 + beta_2 >= 1 meet at total norm 1
        assert np.abs(beta).sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.array([c1, c2]) @ beta >= 1.0 - 1e-9)


class TestRescale:
    def _engineer(self, a_list, q_list):
        """Two-observation groups with exact alignment a_g and curvature q_g
        for the direction (1, 0)."""
        rows, ys, groups = [], [], []
        start = 0
        for a, q in zip(a_list, q_list):
            r = np.sqrt(q)
            rows += [[r, 0.0], [-r, 0.0]]
            ys += [a / r, -a / r]
            groups.append(np.array([start, start + 1]))
            start += 2
        ds = Dataset(X=np.array(rows), Y=np.array(ys))
        return ds, GroupSpec(groups=tuple(groups))

    def test_unit_vertex(self):
        ds, spec = self._engineer([1.0], [1.0])
        assert rescale([1.0, 0.0], ds, spec) == pytest.approx(1.0, abs=1e-9)

    def test_tighter_parabola_wins(self):
        ds, spec = self._engineer([1.0, 1.0], [1.0, 2.0])
        s = rescale([1.0, 0.0], ds, spec)
        assert s == pytest.approx(0.5, abs=1e-9)
        # objective value at the optimum
        assert 2 * s - 2 * s * s == pytest.approx(0.5, abs=1e-8)

    def test_nonpositive_alignment_gives_zero(self):
        ds, spec = self._engineer([-0.5, 1.0], [1.0, 1.0])
        assert rescale([1.0, 0.0], ds, spec) == 0.0

    def test_zero_direction_rejected(self):
        ds, spec = self._engineer([1.0], [1.0])
        with pytest.raises(ValidationError):
            rescale([0.0, 0.0], ds, spec)


def _envelope_objective(s, a, q):
    return s * float((2.0 * a - s * q).min())


def _envelope_oracle(a, q):
    """Best of 0, every vertex a_g / q_g and every pairwise crossing of the
    lines 2 a_g - s q_g."""
    cands = [0.0] + [a[g] / q[g] for g in range(len(a)) if q[g] > 0.0]
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if q[i] != q[j]:
                s = 2.0 * (a[i] - a[j]) / (q[i] - q[j])
                if s >= 0.0:
                    cands.append(s)
    return max(cands, key=lambda s: _envelope_objective(s, a, q))


class TestExactRescale:
    """The envelope walk of ``_rescale`` on one-coordinate statistics, where
    a_g and q_g are the cross-products and Grams themselves."""

    def _walk(self, a, q):
        return estimator._rescale(np.ones(1), np.asarray(q, float)[:, None, None],
                                  np.asarray(a, float)[:, None])

    def test_kink_beats_clipped_vertex(self):
        # the steep group's vertex 0.03 lies left of where it takes over
        assert self._walk([1.0, 3.0], [0.0, 100.0]) == pytest.approx(0.04, rel=1e-15)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1406)
        for _ in range(10_000):
            G = int(rng.integers(1, 7))
            a = rng.uniform(0.05, 2.0, G)
            q = rng.exponential(1.0, G)
            q[rng.random(G) < 0.3] = 0.0
            if not np.any(q > 0.0):
                with pytest.raises(SolverError):
                    self._walk(a, q)
                continue
            s = self._walk(a, q)
            best = _envelope_oracle(a, q)
            assert s == pytest.approx(best, rel=1e-9, abs=1e-12)
            assert _envelope_objective(s, a, q) >= \
                _envelope_objective(best, a, q) * (1.0 - 1e-12)

    def test_nonpositive_alignment_gives_zero(self):
        assert self._walk([1.0, 0.0, 2.0], [1.0, 0.0, 3.0]) == 0.0

    def test_ties_at_the_start(self):
        # equal alignments: the steepest line is the envelope from s = 0
        assert self._walk([1.0, 1.0, 1.0], [0.0, 2.0, 1.0]) == pytest.approx(0.5)


def _tangent_merit(s, v0, slope, curv, sizes, zeta, floor):
    """sum_g n_g h(V_g(s)), h = V^zeta continued below floor by its tangent."""
    s = np.asarray(s, dtype=float)[..., None]
    v = v0 + s * slope - s * s * curv
    h = np.where(v >= floor, np.power(np.maximum(v, floor), zeta),
                 floor ** zeta + zeta * floor ** (zeta - 1.0) * (v - floor))
    return h @ sizes


class TestLineSearchStep:
    def test_against_dense_grid(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 20_001)
        ends = {0.0: 0, 1.0: 0}
        for _ in range(300):
            G = int(rng.integers(1, 6))
            v0 = rng.uniform(-0.5, 1.0, G)
            slope = rng.normal(0.0, 1.0, G)
            curv = rng.exponential(0.5, G)
            sizes = rng.integers(1, 50, G).astype(float)
            zeta = float(rng.uniform(0.05, 0.95))
            floor = 1e-6 * max(1.0, float(v0.max()))
            args = (v0, slope, curv, sizes, zeta, floor)
            s = estimator._line_search_step(*args)
            assert 0.0 <= s <= 1.0
            if s in ends:
                ends[s] += 1
            ref = float(_tangent_merit(grid, *args).max())
            assert _tangent_merit(s, *args) >= ref - 1e-12 * (1.0 + abs(ref))
        # both clipped ends occur, besides interior steps
        assert ends[0.0] > 0 and ends[1.0] > 0

    def test_interior_maximum_of_one_parabola(self):
        # a single unclamped group peaks at its parabola's vertex
        s = estimator._line_search_step(np.array([0.5]), np.array([1.0]),
                                        np.array([2.0]), np.array([10.0]),
                                        0.5, 1e-6)
        assert s == pytest.approx(0.25, rel=1e-12)


class TestDirectionLimit:
    def test_cosine_near_threshold(self):
        # noiseless shared-signal instances: the reweighted direction just
        # below the vanishing penalty matches the maximal-penalty program
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = int(rng.integers(3, 7))
            G = int(rng.integers(1, 4))
            n_g = 120
            b0 = np.zeros(p); b0[0] = 1.0 + 0.5 * rng.random()
            bs = [b0 + 0.15 * rng.standard_normal(p) for _ in range(G)]
            X = rng.standard_normal((G * n_g, p))
            Y = np.concatenate([X[g * n_g:(g + 1) * n_g] @ bs[g] for g in range(G)])
            ds = Dataset(X=X, Y=Y)
            spec = consecutive_blocks(G * n_g, G)
            lam = lambda_max(ds, spec, "l1")
            fit = fit_reweighted(ds, spec,
                                 PenaltyConfig(q="l1", mode="penalized",
                                               lam=0.99 * lam, tol=1e-10,
                                               max_iter=300))
            crosses = [X[g * n_g:(g + 1) * n_g].T @ Y[g * n_g:(g + 1) * n_g] / n_g
                       for g in range(G)]
            direction = fit_maximal_penalty(crosses, L1CFG)
            cos = float(fit.beta @ direction
                        / (np.linalg.norm(fit.beta) * np.linalg.norm(direction)))
            assert cos > 0.99
