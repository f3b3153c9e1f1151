"""Acceptance suite.

One test per acceptance criterion, each ending with a printed PASS line and
its wall time.  Expected values are frozen from independent oracles: simplex
grids (hull problems), scipy linear programming (simplex cross-checks),
closed-form algebra (weights, rescaling, bound formulas) and Monte-Carlo
estimates of the stated coverage probabilities.
"""

import math
import time

import numpy as np
import pytest

from maximin import (
    Dataset,
    GroupSpec,
    PenaltyConfig,
    SupportSet,
    consecutive_blocks,
    cumulative_cross_product,
    cv_group_count,
    emp_explained_variance,
    fit_maximal_penalty,
    fit_reweighted,
    gen_contaminated,
    gen_figure2,
    gen_finite_mixture,
    groups_needed_contamination,
    lambda_max,
    maximin_effect,
    hull_projection,
    pareto_holds,
    pop_explained_variance,
    pop_residual_variance,
    rng_from_seed,
    sample_groups,
)
from maximin import estimator
from gridoracle import grid_hull_min, origin_in_hull, random_support, sigma_norm

L1MAX = PenaltyConfig(q="l1", mode="maximal")
L2FREE = PenaltyConfig(q="l2", mode="penalized", lam=0.0)


def report(name, elapsed, detail=""):
    print(f"PASS {name} ({elapsed:.1f}s) {detail}")


def segment_slopes(cumsum, pieces=5):
    c = np.concatenate([[0.0], cumsum])
    marks = np.linspace(0, len(cumsum), pieces + 1).astype(int)
    return np.diff(c[marks])


def test_criterion_1_hull_projection_matches_grid():
    """200 random supports (p <= 3, d <= 4): the projection agrees with an
    exhaustive simplex-grid search within 1e-2 in the Gram norm."""
    t0 = time.time()
    rng = rng_from_seed(20_250)
    worst = 0.0
    for _ in range(200):
        s = random_support(rng)
        step = 1e-3 if s.d <= 2 else (2e-3 if s.d == 3 else 4e-3)
        g = maximin_effect(s)
        g_grid, _ = grid_hull_min(s.points, s.sigma, step)
        worst = max(worst, sigma_norm(g - g_grid, s.sigma))
    elapsed = time.time() - t0
    assert worst < 1e-2
    assert elapsed < 30.0
    report("criterion 1 (hull projection vs grid oracle)", elapsed,
           f"worst deviation {worst:.2e}")


def test_criterion_2_two_predictor_drift_scenario():
    """n=20000, drifting second coefficient: the worst-group fit keeps only
    the stable component, the pooled fit follows the mean, and the cumulative
    diagnostics show the expected slope patterns."""
    t0 = time.time()
    sim = gen_figure2(20_000, seed=7, sigma_noise=0.1)
    ds = sim.dataset

    fit_mm = fit_reweighted(ds, consecutive_blocks(ds.n, 40), L2FREE)
    err_mm = float(np.linalg.norm(fit_mm.beta - [1.0, 0.0]))
    assert err_mm < 0.1

    fit_pool = fit_reweighted(ds, consecutive_blocks(ds.n, 1), L2FREE)
    err_pool = float(np.linalg.norm(fit_pool.beta - [1.0, 1.0]))
    assert err_pool < 0.1

    pool_slopes = segment_slopes(
        cumulative_cross_product(ds.Y, ds.X @ fit_pool.beta, True).cumsum)
    mm_slopes = segment_slopes(
        cumulative_cross_product(ds.Y, ds.X @ fit_mm.beta, True).cumsum)
    assert pool_slopes[-1] < 0.0
    assert np.all(mm_slopes > 0.0)

    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("criterion 2 (two-predictor drift reproduction)", elapsed,
           f"worst-group err {err_mm:.3f}, pooled err {err_pool:.3f}")


def test_criterion_3_known_groups_rate():
    """Fixed sparse per-group coefficients, bounded design: the gap to the
    optimal worst-case explained variance decays like (n/G)^(-1/2)."""
    t0 = time.time()
    p, G = 10, 3
    b = np.zeros((G, p))
    b[0, :3] = [1.0, 0.8, 0.0]
    b[1, :3] = [1.0, 0.0, 0.8]
    b[2, :3] = [1.0, 0.4, 0.4]
    support = SupportSet(points=b, sigma=np.eye(p))
    gamma = maximin_effect(support)
    v_star = float(gamma @ gamma)
    kappa = float(np.abs(b).sum(axis=1).max())

    sizes = [250, 1000, 4000]
    means = []
    for m in sizes:
        errs = []
        for rep in range(20):
            rr = rng_from_seed(1000 * m + rep)
            X = rr.integers(0, 2, size=(G * m, p)) * 2.0 - 1.0
            Y = np.concatenate([X[g * m:(g + 1) * m] @ b[g] for g in range(G)])
            Y = Y + 0.5 * rr.standard_normal(G * m)
            fit = fit_reweighted(Dataset(X=X, Y=Y), consecutive_blocks(G * m, G),
                                 PenaltyConfig(q="l1", mode="constrained",
                                               kappa=kappa))
            vmin = min(pop_explained_variance(fit.beta, bg, np.eye(p)) for bg in b)
            errs.append(v_star - vmin)
        means.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    elapsed = time.time() - t0
    assert -0.75 <= slope <= -0.30
    assert elapsed < 300.0
    report("criterion 3 (known-groups error rate)", elapsed,
           f"slope {slope:.3f} for mean gaps {np.round(means, 4).tolist()}")


def test_criterion_4_gram_deviation_coverage():
    """Bounded design, n/G=1000, p=10, G=5: the Hoeffding-style deviation
    bound D <= 0.1407 at alpha=0.05 covers at least 95% of 1000 draws."""
    t0 = time.time()
    n_over_g, p, G, alpha, M = 1000, 10, 5, 0.05, 1.0
    bound = math.sqrt(2.0 * M * M / n_over_g * math.log(2.0 * p * p * G / alpha))
    assert bound == pytest.approx(0.1407, abs=5e-4)  # frozen from the formula

    rng = rng_from_seed(44)
    hits = 0
    draws = 1000
    for _ in range(draws):
        d_stat = 0.0
        for _ in range(G):
            X = rng.integers(0, 2, size=(n_over_g, p)) * 2.0 - 1.0
            emp = X.T @ X / n_over_g
            d_stat = max(d_stat, float(np.abs(emp - np.eye(p)).max()))
        if d_stat <= bound:
            hits += 1
    coverage = hits / draws
    elapsed = time.time() - t0
    assert coverage >= 0.95
    assert elapsed < 120.0
    report("criterion 4 (Gram deviation bound coverage)", elapsed,
           f"coverage {coverage:.3f} at bound {bound:.4f}")


def test_criterion_5_contamination_bounds_and_recovery():
    """Calculator value, Monte-Carlo purity coverage, and end-to-end recovery
    under aligned contamination."""
    t0 = time.time()
    eps, m, gamma = 0.1, 10, 0.05
    G = groups_needed_contamination(eps, m, gamma)
    assert G == 7  # frozen: ceil(log 20 / -log(1 - 0.9^10))

    rng = rng_from_seed(2025)
    hits = 0
    trials = 2000
    for _ in range(trials):
        contaminated = (rng.random(400) < eps).astype(int)
        spec = sample_groups(400, G, m, replacement=True,
                             seed=int(rng.integers(0, 2**63 - 1)))
        if pareto_holds(contaminated, spec, {0}):
            hits += 1
    freq = hits / trials
    assert freq >= 0.93

    b_star = np.zeros(5)
    b_star[:3] = [0.8, 0.5, -0.33]
    out = gen_contaminated(20_000, 5, b_star, [2.0 * b_star], epsilon=eps,
                           sigma_noise=0.1, seed=777)
    assert out.aligned
    fit = fit_reweighted(out.dataset, consecutive_blocks(20_000, 40), L2FREE)
    err = float(np.linalg.norm(fit.beta - b_star))
    elapsed = time.time() - t0
    assert err < 0.1
    report("criterion 5 (contamination bound and recovery)", elapsed,
           f"G={G}, purity freq {freq:.3f}, recovery err {err:.3f}")


def test_criterion_6_direction_limit_matches_lp():
    """50 small noiseless instances: the reweighted fit at 99% of the
    vanishing penalty aligns with the maximal-penalty direction."""
    t0 = time.time()
    rng = rng_from_seed(42)
    cosines = []
    for _ in range(50):
        p = int(rng.integers(3, 7))
        G = int(rng.integers(1, 4))
        n_g = 120
        b0 = np.zeros(p)
        b0[0] = 1.0 + 0.5 * rng.random()
        bs = [b0 + 0.2 * rng.standard_normal(p) for _ in range(G)]
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
        direction = fit_maximal_penalty(crosses, L1MAX)
        cos = float(fit.beta @ direction
                    / (np.linalg.norm(fit.beta) * np.linalg.norm(direction)))
        cosines.append(cos)
    elapsed = time.time() - t0
    assert min(cosines) > 0.99
    report("criterion 6 (penalty-limit direction vs linear program)", elapsed,
           f"min cosine {min(cosines):.4f}")


def test_criterion_7_robustness_monotonicity():
    """Adding a support point never increases the Gram norm of the
    worst-case-optimal coefficient (beyond 1e-6)."""
    t0 = time.time()
    rng = rng_from_seed(123)
    worst_increase = -np.inf
    for _ in range(100):
        s = random_support(rng)
        extra = 1.5 * rng.uniform(-1.0, 1.0, size=s.p)
        bigger = SupportSet(points=np.vstack([s.points, extra]), sigma=s.sigma)
        before = sigma_norm(maximin_effect(s), s.sigma)
        after = sigma_norm(maximin_effect(bigger), s.sigma)
        worst_increase = max(worst_increase, after - before)
        assert after <= before + 1e-6
    elapsed = time.time() - t0
    report("criterion 7 (robustness monotonicity)", elapsed,
           f"worst increase {worst_increase:.2e}")


class TestCriterion8Properties:
    """Randomized property batteries, at least 1000 cases each."""

    def test_variance_identities(self):
        t0 = time.time()
        rng = rng_from_seed(81)
        for _ in range(1000):
            p = int(rng.integers(1, 5))
            A = rng.standard_normal((p, p))
            sigma = A @ A.T + 0.2 * np.eye(p)
            beta, b, b2 = rng.standard_normal((3, p)) * 2.0
            r = pop_residual_variance(beta, b, sigma)
            v = pop_explained_variance(beta, b, sigma)
            assert r + v == pytest.approx(float(b @ sigma @ b), abs=1e-8)
            assert r >= -1e-12
            mid = 0.5 * (beta + b2)
            assert pop_explained_variance(mid, b, sigma) >= 0.5 * (
                pop_explained_variance(beta, b, sigma)
                + pop_explained_variance(b2, b, sigma)) - 1e-9
        report("criterion 8a (variance identities, 1000 cases)", time.time() - t0)

    def test_empirical_population_agreement(self):
        t0 = time.time()
        rng = rng_from_seed(82)
        for _ in range(1000):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(p + 1, 24))
            A = rng.standard_normal((p, p))
            sigma = A @ A.T + 0.2 * np.eye(p)
            C = np.linalg.cholesky(sigma)
            U = np.linalg.qr(rng.standard_normal((n, p)))[0]
            X = np.sqrt(n) * U @ C.T
            b = rng.standard_normal(p)
            beta = rng.standard_normal(p)
            ds = Dataset(X=X, Y=X @ b)
            emp = emp_explained_variance(ds, np.arange(n), beta)
            assert emp == pytest.approx(pop_explained_variance(beta, b, sigma),
                                        abs=1e-8)
        report("criterion 8b (empirical matches population on exact Grams, "
               "1000 cases)", time.time() - t0)

    def test_series_affine_invariance(self):
        t0 = time.time()
        rng = rng_from_seed(83)
        for _ in range(1000):
            n = int(rng.integers(3, 30))
            y = rng.standard_normal(n)
            yh = rng.standard_normal(n)
            a = cumulative_cross_product(y, yh, True).cumsum
            scale = float(rng.uniform(0.01, 50.0))
            shift = float(rng.uniform(-20.0, 20.0))
            b = cumulative_cross_product(y, scale * yh + shift, True).cumsum
            np.testing.assert_allclose(a, b, atol=1e-6)
            raw = cumulative_cross_product(y, yh, False).cumsum
            np.testing.assert_allclose(np.diff(raw), (y * yh)[1:], atol=1e-12)
        report("criterion 8c (series affine invariance, 1000 cases)",
               time.time() - t0)

    def test_hull_projection_certificates(self):
        t0 = time.time()
        rng = rng_from_seed(84)
        zero_cases = 0
        for _ in range(1000):
            s = random_support(rng, scale=1.0)
            sol = hull_projection(s)
            g = sol.point
            # weight certificate: a genuine hull point
            assert np.all(sol.weights >= 0.0)
            assert sol.weights.sum() == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(s.points.T @ sol.weights, g, atol=1e-8)
            # first-order optimality over all support points
            inner = s.points @ (s.sigma @ g) - float(g @ s.sigma @ g)
            assert 2.0 * inner.min() >= -1e-8
            # exact zero whenever the origin is inside the hull
            if origin_in_hull(s.points):
                zero_cases += 1
                assert np.all(g == 0.0)
            # definition-level optimality against random candidates
            v_star = min(pop_explained_variance(g, b, s.sigma) for b in s.points)
            beta = rng.standard_normal(s.p)
            v = min(pop_explained_variance(beta, b, s.sigma) for b in s.points)
            assert v <= v_star + 1e-7
        assert zero_cases >= 50
        report("criterion 8d (hull projection certificates, 1000 cases)",
               time.time() - t0, f"{zero_cases} zero-in-hull cases")

    def test_hull_shrinks_monotonically(self):
        t0 = time.time()
        rng = rng_from_seed(85)
        for _ in range(1000):
            s = random_support(rng)
            extra = 1.5 * rng.uniform(-1.0, 1.0, size=s.p)
            bigger = SupportSet(points=np.vstack([s.points, extra]), sigma=s.sigma)
            assert sigma_norm(maximin_effect(bigger), s.sigma) <= \
                sigma_norm(maximin_effect(s), s.sigma) + 1e-6
        report("criterion 8e (hull monotonicity, 1000 cases)", time.time() - t0)

    def test_oracle_grid_equivalence_including_literal_fine_grid(self):
        t0 = time.time()
        rng = rng_from_seed(86)
        # d <= 3 at the stated step
        for _ in range(20):
            s = random_support(rng, d=int(rng.integers(1, 4)))
            g = maximin_effect(s)
            g_grid, _ = grid_hull_min(s.points, s.sigma, 1e-3)
            assert sigma_norm(g - g_grid, s.sigma) < 1e-2
        # one literal d=4 case at step 1e-3 (1.7e8 grid nodes, streamed)
        s = random_support(rng, p=3, d=4)
        g = maximin_effect(s)
        g_grid, _ = grid_hull_min(s.points, s.sigma, 1e-3)
        assert sigma_norm(g - g_grid, s.sigma) < 1e-2
        report("criterion 8f (grid equivalence incl. literal d=4 fine grid)",
               time.time() - t0)

    def test_basic_inequality_suite(self):
        # 25 constrained fits x 41 feasible candidates = 1025 cases; exact
        # Grams and mirrored groups make the inequality hold to solver
        # precision (see the estimator tests for the soft-weighting slack on
        # general instances)
        t0 = time.time()
        rng = rng_from_seed(87)
        cases = 0
        for _ in range(25):
            p = int(rng.integers(2, 5))
            n_g = 64
            a, u = 0.7 + rng.random(), 0.5 + rng.random()
            b1 = np.zeros(p); b1[0] = a; b1[1] = u
            b2 = np.zeros(p); b2[0] = a; b2[1] = -u
            U1 = np.linalg.qr(rng.standard_normal((n_g, p)))[0]
            U2 = np.linalg.qr(rng.standard_normal((n_g, p)))[0]
            X = np.vstack([np.sqrt(n_g) * U1, np.sqrt(n_g) * U2])
            Y = np.concatenate([X[:n_g] @ b1, X[n_g:] @ b2])
            ds = Dataset(X=X, Y=Y)
            spec = GroupSpec(groups=(np.arange(n_g), np.arange(n_g, 2 * n_g)))
            kappa = float(np.abs(b1).sum())
            fit = fit_reweighted(ds, spec,
                                 PenaltyConfig(q="l1", mode="constrained",
                                               kappa=kappa, tol=1e-10,
                                               max_iter=200))
            base = min(emp_explained_variance(ds, gg, fit.beta)
                       for gg in spec.groups)
            bmm = maximin_effect(SupportSet(points=[b1, b2], sigma=np.eye(p)))
            candidates = [bmm] + [rng.standard_normal(p) * rng.random()
                                  for _ in range(40)]
            for xi in candidates:
                norm1 = float(np.abs(xi).sum())
                if norm1 > kappa:
                    xi = xi * (kappa / norm1)
                v = min(emp_explained_variance(ds, gg, xi) for gg in spec.groups)
                assert v <= base + 1e-6
                cases += 1
        assert cases >= 1000
        report("criterion 8g (basic inequality suite)", time.time() - t0,
               f"{cases} cases")

    def test_outer_loop_monotone_objective(self):
        t0 = time.time()
        rng = rng_from_seed(88)
        for _ in range(1000):
            p = int(rng.integers(1, 4))
            n_g = 30
            b0 = rng.standard_normal(p)
            b0[0] = 2.0
            bs = [b0 + 0.2 * rng.standard_normal(p) for _ in range(2)]
            X = rng.standard_normal((2 * n_g, p))
            Y = np.concatenate([X[:n_g] @ bs[0], X[n_g:] @ bs[1]])
            Y = Y + 0.05 * rng.standard_normal(2 * n_g)
            fit = fit_reweighted(Dataset(X=X, Y=Y),
                                 consecutive_blocks(2 * n_g, 2), L2FREE)
            path = np.array(fit.objective_path)
            finite = path[np.isfinite(path)]
            assert finite.size >= 1
            assert np.all(np.diff(finite) >= -1e-9 * (1.0 + np.abs(finite[:-1])))
        report("criterion 8h (monotone outer objective, 1000 cases)",
               time.time() - t0)

    def test_vanishing_threshold_and_direction_scaling(self):
        t0 = time.time()
        rng = rng_from_seed(89)
        for k in range(1000):
            p = int(rng.integers(2, 5))
            G = int(rng.integers(1, 4))
            q = "l1" if k % 2 == 0 else "l2"
            n = 30 * G
            X = rng.standard_normal((n, p))
            Y = X @ rng.standard_normal(p) + 0.2 * rng.standard_normal(n)
            ds = Dataset(X=X, Y=Y)
            spec = consecutive_blocks(n, G)
            lam = lambda_max(ds, spec, q)
            fit = fit_reweighted(ds, spec,
                                 PenaltyConfig(q=q, mode="penalized", lam=lam))
            assert np.abs(fit.beta).max() < 1e-10
            if k % 5 == 0:
                C = rng.standard_normal((G, p))
                C[:, 0] = np.abs(C[:, 0]) + 0.5
                base = fit_maximal_penalty(C, L1MAX)
                scaled = fit_maximal_penalty(3.0 * C, L1MAX)
                np.testing.assert_allclose(3.0 * scaled, base, atol=1e-8)
        report("criterion 8i (vanishing threshold and LP scaling, 1000 cases)",
               time.time() - t0)

    def test_grouping_and_weights_properties(self):
        t0 = time.time()
        rng = rng_from_seed(90)
        for _ in range(1000):
            n = int(rng.integers(1, 200))
            G = int(rng.integers(1, n + 1))
            spec = consecutive_blocks(n, G)
            joined = np.concatenate(spec.groups)
            assert joined.size == n
            np.testing.assert_array_equal(np.sort(joined), np.arange(n))
            sizes = [len(g) for g in spec.groups]
            assert max(sizes) - min(sizes) <= 1

            v = rng.uniform(-1.0, 3.0, size=int(rng.integers(1, 6)))
            zeta = float(rng.uniform(0.01, 0.99))
            w = estimator._group_mass(v, zeta, 1e-6, np.ones(v.size))
            assert w.sum() == pytest.approx(1.0)
            assert np.all(w > 0.0)
            # worst group never gets less weight than a better one
            order = np.argsort(np.maximum(v, 1e-6))
            w_sorted = w[order]
            assert np.all(np.diff(w_sorted) <= 1e-12)
        report("criterion 8j (grouping and weight properties, 1000 cases)",
               time.time() - t0)

    def test_sampling_determinism_and_reconstruction(self):
        t0 = time.time()
        rng = rng_from_seed(91)
        support = SupportSet(points=[[1.0, 0.4], [1.0, -0.4]], sigma=np.eye(2))
        for k in range(1000):
            seed = int(rng.integers(0, 2**62))
            a = sample_groups(40, 4, 10, replacement=bool(k % 2), seed=seed)
            b = sample_groups(40, 4, 10, replacement=bool(k % 2), seed=seed)
            for ga, gb in zip(a.groups, b.groups):
                np.testing.assert_array_equal(ga, gb)
                assert len(set(ga.tolist())) == len(ga)
            if k % 4 == 0:
                out = gen_finite_mixture(25, 2, support, sigma_noise=0.0,
                                         seed=seed)
                resid = out.dataset.Y - np.einsum("ij,ij->i", out.dataset.X,
                                                  out.realized_coeffs)
                assert np.abs(resid).max() == 0.0
        report("criterion 8k (sampling determinism and exact reconstruction, "
               "1000 cases)", time.time() - t0)

    def test_group_count_selection_deterministic(self):
        t0 = time.time()
        rng = rng_from_seed(92)
        for _ in range(1000):
            n = 40
            X = rng.standard_normal((n, 1))
            Y = X[:, 0] + 0.3 * rng.standard_normal(n)
            ds = Dataset(X=X, Y=Y)
            seed = int(rng.integers(0, 2**62))
            a = cv_group_count(ds, [2, 4], splits=1, g_test=2, config=L2FREE,
                               seed=seed, min_block=5)
            b = cv_group_count(ds, [2, 4], splits=1, g_test=2, config=L2FREE,
                               seed=seed, min_block=5)
            assert a.chosen == b.chosen
            np.testing.assert_array_equal(a.scores, b.scores)
        report("criterion 8l (selection determinism, 1000 cases)",
               time.time() - t0)


def test_timing_smoke_million_coordinates():
    """The maximal-penalty direction at p=1e6, G=3 from bare cross-products
    completes within 10 seconds; the design matrix never exists."""
    t0 = time.time()
    p, G = 1_000_000, 3
    rng = rng_from_seed(99)
    C = rng.standard_normal((G, p)) * 0.1
    C[:, 0] = 1.0 + rng.random(G)
    beta = fit_maximal_penalty(C, L1MAX)
    elapsed = time.time() - t0
    assert np.all(C @ beta >= 1.0 - 1e-9)
    assert elapsed < 10.0
    report("timing smoke (p=1e6, G=3 maximal-penalty direction)", elapsed,
           f"storage is {G} cross-product vectors only")
