import numpy as np
import pytest

from maximin import (
    Dataset,
    PenaltyConfig,
    SupportSet,
    TooFewObservations,
    ValidationError,
    consecutive_blocks,
    cv_group_count,
    fit_reweighted,
    gen_jump_process,
    lambda_max,
    select_penalty,
)

L2FREE = PenaltyConfig(q="l2", mode="penalized", lam=0.0)


def homogeneous(rng, n=800, p=3, noise=0.5):
    X = rng.standard_normal((n, p))
    b = np.array([1.0, 0.5, -0.3])[:p]
    return Dataset(X=X, Y=X @ b + noise * rng.standard_normal(n))


class TestCvGroupCount:
    def test_singleton_candidate(self):
        rng = np.random.default_rng(0)
        ds = homogeneous(rng)
        res = cv_group_count(ds, [3], splits=4, g_test=3, config=L2FREE,
                             seed=0, min_block=50)
        assert res.chosen == 3

    def test_membership_contract(self):
        rng = np.random.default_rng(1)
        ds = homogeneous(rng)
        for seed in range(5):
            res = cv_group_count(ds, [2, 6, 9], splits=4, g_test=3,
                                 config=L2FREE, seed=seed, min_block=50)
            assert res.chosen in (2, 6, 9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        ds = homogeneous(rng)
        a = cv_group_count(ds, [2, 4, 8], splits=6, g_test=3, config=L2FREE,
                           seed=11, min_block=50)
        b = cv_group_count(ds, [2, 4, 8], splits=6, g_test=3, config=L2FREE,
                           seed=11, min_block=50)
        assert a.chosen == b.chosen
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_too_few_observations(self):
        rng = np.random.default_rng(3)
        ds = homogeneous(rng, n=120)
        with pytest.raises(TooFewObservations):
            cv_group_count(ds, [2], splits=2, g_test=5, config=L2FREE,
                           seed=0, min_block=200)

    def test_zero_splits_rejected(self):
        rng = np.random.default_rng(3)
        ds = homogeneous(rng)
        with pytest.raises(ValidationError, match="splits"):
            cv_group_count(ds, [2], splits=0, g_test=3, config=L2FREE,
                           seed=0, min_block=50)

    def test_homogeneous_curve_flat_within_noise(self):
        # a single true coefficient: scores differ only by block noise, so
        # every candidate sits within a few standard errors of the best
        rng = np.random.default_rng(4)
        flat = 0
        reps = 50
        for r in range(reps):
            ds = homogeneous(rng)
            res = cv_group_count(ds, [2, 4, 8], splits=10, g_test=4,
                                 config=L2FREE, seed=r, min_block=50)
            spread = float(res.scores.max() - res.scores.min())
            if spread <= 4.0 * float(res.std_errors.max()):
                flat += 1
            # the tie-break rule keeps the chosen score near the best
            k = res.candidates.index(res.chosen)
            best = int(np.argmax(res.scores))
            assert res.scores[k] >= res.scores[best] - res.std_errors[best] - 1e-12
        assert flat / reps >= 0.9

    def test_near_ties_break_toward_smallest_g(self):
        # flat homogeneous curves: the cheaper (smaller) candidate wins even
        # when listed out of order
        rng = np.random.default_rng(10)
        small_chosen = 0
        for r in range(10):
            ds = homogeneous(rng)
            res = cv_group_count(ds, [8, 2, 4], splits=10, g_test=4,
                                 config=L2FREE, seed=r, min_block=50)
            small_chosen += (res.chosen == 2)
        assert small_chosen >= 8

    def test_time_ordered_blocks_used(self):
        rng = np.random.default_rng(5)
        ds = homogeneous(rng)
        ordered = Dataset(X=ds.X, Y=ds.Y, time_ordered=True)
        res = cv_group_count(ordered, [2, 4], splits=5, g_test=3,
                             config=L2FREE, seed=0, min_block=50)
        assert res.chosen in (2, 4)

    def test_jump_process_block_length_heuristic(self):
        # chosen block length should track the mean regime length 1/delta
        support = SupportSet(points=[[1.0, 1.2], [1.0, -1.2]], sigma=np.eye(2))
        delta, n = 0.02, 4000
        good = 0
        reps = 20
        for r in range(reps):
            out = gen_jump_process(n, 2, support, delta=delta, sigma_noise=0.3,
                                   seed=1000 + r)
            res = cv_group_count(out.dataset, [2, 5, 10, 25, 50, 125],
                                 splits=12, g_test=5, config=L2FREE,
                                 seed=r, min_block=50)
            block_len = n / res.chosen
            if 0.25 / delta <= block_len <= 4.0 / delta:
                good += 1
        assert good / reps >= 0.70


class TestSelectPenalty:
    def _grouped_data(self, rng, n_g=200):
        X = rng.standard_normal((2 * n_g, 3))
        b1 = np.array([1.0, 0.6, 0.0])
        b2 = np.array([1.0, -0.6, 0.0])
        Y = np.concatenate([X[:n_g] @ b1, X[n_g:] @ b2])
        return Dataset(X=X, Y=Y), consecutive_blocks(2 * n_g, 2)

    def test_grid_of_lambda_max_returns_it_with_zero_fit(self):
        rng = np.random.default_rng(6)
        ds, spec = self._grouped_data(rng)
        lam_top = lambda_max(ds, spec, "l1")
        chosen = select_penalty(ds, spec, [lam_top], seed=0)
        assert chosen == lam_top
        fit = fit_reweighted(ds, spec, PenaltyConfig(q="l1", mode="penalized",
                                                     lam=chosen))
        assert np.abs(fit.beta).max() < 1e-12  # zero up to one ulp of the threshold

    def test_noiseless_prefers_small_penalty(self):
        rng = np.random.default_rng(7)
        ds, spec = self._grouped_data(rng)
        lam_top = lambda_max(ds, spec, "l1")
        grid = [0.0, 0.01 * lam_top, 0.5 * lam_top, lam_top]
        chosen = select_penalty(ds, spec, grid, seed=1)
        assert chosen <= 0.01 * lam_top

    def test_single_element_grid(self):
        rng = np.random.default_rng(8)
        ds, spec = self._grouped_data(rng, n_g=80)
        assert select_penalty(ds, spec, [0.123], seed=0) == 0.123

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        ds, spec = self._grouped_data(rng, n_g=120)
        grid = [0.0, 0.1, 0.3]
        assert select_penalty(ds, spec, grid, seed=5) == \
            select_penalty(ds, spec, grid, seed=5)
