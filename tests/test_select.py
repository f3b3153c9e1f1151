import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from maximin import estimator, select
from maximin import (
    AllGroupsNonpositive,
    Dataset,
    GroupSpec,
    PenaltyConfig,
    SupportSet,
    TooFewObservations,
    InvalidSize,
    ValidationError,
    consecutive_blocks,
    cv_group_count,
    fit_reweighted,
    gen_jump_process,
    lambda_max,
    select_penalty,
)
from maximin.grouping import _block_edges
from cvoracle import _reference_halves, reference_cv_scores

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

    def test_maximal_mode_needs_the_l1_penalty(self):
        ds = homogeneous(np.random.default_rng(3))
        with pytest.raises(ValidationError, match="l1 penalty"):
            cv_group_count(ds, [2], splits=2, g_test=3,
                           config=PenaltyConfig(q="l2", mode="maximal"),
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


def rows_of(runs):
    """The series positions of runs (start, stop), in order."""
    return np.concatenate([np.arange(a, b) for a, b in runs])


def runs_of(half):
    """A sorted index array as its runs (start, stop) of consecutive rows."""
    breaks = np.flatnonzero(np.diff(half) != 1) + 1
    return [(int(r[0]), int(r[-1]) + 1) for r in np.split(half, breaks)]


def shifted(rng, n=1200, p=3, ordered=False):
    """Two regimes: the second half of the rows gains a coefficient."""
    X = rng.standard_normal((n, p))
    Y = X[:, :3] @ np.array([1.0, 0.5, -0.3])[:p] + 0.5 * rng.standard_normal(n)
    Y[n // 2:] += X[n // 2:, 1]
    return Dataset(X=X, Y=Y, time_ordered=ordered)


class TestCvOnStatistics:
    """cv_group_count builds block statistics once per split; the reference
    in cvoracle.py refits and rescores from the rows."""

    CONFIGS = {"maximal": PenaltyConfig(mode="maximal"), "l2": L2FREE}

    @pytest.mark.parametrize("mode", ["maximal", "l2"])
    @pytest.mark.parametrize("ordered", [True, False])
    def test_scores_match_row_reference(self, ordered, mode):
        config = self.CONFIGS[mode]
        for seed in (3, 8):
            ds = shifted(np.random.default_rng(seed), ordered=ordered)
            res = cv_group_count(ds, [2, 3, 6], splits=6, g_test=3,
                                 config=config, seed=seed, min_block=50)
            chosen, scores, ses = reference_cv_scores(ds, (2, 3, 6), 6, 3,
                                                      config, seed=seed)
            np.testing.assert_allclose(res.scores, scores, rtol=0, atol=1e-10)
            np.testing.assert_allclose(res.std_errors, ses, rtol=0, atol=1e-10)
            assert res.chosen == chosen

    @pytest.mark.parametrize("mode", ["maximal", "l2"])
    @pytest.mark.parametrize("ordered", [True, False])
    def test_unit_equivariant(self, ordered, mode):
        # X 2^a and Y 2^b scale every block statistic by a power of two,
        # exactly, and beta by 2^(b - a), so every score scales by 4^b and
        # the chosen G stays; the maximal LP on C / sigma is exact too
        config = self.CONFIGS[mode]
        ds = shifted(np.random.default_rng(19), ordered=ordered)
        kw = dict(splits=6, g_test=3, config=config, seed=2, min_block=50)
        base = cv_group_count(ds, [2, 3, 6], **kw)
        for a, b in ((-20, 10), (15, -30), (0, 40), (7, 7)):
            scaled = cv_group_count(
                Dataset(X=ds.X * 2.0**a, Y=ds.Y * 2.0**b, time_ordered=ordered),
                [2, 3, 6], **kw)
            assert scaled.chosen == base.chosen
            for got, want in ((scaled.scores, base.scores * 4.0**b),
                              (scaled.std_errors, base.std_errors * 4.0**b)):
                if mode == "maximal":
                    np.testing.assert_array_equal(got, want)
                else:
                    np.testing.assert_allclose(got, want, rtol=0,
                                               atol=1e-12 * np.abs(want).max())

    def test_vanishing_training_fit_scores_as_the_zero_fit(self):
        # two opposite regimes: some training splits have no direction
        # aligned with every block, so their maximal LP is infeasible; such a
        # split scores 0.0, the worst test value of beta = 0, for that G
        support = SupportSet(points=[[1.0], [-1.0]], sigma=np.eye(1))
        ds = gen_jump_process(4000, 1, support, delta=0.01, sigma_noise=1.0,
                              seed=3).dataset
        config = self.CONFIGS["maximal"]
        res = cv_group_count(ds, (2, 5, 10), splits=5, g_test=2,
                             config=config, min_block=50)
        chosen, scores, ses = reference_cv_scores(ds, (2, 5, 10), 5, 2, config)
        np.testing.assert_allclose(res.scores, scores, rtol=0, atol=1e-10)
        np.testing.assert_allclose(res.std_errors, ses, rtol=0, atol=1e-10)
        assert res.chosen == chosen
        assert np.all(np.isfinite(res.scores))
        assert res.scores[1] == 0.0 and res.std_errors[1] == 0.0
        # G = 5 and 10 vanish on every split, G = 2 on three of the five
        np.testing.assert_array_equal(res.vanished, [3, 5, 5])

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_chunks_of_splits_leave_every_score_as_it_is(self, monkeypatch, chunk):
        # every fit of a chunk is the one its split gets alone (the stacked
        # maximal LPs solve as their programs do alone), so how the splits
        # fall into chunks (all seven in one, or one per chunk as a
        # split-by-split fit) moves no score, bit for bit, in any mode
        support = SupportSet(points=[[1.0], [-1.0]], sigma=np.eye(1))
        vanishing = gen_jump_process(4000, 1, support, delta=0.01, sigma_noise=1.0,
                                     seed=3).dataset
        cases = [(shifted(np.random.default_rng(12), ordered=True), 3),
                 (shifted(np.random.default_rng(12), ordered=False), 3),
                 (vanishing, 2)]
        configs = (PenaltyConfig(mode="maximal"), L2FREE, PenaltyConfig(q="l1", lam=0.05))

        def run(size):
            monkeypatch.setattr(select, "_chunk", lambda *a: size)
            return [cv_group_count(ds, [2, 3, 6], g_test=g_test, splits=7, config=config,
                                   seed=1, min_block=50)
                    for config in configs for ds, g_test in cases]

        results = run(7)
        assert 0 < results[2].vanished[0] < 7     # feasible and infeasible in one stack
        for got, want in zip(run(chunk), results):
            np.testing.assert_array_equal(got.scores, want.scores)
            np.testing.assert_array_equal(got.std_errors, want.std_errors)
            np.testing.assert_array_equal(got.vanished, want.vanished)

    @pytest.mark.parametrize("ordered", [True, False])
    def test_threads_give_identical_scores(self, ordered):
        ds = shifted(np.random.default_rng(12), ordered=ordered)
        kw = dict(splits=8, g_test=3, config=PenaltyConfig(mode="maximal"),
                  seed=4, min_block=50)
        one = cv_group_count(ds, [2, 3, 6], n_jobs=1, **kw)
        two = cv_group_count(ds, [2, 3, 6], n_jobs=2, **kw)
        assert one.chosen == two.chosen
        np.testing.assert_array_equal(one.scores, two.scores)
        np.testing.assert_array_equal(one.std_errors, two.std_errors)

    @pytest.mark.parametrize("ordered", [True, False])
    def test_splits_run_on_the_calling_thread(self, monkeypatch, ordered):
        # maximal mode solves each candidate's training LPs as one stack per
        # chunk of splits; the four splits here fit one chunk
        threads = []
        real = estimator._simplex_stack
        monkeypatch.setattr(estimator, "_simplex_stack", lambda *a, **k: threads.append(
            threading.get_ident()) or real(*a, **k))
        ds = shifted(np.random.default_rng(12), ordered=ordered)
        assert select._chunk(ds, 3, [2, 3, 6]) >= 4
        cv_group_count(ds, [2, 3, 6], splits=4, g_test=3,
                       config=PenaltyConfig(mode="maximal"), seed=4, min_block=50,
                       n_jobs=2)
        assert threads == [threading.get_ident()] * 3

    @pytest.mark.parametrize("ordered", [True, False])
    def test_validates_once(self, monkeypatch, ordered):
        calls = []
        for module in (select, estimator):
            real = module.validate
            monkeypatch.setattr(module, "validate",
                                lambda *a, real=real: calls.append(1) or real(*a))
        ds = shifted(np.random.default_rng(13), ordered=ordered)
        cv_group_count(ds, [2, 3], splits=3, g_test=3, config=L2FREE,
                       seed=0, min_block=50)
        assert len(calls) == 1

    def test_ordered_halves_are_two_runs_at_most(self):
        # the ordered statistics read each half as runs of the series; the
        # runs cover the index sets the row reference draws from the same
        # generator state
        rng = np.random.default_rng(14)
        for n in (10, 11, 97, 400):
            for _ in range(20):
                state = rng.bit_generator.state
                train, test = select._ordered_halves(n, rng)
                rng.bit_generator.state = state
                ref_train, ref_test = _reference_halves(n, True, rng)
                assert sum(b - a for a, b in train) == n // 2
                for runs, ref in ((train, ref_train), (test, ref_test)):
                    assert 1 <= len(runs) <= 2
                    assert all(a < b for a, b in runs)
                    np.testing.assert_array_equal(rows_of(runs), ref)
                np.testing.assert_array_equal(
                    np.sort(np.concatenate([rows_of(train), rows_of(test)])),
                    np.arange(n))

    @pytest.mark.parametrize("ordered", [True, False])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_candidate_rejected_before_any_split(
            self, monkeypatch, ordered, bad):
        def no_split(*a):
            raise AssertionError("a split was drawn before the candidates were checked")
        monkeypatch.setattr(select, "_halves", no_split)
        monkeypatch.setattr(select, "_ordered_halves", no_split)
        ds = shifted(np.random.default_rng(16), ordered=ordered)
        with pytest.raises(InvalidSize, match=f"G={bad}"):
            cv_group_count(ds, [2, bad], splits=2, g_test=2, config=L2FREE,
                           min_block=50)

    # name: (n, p, cut, counts); with p = 3 the table's chunk length is 4
    ORDERED_CASES = {
        50: (400, 3, 50, [3, 7]),                   # one run [50, 250)
        300: (400, 3, 300, [3, 7]),                 # [0, 100) + [300, 400)
        "chunk_edges": (400, 3, 100, [2, 25, 50]),  # every edge a multiple of 4
        "tail": (403, 3, 350, [3, 7]),              # ends at n, inside a part chunk
        "wide": (12, 800, 9, [2, 3]),               # sqrt(n p / 64) > n
    }

    @pytest.mark.parametrize("case", list(ORDERED_CASES))
    def test_ordered_stats_equal_group_stats(self, case):
        n, p, cut, counts = self.ORDERED_CASES[case]
        ds = shifted(np.random.default_rng(17), n=n, p=p, ordered=True)
        half = np.sort(np.roll(np.arange(n), -cut)[:n // 2])
        runs = runs_of(half)
        table = select._running_table(ds)
        edges = [_block_edges(n // 2, G) for G in counts]
        if case == "chunk_edges":
            assert table.step == 4 and np.all(half[edges[-1][:-1]] % 4 == 0)
        if case in (300, "tail"):
            assert runs[-1][1] == n and (n % table.step != 0) == (case == "tail")
        if case == "wide":
            assert table.step == n - 1
        for bounds, stats in zip(edges, select._ordered_stats(table, [runs], edges)):
            ref = estimator._group_stats(
                ds, [half[a:b] for a, b in zip(bounds[:-1], bounds[1:])])
            np.testing.assert_allclose(stats.grams[0], ref.grams, rtol=0, atol=1e-12)
            np.testing.assert_allclose(stats.crosses[0], ref.crosses, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(stats.sizes, ref.sizes)

    def test_halves_built_in_one_call(self):
        # every case's cut (one-run, wrapped, tail and chunk-edge halves) on
        # each case's series, built in one call with the union of its counts:
        # every block matches a direct build, and every half's arrays are the
        # ones it gets alone, to the bit
        cuts = [cut for _, _, cut, _ in self.ORDERED_CASES.values()]
        shapes = {}
        for n, p, _, counts in self.ORDERED_CASES.values():
            shapes.setdefault((n, p), set()).update(counts)
        for (n, p), counts in shapes.items():
            ds = shifted(np.random.default_rng(17), n=n, p=p, ordered=True)
            table = select._running_table(ds)
            halves = [np.sort(np.roll(np.arange(n), -cut)[:n // 2]) for cut in cuts]
            runs = [runs_of(half) for half in halves]
            assert {len(r) for r in runs} == {1, 2}
            edges = [_block_edges(n // 2, G) for G in sorted(counts)]
            together = select._ordered_stats(table, runs, edges)
            for r, (half, alone) in enumerate(zip(halves, runs)):
                for bounds, stats, single in zip(
                        edges, together, select._ordered_stats(table, [alone], edges)):
                    np.testing.assert_array_equal(stats.grams[r], single.grams[0])
                    np.testing.assert_array_equal(stats.crosses[r], single.crosses[0])
                    np.testing.assert_array_equal(stats.sizes, single.sizes)
                    ref = estimator._group_stats(
                        ds, [half[a:b] for a, b in zip(bounds[:-1], bounds[1:])])
                    np.testing.assert_allclose(stats.grams[r], ref.grams, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(stats.crosses[r], ref.crosses, rtol=0,
                                               atol=1e-12)

    def test_running_sum_cancellation_stays_small(self):
        # block statistics are differences of sums from the first row, which
        # grow like n * mean^2; against direct sums at n = 2e5 with column
        # means of 100 they stay within 1e-11 of the largest entry
        rng = np.random.default_rng(18)
        n, p = 200_000, 3
        X = 100.0 + rng.standard_normal((n, p))
        ds = Dataset(X=X, Y=X @ np.array([1.0, -0.5, 0.2]) + rng.standard_normal(n),
                     time_ordered=True)
        runs = [(0, 37_123), (n - 62_877, n)]
        half = rows_of(runs)
        edges = [_block_edges(half.shape[0], G) for G in (2, 50, 400)]
        table = select._running_table(ds)
        for bounds, stats in zip(edges, select._ordered_stats(table, [runs], edges)):
            ref = estimator._group_stats(
                ds, [half[a:b] for a, b in zip(bounds[:-1], bounds[1:])])
            scale = np.abs(ref.grams).max()
            assert np.abs(stats.grams[0] - ref.grams).max() <= 1e-11 * scale
            assert np.abs(stats.crosses[0] - ref.crosses).max() <= \
                1e-11 * np.abs(ref.crosses).max()

    def test_ordered_memory_independent_of_n(self):
        # n = 2e4, p = 200: a running sum of x x' at every row would need
        # n p^2 doubles (6.4 GB); kept at every c-th row (c = 250) the table
        # is 0.81 times X.  Every mode holds the statistics of a chunk of
        # splits, 0.12 times X each, up to a quarter of X: two splits here,
        # where all 40 would take 4.8 times X
        rng = np.random.default_rng(15)
        n, p = 20_000, 200
        X = rng.standard_normal((n, p))
        ds = Dataset(X=X, Y=X[:, 0] + rng.standard_normal(n), time_ordered=True)
        for config, splits in ((PenaltyConfig(mode="maximal"), 2),
                               (PenaltyConfig(mode="maximal"), 40), (L2FREE, 8)):
            tracemalloc.start()
            try:
                cv_group_count(ds, [2, 5], splits=splits, g_test=5,
                               config=config, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * ds.X.nbytes


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

    def test_validates_once(self, monkeypatch):
        # one check of the data and groups, not one per penalty level
        calls = []
        for module in (select, estimator):
            real = module.validate
            monkeypatch.setattr(module, "validate",
                                lambda *a, real=real: calls.append(1) or real(*a))
        rng = np.random.default_rng(10)
        ds, spec = self._grouped_data(rng, n_g=100)
        select_penalty(ds, spec, [0.0, 0.05, 0.2], seed=0)
        assert len(calls) == 1

    def test_training_stats_match_a_direct_build(self, monkeypatch):
        # training statistics are the full groups' minus the hold-out's;
        # they agree with statistics built from the training rows themselves
        rng = np.random.default_rng(12)
        n, p = 700, 5
        X = 3.0 + rng.standard_normal((n, p))
        ds = Dataset(X=X, Y=X @ rng.standard_normal(p) + rng.standard_normal(n))
        cuts = np.cumsum([13, 40, 97, 250])
        spec = GroupSpec(groups=tuple(np.split(rng.permutation(n), cuts)))
        seen = {}
        real_build, real_fit = select._group_stats, select._fit_stats

        def build(d, groups):
            seen["hold"] = groups
            return real_build(d, groups)

        def fit(stats, cfg):
            seen["train"] = stats
            return real_fit(stats, cfg)

        monkeypatch.setattr(select, "_group_stats", build)
        monkeypatch.setattr(select, "_fit_stats", fit)
        select_penalty(ds, spec, [0.0, 0.1], seed=3, holdout_fraction=0.3)
        train_groups = [np.setdiff1d(idx, held)
                        for idx, held in zip(spec.groups, seen["hold"])]
        ref = estimator._group_stats(ds, train_groups)
        got = seen["train"]
        np.testing.assert_array_equal(got.sizes, ref.sizes)
        for g in range(spec.n_groups):
            for a, b in ((got.grams[g], ref.grams[g]), (got.crosses[g], ref.crosses[g])):
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    def test_levels_carry_every_config_field(self, monkeypatch):
        # each level's config is the caller's with only the mode and lam set
        base = PenaltyConfig(q="l2", mode="constrained", kappa=0.7,
                             max_iter=7, tol=1e-5)
        seen, real_fit = [], select._fit_stats
        monkeypatch.setattr(select, "_fit_stats",
                            lambda stats, cfg: seen.append(cfg) or real_fit(stats, cfg))
        rng = np.random.default_rng(13)
        ds, spec = self._grouped_data(rng, n_g=100)
        select_penalty(ds, spec, [0.2, 0.0], seed=0, config=base)
        assert seen == [replace(base, mode="penalized", lam=lam) for lam in (0.0, 0.2)]

    def test_unpenalized_dead_fit_still_raises(self):
        rng = np.random.default_rng(11)
        ds = Dataset(X=rng.standard_normal((200, 3)), Y=np.zeros(200))
        with pytest.raises(AllGroupsNonpositive):
            select_penalty(ds, consecutive_blocks(200, 2), [0.0, 0.1], seed=0)
