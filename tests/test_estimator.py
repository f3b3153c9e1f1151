import copy
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    sample_groups,
)
from maximin import estimator, select
from maximin.simulate import gen_figure2
from gridoracle import enumerate_simplex_qp

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
    """The outer loop's weight update, ``estimator._group_mass``."""

    def mass(self, v, zeta, sizes=None):
        sizes = np.ones(len(v)) if sizes is None else np.asarray(sizes, dtype=np.float64)
        return estimator._group_mass(np.array(v), zeta, 1e-6, sizes)

    def test_equal_variances_give_uniform_weights(self):
        for zeta in (0.01, 0.3, 0.9):
            np.testing.assert_allclose(self.mass([1.0, 1.0], zeta), [0.5, 0.5])

    def test_power_formula(self):
        m = self.mass([1.0, 4.0], 0.01)
        expected_ratio = 1.0 / 4.0 ** (0.01 - 1.0)   # = 4^0.99
        assert m[0] / m[1] == pytest.approx(expected_ratio)
        assert m[1] / m[0] == pytest.approx(0.25356, abs=1e-4)

    def test_clamped_group_dominates(self):
        m = self.mass([-0.5, 1.0], 0.01)
        assert m[0] / m[1] == pytest.approx((1e-6) ** (-0.99), rel=1e-9)

    def test_normalized_over_observations(self):
        # each group's mass is n_g v_g^(zeta-1), so an observation's share
        # mass / n_g is v_g^(zeta-1) up to one normalizing factor
        v, sizes = np.array([0.5, 2.0, 1.0]), np.array([3.0, 5.0, 2.0])
        m = self.mass(v, 0.2, sizes)
        assert m.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(m / sizes / v ** (0.2 - 1.0),
                                   m[0] / sizes[0] / v[0] ** (0.2 - 1.0), rtol=1e-12)


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


    def test_l2_root_satisfies_mu_norm_condition(self):
        # b = (A + mu I)^{-1} d with mu * ||b|| = lam / 2; mu is recovered
        # from (A + mu I) b = d.  The rank-deficient A has no signal in its
        # null space, so b lives in its range
        rng = np.random.default_rng(21)
        for rank_deficient in (False, True):
            for _ in range(20):
                p = int(rng.integers(2, 7))
                Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
                evals = rng.uniform(0.5, 2.0, p)
                if rank_deficient:
                    evals[rng.integers(p)] = 0.0
                A = (Q * evals) @ Q.T
                d = Q @ (rng.standard_normal(p) * (evals > 0.0))
                lam = float(rng.uniform(0.2, 1.5)) * np.linalg.norm(d)
                # A in far units, and a level just below the vanishing one
                # 2||d||, where mu is about 2e12 times A's largest eigenvalue
                for scale, level in ((1.0, lam), (2.0**40, lam), (2.0**-40, lam),
                                     (1.0, (2.0 - 1e-12) * np.linalg.norm(d))):
                    As = scale * A
                    b = estimator._solve_weighted_l2(As, d, level)
                    mu = (d - As @ b) @ b / (b @ b)
                    assert mu * np.linalg.norm(b) == pytest.approx(0.5 * level, rel=1e-12)


class TestGroupStats:
    def test_values_match_emp_explained_variance(self):
        rng = np.random.default_rng(22)
        n, p = 300, 4
        X = rng.standard_normal((n, p))
        ds = Dataset(X=X, Y=X @ rng.standard_normal(p) + rng.standard_normal(n))
        for spec in (consecutive_blocks(n, 7),
                     sample_groups(n, 5, 80, replacement=True, seed=3)):
            stats = estimator._group_stats(ds, spec.groups)
            for _ in range(5):
                beta = rng.standard_normal(p)
                ref = [emp_explained_variance(ds, idx, beta) for idx in spec.groups]
                np.testing.assert_allclose(stats.values(beta), ref, rtol=1e-12,
                                           atol=1e-12)


class TestStatsMemo:
    """A GroupSpec keeps the validated statistics of the last Dataset object
    it was called with, so the calls of a penalty path share one build."""

    def _spy(self, monkeypatch):
        counts = {"builds": 0, "validations": 0}
        real_build, real_validate = estimator._group_stats, estimator.validate

        def build(*a, **k):
            counts["builds"] += 1
            return real_build(*a, **k)

        def check(*a):
            counts["validations"] += 1
            return real_validate(*a)

        for module in (estimator, select):
            monkeypatch.setattr(module, "_group_stats", build)
            monkeypatch.setattr(module, "validate", check)
        return counts

    def _data(self, seed=50):
        rng = np.random.default_rng(seed)
        return two_group_data(rng, [1.0, 0.6, 0.0], [1.0, -0.6, 0.1], 150, noise=0.2)

    def test_penalty_path_builds_twice_and_validates_once(self, monkeypatch):
        counts = self._spy(monkeypatch)
        ds, spec = self._data()
        lam_top = lambda_max(ds, spec, "l1")
        lam = select.select_penalty(ds, spec, [0.0, 0.1 * lam_top, lam_top], seed=0)
        fit = fit_reweighted(ds, spec, PenaltyConfig(q="l1", lam=lam))
        fit_reweighted(ds, spec, PenaltyConfig(q="l2", mode="constrained", kappa=1.0))
        rescale(fit.beta, ds, spec)
        # the full groups once, the hold-out groups of select_penalty once
        assert counts == {"builds": 2, "validations": 1}

    def test_equal_but_distinct_spec_or_dataset_rebuilds(self, monkeypatch):
        counts = self._spy(monkeypatch)
        ds, spec = self._data()
        first = estimator._validated_stats(ds, spec)
        assert estimator._validated_stats(ds, spec) is first
        twin_spec = GroupSpec(groups=spec.groups, replacement=spec.replacement)
        twin_data = Dataset(X=ds.X, Y=ds.Y)
        for d, s in ((ds, twin_spec), (twin_data, spec)):
            again = estimator._validated_stats(d, s)
            assert again is not first
            np.testing.assert_array_equal(again.grams, first.grams)
        assert counts == {"builds": 3, "validations": 3}

    def test_failed_validation_raises_every_time_and_stores_nothing(self, monkeypatch):
        counts = self._spy(monkeypatch)
        ds, _ = self._data()
        bad = GroupSpec(groups=(np.arange(10), np.arange(295, 305)))
        for _ in range(3):
            with pytest.raises(ValidationError):
                fit_reweighted(ds, bad, PenaltyConfig(q="l2"))
            assert "_stats_memo" not in bad.__dict__
        assert counts == {"builds": 0, "validations": 3}

    def test_memo_is_bitwise_a_fresh_build_and_read_only(self):
        ds, spec = self._data()
        lambda_max(ds, spec)
        memo = estimator._validated_stats(ds, spec)
        fresh = estimator._group_stats(ds, spec.groups)
        for name in ("grams", "crosses", "sizes"):
            got, ref = getattr(memo, name), getattr(fresh, name)
            assert got.tobytes() == ref.tobytes()
            with pytest.raises(ValueError):
                got[...] = 0.0

    def test_threads_sharing_a_spec_get_their_own_dataset_stats(self):
        # threads alternate two datasets on one spec, so the memo is replaced
        # under them; a concurrent miss may build twice but never mixes data
        ds, spec = self._data()
        datasets = (ds, Dataset(X=2.0 * ds.X, Y=ds.Y))
        refs = [estimator._group_stats(d, spec.groups) for d in datasets]
        wrong = []

        def work(offset):
            for i in range(40):
                k = (i + offset) % 2
                got = estimator._validated_stats(datasets[k], spec)
                if got.grams.tobytes() != refs[k].grams.tobytes():
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_equality_repr_copies_and_pickles_ignore_the_memo(self):
        ds, spec = self._data()
        twins, before = (copy.copy(ds), copy.copy(spec)), (repr(ds), repr(spec))
        fit_reweighted(ds, spec, PenaltyConfig(q="l2"))
        assert "_stats_memo" in spec.__dict__
        assert (ds, spec) == twins
        assert (repr(ds), repr(spec)) == before == tuple(map(repr, twins))
        fields = {"groups", "replacement"}
        assert set(vars(ds)) == {"X", "Y", "time_ordered"}
        assert set(vars(copy.copy(spec))) == set(vars(copy.deepcopy(spec))) == fields
        # the memo holds a weak reference, which a pickle could not hold
        assert set(vars(pickle.loads(pickle.dumps(spec)))) == fields

    def test_memo_lives_with_the_spec_and_not_the_dataset(self):
        ds, spec = self._data()
        stats = weakref.ref(estimator._validated_stats(ds, spec))
        data = weakref.ref(ds)
        del ds
        assert data() is None and stats() is not None
        del spec
        assert stats() is None


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

    @pytest.mark.parametrize("config", [
        PenaltyConfig(q="l1"),
        PenaltyConfig(q="l1", lam=0.1),
        PenaltyConfig(q="l1", mode="constrained", kappa=0.8),   # the ball binds
        PenaltyConfig(q="l2"),
        PenaltyConfig(q="l2", lam=0.1),
        PenaltyConfig(q="l2", mode="constrained", kappa=0.8),
        PenaltyConfig(mode="maximal"),
    ])
    def test_all_zero_predictor_gets_exactly_zero(self, config):
        # a predictor that is zero in every group gets an exact zero, and
        # the other coefficients and the cross-validation scores are those
        # of the data without it
        rng = np.random.default_rng(3)
        ds, spec = two_group_data(rng, [1.0, 0.5, -0.3], [1.0, -0.4, 0.2], 150,
                                  noise=0.3)
        with_zero = Dataset(X=np.insert(ds.X, 1, 0.0, axis=1), Y=ds.Y)
        # X'Y over one more column can round a cross-product differently in
        # the last bit (4.4e-16 here); the six reweighting rounds of the
        # constrained l2 fit carry that to 1.3e-10 of beta, so it gets the
        # 1e-9 that TestUnitScale allows a reweighted fit
        bound = 1e-9 if (config.q, config.mode) == ("l2", "constrained") else 1e-12
        ref = fit_with_config(ds, spec, config).coefficients
        coef = fit_with_config(with_zero, spec, config).coefficients
        assert coef[1] == 0.0
        assert np.abs(np.delete(coef, 1) - ref).max() <= bound * np.abs(ref).max()
        kw = dict(splits=4, g_test=3, config=config, seed=5, min_block=50)
        ref = select.cv_group_count(ds, [2, 3], **kw)
        got = select.cv_group_count(with_zero, [2, 3], **kw)
        scale = np.abs(ref.scores).max()
        assert np.abs(got.scores - ref.scores).max() <= bound * scale
        assert np.abs(got.std_errors - ref.std_errors).max() <= bound * scale
        np.testing.assert_array_equal(got.vanished, ref.vanished)

    @pytest.mark.parametrize("q", ["l1", "l2"])
    def test_every_predictor_zero(self, q):
        # no coefficient explains anything: a fit without penalty raises, and
        # a penalized one is the zero fit, which stops after one round
        rng = np.random.default_rng(4)
        ds = Dataset(X=np.zeros((200, 3)), Y=rng.standard_normal(200))
        spec = consecutive_blocks(200, 2)
        for config in (PenaltyConfig(q=q), PenaltyConfig(q=q, mode="constrained", kappa=0.8)):
            with pytest.raises(AllGroupsNonpositive):
                fit_reweighted(ds, spec, config)
        fit = fit_reweighted(ds, spec, PenaltyConfig(q=q, lam=0.1))
        np.testing.assert_array_equal(fit.beta, np.zeros(3))
        np.testing.assert_array_equal(fit.group_V, np.zeros(2))
        assert fit.iterations == 1 and fit.converged
        assert len(fit.objective_path) == 1 and np.isnan(fit.objective_path[0])
        with pytest.raises(Infeasible):
            fit_with_config(ds, spec, PenaltyConfig(mode="maximal"))

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


def _norm(beta, q):
    return float(np.abs(beta).sum()) if q == "l1" else float(np.linalg.norm(beta))


class TestConstrainedMode:
    """Constrained mode runs one reweighting loop whose weighted steps are
    solved exactly over the ball ||b||_q <= kappa."""

    def _groups(self, rng, p, G, n_g=100):
        # a shared strong signal explains every group, so the loop converges
        # and a bound below the free fit's norm binds
        b0 = rng.standard_normal(p)
        b0[0] = 2.0
        bs = [b0 + 0.4 * rng.standard_normal(p) for _ in range(G)]
        X = rng.standard_normal((G * n_g, p))
        Y = np.concatenate([X[g * n_g:(g + 1) * n_g] @ bs[g] for g in range(G)])
        Y = Y + 0.2 * rng.standard_normal(G * n_g)
        return Dataset(X=X, Y=Y), consecutive_blocks(G * n_g, G)

    def test_binding_fits_meet_the_norm_exactly(self):
        rng = np.random.default_rng(31)
        for q in ("l1", "l2"):
            for _ in range(10):
                ds, spec = self._groups(rng, int(rng.integers(2, 6)),
                                        int(rng.integers(2, 5)))
                free = fit_reweighted(ds, spec, PenaltyConfig(q=q, lam=0.0))
                kappa = float(rng.uniform(0.2, 0.9)) * _norm(free.beta, q)
                fit = fit_reweighted(ds, spec, PenaltyConfig(q=q, mode="constrained",
                                                             kappa=kappa))
                assert abs(_norm(fit.beta, q) - kappa) <= 1e-9 * kappa
                assert fit.converged

    def test_fits_never_leave_the_ball(self):
        # random instances with slack and binding bounds, and a p > n one
        # (40 x 60) whose l1 fit read 1.0037 at kappa = 1 under the former
        # penalty-level bisection
        rng = np.random.default_rng(32)
        cases = [self._groups(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
                 for _ in range(5)]
        wide = np.random.default_rng(2)
        X = wide.standard_normal((40, 60))
        b = np.zeros(60)
        b[:3] = [1.0, 0.6, -0.4]
        Y = X @ b + 0.2 * wide.standard_normal(40)
        cases.append((Dataset(X=X, Y=Y), consecutive_blocks(40, 2)))
        for ds, spec in cases:
            for q in ("l1", "l2"):
                for kappa in (0.1, 0.5, 1.0, 3.0, 100.0):
                    fit = fit_reweighted(ds, spec, PenaltyConfig(
                        q=q, mode="constrained", kappa=kappa))
                    assert _norm(fit.beta, q) <= kappa * (1.0 + 1e-12)

    def test_one_reweighting_loop(self, monkeypatch):
        levels = []
        real = estimator._fit_at_lambda
        monkeypatch.setattr(estimator, "_fit_at_lambda",
                            lambda *a: levels.append(a[2]) or real(*a))
        rng = np.random.default_rng(33)
        ds, spec = two_group_data(rng, [1.0, 0.8, 0.0], [1.0, -0.8, 0.1],
                                  300, noise=0.1)
        for q in ("l1", "l2"):
            for kappa in (0.5, 100.0):       # binding, slack
                levels.clear()
                fit_reweighted(ds, spec, PenaltyConfig(q=q, mode="constrained",
                                                       kappa=kappa))
                assert levels == [0.0]

    def test_l2_ball_step_kkt(self):
        # ||b|| = kappa, (A + mu I) b = d with mu >= 0 recovered from b; the
        # singular A has no signal in its null space
        rng = np.random.default_rng(34)
        for rank_deficient in (False, True):
            for _ in range(20):
                p = int(rng.integers(2, 7))
                Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
                evals = rng.uniform(0.01, 3.0, p)
                if rank_deficient:
                    evals[rng.integers(p)] = 0.0
                A = (Q * evals) @ Q.T
                d = Q @ (rng.standard_normal(p) * (evals > 0.0))
                free = estimator._solve_weighted_l2(A, d, 0.0)
                kappa = float(rng.uniform(0.05, 0.95)) * np.linalg.norm(free)
                b = estimator._solve_weighted_l2(A, d, 0.0, kappa)
                assert np.linalg.norm(b) == pytest.approx(kappa, rel=1e-12)
                mu = (d - A @ b) @ b / (b @ b)
                assert mu >= 0.0
                assert np.linalg.norm(A @ b + mu * b - d) <= 1e-12 * np.linalg.norm(d)
                slack = estimator._solve_weighted_l2(A, d, 0.0, 2.0 * np.linalg.norm(free))
                np.testing.assert_array_equal(slack, free)

    def test_l1_ball_step_matches_enumeration(self):
        rng = np.random.default_rng(35)
        binding = 0
        for _ in range(300):
            p = int(rng.integers(1, 4))
            M = rng.standard_normal((p + 2, p))
            A = M.T @ M / (p + 2)
            d = rng.standard_normal(p)
            kappa = float(rng.uniform(0.05, 3.0))
            b = estimator._solve_weighted_l1(A, d, 0.0, np.zeros(p), 1e-12, kappa)
            P = kappa * np.vstack([np.eye(p), -np.eye(p)])
            _, ref = enumerate_simplex_qp(P, A, -2.0 * (P @ d))
            assert np.abs(b).sum() <= kappa * (1.0 + 1e-12)
            assert -2.0 * b @ d + b @ A @ b == pytest.approx(ref, abs=1e-12)
            binding += np.abs(np.linalg.solve(A, d)).sum() > kappa
        # both the ball's QP and the free descent answer occur
        assert 30 <= binding <= 270


class TestUnitScale:
    """No absolute floor makes a fit depend on the units of X or Y."""

    def _data(self):
        rng = np.random.default_rng(40)
        X = rng.standard_normal((400, 3))
        B = np.array([1.0, 0.5, -0.3]) + 0.3 * rng.standard_normal((4, 3))
        Y = np.concatenate([X[100 * g:100 * (g + 1)] @ B[g] for g in range(4)])
        return X, Y + 0.5 * rng.standard_normal(400), consecutive_blocks(400, 4)

    def _face(self):
        # 8 blocks of 500 around one effect: the l1 ball kappa = 1.2 binds
        # and its answer lies on a face of the ball (3 nonzeros of 5)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4000, 5))
        B = np.array([1.0, 0.8, -0.5, 0.3, 0.0]) + 0.6 * rng.standard_normal((8, 5))
        Y = np.concatenate([X[500 * g:500 * (g + 1)] @ B[g] for g in range(8)])
        return X, Y + rng.standard_normal(4000), consecutive_blocks(4000, 8)

    @pytest.mark.parametrize("instance, kappa", [("_data", 0.5), ("_face", 1.2)])
    @pytest.mark.parametrize("a, b", [(1.0, 1e-7), (1.0, 2.0**-30), (2.0**-30, 2.0**-30),
                                      (2.0**20, 2.0**20), (2.0**-20, 1.0)],
                             ids=["Y1e-7", "Y2^-30", "XY2^-30", "XY2^20", "X2^-20"])
    def test_reweighted_modes_are_unit_equivariant(self, instance, kappa, a, b):
        # X a and Y b scale every coefficient by b / a, and the ball with it:
        # every stopping rule of the loop is relative to the group values
        X, Y, spec = getattr(self, instance)()
        scaled = Dataset(X=a * X, Y=b * Y)
        for q in ("l2", "l1"):
            for mode, k in (("penalized", None), ("constrained", kappa)):
                base = fit_reweighted(Dataset(X=X, Y=Y), spec,
                                      PenaltyConfig(q=q, mode=mode, kappa=k)).beta
                cfg = PenaltyConfig(q=q, mode=mode, kappa=None if k is None else k * b / a)
                beta = fit_reweighted(scaled, spec, cfg).beta
                assert np.linalg.norm(beta * (a / b) - base) <= 1e-9 * np.linalg.norm(base)

    def test_coefficients_scale_inversely_with_the_predictors(self):
        X, Y, spec = self._data()
        for q in ("l1", "l2"):
            cfg = PenaltyConfig(q=q, lam=0.0)
            base = fit_reweighted(Dataset(X=X, Y=Y), spec, cfg).beta
            for c in (1e-5, 1e-6, 1e-7, 2.0**20, 2.0**30):
                beta = fit_reweighted(Dataset(X=c * X, Y=Y), spec, cfg).beta
                assert np.linalg.norm(c * beta - base) <= 1e-9 * np.linalg.norm(base)

    def test_small_response_fits_and_zero_response_raises(self):
        X, Y, spec = self._data()
        for q in ("l1", "l2"):
            for cfg in (PenaltyConfig(q=q, lam=0.0),
                        PenaltyConfig(q=q, mode="constrained", kappa=1.0)):
                fit = fit_reweighted(Dataset(X=X, Y=1e-7 * Y), spec, cfg)
                assert fit.group_V.max() > 0.0
                with pytest.raises(AllGroupsNonpositive):
                    fit_reweighted(Dataset(X=X, Y=0.0 * Y), spec, cfg)

    def test_tiny_signal_beside_a_large_orthogonal_response_is_fitted(self):
        # u is orthogonal to X inside each block, so every group's best
        # coefficient is exactly 2^-22 b, while Y'Y/n is about 2^44 times
        # any V_g: a fit may read the statistics but not Y's energy
        rng = np.random.default_rng(3)
        n, p, G = 400, 3, 4
        X = rng.standard_normal((n, p))
        b = rng.standard_normal(p)
        u = rng.standard_normal(n)
        for rows in np.split(np.arange(n), G):
            Xg = X[rows]
            u[rows] -= Xg @ np.linalg.lstsq(Xg, u[rows], rcond=None)[0]
        ds = Dataset(X=X, Y=u + np.ldexp(X @ b, -22))
        spec = consecutive_blocks(n, G)
        assert np.linalg.norm(b) < 5.0          # the ball below does not bind
        for cfg in (PenaltyConfig(q="l1", lam=0.0), PenaltyConfig(q="l2", lam=0.0),
                    PenaltyConfig(q="l2", mode="constrained", kappa=5 * 2.0**-22)):
            fit = fit_reweighted(ds, spec, cfg)
            assert fit.group_V.max() > 0.0
            assert np.linalg.norm(np.ldexp(fit.beta, 22) - b) <= 1e-8

    @pytest.mark.parametrize("k", [0, -30, -60])
    def test_null_space_signal_raises_at_every_scale(self, k):
        # signal along the null direction of the weighted Gram matrix is an
        # error relative to |d|, so the verdict does not depend on units
        A = np.diag([1.0, 0.0])
        d = np.ldexp(np.array([1.0, 1e-3]), k)
        with pytest.raises(SolverError):
            estimator._solve_weighted_l2(A, d, 0.0)

    @pytest.mark.parametrize("a, b", [(-20, 0), (0, -30), (20, 20), (-30, -30), (30, 0)])
    def test_maximal_mode_scales_exactly(self, a, b):
        # X 2^a and Y 2^b scale the cross-products by 2^(a+b) and the Grams
        # by 2^(2a), so the maximal fit's coefficients scale by 2^(b-a)
        data = gen_figure2(20000, seed=7).dataset
        spec = consecutive_blocks(data.n, 40)
        cfg = PenaltyConfig(mode="maximal")
        base = fit_with_config(data, spec, cfg).coefficients
        scaled = Dataset(X=np.ldexp(data.X, a), Y=np.ldexp(data.Y, b))
        np.testing.assert_array_equal(
            fit_with_config(scaled, spec, cfg).coefficients, np.ldexp(base, b - a))

    @pytest.mark.parametrize("a, b", [(-20, 0), (0, -30), (20, 20), (-30, -30), (30, 0)])
    def test_rescale_is_unit_equivariant(self, a, b):
        # X 2^a, Y 2^b and the direction 2^(b-a) scale every a_g = beta'c_g
        # and q_g = beta' Gram_g beta by 4^b, exactly, so the scale is the
        # same to the bit; t beta has terms t a_g and t^2 q_g, so its scale is
        # 1/t times, up to the rounding of the terms
        data = gen_figure2(20000, seed=7).dataset
        spec = consecutive_blocks(data.n, 40)
        beta = fit_with_config(data, spec, PenaltyConfig(mode="maximal")).beta
        base = rescale(beta, data, spec)
        assert base > 0.0
        scaled = Dataset(X=np.ldexp(data.X, a), Y=np.ldexp(data.Y, b))
        assert rescale(np.ldexp(beta, b - a), scaled, spec) == base
        for t in (3.0, 1e-3, 7e5):
            assert rescale(t * beta, data, spec) == pytest.approx(base / t, rel=1e-15, abs=0)


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


# terms on a coarse grid, so stacks hold ties in a and in q, and off it
_A_TERMS = st.one_of(st.integers(-2, 8).map(lambda k: k / 4.0), st.floats(1e-3, 3.0))
_Q_TERMS = st.one_of(st.integers(0, 10).map(lambda k: k / 2.0), st.floats(1e-3, 5.0))


@st.composite
def _term_stacks(draw):
    """(a, q), each (B, G): the terms of B directions on G groups."""
    G = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(st.lists(_A_TERMS, min_size=G, max_size=G),
                                   st.lists(_Q_TERMS, min_size=G, max_size=G)),
                         min_size=1, max_size=6))
    return np.array([a for a, _ in rows]), np.array([q for _, q in rows])


class TestExactRescale:
    """The envelope walk of ``_rescale`` on given terms a_g and q_g."""

    def _walk(self, a, q):
        return estimator._rescale(np.asarray(a, float)[None], np.asarray(q, float)[None])[0]

    @settings(max_examples=300, deadline=None)
    @given(_term_stacks())
    def test_stack_matches_brute_force_oracle_row_by_row(self, terms):
        # each row alone: 0.0 when some a_g <= 0, SolverError when every
        # q_g vanishes, else the oracle's best of every vertex and pairwise
        # crossing; in a stack, a row's scale is its own to the bit, and a
        # row that raises alone raises for the stack
        a, q = terms
        alone, raises = [], False
        for a_row, q_row in zip(a, q):
            if a_row.min() > 0.0 and not np.any(q_row > 0.0):
                with pytest.raises(SolverError):
                    self._walk(a_row, q_row)
                raises = True
                continue
            s = self._walk(a_row, q_row)
            if a_row.min() <= 0.0:
                assert s == 0.0
            else:
                best = _envelope_oracle(a_row, q_row)
                assert s == pytest.approx(best, rel=1e-9, abs=1e-12)
                assert _envelope_objective(s, a_row, q_row) >= \
                    _envelope_objective(best, a_row, q_row) * (1.0 - 1e-12)
            alone.append(s)
        if raises:
            with pytest.raises(SolverError):
                estimator._rescale(a, q)
        else:
            np.testing.assert_array_equal(estimator._rescale(a, q), alone)

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
