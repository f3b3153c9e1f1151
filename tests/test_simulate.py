import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maximin import (
    InvalidWeights,
    SupportSet,
    cumulative_cross_product,
    gen_contaminated,
    gen_figure2,
    gen_finite_mixture,
    gen_jump_process,
    maximin_effect,
    pooled_effect,
)

I2 = np.eye(2)
SUPPORT2 = SupportSet(points=[[1.0, 0.6], [1.0, -0.6]], sigma=I2)


def reconstruction_residual(out):
    predicted = np.einsum("ij,ij->i", out.dataset.X, out.realized_coeffs)
    return np.abs(out.dataset.Y - predicted).max()


class TestReconstruction:
    def test_exact_for_all_generators(self):
        outs = [
            gen_finite_mixture(200, 2, SUPPORT2, sigma_noise=0.0, seed=1),
            gen_jump_process(200, 2, SUPPORT2, delta=0.1, sigma_noise=0.0, seed=2),
            gen_contaminated(200, 2, np.array([1.0, 0.0]), [[2.0, 0.0]],
                             epsilon=0.2, sigma_noise=0.0, seed=3),
            gen_figure2(200, seed=4, sigma_noise=0.0),
        ]
        for out in outs:
            assert reconstruction_residual(out) == 0.0

    def test_assignments_reference_support_for_discrete_generators(self):
        out = gen_finite_mixture(100, 2, SUPPORT2, sigma_noise=0.3, seed=5)
        np.testing.assert_array_equal(out.coeff_table, out.support.points)
        assert out.assignments.min() >= 0
        assert out.assignments.max() < out.support.d


class TestDeterminism:
    @pytest.mark.parametrize("gen", [
        lambda s: gen_finite_mixture(150, 2, SUPPORT2, sigma_noise=0.2, seed=s),
        lambda s: gen_jump_process(150, 2, SUPPORT2, delta=0.05, sigma_noise=0.2, seed=s),
        lambda s: gen_contaminated(150, 2, np.array([1.0, 0.0]), [[2.0, 0.0]],
                                   epsilon=0.1, sigma_noise=0.2, seed=s),
        lambda s: gen_figure2(150, seed=s),
    ])
    def test_bit_identical(self, gen):
        a, b = gen(77), gen(77)
        np.testing.assert_array_equal(a.dataset.X, b.dataset.X)
        np.testing.assert_array_equal(a.dataset.Y, b.dataset.Y)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        c = gen(78)
        assert not np.array_equal(a.dataset.Y, c.dataset.Y)


class TestFiniteMixture:
    def test_single_point_no_noise(self):
        s = SupportSet(points=[[0.5, -1.0]], sigma=I2)
        out = gen_finite_mixture(50, 2, s, sigma_noise=0.0, seed=0)
        np.testing.assert_array_equal(out.dataset.Y,
                                      out.dataset.X @ np.array([0.5, -1.0]))

    def test_degenerate_weights(self):
        out = gen_finite_mixture(80, 2, SUPPORT2, mix_weights=[1.0, 0.0], seed=0)
        assert np.all(out.assignments == 0)

    def test_invalid_weights(self):
        with pytest.raises(InvalidWeights):
            gen_finite_mixture(10, 2, SUPPORT2, mix_weights=[0.5, 0.6], seed=0)

    def test_gram_concentration(self):
        sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
        s = SupportSet(points=[[1.0, 0.0]], sigma=sigma)
        out = gen_finite_mixture(50_000, 2, s, seed=11)
        emp = out.dataset.X.T @ out.dataset.X / out.dataset.n
        assert np.abs(emp - sigma).max() < 0.05

    def test_bounded_design(self):
        out = gen_finite_mixture(30_000, 3,
                                 SupportSet(points=[[1.0, 0.0, 0.0]], sigma=np.eye(3)),
                                 seed=12, design="bounded", bound=1.0)
        assert np.abs(out.dataset.X).max() <= 1.0
        assert out.sigma_true[0, 0] == pytest.approx(0.29112, abs=1e-4)
        emp = out.dataset.X.T @ out.dataset.X / out.dataset.n
        assert np.abs(emp - out.sigma_true).max() < 0.02
        # the recorded support carries the matching Gram matrix
        np.testing.assert_array_equal(out.support.sigma, out.sigma_true)

    def test_student_t_noise(self):
        out = gen_finite_mixture(500, 2, SUPPORT2, sigma_noise=0.5, seed=13,
                                 noise="student_t", noise_df=3)
        resid = out.dataset.Y - np.einsum("ij,ij->i", out.dataset.X,
                                          out.realized_coeffs)
        assert np.abs(resid).max() > 0.0


class TestJumpProcess:
    def test_delta_zero_constant(self):
        out = gen_jump_process(300, 2, SUPPORT2, delta=0.0, seed=6)
        assert np.all(out.assignments == out.assignments[0])

    def test_delta_one_single_regime(self):
        s = SupportSet(points=[[1.0, 0.0]], sigma=I2)
        out = gen_jump_process(300, 2, s, delta=1.0, seed=7)
        assert np.all(out.assignments == 0)

    def test_stay_frequency(self):
        # stay probability is 1 - delta + delta/J
        delta, J, n = 0.05, 3, 100_000
        s = SupportSet(points=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], sigma=I2)
        out = gen_jump_process(n, 2, s, delta=delta, seed=8)
        stays = np.mean(out.assignments[1:] == out.assignments[:-1])
        assert stays == pytest.approx(1.0 - delta + delta / J, abs=0.005)

    def test_time_ordered_flag(self):
        out = gen_jump_process(50, 2, SUPPORT2, delta=0.1, seed=9)
        assert out.dataset.time_ordered

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300), J=st.integers(1, 4), delta=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32))
    @example(n=300, J=3, delta=0.0, seed=1)
    @example(n=300, J=3, delta=1.0, seed=1)
    def test_assignments_match_reference_chain(self, n, J, delta, seed):
        # the chain step by step, from the same draws in the same order:
        # the gaussian design, the jump flags, the proposals, the first state
        points = np.zeros((J, 2))
        points[:, 0] = np.arange(J)
        s = SupportSet(points=points, sigma=I2)
        rng = np.random.Generator(np.random.Philox(seed))
        rng.standard_normal((n, 2))
        jumps = rng.random(n) < delta
        proposals = rng.integers(0, J, size=n)
        ref = np.empty(n, dtype=np.int64)
        ref[0] = rng.integers(0, J)
        for i in range(1, n):
            ref[i] = proposals[i] if jumps[i] else ref[i - 1]
        got = gen_jump_process(n, 2, s, delta=delta, seed=seed).assignments
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


class TestContaminated:
    def test_epsilon_zero_pure(self):
        b = np.array([1.0, -0.5])
        out = gen_contaminated(100, 2, b, [[3.0, 0.0]], epsilon=0.0, seed=10)
        assert np.all(out.assignments == 0)
        np.testing.assert_array_equal(out.dataset.Y, out.dataset.X @ b)

    def test_aligned_contaminant_keeps_target(self):
        b = np.array([1.0, 0.5])
        out = gen_contaminated(100, 2, b, [2.0 * b], epsilon=0.2, seed=11)
        assert out.aligned
        np.testing.assert_allclose(maximin_effect(out.support), b, atol=1e-8)

    def test_opposed_contaminant_kills_signal(self):
        b = np.array([1.0, 0.5])
        out = gen_contaminated(100, 2, b, [-b], epsilon=0.2, seed=12)
        assert not out.aligned
        np.testing.assert_array_equal(maximin_effect(out.support), [0.0, 0.0])


class TestFigure2:
    def test_oracles_on_essential_support(self):
        out = gen_figure2(500, seed=13)
        np.testing.assert_allclose(pooled_effect(out.support), [1.0, 1.0])
        np.testing.assert_allclose(maximin_effect(out.support), [1.0, 0.0],
                                   atol=1e-8)

    def test_eta_range_and_ordering(self):
        out = gen_figure2(2000, seed=14)
        eta = out.realized_coeffs[:, 1]
        assert eta.min() >= -4.0 and eta.max() <= 6.0
        assert np.all(np.diff(eta) <= 0.0)
        np.testing.assert_array_equal(out.realized_coeffs[:, 0], np.ones(2000))

    def test_cumulative_series_shapes(self):
        # pooled coefficients drift negative late; worst-group-optimal ones
        # stay positive in every fifth of the series
        out = gen_figure2(6000, seed=15)
        y = out.dataset.Y
        x = out.dataset.X

        def segment_slopes(beta):
            rep = cumulative_cross_product(y, x @ beta, standardize=True)
            c = np.concatenate([[0.0], rep.cumsum])
            marks = np.linspace(0, len(y), 6).astype(int)
            return np.diff(c[marks])

        pooled = segment_slopes(pooled_effect(out.support))
        assert pooled[-1] < 0.0
        mm = segment_slopes(maximin_effect(out.support))
        assert np.all(mm > 0.0)
