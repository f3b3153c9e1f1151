import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maximin import (
    DegenerateBound,
    InvalidSize,
    ValidationError,
    consecutive_blocks,
    groups_from_labels,
    groups_needed_contamination,
    groups_needed_jump,
    pareto_holds,
    rng_from_seed,
    sample_groups,
)


class TestGroupsFromLabels:
    def test_sorted_labels(self):
        spec = groups_from_labels([1, 1, 2, 2])
        assert [list(g) for g in spec.groups] == [[0, 1], [2, 3]]

    def test_single_label(self):
        spec = groups_from_labels([7, 7, 7])
        assert spec.n_groups == 1
        assert list(spec.groups[0]) == [0, 1, 2]

    def test_first_appearance_order(self):
        spec = groups_from_labels([2, 1, 2, 1])
        assert [list(g) for g in spec.groups] == [[0, 2], [1, 3]]

    def test_string_labels(self):
        spec = groups_from_labels(np.array(["a", "a", "b"]))
        assert [list(g) for g in spec.groups] == [[0, 1], [2]]

    @settings(max_examples=300, deadline=None)
    @given(codes=st.lists(st.integers(0, 9), max_size=200),
           as_text=st.booleans())
    def test_matches_brute_force(self, codes, as_text):
        labels = np.array([f"g{c}" for c in codes] if as_text else codes)
        firsts = list(dict.fromkeys(labels.tolist()))
        spec = groups_from_labels(labels)
        assert len(spec.groups) == len(firsts)
        for idx, value in zip(spec.groups, firsts):
            expected = np.flatnonzero(labels == value)
            assert idx.dtype == expected.dtype
            np.testing.assert_array_equal(idx, expected)


class TestConsecutiveBlocks:
    def test_even_split(self):
        spec = consecutive_blocks(6, 3)
        assert [list(g) for g in spec.groups] == [[0, 1], [2, 3], [4, 5]]

    def test_balanced_rounding(self):
        spec = consecutive_blocks(7, 3)
        assert [len(g) for g in spec.groups] == [3, 2, 2]

    def test_single_block(self):
        spec = consecutive_blocks(5, 1)
        assert list(spec.groups[0]) == [0, 1, 2, 3, 4]

    def test_invalid(self):
        with pytest.raises(InvalidSize):
            consecutive_blocks(3, 4)

    @settings(max_examples=1000, deadline=None)
    @given(n=st.integers(1, 400), frac=st.floats(0.0, 1.0))
    def test_partition_property(self, n, frac):
        G = 1 + int(frac * (n - 1))
        spec = consecutive_blocks(n, G)
        joined = np.concatenate(spec.groups)
        np.testing.assert_array_equal(np.sort(joined), np.arange(n))
        sizes = [len(g) for g in spec.groups]
        assert max(sizes) - min(sizes) <= 1


class TestSampleGroups:
    def test_full_index_set(self):
        spec = sample_groups(10, 1, 10, replacement=False, seed=0)
        assert sorted(spec.groups[0]) == list(range(10))

    def test_deterministic(self):
        a = sample_groups(50, 5, 10, replacement=True, seed=123)
        b = sample_groups(50, 5, 10, replacement=True, seed=123)
        for ga, gb in zip(a.groups, b.groups):
            np.testing.assert_array_equal(ga, gb)

    def test_overlap_allowed_distinct_within(self):
        spec = sample_groups(100, 20, 30, replacement=True, seed=1)
        assert spec.n_groups == 20
        for g in spec.groups:
            assert len(g) == 30
            assert len(set(g.tolist())) == 30
        total = sum(len(g) for g in spec.groups)
        assert total == 600  # 6x the population: overlap must occur

    def test_partition_mode_bounds(self):
        with pytest.raises(InvalidSize):
            sample_groups(10, 3, 4, replacement=False, seed=0)
        with pytest.raises(InvalidSize):
            sample_groups(10, 1, 11, replacement=True, seed=0)


class TestGroupsNeededContamination:
    def test_reference_value(self):
        # ceil(log(20) / -log(1 - 0.9^10)) with 0.9^10 = 0.34867844
        assert groups_needed_contamination(0.1, 10, 0.05) == 7

    def test_tiny_epsilon(self):
        assert groups_needed_contamination(1e-12, 5, 0.05) == 1

    def test_half_half(self):
        assert groups_needed_contamination(0.5, 1, 0.5) == 1

    def test_degenerate_bound(self):
        with pytest.raises(DegenerateBound):
            groups_needed_contamination(0.9999, 10_000_000, 0.05)

    @pytest.mark.parametrize("eps,gamma", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_domain(self, eps, gamma):
        with pytest.raises(ValidationError):
            groups_needed_contamination(eps, 3, gamma)

    def test_guarantee_formula(self):
        # returned G makes the failure bound drop below gamma
        for eps, m, gamma in [(0.1, 10, 0.05), (0.2, 5, 0.1), (0.05, 30, 0.01)]:
            G = groups_needed_contamination(eps, m, gamma)
            p_fail = (1.0 - (1.0 - eps) ** m) ** G
            assert p_fail <= gamma + 1e-12
            if G > 1:
                assert (1.0 - (1.0 - eps) ** m) ** (G - 1) > gamma


class TestGroupsNeededJump:
    def test_reference_value(self):
        G, feasible = groups_needed_jump(1000, 0.01, 2, 0.1)
        assert G == 800 and feasible
        # both displayed conditions, evaluated directly
        assert 0.01 * 999 / 2 >= 1.0 / math.log(2 * 2 / 0.1)

    def test_delta_zero(self):
        G, feasible = groups_needed_jump(1000, 0.0, 2, 0.1)
        assert G == 1 and not feasible

    def test_too_many_regimes(self):
        _, feasible = groups_needed_jump(1000, 0.01, 500, 0.1)
        assert not feasible


class TestParetoHolds:
    def test_all_pure_covered(self):
        spec = consecutive_blocks(6, 3)
        assignments = np.array([0, 0, 1, 1, 2, 2])
        assert pareto_holds(assignments, spec, {0, 1, 2})

    def test_missing_pure_group(self):
        spec = consecutive_blocks(4, 2)
        assignments = np.array([0, 1, 0, 1])  # no pure group at all
        assert not pareto_holds(assignments, spec, {0, 1})

    def test_mixed_groups_but_each_covered(self):
        spec = consecutive_blocks(6, 3)
        assignments = np.array([0, 0, 1, 0, 1, 1])  # blocks: pure 0, mixed, pure 1
        assert pareto_holds(assignments, spec, {0, 1})
        assert not pareto_holds(assignments, spec, {0, 1, 2})


def test_contamination_bound_monte_carlo():
    # simulate the sampling scheme 2000 times at the calculator's G
    eps, m, gamma = 0.1, 10, 0.05
    G = groups_needed_contamination(eps, m, gamma)
    n = 400
    rng = rng_from_seed(2024)
    hits = 0
    trials = 2000
    for t in range(trials):
        contaminated = rng.random(n) < eps
        assignments = contaminated.astype(int)
        spec = sample_groups(n, G, m, replacement=True,
                             seed=int(rng.integers(0, 2**63 - 1)))
        if pareto_holds(assignments, spec, {0}):
            hits += 1
    assert hits / trials >= 1.0 - gamma - 0.02


def test_jump_bound_monte_carlo():
    from maximin import SupportSet, gen_jump_process

    n, delta, J, gamma = 4000, 0.005, 2, 0.2
    G, feasible = groups_needed_jump(n, delta, J, gamma)
    assert feasible
    G = min(G, n)  # the bound is conservative; blocks cannot outnumber points
    spec = consecutive_blocks(n, G)
    support = SupportSet(points=[[1.0, 0.5], [1.0, -0.5]], sigma=np.eye(2))
    hits = 0
    trials = 300
    for t in range(trials):
        out = gen_jump_process(n, 2, support, delta=delta, seed=90_000 + t)
        if pareto_holds(out.assignments, spec, {0, 1}):
            hits += 1
    assert hits / trials >= 1.0 - gamma - 0.05


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed"):
        rng_from_seed(-1)
