import numpy as np
import pytest

from maximin import (
    Dataset,
    EmptyGroup,
    GroupSpec,
    IndexOutOfRange,
    NonFiniteData,
    PenaltyConfig,
    SupportSet,
    ValidationError,
    validate,
)


def make_dataset(n=4, p=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(X=rng.standard_normal((n, p)), Y=rng.standard_normal(n))


class TestValidate:
    def test_well_formed_partition(self):
        ds = make_dataset(4)
        spec = GroupSpec(groups=(np.array([0, 1]), np.array([2, 3])))
        validate(ds, spec)  # no exception

    def test_index_out_of_range(self):
        ds = make_dataset(4)
        spec = GroupSpec(groups=(np.array([0, 1]), np.array([2, 4])))
        with pytest.raises(IndexOutOfRange):
            validate(ds, spec)

    def test_nan_in_x(self):
        X = np.ones((3, 2))
        X[1, 0] = np.nan
        ds = Dataset(X=X, Y=np.ones(3))
        with pytest.raises(NonFiniteData, match="Dataset.X"):
            validate(ds)

    def test_inf_in_y(self):
        ds = Dataset(X=np.ones((3, 2)), Y=np.array([1.0, np.inf, 0.0]))
        with pytest.raises(NonFiniteData, match="Dataset.Y"):
            validate(ds)

    def test_empty_group(self):
        ds = make_dataset(4)
        spec = GroupSpec(groups=(np.array([0, 1]), np.array([], dtype=int)))
        with pytest.raises(EmptyGroup):
            validate(ds, spec)

    def test_partition_overlap_rejected(self):
        ds = make_dataset(4)
        spec = GroupSpec(groups=(np.array([0, 1]), np.array([1, 2])))
        with pytest.raises(ValidationError):
            validate(ds, spec)
        # the same groups are fine when overlap is declared
        spec = GroupSpec(groups=(np.array([0, 1]), np.array([1, 2])),
                         replacement="with_replacement")
        validate(ds, spec)

    def test_repeated_index_in_group_rejected(self):
        ds = make_dataset(5)
        for mode in ("partition", "with_replacement"):
            spec = GroupSpec(groups=(np.array([0, 1]), np.array([2, 4, 2])),
                             replacement=mode)
            with pytest.raises(ValidationError, match=r"groups\[1\] has repeated"):
                validate(ds, spec)

    def test_partition_overlap_across_many_groups(self):
        ds = make_dataset(10)
        groups = tuple(np.array([g, g + 5]) for g in range(5)) + (np.array([9]),)
        with pytest.raises(ValidationError, match="disjoint"):
            validate(ds, GroupSpec(groups=groups))
        validate(ds, GroupSpec(groups=groups, replacement="with_replacement"))

    def test_y_length_mismatch(self):
        ds = Dataset(X=np.ones((3, 2)), Y=np.ones(2))
        with pytest.raises(ValidationError):
            validate(ds)

    def test_idempotent_and_side_effect_free(self):
        ds = make_dataset(6)
        spec = GroupSpec(groups=(np.arange(3), np.arange(3, 6)))
        x_before = ds.X.copy()
        for _ in range(3):
            validate(ds, spec)
        np.testing.assert_array_equal(ds.X, x_before)


class TestImmutability:
    def test_dataset_arrays_frozen(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0

    def test_groupspec_frozen(self):
        spec = GroupSpec(groups=(np.array([0, 1]),))
        with pytest.raises(ValueError):
            spec.groups[0][0] = 7


class TestSupportSet:
    def test_degenerate_sigma_rejected_at_type_level(self):
        with pytest.raises(ValidationError):
            SupportSet(points=[[1.0, 0.0]], sigma=np.zeros((2, 2)))

    def test_asymmetric_sigma_rejected(self):
        with pytest.raises(ValidationError):
            SupportSet(points=[[1.0, 0.0]], sigma=[[1.0, 0.2], [0.1, 1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            SupportSet(points=[[1.0, 0.0]], sigma=np.eye(3))

    @pytest.mark.parametrize("points", [np.zeros((3, 0)), [[]], []])
    def test_no_coordinates_rejected(self, points):
        with pytest.raises(ValidationError, match="at least one coordinate"):
            SupportSet(points=points, sigma=np.zeros((0, 0)))

    def test_valid(self):
        s = SupportSet(points=[[1.0, 2.0], [0.0, 1.0]], sigma=np.eye(2))
        assert s.d == 2 and s.p == 2


class TestPenaltyConfig:
    def test_defaults(self):
        cfg = PenaltyConfig()
        assert cfg.max_iter == 50

    @pytest.mark.parametrize("kwargs", [
        dict(lam=-1.0),
        dict(mode="constrained"),                 # kappa missing
        dict(mode="constrained", kappa=0.0),
        dict(mode="constrained", kappa=-1.0),
        dict(tol=-1e-6),
        dict(max_iter=0),
        dict(tol=0.0),
        dict(q="l3"),
        dict(mode="ridge"),
        dict(lam=float("nan")),
        dict(mode="constrained", kappa=float("nan")),
        dict(tol=float("nan")),
        dict(q="l2", mode="maximal"),            # the maximal LP is l1 only
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValidationError):
            PenaltyConfig(**kwargs)

    def test_zeta_is_not_a_field(self):
        # the reweighting exponent is fixed inside the estimator
        with pytest.raises(TypeError, match="zeta"):
            PenaltyConfig(zeta=0.5)


def test_validated_inputs_accepted_downstream():
    # anything validate() accepts must pass every downstream precondition
    from maximin import emp_explained_variance, fit_reweighted, lambda_max

    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(6, 40))
        p = int(rng.integers(1, 4))
        ds = Dataset(X=rng.standard_normal((n, p)), Y=rng.standard_normal(n))
        G = int(rng.integers(1, 4))
        cuts = np.sort(rng.choice(np.arange(1, n), size=G - 1, replace=False)) \
            if G > 1 else np.array([], dtype=int)
        bounds = np.concatenate([[0], cuts, [n]]).astype(int)
        spec = GroupSpec(groups=tuple(np.arange(bounds[g], bounds[g + 1])
                                      for g in range(G)))
        validate(ds, spec)
        for idx in spec.groups:
            emp_explained_variance(ds, idx, np.zeros(p))
        lambda_max(ds, spec)
        fit_reweighted(ds, spec, PenaltyConfig(q="l2", mode="penalized", lam=0.1))
