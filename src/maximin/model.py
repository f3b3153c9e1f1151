"""Core domain types shared by all other modules.

All types are immutable after construction and hold plain numpy arrays, so
they can be shared freely across threads.  Group indices are stored 0-based
in memory; file formats and documentation use 1-based indices, converted once
at the I/O boundary.

Because they are immutable, a :class:`GroupSpec` also holds the statistics
of the last :class:`Dataset` it was fitted with: one ``GroupStats``, the
same bytes each public fitting call would build, kept until the spec is
freed or fitted with another dataset, so that every call on that pair
validates and builds them once.  It is not a field: equality, ``repr``,
copies and pickles leave it out.  Writing to a type's arrays after flipping
their write flag is unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .exceptions import (
    DimensionMismatch,
    EmptyGroup,
    IndexOutOfRange,
    NonFiniteData,
    ValidationError,
)

PARTITION = "partition"
WITH_REPLACEMENT = "with_replacement"

L1 = "l1"
L2 = "l2"

MODE_PENALIZED = "penalized"
MODE_CONSTRAINED = "constrained"
MODE_MAXIMAL = "maximal"


def _frozen_array(x, dtype=np.float64, ndim=None) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    if ndim is not None and a.ndim != ndim:
        raise ValidationError(f"expected a {ndim}-dimensional array, got shape {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """A response vector with its predictor matrix.

    X has one row per observation (n x p), Y has length n.  Predictors are
    stored as given; standardization is an explicit I/O-level step so that
    exact comparisons against population quantities stay possible.
    """

    X: np.ndarray
    Y: np.ndarray
    time_ordered: bool = False

    def __post_init__(self):
        object.__setattr__(self, "X", _frozen_array(self.X, ndim=2))
        object.__setattr__(self, "Y", _frozen_array(self.Y, ndim=1))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class GroupSpec:
    """A collection of observation index sets.

    ``replacement`` is ``"partition"`` when the groups are meant to be
    disjoint and ``"with_replacement"`` when the same observation may appear
    in several groups (indices are still distinct within a group).
    """

    groups: tuple[np.ndarray, ...]
    replacement: str = PARTITION

    def __post_init__(self):
        frozen = tuple(_frozen_array(g, dtype=np.int64, ndim=1) for g in self.groups)
        object.__setattr__(self, "groups", frozen)
        if self.replacement not in (PARTITION, WITH_REPLACEMENT):
            raise ValidationError(f"unknown replacement mode {self.replacement!r}")

    def __getstate__(self):
        # copies and pickles hold the fields only, not the statistics memo
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(g) for g in self.groups], dtype=np.int64)


@dataclass(frozen=True)
class SupportSet:
    """A finite set of coefficient vectors plus a population Gram matrix.

    The known-truth object for oracles and simulation.  The Gram matrix must
    be symmetric positive definite; degenerate matrices are rejected here so
    downstream geometry never has to break ties.
    """

    points: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "points", _frozen_array(pts, ndim=2))
        object.__setattr__(self, "sigma", _frozen_array(self.sigma, ndim=2))
        d, p = self.points.shape
        if d < 1:
            raise ValidationError("support needs at least one point")
        if p < 1:
            raise ValidationError("support points need at least one coordinate")
        if self.sigma.shape != (p, p):
            raise ValidationError(
                f"gram matrix shape {self.sigma.shape} does not match p={p}")
        if not np.all(np.isfinite(self.points)) or not np.all(np.isfinite(self.sigma)):
            raise NonFiniteData("support points / gram matrix must be finite")
        if not np.allclose(self.sigma, self.sigma.T, atol=1e-12, rtol=0.0):
            raise ValidationError("gram matrix must be symmetric (tolerance 1e-12)")
        min_eig = float(np.linalg.eigvalsh(self.sigma)[0])
        if min_eig <= 0.0:
            raise ValidationError(
                f"gram matrix must be positive definite (min eigenvalue {min_eig:.3e})")

    @property
    def d(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty kind, penalty mode and solver tolerances.

    mode is one of ``"penalized"`` (uses ``lam``), ``"constrained"`` (uses
    ``kappa``) or ``"maximal"`` (l1 only).  ``tol`` is a relative accuracy:
    the reweighted fit stops once no group's explained variance moves by
    more than ``tol`` times the largest |V_g|, and its inner solves stop on
    the same unit-free scale: rescaling X or Y does not change when it stops.
    """

    q: str = L1
    mode: str = MODE_PENALIZED
    lam: float = 0.0
    kappa: float | None = None
    max_iter: int = 50
    tol: float = 1e-6

    def __post_init__(self):
        if self.q not in (L1, L2):
            raise ValidationError(f"penalty q must be {L1!r} or {L2!r}, got {self.q!r}")
        if self.mode not in (MODE_PENALIZED, MODE_CONSTRAINED, MODE_MAXIMAL):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_MAXIMAL and self.q != L1:
            raise ValidationError("the maximal-penalty direction is defined for the l1 penalty")
        if not self.lam >= 0.0:  # also rejects NaN
            raise ValidationError("lam must be >= 0")
        if self.mode == MODE_CONSTRAINED:
            if self.kappa is None or not self.kappa > 0.0:
                raise ValidationError("constrained mode needs kappa > 0")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be a positive integer")
        if not self.tol > 0.0:
            raise ValidationError("tol must be positive")


@dataclass(frozen=True)
class MaximinFit:
    """Result of a maximin estimation.

    ``scale`` is the post-hoc scale factor (maximal-penalty mode only, 1
    otherwise); ``group_V`` holds the empirical explained variance of each
    group at ``scale * beta``.
    """

    beta: np.ndarray
    group_V: np.ndarray
    scale: float = 1.0
    iterations: int = 0
    converged: bool = True
    objective_path: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", _frozen_array(self.beta, ndim=1))
        object.__setattr__(self, "group_V", _frozen_array(self.group_V, ndim=1))

    @property
    def coefficients(self) -> np.ndarray:
        """The fitted coefficient vector including the post-hoc scale."""
        return self.scale * self.beta


def validate(dataset: Dataset, spec: GroupSpec | None = None) -> None:
    """Check all type invariants jointly; raise on the first violation.

    Idempotent and side-effect free.  Anything accepted here is accepted by
    every downstream operation's precondition checks.
    """
    if dataset.n < 1 or dataset.p < 1:
        raise ValidationError(f"dataset must have n >= 1 and p >= 1, got ({dataset.n}, {dataset.p})")
    if dataset.Y.shape[0] != dataset.n:
        raise DimensionMismatch(
            f"Dataset.Y has length {dataset.Y.shape[0]} but X has {dataset.n} rows")
    if not np.all(np.isfinite(dataset.X)):
        raise NonFiniteData("Dataset.X contains NaN or Inf")
    if not np.all(np.isfinite(dataset.Y)):
        raise NonFiniteData("Dataset.Y contains NaN or Inf")
    if spec is None:
        return
    if spec.n_groups == 0:
        raise EmptyGroup("GroupSpec.groups is empty")
    for g, idx in enumerate(spec.groups):
        if len(idx) == 0:
            raise EmptyGroup(f"GroupSpec.groups[{g}] is empty")
        if idx.min() < 0 or idx.max() >= dataset.n:
            raise IndexOutOfRange(
                f"GroupSpec.groups[{g}] has indices outside [0, {dataset.n - 1}]")
        ordered = np.sort(idx)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValidationError(f"GroupSpec.groups[{g}] has repeated indices")
    if spec.replacement == PARTITION:
        # indices are in range by now; a count above one is an overlap
        counts = np.bincount(np.concatenate(spec.groups), minlength=dataset.n)
        if counts.max() > 1:
            raise ValidationError("partition groups must be disjoint (GroupSpec.groups)")
