"""Model selection: group-count cross-validation and penalty selection.

The group-count search repeatedly halves the data, fits the worst-group
estimator on blocks formed from one half and scores the worst explained
variance over test blocks formed from the other half; the candidate with the
best averaged worst-case score wins.  Ordered data are split into two arcs
of the series read as a circle, each cut into consecutive blocks; unordered
data use random blocks.

Both searches run on block statistics (Gram matrix, cross-product, size),
and each fit and each hold-out score reads only them.  The group-count
search validates the data once per call, runs the splits one after another
on the calling thread and builds every block's statistics once per split;
penalty selection validates and builds the full groups' statistics once per
(Dataset, GroupSpec) pair, shared with every other fit on that pair, and
builds only the hold-out groups itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimator import GroupStats, _fit_stats, _group_stats, _validated_stats
from .exceptions import (
    AllGroupsNonpositive,
    Infeasible,
    InvalidSize,
    TooFewObservations,
    ValidationError,
)
from .grouping import _block_edges, rng_from_seed, sample_groups
from .model import (
    MODE_PENALIZED,
    Dataset,
    GroupSpec,
    PenaltyConfig,
    validate,
)

DEFAULT_SPLITS = 100
DEFAULT_G_TEST = 5
DEFAULT_MIN_BLOCK = 200


@dataclass(frozen=True)
class CvResult:
    """Chosen group count plus the per-candidate score table."""

    chosen: int
    candidates: tuple[int, ...]
    scores: np.ndarray          # mean over splits of the worst test-block V
    std_errors: np.ndarray


def _halves(n: int, time_ordered: bool, rng) -> tuple[np.ndarray, np.ndarray]:
    """One random split into two half-samples.

    Unordered data: a uniform shuffle.  Ordered data: the series read as a
    circle is split at a random cut point into two arcs, and each arc is
    returned in sorted order.  A half is therefore at most two contiguous
    runs of the series; when its arc wraps past the end, the half is the
    start of the series followed by its end, and a block of consecutive
    positions may join the two.
    """
    half = n // 2
    if time_ordered:
        cut = int(rng.integers(0, n))
        idx = np.arange(n)
        first = (idx - cut) % n < half
        return idx[first], idx[~first]
    perm = rng.permutation(n)
    return perm[:half], perm[half:]


def _ordered_stats(dataset: Dataset, half: np.ndarray, counts) -> list[GroupStats]:
    """Statistics of the consecutive blocks of one ordered half, for each
    block count.

    The half is at most two contiguous runs of the series.  Cut at every
    count's block edges and where a run ends, it falls into atoms, each a
    contiguous slice of X (a view, not a copy).  Every atom's Gram matrix
    and cross-product is computed once and each block sums its atoms, so
    memory is O(atoms * p^2) whatever n is.
    """
    edges = [_block_edges(half.shape[0], G) for G in counts]
    breaks = np.flatnonzero(np.diff(half) != 1) + 1
    cuts = np.unique(np.concatenate([*edges, breaks]))
    starts = cuts[:-1]
    p = dataset.p
    atom_grams = np.empty((starts.shape[0], p, p))
    atom_crosses = np.empty((starts.shape[0], p))
    for k, (a, b) in enumerate(zip(starts, cuts[1:])):
        rows = slice(half[a], half[a] + (b - a))
        Xa = dataset.X[rows]
        atom_grams[k] = Xa.T @ Xa
        atom_crosses[k] = Xa.T @ dataset.Y[rows]
    stats = []
    for bounds in edges:
        first = np.searchsorted(starts, bounds[:-1])
        sizes = np.diff(bounds).astype(np.float64)
        stats.append(GroupStats(np.add.reduceat(atom_grams, first) / sizes[:, None, None],
                                np.add.reduceat(atom_crosses, first) / sizes[:, None],
                                sizes))
    return stats


def _random_stats(dataset: Dataset, half: np.ndarray, G: int, rng) -> GroupStats:
    """Statistics of G random blocks of len(half) // G observations each,
    gathered from the parent X."""
    m = half.shape[0]
    spec = sample_groups(m, G, m // G, replacement=False,
                         seed=int(rng.integers(0, 2**63 - 1)))
    return _group_stats(dataset, [half[idx] for idx in spec.groups])


def cv_group_count(dataset: Dataset, candidates, splits: int = DEFAULT_SPLITS,
                   g_test: int = DEFAULT_G_TEST,
                   config: PenaltyConfig | None = None, seed: int = 0,
                   min_block: int = DEFAULT_MIN_BLOCK,
                   n_jobs: int = 1) -> CvResult:
    """Choose the number of groups by repeated half-sample validation.

    For every split the first half is cut into G training blocks and the
    second half into ``g_test`` test blocks; the score of G is the worst
    explained variance over the test blocks, averaged over splits.  Returns
    the candidate maximizing that score, breaking near-ties (within one
    standard error) toward the smallest G.

    Time-ordered halves are arcs of the series read as a circle (each in
    sorted order, see :func:`_halves`), cut into consecutive blocks;
    unordered halves are cut into random blocks.  The data are validated
    once.  Per split, every block's Gram matrix and cross-product are built
    once, each candidate is fitted on its training blocks' statistics, and
    each test block is scored as 2c'beta - beta'S beta from its own
    statistics.  A training fit that vanishes (the maximal LP is
    :class:`Infeasible`, or no group is positively explained and
    :class:`AllGroupsNonpositive` is raised) is the zero fit, and beta = 0
    scores 0 on every test block, so that split scores 0.0 for the candidate.

    The splits run one after another on the calling thread.  ``n_jobs`` is
    ignored, kept only for callers that still pass it: the per-split work
    holds the interpreter lock, so a thread pool was slower than one thread.
    """
    validate(dataset)
    candidates = tuple(int(g) for g in candidates)
    if not candidates:
        raise ValidationError("candidates must be nonempty")
    for G in candidates:
        if G < 1:
            raise InvalidSize(f"candidate G={G} must be at least 1")
    if splits < 1:
        raise ValidationError(f"splits must be a positive integer, got {splits}")
    if config is None:
        config = PenaltyConfig()
    n = dataset.n
    half = n // 2
    if g_test < 1 or half // g_test < min_block:
        raise TooFewObservations(
            f"each of the {g_test} test blocks would keep fewer than "
            f"{min_block} observations (half-sample size {half})")
    if max(candidates) > half:
        raise TooFewObservations(
            f"candidate G={max(candidates)} exceeds the half-sample size {half}")

    rng = rng_from_seed(seed)
    table = np.empty((splits, len(candidates)))
    for row in table:
        train_idx, test_idx = _halves(n, dataset.time_ordered, rng)
        # unused on ordered data, but drawn there too: the next cut point follows it
        block_seed = int(rng.integers(0, 2**63 - 1))
        if dataset.time_ordered:
            test = _ordered_stats(dataset, test_idx, [g_test])[0]
            train_stats = _ordered_stats(dataset, train_idx, candidates)
        else:
            block_rng = rng_from_seed(block_seed)
            test = _random_stats(dataset, test_idx, g_test, block_rng)
            train_stats = [_random_stats(dataset, train_idx, G, block_rng)
                           for G in candidates]
        for k, stats in enumerate(train_stats):
            try:
                coef = _fit_stats(stats, config).coefficients
            except (Infeasible, AllGroupsNonpositive):
                coef = np.zeros(dataset.p)      # a vanishing fit is the zero fit
            row[k] = test.values(coef).min()

    scores = table.mean(axis=0)
    ses = table.std(axis=0, ddof=1) / np.sqrt(splits) if splits > 1 else \
        np.zeros(len(candidates))
    best = int(np.argmax(scores))
    threshold = scores[best] - ses[best]
    near = [k for k in range(len(candidates)) if scores[k] >= threshold]
    chosen = min(near, key=lambda k: candidates[k])
    return CvResult(chosen=candidates[chosen], candidates=candidates,
                    scores=scores, std_errors=ses)


def select_penalty(dataset: Dataset, spec: GroupSpec, lambda_grid, seed: int = 0,
                   holdout_fraction: float = 0.2,
                   config: PenaltyConfig | None = None) -> float:
    """Choose the penalty level maximizing the worst hold-out score.

    Holds out a fraction of every group, fits on the retained observations
    and scores each penalty by the minimum hold-out explained variance over
    groups.  Ties break toward the larger (more conservative) penalty.

    The full groups' statistics are those every fit on the same dataset and
    spec shares (see :func:`estimator._validated_stats`); only the hold-out
    groups are built here, and each training group's statistics follow as
    (n_g S_g - k_g H_g) / (n_g - k_g) from its full (S_g, n_g) and hold-out
    (H_g, k_g) ones.
    """
    full = _validated_stats(dataset, spec)
    grid = sorted(float(v) for v in lambda_grid)
    if not grid:
        raise ValidationError("lambda_grid must be nonempty")
    if not (0.0 < holdout_fraction < 1.0):
        raise ValidationError("holdout_fraction must lie strictly inside (0, 1)")
    base = config if config is not None else PenaltyConfig()
    rng = rng_from_seed(seed)

    hold_groups = []
    for idx in spec.groups:
        k = max(1, int(round(holdout_fraction * idx.shape[0])))
        if k >= idx.shape[0]:
            raise TooFewObservations(
                "a group would lose all observations to the hold-out")
        hold_groups.append(np.sort(rng.choice(idx, size=k, replace=False)))

    # the hold-out groups are nonempty subsets of validated groups, so their
    # statistics and the training ones are built once and shared by every level
    hold = _group_stats(dataset, hold_groups)
    n, k = full.sizes, hold.sizes
    m = n - k
    stats = GroupStats(
        (n[:, None, None] * full.grams - k[:, None, None] * hold.grams) / m[:, None, None],
        (n[:, None] * full.crosses - k[:, None] * hold.crosses) / m[:, None],
        m)
    best_lam, best_score = grid[-1], -np.inf
    for lam in grid:
        fit = _fit_stats(stats, replace(base, mode=MODE_PENALIZED, lam=lam))
        score = float(hold.values(fit.beta).min())
        if score >= best_score:
            best_lam, best_score = lam, score
    return best_lam
