"""Model selection: group-count cross-validation and penalty selection.

The group-count search repeatedly halves the data, fits the worst-group
estimator on blocks formed from one half and scores the worst explained
variance over test blocks formed from the other half; the candidate with the
best averaged worst-case score wins.  Ordered data use consecutive blocks
everywhere, unordered data use random blocks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import TooFewObservations, ValidationError
from .estimator import _dead_level, _fit_reweighted, _group_stats, fit_with_config
from .grouping import consecutive_blocks, rng_from_seed, sample_groups
from .model import (
    MODE_PENALIZED,
    Dataset,
    GroupSpec,
    PenaltyConfig,
    validate,
)
from .variance import emp_explained_variance

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


def _subset(dataset: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(X=dataset.X[idx], Y=dataset.Y[idx],
                   time_ordered=dataset.time_ordered)


def _halves(n: int, time_ordered: bool, rng) -> tuple[np.ndarray, np.ndarray]:
    """One random split into two half-samples.

    Unordered data: a uniform shuffle.  Ordered data: two contiguous arcs
    split at a random cut point (indices taken circularly), so both halves
    stay consecutive while the cut varies across splits.
    """
    half = n // 2
    if time_ordered:
        cut = int(rng.integers(0, n))
        rolled = np.roll(np.arange(n), -cut)
        return np.sort(rolled[:half]), np.sort(rolled[half:])
    perm = rng.permutation(n)
    return perm[:half], perm[half:]


def _blocks_for(n: int, G: int, time_ordered: bool, rng) -> GroupSpec:
    if time_ordered:
        return consecutive_blocks(n, G)
    return sample_groups(n, G, n // G, replacement=False,
                         seed=int(rng.integers(0, 2**63 - 1)))


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
    """
    validate(dataset)
    candidates = tuple(int(g) for g in candidates)
    if not candidates:
        raise ValidationError("candidates must be nonempty")
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
    split_plans = []
    for _ in range(splits):
        train_idx, test_idx = _halves(n, dataset.time_ordered, rng)
        block_seed = int(rng.integers(0, 2**63 - 1))
        split_plans.append((train_idx, test_idx, block_seed))

    def run_split(plan):
        train_idx, test_idx, block_seed = plan
        block_rng = rng_from_seed(block_seed)
        train = _subset(dataset, train_idx)
        test = _subset(dataset, test_idx)
        test_blocks = _blocks_for(test.n, g_test, dataset.time_ordered, block_rng)
        row = np.empty(len(candidates))
        for k, G in enumerate(candidates):
            train_blocks = _blocks_for(train.n, G, dataset.time_ordered, block_rng)
            fit = fit_with_config(train, train_blocks, config)
            coef = fit.coefficients
            row[k] = min(emp_explained_variance(test, blk, coef)
                         for blk in test_blocks.groups)
        return row

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            rows = list(pool.map(run_split, split_plans))
    else:
        rows = [run_split(plan) for plan in split_plans]
    table = np.vstack(rows)

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
    """
    validate(dataset, spec)
    grid = sorted(float(v) for v in lambda_grid)
    if not grid:
        raise ValidationError("lambda_grid must be nonempty")
    if not (0.0 < holdout_fraction < 1.0):
        raise ValidationError("holdout_fraction must lie strictly inside (0, 1)")
    base = config if config is not None else PenaltyConfig()
    rng = rng_from_seed(seed)

    train_groups, hold_groups = [], []
    for idx in spec.groups:
        k = max(1, int(round(holdout_fraction * idx.shape[0])))
        if k >= idx.shape[0]:
            raise TooFewObservations(
                "a group would lose all observations to the hold-out")
        held = rng.choice(idx, size=k, replace=False)
        train_groups.append(np.setdiff1d(idx, held))
        hold_groups.append(np.sort(held))

    # the training groups are nonempty subsets of validated groups, so their
    # statistics are built once and shared by every penalty level
    train_spec = GroupSpec(groups=tuple(train_groups), replacement=spec.replacement)
    stats = _group_stats(dataset, train_spec)
    dead_level = _dead_level(dataset)
    best_lam, best_score = grid[-1], -np.inf
    for lam in grid:
        cfg = PenaltyConfig(q=base.q, mode=MODE_PENALIZED, lam=lam,
                            zeta=base.zeta, max_iter=base.max_iter, tol=base.tol)
        fit = _fit_reweighted(*stats, cfg, dead_level)
        score = min(emp_explained_variance(dataset, held, fit.beta)
                    for held in hold_groups)
        if score >= best_score:
            best_lam, best_score = lam, score
    return best_lam
