"""Reference cross-validation scores for the group-count search.

Computed the direct way, from the rows: every half becomes its own
``Dataset``, every candidate is fitted with the public ``fit_with_config``
on blocks of that half, and every test block is scored with
``emp_explained_variance`` on the test half's rows.  The split plan (cut
points, shuffles, block seeds) is drawn from the same seeded generator in
the same order as ``cv_group_count`` draws it, so the scores must agree with
the package's statistics-based search up to rounding.  A training fit that
raises ``Infeasible`` or ``AllGroupsNonpositive`` is scored as the zero
coefficient vector.
"""

import numpy as np

from maximin import (
    AllGroupsNonpositive,
    Dataset,
    Infeasible,
    PenaltyConfig,
    consecutive_blocks,
    emp_explained_variance,
    fit_with_config,
    rng_from_seed,
    sample_groups,
)


def _reference_halves(n, time_ordered, rng):
    half = n // 2
    if time_ordered:
        cut = int(rng.integers(0, n))
        arc = (cut + np.arange(n)) % n        # the series read from the cut
        return np.sort(arc[:half]), np.sort(arc[half:])
    perm = rng.permutation(n)
    return perm[:half], perm[half:]


def _reference_blocks(m, G, time_ordered, rng):
    if time_ordered:
        return consecutive_blocks(m, G)
    return sample_groups(m, G, m // G, replacement=False,
                         seed=int(rng.integers(0, 2**63 - 1)))


def reference_cv_scores(dataset, candidates, splits, g_test, config=None, seed=0):
    """(chosen G, mean scores, standard errors), as cv_group_count defines them."""
    if config is None:
        config = PenaltyConfig()
    ordered = dataset.time_ordered
    rng = rng_from_seed(seed)
    plans = []
    for _ in range(splits):
        train_idx, test_idx = _reference_halves(dataset.n, ordered, rng)
        plans.append((train_idx, test_idx, int(rng.integers(0, 2**63 - 1))))
    table = np.empty((splits, len(candidates)))
    for r, (train_idx, test_idx, block_seed) in enumerate(plans):
        block_rng = rng_from_seed(block_seed)
        train = Dataset(X=dataset.X[train_idx], Y=dataset.Y[train_idx])
        test = Dataset(X=dataset.X[test_idx], Y=dataset.Y[test_idx])
        test_blocks = _reference_blocks(test.n, g_test, ordered, block_rng)
        for k, G in enumerate(candidates):
            blocks = _reference_blocks(train.n, G, ordered, block_rng)
            try:
                coef = fit_with_config(train, blocks, config).coefficients
            except (Infeasible, AllGroupsNonpositive):
                coef = np.zeros(dataset.p)      # a vanishing fit is the zero fit
            table[r, k] = min(emp_explained_variance(test, blk, coef)
                              for blk in test_blocks.groups)
    scores = table.mean(axis=0)
    ses = (table.std(axis=0, ddof=1) / np.sqrt(splits) if splits > 1
           else np.zeros(len(candidates)))
    best = int(np.argmax(scores))
    near = [k for k in range(len(candidates))
            if scores[k] >= scores[best] - ses[best]]
    chosen = candidates[min(near, key=lambda k: candidates[k])]
    return chosen, scores, ses
