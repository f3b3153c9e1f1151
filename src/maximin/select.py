"""Model selection: group-count cross-validation and penalty selection.

The group-count search repeatedly halves the data, fits the worst-group
estimator on blocks formed from one half and scores the worst explained
variance over test blocks formed from the other half; the candidate with the
best averaged worst-case score wins.  Ordered data are split into two arcs
of the series read as a circle, each cut into consecutive blocks; unordered
data use random blocks.

Both searches run on block statistics (Gram matrix, cross-product, size),
and each fit and each hold-out score reads only them.  The group-count
search validates the data once per call and works through the splits a
chunk at a time on the calling thread: a chunk holds as many splits as
fit in half of X's bytes together with the rows gathered to build them
(see :func:`_chunk`), and every statistic of a chunk is one stack over its
splits.  On ordered data it builds one table of running sums of x x' and
x y per call, kept at every c-th row with c near sqrt(n p / 64), so
(n / c + 1) p^2 doubles: about 0.8 times the size of X at n = 2e4,
p = 200, and 100 KB at n = 2e4, p = 5.  The block statistics of all the
chunk's test halves, and of all its training halves for every candidate,
are then differences of those sums at the block edges, built in one call
each (see :func:`_ordered_stats`).  On unordered data every block is
gathered from its rows into the chunk's stacks.  Each candidate's training
stack is fitted in one call of the estimator (see
:func:`estimator._fit_chunk`), which computes every fit of the search, and
all the chunk's test sets are scored in one batched product.  Penalty
selection validates and builds the full groups' statistics once per
(Dataset, GroupSpec) pair, shared with every other fit on that pair, and
builds only the hold-out groups itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimator import (
    GroupStats,
    _fit_chunk,
    _fit_stats,
    _group_stats,
    _validated_stats,
)
from .exceptions import (
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
    vanished: np.ndarray        # splits whose training fit vanished, per candidate


def _halves(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """One random split of unordered data into two half-samples: a uniform
    shuffle, cut after its first n // 2 positions."""
    perm = rng.permutation(n)
    return perm[:n // 2], perm[n // 2:]


def _ordered_halves(n: int, rng) -> tuple[list, list]:
    """One random split of ordered data into two half-samples, each a list of
    at most two runs (start, stop) of the series in increasing order.

    The series read as a circle is split at a random cut point into two
    arcs, the first of n // 2 positions, and each arc is read in sorted
    order.  When an arc wraps past the end, its half is the start of the
    series followed by its end, and a block of consecutive positions may
    join the two.
    """
    cut = int(rng.integers(0, n))
    end = cut + n // 2
    if end <= n:
        train, test = [(cut, end)], [(0, cut), (end, n)]
    else:
        train, test = [(0, end - n), (cut, n)], [(end - n, cut)]
    return ([(a, b) for a, b in train if b > a],
            [(a, b) for a, b in test if b > a])


@dataclass(frozen=True)
class _RunningTable:
    """Running sums of x x' and x y over the rows of one dataset, kept at
    every ``step``-th row: ``grams[k]`` and ``crosses[k]`` sum rows
    [0, k * step).  :meth:`sums` gathers ``batch`` positions at a time."""

    dataset: Dataset
    step: int
    batch: int
    grams: np.ndarray           # (n // step + 1, p, p)
    crosses: np.ndarray         # (n // step + 1, p)

    def sums(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sums of x x' and x y over rows [0, pos) for every position in
        ``pos`` (each in 0..n): the stored entry at pos // step plus the
        rows of the partial chunk.  Per batch of positions those rows are
        gathered as one (batch, step, p) array, weighted 0 at and past each
        position in a transposed copy, and multiplied in one batched matmul;
        a position's sums do not depend on the batch it falls in."""
        X, Y = self.dataset.X, self.dataset.Y
        grams = np.empty((pos.shape[0], X.shape[1], X.shape[1]))
        crosses = np.empty((pos.shape[0], X.shape[1]))
        lanes = np.arange(self.step)
        for first in range(0, pos.shape[0], self.batch):
            part = slice(first, first + self.batch)
            q, r = np.divmod(pos[part], self.step)
            rows = np.minimum(q[:, None] * self.step + lanes, X.shape[0] - 1)
            Xp = X.take(rows, axis=0)
            Wt = Xp.transpose(0, 2, 1) * np.where(lanes < r[:, None], 1.0, 0.0)[:, None, :]
            np.matmul(Wt, Xp, out=grams[part])
            grams[part] += self.grams[q]
            np.matmul(Wt, Y.take(rows)[..., None], out=crosses[part, :, None])
            crosses[part] += self.crosses[q]
        return grams, crosses


def _table_shape(dataset: Dataset) -> tuple[int, int]:
    """(step, batch) of the running-sum table of ``dataset``.

    The chunk length c is near sqrt(n p / 64), clamped to [1, n): the table
    holds (n / c) p^2 doubles and each position reads c rows of p, and this
    c balances the two for a few dozen positions per half.  A gather of
    :meth:`_RunningTable.sums` holds 16 c p bytes per position (the rows and
    their weighted copy), so it takes as many positions as fit in a quarter
    of X's bytes, and at least one.
    """
    n, p = dataset.n, dataset.p
    step = max(1, min(int(round(np.sqrt(n * p / 64.0))), n - 1))
    return step, max(1, dataset.X.nbytes // (64 * step * p))


def _running_table(dataset: Dataset) -> _RunningTable:
    """The running-sum table of ``dataset``, its shape from
    :func:`_table_shape`.  The chunk Grams are one batched matmul over X
    viewed as (n // c, c, p), written into the table and summed there in
    place.
    """
    n, p = dataset.n, dataset.p
    step, batch = _table_shape(dataset)
    chunks = n // step
    Xc = dataset.X[:chunks * step].reshape(chunks, step, p)
    Yc = dataset.Y[:chunks * step].reshape(chunks, step, 1)
    grams = np.empty((chunks + 1, p, p))
    crosses = np.empty((chunks + 1, p))
    grams[0] = 0.0
    crosses[0] = 0.0
    np.matmul(Xc.transpose(0, 2, 1), Xc, out=grams[1:])
    np.matmul(Xc.transpose(0, 2, 1), Yc, out=crosses[1:, :, None])
    np.cumsum(grams, axis=0, out=grams)
    np.cumsum(crosses, axis=0, out=crosses)
    return _RunningTable(dataset, step, batch, grams, crosses)


def _ordered_stats(table: _RunningTable, halves, edges) -> list[GroupStats]:
    """Statistics of the consecutive blocks of R ordered halves of one
    length, for each array of block edges (positions 0 = e_0 < ... < e_G = m
    in a half): per array, a stack of the R halves' statistics, grams
    (R, G, p, p) and crosses (R, G, p).

    A half is the rows of its runs (at most two, see :func:`_ordered_halves`)
    read one run after the other; a half of one run is padded with an empty
    one.  Its cumulative sum H(k) over its first k rows is, run by run, a
    difference of the series' running sums S: a run (a, b) after L rows of
    the half adds S(a + clip(k - L, 0, b - a)) - S(a).  S is evaluated once
    at every distinct position that takes at the edges of all R halves, and
    a block [e_i, e_i+1) is H(e_i+1) - H(e_i) divided by its size,
    differenced run by run, so S(a) drops out and a run the block does not
    reach, the empty one included, adds an exact zero.  A half's statistics
    are the ones it gets in a stack of one, to the bit.  With K edges in
    all, memory on top of the table is O(R K p^2) plus one gather of
    :meth:`_RunningTable.sums`, whatever n is.

    Differences of running sums lose accuracy to cancellation when the data
    have large means.  With column means of 100 (p = 3, a half of two runs
    cut into 2, 50 and 400 blocks), block Grams agree with direct sums
    within 1.8e-13 of max|Gram| at n = 2e5 and 3.7e-13 at n = 2e6, where the
    fitted V-hat (about 4.9e3) moves by at most 7.4e-9.
    """
    ks = np.concatenate(edges)
    runs = np.array([half if len(half) == 2 else [half[0], (half[0][1],) * 2]
                     for half in halves])
    start, stop = runs[..., 0, None], runs[..., 1, None]
    length = stop - start
    before = np.cumsum(length, axis=1) - length
    pos, inv = np.unique(start + np.clip(ks - before, 0, length), return_inverse=True)
    grams, crosses = table.sums(pos)
    inv = inv.reshape(len(halves), 2, ks.shape[0])
    # one difference per consecutive pair of ks; the pair that spans two
    # edge arrays is not a block, is never read, and has a nonzero size
    sizes = np.diff(ks).astype(np.float64)
    grams = np.diff(grams[inv], axis=2).sum(axis=1)
    crosses = np.diff(crosses[inv], axis=2).sum(axis=1)
    grams /= sizes[:, None, None]
    crosses /= sizes[:, None]
    stats, first = [], 0
    for e in edges:
        blocks = slice(first, first + e.shape[0] - 1)
        stats.append(GroupStats(grams[:, blocks], crosses[:, blocks], sizes[blocks]))
        first += e.shape[0]
    return stats


def _random_stats(dataset: Dataset, half: np.ndarray, G: int, rng) -> GroupStats:
    """Statistics of G random blocks of len(half) // G observations each,
    gathered from the parent X."""
    m = half.shape[0]
    spec = sample_groups(m, G, m // G, replacement=False,
                         seed=int(rng.integers(0, 2**63 - 1)))
    return _group_stats(dataset, [half[idx] for idx in spec.groups])


def _chunk(dataset: Dataset, g_test: int, candidates) -> int:
    """Splits whose statistics cross-validation holds at once: as many as
    fit in half of X's bytes together with the rows of X gathered at once
    to build them, and at least one.  A split holds the Gram, cross-product
    and size of its g_test test blocks and of every candidate's training
    blocks.  The gathered rows are one batch of :meth:`_RunningTable.sums`
    on ordered data (rows and weighted copy, about a quarter of X's bytes,
    see :func:`_table_shape`) and the largest block on unordered data."""
    n, p = dataset.n, dataset.p
    split_bytes = 8 * (g_test + sum(candidates)) * (p * p + p + 1)
    if dataset.time_ordered:
        step, batch = _table_shape(dataset)
        gathered = 16 * step * p * batch
    else:
        gathered = 8 * p * ((n - n // 2) // min(g_test, *candidates))
    return max(1, (dataset.X.nbytes // 2 - gathered) // split_bytes)


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
    standard error) toward the smallest G, and, per candidate, the number
    of splits whose training fit vanished.

    Time-ordered halves are arcs of the series read as a circle (each in
    sorted order, see :func:`_ordered_halves`), cut into consecutive blocks;
    unordered halves (see :func:`_halves`) are cut into random blocks.  The
    data are validated once.  Per split, every block's Gram matrix and
    cross-product are built once, each candidate is fitted on its training
    blocks' statistics, and each test block is scored as
    2c'beta - beta'S beta from its own statistics.  The splits are held a
    chunk at a time (see :func:`_chunk`), each statistic a stack over the
    chunk's splits.  Ordered blocks are differences of one running-sum table
    built per call (see :func:`_running_table`), one call of
    :func:`_ordered_stats` for the chunk's test halves and one for its
    training halves; unordered blocks are gathered from their rows.  Each
    candidate's training stack is fitted in one call of
    :func:`estimator._fit_chunk`, each set as :func:`estimator.fit_with_config`
    fits it (in maximal mode one stacked LP solve and one stacked rescale),
    and every test set of the chunk is scored in one batched product with a
    minimum over its blocks, so every score is the one a split-by-split fit
    gives, to the bit.  Memory on top of X is the table plus, for one
    chunk, its statistics and the rows gathered to build them (about half
    of X's bytes) and the sums at its halves' block edges.  A training fit that vanishes (the maximal LP is
    infeasible, or no group is positively explained and
    :class:`AllGroupsNonpositive` is raised) is the zero fit, and beta = 0
    scores 0 on every test block, so that split scores 0.0 for the
    candidate.

    The splits and their fits run one after another on the calling
    thread.  ``n_jobs`` is ignored, kept only for callers that still pass
    it: the per-split work holds the interpreter lock, so a thread pool was
    slower than one thread.
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
    if dataset.time_ordered:
        running = _running_table(dataset)
        train_edges = [_block_edges(half, G) for G in candidates]
        test_edges = [_block_edges(n - half, g_test)]

    def draw_chunk(size):
        """Statistics of the next ``size`` splits, each a stack over them:
        of their test blocks and, per candidate, of their training blocks."""
        if dataset.time_ordered:
            drawn = []
            for _ in range(size):
                drawn.append(_ordered_halves(n, rng))
                # unused here, but drawn: the next cut point follows it
                rng.integers(0, 2**63 - 1)
            return (_ordered_stats(running, [test for _, test in drawn], test_edges)[0],
                    _ordered_stats(running, [train for train, _ in drawn], train_edges))
        for r in range(size):
            train_idx, test_idx = _halves(n, rng)
            block_rng = rng_from_seed(int(rng.integers(0, 2**63 - 1)))
            split = [_random_stats(dataset, test_idx, g_test, block_rng),
                     *(_random_stats(dataset, train_idx, G, block_rng) for G in candidates)]
            if r == 0:
                stacks = [GroupStats(np.empty((size, *s.grams.shape)),
                                     np.empty((size, *s.crosses.shape)), s.sizes)
                          for s in split]
            for stack, s in zip(stacks, split):
                stack.grams[r], stack.crosses[r] = s.grams, s.crosses
        return stacks[0], stacks[1:]

    table = np.empty((splits, len(candidates)))
    vanished = np.zeros(len(candidates), dtype=np.int64)
    chunk = _chunk(dataset, g_test, candidates)
    for first in range(0, splits, chunk):
        size = min(chunk, splits - first)
        test, trains = draw_chunk(size)
        for k, train in enumerate(trains):
            # a vanishing fit is the zero fit, which scores 0 on every test block
            beta, scale, _, lost = _fit_chunk(train, config)
            vanished[k] += lost.sum()
            table[first:first + size, k] = test.values(scale[:, None] * beta).min(axis=1)

    scores = table.mean(axis=0)
    ses = table.std(axis=0, ddof=1) / np.sqrt(splits) if splits > 1 else \
        np.zeros(len(candidates))
    best = int(np.argmax(scores))
    threshold = scores[best] - ses[best]
    near = [k for k in range(len(candidates)) if scores[k] >= threshold]
    chosen = min(near, key=lambda k: candidates[k])
    return CvResult(chosen=candidates[chosen], candidates=candidates,
                    scores=scores, std_errors=ses, vanished=vanished)


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
