"""Group construction and closed-form group-count calculators.

Groups either come from labels, from consecutive blocks (natural for
time-ordered data) or from random sampling.  The ``groups_needed_*``
functions answer "how many sampled groups guarantee, with high probability,
that every essential coefficient owns at least one pure group" for the
contamination and jump-process settings.

All sampling runs through a counter-based 64-bit generator (Philox) keyed by
an explicit seed, so identical seeds give bit-identical groups on any
platform.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DegenerateBound, InvalidSize, ValidationError
from .model import PARTITION, WITH_REPLACEMENT, GroupSpec


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide RNG: Philox, a documented counter-based generator."""
    if seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def groups_from_labels(labels) -> GroupSpec:
    """Partition observations by label value, ordered by first appearance."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValidationError("labels must be a vector")
    _, first_pos, inverse, counts = np.unique(
        labels, return_index=True, return_inverse=True, return_counts=True)
    # a stable sort on each observation's first appearance lists the groups in
    # that order, each with its indices ascending
    members = np.argsort(first_pos[inverse], kind="stable")
    ends = np.cumsum(counts[np.argsort(first_pos)])
    groups = tuple(np.split(members, ends)[:-1])
    return GroupSpec(groups=groups, replacement=PARTITION)


def _block_edges(n: int, G: int) -> np.ndarray:
    """Edges 0 = e_0 < ... < e_G = n of the blocks of :func:`consecutive_blocks`."""
    if not (1 <= G <= n):
        raise InvalidSize(f"need 1 <= G <= n, got G={G}, n={n}")
    base, extra = divmod(n, G)
    sizes = np.full(G, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def consecutive_blocks(n: int, G: int) -> GroupSpec:
    """G contiguous blocks covering 1..n, sizes differing by at most one.

    The first n mod G blocks carry the extra observation.
    """
    bounds = _block_edges(n, G)
    groups = tuple(np.arange(bounds[g], bounds[g + 1]) for g in range(G))
    return GroupSpec(groups=groups, replacement=PARTITION)


def sample_groups(n: int, G: int, m: int, replacement: bool, seed: int) -> GroupSpec:
    """Sample G groups of m observations each.

    With ``replacement=True`` each group draws m distinct indices from all n
    observations, independently of the other groups, so the same observation
    may appear in several groups (typically G*m > n).  With
    ``replacement=False`` the groups form a random partition-style split and
    G*m must not exceed n.
    """
    if n < 1 or G < 1 or m < 1:
        raise InvalidSize(f"need positive sizes, got n={n}, G={G}, m={m}")
    if m > n:
        raise InvalidSize(f"group size m={m} exceeds n={n}")
    rng = rng_from_seed(seed)
    if replacement:
        groups = tuple(rng.choice(n, size=m, replace=False) for _ in range(G))
        return GroupSpec(groups=groups, replacement=WITH_REPLACEMENT)
    if G * m > n:
        raise InvalidSize(f"without replacement G*m={G * m} must not exceed n={n}")
    perm = rng.permutation(n)
    groups = tuple(perm[g * m:(g + 1) * m] for g in range(G))
    return GroupSpec(groups=groups, replacement=PARTITION)


def groups_needed_contamination(epsilon: float, m: int, gamma: float) -> int:
    """Groups needed so that at least one group is contamination-free.

    With an epsilon fraction of contaminated observations and groups of m
    independently sampled observations, G >= log(1/gamma) / -log(1-(1-eps)^m)
    groups make P(at least one all-clean group) >= 1 - gamma.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValidationError("epsilon must lie strictly inside (0, 1)")
    if not (0.0 < gamma < 1.0):
        raise ValidationError("gamma must lie strictly inside (0, 1)")
    if m < 1:
        raise InvalidSize("m must be a positive integer")
    p_clean = (1.0 - epsilon) ** m
    if p_clean == 0.0:
        raise DegenerateBound(
            f"(1-epsilon)^m underflows to zero for epsilon={epsilon}, m={m}")
    if p_clean >= 1.0:
        # a single group is almost surely clean
        return 1
    denom = -math.log1p(-p_clean)
    if denom == 0.0:
        raise DegenerateBound(
            f"1-(1-epsilon)^m rounds to zero for epsilon={epsilon}, m={m}")
    g = math.log(1.0 / gamma) / denom
    return max(1, math.ceil(g))


def groups_needed_jump(n: int, delta: float, J: int, gamma: float) -> tuple[int, bool]:
    """Group count and feasibility for consecutive blocks on a jump chain.

    Returns (G, feasible) with G = ceil(4 n delta J / gamma).  ``feasible``
    reports whether delta (n-1) / J >= 1 / log(2 J / gamma), i.e. whether the
    number of distinct regimes is small enough that each is visited at all.
    """
    if not (0.0 <= delta < 1.0):
        raise ValidationError("delta must lie in [0, 1)")
    if J < 1:
        raise InvalidSize("J must be a positive integer")
    if not (0.0 < gamma < 1.0):
        raise ValidationError("gamma must lie strictly inside (0, 1)")
    if n < 2:
        raise InvalidSize("n must be at least 2")
    G = max(1, math.ceil(4.0 * n * delta * J / gamma))
    feasible = delta * (n - 1) / J >= 1.0 / math.log(2.0 * J / gamma)
    return G, feasible


def pareto_holds(assignments, spec: GroupSpec, essential_ids) -> bool:
    """Does every essential coefficient id own at least one pure group?

    Simulation-only check: requires the ground-truth per-observation
    coefficient ids.  A group is pure for id k when every observation in it
    realizes coefficient k.
    """
    assignments = np.asarray(assignments)
    pure_ids = set()
    for idx in spec.groups:
        vals = assignments[idx]
        if np.all(vals == vals[0]):
            pure_ids.add(vals[0].item() if hasattr(vals[0], "item") else vals[0])
    return all(e in pure_ids for e in set(essential_ids))
