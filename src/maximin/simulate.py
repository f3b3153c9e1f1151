"""Synthetic mixture-regression generators with ground truth retained.

Every generator records the per-observation coefficient assignment so oracle
tests can verify reconstruction exactly: with zero noise, Y equals the
row-wise product of X with the assigned coefficients, bit for bit.

Randomness always flows through the Philox counter-based generator keyed by
the explicit seed, so identical seeds give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidWeights, ValidationError
from .model import Dataset, SupportSet
from .grouping import rng_from_seed

GAUSSIAN = "gaussian"
BOUNDED = "bounded"


@dataclass(frozen=True)
class SimOutput:
    """A generated dataset plus everything needed to check it against truth.

    ``assignments`` are row indices into ``coeff_table``; for the discrete
    generators ``coeff_table`` is exactly ``support.points``, while the
    continuous two-predictor scenario stores the realized coefficients in
    ``coeff_table`` and the two extreme points (an essential subset with the
    same hull) in ``support``.
    """

    dataset: Dataset
    assignments: np.ndarray
    coeff_table: np.ndarray
    support: SupportSet
    sigma_true: np.ndarray
    noise_sd: float
    aligned: bool | None = None

    @property
    def realized_coeffs(self) -> np.ndarray:
        return self.coeff_table[self.assignments]


def _check_n(n):
    if n < 1:
        raise ValidationError("n must be at least 1")


def _draw_design(rng, n, p, sigma, design, bound):
    """Predictor rows with population Gram ``sigma`` (or the bounded variant).

    The bounded design draws iid truncated standard normals on [-bound,
    bound]; its true Gram is var_trunc * I, returned alongside the matrix.
    """
    if design == GAUSSIAN:
        chol = np.linalg.cholesky(sigma)
        X = rng.standard_normal((n, p)) @ chol.T
        return X, np.asarray(sigma, dtype=np.float64)
    if design == BOUNDED:
        # scipy.stats takes about a second to import: load it only here
        from scipy import stats

        if bound <= 0.0:
            raise ValidationError("bound must be positive")
        u = rng.random((n, p))
        lo = stats.norm.cdf(-bound)
        hi = stats.norm.cdf(bound)
        X = stats.norm.ppf(lo + u * (hi - lo))
        var = float(stats.truncnorm.var(-bound, bound))
        return X, var * np.eye(p)
    raise ValidationError(f"unknown design {design!r}")


def _draw_noise(rng, n, sigma_noise, noise, noise_df):
    if sigma_noise < 0.0:
        raise ValidationError("sigma_noise must be >= 0")
    if sigma_noise == 0.0:
        return np.zeros(n)
    if noise == GAUSSIAN:
        return sigma_noise * rng.standard_normal(n)
    if noise == "student_t":
        if noise_df is None or noise_df <= 0:
            raise ValidationError("student_t noise needs a positive noise_df")
        return sigma_noise * rng.standard_t(noise_df, size=n)
    raise ValidationError(f"unknown noise kind {noise!r}")


def _assemble(X, coeff_table, assignments, eps, support, sigma_true,
              sigma_noise, time_ordered=False, aligned=None):
    Y = np.einsum("ij,ij->i", X, coeff_table[assignments]) + eps
    return SimOutput(
        dataset=Dataset(X=X, Y=Y, time_ordered=time_ordered),
        assignments=np.asarray(assignments, dtype=np.int64),
        coeff_table=np.asarray(coeff_table, dtype=np.float64),
        support=support,
        sigma_true=np.asarray(sigma_true, dtype=np.float64),
        noise_sd=float(sigma_noise),
        aligned=aligned,
    )


def gen_finite_mixture(n, p, support: SupportSet, mix_weights=None,
                       sigma_noise=0.0, seed=0, design=GAUSSIAN, bound=1.0,
                       noise=GAUSSIAN, noise_df=None) -> SimOutput:
    """Classic finite mixture: iid coefficient assignments from the support."""
    _check_n(n)
    if support.p != p:
        raise ValidationError(f"support dimension {support.p} != p={p}")
    d = support.d
    if mix_weights is None:
        w = np.full(d, 1.0 / d)
    else:
        w = np.asarray(mix_weights, dtype=np.float64)
        if w.shape != (d,) or np.any(w < 0.0) or not np.isclose(w.sum(), 1.0):
            raise InvalidWeights("mix_weights must be a length-d probability vector")
    rng = rng_from_seed(seed)
    X, sigma_true = _draw_design(rng, n, p, support.sigma, design, bound)
    assignments = rng.choice(d, size=n, p=w)
    eps = _draw_noise(rng, n, sigma_noise, noise, noise_df)
    if design == BOUNDED:
        support = SupportSet(points=support.points, sigma=sigma_true)
    return _assemble(X, support.points, assignments, eps, support, sigma_true,
                     sigma_noise)


def gen_jump_process(n, p, support: SupportSet, delta, sigma_noise=0.0,
                     seed=0, design=GAUSSIAN, bound=1.0,
                     noise=GAUSSIAN, noise_df=None) -> SimOutput:
    """Markov regime chain: keep the current coefficient with probability
    1 - delta, otherwise resample uniformly among all J support points (so
    the total stay probability is 1 - delta + delta/J)."""
    _check_n(n)
    if not (0.0 <= delta <= 1.0):
        raise ValidationError("delta must lie in [0, 1]")
    if support.p != p:
        raise ValidationError(f"support dimension {support.p} != p={p}")
    J = support.d
    rng = rng_from_seed(seed)
    X, sigma_true = _draw_design(rng, n, p, support.sigma, design, bound)
    jumps = rng.random(n) < delta
    values = rng.integers(0, J, size=n)
    values[0] = rng.integers(0, J)
    # each step holds the value drawn at the last jump, step 0 counting as one
    last_jump = np.maximum.accumulate(np.where(jumps, np.arange(n), 0))
    assignments = values[last_jump]
    eps = _draw_noise(rng, n, sigma_noise, noise, noise_df)
    if design == BOUNDED:
        support = SupportSet(points=support.points, sigma=sigma_true)
    return _assemble(X, support.points, assignments, eps, support, sigma_true,
                     sigma_noise, time_ordered=True)


def gen_contaminated(n, p, b_star, contam_support, epsilon, sigma_noise=0.0,
                     seed=0, sigma=None, design=GAUSSIAN, bound=1.0,
                     noise=GAUSSIAN, noise_df=None) -> SimOutput:
    """Mostly a fixed coefficient b*, with an epsilon fraction of outliers.

    Contaminated observations draw uniformly among ``contam_support`` rows.
    ``aligned`` records whether every contaminant u satisfies
    (u - b*)' S b* >= 0, the condition under which the worst-case-optimal
    coefficient is exactly b* (misaligned contaminants can only shrink it
    toward zero).
    """
    _check_n(n)
    if not (0.0 <= epsilon < 1.0):
        raise ValidationError("epsilon must lie in [0, 1)")
    b_star = np.asarray(b_star, dtype=np.float64)
    contam = np.atleast_2d(np.asarray(contam_support, dtype=np.float64))
    if b_star.shape != (p,) or contam.shape[1] != p:
        raise ValidationError("b_star and contam_support must have length p")
    if sigma is None:
        sigma = np.eye(p)
    rng = rng_from_seed(seed)
    X, sigma_true = _draw_design(rng, n, p, sigma, design, bound)
    contaminated = rng.random(n) < epsilon
    which = rng.integers(0, contam.shape[0], size=n)
    assignments = np.where(contaminated, 1 + which, 0)
    eps = _draw_noise(rng, n, sigma_noise, noise, noise_df)
    coeff_table = np.vstack([b_star[None, :], contam])
    aligned = bool(np.all((contam - b_star) @ sigma_true @ b_star >= 0.0))
    support = SupportSet(points=coeff_table, sigma=sigma_true)
    return _assemble(X, coeff_table, assignments, eps, support, sigma_true,
                     sigma_noise, aligned=aligned)


def gen_figure2(n, seed=0, sigma_noise=0.1) -> SimOutput:
    """Two standard-normal predictors with coefficients (1, eta).

    eta is continuous uniform on [-4, 6], sorted so it decreases
    monotonically along the observation index: the worst-group-optimal
    coefficient keeps only the stable first component while the pooled one
    also loads the drifting second component, which shows up as a negative
    final slope in its cumulative cross-product diagnostic.

    ``support`` holds the essential subset {(1, -4), (1, 6)}, whose hull
    equals the hull of all realized coefficients.
    """
    if n < 2:
        raise ValidationError("n must be at least 2")
    rng = rng_from_seed(seed)
    X = rng.standard_normal((n, 2))
    eta = np.sort(rng.uniform(-4.0, 6.0, size=n))[::-1]
    coeff_table = np.column_stack([np.ones(n), eta])
    assignments = np.arange(n, dtype=np.int64)
    eps = _draw_noise(rng, n, sigma_noise, GAUSSIAN, None)
    support = SupportSet(points=[[1.0, -4.0], [1.0, 6.0]], sigma=np.eye(2))
    return _assemble(X, coeff_table, assignments, eps, support, np.eye(2),
                     sigma_noise, time_ordered=True)
