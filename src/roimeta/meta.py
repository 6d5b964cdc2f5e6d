"""Per-campaign effect sizes and their random-effects combination.

Each campaign is one study: the standardized difference of treatment-vs-control
part ROIs (pooled-variance scaling, small-sample correction) is combined across
campaigns by inverse-variance weighting. Between-campaign variance comes from
the DerSimonian-Laird method of moments; the summary effect is tested with a
Z statistic and reported with a symmetric confidence interval.

The fixed model is the random model at tau2 = 0 (``1/(v + 0.0) == 1/v == w``),
and every Q, Cochran's and the subgroups', is one ``weighted_q``. The weights
and the small-sample correction are the ``EffectSize`` record's own
expressions, so a decoded report recomputes the same floats.

All accumulations use exactly rounded summation (``math.fsum``), so results do
not depend on campaign iteration order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from math import fsum
from typing import NamedTuple

from .errors import (
    ConfigError,
    DegenerateEffectError,
    InsufficientDataError,
    UndefinedRoiError,
)
from .records import (
    EffectSize, FixedEffectSummary, HeterogeneityStats, RandomEffectSummary, SignificanceResult,
    checked, small_sample_correction,
)
from .statfuncs import chi_square_sf, normal_cdf, normal_quantile

# Effect-variance formulas: "noncentral_t" divides the quadratic term by the
# total part count, "hedges" by twice the total part count.
EFFECT_VARIANCE_MODES = ("noncentral_t", "hedges")


@checked
class ArmSampleStats(NamedTuple):
    """Sample mean and unbiased variance of one arm's part ROIs."""

    mean: float
    variance: float
    m: int

    def _check(self):
        if self.m < 2:
            raise InsufficientDataError(f"need >= 2 parts per arm, got {self.m}")
        if not math.isfinite(self.mean) or not math.isfinite(self.variance) or self.variance < 0:
            raise ValueError("mean must be finite and variance finite and >= 0")


class MetaSummary(NamedTuple):
    fixed: FixedEffectSummary
    heterogeneity: HeterogeneityStats
    random: RandomEffectSummary
    significance: SignificanceResult


def arm_stats(rois: Sequence[float | None], campaign_id: str | None = None,
              part_ids: Sequence[int] | None = None) -> ArmSampleStats:
    """Mean and unbiased sample variance of one arm's part ROIs (``ArmColumns.rois``).
    ``campaign_id`` and ``part_ids``, when given, name a part that has no ROI."""
    if len(rois) < 2:
        raise InsufficientDataError(
            f"need >= 2 parts to estimate a variance, got {len(rois)}"
        )
    if None in rois:
        index = rois.index(None)
        where = "" if campaign_id is None else f"campaign {campaign_id!r} "
        part = f"part at index {index}" if part_ids is None else f"part {part_ids[index]}"
        raise UndefinedRoiError(
            f"{where}{part} has no ROI (zero spend); qualify the dataset first")
    m = len(rois)
    first = rois[0]
    if all(r == first for r in rois):
        # Exact path: rounded two-pass variance of constant data need not be 0.
        return ArmSampleStats(first, 0.0, m)
    mean = fsum(rois) / m
    variance = fsum((r - mean) ** 2 for r in rois) / (m - 1)
    return ArmSampleStats(mean, variance, m)


def check_variance_formula(variance_formula: str) -> None:
    if variance_formula not in EFFECT_VARIANCE_MODES:
        raise ConfigError(
            f"variance_formula must be one of {EFFECT_VARIANCE_MODES}, "
            f"got {variance_formula!r}"
        )


def effect_size(
    stats_a: ArmSampleStats,
    stats_b: ArmSampleStats,
    campaign_id: str = "",
    variance_formula: str = "noncentral_t",
) -> EffectSize:
    """Standardized treatment-minus-control effect for one campaign.

    The raw effect is the difference of arm means over the pooled standard
    deviation; the small-sample correction ``1 - 3/(4*df - 1)`` debiases it.
    When the pooled spread is zero with equal means the effect is zero with
    the size-only variance; unequal means with zero spread have no finite
    standardized effect and raise DegenerateEffectError.
    """
    check_variance_formula(variance_formula)
    m_a, m_b = stats_a.m, stats_b.m
    df = m_a + m_b - 2
    pooled_var = ((m_a - 1) * stats_a.variance + (m_b - 1) * stats_b.variance) / df
    pooled_sd = math.sqrt(pooled_var)
    diff = stats_b.mean - stats_a.mean
    correction = small_sample_correction(df)
    if pooled_sd == 0.0:
        if diff != 0.0:
            raise DegenerateEffectError(
                f"campaign {campaign_id!r}: zero pooled spread with unequal means"
            )
        delta = 0.0
        d = 0.0
    else:
        delta = diff / pooled_sd
        d = correction * delta
    size_term = (m_a + m_b) / (m_a * m_b)
    if variance_formula == "noncentral_t":
        quad_term = d * d / (m_a + m_b)
    else:
        quad_term = d * d / (2 * (m_a + m_b))
    v = correction * correction * (size_term + quad_term)
    return EffectSize(
        campaign_id=campaign_id, delta=delta, pooled_sd=pooled_sd, df=df, d=d, v=v,
    )


def fixed_effect_summary(effects: list[EffectSize] | tuple[EffectSize, ...]) -> FixedEffectSummary:
    """Inverse-variance weighted mean of the effects and its variance."""
    summary = random_effect_summary(effects, 0.0)
    return FixedEffectSummary(mu=summary.mu_star, nu=summary.nu_star, n=len(effects))


def weighted_q(effects: Iterable[EffectSize], tau2: float, mu: float) -> float:
    """Squared deviations of the effects around ``mu``, weighted ``w_star(tau2)``."""
    return fsum(e.w_star(tau2) * (e.d - mu) ** 2 for e in effects)


def cochran_q(
    effects: list[EffectSize] | tuple[EffectSize, ...], mu: float
) -> tuple[float, float]:
    """Cochran's Q around ``mu`` and its chi-square p-value with n-1 df.

    A single study is homogeneous by convention: (0, 1).
    """
    n = len(effects)
    if n == 0:
        raise InsufficientDataError("no effects")
    if n == 1:
        return 0.0, 1.0
    q = weighted_q(effects, 0.0, mu)
    return q, chi_square_sf(q, n - 1)


def moments_scale(weights: list[float] | tuple[float, ...]) -> float:
    """The weight functional that scales excess Q into the between-study variance."""
    sum_w = fsum(weights)
    if sum_w == 0.0:
        return 0.0
    return sum_w - fsum(w * w for w in weights) / sum_w


def tau_squared(q: float, n: int, scale: float) -> float:
    """DerSimonian-Laird between-study variance; ``scale`` is ``moments_scale``."""
    if n < 2 or q < n - 1 or scale <= 0.0:
        return 0.0
    return (q - (n - 1)) / scale


def heterogeneity_stats(
    effects: list[EffectSize] | tuple[EffectSize, ...], mu: float
) -> HeterogeneityStats:
    """Bundle Q, its p-value, and the between-study variance for ``effects``."""
    n = len(effects)
    q, p_q = cochran_q(effects, mu)
    lambda_ = moments_scale([e.w for e in effects]) if n >= 2 else 0.0
    return HeterogeneityStats(
        q=q, df=max(n - 1, 0), p_q=p_q, lambda_=lambda_,
        tau2=tau_squared(q, n, lambda_),
    )


def random_effect_summary(
    effects: list[EffectSize] | tuple[EffectSize, ...], tau2: float
) -> RandomEffectSummary:
    """Summary effect with per-study weights ``w_star(tau2)`` = 1/(v + tau2)."""
    if not effects:
        raise InsufficientDataError("no effects to summarize")
    if tau2 < 0:
        raise ValueError(f"tau2 must be >= 0, got {tau2!r}")
    w_star = [e.w_star(tau2) for e in effects]
    sum_w = fsum(w_star)
    mu_star = fsum(w * e.d for w, e in zip(w_star, effects)) / sum_w
    return RandomEffectSummary(mu_star=mu_star, nu_star=1.0 / sum_w)


def z_significance(
    mu_star: float, nu_star: float, confidence_level: float = 0.95
) -> SignificanceResult:
    """Z test of a zero summary effect plus the matching confidence interval.

    The effect is significant when the one-sided tail probability of |Z| is
    below half the complement of the confidence level, which is exactly the
    condition for zero to fall outside the interval.
    """
    if nu_star <= 0 or not math.isfinite(nu_star):
        raise ValueError(f"nu_star must be finite and > 0, got {nu_star!r}")
    if not 0.0 < confidence_level < 1.0:
        raise ConfigError(f"confidence_level must be in (0, 1), got {confidence_level!r}")
    alpha = 1.0 - confidence_level
    se = math.sqrt(nu_star)
    z = mu_star / se
    p_z = normal_cdf(-abs(z))
    half_width = normal_quantile(1.0 - alpha / 2.0) * se
    return SignificanceResult(
        z=z,
        p_z=p_z,
        confidence_level=confidence_level,
        ci_low=mu_star - half_width,
        ci_high=mu_star + half_width,
        significant=p_z < alpha / 2.0,
    )


def summarize_effects(
    effects: list[EffectSize] | tuple[EffectSize, ...], confidence_level: float = 0.95
) -> MetaSummary:
    """Run the whole combination: fixed model, heterogeneity, random model, Z test."""
    fixed = fixed_effect_summary(effects)
    heterogeneity = heterogeneity_stats(effects, fixed.mu)
    random = random_effect_summary(effects, heterogeneity.tau2)
    significance = z_significance(random.mu_star, random.nu_star, confidence_level)
    return MetaSummary(fixed, heterogeneity, random, significance)
