"""Per-campaign effect sizes and their random-effects combination.

Each campaign is one study: the standardized difference of treatment-vs-control
part ROIs (pooled-variance scaling, small-sample correction, noncentral-t
variance) is combined across campaigns by inverse-variance weighting.
Between-campaign variance comes from the DerSimonian-Laird method of moments;
the summary effect is tested with a Z statistic and reported with a symmetric
confidence interval. ``summarize_effects`` runs that whole chain; ``subgroups``
reuses its ``random_effect_summary``, ``weighted_q`` and ``z_significance``.
The chain takes each study as an (estimate, variance) pair, ``(d, v)`` for an
``EffectSize``, so it serves any estimate that comes with its variance.

The fixed model is the random model at tau2 = 0 (``1/(v + 0.0) == 1/v == w``),
and every Q, Cochran's and the subgroups', is one ``weighted_q``. The weights
and the corrected ``d`` are the ``EffectSize`` record's own expressions, so a
decoded report recomputes the same floats.

All accumulations use exactly rounded summation (``math.fsum``), so results do
not depend on campaign iteration order.
"""

import math
from collections.abc import Iterable, Sequence
from itertools import repeat
from math import fsum
from operator import sub
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
    if rois.count(first) == m:
        # Exact path: rounded two-pass variance of constant data need not be 0.
        return ArmSampleStats(first, 0.0, m)
    mean = fsum(rois) / m
    variance = fsum(map(pow, map(sub, rois, repeat(mean)), repeat(2))) / (m - 1)
    return ArmSampleStats(mean, variance, m)


def effect_size(
    stats_a: ArmSampleStats, stats_b: ArmSampleStats, campaign_id: str = ""
) -> EffectSize:
    """Standardized treatment-minus-control effect for one campaign.

    The raw effect is the difference of arm means over the pooled standard
    deviation; the small-sample correction ``1 - 3/(4*df - 1)`` debiases it.
    Its variance is the noncentral-t approximation
    ``c^2 * ((m_a + m_b)/(m_a*m_b) + d^2/(m_a + m_b))``. When the pooled spread
    is zero with equal means the effect is zero with the size-only variance;
    unequal means with zero spread have no finite standardized effect and raise
    DegenerateEffectError.
    """
    m_a, m_b = stats_a.m, stats_b.m
    df = m_a + m_b - 2
    pooled_var = ((m_a - 1) * stats_a.variance + (m_b - 1) * stats_b.variance) / df
    pooled_sd = math.sqrt(pooled_var)
    diff = stats_b.mean - stats_a.mean
    correction = small_sample_correction(df)
    if pooled_sd == 0.0 and diff != 0.0:
        raise DegenerateEffectError(
            f"campaign {campaign_id!r}: zero pooled spread with unequal means"
        )
    delta = 0.0 if pooled_sd == 0.0 else diff / pooled_sd
    d = correction * delta  # EffectSize.d
    size_term = (m_a + m_b) / (m_a * m_b)
    v = correction * correction * (size_term + d * d / (m_a + m_b))
    return EffectSize(
        campaign_id=campaign_id, delta=delta, pooled_sd=pooled_sd, df=df, v=v,
    )


Pairs = Sequence[tuple[float, float]]  # one (estimate, variance) pair per study


def weighted_q(pairs: Iterable[tuple[float, float]], tau2: float, mu: float) -> float:
    """Squared deviations of the estimates around ``mu``, weighted 1/(v + tau2)."""
    return fsum(1.0 / (v + tau2) * (d - mu) ** 2 for d, v in pairs)


def random_effect_summary(pairs: Pairs, tau2: float) -> RandomEffectSummary:
    """Summary effect with per-study weights ``w_star(tau2)`` = 1/(v + tau2)."""
    if not pairs:
        raise InsufficientDataError("no effects to summarize")
    if tau2 < 0:
        raise ValueError(f"tau2 must be >= 0, got {tau2!r}")
    w_star = [1.0 / (v + tau2) for _, v in pairs]
    sum_w = fsum(w_star)
    mu_star = fsum(w * d for w, (d, _) in zip(w_star, pairs)) / sum_w
    return RandomEffectSummary(mu_star=mu_star, nu_star=1.0 / sum_w)


def z_significance(mu_star: float, nu_star: float, confidence_level: float) -> SignificanceResult:
    """Z test of a zero summary effect plus the matching confidence interval.

    In exact arithmetic, ``p_z`` (the one-sided tail probability of |Z|) is below
    half the complement of the confidence level just when zero falls outside the
    interval. The two are computed by different float paths, though, and can
    disagree at that edge, so the verdict reads the interval alone.
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
    )


def summarize_effects(pairs: Pairs, confidence_level: float) -> MetaSummary:
    """Run the whole combination over (estimate, variance) ``pairs``: fixed model,
    heterogeneity, random model, Z test.

    Cochran's Q is taken around the fixed mean with n - 1 degrees of freedom; a
    single study is homogeneous by convention (Q = 0, p = 1, lambda = 0). The
    DerSimonian-Laird tau2 is (Q - (n - 1)) / lambda, with the weight functional
    lambda = sum(w) - sum(w^2) / sum(w), and 0 when Q < n - 1 or lambda <= 0.
    """
    fixed_model = random_effect_summary(pairs, 0.0)
    n = len(pairs)
    q, p_q, lambda_ = 0.0, 1.0, 0.0
    if n >= 2:
        q = weighted_q(pairs, 0.0, fixed_model.mu_star)
        p_q = chi_square_sf(q, n - 1)
        weights = [1.0 / v for _, v in pairs]
        sum_w = fsum(weights)
        if sum_w != 0.0:
            lambda_ = sum_w - fsum(w * w for w in weights) / sum_w
    tau2 = 0.0 if q < n - 1 or lambda_ <= 0.0 else (q - (n - 1)) / lambda_
    random = random_effect_summary(pairs, tau2)
    return MetaSummary(
        FixedEffectSummary(mu=fixed_model.mu_star, nu=fixed_model.nu_star, n=n),
        HeterogeneityStats(q=q, df=n - 1, p_q=p_q, lambda_=lambda_, tau2=tau2),
        random,
        z_significance(random.mu_star, random.nu_star, confidence_level),
    )
