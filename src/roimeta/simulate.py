"""Seeded synthetic experiments for exercising the evaluation machinery.

Generates heterogeneous campaigns with lognormal budgets (orders-of-magnitude
disparities), per-campaign ROI levels, and per-part multiplicative lognormal
noise, with an optional treatment lift. The highest-budget campaigns can be
designated outliers that receive their own lift, which is the scenario where
spend-weighted and meta-analytic evaluations disagree.

Output is fully determined by the seed: every campaign draws from its own
hash-keyed substream, so generation is independent of execution order and
stable across platforms. Parameter defaults are chosen for test coverage, not
for fidelity to any production traffic.

Each arm is built as integer micro columns, quantized and with ROIs derived as
ingest does, so a dataset gives the same report bytes in memory as after a
6-decimal file round trip. Each campaign's stream gives its budget and ROI
level as one block of two draws, then each arm as one block, in the order a
part-by-part loop would take them: each part's ROI noise, then its impressions.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .campaigns import (
    MAX_AMOUNT, MICROS_PER_UNIT, CampaignExperiment, ExperimentDataset, arm_columns, check_amount,
)
from .errors import ConfigError
from .randomness import HashStream, poisson_quantiles
from .statfuncs import normal_quantile


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one synthetic experiment; ``seed`` pins everything.

    ``part_noise_sd = 0`` gives every part of an arm one ROI, so no campaign
    has a pooled spread: effect-size screening excludes them all and
    ``evaluate`` raises ``NoQualifiedCampaignsError``.
    """

    n_campaigns: int = 20
    m_a: int = 10
    m_b: int = 10
    treatment_share: float = 0.1
    budget_log_mean: float = 8.0
    budget_log_sd: float = 2.0
    base_roi_mean: float = 1.0
    campaign_roi_sd: float = 0.25
    part_noise_sd: float = 0.1
    treatment_lift: float = 0.0
    outlier_campaigns: int = 0
    outlier_lift: float = 0.0
    impressions_per_part_mean: float = 2000.0
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.n_campaigns < 1:
            raise ConfigError(f"n_campaigns must be >= 1, got {self.n_campaigns!r}")
        if self.m_a < 2 or self.m_b < 2:
            raise ConfigError(f"need >= 2 parts per arm, got m_a={self.m_a}, m_b={self.m_b}")
        if not 0.0 <= self.treatment_share <= 1.0:
            raise ConfigError(f"treatment_share must be in [0, 1], got {self.treatment_share!r}")
        if self.part_noise_sd < 0 or self.campaign_roi_sd < 0 or self.budget_log_sd < 0:
            raise ConfigError("spread parameters must be >= 0")
        if self.base_roi_mean <= 0:
            raise ConfigError(f"base_roi_mean must be > 0, got {self.base_roi_mean!r}")
        if self.treatment_lift <= -1.0 or self.outlier_lift <= -1.0:
            raise ConfigError("multiplicative lifts must be > -1")
        if not 0 <= self.outlier_campaigns <= self.n_campaigns:
            raise ConfigError("outlier_campaigns must be between 0 and n_campaigns")
        if self.impressions_per_part_mean < 0:
            raise ConfigError("impressions_per_part_mean must be >= 0")


def _noise_factors(sd: float, draws: list[float]) -> list[float]:
    """Mean-one lognormal factors, one per uniform in ``draws``; exactly 1 when sd == 0,
    though the caller has still spent the draws, so stream positions do not depend on sd."""
    if sd == 0.0:
        return [1.0] * len(draws)
    half_var = 0.5 * sd * sd  # sd * z - sd * sd / 2 <= z * z / 2 cannot overflow
    return [math.exp(sd * normal_quantile(u) - half_var) for u in draws]


def _campaign_stream(seed: int, index: int) -> HashStream:
    return HashStream("sim", seed, "campaign", index)


def generate_experiment(config: SimConfig) -> ExperimentDataset:
    """Generate one experiment dataset, byte-stable for a given config."""
    streams = [_campaign_stream(config.seed, i) for i in range(config.n_campaigns)]
    draws = [s.uniforms(2) for s in streams]  # each campaign's budget, then its level
    try:
        budgets = [math.exp(config.budget_log_mean + config.budget_log_sd * normal_quantile(u))
                   for u, _ in draws]
    except OverflowError:
        raise ConfigError(
            f"simulated budget is too large for a float (budget_log_mean = "
            f"{config.budget_log_mean!r}, budget_log_sd = {config.budget_log_sd!r})") from None
    by_budget = sorted(range(config.n_campaigns), key=lambda i: (-budgets[i], i))
    outliers = set(by_budget[: config.outlier_campaigns])
    level_factors = _noise_factors(config.campaign_roi_sd, [u for _, u in draws])

    lam = config.impressions_per_part_mean
    # per arm, in draw order: (m, spend_micros, value_micros); the impression
    # draws wait as doubles, not float objects, for one poisson_quantiles call
    arms, impression_draws = [], array("d")
    for i in range(config.n_campaigns):
        level = config.base_roi_mean * level_factors[i]
        lift = config.outlier_lift if i in outliers else config.treatment_lift
        for m, share, roi_level in ((config.m_a, 1.0 - config.treatment_share, level),
                                    (config.m_b, config.treatment_share, level * (1.0 + lift))):
            # part j's ROI noise is draw 2j, its impressions draw 2j + 1 (draw j alone at mean 0)
            draws = streams[i].uniforms(2 * m if lam > 0 else m)
            if lam > 0:
                impression_draws.extend(draws[1::2])
                draws = draws[::2]
            spend = budgets[i] * share / m
            arms.append((m, *_arm_money(spend, roi_level, config.part_noise_sd, draws)))
    # one call for every arm, so that its boundary table pays
    impressions = (poisson_quantiles(lam, impression_draws) if lam > 0
                   else [0] * (config.n_campaigns * (config.m_a + config.m_b)))
    columns, position = [], 0
    for m, spend_micros, value_micros in arms:
        columns.append(arm_columns(range(m), impressions[position:position + m],
                                   (spend_micros,) * m, value_micros))
        position += m
    width = len(str(config.n_campaigns - 1))
    return ExperimentDataset(tuple(
        CampaignExperiment(f"camp_{i:0{width}d}", columns[2 * i], columns[2 * i + 1])
        for i in range(config.n_campaigns)))


def _arm_money(spend: float, roi_level: float, sd: float,
               draws: list[float]) -> tuple[int, list[int]]:
    """One arm's spend per part and its parts' values, in micro-units, part i's
    ROI noise from ``draws[i]``."""
    values = [roi_level * f * spend for f in _noise_factors(sd, draws)]
    try:
        check_amount("spend", spend)
        # a column that passes this one test passes check_amount value by value;
        # any other is checked value by value, so the first failure words the error
        if not (0.0 <= min(values) and sum(values) <= MAX_AMOUNT):
            for value in values:
                check_amount("value", value)
    except ValueError as exc:
        raise ConfigError(f"simulated {exc}") from None
    # to_micros, inlined
    return round(spend * MICROS_PER_UNIT), [round(v * MICROS_PER_UNIT) for v in values]
