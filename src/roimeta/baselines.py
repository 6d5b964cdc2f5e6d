"""Micro- and macro-averaged ROI deltas and their A/A threshold calibration.

Micro pools value and spend over all campaigns before dividing, which equals
the spend-weighted average of per-campaign ROIs and so favors big spenders.
Macro averages (or takes the median of) per-campaign ROI differences, which
treats campaigns equally but is outlier sensitive. Both accept the treatment
only when the delta clears a threshold estimated from A/A splits of control
traffic: the noise floor of the whole system.
"""

from __future__ import annotations

import statistics
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from math import fsum

from .campaigns import (
    Arm,
    CampaignExperiment,
    ExperimentDataset,
    arm_totals,
    from_micros,
    to_micros,
)
from .errors import ConfigError, InsufficientDataError, UndefinedRoiError
from .randomness import HashStream


class BaselineMethod(str, Enum):
    MICRO = "micro"
    MACRO = "macro"
    MACRO_MEDIAN = "macro_median"


class BaselineDecision(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"


@dataclass(frozen=True)
class BaselineResult:
    method: BaselineMethod
    statistic: float
    threshold_theta: float
    decision: BaselineDecision


@dataclass(frozen=True)
class AaCalibration:
    """Threshold estimate: mean statistic over seeded A/A pseudo-experiments."""

    repeats_k: int
    split_seed: int
    per_repeat_stats: tuple[float, ...]
    theta: float


def micro_roi(dataset: ExperimentDataset, arm: Arm) -> float:
    """Pooled ROI of one arm: total value over total spend across campaigns."""
    spend_micros = 0
    value_micros = 0
    for campaign in dataset.campaigns:
        parts = campaign.parts_a if arm is Arm.CONTROL else campaign.parts_b
        spend_micros += sum(to_micros(p.spend) for p in parts)
        value_micros += sum(to_micros(p.value) for p in parts)
    if spend_micros <= 0:
        raise UndefinedRoiError(f"arm {arm.value}: total spend over all campaigns is zero")
    return from_micros(value_micros) / from_micros(spend_micros)


def micro_delta(dataset: ExperimentDataset) -> float:
    """Treatment-minus-control difference of pooled ROIs."""
    return micro_roi(dataset, Arm.TREATMENT) - micro_roi(dataset, Arm.CONTROL)


def _campaign_roi_diff(campaign: CampaignExperiment) -> float:
    for parts, arm in ((campaign.parts_a, Arm.CONTROL), (campaign.parts_b, Arm.TREATMENT)):
        if not parts:
            raise UndefinedRoiError(
                f"campaign {campaign.campaign_id!r} has no parts for arm {arm.value}"
            )
    return arm_totals(campaign.parts_b).roi - arm_totals(campaign.parts_a).roi


def macro_delta(dataset: ExperimentDataset, aggregator: str = "mean") -> float:
    """Mean (or median) of per-campaign treatment-minus-control ROI differences."""
    if aggregator not in ("mean", "median"):
        raise ConfigError(f"aggregator must be 'mean' or 'median', got {aggregator!r}")
    if not dataset.campaigns:
        raise InsufficientDataError("no campaigns")
    diffs = [_campaign_roi_diff(c) for c in dataset.campaigns]
    if aggregator == "median":
        return statistics.median(diffs)
    return fsum(diffs) / len(diffs)


def _split_once(
    campaign: CampaignExperiment, share_b: float, stream: HashStream
) -> CampaignExperiment:
    """Split one campaign's control parts into pseudo control/treatment arms."""
    m = campaign.m_a
    order = list(range(m))
    stream.shuffle(order)
    n_b = min(max(round(m * share_b), 1), m - 1)
    chosen = set(order[:n_b])
    pseudo_a = [p for j, p in enumerate(campaign.parts_a) if j not in chosen]
    pseudo_b = [
        replace(p, arm=Arm.TREATMENT)
        for j, p in enumerate(campaign.parts_a)
        if j in chosen
    ]
    return CampaignExperiment(campaign.campaign_id, pseudo_a, pseudo_b)


def aa_calibrate(
    dataset: ExperimentDataset,
    split_ratio: tuple[float, float] = (0.5, 0.5),
    repeats_k: int = 5,
    seed: int = 0,
) -> dict[BaselineMethod, AaCalibration]:
    """Estimate every baseline's decision threshold from repeated A/A splits.

    Each repeat splits every campaign's control parts (at least two required;
    campaigns with fewer are skipped with a warning) into disjoint pseudo-arms
    with part counts proportional to ``split_ratio``, computes each method's
    statistic on that one pseudo-experiment, and each threshold is the signed
    mean of its statistic over repeats. Splits derive deterministically from
    (seed, repeat, campaign_id), so repeats are replayable and order
    independent.
    """
    total = split_ratio[0] + split_ratio[1]
    if split_ratio[0] <= 0 or split_ratio[1] <= 0:
        raise ConfigError(f"split_ratio parts must be positive, got {split_ratio!r}")
    if not isinstance(repeats_k, int) or repeats_k < 1:
        raise ConfigError(f"repeats_k must be an integer >= 1, got {repeats_k!r}")
    share_b = split_ratio[1] / total
    eligible = [c for c in dataset.campaigns if c.m_a >= 2]
    skipped = [c.campaign_id for c in dataset.campaigns if c.m_a < 2]
    if skipped:
        warnings.warn(
            f"excluded {len(skipped)} campaign(s) with fewer than 2 control parts "
            f"from A/A calibration: {', '.join(skipped[:5])}"
            + ("..." if len(skipped) > 5 else "")
        )
    if not eligible:
        raise InsufficientDataError("no campaign has >= 2 control parts to split")
    per_repeat: dict[BaselineMethod, list[float]] = {m: [] for m in BaselineMethod}
    for k in range(repeats_k):
        pseudo = ExperimentDataset(
            tuple(
                _split_once(c, share_b, HashStream("aa-split", seed, k, c.campaign_id))
                for c in eligible
            )
        )
        per_repeat[BaselineMethod.MICRO].append(micro_delta(pseudo))
        per_repeat[BaselineMethod.MACRO].append(macro_delta(pseudo, "mean"))
        per_repeat[BaselineMethod.MACRO_MEDIAN].append(macro_delta(pseudo, "median"))
    return {
        method: AaCalibration(
            repeats_k=repeats_k,
            split_seed=seed,
            per_repeat_stats=tuple(stats),
            theta=fsum(stats) / repeats_k,
        )
        for method, stats in per_repeat.items()
    }


def threshold_decision(statistic: float, theta: float) -> BaselineDecision:
    """Accept only when the statistic strictly exceeds the threshold."""
    return BaselineDecision.ACCEPT if statistic > theta else BaselineDecision.REJECT
