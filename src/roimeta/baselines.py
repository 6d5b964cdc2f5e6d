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
from dataclasses import dataclass
from enum import Enum
from math import fsum

from .campaigns import (
    Arm,
    ExperimentDataset,
    micro_totals,
    roi_of_micros,
    to_micros,
)
from .errors import ConfigError, InsufficientDataError
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
    parts = [c.parts_a if arm is Arm.CONTROL else c.parts_b for c in dataset.campaigns]
    totals = [micro_totals(p) for p in parts]
    return roi_of_micros(sum(t[0] for t in totals), sum(t[1] for t in totals), arm)


def micro_delta(dataset: ExperimentDataset) -> float:
    """Treatment-minus-control difference of pooled ROIs."""
    return micro_roi(dataset, Arm.TREATMENT) - micro_roi(dataset, Arm.CONTROL)


def macro_delta(dataset: ExperimentDataset, aggregator: str = "mean") -> float:
    """Mean (or median) of per-campaign treatment-minus-control ROI differences."""
    if aggregator not in ("mean", "median"):
        raise ConfigError(f"aggregator must be 'mean' or 'median', got {aggregator!r}")
    if not dataset.campaigns:
        raise InsufficientDataError("no campaigns")
    diffs = [
        roi_of_micros(*micro_totals(c.parts_b), Arm.TREATMENT, c.campaign_id)
        - roi_of_micros(*micro_totals(c.parts_a), Arm.CONTROL, c.campaign_id)
        for c in dataset.campaigns
    ]
    if aggregator == "median":
        return statistics.median(diffs)
    return fsum(diffs) / len(diffs)


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

    Column kernel: each call reads eligible campaigns' control spend and value
    into integer micro-unit lists once; a repeat shuffles an index list, sums
    the chosen pseudo-treatment indices, gets pseudo-control by subtraction
    and takes the float steps of ``micro_delta`` and ``macro_delta``.
    """
    if split_ratio[0] <= 0 or split_ratio[1] <= 0:
        raise ConfigError(f"split_ratio parts must be positive, got {split_ratio!r}")
    if not isinstance(repeats_k, int) or repeats_k < 1:
        raise ConfigError(f"repeats_k must be an integer >= 1, got {repeats_k!r}")
    share_b = split_ratio[1] / (split_ratio[0] + split_ratio[1])
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
    columns = []
    for campaign in eligible:
        spends = [to_micros(p.spend) for p in campaign.parts_a]
        values = [to_micros(p.value) for p in campaign.parts_a]
        n_b = min(max(round(len(spends) * share_b), 1), len(spends) - 1)
        columns.append((campaign.campaign_id, spends, values, sum(spends), sum(values), n_b))
    per_repeat: dict[BaselineMethod, list[float]] = {m: [] for m in BaselineMethod}
    for k in range(repeats_k):
        arms = []  # pseudo-arm micro totals (spend_a, value_a, spend_b, value_b)
        for campaign_id, spends, values, spend, value, n_b in columns:
            order = list(range(len(spends)))
            HashStream("aa-split", seed, k, campaign_id).shuffle(order)
            spend_b = sum([spends[j] for j in order[:n_b]])
            value_b = sum([values[j] for j in order[:n_b]])
            arms.append((spend - spend_b, value - value_b, spend_b, value_b))
        spend_a, value_a, spend_b, value_b = map(sum, zip(*arms))
        per_repeat[BaselineMethod.MICRO].append(
            roi_of_micros(spend_b, value_b, Arm.TREATMENT)
            - roi_of_micros(spend_a, value_a, Arm.CONTROL)
        )
        diffs = [
            roi_of_micros(sb, vb, Arm.TREATMENT, column[0])
            - roi_of_micros(sa, va, Arm.CONTROL, column[0])
            for column, (sa, va, sb, vb) in zip(columns, arms)
        ]
        per_repeat[BaselineMethod.MACRO].append(fsum(diffs) / len(diffs))
        per_repeat[BaselineMethod.MACRO_MEDIAN].append(statistics.median(diffs))
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
