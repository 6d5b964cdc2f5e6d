"""Micro- and macro-averaged ROI deltas and their A/A threshold calibration.

Micro pools value and spend over all campaigns before dividing, which equals
the spend-weighted average of per-campaign ROIs and so favors big spenders.
Macro averages (or takes the median of) per-campaign ROI differences, which
treats campaigns equally but is outlier sensitive. Both accept the treatment
only when the delta clears a threshold estimated from A/A splits of control
traffic: the noise floor of the whole system.

``aa_calibrate`` is the one A/A entry point. It resolves the pseudo-treatment
share itself: the configured ``AaSettings.treatment_share``, else the
``observed_share`` of arm-B spend in the campaigns' micro totals.
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

MicroTotals = dict[str, tuple[int, int, int, int]]  # see campaign_micro_totals


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
class AaSettings:
    """A/A calibration parameters; ``treatment_share`` overrides the share
    observed in the data (see ``aa_calibrate``)."""

    repeats_k: int = 5
    seed: int = 0
    treatment_share: float | None = None

    def __post_init__(self):
        if not isinstance(self.repeats_k, int) or self.repeats_k < 1:
            raise ConfigError(f"repeats_k must be an integer >= 1, got {self.repeats_k!r}")
        if self.treatment_share is not None and not 0.0 < self.treatment_share < 1.0:
            raise ConfigError(
                f"treatment_share must be in (0, 1), got {self.treatment_share!r}"
            )


@dataclass(frozen=True)
class AaCalibration:
    """Threshold estimate: mean statistic over seeded A/A pseudo-experiments."""

    repeats_k: int
    split_seed: int
    per_repeat_stats: tuple[float, ...]
    theta: float


def campaign_micro_totals(dataset: ExperimentDataset) -> MicroTotals:
    """Exact (spend_a, value_a, spend_b, value_b) micro-units of each campaign, by
    id in dataset order: what the deltas below read."""
    return {c.campaign_id: micro_totals(c.parts_a) + micro_totals(c.parts_b)
            for c in dataset.campaigns}


def observed_share(totals: MicroTotals) -> float:
    """Arm-B spend over all spend, summed exactly from the micro ``totals``, so
    the same parts give the same share however they were read."""
    spend_b = sum(t[2] for t in totals.values())
    spend = spend_b + sum(t[0] for t in totals.values())
    if not 0 < spend_b < spend:
        raise InsufficientDataError("no treatment share without spend in both arms")
    return spend_b / spend


def micro_roi(totals: MicroTotals, arm: Arm) -> float:
    """Pooled ROI of one arm: total value over total spend across campaigns."""
    i = 0 if arm is Arm.CONTROL else 2
    spend = sum(t[i] for t in totals.values())
    return roi_of_micros(spend, sum(t[i + 1] for t in totals.values()), arm)


def micro_delta(totals: MicroTotals) -> float:
    """Treatment-minus-control difference of pooled ROIs."""
    return micro_roi(totals, Arm.TREATMENT) - micro_roi(totals, Arm.CONTROL)


def _roi_diffs(totals: MicroTotals) -> list[float]:
    """Per-campaign treatment-minus-control ROI differences, in totals order."""
    if not totals:
        raise InsufficientDataError("no campaigns")
    return [
        roi_of_micros(spend_b, value_b, Arm.TREATMENT, campaign_id)
        - roi_of_micros(spend_a, value_a, Arm.CONTROL, campaign_id)
        for campaign_id, (spend_a, value_a, spend_b, value_b) in totals.items()
    ]


def macro_delta(totals: MicroTotals, aggregator: str = "mean") -> float:
    """Mean (or median) of per-campaign treatment-minus-control ROI differences."""
    if aggregator not in ("mean", "median"):
        raise ConfigError(f"aggregator must be 'mean' or 'median', got {aggregator!r}")
    diffs = _roi_diffs(totals)
    if aggregator == "median":
        return statistics.median(diffs)
    return fsum(diffs) / len(diffs)


def aa_calibrate(
    dataset: ExperimentDataset, totals: MicroTotals, settings: AaSettings
) -> dict[BaselineMethod, AaCalibration]:
    """Estimate every baseline's decision threshold from repeated A/A splits.

    Each repeat splits every campaign's control parts (at least two required;
    campaigns with fewer are skipped with a warning) into disjoint pseudo-arms,
    ``settings.treatment_share`` of them (else the ``observed_share`` of
    ``totals``) pseudo-treatment, computes each method's statistic on that one
    pseudo-experiment, and each threshold is the signed mean of its statistic
    over repeats. Splits derive deterministically from (seed, repeat,
    campaign_id), so repeats are replayable and order independent.

    Column kernel: each call reads eligible campaigns' control spend and value
    into integer micro-unit lists once; a repeat shuffles an index list, sums
    the chosen pseudo-treatment indices, gets pseudo-control by subtraction
    and passes those micro totals to ``micro_delta`` and ``_roi_diffs``.
    """
    share_b = settings.treatment_share or observed_share(totals)  # a share is never 0
    repeats_k, seed = settings.repeats_k, settings.seed
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
        arms: MicroTotals = {}  # the pseudo-arms' totals
        for campaign_id, spends, values, spend, value, n_b in columns:
            order = list(range(len(spends)))
            HashStream("aa-split", seed, k, campaign_id).shuffle(order)
            spend_b = sum([spends[j] for j in order[:n_b]])
            value_b = sum([values[j] for j in order[:n_b]])
            arms[campaign_id] = (spend - spend_b, value - value_b, spend_b, value_b)
        per_repeat[BaselineMethod.MICRO].append(micro_delta(arms))
        diffs = _roi_diffs(arms)  # macro_delta's, shared by mean and median
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
