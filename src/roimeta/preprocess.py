"""Noise removal: part-level qualification and campaign disqualification.

A part is dropped when it has too few impressions or zero spend. A campaign
stays in the analysis only if, in each arm, strictly more than
``min_qualified_fraction`` of its original parts survive; ties disqualify.
Every analysis method downstream consumes the same qualified set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .campaigns import Arm, ArmColumns, CampaignExperiment, ExperimentDataset
from .errors import ConfigError
from .records import (  # noqa: F401  re-exported
    DisqualifiedCampaign, ExcludedPart, KeptCampaign, QualificationRecord, QualifiedParts,
)


@dataclass(frozen=True)
class QualificationConfig:
    min_impressions_per_part: int = 100
    min_qualified_fraction: float = 0.9

    def __post_init__(self):
        if not isinstance(self.min_impressions_per_part, int) or self.min_impressions_per_part < 1:
            raise ConfigError(
                f"min_impressions_per_part must be an integer >= 1, "
                f"got {self.min_impressions_per_part!r}"
            )
        if not 0.0 < self.min_qualified_fraction <= 1.0:
            raise ConfigError(
                f"min_qualified_fraction must be in (0, 1], got {self.min_qualified_fraction!r}"
            )


@dataclass(frozen=True)
class QualificationReport:
    """Outcome of qualification: the surviving dataset plus full exclusion accounting.

    Every input part appears exactly once, either inside ``qualified`` or in
    ``excluded_parts``.
    """

    qualified: ExperimentDataset
    excluded_parts: tuple[ExcludedPart, ...]
    disqualified_campaigns: tuple[DisqualifiedCampaign, ...]
    disqualified_fraction: float


def _screen_parts(
    campaign_id: str, arm: Arm, columns: ArmColumns, config: QualificationConfig
) -> tuple[list[int], list[ExcludedPart]]:
    """Indices of the arm's parts that qualify, and the dropped parts."""
    minimum = config.min_impressions_per_part
    kept: list[int] = []
    dropped: list[ExcludedPart] = []
    for index, (part_id, impressions, spend) in enumerate(
            zip(columns.part_ids, columns.impressions, columns.spend_micros)):
        if impressions < minimum:
            reason = f"impressions {impressions} below minimum {minimum}"
        elif spend == 0:
            reason = "zero spend, ROI undefined"
        else:
            kept.append(index)
            continue
        dropped.append(ExcludedPart(campaign_id, arm, part_id, reason))
    return kept, dropped


def _take(columns: ArmColumns, indices: list[int]) -> ArmColumns:
    return ArmColumns._make(tuple([column[i] for i in indices]) for column in columns)


def qualify(
    dataset: ExperimentDataset, config: QualificationConfig = QualificationConfig()
) -> QualificationReport:
    """Screen parts, then disqualify campaigns that lost more than allowed.

    A campaign is retained iff its qualified part count in each arm is strictly
    greater than ``min_qualified_fraction`` times that arm's original part
    count. Retained campaigns keep only their qualified parts. An empty
    qualified set is a valid, reportable outcome.
    """
    retained: list[CampaignExperiment] = []
    excluded: list[ExcludedPart] = []
    disqualified: list[DisqualifiedCampaign] = []
    for campaign in dataset.campaigns:
        campaign_id, a, b = campaign.campaign_id, campaign.a, campaign.b
        keep_a, drop_a = _screen_parts(campaign_id, Arm.CONTROL, a, config)
        keep_b, drop_b = _screen_parts(campaign_id, Arm.TREATMENT, b, config)
        excluded.extend(drop_a)
        excluded.extend(drop_b)
        frac = config.min_qualified_fraction
        ok_a = len(keep_a) > frac * campaign.m_a
        ok_b = len(keep_b) > frac * campaign.m_b
        if ok_a and ok_b:
            retained.append(campaign if not (drop_a or drop_b) else
                            CampaignExperiment.from_columns(
                                campaign_id, _take(a, keep_a), _take(b, keep_b)))
        else:
            disqualified.append(DisqualifiedCampaign(
                campaign_id,
                f"qualified parts {len(keep_a)}/{campaign.m_a} (A) and "
                f"{len(keep_b)}/{campaign.m_b} (B) not above fraction {frac:g}",
            ))
            for arm, columns, kept in ((Arm.CONTROL, a, keep_a), (Arm.TREATMENT, b, keep_b)):
                excluded.extend(ExcludedPart(campaign_id, arm, columns.part_ids[i],
                                             "campaign disqualified") for i in kept)
    fraction = len(disqualified) / dataset.n if dataset.n else 0.0
    return QualificationReport(
        qualified=ExperimentDataset(tuple(retained)),
        excluded_parts=tuple(excluded),
        disqualified_campaigns=tuple(disqualified),
        disqualified_fraction=fraction,
    )
