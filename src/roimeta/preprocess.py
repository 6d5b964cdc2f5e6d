"""Noise removal: part-level qualification and campaign disqualification.

A part is dropped when it has too few impressions or zero spend. A campaign
stays in the analysis only if, in each arm, strictly more than
``min_qualified_fraction`` of its original parts survive; ties disqualify.
Every analysis method downstream consumes the same qualified set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .campaigns import Arm, CampaignExperiment, ExperimentDataset, PartMeasurement
from .errors import ConfigError


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
class ExcludedPart:
    campaign_id: str
    arm: Arm
    part_id: int
    reason: str


@dataclass(frozen=True)
class DisqualifiedCampaign:
    campaign_id: str
    reason: str


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
    parts: tuple[PartMeasurement, ...], config: QualificationConfig
) -> tuple[list[PartMeasurement], list[ExcludedPart]]:
    kept: list[PartMeasurement] = []
    dropped: list[ExcludedPart] = []
    for part in parts:
        if part.impressions < config.min_impressions_per_part:
            dropped.append(ExcludedPart(
                part.campaign_id, part.arm, part.part_id,
                f"impressions {part.impressions} below minimum "
                f"{config.min_impressions_per_part}",
            ))
        elif part.spend == 0:
            dropped.append(ExcludedPart(
                part.campaign_id, part.arm, part.part_id, "zero spend, ROI undefined",
            ))
        else:
            kept.append(part)
    return kept, dropped


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
        keep_a, drop_a = _screen_parts(campaign.parts_a, config)
        keep_b, drop_b = _screen_parts(campaign.parts_b, config)
        excluded.extend(drop_a)
        excluded.extend(drop_b)
        frac = config.min_qualified_fraction
        ok_a = len(keep_a) > frac * campaign.m_a
        ok_b = len(keep_b) > frac * campaign.m_b
        if ok_a and ok_b:
            retained.append(campaign if not (drop_a or drop_b) else CampaignExperiment(
                campaign.campaign_id, keep_a, keep_b))
        else:
            disqualified.append(DisqualifiedCampaign(
                campaign.campaign_id,
                f"qualified parts {len(keep_a)}/{campaign.m_a} (A) and "
                f"{len(keep_b)}/{campaign.m_b} (B) not above fraction {frac:g}",
            ))
            for part in keep_a + keep_b:
                excluded.append(ExcludedPart(
                    part.campaign_id, part.arm, part.part_id, "campaign disqualified",
                ))
    fraction = len(disqualified) / dataset.n if dataset.n else 0.0
    return QualificationReport(
        qualified=ExperimentDataset(tuple(retained), metadata=dict(dataset.metadata)),
        excluded_parts=tuple(excluded),
        disqualified_campaigns=tuple(disqualified),
        disqualified_fraction=fraction,
    )
