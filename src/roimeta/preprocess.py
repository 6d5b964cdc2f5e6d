"""Noise removal: part-level qualification and campaign disqualification.

A part is dropped when it has too few impressions or zero spend. A campaign
stays in the analysis only if, in each arm, strictly more than
``min_qualified_fraction`` of its original parts survive; ties disqualify.
Every analysis method downstream consumes the same qualified set. Dropped parts
are counted per campaign arm and reason: too few impressions, zero spend, or a
qualified part of a disqualified campaign.
"""

from __future__ import annotations

from typing import NamedTuple

from .campaigns import Arm, ArmColumns, CampaignExperiment, ExperimentDataset
from .errors import ConfigError
from .records import (  # noqa: F401  re-exported
    DisqualifiedCampaign, KeptCampaign, PartExclusions, QualificationRecord, QualifiedParts,
    checked,
)


@checked
class QualificationConfig(NamedTuple):
    min_impressions_per_part: int = 100
    min_qualified_fraction: float = 0.9

    def _check(self):
        if not isinstance(self.min_impressions_per_part, int) or self.min_impressions_per_part < 1:
            raise ConfigError(
                f"min_impressions_per_part must be an integer >= 1, "
                f"got {self.min_impressions_per_part!r}"
            )
        if not 0.0 < self.min_qualified_fraction <= 1.0:
            raise ConfigError(
                f"min_qualified_fraction must be in (0, 1], got {self.min_qualified_fraction!r}"
            )


class QualificationReport(NamedTuple):
    """Outcome of qualification: the surviving dataset plus full exclusion accounting.

    Every input part is counted exactly once, either inside ``qualified`` or in
    ``part_exclusions``.
    """

    qualified: ExperimentDataset
    part_exclusions: tuple[PartExclusions, ...]
    disqualified_campaigns: tuple[DisqualifiedCampaign, ...]
    disqualified_fraction: float


def _screen_parts(columns: ArmColumns, minimum: int) -> tuple[list[int], int, int]:
    """Indices of the arm's parts that qualify, and how many it drops for too
    few impressions and for zero spend."""
    kept: list[int] = []
    low = zero = 0
    for index, (impressions, spend) in enumerate(
            zip(columns.impressions, columns.spend_micros)):
        if impressions < minimum:
            low += 1
        elif spend == 0:
            zero += 1
        else:
            kept.append(index)
    return kept, low, zero


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
    excluded: list[PartExclusions] = []
    disqualified: list[DisqualifiedCampaign] = []
    minimum, frac = config.min_impressions_per_part, config.min_qualified_fraction
    for campaign in dataset.campaigns:
        campaign_id, a, b = campaign
        m_a, m_b = len(a.part_ids), len(b.part_ids)
        # The columns at C speed first: the parts are walked only if one drops.
        if (m_a and m_b and min(a.impressions) >= minimum and min(b.impressions) >= minimum
                and all(a.spend_micros) and all(b.spend_micros)):
            keep_a, keep_b = range(m_a), range(m_b)
            low_a = zero_a = low_b = zero_b = 0
        else:
            keep_a, low_a, zero_a = _screen_parts(a, minimum)
            keep_b, low_b, zero_b = _screen_parts(b, minimum)
        if len(keep_a) > frac * m_a and len(keep_b) > frac * m_b:
            lost_a = lost_b = 0
            retained.append(campaign if not (low_a or zero_a or low_b or zero_b) else
                            CampaignExperiment(campaign_id, _take(a, keep_a), _take(b, keep_b)))
        else:
            lost_a, lost_b = len(keep_a), len(keep_b)
            disqualified.append(DisqualifiedCampaign(
                campaign_id,
                f"qualified parts {len(keep_a)}/{m_a} (A) and "
                f"{len(keep_b)}/{m_b} (B) not above fraction {frac:g}",
            ))
        if low_a or zero_a or lost_a:
            excluded.append(PartExclusions(campaign_id, Arm.CONTROL, low_a, zero_a, lost_a))
        if low_b or zero_b or lost_b:
            excluded.append(PartExclusions(campaign_id, Arm.TREATMENT, low_b, zero_b, lost_b))
    fraction = len(disqualified) / dataset.n if dataset.n else 0.0
    return QualificationReport(
        qualified=ExperimentDataset(tuple(retained)),
        part_exclusions=tuple(excluded),
        disqualified_campaigns=tuple(disqualified),
        disqualified_fraction=fraction,
    )
