"""Campaign domain model: arms, traffic parts, campaigns, and ROI.

Monetary amounts are quantized to integer micro-units at construction time so
that aggregation is bit-exact and independent of summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import UndefinedRoiError

MICROS_PER_UNIT = 1_000_000


class Arm(Enum):
    """Experiment arm: control runs the incumbent model, treatment the candidate."""

    CONTROL = "A"
    TREATMENT = "B"


def to_micros(amount: float) -> int:
    """Quantize a currency amount to integer micro-units."""
    if not math.isfinite(amount):
        raise ValueError(f"non-finite currency amount: {amount!r}")
    return round(amount * MICROS_PER_UNIT)


def from_micros(micros: int) -> float:
    return micros / MICROS_PER_UNIT


@dataclass(frozen=True)
class PartMeasurement:
    """One traffic part's impressions, spend, value, and ROI for one arm of one campaign.

    ``roi`` is derived as value/spend when spend > 0 and left None otherwise;
    pre-aggregated sources may pass an explicit ``roi`` instead.
    """

    campaign_id: str
    arm: Arm
    part_id: int
    impressions: int
    spend: float
    value: float
    roi: float | None = None

    def __post_init__(self):
        if not isinstance(self.campaign_id, str) or not self.campaign_id:
            raise ValueError("campaign_id must be non-empty text")
        if not isinstance(self.arm, Arm):
            raise ValueError(f"arm must be an Arm, got {self.arm!r}")
        if not isinstance(self.part_id, int) or isinstance(self.part_id, bool) or self.part_id < 0:
            raise ValueError(f"part_id must be a non-negative integer, got {self.part_id!r}")
        if not isinstance(self.impressions, int) or isinstance(self.impressions, bool) or self.impressions < 0:
            raise ValueError(f"impressions must be a non-negative integer, got {self.impressions!r}")
        for name in ("spend", "value"):
            amount = getattr(self, name)
            if not isinstance(amount, (int, float)) or not math.isfinite(amount) or amount < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {amount!r}")
        object.__setattr__(self, "spend", from_micros(to_micros(self.spend)))
        object.__setattr__(self, "value", from_micros(to_micros(self.value)))
        if self.spend == 0:
            if self.roi is not None:
                raise ValueError("roi cannot be stored for a zero-spend part")
        elif self.roi is None:
            object.__setattr__(self, "roi", self.value / self.spend)
        if self.roi is not None and (not math.isfinite(self.roi) or self.roi < 0):
            raise ValueError(f"roi must be finite and >= 0, got {self.roi!r}")


def micro_totals(parts: list[PartMeasurement] | tuple[PartMeasurement, ...]) -> tuple[int, int]:
    """Exact total spend and value of parts, in integer micro-units."""
    return sum(to_micros(p.spend) for p in parts), sum(to_micros(p.value) for p in parts)


def roi_of_micros(spend: int, value: int, arm: Arm, campaign_id: str | None = None) -> float:
    """One arm's ROI from micro totals of one campaign, or of all (campaign_id None)."""
    if spend <= 0:
        where = "over all campaigns" if campaign_id is None else f"of campaign {campaign_id!r}"
        raise UndefinedRoiError(f"arm {arm.value}: total spend {where} is zero")
    return from_micros(value) / from_micros(spend)


@dataclass(frozen=True)
class CampaignExperiment:
    """One campaign's control and treatment parts."""

    campaign_id: str
    parts_a: tuple[PartMeasurement, ...]
    parts_b: tuple[PartMeasurement, ...]

    def __post_init__(self):
        if not isinstance(self.campaign_id, str) or not self.campaign_id:
            raise ValueError("campaign_id must be non-empty text")
        object.__setattr__(self, "parts_a", tuple(self.parts_a))
        object.__setattr__(self, "parts_b", tuple(self.parts_b))
        for parts, arm in ((self.parts_a, Arm.CONTROL), (self.parts_b, Arm.TREATMENT)):
            seen: set[int] = set()
            for part in parts:
                if part.campaign_id != self.campaign_id:
                    raise ValueError(
                        f"part belongs to campaign {part.campaign_id!r}, "
                        f"not {self.campaign_id!r}"
                    )
                if part.arm is not arm:
                    raise ValueError(
                        f"part {part.part_id} has arm {part.arm.value}, expected {arm.value}"
                    )
                if part.part_id in seen:
                    raise ValueError(
                        f"duplicate part_id {part.part_id} in campaign "
                        f"{self.campaign_id!r} arm {arm.value}"
                    )
                seen.add(part.part_id)

    @property
    def m_a(self) -> int:
        return len(self.parts_a)

    @property
    def m_b(self) -> int:
        return len(self.parts_b)

    def total_spend(self) -> float:
        """Both-arm spend of the campaign, exact under micro-unit accounting."""
        return from_micros(
            sum(to_micros(p.spend) for p in self.parts_a)
            + sum(to_micros(p.spend) for p in self.parts_b)
        )


@dataclass(frozen=True)
class ExperimentDataset:
    """All campaigns observed during one experiment, plus free-form metadata."""

    campaigns: tuple[CampaignExperiment, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "campaigns", tuple(self.campaigns))
        seen: set[str] = set()
        for campaign in self.campaigns:
            if campaign.campaign_id in seen:
                raise ValueError(f"duplicate campaign_id {campaign.campaign_id!r}")
            seen.add(campaign.campaign_id)

    @property
    def n(self) -> int:
        return len(self.campaigns)
