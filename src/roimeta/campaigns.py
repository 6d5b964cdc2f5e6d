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
MAX_AMOUNT = 1.7976931348623154e302  # largest amount whose micro-unit count and ROI are finite


class Arm(Enum):
    """Experiment arm: control runs the incumbent model, treatment the candidate."""

    CONTROL = "A"
    TREATMENT = "B"


def to_micros(amount: float) -> int:
    """Quantize a part's spend or value (finite, at most MAX_AMOUNT) to integer micro-units."""
    return round(amount * MICROS_PER_UNIT)


def from_micros(micros: int) -> float:
    return micros / MICROS_PER_UNIT


@dataclass(frozen=True, init=False)
class PartMeasurement:
    """One traffic part's impressions, spend, value, and ROI for one arm of one campaign.

    ``roi`` is derived, never passed: the quantized value over the quantized
    spend when spend > 0, and None otherwise.
    """

    campaign_id: str
    arm: Arm
    part_id: int
    impressions: int
    spend: float
    value: float
    roi: float | None = field(default=None, init=False)

    def __init__(self, campaign_id, arm, part_id, impressions, spend, value):
        # Exact types in range pass one test; anything else gets the ordered checks.
        if not (type(campaign_id) is str and campaign_id and type(arm) is Arm
                and type(part_id) is int and part_id >= 0
                and type(impressions) is int and impressions >= 0
                and type(spend) is float and 0.0 <= spend <= MAX_AMOUNT
                and type(value) is float and 0.0 <= value <= MAX_AMOUNT):
            _check_part_fields(campaign_id, arm, part_id, impressions, spend, value)
        # from_micros(to_micros(x)), inlined: every part is built through here.
        spend = round(spend * MICROS_PER_UNIT) / MICROS_PER_UNIT
        value = round(value * MICROS_PER_UNIT) / MICROS_PER_UNIT
        setattr_ = object.__setattr__  # frozen: bypass the generated __setattr__
        setattr_(self, "campaign_id", campaign_id)
        setattr_(self, "arm", arm)
        setattr_(self, "part_id", part_id)
        setattr_(self, "impressions", impressions)
        setattr_(self, "spend", spend)
        setattr_(self, "value", value)
        setattr_(self, "roi", value / spend if spend else None)


def _check_part_fields(campaign_id, arm, part_id, impressions, spend, value) -> None:
    """``PartMeasurement``'s field checks, in order: the first failing one raises."""
    if not isinstance(campaign_id, str) or not campaign_id:
        raise ValueError("campaign_id must be non-empty text")
    if not isinstance(arm, Arm):
        raise ValueError(f"arm must be an Arm, got {arm!r}")
    if not isinstance(part_id, int) or isinstance(part_id, bool) or part_id < 0:
        raise ValueError(f"part_id must be a non-negative integer, got {part_id!r}")
    if not isinstance(impressions, int) or isinstance(impressions, bool) or impressions < 0:
        raise ValueError(f"impressions must be a non-negative integer, got {impressions!r}")
    for name, amount in (("spend", spend), ("value", value)):
        if not isinstance(amount, (int, float)) or not 0 <= amount <= MAX_AMOUNT:
            if isinstance(amount, (int, float)) and MAX_AMOUNT < amount < math.inf:
                raise ValueError(f"{name} is too large to quantize, got {amount!r}")
            raise ValueError(f"{name} must be finite and >= 0, got {amount!r}")


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
