"""Campaign domain model: arms, traffic parts, campaigns, and ROI.

Monetary amounts are quantized to integer micro-units at construction time so
that aggregation is bit-exact and independent of summation order.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
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


@dataclass(frozen=True, init=False, slots=True)
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
        # Frozen: write via the slot descriptors' __set__, cheaper than object.__setattr__.
        _set_campaign_id(self, campaign_id)
        _set_arm(self, arm)
        _set_part_id(self, part_id)
        _set_impressions(self, impressions)
        _set_spend(self, spend)
        _set_value(self, value)
        _set_roi(self, value / spend if spend else None)


(_set_campaign_id, _set_arm, _set_part_id, _set_impressions, _set_spend, _set_value,
 _set_roi) = (PartMeasurement.__dict__[name].__set__ for name in PartMeasurement.__slots__)


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
        campaign_id = self.campaign_id
        for parts, arm in ((self.parts_a, Arm.CONTROL), (self.parts_b, Arm.TREATMENT)):
            # Arms by identity, duplicates by the set's size: no lookup per
            # part. Only on a fault does the loop below name the first bad part.
            if len(parts) == len({part.part_id for part in parts
                                  if part.campaign_id == campaign_id and part.arm is arm}):
                continue
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
    """All campaigns observed during one experiment."""

    campaigns: tuple[CampaignExperiment, ...]

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


def parts_sha256(dataset: ExperimentDataset) -> str:
    """SHA-256 of the parts, exact and the same on every platform and from every
    input format. Each campaign in order, arm A then B, adds the UTF-8 text
    ``<campaign_id as JSON>,<arm>\\n<part_ids>\\n<impressions>\\n`` (decimal,
    comma-separated), then the arm's spends and its values as little-endian doubles."""
    digest = hashlib.sha256()
    for campaign in dataset.campaigns:
        head = json.dumps(campaign.campaign_id)
        for arm, parts in (("A", campaign.parts_a), ("B", campaign.parts_b)):
            ids = ",".join([str(p.part_id) for p in parts])
            counts = ",".join([str(p.impressions) for p in parts])
            money = struct.pack(f"<{2 * len(parts)}d", *[p.spend for p in parts],
                                *[p.value for p in parts])
            digest.update(f"{head},{arm}\n{ids}\n{counts}\n".encode("utf-8") + money)
    return digest.hexdigest()
