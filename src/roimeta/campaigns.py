"""Campaign domain model: arms, traffic parts, campaigns, and ROI.

Monetary amounts are quantized to integer micro-units at construction time so
that aggregation is bit-exact and independent of summation order. A campaign
holds each arm as parallel integer micro columns (``ArmColumns``);
``PartMeasurement`` is the per-part value type its part views are built from.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from .errors import UndefinedRoiError
from .records import Arm

MICROS_PER_UNIT = 1_000_000
MAX_AMOUNT = 1.7976931348623154e302  # largest amount whose micro-unit count and ROI are finite


def to_micros(amount: float) -> int:
    """Quantize a part's spend or value (finite, at most MAX_AMOUNT) to integer micro-units."""
    return round(amount * MICROS_PER_UNIT)


def from_micros(micros: int) -> float:
    return micros / MICROS_PER_UNIT


@dataclass(frozen=True, slots=True)
class PartMeasurement:
    """One traffic part's impressions, spend, value, and ROI for one arm of one campaign.

    ``roi`` is derived, never passed: the quantized value over the quantized
    spend when spend > 0, and None otherwise. The fields are checked in order;
    the first failing check raises.
    """

    campaign_id: str
    arm: Arm
    part_id: int
    impressions: int
    spend: float
    value: float
    roi: float | None = field(default=None, init=False)

    def __post_init__(self):
        _check_campaign_id(self.campaign_id)
        if not isinstance(self.arm, Arm):
            raise ValueError(f"arm must be an Arm, got {self.arm!r}")
        for name in ("part_id", "impressions"):
            count = getattr(self, name)
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {count!r}")
        check_amount("spend", self.spend)
        check_amount("value", self.value)
        spend, value = from_micros(to_micros(self.spend)), from_micros(to_micros(self.value))
        object.__setattr__(self, "spend", spend)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "roi", value / spend if spend else None)


# Part views skip __post_init__, whose checks and re-quantizing cost 3x as much:
# their columns hold checked, quantized values.
_SET_FIELDS = tuple(PartMeasurement.__dict__[name].__set__ for name in PartMeasurement.__slots__)


def check_amount(name: str, amount, quantizable: bool = True) -> None:
    """The rule for money: a finite number >= 0 and, if ``quantizable``, at most MAX_AMOUNT."""
    if not isinstance(amount, (int, float)) or not 0 <= amount < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {amount!r}")
    if quantizable and amount > MAX_AMOUNT:
        raise ValueError(f"{name} is too large to quantize, got {amount!r}")


def _check_campaign_id(campaign_id) -> None:
    if not isinstance(campaign_id, str) or not campaign_id:
        raise ValueError("campaign_id must be non-empty text")
    if campaign_id != campaign_id.strip():  # ingest strips ids, so memory must not hold one
        raise ValueError(f"campaign_id {campaign_id!r} has leading or trailing whitespace")


def roi_of_micros(spend: int, value: int, arm: Arm, campaign_id: str | None = None) -> float:
    """One arm's ROI from micro totals of one campaign, or of all (campaign_id None)."""
    if spend <= 0:
        where = "over all campaigns" if campaign_id is None else f"of campaign {campaign_id!r}"
        raise UndefinedRoiError(f"arm {arm.value}: total spend {where} is zero")
    return from_micros(value) / from_micros(spend)


class ArmColumns(NamedTuple):
    """One arm's parts as parallel tuples, in part order. Each ROI is
    ``from_micros(value) / from_micros(spend)``, or None at zero spend."""

    part_ids: tuple[int, ...]
    impressions: tuple[int, ...]
    spend_micros: tuple[int, ...]
    value_micros: tuple[int, ...]
    rois: tuple[float | None, ...]


def arm_columns(rows: dict[int, tuple[int, int, int]]) -> ArmColumns:
    """An arm's columns from ``{part_id: (impressions, spend_micros, value_micros)}``."""
    impressions, spends, values = zip(*rows.values()) if rows else ((), (), ())
    rois = [v / MICROS_PER_UNIT / (s / MICROS_PER_UNIT) if s else None
            for s, v in zip(spends, values)]
    return ArmColumns(tuple(rows), impressions, spends, values, tuple(rois))


@dataclass(frozen=True, init=False)
class CampaignExperiment:
    """One campaign's control (``a``) and treatment (``b``) parts as columns.

    ``CampaignExperiment(campaign_id, parts_a, parts_b)`` checks the parts;
    ``from_columns`` checks only the id, for columns whose rows ingest or the
    simulator already checked and grouped. ``parts_a``/``parts_b`` are views,
    built from the columns on each access.
    """

    campaign_id: str
    a: ArmColumns
    b: ArmColumns

    # Frozen: both constructors fill the instance dict, not __setattr__.
    def __init__(self, campaign_id, parts_a, parts_b):
        _check_campaign_id(campaign_id)
        columns = []
        for parts, arm in ((parts_a, Arm.CONTROL), (parts_b, Arm.TREATMENT)):
            rows: dict[int, tuple[int, int, int]] = {}
            for part in parts:
                if part.campaign_id != campaign_id:
                    raise ValueError(
                        f"part belongs to campaign {part.campaign_id!r}, not {campaign_id!r}")
                if part.arm is not arm:
                    raise ValueError(
                        f"part {part.part_id} has arm {part.arm.value}, expected {arm.value}")
                if part.part_id in rows:
                    raise ValueError(f"duplicate part_id {part.part_id} in campaign "
                                     f"{campaign_id!r} arm {arm.value}")
                rows[part.part_id] = (
                    part.impressions, to_micros(part.spend), to_micros(part.value))
            columns.append(arm_columns(rows))
        vars(self).update(campaign_id=campaign_id, a=columns[0], b=columns[1])

    @classmethod
    def from_columns(cls, campaign_id: str, a: ArmColumns, b: ArmColumns) -> CampaignExperiment:
        _check_campaign_id(campaign_id)
        campaign = object.__new__(cls)
        vars(campaign).update(campaign_id=campaign_id, a=a, b=b)
        return campaign

    @property
    def parts_a(self) -> tuple[PartMeasurement, ...]:
        return _arm_parts(self.campaign_id, Arm.CONTROL, self.a)

    @property
    def parts_b(self) -> tuple[PartMeasurement, ...]:
        return _arm_parts(self.campaign_id, Arm.TREATMENT, self.b)

    @property
    def m_a(self) -> int:
        return len(self.a.part_ids)

    @property
    def m_b(self) -> int:
        return len(self.b.part_ids)


def _arm_parts(campaign_id: str, arm: Arm, columns: ArmColumns) -> tuple[PartMeasurement, ...]:
    parts = [object.__new__(PartMeasurement) for _ in columns.part_ids]
    for set_field, column in zip(_SET_FIELDS, (
            repeat(campaign_id), repeat(arm), columns.part_ids, columns.impressions,
            map(from_micros, columns.spend_micros), map(from_micros, columns.value_micros),
            columns.rois)):
        list(map(set_field, parts, column))  # one field of every part per pass
    return tuple(parts)


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
        for arm, columns in (("A", campaign.a), ("B", campaign.b)):
            ids = ",".join(map(str, columns.part_ids))
            counts = ",".join(map(str, columns.impressions))
            money = struct.pack(f"<{2 * len(columns.part_ids)}d",
                                *map(from_micros, columns.spend_micros),
                                *map(from_micros, columns.value_micros))
            digest.update(f"{head},{arm}\n{ids}\n{counts}\n".encode("utf-8") + money)
    return digest.hexdigest()
