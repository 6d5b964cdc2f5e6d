"""Campaign domain model: arms, traffic parts, campaigns, and ROI.

A campaign holds each arm as parallel columns (``ArmColumns``) with money in
integer micro-units, so aggregation is bit-exact and independent of summation
order. Parts are checked and quantized once, where they enter: by ``dataio``
(files, or rows in memory through ``dataset_from_rows``) or by the simulator.
A campaign takes its columns as given and checks only its id;
``PartMeasurement`` is a plain view of one part, read from the columns.
"""

from __future__ import annotations

import hashlib
import math
import struct
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import truediv
from typing import Iterable, NamedTuple

from .errors import UndefinedRoiError
from .records import Arm, checked

MICROS_PER_UNIT = 1_000_000
MAX_AMOUNT = 1.7976931348623154e302  # largest amount whose micro-unit count and ROI are finite


def to_micros(amount: float) -> int:
    """Quantize a part's spend or value (finite, at most MAX_AMOUNT) to integer micro-units."""
    return round(amount * MICROS_PER_UNIT)


def from_micros(micros: int) -> float:
    return micros / MICROS_PER_UNIT


def check_amount(name: str, amount, quantizable: bool = True) -> None:
    """The rule for money: a finite number >= 0 and, if ``quantizable``, at most MAX_AMOUNT."""
    if not isinstance(amount, (int, float)) or not 0 <= amount < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {amount!r}")
    if quantizable and amount > MAX_AMOUNT:
        raise ValueError(f"{name} is too large to quantize, got {amount!r}")


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


def arm_columns(part_ids: Iterable[int], impressions: Iterable[int],
                spend_micros: Iterable[int], value_micros: Iterable[int]) -> ArmColumns:
    """An arm's columns from its part ids, impressions and micro-unit money, ROIs derived."""
    rois = [v / MICROS_PER_UNIT / (s / MICROS_PER_UNIT) if s else None
            for s, v in zip(spend_micros, value_micros)]
    return ArmColumns(tuple(part_ids), tuple(impressions), tuple(spend_micros),
                      tuple(value_micros), tuple(rois))


class PartMeasurement(NamedTuple):
    """A view of one part of one arm, read from the columns: money in currency
    units, ``roi`` the value over the spend (None at zero spend)."""

    campaign_id: str
    arm: Arm
    part_id: int
    impressions: int
    spend: float
    value: float
    roi: float | None


@checked
class CampaignExperiment(NamedTuple):
    """One campaign's control (``a``) and treatment (``b``) parts as columns.

    The columns are taken as given, so they come from a checker: ingest or
    ``dataio.dataset_from_rows`` for rows, the simulator, or ``qualify``.
    The id is checked. ``parts_a``/``parts_b`` are views, built from the
    columns on each access.
    """

    campaign_id: str
    a: ArmColumns
    b: ArmColumns

    def _check(self):
        campaign_id = self.campaign_id
        if not isinstance(campaign_id, str) or not campaign_id:
            raise ValueError("campaign_id must be non-empty text")
        if campaign_id != campaign_id.strip():  # rows have their ids stripped, so none holds one
            raise ValueError(f"campaign_id {campaign_id!r} has leading or trailing whitespace")

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
    return tuple(map(PartMeasurement._make, zip(
        repeat(campaign_id), repeat(arm), columns.part_ids, columns.impressions,
        map(from_micros, columns.spend_micros), map(from_micros, columns.value_micros),
        columns.rois)))


@checked
class ExperimentDataset(NamedTuple):
    """All campaigns observed during one experiment."""

    campaigns: tuple[CampaignExperiment, ...]

    def _check(self):
        if type(self.campaigns) is not tuple:
            return self._replace(campaigns=tuple(self.campaigns))
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
    digest, unit = hashlib.sha256(), repeat(MICROS_PER_UNIT)
    for campaign in dataset.campaigns:
        head = encode_basestring_ascii(campaign.campaign_id)  # json.dumps' text
        for arm, columns in (("A", campaign.a), ("B", campaign.b)):
            n = len(columns.part_ids)
            ints = ",".join(["%d"] * n)  # str's text of an int, in one format call
            money = struct.pack(f"<{2 * n}d",  # from_micros' doubles
                                *map(truediv, columns.spend_micros, unit),
                                *map(truediv, columns.value_micros, unit))
            digest.update(f"{head},{arm}\n{ints % columns.part_ids}\n"
                          f"{ints % columns.impressions}\n".encode("utf-8") + money)
    return digest.hexdigest()
