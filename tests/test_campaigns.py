import math
from dataclasses import FrozenInstanceError, dataclass, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_campaign, make_part
from roimeta.campaigns import (
    MICROS_PER_UNIT,
    Arm,
    CampaignExperiment,
    ExperimentDataset,
    PartMeasurement,
    micro_totals,
    roi_of_micros,
)
from roimeta.errors import UndefinedRoiError


class TestPartMeasurement:
    def test_roi_derived_from_money(self):
        part = PartMeasurement("c1", Arm.TREATMENT, 0, 1500, 12.50, 20.00)
        assert part.roi == 1.6

    def test_zero_spend_has_no_roi(self):
        part = PartMeasurement("c1", Arm.CONTROL, 0, 10, 0.0, 0.0)
        assert part.roi is None

    def test_zero_spend_rejects_explicit_roi(self):
        with pytest.raises(ValueError, match="zero-spend"):
            PartMeasurement("c1", Arm.CONTROL, 0, 10, 0.0, 0.0, roi=1.0)

    def test_explicit_roi_is_kept(self):
        part = make_part("c1", Arm.CONTROL, 0, roi=1.25, spend=3.0)
        assert part.roi == 1.25

    def test_money_is_quantized_to_micros(self):
        part = PartMeasurement("c1", Arm.CONTROL, 0, 10, 0.1 + 0.2, 1.0)
        assert part.spend == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(campaign_id=""),
            dict(part_id=-1),
            dict(impressions=-5),
            dict(spend=-1.0),
            dict(value=float("inf")),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(
            campaign_id="c1", arm=Arm.CONTROL, part_id=0,
            impressions=10, spend=1.0, value=1.0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            PartMeasurement(**base)


@dataclass(frozen=True)
class ReferencePart:
    """The generated-init form of ``PartMeasurement``: fields assigned first,
    then checked and re-assigned in ``__post_init__``."""

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
        object.__setattr__(self, "spend", reference_from_micros(reference_to_micros(self.spend)))
        object.__setattr__(self, "value", reference_from_micros(reference_to_micros(self.value)))
        if self.spend == 0:
            if self.roi is not None:
                raise ValueError("roi cannot be stored for a zero-spend part")
        elif self.roi is None:
            object.__setattr__(self, "roi", self.value / self.spend)
        if self.roi is not None and (not math.isfinite(self.roi) or self.roi < 0):
            raise ValueError(f"roi must be finite and >= 0, got {self.roi!r}")


def reference_to_micros(amount):
    if not math.isfinite(amount):
        raise ValueError(f"non-finite currency amount: {amount!r}")
    return round(amount * MICROS_PER_UNIT)


def reference_from_micros(micros):
    return micros / MICROS_PER_UNIT


def field_bits(value):
    return type(value).__name__, value.hex() if type(value) is float else repr(value)


def construction(cls, how, args, changes):
    """Type and message of the error, or the fields by float bits, repr and hash."""
    try:
        if how == "positional":
            part = cls(*args)
        elif how == "keyword":
            part = cls(**dict(zip(("campaign_id", "arm", "part_id", "impressions",
                                   "spend", "value", "roi"), args)))
        else:
            part = replace(cls("c0", Arm.TREATMENT, 9, 100, 2.5, 1.25), **changes)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)
    return (
        [field_bits(getattr(part, f.name)) for f in fields(part)],
        repr(part).replace(f"{cls.__name__}(", "(", 1),
        hash(part),
    )


money = st.one_of(
    st.booleans(),
    st.integers(-3, 10**12),
    st.just(10**400),
    st.floats(),  # every float, NaN and infinities included
    st.floats(min_value=0.0, max_value=1e-5),
    st.floats(min_value=1e290, max_value=1.8e302),
    st.sampled_from([0.0, -0.0, 0.1 + 0.2, 5e-7, 1.5e-6, 2.5, "1.0", None]),
)
rois = st.one_of(st.none(), st.floats(), st.integers(-2, 3), st.just("x"))
counts = st.one_of(st.integers(-2, 10**6), st.booleans(), st.just(1.0), st.just("3"))


class TestConstructorParity:
    """``PartMeasurement``'s one-step ``__init__`` against ``ReferencePart``."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(["positional", "keyword", "replace"]),
        st.sampled_from(["c1", "", 7, None]),
        st.sampled_from([Arm.CONTROL, Arm.TREATMENT, "A"]),
        counts, counts, money, money, rois, st.data(),
    )
    def test_same_parts_and_errors(self, how, campaign_id, arm, part_id, impressions,
                                   spend, value, roi, data):
        args = (campaign_id, arm, part_id, impressions, spend, value, roi)
        names = [f.name for f in fields(PartMeasurement)]
        replaced = data.draw(st.sets(st.sampled_from(names)))
        changes = {name: a for name, a in zip(names, args) if name in replaced}
        new = construction(PartMeasurement, how, args, changes)
        assert new == construction(ReferencePart, how, args, changes)
        if how == "positional" and isinstance(new[0], list):
            assert PartMeasurement(*args) == PartMeasurement(*args)

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(["positional", "keyword", "replace"]),
        st.one_of(money, st.floats(0.0, 1e4)), st.one_of(money, st.floats(0.0, 1e4)), rois,
    )
    def test_same_money_and_roi(self, how, spend, value, roi):
        args = ("c1", Arm.TREATMENT, 3, 1000, spend, value, roi)
        changes = {"spend": spend, "value": value, "roi": roi}
        assert construction(PartMeasurement, how, args, changes) == construction(
            ReferencePart, how, args, changes)

    @pytest.mark.parametrize("spend, value, roi", [
        (0.0, 0.0, None), (0, 3, None), (False, True, None), (True, 2, None),
        (2.5, 1.0, None), (3, 4, 2), (3.0, 1.0, 0.5), (0.1 + 0.2, 1.0, None),
        (1e-7, 5.0, None), (1.5e-6, 2.5e-6, None), (1e302, 1.0, None),
    ])
    def test_money_cases(self, spend, value, roi):
        args = ("c1", Arm.CONTROL, 0, 10, spend, value, roi)
        for how in ("positional", "keyword"):
            assert construction(PartMeasurement, how, args, {}) == construction(
                ReferencePart, how, args, {})

    def test_fields_are_frozen(self):
        part = PartMeasurement("c1", Arm.CONTROL, 0, 10, 1.0, 2.0)
        with pytest.raises(FrozenInstanceError):
            part.spend = 3.0
        with pytest.raises(FrozenInstanceError):
            del part.roi
        assert (part.spend, part.roi) == (1.0, 2.0)


class TestArmTotals:
    """One arm's exact micro totals (``micro_totals``) and ROI (``roi_of_micros``)."""

    def test_two_parts(self):
        parts = [
            make_part("c1", Arm.CONTROL, 0, spend=5.0, value=10.0, roi=None),
            make_part("c1", Arm.CONTROL, 1, spend=10.0, value=20.0, roi=None),
        ]
        spend, value = micro_totals(parts)
        assert (spend, value) == (15_000_000, 30_000_000)
        assert roi_of_micros(spend, value, Arm.CONTROL, "c1") == 2.0

    def test_single_part(self):
        totals = micro_totals([make_part("c1", Arm.CONTROL, 0, spend=4.0, value=4.0)])
        assert roi_of_micros(*totals, Arm.CONTROL, "c1") == 1.0

    def test_zero_total_spend(self):
        totals = micro_totals([make_part("c1", Arm.CONTROL, 0, spend=0.0, value=0.0)])
        with pytest.raises(UndefinedRoiError):
            roi_of_micros(*totals, Arm.CONTROL, "c1")

    @given(st.permutations(list(range(6))))
    def test_permutation_invariant(self, order):
        parts = [
            make_part("c1", Arm.CONTROL, j, spend=0.1 + 0.37 * j, value=0.05 + 0.21 * j)
            for j in range(6)
        ]
        shuffled = [parts[i] for i in order]
        assert micro_totals(shuffled) == micro_totals(parts)


class TestContainers:
    def test_campaign_rejects_wrong_arm_in_list(self):
        part_b = make_part("c1", Arm.TREATMENT, 0, roi=1.0)
        with pytest.raises(ValueError):
            CampaignExperiment("c1", [part_b], [])

    def test_campaign_rejects_duplicate_part_ids(self):
        parts = [make_part("c1", Arm.CONTROL, 0, roi=1.0)] * 2
        with pytest.raises(ValueError):
            CampaignExperiment("c1", parts, [])

    def test_campaign_counts(self):
        campaign = make_campaign("c1", [1.0, 1.1], [0.9, 1.0, 1.2])
        assert (campaign.m_a, campaign.m_b) == (2, 3)

    def test_dataset_rejects_duplicate_campaigns(self):
        campaign = make_campaign("c1", [1.0, 1.1], [0.9, 1.0])
        with pytest.raises(ValueError):
            ExperimentDataset((campaign, campaign))
