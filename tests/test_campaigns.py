import math
import sys
from dataclasses import FrozenInstanceError, dataclass, field, fields, replace
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_campaign, make_part
from roimeta.baselines import campaign_micro_totals
from roimeta.campaigns import (
    MAX_AMOUNT,
    MICROS_PER_UNIT,
    Arm,
    CampaignExperiment,
    ExperimentDataset,
    PartMeasurement,
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

    def test_roi_cannot_be_passed(self):
        with pytest.raises(TypeError, match="roi"):
            PartMeasurement("c1", Arm.CONTROL, 0, 10, 2.0, 3.0, roi=1.0)
        with pytest.raises(TypeError):
            PartMeasurement("c1", Arm.CONTROL, 0, 10, 2.0, 3.0, 1.0)
        part = PartMeasurement("c1", Arm.CONTROL, 0, 10, 2.0, 3.0)
        # Python 3.13 made replace() raise TypeError for an init=False field
        with pytest.raises(ValueError if sys.version_info < (3, 13) else TypeError, match="roi"):
            replace(part, roi=1.0)
        assert replace(part, value=5.0).roi == 2.5

    def test_explicit_roi_is_kept(self):
        part = make_part("c1", Arm.CONTROL, 0, roi=1.25, spend=3.0)
        assert part.roi == 1.25

    def test_money_limit_is_the_largest_quantizable_amount(self):
        assert math.isfinite(MAX_AMOUNT * MICROS_PER_UNIT)
        assert math.nextafter(MAX_AMOUNT, math.inf) * MICROS_PER_UNIT == math.inf
        part = PartMeasurement("c1", Arm.CONTROL, 0, 10, 1e-6, MAX_AMOUNT)
        assert (part.value, part.roi) == (MAX_AMOUNT, MAX_AMOUNT / 1e-6)
        assert math.isfinite(part.roi)

    @pytest.mark.parametrize("amount", [
        math.nextafter(MAX_AMOUNT, math.inf), 1e303, sys.float_info.max, 10**303, 10**400,
    ])
    def test_money_too_large_to_quantize_is_a_value_error(self, amount):
        with pytest.raises(ValueError) as caught:
            PartMeasurement("c1", Arm.CONTROL, 0, 10, amount, 1.0)
        assert str(caught.value) == f"spend is too large to quantize, got {amount!r}"

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
    then checked and re-assigned in ``__post_init__``, which derives ``roi``."""

    campaign_id: str
    arm: Arm
    part_id: int
    impressions: int
    spend: float
    value: float
    roi: float | None = field(default=None, init=False)

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
            if not isinstance(amount, (int, float)) or not amount >= 0 or amount == math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {amount!r}")
            # money too large to quantize: its micro count would overflow a float
            if amount > MAX_AMOUNT:
                raise ValueError(f"{name} is too large to quantize, got {amount!r}")
        object.__setattr__(self, "spend", reference_from_micros(reference_to_micros(self.spend)))
        object.__setattr__(self, "value", reference_from_micros(reference_to_micros(self.value)))
        if self.spend != 0:
            object.__setattr__(self, "roi", self.value / self.spend)


def reference_to_micros(amount):
    if not math.isfinite(amount):
        raise ValueError(f"non-finite currency amount: {amount!r}")
    return round(amount * MICROS_PER_UNIT)


def reference_from_micros(micros):
    return micros / MICROS_PER_UNIT


def field_bits(value):
    return type(value).__name__, value.hex() if type(value) is float else repr(value)


def construction(cls, how, args, changes):
    """Type and message of the error (with the class name left out), or the
    fields by float bits, repr and hash. ``args`` are the six constructor
    arguments, or those and a seventh, ``roi``, which both classes refuse."""
    try:
        if how == "positional":
            part = cls(*args)
        elif how == "keyword":
            part = cls(**dict(zip(("campaign_id", "arm", "part_id", "impressions",
                                   "spend", "value", "roi"), args)))
        else:
            part = replace(cls("c0", Arm.TREATMENT, 9, 100, 2.5, 1.25), **changes)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc).replace(cls.__name__, "")
    return (
        [field_bits(getattr(part, f.name)) for f in fields(part)],
        repr(part).replace(f"{cls.__name__}(", "(", 1),
        hash(part),
    )


class Label(str):
    pass


class Count(IntEnum):
    NEGATIVE = -1
    ZERO = 0
    SEVEN = 7


class Money(float):
    pass


# Inputs at the edge of the constructor's exact-type fast path: subclasses,
# signed zero, non-finite values and the quantization limit on both sides.
EDGE_AMOUNTS = [-0.0, math.nan, math.inf, -math.inf, MAX_AMOUNT,
                math.nextafter(MAX_AMOUNT, math.inf)]
money = st.one_of(
    st.booleans(),
    st.integers(-3, 10**12),
    st.sampled_from([10**303, 10**400, -10**400]),
    st.floats(),  # every float, NaN and infinities included
    st.floats(min_value=0.0, max_value=1e-5),
    st.floats(min_value=1e290, max_value=1.8e302),
    st.sampled_from([0.0, -0.0, 0.1 + 0.2, 5e-7, 1.5e-6, 2.5, "1.0", None]),
    st.sampled_from(EDGE_AMOUNTS),
    st.sampled_from([Money(2.5), Money(-0.0), Money(-1.0), Money(math.nan),
                     Money(MAX_AMOUNT), Money(math.nextafter(MAX_AMOUNT, math.inf))]),
)
counts = st.one_of(st.integers(-2, 10**6), st.booleans(), st.just(1.0), st.just("3"),
                   st.sampled_from(list(Count)))


class TestConstructorParity:
    """``PartMeasurement``'s one-step ``__init__`` against ``ReferencePart``."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(["positional", "keyword", "replace"]),
        st.sampled_from(["c1", "", 7, None, Label("c1"), Label("")]),
        st.sampled_from([Arm.CONTROL, Arm.TREATMENT, "A"]),
        counts, counts, money, money, st.data(),
    )
    def test_same_parts_and_errors(self, how, campaign_id, arm, part_id, impressions,
                                   spend, value, data):
        args = (campaign_id, arm, part_id, impressions, spend, value)
        names = [f.name for f in fields(PartMeasurement) if f.init]
        replaced = data.draw(st.sets(st.sampled_from(names)))
        changes = {name: a for name, a in zip(names, args) if name in replaced}
        new = construction(PartMeasurement, how, args, changes)
        assert new == construction(ReferencePart, how, args, changes)
        if how == "positional" and isinstance(new[0], list):
            assert PartMeasurement(*args) == PartMeasurement(*args)

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(["positional", "keyword", "replace"]),
        st.one_of(money, st.floats(0.0, 1e4)), st.one_of(money, st.floats(0.0, 1e4)),
    )
    def test_same_money_and_roi(self, how, spend, value):
        args = ("c1", Arm.TREATMENT, 3, 1000, spend, value)
        changes = {"spend": spend, "value": value}
        assert construction(PartMeasurement, how, args, changes) == construction(
            ReferencePart, how, args, changes)

    @pytest.mark.parametrize("edge", [
        Label("c1"), Label(""), -1, 0, Count.NEGATIVE, Count.ZERO, Count.SEVEN, True, False,
        Money(2.5), Money(-0.0), *EDGE_AMOUNTS,
    ], ids=repr)
    def test_fast_path_edges(self, edge):
        """Each edge input in each field of an otherwise valid part."""
        base = ("c1", Arm.CONTROL, 4, 100, 2.5, 1.25)
        names = [f.name for f in fields(PartMeasurement) if f.init]
        for index, name in enumerate(names):
            args = base[:index] + (edge,) + base[index + 1:]
            for how in ("positional", "keyword", "replace"):
                changes = {name: edge}
                assert construction(PartMeasurement, how, args, changes) == construction(
                    ReferencePart, how, args, changes), (name, how)

    # ``roi`` is None for no seventh argument; otherwise both must refuse it.
    @pytest.mark.parametrize("spend, value, roi", [
        (0.0, 0.0, None), (0, 3, None), (False, True, None), (True, 2, None),
        (2.5, 1.0, None), (3, 4, 2), (3.0, 1.0, 0.5), (0.1 + 0.2, 1.0, None),
        (1e-7, 5.0, None), (1.5e-6, 2.5e-6, None), (1e302, 1.0, None),
        (1e-6, MAX_AMOUNT, None), (1e303, 1.0, None), (1.0, 10**400, None),
    ])
    def test_money_cases(self, spend, value, roi):
        args = ("c1", Arm.CONTROL, 0, 10, spend, value) + (() if roi is None else (roi,))
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

    def test_slotted_with_dataclass_equality_and_hash(self):
        part = PartMeasurement("c1", Arm.CONTROL, 0, 10, 1.0, 2.0)
        assert not hasattr(part, "__dict__")
        assert PartMeasurement.__slots__ == tuple(f.name for f in fields(PartMeasurement))
        twin = PartMeasurement("c1", Arm.CONTROL, 0, 10, 1.0, 2.0)
        assert part == twin and part is not twin
        assert hash(part) == hash(twin) == hash(("c1", Arm.CONTROL, 0, 10, 1.0, 2.0, 2.0))
        assert part != replace(part, impressions=11)


def micro_totals(parts):
    """Control-arm spend and value totals of a campaign holding ``parts``."""
    campaign = CampaignExperiment("c1", parts, ())
    return campaign_micro_totals(ExperimentDataset((campaign,)))["c1"][:2]


class TestArmTotals:
    """One arm's exact micro totals (``campaign_micro_totals``) and ROI (``roi_of_micros``)."""

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

    # A 500-part arm with a bad part at 250 and another at 400 (and, for a
    # duplicate, its first copy at 17): the error names the part at 250.
    @pytest.mark.parametrize("arm", [Arm.CONTROL, Arm.TREATMENT])
    @pytest.mark.parametrize("fault", ["foreign-campaign", "wrong-arm", "duplicate-part-id"])
    def test_first_bad_part_of_a_long_arm_is_named(self, arm, fault):
        other = Arm.TREATMENT if arm is Arm.CONTROL else Arm.CONTROL

        def part(part_id, **changes):
            return PartMeasurement(**{"campaign_id": "c1", "arm": arm, "part_id": part_id,
                                      "impressions": 1000, "spend": 1.0, "value": 1.5, **changes})

        bad, message = {
            "foreign-campaign": (part(250, campaign_id="c9"),
                                 "part belongs to campaign 'c9', not 'c1'"),
            "wrong-arm": (part(250, arm=other),
                          f"part 250 has arm {other.value}, expected {arm.value}"),
            "duplicate-part-id": (part(17), f"duplicate part_id 17 in campaign 'c1' arm {arm.value}"),
        }[fault]
        parts = [part(j) for j in range(500)]
        parts[250], parts[400] = bad, part(400, campaign_id="c8")
        good = [part(j, arm=other) for j in range(3)]
        with pytest.raises(ValueError) as caught:
            CampaignExperiment("c1", *((parts, good) if arm is Arm.CONTROL else (good, parts)))
        assert str(caught.value) == message
