import math
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import campaign_from_rows, make_campaign, make_part
from roimeta.baselines import campaign_micro_totals
from roimeta.campaigns import (
    MAX_AMOUNT,
    MICROS_PER_UNIT,
    Arm,
    ArmColumns,
    CampaignExperiment,
    ExperimentDataset,
    PartMeasurement,
    roi_of_micros,
)
from roimeta.dataio import dataset_from_rows
from roimeta.errors import IngestError, UndefinedRoiError


def only_part(row):
    """The part view of the one part in ``row``."""
    campaign = campaign_from_rows([row])
    (part,) = campaign.parts_a + campaign.parts_b
    return part


def row_error(rows):
    with pytest.raises(IngestError) as caught:
        dataset_from_rows(rows)
    return str(caught.value)


class TestPartMeasurement:
    """Parts entered as rows, read back through their views."""

    def test_roi_derived_from_money(self):
        part = only_part(("c1", "B", 0, 1500, 12.50, 20.00))
        assert part == ("c1", Arm.TREATMENT, 0, 1500, 12.5, 20.0, 1.6)

    def test_zero_spend_has_no_roi(self):
        assert only_part(("c1", "A", 0, 10, 0.0, 0.0)).roi is None

    def test_roi_cannot_be_passed(self):
        row = ("c1", "A", 0, 10, 2.0, 3.0, 1.0)
        assert row_error([row]) == f"line 1: expected a row of 6 fields, got {row!r}"

    def test_explicit_roi_is_kept(self):
        part = only_part(make_part("c1", Arm.CONTROL, 0, roi=1.25, spend=3.0))
        assert part.roi == 1.25

    def test_money_limit_is_the_largest_quantizable_amount(self):
        assert math.isfinite(MAX_AMOUNT * MICROS_PER_UNIT)
        assert math.nextafter(MAX_AMOUNT, math.inf) * MICROS_PER_UNIT == math.inf
        part = only_part(("c1", "A", 0, 10, 1e-6, MAX_AMOUNT))
        assert (part.value, part.roi) == (MAX_AMOUNT, MAX_AMOUNT / 1e-6)
        assert math.isfinite(part.roi)

    # an integer amount is read through its text, as a record-lines value is
    @pytest.mark.parametrize("amount, shown", [
        (math.nextafter(MAX_AMOUNT, math.inf), repr(math.nextafter(MAX_AMOUNT, math.inf))),
        (1e303, "1e+303"), (sys.float_info.max, repr(sys.float_info.max)), (10**303, "1e+303"),
    ])
    def test_money_too_large_to_quantize_is_an_ingest_error(self, amount, shown):
        assert row_error([("c1", "A", 0, 10, amount, 1.0)]) == (
            f"line 1: spend is too large to quantize, got {shown}")

    def test_money_is_quantized_to_micros(self):
        assert only_part(("c1", "A", 0, 10, 0.1 + 0.2, 1.0)).spend == 0.3

    @pytest.mark.parametrize("change, message", [
        ((0, ""), "missing field(s): campaign_id"),
        ((0, "  "), "campaign_id must be non-empty"),
        ((2, -1), "part_id must be >= 0, got -1"),
        ((3, -5), "impressions must be >= 0, got -5"),
        ((4, -1.0), "spend must be finite and >= 0, got -1.0"),
        ((5, float("inf")), "value must be finite and >= 0, got inf"),
        ((5, 10**400), "value must be finite and >= 0, got inf"),
    ])
    def test_rejects_bad_fields(self, change, message):
        row = ["c1", "A", 0, 10, 1.0, 1.0]
        row[change[0]] = change[1]
        assert row_error([row]) == f"line 1: {message}"

    # Money as the checks read it, quantized to micro-units (half to even)
    @pytest.mark.parametrize("spend, value, expected", [
        (0.0, 0.0, (0.0, 0.0, None)),
        (-0.0, 1.0, (0.0, 1.0, None)),
        (0, 3, (0.0, 3.0, None)),
        (2.5, 1.0, (2.5, 1.0, 0.4)),
        (3, 4, (3.0, 4.0, 4 / 3)),
        (0.1 + 0.2, 1.0, (0.3, 1.0, 1 / 0.3)),
        (1e-7, 5.0, (0.0, 5.0, None)),
        (5e-7, 5e-7, (0.0, 0.0, None)),
        (1.5e-6, 2.5e-6, (2e-6, 2e-6, 1.0)),
        (1e302, 1.0, (1e302, 1.0, 1e-302)),
        (1e-6, MAX_AMOUNT, (1e-6, MAX_AMOUNT, MAX_AMOUNT / 1e-6)),
        (False, True, "spend must be a decimal number, got False"),
        (True, 2, "spend must be a decimal number, got True"),
        (1e303, 1.0, "spend is too large to quantize, got 1e+303"),
    ])
    def test_money_cases(self, spend, value, expected):
        row = ("c1", "A", 0, 10, spend, value)
        if isinstance(expected, str):
            assert row_error([row]) == f"line 1: {expected}"
        else:
            part = only_part(row)
            assert list(map(repr, part[4:])) == list(map(repr, expected))

    def test_views_are_named_tuples(self):
        part = only_part(("c1", "A", 0, 10, 1.0, 2.0))
        assert part == ("c1", Arm.CONTROL, 0, 10, 1.0, 2.0, 2.0)
        assert PartMeasurement._fields == (
            "campaign_id", "arm", "part_id", "impressions", "spend", "value", "roi")
        with pytest.raises(AttributeError):
            part.spend = 3.0


def micro_totals(parts):
    """Control-arm spend and value totals of a campaign holding ``parts``."""
    return campaign_micro_totals(dataset_from_rows(parts))["c1"][:2]


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
    def test_rows_refuse_an_arm_that_is_not_a_tag(self):
        assert row_error([("c1", "C", 0, 10, 1.0, 1.0)]) == (
            "line 1: arm must be 'A' or 'B', got 'C'")
        assert row_error([("c1", Arm.TREATMENT, 0, 10, 1.0, 1.0)]) == (
            "line 1: arm must be 'A' or 'B', got 'Arm.TREATMENT'")

    def test_rows_refuse_duplicate_part_ids(self):
        rows = [make_part("c1", Arm.CONTROL, 0, roi=1.0)] * 2
        assert row_error(rows) == "line 2: duplicate part: campaign 'c1' arm A part_id 0"

    def test_campaign_takes_columns_and_checks_its_id(self):
        campaign = make_campaign("c1", [1.0, 1.1], [0.9])
        assert CampaignExperiment("c1", campaign.a, campaign.b) == campaign
        assert isinstance(campaign.a, ArmColumns)
        with pytest.raises(ValueError, match="campaign_id must be non-empty text"):
            CampaignExperiment("", campaign.a, campaign.b)

    def test_campaign_counts(self):
        campaign = make_campaign("c1", [1.0, 1.1], [0.9, 1.0, 1.2])
        assert (campaign.m_a, campaign.m_b) == (2, 3)

    def test_dataset_rejects_duplicate_campaigns(self):
        campaign = make_campaign("c1", [1.0, 1.1], [0.9, 1.0])
        with pytest.raises(ValueError):
            ExperimentDataset((campaign, campaign))

    # A 500-part arm with a bad row at 250 and another at 400 (and, for a
    # duplicate, its first copy at 17): the error names row 251, the one at 250.
    @pytest.mark.parametrize("arm", [Arm.CONTROL, Arm.TREATMENT])
    @pytest.mark.parametrize("fault", ["unknown-arm", "duplicate-part-id", "bad-money"])
    def test_first_bad_part_of_a_long_arm_is_named(self, arm, fault):
        other = Arm.TREATMENT if arm is Arm.CONTROL else Arm.CONTROL

        def part(part_id, arm=arm, spend=1.0, value=1.5):
            return make_part("c1", arm, part_id, spend=spend, value=value)

        bad, message = {
            "unknown-arm": (("c1", "C", 250, 1000, 1.0, 1.5), "arm must be 'A' or 'B', got 'C'"),
            "duplicate-part-id": (part(17),
                                  f"duplicate part: campaign 'c1' arm {arm.value} part_id 17"),
            "bad-money": (part(250, spend=-1.0), "spend must be finite and >= 0, got -1.0"),
        }[fault]
        parts = [part(j) for j in range(500)]
        parts[250], parts[400] = bad, part(400, value=math.nan)
        good = [part(j, arm=other) for j in range(3)]
        rows = parts + good if arm is Arm.CONTROL else good + parts
        offset = 1 if arm is Arm.CONTROL else 1 + len(good)
        assert row_error(rows) == f"line {250 + offset}: {message}"
