import pytest
from hypothesis import given, strategies as st

from conftest import make_campaign, make_part
from roimeta.campaigns import (
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
