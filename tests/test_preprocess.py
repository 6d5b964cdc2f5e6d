import pytest
from hypothesis import given, settings

from conftest import (
    campaign_from_rows, make_campaign, make_dataset, make_part, mixed_quality_dataset_strategy,
)
from roimeta.campaigns import Arm
from roimeta.errors import ConfigError
from roimeta.preprocess import PartExclusions, QualificationConfig, qualify


def campaign_with_impressions(campaign_id, impressions_a, impressions_b):
    return campaign_from_rows([
        make_part(campaign_id, arm, j, roi=1.0, impressions=imp)
        for arm, impressions in ((Arm.CONTROL, impressions_a), (Arm.TREATMENT, impressions_b))
        for j, imp in enumerate(impressions)
    ])


class TestPartScreening:
    def test_below_minimum_impressions_excluded(self):
        dataset = make_dataset([
            campaign_with_impressions("c1", [99] + [500] * 19, [500] * 20),
        ])
        report = qualify(dataset, QualificationConfig(min_impressions_per_part=100))
        assert report.part_exclusions == (PartExclusions("c1", Arm.CONTROL, 1, 0, 0),)
        assert report.qualified.campaigns[0].m_a == 19
        assert 0 not in report.qualified.campaigns[0].a.part_ids

    def test_zero_spend_part_excluded(self):
        campaign = campaign_from_rows([
            make_part("c1", Arm.CONTROL, 0, spend=0.0),
            *(make_part("c1", Arm.CONTROL, j, roi=1.0) for j in range(1, 20)),
            *(make_part("c1", Arm.TREATMENT, j, roi=1.0) for j in range(20)),
        ])
        report = qualify(make_dataset([campaign]))
        assert report.part_exclusions == (PartExclusions("c1", Arm.CONTROL, 0, 1, 0),)
        assert report.qualified.campaigns[0].a.part_ids == tuple(range(1, 20))

    def test_clean_campaign_retained_unchanged(self):
        dataset = make_dataset([make_campaign("c1", [1.0, 1.2, 0.9], [1.1, 1.3, 0.8])])
        report = qualify(dataset)
        assert report.qualified.campaigns == dataset.campaigns
        assert report.part_exclusions == ()
        assert report.disqualified_fraction == 0.0


class TestCampaignRule:
    def test_three_of_twenty_excluded_disqualifies(self):
        # 17 qualified control parts is not strictly above 0.9 * 20 = 18
        impressions_a = [50, 50, 50] + [500] * 17
        dataset = make_dataset([
            campaign_with_impressions("c1", impressions_a, [500] * 20),
        ])
        report = qualify(dataset)
        assert [d.campaign_id for d in report.disqualified_campaigns] == ["c1"]
        assert report.qualified.n == 0
        assert report.disqualified_fraction == 1.0

    def test_one_of_twenty_excluded_is_kept(self):
        impressions_a = [50] + [500] * 19
        dataset = make_dataset([
            campaign_with_impressions("c1", impressions_a, [500] * 20),
        ])
        report = qualify(dataset)
        assert report.qualified.n == 1
        assert report.qualified.campaigns[0].m_a == 19

    def test_losing_exactly_ten_percent_disqualifies(self):
        # 18 of 20 qualified ties 0.9 * 20; strictly-more-than is required
        impressions_a = [50, 50] + [500] * 18
        dataset = make_dataset([
            campaign_with_impressions("c1", impressions_a, [500] * 20),
        ])
        report = qualify(dataset)
        assert report.qualified.n == 0

    def test_exact_fraction_boundary_disqualifies(self):
        # 9 of 10 qualified ties the 0.9 bound; ties disqualify
        impressions_b = [50] + [500] * 9
        dataset = make_dataset([
            campaign_with_impressions("c1", [500] * 10, impressions_b),
        ])
        report = qualify(dataset)
        assert report.qualified.n == 0

    def test_disqualified_campaign_parts_all_accounted(self):
        impressions_a = [50, 50, 50] + [500] * 17
        dataset = make_dataset([
            campaign_with_impressions("c1", impressions_a, [500] * 20),
        ])
        report = qualify(dataset)
        assert report.part_exclusions == (
            PartExclusions("c1", Arm.CONTROL, 3, 0, 17),
            PartExclusions("c1", Arm.TREATMENT, 0, 0, 20),
        )
        assert sum(e.n for e in report.part_exclusions) == 40


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(mixed_quality_dataset_strategy())
    def test_conservation(self, dataset):
        report = qualify(dataset)
        total_in = sum(c.m_a + c.m_b for c in dataset.campaigns)
        total_kept = sum(c.m_a + c.m_b for c in report.qualified.campaigns)
        assert total_kept + sum(e.n for e in report.part_exclusions) == total_in

    @settings(max_examples=60, deadline=None)
    @given(mixed_quality_dataset_strategy())
    def test_counts_by_reason_match_a_part_walk(self, dataset):
        minimum = QualificationConfig().min_impressions_per_part
        report = qualify(dataset)
        kept = {c.campaign_id for c in report.qualified.campaigns}
        expected = []
        for c in dataset.campaigns:
            for arm, parts in ((Arm.CONTROL, c.parts_a), (Arm.TREATMENT, c.parts_b)):
                low = sum(p.impressions < minimum for p in parts)
                zero = sum(p.impressions >= minimum and p.spend == 0 for p in parts)
                lost = 0 if c.campaign_id in kept else len(parts) - low - zero
                if low or zero or lost:
                    expected.append(PartExclusions(c.campaign_id, arm, low, zero, lost))
        assert report.part_exclusions == tuple(expected)

    @settings(max_examples=60, deadline=None)
    @given(mixed_quality_dataset_strategy())
    def test_idempotence(self, dataset):
        first = qualify(dataset).qualified
        second = qualify(first).qualified
        assert second == first

    @settings(max_examples=60, deadline=None)
    @given(mixed_quality_dataset_strategy())
    def test_lower_threshold_never_shrinks_qualified_set(self, dataset):
        strict = qualify(dataset, QualificationConfig(min_impressions_per_part=150))
        loose = qualify(dataset, QualificationConfig(min_impressions_per_part=50))
        strict_parts = {
            (c.campaign_id, p.arm, p.part_id)
            for c in strict.qualified.campaigns
            for p in c.parts_a + c.parts_b
        }
        loose_parts = {
            (c.campaign_id, p.arm, p.part_id)
            for c in loose.qualified.campaigns
            for p in c.parts_a + c.parts_b
        }
        assert strict_parts <= loose_parts


class TestConfig:
    def test_rejects_zero_minimum(self):
        with pytest.raises(ConfigError):
            QualificationConfig(min_impressions_per_part=0)

    def test_rejects_fraction_out_of_range(self):
        with pytest.raises(ConfigError):
            QualificationConfig(min_qualified_fraction=0.0)
        with pytest.raises(ConfigError):
            QualificationConfig(min_qualified_fraction=1.5)

    def test_empty_dataset_is_reportable(self):
        report = qualify(make_dataset([]))
        assert report.qualified.n == 0
        assert report.disqualified_fraction == 0.0
