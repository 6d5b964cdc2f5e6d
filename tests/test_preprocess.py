import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    campaign_from_rows, make_campaign, make_dataset, make_part, mixed_quality_dataset_strategy,
)
from roimeta.campaigns import Arm, CampaignExperiment, ExperimentDataset, arm_columns
from roimeta.errors import ConfigError
from roimeta.preprocess import (
    DisqualifiedCampaign, PartExclusions, QualificationConfig, QualificationReport, qualify,
)
from roimeta.simulate import SimConfig, generate_experiment


def campaign_with_impressions(campaign_id, impressions_a, impressions_b):
    return campaign_from_rows([
        make_part(campaign_id, arm, j, roi=1.0, impressions=imp)
        for arm, impressions in ((Arm.CONTROL, impressions_a), (Arm.TREATMENT, impressions_b))
        for j, imp in enumerate(impressions)
    ])


def walked(dataset, config=QualificationConfig()):
    """The module docstring's rule, part by part."""
    minimum, frac = config.min_impressions_per_part, config.min_qualified_fraction
    retained, excluded, disqualified = [], [], []
    for campaign in dataset.campaigns:
        screened = []
        for columns in (campaign.a, campaign.b):
            pairs = list(zip(columns.impressions, columns.spend_micros))
            keep = [i for i, (impressions, spend) in enumerate(pairs)
                    if impressions >= minimum and spend != 0]
            low = sum(impressions < minimum for impressions, _ in pairs)
            screened.append((columns, keep, low, len(pairs) - low - len(keep)))
        (a, keep_a, _, _), (b, keep_b, _, _) = screened
        m_a, m_b = len(a.part_ids), len(b.part_ids)
        kept = len(keep_a) > frac * m_a and len(keep_b) > frac * m_b
        if kept:
            retained.append(CampaignExperiment(campaign.campaign_id, *(
                arm_columns(*(tuple(column[i] for i in keep) for column in columns[:4]))
                for columns, keep, _, _ in screened)))
        else:
            disqualified.append(DisqualifiedCampaign(
                campaign.campaign_id,
                f"qualified parts {len(keep_a)}/{m_a} (A) and "
                f"{len(keep_b)}/{m_b} (B) not above fraction {frac:g}"))
        for arm, (_, keep, low, zero) in zip((Arm.CONTROL, Arm.TREATMENT), screened):
            lost = 0 if kept else len(keep)
            if low or zero or lost:
                excluded.append(PartExclusions(campaign.campaign_id, arm, low, zero, lost))
    return QualificationReport(
        ExperimentDataset(tuple(retained)), tuple(excluded), tuple(disqualified),
        len(disqualified) / dataset.n if dataset.n else 0.0)


def empty_arm_campaign(campaign_id, empty):
    full = arm_columns([0, 1], [500, 500], [1_000_000, 2_000_000], [1_500_000, 2_000_000])
    none = arm_columns([], [], [], [])
    return CampaignExperiment(campaign_id, *((none, full) if empty == "A" else (full, none)))


def mixed_campaign(campaign_id, impressions, spends):
    """Control parts of the given impressions and spends, ten clean treatment parts."""
    return campaign_from_rows([
        *(make_part(campaign_id, Arm.CONTROL, j, spend=spend, roi=1.0, impressions=imp)
          for j, (imp, spend) in enumerate(zip(impressions, spends))),
        *(make_part(campaign_id, Arm.TREATMENT, j, roi=1.1) for j in range(10)),
    ])


CLEAN = generate_experiment(SimConfig(n_campaigns=30, m_a=10, m_b=10, seed=5))
QUALIFY_CASES = {
    "nothing-drops": (CLEAN, QualificationConfig()),
    "empty-arm": (make_dataset([*CLEAN.campaigns[:2], empty_arm_campaign("ea", "A"),
                                empty_arm_campaign("eb", "B")]), QualificationConfig()),
    "fraction-1": (CLEAN, QualificationConfig(min_qualified_fraction=1.0)),
    "mixed-drops": (make_dataset([
        *CLEAN.campaigns[:3],
        mixed_campaign("one-low", [50] + [500] * 9, [1.0] * 10),
        mixed_campaign("one-zero", [500] * 10, [0.0] + [1.0] * 9),
        mixed_campaign("low-and-zero", [50, 500, 99] + [500] * 7, [1.0, 0.0, 0.0] + [1.0] * 7),
        mixed_campaign("zero-and-low", [500, 20] + [500] * 18, [0.0] + [1.0] * 19),
    ]), QualificationConfig(min_qualified_fraction=0.85)),
}


class TestColumnScreen:
    """``qualify`` tests the columns first and walks the parts only when one
    drops; the outcome is the part-by-part rule's, report for report."""

    @pytest.mark.parametrize("name", sorted(QUALIFY_CASES))
    def test_same_report_as_the_part_walk(self, name):
        dataset, config = QUALIFY_CASES[name]
        report = qualify(dataset, config)
        assert report == walked(dataset, config)
        kept = {c.campaign_id: c for c in report.qualified.campaigns}
        for campaign in dataset.campaigns:  # a campaign that loses nothing is kept as it is
            if campaign.campaign_id in kept and campaign == kept[campaign.campaign_id]:
                assert kept[campaign.campaign_id] is campaign

    def test_cases_reach_each_branch(self):
        assert qualify(*QUALIFY_CASES["nothing-drops"]).part_exclusions == ()
        assert qualify(*QUALIFY_CASES["fraction-1"]).qualified.n == 0
        empty = qualify(*QUALIFY_CASES["empty-arm"])
        assert [d.campaign_id for d in empty.disqualified_campaigns] == ["ea", "eb"]
        mixed = qualify(*QUALIFY_CASES["mixed-drops"])
        assert [(e.campaign_id, e.arm.value, e.low_impressions, e.zero_spend,
                 e.campaign_disqualified) for e in mixed.part_exclusions] == [
            ("one-low", "A", 1, 0, 0), ("one-zero", "A", 0, 1, 0),
            ("low-and-zero", "A", 2, 1, 7), ("low-and-zero", "B", 0, 0, 10),
            ("zero-and-low", "A", 1, 1, 0)]

    @settings(max_examples=60, deadline=None)
    @given(mixed_quality_dataset_strategy(), st.sampled_from([0.5, 0.9, 1.0]),
           st.sampled_from([1, 100, 250]))
    def test_any_dataset(self, dataset, fraction, minimum):
        config = QualificationConfig(minimum, fraction)
        assert qualify(dataset, config) == walked(dataset, config)


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
