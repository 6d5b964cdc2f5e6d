import hashlib
import math

import numpy as np
import pytest

from conftest import dv_by_id, dv_pairs, make_campaign, make_dataset, random_dataset
from roimeta.baselines import campaign_micro_totals as totals_of
from roimeta.errors import ConfigError, SchemaError
from roimeta.meta import (
    arm_stats,
    effect_size,
    summarize_effects,
)
from roimeta.pipeline import collect_effects
from roimeta.preprocess import qualify
from roimeta.reportio import to_json, to_plain
from roimeta.simulate import generate_experiment
from test_simulate import PINNED_SHAPES
from roimeta.subgroups import (
    GroupAssignment,
    SubgroupSpec,
    resolve_subgroups,
    subgroup_analysis,
)


def by_spend(totals, **spec):
    """The spend tiers of ``totals``, thirds unless ``spec`` gives fractions."""
    return resolve_subgroups(totals, SubgroupSpec(**spec))


def dataset_with_spends(spends):
    return make_dataset([
        make_campaign(f"c{i}", [1.0, 1.0], [1.0, 1.0], spend_a=s / 4, spend_b=s / 4)
        for i, s in enumerate(spends)
    ])


class TestPartitionBySpend:
    def test_three_distinct_spends(self):
        groups = by_spend(totals_of(dataset_with_spends([50.0, 30.0, 20.0])))
        assert [g.members for g in groups] == [("c0",), ("c1",), ("c2",)]

    def test_nine_equal_spends_split_evenly(self):
        groups = by_spend(totals_of(dataset_with_spends([12.0] * 9)))
        assert [len(g.members) for g in groups] == [3, 3, 3]

    def test_single_campaign_collapses_to_one_group(self):
        # evaluate's report warns about the empty tiers (test_pipeline)
        groups = by_spend(totals_of(dataset_with_spends([10.0])))
        assert len(groups) == 1
        assert groups[0].members == ("c0",)

    def test_every_campaign_assigned_once(self):
        rng = np.random.default_rng(55)
        dataset = random_dataset(rng, n_campaigns=(6, 12))
        groups = by_spend(totals_of(dataset))
        assigned = [cid for g in groups for cid in g.members]
        assert sorted(assigned) == sorted(c.campaign_id for c in dataset.campaigns)

    def test_tiers_count_both_arms(self):
        # both-arm spend ranks c1 (42) > c0 (22) > c2 (20); control alone would
        # rank c0 (20) > c2 (10) > c1 (2)
        dataset = make_dataset([
            make_campaign("c0", [1.0, 1.0], [1.0, 1.0], spend_a=10.0, spend_b=1.0),
            make_campaign("c1", [1.0, 1.0], [1.0, 1.0], spend_a=1.0, spend_b=20.0),
            make_campaign("c2", [1.0, 1.0], [1.0, 1.0], spend_a=5.0, spend_b=5.0),
        ])
        groups = by_spend(totals_of(dataset))
        assert [g.members for g in groups] == [("c1",), ("c0",), ("c2",)]


class TestPartitionByLabel:
    def test_groups_by_label(self):
        dataset = dataset_with_spends([1.0, 2.0, 3.0])
        groups = resolve_subgroups(totals_of(dataset), SubgroupSpec(
            labels={"c0": "x", "c1": "y", "c2": "x"}))
        assert [(g.group_id, g.members) for g in groups] == [
            ("x", ("c0", "c2")), ("y", ("c1",)),
        ]

    def test_missing_label_rejected(self):
        dataset = dataset_with_spends([1.0, 2.0])
        with pytest.raises(SchemaError):
            resolve_subgroups(totals_of(dataset), SubgroupSpec(labels={"c0": "x"}))

    def test_spec_resolution(self):
        dataset = dataset_with_spends([1.0, 2.0])
        spec = SubgroupSpec(labels={"c0": "x", "c1": "x"})
        groups = resolve_subgroups(totals_of(dataset), spec)
        assert groups[0].members == ("c0", "c1")


class TestSubgroupAnalysis:
    def test_identical_effects_are_fully_homogeneous(self):
        pairs = {f"c{i}": (0.4, 0.1) for i in range(6)}
        groups = (
            GroupAssignment("g1", ("c0", "c1")),
            GroupAssignment("g2", ("c2", "c3", "c4", "c5")),
        )
        report = subgroup_analysis(pairs, 0.0, groups, 0.95)
        assert report.q_star_total == 0.0
        assert report.q_within == 0.0
        assert report.q_between == 0.0
        assert report.p_between == 1.0

    def test_two_singleton_groups(self):
        pairs = {"c0": (1.0, 0.1), "c1": (-1.0, 0.1)}
        groups = (GroupAssignment("g1", ("c0",)), GroupAssignment("g2", ("c1",)))
        report = subgroup_analysis(pairs, 1.9, groups, 0.95)  # w* = 0.5 each
        assert report.q_star_total == pytest.approx(1.0, abs=1e-12)
        assert report.q_within == 0.0
        assert report.q_between == pytest.approx(1.0, abs=1e-12)
        assert report.df_between == 1
        assert report.p_between == pytest.approx(0.31731050786291415, abs=1e-10)

    def test_merging_all_groups_moves_q_within(self):
        pairs = {f"c{i}": (d, 0.2) for i, d in enumerate([0.1, 0.5, -0.2, 0.9])}
        split = (
            GroupAssignment("g1", ("c0", "c1")),
            GroupAssignment("g2", ("c2", "c3")),
        )
        merged = (GroupAssignment("all", ("c0", "c1", "c2", "c3")),)
        split_report = subgroup_analysis(pairs, 0.05, split, 0.95)
        merged_report = subgroup_analysis(pairs, 0.05, merged, 0.95)
        assert merged_report.q_within == pytest.approx(merged_report.q_star_total, abs=1e-12)
        assert merged_report.q_between == pytest.approx(0.0, abs=1e-12)
        assert merged_report.q_star_total == pytest.approx(split_report.q_star_total, abs=1e-12)

    def test_group_relabeling_invariance(self):
        pairs = {f"c{i}": (d, 0.2) for i, d in enumerate([0.1, 0.5, -0.2, 0.9])}
        groups = (
            GroupAssignment("g1", ("c0", "c1")),
            GroupAssignment("g2", ("c2", "c3")),
        )
        renamed = (
            GroupAssignment("zz", ("c2", "c3")),
            GroupAssignment("aa", ("c0", "c1")),
        )
        first = subgroup_analysis(pairs, 0.05, groups, 0.95)
        second = subgroup_analysis(pairs, 0.05, renamed, 0.95)
        assert second.q_within == pytest.approx(first.q_within, abs=1e-12)
        assert second.q_between == pytest.approx(first.q_between, abs=1e-12)

    def test_unassigned_effect_rejected(self):
        pairs = {"c0": (0.1, 0.1), "c1": (0.2, 0.1)}
        with pytest.raises(SchemaError, match="not assigned"):
            subgroup_analysis(pairs, 0.0, (GroupAssignment("g1", ("c0",)),), 0.95)

    def test_double_assignment_rejected(self):
        pairs = {"c0": (0.1, 0.1)}
        groups = (GroupAssignment("g1", ("c0",)), GroupAssignment("g2", ("c0",)))
        with pytest.raises(SchemaError, match="more than one"):
            subgroup_analysis(pairs, 0.0, groups, 0.95)

    def test_negative_tau2_rejected(self):
        pairs = {"c0": (0.1, 0.1)}
        with pytest.raises(ValueError, match=r"^tau2 must be >= 0, got -0\.1$"):
            subgroup_analysis(pairs, -0.1, (GroupAssignment("g1", ("c0",)),), 0.95)

    def test_bad_confidence_level_is_checked_first(self):
        # before the assignment checks, so it does not wait for z_significance
        pairs = {"c0": (0.1, 0.1)}
        with pytest.raises(ConfigError, match="confidence_level must be in"):
            subgroup_analysis(pairs, 0.0, (), confidence_level=1.5)

    def test_empty_group_dropped(self):
        # evaluate's report warns about the dropped group (test_pipeline)
        pairs = {"c0": (0.1, 0.1), "c1": (0.2, 0.1)}
        groups = (
            GroupAssignment("g1", ("c0", "c1")),
            GroupAssignment("ghost", ("c9",)),
        )
        report = subgroup_analysis(pairs, 0.0, groups, 0.95)
        assert [s.group_id for s in report.summaries] == ["g1"]

    def test_decomposition_against_direct_between_formula(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            dataset = random_dataset(rng, n_campaigns=(4, 12))
            effects = [
                effect_size(arm_stats(c.a.rois), arm_stats(c.b.rois),
                            campaign_id=c.campaign_id)
                for c in dataset.campaigns
            ]
            tau2 = summarize_effects(dv_pairs(effects), 0.95).heterogeneity.tau2
            groups = by_spend(totals_of(dataset))
            report = subgroup_analysis(dv_by_id(effects), tau2, groups, 0.95)
            # identity held by construction
            assert report.q_star_total == pytest.approx(
                report.q_within + report.q_between, abs=1e-12
            )
            # independent between-group computation
            w_star = {e.campaign_id: 1.0 / (e.v + tau2) for e in effects}
            d = {e.campaign_id: e.d for e in effects}
            grand = math.fsum(w_star[c] * d[c] for c in w_star) / math.fsum(w_star.values())
            direct = 0.0
            for s in report.summaries:
                group_w = math.fsum(w_star[c] for c in s.members)
                direct += group_w * (s.mu_star_k - grand) ** 2
            assert report.q_between == pytest.approx(direct, abs=1e-9)
            assert report.q_between >= -1e-9


# SHA-256 of to_json(to_plain(x)) for the summary and three subgroup analyses
# (spend thirds, fractions 0.5/0.2/0.1/0.1/0.1, labels g{i % 4} plus one
# single-campaign group), and the number of groups each partition makes, on
# the smoke shapes. The summary pins are the earlier ones with the random
# model's per-study weights and the significance block's ``significant`` flag
# removed, which the summary no longer stores. The
# subgroup documents carry the split the reports stored until it was computed
# on access (``stored_split``), so these pins also pin the computed values.
PINNED_SUBGROUP_SHA = {
    "deep": (
        "d4387c25448bb9d7ca90b4e180122d8c7cceb77193c36548f0d73aad9c77f605",
        "4b5b34debb56d5520b6dc69ee7516737945a6f295afc16c6c516bf0415a27f72",
        "5d0551398d09f6738bf963a1fae7c7c4e3ee0db3401e8a446571ca01b91debbc",
        "62d69030ed16771dcafea473c63c221ad401902361bb0c306be2320fccda22ac",
    ),
    "study": (
        "ac0495c3ac7df2c2dc2811105d6f0b1b76a454565cfa9723ae1de78489bfb5fd",
        "71028953d164068f37ea93962954303f8a0033ebae074e32949647fb7afe8fd2",
        "3fea38e9442bdc5269c0e0f26f615a6ea2b3d85050ed8a7697e36c41c7a93a6c",
        "c7a23d3e719e20a0e56af100d1e1ef495afb256b0d32749e51aa9f053e4e351f",
    ),
    "wide": (
        "d33ce2a0fa10cdff35395464f3371d6256f53af2923d908e7539dc1ae9896eac",
        "804a2d53d3bb42e66b0351996ec1c9084d1b65d8260d86c3bde749bd326b868c",
        "550a79719dc4a417ac6699a2611b1b588c2b468c7f1680e6fc020aadbb300edd",
        "293af2abd77ed83f5730d33b170770d640ffaf52d1fc016f64ba13cd1b2c2583",
    ),
}
# deep leaves one spend tier empty in each partition by spend
PINNED_SUBGROUP_COUNTS = {"deep": [2, 4, 5], "study": [3, 5, 5], "wide": [3, 5, 5]}


def stored_split(report):
    """The plain subgroup document with the computed split written in, as the
    reports stored it before schema 4."""
    return {**to_plain(report), "q_within": report.q_within, "q_between": report.q_between,
            "df_between": report.df_between}


class TestSubgroupOutputsPinned:
    @pytest.mark.parametrize("shape", sorted(PINNED_SUBGROUP_SHA))
    def test_summary_and_subgroup_bytes(self, shape):
        qualified = qualify(generate_experiment(PINNED_SHAPES[shape][0])).qualified
        effects, _ = collect_effects(qualified)
        summary = summarize_effects(dv_pairs(effects), 0.95)
        tau2 = summary.heterogeneity.tau2
        totals = totals_of(qualified)
        ids = list(totals)
        labels = {cid: f"g{i % 4}" for i, cid in enumerate(ids)}
        labels[ids[-1]] = "solo"
        partitions = (
            by_spend(totals),
            by_spend(totals, spend_fractions=(0.5, 0.2, 0.1, 0.1, 0.1)),
            resolve_subgroups(totals, SubgroupSpec(labels=labels)),
        )
        reports = [subgroup_analysis(dv_by_id(effects), tau2, groups, 0.95)
                   for groups in partitions]
        digests = tuple(
            hashlib.sha256(to_json(x).encode("utf-8")).hexdigest()
            for x in (to_plain(summary), *map(stored_split, reports))
        )
        assert digests == PINNED_SUBGROUP_SHA[shape]
        assert [len(groups) for groups in partitions] == PINNED_SUBGROUP_COUNTS[shape]
