import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import campaign_from_rows, dv_pairs, make_part, random_dataset
from oracle import oracle_meta
from roimeta.campaigns import Arm
from roimeta.dataio import dataset_from_rows
from roimeta.errors import (
    ConfigError,
    DegenerateEffectError,
    InsufficientDataError,
    UndefinedRoiError,
)
from roimeta.meta import (
    ArmSampleStats,
    EffectSize,
    arm_stats,
    effect_size,
    random_effect_summary,
    summarize_effects,
    z_significance,
)
from roimeta.pipeline import collect_effects


def rois_of(rows):
    """The ROIs of one arm's rows, as ingest derives them."""
    campaign = campaign_from_rows(rows)
    return list(campaign.a.rois + campaign.b.rois)


class TestArmStats:
    def test_hand_example(self):
        parts = [make_part("c1", Arm.CONTROL, 0, roi=0.8),
                 make_part("c1", Arm.CONTROL, 1, roi=1.2)]
        stats = arm_stats(rois_of(parts))
        assert stats.mean == pytest.approx(1.0, abs=1e-12)
        assert stats.variance == pytest.approx(0.08, abs=1e-12)
        assert stats.m == 2

    def test_constant_rois_have_zero_variance(self):
        parts = [make_part("c1", Arm.CONTROL, j, roi=0.1) for j in range(3)]
        stats = arm_stats(rois_of(parts))
        assert stats.mean == 0.1
        assert stats.variance == 0.0

    def test_single_part_rejected(self):
        with pytest.raises(InsufficientDataError):
            arm_stats(rois_of([make_part("c1", Arm.CONTROL, 0, roi=1.0)]))

    def test_zero_spend_part_is_named(self):
        rois = [0.8, None, 1.2]
        with pytest.raises(UndefinedRoiError) as caught:
            arm_stats(rois)
        assert str(caught.value) == (
            "part at index 1 has no ROI (zero spend); qualify the dataset first")
        with pytest.raises(UndefinedRoiError) as caught:
            arm_stats(rois, "c1", (0, 3, 5))
        assert str(caught.value) == (
            "campaign 'c1' part 3 has no ROI (zero spend); qualify the dataset first")

    def test_collect_effects_names_the_unqualified_part(self):
        rows = [("x", "A", j, 500, 0.0 if j == 3 else 10.0, 12.0) for j in range(5)]
        rows += [("x", "B", j, 500, 10.0, 11.0) for j in range(5)]
        unqualified = dataset_from_rows(rows)
        with pytest.raises(UndefinedRoiError, match=r"^campaign 'x' part 3 has no ROI"):
            collect_effects(unqualified)


class TestEffectSize:
    def test_hand_example(self):
        stats_a = arm_stats(rois_of([make_part("c", Arm.CONTROL, 0, roi=0.8),
                                     make_part("c", Arm.CONTROL, 1, roi=1.2)]))
        stats_b = arm_stats(rois_of([make_part("c", Arm.TREATMENT, 0, roi=1.1),
                                     make_part("c", Arm.TREATMENT, 1, roi=1.5)]))
        effect = effect_size(stats_a, stats_b, campaign_id="c")
        assert effect.pooled_sd == pytest.approx(0.28284271247461895, abs=1e-12)
        assert effect.delta == pytest.approx(1.0606601717798216, abs=1e-12)
        assert effect.df == 2
        assert effect.correction == pytest.approx(4.0 / 7.0, abs=1e-15)
        assert effect.d == pytest.approx(0.6060915267313266, abs=1e-12)
        assert effect.v == pytest.approx(0.35651811745106204, abs=1e-12)
        assert effect.w * effect.v == pytest.approx(1.0, abs=1e-12)

    def test_identical_arms_give_zero(self):
        stats = arm_stats(rois_of([make_part("c", Arm.CONTROL, 0, roi=0.8),
                                   make_part("c", Arm.CONTROL, 1, roi=1.2)]))
        effect = effect_size(stats, stats)
        assert effect.delta == 0.0
        assert effect.d == 0.0

    def test_swap_negates_d_keeps_v(self):
        stats_a = ArmSampleStats(1.0, 0.08, 3)
        stats_b = ArmSampleStats(1.3, 0.05, 4)
        forward = effect_size(stats_a, stats_b)
        backward = effect_size(stats_b, stats_a)
        assert backward.d == -forward.d
        assert backward.v == forward.v

    def test_zero_spread_equal_means(self):
        stats = ArmSampleStats(1.0, 0.0, 3)
        effect = effect_size(stats, ArmSampleStats(1.0, 0.0, 5))
        assert effect.d == 0.0
        c = effect.correction
        assert effect.v == pytest.approx(c * c * (8 / 15), abs=1e-15)

    def test_zero_spread_unequal_means(self):
        with pytest.raises(DegenerateEffectError):
            effect_size(ArmSampleStats(1.0, 0.0, 3), ArmSampleStats(1.5, 0.0, 3))

    def test_noncentral_t_variance(self):
        default = effect_size(ArmSampleStats(1.0, 0.08, 4), ArmSampleStats(1.3, 0.05, 4))
        c, d = default.correction, default.d
        assert default.v == pytest.approx(c * c * (8 / 16 + d * d / 8), abs=1e-15)

    def test_variance_minimized_at_equal_split(self):
        # fixed total parts and fixed d: the size term is smallest at m_a == m_b
        total = 12
        variances = {}
        for m_a in range(2, total - 1):
            m_b = total - m_a
            stats_a = ArmSampleStats(1.0, 0.0, m_a)
            stats_b = ArmSampleStats(1.0, 0.0, m_b)
            variances[(m_a, m_b)] = effect_size(stats_a, stats_b).v
        assert min(variances, key=variances.get) == (6, 6)


class TestFixedEffect:
    """``summarize_effects``'s fixed model: the random model at tau2 = 0."""

    def test_hand_example(self):
        summary = summarize_effects([(0.5, 0.1), (0.1, 0.1)], 0.95).fixed
        assert summary.mu == pytest.approx(0.3, abs=1e-12)
        assert summary.nu == pytest.approx(0.05, abs=1e-12)
        assert summary.n == 2

    def test_single_study(self):
        summary = summarize_effects([(0.42, 0.2)], 0.95).fixed
        assert summary.mu == pytest.approx(0.42, abs=1e-15)
        assert summary.nu == pytest.approx(0.2, abs=1e-15)

    def test_constant_effects(self):
        pairs = [(0.7, 0.1), (0.7, 0.2), (0.7, 0.4)]
        summary = summarize_effects(pairs, 0.95).fixed
        assert summary.mu == pytest.approx(0.7, abs=1e-12)
        assert summary.nu == pytest.approx(1.0 / (10 + 5 + 2.5), abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError, match="no effects to summarize"):
            summarize_effects([], 0.95)


class TestCochranQ:
    """``summarize_effects``'s Q, around the fixed mean with n - 1 df."""

    def test_hand_example(self):
        stats = summarize_effects([(0.5, 0.1), (0.1, 0.1)], 0.95).heterogeneity
        assert stats.q == pytest.approx(0.8, abs=1e-12)
        assert stats.p_q == pytest.approx(0.37109336952269756, abs=1e-10)
        assert stats.df == 1

    def test_homogeneous(self):
        stats = summarize_effects([(0.7, 0.1), (0.7, 0.2)], 0.95).heterogeneity
        assert stats.q == 0.0
        assert stats.p_q == 1.0

    def test_opposed_effects(self):
        stats = summarize_effects([(1.0, 0.1), (-1.0, 0.1)], 0.95).heterogeneity
        assert stats.q == pytest.approx(20.0, abs=1e-12)

    def test_single_study_convention(self):
        stats = summarize_effects([(0.3, 0.1)], 0.95).heterogeneity
        assert (stats.q, stats.df, stats.p_q, stats.lambda_, stats.tau2) == (0.0, 0, 1.0, 0.0, 0.0)


class TestTauSquared:
    """DerSimonian-Laird: (Q - (n - 1)) / lambda, and 0 when Q < n - 1."""

    def test_below_df_is_zero(self):
        stats = summarize_effects([(0.5, 0.1), (0.1, 0.1)], 0.95).heterogeneity
        assert stats.q < 1
        assert stats.tau2 == 0.0

    def test_hand_example(self):
        # weights 10 and 10: lambda = 20 - 200 / 20 = 10, Q = 20
        stats = summarize_effects([(1.0, 0.1), (-1.0, 0.1)], 0.95).heterogeneity
        assert stats.lambda_ == pytest.approx(10.0, abs=1e-12)
        assert stats.tau2 == pytest.approx(1.9, abs=1e-12)

    def test_boundary_continuity(self):
        # weights 2 and 2 around a mean of 0: Q = 1 = n - 1 exactly
        stats = summarize_effects([(0.5, 0.5), (-0.5, 0.5)], 0.95).heterogeneity
        assert (stats.q, stats.lambda_) == (1.0, 2.0)
        assert stats.tau2 == 0.0


class TestRandomEffect:
    def test_hand_example(self):
        pairs = [(1.0, 0.1), (-1.0, 0.1)]
        summary = random_effect_summary(pairs, 1.9)
        weights = [EffectSize(f"c{i}", d, 1.0, 2, v).w_star(1.9) for i, (d, v) in enumerate(pairs)]
        assert weights == pytest.approx([0.5, 0.5], abs=1e-12)
        assert summary.mu_star == pytest.approx(0.0, abs=1e-12)
        assert summary.nu_star == pytest.approx(1.0, abs=1e-12)

    def test_zero_tau_reduces_to_fixed(self):
        pairs = [(0.5, 0.1), (0.1, 0.3)]
        fixed = summarize_effects(pairs, 0.95).fixed
        random = random_effect_summary(pairs, 0.0)
        assert random.mu_star == fixed.mu
        assert random.nu_star == fixed.nu

    def test_huge_tau_approaches_unweighted_mean(self):
        pairs = [(0.9, 0.1), (0.1, 0.4)]
        summary = random_effect_summary(pairs, 1e9)
        assert summary.mu_star == pytest.approx(0.5, abs=1e-6)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            random_effect_summary([(0.5, 0.1)], -0.1)


class TestSignificance:
    def test_null_case(self):
        result = z_significance(0.0, 1.0, 0.95)
        assert result.z == 0.0
        assert result.p_z == 0.5
        assert result.ci_low == pytest.approx(-1.959963984540054, abs=1e-9)
        assert result.ci_high == pytest.approx(1.959963984540054, abs=1e-9)
        assert not result.significant

    def test_hand_example(self):
        result = z_significance(0.3, 0.05, 0.95)
        assert result.z == pytest.approx(1.3416407864998738, abs=1e-12)
        assert result.p_z == pytest.approx(0.08985624743949988, abs=1e-10)
        assert result.ci_low == pytest.approx(-0.13826127028829077, abs=1e-10)
        assert result.ci_high == pytest.approx(0.7382612702882907, abs=1e-10)
        assert not result.significant

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            z_significance(0.0, 0.0, 0.95)
        with pytest.raises(ConfigError):
            z_significance(0.0, 1.0, confidence_level=1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=1e-4, max_value=10),
        st.floats(min_value=0.5, max_value=0.999),
    )
    def test_ci_consistent_with_significance(self, mu, nu, level):
        result = z_significance(mu, nu, level)
        excludes_zero = result.ci_low > 0 or result.ci_high < 0
        if abs(result.p_z - (1 - level) / 2) > 1e-12:
            assert result.significant == excludes_zero


class TestWholeChain:
    def test_matches_oracle_on_random_datasets(self):
        rng = np.random.default_rng(4257)
        for _ in range(25):
            dataset = random_dataset(rng)
            effects = []
            for campaign in dataset.campaigns:
                effects.append(effect_size(
                    arm_stats(campaign.a.rois), arm_stats(campaign.b.rois),
                    campaign_id=campaign.campaign_id,
                ))
            summary = summarize_effects(dv_pairs(effects), 0.95)
            expected = oracle_meta(dataset)
            assert summary.fixed.mu == pytest.approx(expected["mu"], abs=1e-9)
            assert summary.fixed.nu == pytest.approx(expected["nu"], abs=1e-9)
            assert summary.heterogeneity.q == pytest.approx(expected["q"], abs=1e-9)
            assert summary.heterogeneity.tau2 == pytest.approx(expected["tau2"], abs=1e-9)
            assert summary.random.mu_star == pytest.approx(expected["mu_star"], abs=1e-9)
            assert summary.random.nu_star == pytest.approx(expected["nu_star"], abs=1e-9)
            assert summary.significance.z == pytest.approx(expected["z"], abs=1e-9)

    def test_bounds_and_orderings(self):
        rng = np.random.default_rng(991)
        for _ in range(20):
            dataset = random_dataset(rng)
            effects = [
                effect_size(arm_stats(c.a.rois), arm_stats(c.b.rois),
                            campaign_id=c.campaign_id)
                for c in dataset.campaigns
            ]
            summary = summarize_effects(dv_pairs(effects), 0.95)
            d_values = [e.d for e in effects]
            assert min(d_values) - 1e-12 <= summary.fixed.mu <= max(d_values) + 1e-12
            assert min(d_values) - 1e-12 <= summary.random.mu_star <= max(d_values) + 1e-12
            assert summary.fixed.nu <= min(e.v for e in effects) + 1e-15
            assert summary.heterogeneity.tau2 >= 0.0
            assert summary.random.nu_star >= summary.fixed.nu - 1e-15

    def test_order_independence(self):
        rng = np.random.default_rng(1213)
        dataset = random_dataset(rng, n_campaigns=(8, 8))
        effects = [
            effect_size(arm_stats(c.a.rois), arm_stats(c.b.rois),
                        campaign_id=c.campaign_id)
            for c in dataset.campaigns
        ]
        forward = summarize_effects(dv_pairs(effects), 0.95)
        reversed_ = summarize_effects(dv_pairs(reversed(effects)), 0.95)
        assert abs(forward.fixed.mu - reversed_.fixed.mu) <= 1e-12
        assert abs(forward.heterogeneity.q - reversed_.heterogeneity.q) <= 1e-12
        assert abs(forward.random.mu_star - reversed_.random.mu_star) <= 1e-12
