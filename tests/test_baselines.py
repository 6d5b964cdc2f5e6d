import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_strategy, make_campaign, make_dataset, make_part, sane_rois
from roimeta import baselines
from roimeta.baselines import (
    AaCalibration,
    AaSettings,
    BaselineDecision,
    BaselineMethod,
    aa_calibrate,
    campaign_micro_totals as totals_of,
    macro_delta,
    micro_delta,
    micro_roi,
    threshold_decision,
)
from roimeta.campaigns import Arm, CampaignExperiment, ExperimentDataset, PartMeasurement
from roimeta.errors import ConfigError, InsufficientDataError, UndefinedRoiError
from roimeta.randomness import HashStream


def swap_arms(dataset: ExperimentDataset) -> ExperimentDataset:
    campaigns = []
    for c in dataset.campaigns:
        new_a = [replace(p, arm=Arm.CONTROL) for p in c.parts_b]
        new_b = [replace(p, arm=Arm.TREATMENT) for p in c.parts_a]
        campaigns.append(CampaignExperiment(c.campaign_id, new_a, new_b))
    return ExperimentDataset(tuple(campaigns), metadata=dict(dataset.metadata))


def split_once(
    campaign: CampaignExperiment, share_b: float, stream: HashStream
) -> CampaignExperiment:
    """Reference A/A split: one campaign's control parts rebuilt as a
    pseudo-experiment of part objects, whose totals ``micro_delta`` and
    ``macro_delta`` then read."""
    m = campaign.m_a
    order = list(range(m))
    stream.shuffle(order)
    n_b = min(max(round(m * share_b), 1), m - 1)
    chosen = set(order[:n_b])
    pseudo_a = [p for j, p in enumerate(campaign.parts_a) if j not in chosen]
    pseudo_b = [
        replace(p, arm=Arm.TREATMENT)
        for j, p in enumerate(campaign.parts_a)
        if j in chosen
    ]
    return CampaignExperiment(campaign.campaign_id, pseudo_a, pseudo_b)


def pseudo_experiment(
    dataset: ExperimentDataset, share_b: float, seed: int, k: int
) -> ExperimentDataset:
    return make_dataset([
        split_once(c, share_b, HashStream("aa-split", seed, k, c.campaign_id))
        for c in dataset.campaigns
        if c.m_a >= 2
    ])


def reference_stats(dataset, split_ratio, repeats_k, seed) -> dict[BaselineMethod, tuple]:
    """Per-repeat statistics of the object path, computed one pseudo-experiment
    at a time."""
    share_b = split_ratio[1] / (split_ratio[0] + split_ratio[1])
    stats = {m: [] for m in BaselineMethod}
    for k in range(repeats_k):
        totals = totals_of(pseudo_experiment(dataset, share_b, seed, k))
        stats[BaselineMethod.MICRO].append(micro_delta(totals))
        stats[BaselineMethod.MACRO].append(macro_delta(totals, "mean"))
        stats[BaselineMethod.MACRO_MEDIAN].append(macro_delta(totals, "median"))
    return {m: tuple(values) for m, values in stats.items()}


def outcome(compute):
    """Float bits of every statistic, or the UndefinedRoiError message."""
    try:
        stats = compute()
    except UndefinedRoiError as exc:
        return "UndefinedRoiError", str(exc)
    return {m: [s.hex() for s in values] for m, values in stats.items()}


money = st.floats(min_value=1e-6, max_value=1e4)
shares = st.one_of(
    st.floats(min_value=1e-4, max_value=0.05),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.95, max_value=1.0 - 1e-4),
)


@st.composite
def uneven_campaign(draw, campaign_id: str) -> CampaignExperiment:
    """Control parts with independent, possibly zero spends, unqualified."""
    parts_a = []
    for j in range(draw(st.integers(2, 7))):
        spend = 0.0 if draw(st.integers(0, 9)) == 0 else draw(money)
        value = spend * draw(sane_rois) if spend else 0.0
        parts_a.append(PartMeasurement(campaign_id, Arm.CONTROL, j, 1000, spend, value))
    parts_b = [make_part(campaign_id, Arm.TREATMENT, 0, roi=1.0)]
    return CampaignExperiment(campaign_id, parts_a, parts_b)


@st.composite
def uneven_dataset(draw) -> ExperimentDataset:
    n = draw(st.integers(1, 5))
    return make_dataset([draw(uneven_campaign(f"c{i}")) for i in range(n)])


def two_campaign_dataset():
    # campaign ROIs 1.2 and 0.8 with spends 10 and 5 on the control arm;
    # treatment mirrors the control so deltas are exercised separately
    c1 = make_campaign("c1", [1.2, 1.2], [1.2, 1.2], spend_a=5.0, spend_b=5.0)
    c2 = make_campaign("c2", [0.8, 0.8], [0.8, 0.8], spend_a=2.5, spend_b=2.5)
    return make_dataset([c1, c2])


class TestMicro:
    def test_spend_weighted_pooling(self):
        dataset = two_campaign_dataset()
        # control arm: (12 + 4) / 15
        assert micro_roi(totals_of(dataset), Arm.CONTROL) == pytest.approx(16 / 15, abs=1e-12)

    def test_single_campaign_is_its_roi(self):
        dataset = make_dataset([make_campaign("c1", [1.3, 1.3], [1.1, 1.1])])
        assert micro_roi(totals_of(dataset), Arm.CONTROL) == pytest.approx(1.3, abs=1e-12)

    def test_constant_roi_is_preserved(self):
        dataset = make_dataset([
            make_campaign("c1", [0.9, 0.9], [0.9], spend_a=3.0),
            make_campaign("c2", [0.9], [0.9, 0.9], spend_a=17.0),
        ])
        assert micro_roi(totals_of(dataset), Arm.CONTROL) == pytest.approx(0.9, abs=1e-12)

    def test_delta_continuation(self):
        dataset = two_campaign_dataset()
        expected = micro_roi(totals_of(dataset), Arm.TREATMENT) - 16 / 15
        assert micro_delta(totals_of(dataset)) == pytest.approx(expected, abs=1e-15)

    def test_identical_arms_delta_zero(self):
        dataset = make_dataset([make_campaign("c1", [1.1, 0.9], [1.1, 0.9])])
        assert micro_delta(totals_of(dataset)) == 0.0

    def test_zero_spend_arm_rejected(self):
        campaign = CampaignExperiment(
            "c1",
            [make_part("c1", Arm.CONTROL, 0, spend=0.0)],
            [make_part("c1", Arm.TREATMENT, 0, roi=1.0)],
        )
        with pytest.raises(UndefinedRoiError):
            micro_roi(totals_of(make_dataset([campaign])), Arm.CONTROL)

    @settings(max_examples=50, deadline=None)
    @given(dataset_strategy())
    def test_identity_with_spend_weighted_form(self, dataset):
        for arm in (Arm.CONTROL, Arm.TREATMENT):
            pooled = micro_roi(totals_of(dataset), arm)
            spends = []
            rois = []
            for c in dataset.campaigns:
                parts = c.parts_a if arm is Arm.CONTROL else c.parts_b
                spend = math.fsum(p.spend for p in parts)
                value = math.fsum(p.value for p in parts)
                spends.append(spend)
                rois.append(value / spend)
            total = math.fsum(spends)
            weighted = math.fsum(s / total * r for s, r in zip(spends, rois))
            assert abs(pooled - weighted) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(dataset_strategy())
    def test_antisymmetry_under_arm_swap(self, dataset):
        swapped = totals_of(swap_arms(dataset))
        assert micro_delta(swapped) == -micro_delta(totals_of(dataset))


class TestMacro:
    def test_mean_of_diffs(self):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.0], [1.2, 1.2]),
            make_campaign("c2", [1.0, 1.0], [0.8, 0.8]),
        ])
        assert macro_delta(totals_of(dataset), "mean") == pytest.approx(0.0, abs=1e-12)

    def test_identical_arms(self):
        dataset = make_dataset([make_campaign("c1", [1.0, 1.3], [1.0, 1.3])])
        assert macro_delta(totals_of(dataset), "mean") == 0.0

    def test_outlier_sensitivity_mean_vs_median(self):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.0], [1.1, 1.1]),
            make_campaign("c2", [1.0, 1.0], [1.2, 1.2]),
            make_campaign("c3", [1.0, 1.0], [11.0, 11.0]),
        ])
        totals = totals_of(dataset)
        assert macro_delta(totals, "mean") == pytest.approx(3.4333333333333336, abs=1e-9)
        assert macro_delta(totals, "median") == pytest.approx(0.2, abs=1e-12)

    def test_names_offending_campaign(self):
        campaign = CampaignExperiment(
            "bad_camp",
            [make_part("bad_camp", Arm.CONTROL, 0, spend=0.0)],
            [make_part("bad_camp", Arm.TREATMENT, 0, roi=1.0)],
        )
        with pytest.raises(UndefinedRoiError, match="bad_camp"):
            macro_delta(totals_of(make_dataset([campaign])), "mean")

    def test_rejects_unknown_aggregator(self):
        with pytest.raises(ConfigError):
            macro_delta(totals_of(two_campaign_dataset()), "mode")

    @settings(max_examples=30, deadline=None)
    @given(dataset_strategy())
    def test_antisymmetry_under_arm_swap(self, dataset):
        swapped = totals_of(swap_arms(dataset))
        assert macro_delta(swapped, "mean") == -macro_delta(totals_of(dataset), "mean")


class TestAaCalibration:
    def test_constant_roi_gives_zero_theta(self):
        dataset = make_dataset([
            make_campaign("c1", [1.4] * 6, [1.4] * 2),
            make_campaign("c2", [1.4] * 4, [1.4] * 2),
        ])
        calibrations = aa_calibrate(dataset, totals_of(dataset), AaSettings(5, 3, 0.5))
        for calibration in calibrations.values():
            assert calibration.theta == pytest.approx(0.0, abs=1e-12)

    def test_per_campaign_constant_roi_zeroes_macro(self):
        dataset = make_dataset([
            make_campaign("c1", [1.1] * 5, [1.1] * 2),
            make_campaign("c2", [0.7] * 5, [0.7] * 2),
        ])
        calibrations = aa_calibrate(dataset, totals_of(dataset), AaSettings(7, 12, 0.2))
        for method in (BaselineMethod.MACRO, BaselineMethod.MACRO_MEDIAN):
            assert calibrations[method].theta == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.5, 0.8, 1.1], [1.0, 1.0]),
            make_campaign("c2", [0.9, 1.2, 1.4], [1.0, 1.0]),
        ])
        first = aa_calibrate(dataset, totals_of(dataset), AaSettings(5, 77, 0.1))
        second = aa_calibrate(dataset, totals_of(dataset), AaSettings(5, 77, 0.1))
        assert first == second
        different = aa_calibrate(dataset, totals_of(dataset), AaSettings(5, 78, 0.1))
        micro = BaselineMethod.MICRO
        assert different[micro].per_repeat_stats != first[micro].per_repeat_stats

    def test_even_split_statistic_support(self):
        # equal-spend parts with ROIs {1,1,2,2} under a 2/2 split can only
        # produce pseudo-deltas -1, 0, or +1
        dataset = make_dataset([make_campaign("c1", [1.0, 1.0, 2.0, 2.0], [1.0, 1.0])])
        calibrations = aa_calibrate(dataset, totals_of(dataset), AaSettings(40, 5, 0.5))
        calibration = calibrations[BaselineMethod.MICRO]
        for stat in calibration.per_repeat_stats:
            assert min(abs(stat - t) for t in (-1.0, 0.0, 1.0)) <= 1e-12

    def test_short_campaigns_skipped_with_warning(self):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.2, 0.9], [1.0, 1.0]),
            make_campaign("c2", [1.0], [1.0, 1.0]),
        ])
        with pytest.warns(UserWarning, match="fewer than 2 control parts"):
            calibrations = aa_calibrate(dataset, totals_of(dataset), AaSettings(3, 1, 0.5))
        assert set(calibrations) == set(BaselineMethod)
        assert all(isinstance(c, AaCalibration) for c in calibrations.values())

    def test_no_splittable_campaign_rejected(self):
        dataset = make_dataset([make_campaign("c1", [1.0], [1.0, 1.0])])
        with pytest.warns(UserWarning):
            with pytest.raises(InsufficientDataError):
                aa_calibrate(dataset, totals_of(dataset), AaSettings(3, 1, 0.5))

    def test_theta_is_mean_of_repeats(self):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.5, 0.8, 1.1, 0.6], [1.0, 1.0]),
        ])
        calibrations = aa_calibrate(dataset, totals_of(dataset), AaSettings(9, 2, 0.3))
        for calibration in calibrations.values():
            assert calibration.theta == pytest.approx(
                math.fsum(calibration.per_repeat_stats) / 9, abs=1e-15
            )

    def test_every_statistic_comes_from_one_split_per_repeat(self, monkeypatch):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.5, 0.8, 1.1], [1.0, 1.0]),
            make_campaign("c2", [0.9, 1.2, 1.4, 2.0], [1.0, 1.0]),
            make_campaign("c3", [3.0, 0.2, 1.3, 0.7], [1.0, 1.0]),
        ])
        opened = []

        class CountingStream(baselines.HashStream):
            def __init__(self, *key):
                opened.append(key)
                super().__init__(*key)

        monkeypatch.setattr(baselines, "HashStream", CountingStream)
        calibrations = aa_calibrate(dataset, totals_of(dataset), AaSettings(4, 9, 0.5))
        assert sorted(opened) == sorted(
            ("aa-split", 9, k, c.campaign_id) for k in range(4) for c in dataset.campaigns
        )
        for k in range(4):
            totals = totals_of(pseudo_experiment(dataset, 0.5, 9, k))
            stats = {m: calibrations[m].per_repeat_stats[k] for m in BaselineMethod}
            assert stats[BaselineMethod.MICRO] == micro_delta(totals)
            assert stats[BaselineMethod.MACRO] == macro_delta(totals, "mean")
            assert stats[BaselineMethod.MACRO_MEDIAN] == macro_delta(totals, "median")

    @settings(max_examples=150, deadline=None)
    @given(
        uneven_dataset(), shares, st.integers(1, 4), st.integers(0, 10**6),
    )
    def test_column_kernel_matches_object_path(self, dataset, share, repeats_k, seed):
        # the kernel takes the share; the reference splits by the (1 - s, s) ratio
        split_ratio = (1.0 - share, share)

        def kernel():
            settings = AaSettings(repeats_k, seed, share)
            calibrations = aa_calibrate(dataset, totals_of(dataset), settings)
            return {m: c.per_repeat_stats for m, c in calibrations.items()}

        assert outcome(kernel) == outcome(
            lambda: reference_stats(dataset, split_ratio, repeats_k, seed)
        )

    def test_zero_spend_control_part_is_undefined(self):
        # with two control parts every split isolates the zero-spend one
        zero = PartMeasurement("c1", Arm.CONTROL, 0, 1000, 0.0, 0.0)
        paid = PartMeasurement("c1", Arm.CONTROL, 1, 1000, 2.0, 2.4)
        dataset = make_dataset([
            CampaignExperiment("c1", [zero, paid], [make_part("c1", Arm.TREATMENT, 0, roi=1.0)]),
            make_campaign("c2", [1.0, 1.5, 0.8], [1.0]),
        ])
        for seed in range(5):
            with pytest.raises(UndefinedRoiError, match="'c1'"):
                aa_calibrate(dataset, totals_of(dataset), AaSettings(3, seed, 0.5))


class TestThresholdDecision:
    @pytest.mark.parametrize(
        "statistic,theta,expected",
        [
            (0.17, 0.004, BaselineDecision.ACCEPT),
            (-0.05, 0.004, BaselineDecision.REJECT),
            (0.004, 0.004, BaselineDecision.REJECT),
        ],
    )
    def test_strict_threshold(self, statistic, theta, expected):
        assert threshold_decision(statistic, theta) is expected
