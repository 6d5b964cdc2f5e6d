import math
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    blake2b_log, campaign_from_rows, dataset_strategy, make_campaign, make_dataset, make_part,
    pooled_roi, sane_rois, stream_blocks, walk_macro_delta, walk_micro_delta,
)
from roimeta import baselines
from roimeta.baselines import (
    AaSettings,
    BaselineDecision,
    BaselineMethod,
    aa_calibrate,
    aa_skipped,
    baseline_statistics,
    campaign_micro_totals as totals_of,
    observed_share,
    threshold_decision,
)
from roimeta.campaigns import Arm, CampaignExperiment, ExperimentDataset
from roimeta.errors import InsufficientDataError, UndefinedRoiError
from roimeta.preprocess import qualify
from roimeta.records import AaRecord
from test_simulate import ReferenceStream


def swap_arms(dataset: ExperimentDataset) -> ExperimentDataset:
    return ExperimentDataset(tuple(
        CampaignExperiment(c.campaign_id, c.b, c.a) for c in dataset.campaigns))


def split_once(
    campaign: CampaignExperiment, share_b: float, stream: ReferenceStream
) -> CampaignExperiment:
    """Reference A/A split: one campaign's control parts, shuffled by the chained
    stream and rebuilt, as rows, into a pseudo-experiment whose statistics the
    part walks (``walk_micro_delta``, ``walk_macro_delta``) then compute."""
    m = campaign.m_a
    order = list(range(m))
    n_b = min(max(round(m * share_b), 1), m - 1)
    stream.shuffle(order, n_b)
    chosen = set(order[:n_b])
    return campaign_from_rows([
        (p.campaign_id, "B" if j in chosen else "A", *p[2:6])
        for j, p in enumerate(campaign.parts_a)
    ])


def pseudo_experiment(
    dataset: ExperimentDataset, share_b: float, seed: int, k: int
) -> ExperimentDataset:
    return make_dataset([
        split_once(c, share_b, ReferenceStream("aa-split", seed, k, c.campaign_id))
        for c in dataset.campaigns
        if c.m_a >= 2
    ])


def reference_stats(dataset, share_b, repeats_k, seed) -> dict[BaselineMethod, tuple]:
    """Per-repeat statistics of the object path, walked one pseudo-experiment at
    a time, never through ``baseline_statistics``; a ``share_b`` of None is the
    observed share, which needs spend in both arms."""
    if share_b is None:
        share_b = observed_share(totals_of(dataset))
    if share_b is None:
        raise InsufficientDataError("no treatment share without spend in both arms")
    stats = {m: [] for m in BaselineMethod}
    for k in range(repeats_k):
        pseudo = pseudo_experiment(dataset, share_b, seed, k)
        stats[BaselineMethod.MICRO].append(walk_micro_delta(pseudo))
        stats[BaselineMethod.MACRO].append(walk_macro_delta(pseudo, "mean"))
        stats[BaselineMethod.MACRO_MEDIAN].append(walk_macro_delta(pseudo, "median"))
    return {m: tuple(values) for m, values in stats.items()}


def stats_of(dataset) -> tuple[float, float, float]:
    """``evaluate``'s call: the micro, macro and macro-median statistics of the arms."""
    totals = totals_of(dataset)
    return baseline_statistics(totals, *zip(*totals.values()))


def outcome(compute):
    """Float bits of every statistic, or the error's type and message."""
    try:
        stats = compute()
    except (InsufficientDataError, UndefinedRoiError) as exc:
        return type(exc).__name__, str(exc)
    return {m: [s.hex() for s in values] for m, values in stats.items()}


money = st.floats(min_value=1e-6, max_value=1e4)
shares = st.one_of(
    st.floats(min_value=1e-4, max_value=0.05),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.95, max_value=1.0 - 1e-4),
)


def split_key(seed: int, k: int, campaign_id: str) -> str:
    """The text an A/A split stream's key hashes: ``HashStream``'s joined parts."""
    return "\x1f".join(map(str, ("aa-split", seed, k, campaign_id)))


@st.composite
def uneven_campaign(draw, campaign_id: str) -> CampaignExperiment:
    """Control parts with independent, possibly zero spends, unqualified."""
    rows = []
    for j in range(draw(st.integers(2, 7))):
        spend = 0.0 if draw(st.integers(0, 9)) == 0 else draw(money)
        value = spend * draw(sane_rois) if spend else 0.0
        rows.append((campaign_id, "A", j, 1000, spend, value))
    rows.append(make_part(campaign_id, Arm.TREATMENT, 0, roi=1.0))
    return campaign_from_rows(rows)


# ids that need more than ASCII, or hold the key separator \x1f inside
campaign_ids = st.one_of(
    st.sampled_from(["c", "kampagne-ü", "广告系列", "a\x1fb", "1\x1f2"]),
    st.text(min_size=1, max_size=6).filter(lambda t: t == t.strip()),
)


@st.composite
def uneven_dataset(draw) -> ExperimentDataset:
    ids = draw(st.lists(campaign_ids, min_size=1, max_size=5, unique=True))
    return make_dataset([draw(uneven_campaign(campaign_id)) for campaign_id in ids])


# a dataset that splits every way the parity test must cover: a non-ASCII id, an
# id holding \x1f, and 4 control parts, so share 0.8 gives n_b = m_a - 1
edge_dataset = make_dataset([
    make_campaign(campaign_id, [1.0, 1.5, 0.8, 1.1], [1.0])
    for campaign_id in ("广告系列", "a\x1fb", "kampagne-ü")
])
# control parts with no spend: no observed share to split at
unpaid_control_dataset = make_dataset([campaign_from_rows([
    ("c", "A", 0, 1000, 0.0, 0.0), ("c", "A", 1, 1000, 0.0, 0.0),
    make_part("c", Arm.TREATMENT, 0, roi=1.0)])])


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
        assert pooled_roi(dataset, Arm.CONTROL) == pytest.approx(16 / 15, abs=1e-12)

    def test_single_campaign_is_its_roi(self):
        dataset = make_dataset([make_campaign("c1", [1.3, 1.3], [1.1, 1.1])])
        assert pooled_roi(dataset, Arm.CONTROL) == pytest.approx(1.3, abs=1e-12)

    def test_constant_roi_is_preserved(self):
        dataset = make_dataset([
            make_campaign("c1", [0.9, 0.9], [0.9], spend_a=3.0),
            make_campaign("c2", [0.9], [0.9, 0.9], spend_a=17.0),
        ])
        assert pooled_roi(dataset, Arm.CONTROL) == pytest.approx(0.9, abs=1e-12)

    def test_delta_continuation(self):
        dataset = two_campaign_dataset()
        expected = pooled_roi(dataset, Arm.TREATMENT) - 16 / 15
        assert stats_of(dataset)[0] == pytest.approx(expected, abs=1e-15)

    def test_identical_arms_delta_zero(self):
        dataset = make_dataset([make_campaign("c1", [1.1, 0.9], [1.1, 0.9])])
        assert stats_of(dataset)[0] == 0.0

    def test_zero_spend_arm_rejected(self):
        campaign = campaign_from_rows([
            make_part("c1", Arm.CONTROL, 0, spend=0.0),
            make_part("c1", Arm.TREATMENT, 0, roi=1.0),
        ])
        with pytest.raises(UndefinedRoiError, match="arm A: total spend over all campaigns"):
            stats_of(make_dataset([campaign]))

    @settings(max_examples=50, deadline=None)
    @given(dataset_strategy())
    def test_identity_with_spend_weighted_form(self, dataset):
        for arm in (Arm.CONTROL, Arm.TREATMENT):
            pooled = pooled_roi(dataset, arm)
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
        assert stats_of(swap_arms(dataset))[0] == -stats_of(dataset)[0]


class TestMacro:
    def test_mean_of_diffs(self):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.0], [1.2, 1.2]),
            make_campaign("c2", [1.0, 1.0], [0.8, 0.8]),
        ])
        assert stats_of(dataset)[1] == pytest.approx(0.0, abs=1e-12)

    def test_identical_arms(self):
        dataset = make_dataset([make_campaign("c1", [1.0, 1.3], [1.0, 1.3])])
        assert stats_of(dataset)[1] == 0.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    def test_median_is_the_statistics_median(self, values):
        # written out so that a decision loads no `statistics`
        assert baselines._median(values).hex() == statistics.median(values).hex()

    def test_outlier_sensitivity_mean_vs_median(self):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.0], [1.1, 1.1]),
            make_campaign("c2", [1.0, 1.0], [1.2, 1.2]),
            make_campaign("c3", [1.0, 1.0], [11.0, 11.0]),
        ])
        _, mean, median = stats_of(dataset)
        assert mean == pytest.approx(3.4333333333333336, abs=1e-9)
        assert median == pytest.approx(0.2, abs=1e-12)

    def test_names_offending_campaign(self):
        # the pooled control spend is not zero, so the micro statistic passes
        campaign = campaign_from_rows([
            make_part("bad_camp", Arm.CONTROL, 0, spend=0.0),
            make_part("bad_camp", Arm.TREATMENT, 0, roi=1.0),
        ])
        dataset = make_dataset([make_campaign("good", [1.0], [1.0]), campaign])
        with pytest.raises(UndefinedRoiError, match="arm A: total spend of campaign 'bad_camp'"):
            stats_of(dataset)

    @settings(max_examples=30, deadline=None)
    @given(dataset_strategy())
    def test_antisymmetry_under_arm_swap(self, dataset):
        _, mean, median = stats_of(dataset)
        assert stats_of(swap_arms(dataset))[1:] == (-mean, -median)


class TestAaCalibration:
    def test_constant_roi_gives_zero_theta(self):
        dataset = make_dataset([
            make_campaign("c1", [1.4] * 6, [1.4] * 2),
            make_campaign("c2", [1.4] * 4, [1.4] * 2),
        ])
        record = aa_calibrate(dataset, totals_of(dataset), AaSettings(5, 3, 0.5))
        for method in BaselineMethod:
            assert record.theta(method) == pytest.approx(0.0, abs=1e-12)

    def test_per_campaign_constant_roi_zeroes_macro(self):
        dataset = make_dataset([
            make_campaign("c1", [1.1] * 5, [1.1] * 2),
            make_campaign("c2", [0.7] * 5, [0.7] * 2),
        ])
        record = aa_calibrate(dataset, totals_of(dataset), AaSettings(7, 12, 0.2))
        for method in (BaselineMethod.MACRO, BaselineMethod.MACRO_MEDIAN):
            assert record.theta(method) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.5, 0.8, 1.1], [1.0, 1.0]),
            make_campaign("c2", [0.9, 1.2, 1.4], [1.0, 1.0]),
        ])
        first = aa_calibrate(dataset, totals_of(dataset), AaSettings(5, 77, 0.1))
        second = aa_calibrate(dataset, totals_of(dataset), AaSettings(5, 77, 0.1))
        assert first == second
        different = aa_calibrate(dataset, totals_of(dataset), AaSettings(5, 78, 0.1))
        assert different.micro != first.micro

    def test_even_split_statistic_support(self):
        # equal-spend parts with ROIs {1,1,2,2} under a 2/2 split can only
        # produce pseudo-deltas -1, 0, or +1
        dataset = make_dataset([make_campaign("c1", [1.0, 1.0, 2.0, 2.0], [1.0, 1.0])])
        record = aa_calibrate(dataset, totals_of(dataset), AaSettings(40, 5, 0.5))
        for stat in record.micro:
            assert min(abs(stat - t) for t in (-1.0, 0.0, 1.0)) <= 1e-12

    def test_short_campaigns_skipped(self):
        # evaluate's report warns about them (test_pipeline)
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.2, 0.9], [1.0, 1.0]),
            make_campaign("c2", [1.0], [1.0, 1.0]),
        ])
        record = aa_calibrate(dataset, totals_of(dataset), AaSettings(3, 1, 0.5))
        assert aa_skipped(dataset) == ["c2"]
        assert type(record) is AaRecord
        assert (record.split_seed, record.repeats_k) == (1, 3)
        only_c1 = make_dataset(dataset.campaigns[:1])
        assert record == aa_calibrate(only_c1, totals_of(only_c1), AaSettings(3, 1, 0.5))

    def test_no_splittable_campaign_rejected(self):
        dataset = make_dataset([make_campaign("c1", [1.0], [1.0, 1.0])])
        with pytest.raises(InsufficientDataError):
            aa_calibrate(dataset, totals_of(dataset), AaSettings(3, 1, 0.5))

    def test_calibration_records_the_share_it_used(self):
        dataset = make_dataset([make_campaign("c1", [1.0, 1.5, 0.8, 1.1], [1.0, 1.0],
                                              spend_b=3.0)])
        totals = totals_of(dataset)
        for share, used in ((0.3, 0.3), (None, observed_share(totals))):
            assert aa_calibrate(dataset, totals, AaSettings(2, 1, share)).treatment_share == used
        assert observed_share(totals) == 6 / 10

    def test_theta_is_mean_of_repeats(self):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.5, 0.8, 1.1, 0.6], [1.0, 1.0]),
        ])
        record = aa_calibrate(dataset, totals_of(dataset), AaSettings(9, 2, 0.3))
        for method in BaselineMethod:
            assert record.theta(method) == pytest.approx(
                math.fsum(getattr(record, method.value)) / 9, abs=1e-15
            )

    def test_every_statistic_comes_from_one_split_per_repeat(self):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.5, 0.8, 1.1], [1.0, 1.0]),
            make_campaign("c2", [0.9, 1.2, 1.4, 2.0], [1.0, 1.0]),
            make_campaign("c3", [3.0, 0.2, 1.3, 0.7], [1.0, 1.0]),
        ])
        with blake2b_log() as log:
            record = aa_calibrate(dataset, totals_of(dataset), AaSettings(4, 9, 0.5))
        # one stream per (repeat, campaign), each drawing its n_b = 2 parts from one block
        assert stream_blocks(log) == sorted(
            (split_key(9, k, c.campaign_id), 1) for k in range(4) for c in dataset.campaigns
        )
        for k in range(4):
            pseudo = pseudo_experiment(dataset, 0.5, 9, k)
            stats = {m: getattr(record, m.value)[k] for m in BaselineMethod}
            assert stats[BaselineMethod.MICRO] == walk_micro_delta(pseudo)
            assert stats[BaselineMethod.MACRO] == walk_macro_delta(pseudo, "mean")
            assert stats[BaselineMethod.MACRO_MEDIAN] == walk_macro_delta(pseudo, "median")

    def test_pseudo_control_comes_from_the_totals_of_the_dataset_split(self):
        # qualification drops part 0 of each control arm (50 impressions), so the
        # qualified dataset's control totals differ from the unqualified one's
        dataset = make_dataset([campaign_from_rows([
            make_part(f"c{i}", arm, j, roi=0.5 + 0.1 * ((i + 3 * j) % 7), spend=1.0 + j % 4,
                      impressions=50 if (arm is Arm.CONTROL and j == 0) else 1000)
            for arm in Arm for j in range(20)]) for i in range(3)])
        qualified = qualify(dataset).qualified
        assert [c.m_a for c in qualified.campaigns] == [19] * 3
        record = aa_calibrate(qualified, totals_of(qualified), AaSettings(3, 6, 0.3))
        for k in range(3):
            pseudo = pseudo_experiment(qualified, 0.3, 6, k)
            assert record.micro[k] == walk_micro_delta(pseudo)
            assert record.macro[k] == walk_macro_delta(pseudo, "mean")
            assert record.macro_median[k] == walk_macro_delta(pseudo, "median")
        # the unqualified dataset's totals would give other pseudo-control arms
        assert aa_calibrate(qualified, totals_of(dataset), AaSettings(3, 6, 0.3)) != record

    def test_each_split_draws_only_its_pseudo_treatment_parts(self):
        # 500 control parts at share 0.1: 50 draws per split, not 499, so
        # ceil(50 / 8) = 7 blocks, not 63
        dataset = make_dataset([
            make_campaign(f"c{i}", [1.0 + 0.001 * j for j in range(500)], [1.0])
            for i in range(2)
        ])
        with blake2b_log() as log:
            aa_calibrate(dataset, totals_of(dataset), AaSettings(3, 4, 0.1))
        assert stream_blocks(log) == sorted(
            (split_key(4, k, f"c{i}"), 7) for k in range(3) for i in range(2))

    @settings(max_examples=150, deadline=None)
    @given(
        uneven_dataset(),
        st.one_of(shares, st.none()),
        st.integers(1, 4),
        st.one_of(st.integers(0, 10**6), st.integers(-2**70, -1), st.integers(2**64, 2**70)),
    )
    # keys "aa-split\x1f1\x1f23\x1f…" and "aa-split\x1f12\x1f3\x1f…" collide without separators
    @example(edge_dataset, 0.8, 24, 1)
    @example(edge_dataset, None, 4, 12)
    @example(edge_dataset, 0.5, 2, -1)
    @example(edge_dataset, 0.2, 2, 2**64 + 1)
    @example(unpaid_control_dataset, None, 1, 0)
    def test_column_kernel_matches_object_path(self, dataset, share, repeats_k, seed):
        def kernel():
            settings = AaSettings(repeats_k, seed, share)
            record = aa_calibrate(dataset, totals_of(dataset), settings)
            return {m: getattr(record, m.value) for m in BaselineMethod}

        assert outcome(kernel) == outcome(
            lambda: reference_stats(dataset, share, repeats_k, seed)
        )

    def test_zero_spend_control_part_is_undefined(self):
        # with two control parts every split isolates the zero-spend one
        zero = ("c1", "A", 0, 1000, 0.0, 0.0)
        paid = ("c1", "A", 1, 1000, 2.0, 2.4)
        dataset = make_dataset([
            campaign_from_rows([zero, paid, make_part("c1", Arm.TREATMENT, 0, roi=1.0)]),
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
