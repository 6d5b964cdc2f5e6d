import math

import pytest

from roimeta.dataio import ingest, write_dataset
from roimeta.errors import ConfigError
from roimeta.pipeline import collect_effects
from roimeta.preprocess import qualify
from roimeta.randomness import HashStream
from roimeta.simulate import SimConfig, generate_experiment


class TestHashStream:
    def test_streams_are_reproducible(self):
        first = HashStream("x", 1)
        second = HashStream("x", 1)
        draws = [first.uniform() for _ in range(5)]
        assert draws == [second.uniform() for _ in range(5)]
        assert len(set(draws)) == len(draws)

    def test_distinct_keys_differ(self):
        assert HashStream("x", 1).uniform() != HashStream("x", 2).uniform()

    def test_uniform_is_strictly_inside_unit_interval(self):
        stream = HashStream("u")
        for _ in range(1000):
            u = stream.uniform()
            assert 0.0 < u < 1.0

    def test_poisson_small_mean_matches_inversion(self):
        stream = HashStream("p")
        draws = [stream.poisson(3.0) for _ in range(2000)]
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(3.0, abs=0.15)
        assert min(draws) >= 0

    def test_poisson_large_mean_is_near_mean(self):
        stream = HashStream("p2")
        draws = [stream.poisson(2000.0) for _ in range(500)]
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(2000.0, rel=0.01)

    @pytest.mark.parametrize("key,expected", [
        (("x", 1), [
            0.4422043807225623, 0.16332588996732045, 0.18181098716848162,
            0.4792241040660869, 0.29193193743184087, 0.7384774926582678,
            0.01568420990421139, 0.4503348708317101,
        ]),
        (("aa-split", 9, 0, "c1"), [
            0.9260549156328864, 0.22049136377084183, 0.7404377107957899,
            0.6903585910793928, 0.7133044173914874, 0.11566107088333073,
            0.6580987005124302, 0.017785713509410446,
        ]),
    ], ids=["x", "aa-split"])
    def test_stream_values_are_pinned(self, key, expected):
        # values of the roimeta-hash-stream/1 generator; any change to them
        # must come with a new generator tag
        stream = HashStream(*key)
        assert [stream.uniform() for _ in range(8)] == expected

    def test_shuffle_is_a_permutation(self):
        stream = HashStream("s")
        items = list(range(10))
        shuffled = items[:]
        stream.shuffle(shuffled)
        assert sorted(shuffled) == items


class TestGenerateExperiment:
    def test_fixed_seed_reproduces_dataset(self):
        config = SimConfig(n_campaigns=6, m_a=4, m_b=3, seed=99)
        assert generate_experiment(config) == generate_experiment(config)

    def test_different_seeds_differ(self):
        a = generate_experiment(SimConfig(n_campaigns=4, seed=1))
        b = generate_experiment(SimConfig(n_campaigns=4, seed=2))
        assert a != b

    def test_shapes_and_positivity(self):
        config = SimConfig(n_campaigns=5, m_a=4, m_b=3, treatment_share=0.25, seed=3)
        dataset = generate_experiment(config)
        assert dataset.n == 5
        for campaign in dataset.campaigns:
            assert campaign.m_a == 4
            assert campaign.m_b == 3
            for part in campaign.parts_a + campaign.parts_b:
                assert part.spend > 0
                assert part.roi is not None and part.roi > 0

    def test_campaigns_are_order_independent_substreams(self):
        small = generate_experiment(SimConfig(n_campaigns=3, seed=11))
        large = generate_experiment(SimConfig(n_campaigns=5, seed=11))
        assert large.campaigns[:3] == small.campaigns

    def test_zero_noise_zero_lift_gives_equal_arms_in_memory_and_from_csv(self, tmp_path):
        config = SimConfig(
            n_campaigns=4, m_a=5, m_b=3, part_noise_sd=0.0, treatment_lift=0.0, seed=21,
        )
        dataset = generate_experiment(config)
        for campaign in dataset.campaigns:
            (roi_a,), (roi_b,) = ({p.roi for p in campaign.parts_a},
                                  {p.roi for p in campaign.parts_b})
            # each ROI is the same drawn level, off by at most half a
            # micro-unit of value and of spend
            bound = sum(0.5e-6 * (1 + roi) / parts[0].spend for roi, parts in (
                (roi_a, campaign.parts_a), (roi_b, campaign.parts_b)))
            assert abs(roi_a - roi_b) <= bound * (1 + 1e-9)
        path = tmp_path / "parts.csv"
        write_dataset(dataset, path)
        assert collect_effects(ingest(path)) == collect_effects(dataset)

    def test_outliers_are_highest_budget_campaigns(self):
        config = SimConfig(
            n_campaigns=10, outlier_campaigns=2, outlier_lift=5.0,
            part_noise_sd=0.0, treatment_lift=0.0, seed=13,
        )
        dataset = generate_experiment(config)
        spends = {c.campaign_id: c.total_spend() for c in dataset.campaigns}
        lifted = {
            c.campaign_id
            for c in dataset.campaigns
            if c.parts_b[0].roi > 2 * c.parts_a[0].roi
        }
        top_two = sorted(spends, key=spends.get, reverse=True)[:2]
        assert lifted == set(top_two)

    def test_treatment_share_controls_arm_spend(self):
        config = SimConfig(n_campaigns=3, treatment_share=0.2, part_noise_sd=0.0, seed=5)
        dataset = generate_experiment(config)
        for campaign in dataset.campaigns:
            spend_b = sum(p.spend for p in campaign.parts_b)
            assert spend_b / campaign.total_spend() == pytest.approx(0.2, abs=1e-6)

    def test_null_grand_mean_effect_is_small(self):
        total = 0.0
        runs = 300
        for seed in range(runs):
            config = SimConfig(n_campaigns=20, m_a=6, m_b=6, part_noise_sd=0.1,
                               treatment_lift=0.0, seed=seed)
            dataset = generate_experiment(config)
            effects, _ = collect_effects(qualify(dataset).qualified)
            total += math.fsum(e.d for e in effects) / len(effects)
        assert abs(total / runs) <= 0.015

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            SimConfig(n_campaigns=0)
        with pytest.raises(ConfigError):
            SimConfig(m_a=1)
        with pytest.raises(ConfigError):
            SimConfig(treatment_share=1.2)
        with pytest.raises(ConfigError):
            SimConfig(outlier_campaigns=5, n_campaigns=3)
