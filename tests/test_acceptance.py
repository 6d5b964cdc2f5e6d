"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v`` (a conftest hook prints one
``ACCEPTANCE ...`` line per criterion).
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    campaign_from_rows,
    dv_by_id,
    dv_pairs,
    dataset_strategy,
    mixed_quality_dataset_strategy,
    pooled_roi,
    random_dataset,
    rows_of,
)
from oracle import oracle_meta
from roimeta.baselines import (
    BaselineDecision,
    BaselineMethod,
    campaign_micro_totals,
    threshold_decision,
)
from roimeta.campaigns import Arm, CampaignExperiment, ExperimentDataset
from roimeta.dataio import dataset_from_rows, ingest, write_dataset
from roimeta.meta import SignificanceResult, summarize_effects, z_significance
from roimeta.pipeline import (
    AaSettings,
    EvaluationConfig,
    Verdict,
    collect_effects,
    decide,
    evaluate,
)
from roimeta.preprocess import qualify
from roimeta.reportio import render_report, report_from_json, report_to_json
from roimeta.simulate import SimConfig, generate_experiment
from roimeta.statfuncs import normal_quantile
from roimeta.subgroups import SubgroupSpec, resolve_subgroups, subgroup_analysis

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_report.json"


def swap_arms(dataset: ExperimentDataset) -> ExperimentDataset:
    return ExperimentDataset(tuple(
        CampaignExperiment(c.campaign_id, c.b, c.a) for c in dataset.campaigns))


def engine_summary(dataset):
    """Effects, excluded campaign ids and meta summary, as ``evaluate`` derives
    them; the summary is None when every campaign is excluded."""
    effects, exclusions = collect_effects(dataset)
    excluded = {x.campaign_id for x in exclusions}
    return effects, excluded, summarize_effects(dv_pairs(effects), 0.95) if effects else None


class TestCriterion1DecisionFixtures:
    """Published statistic/threshold pairs must reproduce all 12 verdicts."""

    BASELINE_ROWS = [
        ("macro common 10%", 0.17, 0.004, BaselineDecision.ACCEPT),
        ("macro common 20%", -0.05, 0.004, BaselineDecision.REJECT),
        ("micro common 10%", 0.29, 0.01, BaselineDecision.ACCEPT),
        ("micro common 20%", -0.31, 0.01, BaselineDecision.REJECT),
        ("macro all 10%", 0.14, 0.001, BaselineDecision.ACCEPT),
        ("macro all 20%", -0.03, 0.001, BaselineDecision.REJECT),
        ("micro all 10%", 0.10, 0.005, BaselineDecision.ACCEPT),
        ("micro all 20%", -0.99, 0.005, BaselineDecision.REJECT),
    ]
    META_ROWS = [
        ("proposed common 10%", 0.257, -0.02, 0.01),
        ("proposed common 20%", 0.157, -0.028, 0.009),
        ("proposed all 10%", 0.242, -0.019, 0.009),
        ("proposed all 20%", 0.033, -0.03, 9.6e-4),
    ]

    def test_all_twelve_fixture_verdicts(self):
        start = time.perf_counter()
        for name, statistic, theta, expected in self.BASELINE_ROWS:
            assert threshold_decision(statistic, theta) is expected, name
        for name, p_z, ci_low, ci_high in self.META_ROWS:
            mid = (ci_low + ci_high) / 2.0
            z = math.copysign(normal_quantile(1.0 - p_z), mid)
            significance = SignificanceResult(
                z=z, p_z=p_z, confidence_level=0.95,
                ci_low=ci_low, ci_high=ci_high,
            )
            decision = decide(significance)
            assert decision.verdict in (
                Verdict.REJECT_INEFFECTIVE, Verdict.REJECT_HARMFUL
            ), name
            assert decision.verdict is Verdict.REJECT_INEFFECTIVE, name
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


class TestCriterion2OracleEquivalence:
    def test_engine_matches_bruteforce_on_100_datasets(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20260808)
        for _ in range(100):
            dataset = random_dataset(rng, n_campaigns=(2, 10), parts_per_arm=(2, 6))
            _, excluded, summary = engine_summary(dataset)
            assert not excluded
            expected = oracle_meta(dataset)
            assert summary.fixed.mu == pytest.approx(expected["mu"], abs=1e-9)
            assert summary.fixed.nu == pytest.approx(expected["nu"], abs=1e-9)
            assert summary.heterogeneity.q == pytest.approx(expected["q"], abs=1e-9)
            assert summary.heterogeneity.p_q == pytest.approx(expected["p_q"], abs=1e-9)
            assert summary.heterogeneity.tau2 == pytest.approx(expected["tau2"], abs=1e-9)
            assert summary.random.mu_star == pytest.approx(expected["mu_star"], abs=1e-9)
            assert summary.random.nu_star == pytest.approx(expected["nu_star"], abs=1e-9)
            assert summary.significance.z == pytest.approx(expected["z"], abs=1e-9)
            assert summary.significance.p_z == pytest.approx(expected["p_z"], abs=1e-9)
        assert time.perf_counter() - start < 10.0


class TestCriterion3MicroIdentity:
    def test_pooled_equals_spend_weighted_on_1000_datasets(self):
        rng = np.random.default_rng(31337)
        for _ in range(1000):
            dataset = random_dataset(rng, n_campaigns=(2, 8), parts_per_arm=(1, 4))
            for arm in (Arm.CONTROL, Arm.TREATMENT):
                pooled = pooled_roi(dataset, arm)
                spends, rois = [], []
                for c in dataset.campaigns:
                    parts = c.parts_a if arm is Arm.CONTROL else c.parts_b
                    spend = math.fsum(p.spend for p in parts)
                    value = math.fsum(p.value for p in parts)
                    spends.append(spend)
                    rois.append(value / spend)
                total = math.fsum(spends)
                weighted = math.fsum(s / total * r for s, r in zip(spends, rois))
                assert abs(pooled - weighted) <= 1e-12


NULL_RUNS = 1000
MC_RUNS = 200


def null_config(seed):
    return SimConfig(
        n_campaigns=50, m_a=10, m_b=10, treatment_share=0.1,
        part_noise_sd=0.1, treatment_lift=0.0, seed=seed,
    )


class TestCriterion4NullCalibration:
    def test_significant_call_rate_is_near_nominal(self):
        start = time.perf_counter()
        significant = 0
        for seed in range(NULL_RUNS):
            dataset = generate_experiment(null_config(seed))
            effects, _ = collect_effects(qualify(dataset).qualified)
            result = summarize_effects(dv_pairs(effects), 0.95).significance
            significant += result.ci_low > 0 or result.ci_high < 0
        rate = significant / NULL_RUNS
        elapsed = time.perf_counter() - start
        assert 0.025 <= rate <= 0.075, f"null significant-call rate {rate:.3f}"
        assert elapsed < 120.0


class TestCriterion5SignRecovery:
    def test_positive_lift_recovers_positive_mean(self):
        positive = 0
        for seed in range(MC_RUNS):
            config = replace(null_config(seed), treatment_lift=0.10)
            dataset = generate_experiment(config)
            effects, _ = collect_effects(qualify(dataset).qualified)
            if summarize_effects(dv_pairs(effects), 0.95).random.mu_star > 0:
                positive += 1
        assert positive >= 0.95 * MC_RUNS, f"mu* > 0 in only {positive}/{MC_RUNS} runs"


class TestCriterion6RobustnessFlip:
    """High-budget outliers fool the spend-weighted baseline, not the meta verdict."""

    def test_micro_accepts_while_meta_rejects(self):
        flipped = 0
        for seed in range(MC_RUNS):
            config = SimConfig(
                n_campaigns=203, m_a=10, m_b=10, treatment_share=0.1,
                budget_log_mean=8.0, budget_log_sd=2.0,
                part_noise_sd=0.1, treatment_lift=-0.02,
                outlier_campaigns=3, outlier_lift=0.50, seed=seed,
            )
            dataset = generate_experiment(config)
            report = evaluate(dataset, EvaluationConfig(
                aa=AaSettings(seed=seed, treatment_share=0.1),
            ))
            micro = next(
                b for b in report.baselines if b.method is BaselineMethod.MICRO
            )
            if (micro.decision is BaselineDecision.ACCEPT
                    and report.decision.verdict is not Verdict.ACCEPT):
                flipped += 1
        assert flipped >= 0.90 * MC_RUNS, f"disagreement in only {flipped}/{MC_RUNS} runs"


class TestCriterion7SubgroupDecomposition:
    def test_identity_and_direct_between_formula_on_100_datasets(self):
        rng = np.random.default_rng(777)
        for _ in range(100):
            dataset = random_dataset(rng, n_campaigns=(4, 12))
            effects, excluded, summary = engine_summary(dataset)
            assert not excluded
            tau2 = summary.heterogeneity.tau2
            groups = resolve_subgroups(campaign_micro_totals(dataset),
                                       SubgroupSpec((1 / 3, 1 / 3, 1 / 3)))
            report = subgroup_analysis(dv_by_id(effects), tau2, groups, 0.95)
            assert report.q_star_total == pytest.approx(
                report.q_within + report.q_between, abs=1e-9
            )
            w_star = {e.campaign_id: 1.0 / (e.v + tau2) for e in effects}
            d = {e.campaign_id: e.d for e in effects}
            grand = math.fsum(w_star[c] * d[c] for c in w_star) / math.fsum(w_star.values())
            direct = math.fsum(
                math.fsum(w_star[c] for c in s.members) * (s.mu_star_k - grand) ** 2
                for s in report.summaries
            )
            assert report.q_between == pytest.approx(direct, abs=1e-9)
            assert report.q_star_total >= 0.0
            assert report.q_within >= 0.0
            assert all(s.q_star_k >= 0.0 for s in report.summaries)
            assert report.q_between >= -1e-9


# A summary effect whose Z tail probability sits at alpha/2 = 0.025 in floats
KNIFE_EDGE_MU, KNIFE_EDGE_NU = -0.5409540857551924, 0.07617713388435066


class TestCriterion8InvariantSuite:
    # Campaigns with constant, unequal arm ROIs have no finite effect size and
    # are excluded, as in ``evaluate``. Swapping arms and rescaling ROIs keep
    # such a campaign degenerate, so the excluded set must itself be invariant.

    @settings(max_examples=60, deadline=None)
    @given(dataset_strategy())
    def test_arm_swap_antisymmetry(self, dataset):
        effects, excluded, summary = engine_summary(dataset)
        swapped_effects, swapped_excluded, swapped = engine_summary(swap_arms(dataset))
        assert swapped_excluded == excluded
        assert len(effects) + len(excluded) == dataset.n
        assert [e.campaign_id for e in swapped_effects] == [e.campaign_id for e in effects]
        for e, s in zip(effects, swapped_effects):
            assert s.d == -e.d
            assert s.v == e.v
            assert s.w == e.w
        if not effects:
            assert swapped is None
            return
        assert swapped.fixed.mu == -summary.fixed.mu
        assert swapped.fixed.nu == summary.fixed.nu
        assert swapped.heterogeneity.q == summary.heterogeneity.q
        assert swapped.heterogeneity.tau2 == summary.heterogeneity.tau2
        assert swapped.random.mu_star == -summary.random.mu_star
        assert swapped.random.nu_star == summary.random.nu_star
        assert swapped.significance.z == -summary.significance.z
        assert swapped.significance.p_z == summary.significance.p_z

    @settings(max_examples=60, deadline=None)
    @given(
        dataset_strategy(min_campaigns=2, max_campaigns=4),
        st.integers(1, 1000),
        st.integers(1, 1000),
        st.integers(0, 3),
    )
    def test_per_campaign_roi_scale_invariance(self, dataset, num, den, which):
        # Scales the campaign's ROIs by num/den (1e-3 to 1e3) through its
        # money, the only way to set a ROI: both products are exact in
        # micro-units.
        index = which % dataset.n
        target = dataset.campaigns[index]
        scaled_campaign = campaign_from_rows([
            (*row[:4], row[4] * den, row[5] * num) for row in rows_of(target)])
        (spend_a, value_a, spend_b, value_b), scaled_totals = (
            campaign_micro_totals(ExperimentDataset((c,)))[c.campaign_id]
            for c in (target, scaled_campaign))
        assert scaled_totals == (spend_a * den, value_a * num, spend_b * den, value_b * num)
        campaigns = list(dataset.campaigns)
        campaigns[index] = scaled_campaign
        effects, excluded, summary = engine_summary(dataset)
        scaled_effects, scaled_excluded, scaled_summary = engine_summary(
            ExperimentDataset(tuple(campaigns))
        )
        assert scaled_excluded == excluded
        assert [e.campaign_id for e in scaled_effects] == [e.campaign_id for e in effects]
        for original, scaled in zip(effects, scaled_effects):
            assert scaled.delta == pytest.approx(original.delta, rel=1e-9, abs=1e-12)
            assert scaled.d == pytest.approx(original.d, rel=1e-9, abs=1e-12)
            assert scaled.v == pytest.approx(original.v, rel=1e-9, abs=1e-12)
        if not effects:
            assert scaled_summary is None
            return
        for field in ("mu_star", "nu_star"):
            assert getattr(scaled_summary.random, field) == pytest.approx(
                getattr(summary.random, field), rel=1e-9, abs=1e-12
            )
        assert scaled_summary.heterogeneity.tau2 == pytest.approx(
            summary.heterogeneity.tau2, rel=1e-9, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(dataset_strategy())
    def test_variance_orderings(self, dataset):
        effects, excluded, summary = engine_summary(dataset)
        assert len(effects) + len(excluded) == dataset.n
        if not effects:
            assert summary is None
            return
        assert summary.heterogeneity.tau2 >= 0.0
        assert summary.random.nu_star >= summary.fixed.nu - 1e-15
        assert summary.fixed.nu <= min(e.v for e in effects) + 1e-15

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=1e-4, max_value=10),
        st.floats(min_value=0.5, max_value=0.999),
    )
    # there p_z = 0.02500000000000004 is not below alpha/2, while the interval
    # lies wholly below zero: the verdict follows the interval
    @example(mu=KNIFE_EDGE_MU, nu=KNIFE_EDGE_NU, level=0.95)
    def test_ci_significance_consistency(self, mu, nu, level):
        result = z_significance(mu, nu, level)
        verdict = decide(result).verdict
        assert (verdict is Verdict.ACCEPT) == (result.ci_low > 0)
        assert (verdict is Verdict.REJECT_HARMFUL) == (result.ci_high < 0)

    def test_knife_edge_verdict_and_basis_follow_the_interval(self):
        result = z_significance(KNIFE_EDGE_MU, KNIFE_EDGE_NU, 0.95)
        assert result.p_z >= 0.025 and result.ci_high < 0
        decision = decide(result)
        assert decision.verdict is Verdict.REJECT_HARMFUL
        golden = report_from_json(GOLDEN_PATH.read_text(encoding="utf-8"))
        text = render_report(golden._replace(significance=result, decision=decision))
        assert "\n  basis: CI 95% = [-1.081908, -0.000000] lies entirely below zero\n" in text

    @settings(max_examples=60, deadline=None)
    @given(mixed_quality_dataset_strategy())
    def test_preprocess_idempotence_and_conservation(self, dataset):
        report = qualify(dataset)
        total_in = sum(c.m_a + c.m_b for c in dataset.campaigns)
        total_kept = sum(c.m_a + c.m_b for c in report.qualified.campaigns)
        assert total_kept + sum(e.n for e in report.part_exclusions) == total_in
        assert qualify(report.qualified).qualified == report.qualified


GOLDEN_SIM = SimConfig(
    n_campaigns=12, m_a=6, m_b=6, treatment_share=0.1,
    part_noise_sd=0.08, treatment_lift=0.10, seed=20260808,
)
GOLDEN_EVAL = EvaluationConfig(aa=AaSettings(seed=11, treatment_share=0.1))


class TestCriterion9GoldenPipeline:
    def run_pipeline(self, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        data_path = workdir / "golden_data.csv"
        write_dataset(generate_experiment(GOLDEN_SIM), data_path)
        dataset = ingest(data_path)
        report = evaluate(dataset, GOLDEN_EVAL)
        return render_report(report, "machine-json")

    def test_simulate_evaluate_report_is_byte_identical(self, tmp_path):
        first = self.run_pipeline(tmp_path / "a")
        second = self.run_pipeline(tmp_path / "b")
        assert first == second
        golden = GOLDEN_PATH.read_text(encoding="utf-8")
        assert first == golden
        # the saved intermediate state reproduces the verdict
        parsed = report_from_json(golden)
        assert decide(parsed.significance) == parsed.decision
        assert report_to_json(parsed) == golden


def render_record_lines(dataset: ExperimentDataset) -> str:
    """The record-lines form of ``dataio.render_dataset_csv``: one JSON
    object per part, with the same 6-decimal money."""
    return "".join(
        json.dumps({
            "campaign_id": p.campaign_id, "arm": p.arm.value, "part_id": p.part_id,
            "impressions": p.impressions,
            "spend": float(f"{p.spend:.6f}"), "value": float(f"{p.value:.6f}"),
        }) + "\n"
        for c in dataset.campaigns for p in c.parts_a + c.parts_b
    )


class TestCriterion10EntryPointParity:
    """The same data gives the same report bytes in memory (as generated, or as
    rows), as CSV and as record-lines."""

    @pytest.mark.parametrize("sim", [
        pytest.param(SimConfig(n_campaigns=12, m_a=2, m_b=3, seed=5), id="two-control-parts"),
        pytest.param(SimConfig(
            n_campaigns=203, treatment_lift=-0.03, outlier_campaigns=3, outlier_lift=0.5,
            seed=100000,
        ), id="study-outliers"),
        pytest.param(SimConfig(n_campaigns=30, budget_log_sd=3.0, seed=7), id="budget-sd-3"),
        pytest.param(SimConfig(n_campaigns=40, seed=3), id="forty-campaigns"),
        pytest.param(SimConfig(n_campaigns=25, m_b=4, treatment_share=0.5,
                               treatment_lift=0.05, seed=11), id="even-share"),
    ])
    def test_memory_csv_and_record_lines_reports_are_byte_identical(self, tmp_path, sim):
        dataset = generate_experiment(sim)
        expected = report_to_json(evaluate(dataset))
        csv_path, jsonl_path = tmp_path / "parts.csv", tmp_path / "parts.jsonl"
        write_dataset(dataset, csv_path)
        jsonl_path.write_text(render_record_lines(dataset), encoding="utf-8")
        assert report_to_json(evaluate(ingest(csv_path))) == expected
        assert report_to_json(evaluate(ingest(jsonl_path, "record-lines"))) == expected
        rows = [row for campaign in dataset.campaigns for row in rows_of(campaign)]
        assert report_to_json(evaluate(dataset_from_rows(rows))) == expected
