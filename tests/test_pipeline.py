import json
import statistics
from math import fsum

import pytest

from conftest import make_campaign, make_dataset, make_part
from roimeta import baselines
from roimeta.baselines import (
    BaselineDecision,
    BaselineMethod,
    aa_calibrate,
    campaign_micro_totals,
    observed_share,
)
from roimeta.campaigns import (
    Arm,
    CampaignExperiment,
    ExperimentDataset,
    micro_totals,
    roi_of_micros,
    to_micros,
)
from roimeta.dataio import ingest, write_dataset
from roimeta.errors import ConfigError, InsufficientDataError, NoQualifiedCampaignsError
from roimeta.meta import SignificanceResult
from roimeta.pipeline import (
    AaSettings,
    Decision,
    EvaluationConfig,
    ExplicitThetas,
    TrafficSchedule,
    Verdict,
    decide,
    evaluate,
    recommend_traffic,
)
from roimeta.preprocess import qualify
from roimeta.simulate import SimConfig, generate_experiment


def significance(p_z, ci_low, ci_high, level=0.95, z=0.0):
    return SignificanceResult(
        z=z, p_z=p_z, confidence_level=level,
        ci_low=ci_low, ci_high=ci_high,
        significant=p_z < (1 - level) / 2,
    )


class TestDecide:
    def test_significant_positive_accepts(self):
        decision = decide(significance(0.001, 0.02, 0.30, z=3.1))
        assert decision.verdict is Verdict.ACCEPT
        assert decision.requires_approval

    def test_significant_negative_is_harmful(self):
        decision = decide(significance(0.001, -0.30, -0.02, z=-3.1))
        assert decision.verdict is Verdict.REJECT_HARMFUL
        assert not decision.requires_approval

    def test_not_significant_is_ineffective(self):
        decision = decide(significance(0.257, -0.02, 0.01))
        assert decision.verdict is Verdict.REJECT_INEFFECTIVE
        assert "not significant" in decision.basis

    def test_basis_is_deterministic(self):
        sig = significance(0.157, -0.028, 0.009)
        assert decide(sig) == decide(sig)


class TestRecommendTraffic:
    def accept(self):
        return Decision(Verdict.ACCEPT, "basis", True)

    def test_ramp_from_first_phase(self):
        rec = recommend_traffic(self.accept(), TrafficSchedule(current_share=0.01))
        assert (rec.action, rec.next_share) == ("ramp_up", 0.10)

    def test_promote_at_final_phase(self):
        rec = recommend_traffic(self.accept(), TrafficSchedule(current_share=0.50))
        assert rec.action == "promote_to_baseline"

    def test_reject_halts(self):
        decision = Decision(Verdict.REJECT_INEFFECTIVE, "basis", False)
        rec = recommend_traffic(decision, TrafficSchedule(current_share=0.20))
        assert rec.action == "halt"

    def test_unknown_share_rejected(self):
        with pytest.raises(ConfigError):
            recommend_traffic(self.accept(), TrafficSchedule(current_share=0.33))

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            TrafficSchedule(phases=(0.1, 0.1, 0.2), current_share=0.1)
        with pytest.raises(ConfigError):
            TrafficSchedule(phases=(0.1, 0.6), current_share=0.1)
        with pytest.raises(ConfigError, match="not one of the schedule phases"):
            TrafficSchedule(current_share=0.33)


def lifted_dataset(seed=101, lift=0.10, n=12):
    return generate_experiment(SimConfig(
        n_campaigns=n, m_a=6, m_b=6, treatment_share=0.1,
        part_noise_sd=0.08, treatment_lift=lift, seed=seed,
    ))


def config_with_thetas(**kwargs):
    return EvaluationConfig(aa=ExplicitThetas(micro_theta=0.0, macro_theta=0.0), **kwargs)


class TestEvaluate:
    def test_identical_arms_reject_ineffective(self):
        campaigns = []
        for i in range(5):
            rois = [1.0 + 0.1 * j for j in range(4)]
            campaigns.append(make_campaign(f"c{i}", rois, rois))
        report = evaluate(make_dataset(campaigns), config_with_thetas())
        assert report.significance.z == 0.0
        assert report.decision.verdict is Verdict.REJECT_INEFFECTIVE
        assert report.recommendation.action == "halt"

    def test_strong_lift_accepts_and_ramps(self):
        report = evaluate(lifted_dataset(), EvaluationConfig(
            aa=AaSettings(seed=5, treatment_share=0.1),
        ))
        assert report.decision.verdict is Verdict.ACCEPT
        assert report.significance.ci_low > 0
        assert report.recommendation == report.recommendation.__class__("ramp_up", 0.10)
        assert report.decision.requires_approval

    def test_negative_lift_is_harmful_and_skips_subgroup(self):
        dataset = lifted_dataset(seed=7, lift=-0.15, n=20)
        report = evaluate(dataset, config_with_thetas())
        assert report.decision.verdict is Verdict.REJECT_HARMFUL
        assert report.subgroup is None

    def test_skip_flag_off_keeps_subgroup_and_verdict(self):
        dataset = lifted_dataset(seed=7, lift=-0.15, n=20)
        skipping = evaluate(dataset, config_with_thetas())
        keeping = evaluate(dataset, config_with_thetas(skip_subgroup_on_strong_reject=False))
        assert keeping.subgroup is not None
        assert keeping.decision == skipping.decision

    def test_explicit_thetas_drive_baselines(self):
        report = evaluate(lifted_dataset(), EvaluationConfig(
            aa=ExplicitThetas(micro_theta=99.0, macro_theta=-99.0),
        ))
        by_method = {b.method: b for b in report.baselines}
        assert by_method[BaselineMethod.MICRO].decision is BaselineDecision.REJECT
        assert by_method[BaselineMethod.MACRO].decision is BaselineDecision.ACCEPT
        assert by_method[BaselineMethod.MACRO_MEDIAN].decision is BaselineDecision.ACCEPT
        assert by_method[BaselineMethod.MACRO_MEDIAN].threshold_theta == -99.0

    def test_all_campaigns_disqualified_is_an_error(self):
        dataset = make_dataset([
            make_campaign("c1", [1.0, 1.1], [1.0, 1.2], impressions=5),
        ])
        with pytest.raises(NoQualifiedCampaignsError):
            evaluate(dataset, config_with_thetas())

    def test_effects_exclusions_are_reported(self):
        fine = make_campaign("fine", [1.0, 1.4, 0.9], [1.2, 1.5, 1.0])
        single_part = CampaignExperiment(
            "thin",
            [make_part("thin", Arm.CONTROL, 0, roi=1.0)],
            [make_part("thin", Arm.TREATMENT, 0, roi=1.0)],
        )
        report = evaluate(make_dataset([fine, single_part]), config_with_thetas())
        assert [e.campaign_id for e in report.effects] == ["fine"]
        assert [x.campaign_id for x in report.effect_exclusions] == ["thin"]
        # every retained campaign has exactly one effect or one exclusion
        accounted = {e.campaign_id for e in report.effects} | {
            x.campaign_id for x in report.effect_exclusions
        }
        assert accounted == {
            c.campaign_id for c in report.qualification.qualified.campaigns
        }
        assert len(report.effects) + len(report.effect_exclusions) == (
            report.qualification.qualified.n
        )

    def test_only_degenerate_campaigns_is_an_error(self):
        thin = CampaignExperiment(
            "thin",
            [make_part("thin", Arm.CONTROL, 0, roi=1.0)],
            [make_part("thin", Arm.TREATMENT, 0, roi=1.0)],
        )
        with pytest.raises(NoQualifiedCampaignsError, match="effect-size"):
            evaluate(make_dataset([thin]), config_with_thetas())

    def test_observed_share_feeds_calibration(self):
        dataset = lifted_dataset()
        qualified = qualify(dataset).qualified
        spend_b = sum(to_micros(p.spend) for c in qualified.campaigns for p in c.parts_b)
        spend_a = sum(to_micros(p.spend) for c in qualified.campaigns for p in c.parts_a)
        share = spend_b / (spend_a + spend_b)
        assert share == pytest.approx(0.1, abs=1e-3)
        observed = evaluate(dataset, EvaluationConfig(aa=AaSettings(seed=5)))
        explicit = evaluate(dataset, EvaluationConfig(
            aa=AaSettings(seed=5, treatment_share=share),
        ))
        assert observed.baselines == explicit.baselines
        even = evaluate(dataset, EvaluationConfig(aa=AaSettings(seed=5, treatment_share=0.5)))
        assert observed.baselines != even.baselines
        # dataset metadata plays no part in the share
        for raw in ("0.5", "n/a"):
            with_meta = ExperimentDataset(dataset.campaigns, metadata={"treatment_share": raw})
            assert evaluate(
                with_meta, EvaluationConfig(aa=AaSettings(seed=5))
            ).baselines == observed.baselines

    def test_verdict_reproducible_from_significance(self):
        report = evaluate(lifted_dataset(), config_with_thetas())
        assert decide(report.significance) == report.decision

    def test_baseline_accepts_never_override_meta_reject(self):
        # a small uniform drift clears tiny thresholds but is not significant
        dataset = lifted_dataset(seed=23, lift=0.004, n=8)
        report = evaluate(dataset, EvaluationConfig(
            aa=ExplicitThetas(micro_theta=-1.0, macro_theta=-1.0),
        ))
        assert all(b.decision is BaselineDecision.ACCEPT for b in report.baselines)
        assert not report.significance.significant
        assert report.decision.verdict is Verdict.REJECT_INEFFECTIVE
        assert report.recommendation.action == "halt"

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EvaluationConfig(confidence_level=1.2)
        with pytest.raises(ConfigError):
            EvaluationConfig(homogeneity_level=0.0)
        with pytest.raises(ConfigError, match="variance_formula"):
            EvaluationConfig(variance_formula="exotic")
        with pytest.raises(ConfigError):
            AaSettings(repeats_k=0)
        with pytest.raises(ConfigError):
            AaSettings(treatment_share=0.0)


def render_record_lines(dataset: ExperimentDataset) -> str:
    """Record-lines text with the same 6-decimal money as the CSV writer."""
    return "".join(
        f'{{"campaign_id": {json.dumps(p.campaign_id)}, "arm": "{p.arm.value}", '
        f'"part_id": {p.part_id}, "impressions": {p.impressions}, '
        f'"spend": {p.spend:.6f}, "value": {p.value:.6f}}}\n'
        for c in dataset.campaigns
        for p in c.parts_a + c.parts_b
    )


class TestCalibrateBaselines:
    @pytest.mark.parametrize("sim,aa_seed", [
        (SimConfig(n_campaigns=40, seed=3), 1),
        (SimConfig(n_campaigns=30, m_a=4, m_b=7, treatment_share=0.3,
                   part_noise_sd=0.2, seed=8), 2),
        (SimConfig(n_campaigns=25, m_a=2, m_b=3, treatment_share=0.05, seed=21), 3),
        (SimConfig(n_campaigns=12, m_a=9, m_b=9, treatment_share=0.5,
                   budget_log_sd=3.0, seed=34), 4),
    ], ids=["40-campaigns", "share-0.3", "two-control-parts", "even-share"])
    def test_default_share_survives_a_file_round_trip(self, tmp_path, sim, aa_seed):
        dataset = generate_experiment(sim)
        settings = AaSettings(seed=aa_seed)
        in_memory = aa_calibrate(dataset, campaign_micro_totals(dataset), settings)
        csv_path = tmp_path / "parts.csv"
        write_dataset(dataset, csv_path)
        jsonl_path = tmp_path / "parts.jsonl"
        jsonl_path.write_text(render_record_lines(dataset), encoding="utf-8")
        for loaded in (ingest(csv_path), ingest(jsonl_path, "record-lines")):
            totals = campaign_micro_totals(loaded)
            assert aa_calibrate(loaded, totals, settings) == in_memory

    def test_share_needs_spend_in_both_arms(self):
        one_armed = make_dataset([make_campaign("c1", [1.0, 1.2], [])])
        with pytest.raises(InsufficientDataError, match="treatment share"):
            aa_calibrate(one_armed, campaign_micro_totals(one_armed), AaSettings())


# The deltas and the default A/A share as computed before the per-campaign
# micro totals were summed once per decision: each walks the dataset's parts.

def walk_micro_roi(dataset, arm):
    parts = [c.parts_a if arm is Arm.CONTROL else c.parts_b for c in dataset.campaigns]
    totals = [micro_totals(p) for p in parts]
    return roi_of_micros(sum(t[0] for t in totals), sum(t[1] for t in totals), arm)


def walk_micro_delta(dataset):
    return walk_micro_roi(dataset, Arm.TREATMENT) - walk_micro_roi(dataset, Arm.CONTROL)


def walk_macro_delta(dataset, aggregator):
    diffs = [
        roi_of_micros(*micro_totals(c.parts_b), Arm.TREATMENT, c.campaign_id)
        - roi_of_micros(*micro_totals(c.parts_a), Arm.CONTROL, c.campaign_id)
        for c in dataset.campaigns
    ]
    if aggregator == "median":
        return statistics.median(diffs)
    return fsum(diffs) / len(diffs)


def walk_share(dataset):
    spend_b = sum(micro_totals(c.parts_b)[0] for c in dataset.campaigns)
    spend = spend_b + sum(micro_totals(c.parts_a)[0] for c in dataset.campaigns)
    return spend_b / spend


class TestTotalsOnce:
    @pytest.mark.parametrize("sim", [
        SimConfig(n_campaigns=40, seed=3),
        SimConfig(n_campaigns=30, m_a=4, m_b=7, treatment_share=0.3,
                  part_noise_sd=0.2, treatment_lift=0.05, seed=8),
        SimConfig(n_campaigns=25, m_a=2, m_b=3, treatment_share=0.05, seed=21),
        SimConfig(n_campaigns=12, m_a=9, m_b=9, treatment_share=0.5,
                  budget_log_sd=3.0, seed=34),
        SimConfig(n_campaigns=40, m_a=20, m_b=20, budget_log_sd=3.5,
                  impressions_per_part_mean=130.0, treatment_lift=-0.03, seed=55),
    ], ids=["40-campaigns", "share-0.3", "two-control-parts", "uneven-budgets",
            "dropped-parts"])
    def test_statistics_and_share_match_the_dataset_walk(self, sim, monkeypatch):
        dataset = generate_experiment(sim)
        qualified = qualify(dataset).qualified
        shares = []

        def recording(totals):
            shares.append(observed_share(totals))
            return shares[-1]

        monkeypatch.setattr(baselines, "observed_share", recording)
        report = evaluate(dataset, EvaluationConfig(aa=AaSettings(seed=sim.seed)))
        expected = {
            BaselineMethod.MICRO: walk_micro_delta(qualified),
            BaselineMethod.MACRO: walk_macro_delta(qualified, "mean"),
            BaselineMethod.MACRO_MEDIAN: walk_macro_delta(qualified, "median"),
        }
        assert {b.method: b.statistic.hex() for b in report.baselines} == {
            method: statistic.hex() for method, statistic in expected.items()
        }
        assert [share.hex() for share in shares] == [walk_share(qualified).hex()]
