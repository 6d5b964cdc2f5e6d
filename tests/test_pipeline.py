import json
import time

import pytest

from conftest import (
    campaign_from_rows, make_campaign, make_dataset, make_part, micro_totals, rows_of,
    walk_macro_delta, walk_micro_delta,
)
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
    PartMeasurement,
    to_micros,
)
from roimeta.dataio import dataset_from_rows, ingest, write_dataset
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
from roimeta.reportio import report_to_json
from roimeta.simulate import SimConfig, generate_experiment


def significance(p_z, ci_low, ci_high, level=0.95, z=0.0):
    return SignificanceResult(
        z=z, p_z=p_z, confidence_level=level, ci_low=ci_low, ci_high=ci_high,
    )


class TestDecide:
    def test_interval_above_zero_accepts(self):
        decision = decide(significance(0.001, 0.02, 0.30, z=3.1))
        assert decision.verdict is Verdict.ACCEPT
        assert decision.requires_approval

    def test_interval_below_zero_is_harmful(self):
        decision = decide(significance(0.001, -0.30, -0.02, z=-3.1))
        assert decision.verdict is Verdict.REJECT_HARMFUL
        assert not decision.requires_approval

    def test_interval_across_zero_is_ineffective(self):
        decision = decide(significance(0.257, -0.02, 0.01))
        assert decision.verdict is Verdict.REJECT_INEFFECTIVE
        assert not decision.requires_approval

    @pytest.mark.parametrize("ci_low, ci_high", [(0.0, 0.3), (-0.3, 0.0)])
    def test_interval_touching_zero_is_ineffective(self, ci_low, ci_high):
        assert decide(significance(0.01, ci_low, ci_high)).verdict is Verdict.REJECT_INEFFECTIVE

    def test_p_z_does_not_drive_the_verdict(self):
        # p_z is data: the interval alone decides, whichever side of alpha/2 it is
        for p_z in (0.0, 0.025, 0.5):
            assert decide(significance(p_z, 0.02, 0.30)).verdict is Verdict.ACCEPT
            assert decide(significance(p_z, -0.02, 0.30)).verdict is Verdict.REJECT_INEFFECTIVE

    def test_decision_stores_the_verdict_alone(self):
        assert Decision._fields == ("verdict",)
        assert SignificanceResult._fields == ("z", "p_z", "confidence_level", "ci_low", "ci_high")
        sig = significance(0.157, -0.028, 0.009)
        assert decide(sig) == decide(sig)


class TestRecommendTraffic:
    def accept(self):
        return Decision(Verdict.ACCEPT)

    def test_ramp_from_first_phase(self):
        rec = recommend_traffic(self.accept(), TrafficSchedule(current_share=0.01))
        assert (rec.action, rec.next_share) == ("ramp_up", 0.10)

    def test_promote_at_final_phase(self):
        rec = recommend_traffic(self.accept(), TrafficSchedule(current_share=0.50))
        assert rec.action == "promote_to_baseline"

    def test_reject_halts(self):
        decision = Decision(Verdict.REJECT_INEFFECTIVE)
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

    def test_removed_skip_knob_is_refused(self):
        # subgroups are always skipped after a harmful rejection
        with pytest.raises(TypeError):
            config_with_thetas(skip_subgroup_on_strong_reject=False)

    def test_spend_tiers_warn_only_when_the_subgroups_run(self):
        # two campaigns leave one of the three spend tiers empty
        harmful = make_dataset([
            make_campaign(f"c{i}", [1.0, 1.1, 0.9, 1.05], [0.5, 0.55, 0.45, 0.52])
            for i in range(2)
        ])
        skipped = evaluate(harmful, config_with_thetas())
        assert skipped.decision.verdict is Verdict.REJECT_HARMFUL
        assert skipped.subgroup is None
        assert skipped.audit.warnings == ()
        flat = make_dataset([
            make_campaign(f"c{i}", [1.0, 1.1, 0.9, 1.05], [1.0, 1.1, 0.9, 1.05])
            for i in range(2)
        ])
        ran = evaluate(flat, config_with_thetas())
        assert ran.decision.verdict is Verdict.REJECT_INEFFECTIVE
        assert ran.subgroup is not None
        assert ran.audit.warnings == ("only 2 of 3 spend groups are non-empty",)

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
        single_part = campaign_from_rows([
            make_part("thin", Arm.CONTROL, 0, roi=1.0),
            make_part("thin", Arm.TREATMENT, 0, roi=1.0),
        ])
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
        thin = campaign_from_rows([
            make_part("thin", Arm.CONTROL, 0, roi=1.0),
            make_part("thin", Arm.TREATMENT, 0, roi=1.0),
        ])
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
        assert report.significance.ci_low <= 0 <= report.significance.ci_high
        assert report.decision.verdict is Verdict.REJECT_INEFFECTIVE
        assert report.recommendation.action == "halt"

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EvaluationConfig(confidence_level=1.2)
        with pytest.raises(ConfigError):
            EvaluationConfig(homogeneity_level=0.0)
        with pytest.raises(TypeError, match="variance_formula"):
            EvaluationConfig(variance_formula="noncentral_t")
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


# The default A/A share as computed before the per-campaign micro totals were
# summed once per decision (the statistics' walks are in conftest).

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


class TestNoPartObjectsOnTheDecisionPath:
    """Generating, ingesting files or rows, qualifying (with dropped parts) and
    evaluating build no ``PartMeasurement`` (by its constructor or ``_make``) and read no
    part view: all of it runs on the arm columns."""

    def test_evaluate_runs_on_columns(self, tmp_path, monkeypatch):
        sim = SimConfig(n_campaigns=12, m_a=30, m_b=30, impressions_per_part_mean=118.0,
                        treatment_lift=0.1, seed=7)
        config = EvaluationConfig(aa=AaSettings(seed=3))
        dataset = generate_experiment(sim)
        paths = {"delimited-text": tmp_path / "d.csv", "record-lines": tmp_path / "d.jsonl"}
        write_dataset(dataset, paths["delimited-text"])
        paths["record-lines"].write_text(render_record_lines(dataset), encoding="utf-8")
        rows = [row for campaign in dataset.campaigns for row in rows_of(campaign)]
        expected = report_to_json(evaluate(dataset, config))

        def refuse(*args, **kwargs):
            raise AssertionError("a part object was built on the decision path")

        monkeypatch.setattr(PartMeasurement, "__new__", refuse)
        monkeypatch.setattr(PartMeasurement, "_make", refuse)
        monkeypatch.setattr(CampaignExperiment, "parts_a", property(refuse))
        monkeypatch.setattr(CampaignExperiment, "parts_b", property(refuse))
        fields = ("c1", Arm.CONTROL, 0, 10, 1.0, 1.0, 1.0)
        for build in (lambda: PartMeasurement.__new__(PartMeasurement, *fields),
                      lambda: PartMeasurement._make(fields),
                      lambda: dataset.campaigns[0].parts_a,
                      lambda: dataset.campaigns[0].parts_b):
            with pytest.raises(AssertionError, match="a part object was built"):
                build()
        reports = [evaluate(generate_experiment(sim), config)]
        reports += [evaluate(ingest(path, fmt), config) for fmt, path in paths.items()]
        reports.append(evaluate(dataset_from_rows(rows), config))
        kept = reports[0].qualification.qualified.campaigns
        assert any(c.m_a < sim.m_a or c.m_b < sim.m_b for c in kept)
        assert 0 < len(kept) < sim.n_campaigns
        assert [report_to_json(report) for report in reports] == [expected] * 4


STAGES = ["qualify", "totals", "subgroup_partition", "aa_calibrate", "deltas", "effects",
          "combine", "decide", "subgroups", "digest"]


def no_clock(monkeypatch):
    """Make every clock of the ``time`` module raise while the test runs."""
    def refuse(*args):
        raise AssertionError("a clock was read")

    for name in ("perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "time",
                 "time_ns", "process_time", "process_time_ns"):
        monkeypatch.setattr(time, name, refuse)


class TestStageTrace:
    @pytest.mark.parametrize("lift,thetas", [(0.10, False), (0.10, True), (-0.15, True)],
                             ids=["aa-accept", "thetas-accept", "harmful"])
    def test_records_every_stage_and_leaves_the_report_alone(self, lift, thetas):
        dataset = lifted_dataset(seed=7, lift=lift, n=20)
        config = (config_with_thetas() if thetas
                  else EvaluationConfig(aa=AaSettings(repeats_k=3, seed=5, treatment_share=0.1)))
        trace = []
        traced = evaluate(dataset, config, trace)
        assert report_to_json(traced) == report_to_json(evaluate(dataset, config))
        assert [r["stage"] for r in trace] == STAGES
        for record in trace:
            assert record["seconds"] >= 0.0
            assert type(record["n_in"]) is int and type(record["n_out"]) is int
        by_stage = {r["stage"]: r for r in trace}
        kept = traced.qualification.qualified.campaigns
        assert (by_stage["qualify"]["n_in"], by_stage["qualify"]["n_out"]) == (20, len(kept))
        assert by_stage["effects"]["n_out"] == len(traced.effects)
        analysed = len(traced.subgroup.summaries) if traced.subgroup is not None else 0
        assert by_stage["subgroups"]["n_out"] == analysed
        aa = by_stage["aa_calibrate"]
        if thetas:
            assert (aa["n_out"], aa["splits"], aa["draws"]) == (0, 0, 0)
        else:  # 6 control parts at share 0.1: one pseudo-treatment part per split
            assert (aa["n_out"], aa["splits"], aa["draws"]) == (len(kept), 3 * len(kept),
                                                                3 * len(kept))

    def test_untraced_evaluate_reads_no_clock(self, monkeypatch):
        dataset = lifted_dataset()
        config = EvaluationConfig(aa=AaSettings(seed=5, treatment_share=0.1))
        expected = report_to_json(evaluate(dataset, config))
        no_clock(monkeypatch)
        assert report_to_json(evaluate(dataset, config)) == expected
        with pytest.raises(AssertionError, match="a clock was read"):
            evaluate(dataset, config, [])
