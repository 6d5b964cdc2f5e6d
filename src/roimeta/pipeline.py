"""End-to-end evaluation: qualify, baseline checks, meta-analysis, decision, ramp.

``evaluate`` runs the stages in a fixed order: qualification, the subgroup
partition (so a bad label map fails before any analysis), micro/macro
baselines against A/A-calibrated (or explicit) thresholds, per-campaign effect
sizes, the fixed-then-random effects combination with its Z test and
confidence interval (``meta.summarize_effects``), the verdict, subgroup
diagnostics (skipped after a harmful rejection), and a traffic-ramp
recommendation. The verdict reads the summary effect's confidence interval
alone: accept when it lies entirely above zero, a harmful (strong) rejection
when it lies entirely below, and a rejection for ineffectiveness otherwise.
``p_z`` and the baseline verdicts are reported alongside but never drive it.
``config`` defines the ``EvaluationConfig`` that ``evaluate`` reads and each of
its sections, down to the ramp schedule, which names its own current phase.

``evaluate(dataset, config, trace)`` appends to a ``trace`` list one record per
stage as it runs: ``stage``, ``seconds`` since the previous record, and the
counts ``n_in`` and ``n_out``: ``qualify`` (campaigns in, kept), ``totals``
(campaigns, totals), ``subgroup_partition`` (campaigns, groups),
``aa_calibrate`` (campaigns, campaigns split; also ``splits`` and ``draws`` over
all repeats, 0 for explicit thresholds), ``deltas`` (campaigns, statistics),
``effects`` (campaigns, effect sizes), ``combine`` (effect sizes, 1),
``decide`` (1, 1), ``subgroups`` (groups, groups analysed; 0 when skipped) and
``digest`` (campaigns, 1: the parts digest and the report's assembly). Without
a trace no clock is read, and the report never depends on the trace.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import __version__
from .baselines import (
    MicroTotals,
    aa_calibrate,
    aa_skipped,
    baseline_statistics,
    campaign_micro_totals,
    observed_share,
    threshold_decision,
)
from .campaigns import ExperimentDataset, parts_sha256
from .config import AaSettings, EvaluationConfig, ExplicitThetas, TrafficSchedule, config_record
from .errors import (
    DegenerateEffectError,
    InsufficientDataError,
    NoQualifiedCampaignsError,
)
from .meta import arm_stats, effect_size, summarize_effects
from .preprocess import qualify
from .records import (  # noqa: F401  re-exported
    AaRecord, Audit, BaselineMethod, BaselineResult, Decision, EffectExclusion, EffectSize,
    EvaluationReport, FixedEffectSummary, HeterogeneityStats, KeptCampaign, QualificationRecord,
    QualifiedParts, RandomEffectSummary, SignificanceResult, SubgroupReport,
    TrafficRecommendation, Verdict,
)
from .subgroups import resolve_subgroups, subgroup_analysis


def decide(significance: SignificanceResult) -> Decision:
    """The verdict of the summary effect's confidence interval: accept when it
    lies above zero, a harmful rejection when it lies below, otherwise an
    ineffective one. Pure and replayable."""
    if significance.ci_low > 0:
        return Decision(Verdict.ACCEPT)
    if significance.ci_high < 0:
        return Decision(Verdict.REJECT_HARMFUL)
    return Decision(Verdict.REJECT_INEFFECTIVE)


def recommend_traffic(
    decision: Decision, schedule: TrafficSchedule
) -> TrafficRecommendation:
    """Next ramp move: step up on accept, promote at the final phase, halt on reject."""
    index = schedule.phase_index()
    if decision.verdict is not Verdict.ACCEPT:
        return TrafficRecommendation(action="halt")
    if index == len(schedule.phases) - 1:
        return TrafficRecommendation(action="promote_to_baseline")
    return TrafficRecommendation(action="ramp_up", next_share=schedule.phases[index + 1])


def _resolve_thetas(
    qualified: ExperimentDataset, totals: MicroTotals, config: EvaluationConfig
) -> tuple[tuple[float, float, float], AaRecord | None, list[tuple]]:
    """Each baseline's threshold, in ``BaselineMethod`` order, how A/A calibration
    derived them and the columns it split (None and none for explicit thresholds)."""
    if isinstance(config.aa, ExplicitThetas):
        return (config.aa.micro_theta, config.aa.macro_theta, config.aa.macro_theta), None, []
    columns: list[tuple] = []  # filled by aa_calibrate, which alone resolves the share
    record = aa_calibrate(qualified, totals, config.aa, columns)
    return tuple(map(record.theta, BaselineMethod)), record, columns


def collect_effects(
    dataset: ExperimentDataset
) -> tuple[tuple[EffectSize, ...], tuple[EffectExclusion, ...]]:
    """Effect size per campaign; campaigns that cannot produce one are reported."""
    effects: list[EffectSize] = []
    exclusions: list[EffectExclusion] = []
    for campaign in dataset.campaigns:
        campaign_id, a, b = campaign.campaign_id, campaign.a, campaign.b
        try:
            effects.append(effect_size(arm_stats(a.rois, campaign_id, a.part_ids),
                                       arm_stats(b.rois, campaign_id, b.part_ids), campaign_id))
        except (InsufficientDataError, DegenerateEffectError) as exc:
            exclusions.append(EffectExclusion(campaign_id, str(exc)))
    return tuple(effects), tuple(exclusions)


def stage_clock(trace: list[dict] | None):
    """The ``mark(stage, n_in, n_out, **counts)`` that appends a stage's record to
    ``trace``, its seconds counted from the previous mark or from this call; for
    a ``trace`` of None, a ``mark`` that does nothing and reads no clock."""
    if trace is None:
        return lambda stage, n_in, n_out, **counts: None
    last = time.perf_counter()

    def mark(stage: str, n_in: int, n_out: int, **counts: int) -> None:
        nonlocal last
        now = time.perf_counter()
        trace.append({"stage": stage, "seconds": now - last, "n_in": n_in, "n_out": n_out,
                      **counts})
        last = now
    return mark


def evaluate(
    dataset: ExperimentDataset, config: EvaluationConfig = EvaluationConfig(),
    trace: list[dict] | None = None,
) -> EvaluationReport:
    """Run the full decision sequence on one dataset; with a ``trace`` list,
    append one record per stage to it (see the module docstring).

    Raises NoQualifiedCampaignsError when qualification or effect-size
    screening leaves nothing to analyze; there is no decision in that case.
    """
    mark = stage_clock(trace)
    qreport = qualify(dataset, config.qualification)
    qualified = qreport.qualified
    mark("qualify", dataset.n, qualified.n)
    if not qualified.campaigns:
        if dataset.n == 0:
            raise NoQualifiedCampaignsError("dataset contains no campaigns")
        raise NoQualifiedCampaignsError(
            f"all {dataset.n} campaign(s) were disqualified during preprocessing"
        )

    # perfbench --trace 1 wraps qualify, aa_calibrate, collect_effects,
    # resolve_subgroups and subgroup_analysis by their names in this module
    totals = campaign_micro_totals(qualified)
    mark("totals", qualified.n, len(totals))
    groups = resolve_subgroups(totals, config.subgroups)  # a bad label map fails here
    mark("subgroup_partition", len(totals), len(groups))
    notes: list[str] = []  # the report's warnings, in stage order
    thetas, aa, columns = _resolve_thetas(qualified, totals, config)
    skipped = aa_skipped(qualified) if aa is not None else []
    if skipped:
        notes.append(
            f"excluded {len(skipped)} campaign(s) with fewer than 2 control parts "
            f"from A/A calibration: {', '.join(skipped[:5])}"
            + ("..." if len(skipped) > 5 else "")
        )
    if trace is not None:
        repeats = aa.repeats_k if aa is not None else 0
        mark("aa_calibrate", qualified.n, len(columns), splits=repeats * len(columns),
             draws=repeats * sum(n_b for *_, n_b in columns))
    stats = baseline_statistics(totals, *zip(*totals.values()))
    baselines = tuple(
        BaselineResult(method, statistic, theta, threshold_decision(statistic, theta))
        for method, statistic, theta in zip(BaselineMethod, stats, thetas)
    )
    mark("deltas", len(totals), len(baselines))

    effects, exclusions = collect_effects(qualified)
    mark("effects", qualified.n, len(effects))
    if not effects:
        raise NoQualifiedCampaignsError(
            "no qualified campaign is eligible for effect-size analysis "
            f"({len(exclusions)} excluded)"
        )
    pairs = {e.campaign_id: (e.d, e.v) for e in effects}  # the chain's (d, v) pairs
    summary = summarize_effects(tuple(pairs.values()), config.confidence_level)
    mark("combine", len(pairs), 1)
    decision = decide(summary.significance)
    recommendation = recommend_traffic(decision, config.schedule)
    mark("decide", 1, 1)

    subgroup = None
    if decision.verdict is not Verdict.REJECT_HARMFUL:
        tiers = len(config.subgroups.spend_fractions)
        if config.subgroups.labels is None and len(groups) < tiers:
            notes.append(f"only {len(groups)} of {tiers} spend groups are non-empty")
        subgroup = subgroup_analysis(
            pairs, summary.heterogeneity.tau2, groups, config.confidence_level
        )
        analysed = {s.group_id for s in subgroup.summaries}
        notes.extend(f"subgroup {g.group_id!r} has no analyzable campaigns; dropped"
                     for g in groups if g.group_id not in analysed)
    mark("subgroups", len(groups), len(subgroup.summaries) if subgroup is not None else 0)

    kept = tuple(KeptCampaign(c.campaign_id, c.m_a, c.m_b) for c in qualified.campaigns)
    report = EvaluationReport(
        qualification=QualificationRecord(
            QualifiedParts(kept, parts_sha256(qualified)), qreport.part_exclusions,
            qreport.disqualified_campaigns, qreport.disqualified_fraction,
        ),
        baselines=baselines,
        effects=effects,
        effect_exclusions=exclusions,
        fixed=summary.fixed,
        heterogeneity=summary.heterogeneity,
        homogeneity_level=config.homogeneity_level,
        random=summary.random,
        significance=summary.significance,
        subgroup=subgroup,
        decision=decision,
        recommendation=recommendation,
        audit=Audit(
            version=__version__,
            config=config_record(config, aa.treatment_share if aa is not None else None),
            aa=aa,
            spend_share_observed=observed_share(totals),
            spend_share_configured=(
                config.aa.treatment_share if isinstance(config.aa, AaSettings) else None),
            warnings=tuple(notes),
        ),
    )
    mark("digest", qualified.n, 1)
    return report
