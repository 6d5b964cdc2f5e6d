"""End-to-end evaluation: qualify, baseline checks, meta-analysis, decision, ramp.

``evaluate`` runs the stages in a fixed order: qualification, the subgroup
partition (so a bad label map fails before any analysis), micro/macro
baselines against A/A-calibrated (or explicit) thresholds, per-campaign effect
sizes, the fixed-then-random effects combination with its Z/CI significance
test (``meta.summarize_effects``), subgroup diagnostics (skipped on a strong
rejection when configured), the verdict, and a traffic-ramp recommendation.
The verdict is a pure function of the significance result: accept needs a
significant effect with a confidence interval entirely above zero; a
significant interval entirely below zero is a harmful (strong) rejection;
anything else rejects for ineffectiveness.
Baseline verdicts are reported alongside but never drive the decision.

The report's ``audit`` block records what a later check of the decision needs:
the effective config with the source of each value, each baseline's A/A
statistic per repeat, the observed and configured arm-B spend share (data
only), the warnings of the stages that ran, and the package version.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import __version__
from .baselines import (
    AaSettings,
    MicroTotals,
    aa_calibrate,
    aa_skipped,
    baseline_statistics,
    campaign_micro_totals,
    observed_share,
    threshold_decision,
)
from .campaigns import ExperimentDataset, parts_sha256
from .config import config_record
from .errors import (
    ConfigError,
    DegenerateEffectError,
    InsufficientDataError,
    NoQualifiedCampaignsError,
)
from .meta import arm_stats, effect_size, summarize_effects
from .preprocess import QualificationConfig, qualify
from .records import (  # noqa: F401  re-exported
    AaRecord, Audit, BaselineMethod, BaselineResult, Decision, EffectExclusion, EffectSize,
    EvaluationReport, FixedEffectSummary, HeterogeneityStats, KeptCampaign, QualificationRecord,
    QualifiedParts, RandomEffectSummary, SignificanceResult, SubgroupReport,
    TrafficRecommendation, Verdict, checked,
)
from .subgroups import SubgroupSpec, resolve_subgroups, subgroup_analysis


@checked
class ExplicitThetas(NamedTuple):
    """Pre-computed baseline thresholds, bypassing A/A calibration; each finite,
    so the report stays JSON."""

    micro_theta: float
    macro_theta: float

    def _check(self):
        for name, theta in zip(self._fields, self):
            if not math.isfinite(theta):
                raise ConfigError(f"{name} must be finite, got {theta!r}")


@checked
class TrafficSchedule(NamedTuple):
    """Ramp phases for the treatment share, strictly increasing in (0, 0.5],
    and the current share, which must be one of them."""

    phases: tuple[float, ...] = (0.01, 0.10, 0.20, 0.50)
    current_share: float = 0.01

    def _check(self):
        if type(self.phases) is not tuple:
            return self._replace(phases=tuple(self.phases))
        if not self.phases:
            raise ConfigError("phases must be non-empty")
        previous = 0.0
        for share in self.phases:
            if not previous < share <= 0.5:
                raise ConfigError(
                    f"phases must be strictly increasing within (0, 0.5], got {self.phases!r}"
                )
            previous = share
        if _phase_index(self.phases, self.current_share) is None:
            raise ConfigError(
                f"current_share {self.current_share!r} is not one of the "
                f"schedule phases {self.phases!r}"
            )


def _phase_index(phases: tuple[float, ...], share: float) -> int | None:
    return next((i for i, phase in enumerate(phases)
                 if math.isclose(phase, share, rel_tol=0.0, abs_tol=1e-12)), None)


@checked
class EvaluationConfig(NamedTuple):
    confidence_level: float = 0.95
    homogeneity_level: float = 0.10
    qualification: QualificationConfig = QualificationConfig()
    aa: AaSettings | ExplicitThetas = AaSettings()
    subgroups: SubgroupSpec = SubgroupSpec()
    skip_subgroup_on_strong_reject: bool = True
    schedule: TrafficSchedule = TrafficSchedule()
    # Where the loader found each key ("file" or "flag"); compared, as the audit shows it.
    sources: dict[str, str] | None = None

    def _check(self):
        for name in ("confidence_level", "homogeneity_level"):
            level = getattr(self, name)
            if not 0.0 < level < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {level!r}")


def decide(significance: SignificanceResult) -> Decision:
    """Map the significance result to a verdict; pure and replayable."""
    alpha_half = (1.0 - significance.confidence_level) / 2.0
    if significance.significant and significance.ci_low > 0:
        verdict = Verdict.ACCEPT
        basis = (
            f"significant positive effect: P_z={significance.p_z:.6f} < "
            f"{alpha_half:.6f} and CI low {significance.ci_low:.6f} > 0"
        )
    elif significance.significant and significance.ci_high < 0:
        verdict = Verdict.REJECT_HARMFUL
        basis = (
            f"significant negative effect: P_z={significance.p_z:.6f} < "
            f"{alpha_half:.6f} and CI high {significance.ci_high:.6f} < 0"
        )
    elif significance.significant:
        verdict = Verdict.REJECT_INEFFECTIVE
        basis = (
            f"significant but the confidence interval "
            f"[{significance.ci_low:.6f}, {significance.ci_high:.6f}] touches zero"
        )
    else:
        verdict = Verdict.REJECT_INEFFECTIVE
        basis = (
            f"effect not significant: P_z={significance.p_z:.6f} >= {alpha_half:.6f}"
        )
    return Decision(
        verdict=verdict, basis=basis, requires_approval=verdict is Verdict.ACCEPT
    )


def recommend_traffic(
    decision: Decision, schedule: TrafficSchedule
) -> TrafficRecommendation:
    """Next ramp move: step up on accept, promote at the final phase, halt on reject."""
    index = _phase_index(schedule.phases, schedule.current_share)
    if decision.verdict is not Verdict.ACCEPT:
        return TrafficRecommendation(action="halt")
    if index == len(schedule.phases) - 1:
        return TrafficRecommendation(action="promote_to_baseline")
    return TrafficRecommendation(action="ramp_up", next_share=schedule.phases[index + 1])


def _resolve_thetas(
    qualified: ExperimentDataset, totals: MicroTotals, config: EvaluationConfig
) -> tuple[tuple[float, float, float], AaRecord | None]:
    """Each baseline's threshold, in ``BaselineMethod`` order, and how A/A
    calibration derived them (None for explicit thresholds)."""
    if isinstance(config.aa, ExplicitThetas):
        return (config.aa.micro_theta, config.aa.macro_theta, config.aa.macro_theta), None
    record = aa_calibrate(qualified, totals, config.aa)
    return tuple(map(record.theta, BaselineMethod)), record


def _observed_share(totals: MicroTotals) -> float | None:
    """The arm-B share of the spend, or None where ``observed_share`` finds none."""
    try:
        return observed_share(totals)
    except InsufficientDataError:
        return None


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


def evaluate(
    dataset: ExperimentDataset, config: EvaluationConfig = EvaluationConfig()
) -> EvaluationReport:
    """Run the full decision sequence on one dataset.

    Raises NoQualifiedCampaignsError when qualification or effect-size
    screening leaves nothing to analyze; there is no decision in that case.
    """
    qreport = qualify(dataset, config.qualification)
    qualified = qreport.qualified
    if not qualified.campaigns:
        if dataset.n == 0:
            raise NoQualifiedCampaignsError("dataset contains no campaigns")
        raise NoQualifiedCampaignsError(
            f"all {dataset.n} campaign(s) were disqualified during preprocessing"
        )

    # perfbench --trace 1 wraps qualify, aa_calibrate, collect_effects,
    # resolve_subgroups and subgroup_analysis by their names in this module
    totals = campaign_micro_totals(qualified)
    groups = resolve_subgroups(totals, config.subgroups)  # a bad label map fails here
    notes: list[str] = []  # the report's warnings, in stage order
    thetas, aa = _resolve_thetas(qualified, totals, config)
    skipped = aa_skipped(qualified) if aa is not None else []
    if skipped:
        notes.append(
            f"excluded {len(skipped)} campaign(s) with fewer than 2 control parts "
            f"from A/A calibration: {', '.join(skipped[:5])}"
            + ("..." if len(skipped) > 5 else "")
        )
    stats = baseline_statistics(totals, *zip(*totals.values()))
    baselines = tuple(
        BaselineResult(method, statistic, theta, threshold_decision(statistic, theta))
        for method, statistic, theta in zip(BaselineMethod, stats, thetas)
    )

    effects, exclusions = collect_effects(qualified)
    if not effects:
        raise NoQualifiedCampaignsError(
            "no qualified campaign is eligible for effect-size analysis "
            f"({len(exclusions)} excluded)"
        )
    pairs = {e.campaign_id: (e.d, e.v) for e in effects}  # the chain's (d, v) pairs
    summary = summarize_effects(tuple(pairs.values()), config.confidence_level)
    decision = decide(summary.significance)

    subgroup = None
    skip = config.skip_subgroup_on_strong_reject and decision.verdict is Verdict.REJECT_HARMFUL
    if not skip:
        tiers = len(config.subgroups.spend_fractions)
        if config.subgroups.labels is None and len(groups) < tiers:
            notes.append(f"only {len(groups)} of {tiers} spend groups are non-empty")
        subgroup = subgroup_analysis(
            pairs, summary.heterogeneity.tau2, groups, config.confidence_level
        )
        analysed = {s.group_id for s in subgroup.summaries}
        notes.extend(f"subgroup {g.group_id!r} has no analyzable campaigns; dropped"
                     for g in groups if g.group_id not in analysed)

    recommendation = recommend_traffic(decision, config.schedule)
    kept = tuple(KeptCampaign(c.campaign_id, c.m_a, c.m_b) for c in qualified.campaigns)
    return EvaluationReport(
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
            spend_share_observed=_observed_share(totals),
            spend_share_configured=(
                config.aa.treatment_share if isinstance(config.aa, AaSettings) else None),
            warnings=tuple(notes),
        ),
    )
