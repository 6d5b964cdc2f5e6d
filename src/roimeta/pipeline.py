"""End-to-end evaluation: qualify, baseline checks, meta-analysis, decision, ramp.

``evaluate`` runs the stages in a fixed order: qualification, micro/macro
baselines against A/A-calibrated (or explicit) thresholds, per-campaign effect
sizes, the fixed-then-random effects combination with its Z/CI significance
test (``meta.summarize_effects``), subgroup diagnostics (skipped on a strong
rejection when configured), the verdict, and a traffic-ramp recommendation.
The verdict is a pure function of the significance result: accept needs a
significant effect with a confidence interval entirely above zero; a
significant interval entirely below zero is a harmful (strong) rejection;
anything else rejects for ineffectiveness.
Baseline verdicts are reported alongside but never drive the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .baselines import (
    AaSettings,
    BaselineMethod,
    BaselineResult,
    MicroTotals,
    aa_calibrate,
    campaign_micro_totals,
    macro_delta,
    micro_delta,
    threshold_decision,
)
from .campaigns import ExperimentDataset
from .errors import (
    ConfigError,
    DegenerateEffectError,
    InsufficientDataError,
    NoQualifiedCampaignsError,
)
from .meta import (
    EffectSize,
    FixedEffectSummary,
    HeterogeneityStats,
    RandomEffectSummary,
    SignificanceResult,
    arm_stats,
    check_variance_formula,
    effect_size,
    summarize_effects,
)
from .preprocess import QualificationConfig, QualificationReport, qualify
from .subgroups import SubgroupReport, SubgroupSpec, resolve_subgroups, subgroup_analysis


class Verdict(str, Enum):
    ACCEPT = "accept"
    REJECT_INEFFECTIVE = "reject_ineffective"
    REJECT_HARMFUL = "reject_harmful"


@dataclass(frozen=True)
class ExplicitThetas:
    """Pre-computed baseline thresholds, bypassing A/A calibration."""

    micro_theta: float
    macro_theta: float


@dataclass(frozen=True)
class TrafficSchedule:
    """Ramp phases for the treatment share, strictly increasing in (0, 0.5],
    and the current share, which must be one of them."""

    phases: tuple[float, ...] = (0.01, 0.10, 0.20, 0.50)
    current_share: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(self.phases))
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


@dataclass(frozen=True)
class EvaluationConfig:
    confidence_level: float = 0.95
    homogeneity_level: float = 0.10
    qualification: QualificationConfig = QualificationConfig()
    aa: AaSettings | ExplicitThetas = AaSettings()
    subgroups: SubgroupSpec = SubgroupSpec()
    variance_formula: str = "noncentral_t"
    skip_subgroup_on_strong_reject: bool = True
    schedule: TrafficSchedule = TrafficSchedule()

    def __post_init__(self):
        for name in ("confidence_level", "homogeneity_level"):
            level = getattr(self, name)
            if not 0.0 < level < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {level!r}")
        check_variance_formula(self.variance_formula)


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    basis: str
    requires_approval: bool


@dataclass(frozen=True)
class TrafficRecommendation:
    action: str  # "ramp_up" | "halt" | "promote_to_baseline"
    next_share: float | None = None


@dataclass(frozen=True)
class EffectExclusion:
    campaign_id: str
    reason: str


@dataclass(frozen=True)
class EvaluationReport:
    qualification: QualificationReport
    baselines: tuple[BaselineResult, ...]
    effects: tuple[EffectSize, ...]
    effect_exclusions: tuple[EffectExclusion, ...]
    fixed: FixedEffectSummary
    heterogeneity: HeterogeneityStats
    random: RandomEffectSummary
    significance: SignificanceResult
    subgroup: SubgroupReport | None
    decision: Decision
    recommendation: TrafficRecommendation


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
) -> dict[BaselineMethod, float]:
    if isinstance(config.aa, ExplicitThetas):
        return {
            BaselineMethod.MICRO: config.aa.micro_theta,
            BaselineMethod.MACRO: config.aa.macro_theta,
            BaselineMethod.MACRO_MEDIAN: config.aa.macro_theta,
        }
    return {method: c.theta for method, c in aa_calibrate(qualified, totals, config.aa).items()}


def collect_effects(
    dataset: ExperimentDataset, variance_formula: str = "noncentral_t"
) -> tuple[tuple[EffectSize, ...], tuple[EffectExclusion, ...]]:
    """Effect size per campaign; campaigns that cannot produce one are reported."""
    effects: list[EffectSize] = []
    exclusions: list[EffectExclusion] = []
    for campaign in dataset.campaigns:
        try:
            stats_a = arm_stats(campaign.parts_a)
            stats_b = arm_stats(campaign.parts_b)
            effects.append(effect_size(
                stats_a, stats_b,
                campaign_id=campaign.campaign_id,
                variance_formula=variance_formula,
            ))
        except (InsufficientDataError, DegenerateEffectError) as exc:
            exclusions.append(EffectExclusion(campaign.campaign_id, str(exc)))
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

    # perfbench --trace 1 wraps qualify, aa_calibrate, the deltas, collect_effects,
    # resolve_subgroups and subgroup_analysis by their names in this module
    totals = campaign_micro_totals(qualified)
    thetas = _resolve_thetas(qualified, totals, config)
    deltas = {
        BaselineMethod.MICRO: micro_delta(totals),
        BaselineMethod.MACRO: macro_delta(totals, "mean"),
        BaselineMethod.MACRO_MEDIAN: macro_delta(totals, "median"),
    }
    baselines = tuple(
        BaselineResult(method, statistic, thetas[method],
                       threshold_decision(statistic, thetas[method]))
        for method, statistic in deltas.items()
    )

    effects, exclusions = collect_effects(qualified, config.variance_formula)
    if not effects:
        raise NoQualifiedCampaignsError(
            "no qualified campaign is eligible for effect-size analysis "
            f"({len(exclusions)} excluded)"
        )
    summary = summarize_effects(effects, config.confidence_level)
    decision = decide(summary.significance)

    subgroup = None
    skip = config.skip_subgroup_on_strong_reject and decision.verdict is Verdict.REJECT_HARMFUL
    if not skip:
        groups = resolve_subgroups(totals, config.subgroups)
        subgroup = subgroup_analysis(
            effects, summary.heterogeneity.tau2, groups, config.confidence_level
        )

    recommendation = recommend_traffic(decision, config.schedule)
    return EvaluationReport(
        qualification=qreport,
        baselines=baselines,
        effects=effects,
        effect_exclusions=exclusions,
        fixed=summary.fixed,
        heterogeneity=summary.heterogeneity,
        random=summary.random,
        significance=summary.significance,
        subgroup=subgroup,
        decision=decision,
        recommendation=recommendation,
    )
