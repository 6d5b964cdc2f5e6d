"""The types a saved report is made of: its enums and frozen dataclasses.

``reportio`` encodes and decodes a report from these annotations alone, so a report
field is declared once, here. The computing modules also hold each type by name. This
module imports nothing from the package, so a report decodes without the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Arm(Enum):
    """Experiment arm: control runs the incumbent model, treatment the candidate."""

    CONTROL = "A"
    TREATMENT = "B"


class BaselineMethod(str, Enum):
    MICRO = "micro"
    MACRO = "macro"
    MACRO_MEDIAN = "macro_median"


class BaselineDecision(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"


class Verdict(str, Enum):
    ACCEPT = "accept"
    REJECT_INEFFECTIVE = "reject_ineffective"
    REJECT_HARMFUL = "reject_harmful"


@dataclass(frozen=True)
class ExcludedPart:
    campaign_id: str
    arm: Arm
    part_id: int
    reason: str


@dataclass(frozen=True)
class DisqualifiedCampaign:
    campaign_id: str
    reason: str


@dataclass(frozen=True)
class KeptCampaign:
    campaign_id: str
    m_a: int
    m_b: int


@dataclass(frozen=True)
class QualifiedParts:
    """The qualified set as a report keeps it: part counts and ``parts_sha256``."""

    campaigns: tuple[KeptCampaign, ...]
    sha256: str

    @property
    def n(self) -> int:
        return len(self.campaigns)


@dataclass(frozen=True)
class QualificationRecord:
    """A ``QualificationReport`` as ``evaluate`` records it: parts as counts and a digest."""

    qualified: QualifiedParts
    excluded_parts: tuple[ExcludedPart, ...]
    disqualified_campaigns: tuple[DisqualifiedCampaign, ...]
    disqualified_fraction: float


@dataclass(frozen=True)
class BaselineResult:
    method: BaselineMethod
    statistic: float
    threshold_theta: float
    decision: BaselineDecision


@dataclass(frozen=True)
class EffectSize:
    """Standardized, small-sample-corrected treatment effect for one campaign.

    ``d = correction * delta`` and ``w = 1/v``, with ``delta`` the raw
    standardized mean difference and ``v`` its approximate sampling variance.
    """

    campaign_id: str
    delta: float
    pooled_sd: float
    df: int
    correction: float
    d: float
    v: float
    w: float


@dataclass(frozen=True)
class EffectExclusion:
    campaign_id: str
    reason: str


@dataclass(frozen=True)
class FixedEffectSummary:
    """Inverse-variance weighted mean effect and its variance."""

    mu: float
    nu: float
    n: int


@dataclass(frozen=True)
class HeterogeneityStats:
    """Cochran's Q homogeneity test and the method-of-moments between-study variance."""

    q: float
    df: int
    p_q: float
    lambda_: float
    tau2: float


@dataclass(frozen=True)
class RandomEffectSummary:
    """Summary effect under the random-effects model, weights 1/(v + tau2)."""

    per_study_w_star: tuple[float, ...]
    mu_star: float
    nu_star: float


@dataclass(frozen=True)
class SignificanceResult:
    """Z test of the summary effect plus its confidence interval."""

    z: float
    p_z: float
    confidence_level: float
    ci_low: float
    ci_high: float
    significant: bool


@dataclass(frozen=True)
class SubgroupSummary:
    """Random-model summary of one group: its mean effect, CI, and homogeneity."""

    group_id: str
    members: tuple[str, ...]
    mu_star_k: float
    ci_low: float
    ci_high: float
    p_z_k: float
    q_star_k: float
    p_q_star_k: float


@dataclass(frozen=True)
class SubgroupReport:
    summaries: tuple[SubgroupSummary, ...]
    q_star_total: float
    q_within: float
    q_between: float
    df_between: int
    p_between: float


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
class EvaluationReport:
    qualification: QualificationRecord
    baselines: tuple[BaselineResult, ...]
    effects: tuple[EffectSize, ...]
    effect_exclusions: tuple[EffectExclusion, ...]
    fixed: FixedEffectSummary
    heterogeneity: HeterogeneityStats
    homogeneity_level: float  # the level the renderer marks p_Q and p_between against
    random: RandomEffectSummary
    significance: SignificanceResult
    subgroup: SubgroupReport | None
    decision: Decision
    recommendation: TrafficRecommendation
