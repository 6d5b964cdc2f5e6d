"""The types a saved report is made of: its enums and named tuples.

``reportio`` encodes and decodes a report from these annotations alone, reading each
type's named-tuple fields, so a report field is declared once, here. It reads them from
``__annotations__``, so this module must not postpone them (no ``from __future__
import annotations``): each class holds its field types evaluated. A report stores
each value once: a value that follows from stored fields (an effect's ``d``,
``correction`` and weight ``w``, its random-model weight ``w_star``, the subgroup split
``q_within``, ``q_between`` and ``df_between``, a decision's ``requires_approval``) is a
property or method computed on access, never a field, so it is neither written nor read.
The computing modules use the same expressions, so a decoded report gives the floats
``evaluate`` computed, bit for bit. The computing modules also hold each type by name.
This module imports nothing from the package, so a report decodes without the analysis.

A record compares by value, as a tuple does, so it also equals a record of another
type with the same values; ``_replace`` gives a changed copy.
"""

from enum import Enum
from math import fsum
from typing import NamedTuple


def checked(cls):
    """Class decorator: the named tuple ``cls`` runs ``_check`` however it is built, by
    ``__new__``, ``_make`` or ``_replace``; ``_check`` raises on a bad value or returns a
    copy to keep instead. A named tuple's body may define neither ``__new__`` nor ``_make``."""
    new, make = cls.__new__, cls._make.__func__
    cls.__new__ = staticmethod(lambda tp, *a, **k: (r := new(tp, *a, **k))._check() or r)
    cls._make = classmethod(lambda tp, iterable: (r := make(tp, iterable))._check() or r)
    return cls


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


class PartExclusions(NamedTuple):
    """How many of one campaign arm's parts qualification dropped, by reason."""

    campaign_id: str
    arm: Arm
    low_impressions: int
    zero_spend: int
    campaign_disqualified: int  # parts that qualified in a campaign that did not

    @property
    def n(self) -> int:
        return self.low_impressions + self.zero_spend + self.campaign_disqualified


class DisqualifiedCampaign(NamedTuple):
    """A campaign that kept too few parts in an arm, and why."""

    campaign_id: str
    reason: str


class KeptCampaign(NamedTuple):
    """A qualified campaign and the parts it kept in each arm."""

    campaign_id: str
    m_a: int
    m_b: int


class QualifiedParts(NamedTuple):
    """The qualified set as a report keeps it: part counts and ``parts_sha256``."""

    campaigns: tuple[KeptCampaign, ...]
    sha256: str

    @property
    def n(self) -> int:
        return len(self.campaigns)


class QualificationRecord(NamedTuple):
    """A ``QualificationReport`` as ``evaluate`` records it: parts as counts and a digest."""

    qualified: QualifiedParts
    part_exclusions: tuple[PartExclusions, ...]  # one per campaign arm that dropped a part
    disqualified_campaigns: tuple[DisqualifiedCampaign, ...]
    disqualified_fraction: float


class BaselineResult(NamedTuple):
    """One baseline's delta, its threshold, and whether the delta clears it."""

    method: BaselineMethod
    statistic: float
    threshold_theta: float
    decision: BaselineDecision


def small_sample_correction(df: int) -> float:
    """The factor ``1 - 3/(4*df - 1)`` that debiases a standardized difference."""
    return 1.0 - 3.0 / (4.0 * df - 1.0)


class EffectSize(NamedTuple):
    """Standardized, small-sample-corrected treatment effect for one campaign.

    ``d = correction * delta`` and ``w = 1/v``, with ``delta`` the raw
    standardized mean difference, ``df = m_a + m_b - 2`` and ``v`` the
    approximate sampling variance of ``d``.
    """

    campaign_id: str
    delta: float
    pooled_sd: float
    df: int
    v: float

    @property
    def correction(self) -> float:
        return small_sample_correction(self.df)

    @property
    def d(self) -> float:
        """The corrected effect, ``meta``'s estimate for this campaign."""
        return small_sample_correction(self.df) * self.delta

    @property
    def w(self) -> float:
        """Fixed-model weight."""
        return 1.0 / self.v

    def w_star(self, tau2: float) -> float:
        """Random-model weight at between-study variance ``tau2``; ``w_star(0.0) == w``."""
        return 1.0 / (self.v + tau2)


class EffectExclusion(NamedTuple):
    """A qualified campaign that has no effect size, and why."""

    campaign_id: str
    reason: str


class FixedEffectSummary(NamedTuple):
    """Inverse-variance weighted mean effect and its variance."""

    mu: float
    nu: float
    n: int


class HeterogeneityStats(NamedTuple):
    """Cochran's Q homogeneity test and the method-of-moments between-study variance."""

    q: float
    df: int
    p_q: float
    lambda_: float
    tau2: float


class RandomEffectSummary(NamedTuple):
    """Summary effect under the random-effects model, weights ``EffectSize.w_star(tau2)``."""

    mu_star: float
    nu_star: float


class SignificanceResult(NamedTuple):
    """Z test of the summary effect plus its confidence interval. The verdict reads
    the interval alone; ``p_z`` is data."""

    z: float
    p_z: float
    confidence_level: float
    ci_low: float
    ci_high: float


class SubgroupSummary(NamedTuple):
    """Random-model summary of one group: its mean effect, CI, and homogeneity."""

    group_id: str
    members: tuple[str, ...]
    mu_star_k: float
    ci_low: float
    ci_high: float
    p_z_k: float
    q_star_k: float
    p_q_star_k: float


class SubgroupReport(NamedTuple):
    """The subgroup summaries and the within/between split of the grand-mean Q*."""

    summaries: tuple[SubgroupSummary, ...]
    q_star_total: float
    p_between: float  # chi-square tail of max(q_between, 0) on df_between, 1 if that is 0

    @property
    def q_within(self) -> float:
        """The groups' own Q*s; the rest of ``q_star_total`` is ``q_between``."""
        return fsum(s.q_star_k for s in self.summaries)

    @property
    def q_between(self) -> float:
        return self.q_star_total - self.q_within

    @property
    def df_between(self) -> int:
        return len(self.summaries) - 1


class Decision(NamedTuple):
    """The verdict; an accepted model needs a manager's approval to ramp."""

    verdict: Verdict

    @property
    def requires_approval(self) -> bool:
        return self.verdict is Verdict.ACCEPT


class TrafficRecommendation(NamedTuple):
    """The next ramp move; ``next_share`` is set for ``ramp_up`` only."""

    action: str  # "ramp_up" | "halt" | "promote_to_baseline"
    next_share: float | None = None


class ConfigRecord(NamedTuple):
    """The effective evaluation config as ``key = value`` config-file lines, one
    tuple per source: a config ``file``, a command-line ``flag``, the ``data``
    (an A/A share observed in it), the ``default``, or the ``caller`` (a program
    that set the value on the config it passed to ``evaluate``). A key is listed
    when the config holds a value for it: the ``aa_*`` keys or the explicit
    thresholds, and the label map only when set. Joined, the lines are a config
    file that reproduces the decision."""

    caller: tuple[str, ...]
    data: tuple[str, ...]
    default: tuple[str, ...]
    file: tuple[str, ...]
    flag: tuple[str, ...]


class AaRecord(NamedTuple):
    """How the A/A thresholds were calibrated: the split seed, the share used,
    and each baseline's statistic per repeat, whose mean is its threshold."""

    split_seed: int
    treatment_share: float  # the configured share, else the observed one
    micro: tuple[float, ...]  # one field per BaselineMethod value
    macro: tuple[float, ...]
    macro_median: tuple[float, ...]

    @property
    def repeats_k(self) -> int:
        return len(self.micro)

    def theta(self, method: BaselineMethod) -> float:
        """The threshold of ``method``: its statistic's mean over the repeats."""
        return fsum(getattr(self, method.value)) / self.repeats_k


class Audit(NamedTuple):
    """What an auditor needs to check a decision later.

    The spend shares are arm B's share of the qualified spend as observed
    (None when it cannot be computed: no spend in one arm) and as configured
    for A/A (None when unset). They are data only and never drive the verdict.
    """

    version: str  # roimeta.__version__ of the program that decided
    config: ConfigRecord
    aa: AaRecord | None  # None with explicit thresholds
    spend_share_observed: float | None
    spend_share_configured: float | None
    warnings: tuple[str, ...]  # conditions of the stages that ran, in stage order


class EvaluationReport(NamedTuple):
    """Everything ``evaluate`` decided, as a saved report holds it."""

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
    audit: Audit
