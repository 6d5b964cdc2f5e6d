"""Subgroup construction and the within/between heterogeneity decomposition.

Campaigns are partitioned (by cumulative-spend tiers or explicit labels) and
Cochran's Q is recomputed with the random-model weights: per-group Q around
the group mean, their sum (within-group), and the remainder of the grand-mean
Q (between-group, chi-square with K-1 degrees of freedom). A significant
between-group component means group membership explains part of the effect
variation. Every group shares the single global between-study variance, and
the grand and group means, CIs and Z tests are the verdict's own random model
(``random_effect_summary``, ``z_significance``). Spend tiers read micro totals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import fsum

from .baselines import MicroTotals
from .campaigns import from_micros
from .errors import ConfigError, InsufficientDataError, SchemaError
from .meta import EffectSize, random_effect_summary, weighted_q, z_significance
from .statfuncs import chi_square_sf

SUBGROUP_KINDS = ("by_spend_cumulative", "by_label")
_THIRDS = (1 / 3, 1 / 3, 1 / 3)


def _check_fractions(fractions: tuple[float, ...]) -> None:
    if not fractions or any(f <= 0 for f in fractions):
        raise ConfigError("spend fractions must be positive")
    if abs(fsum(fractions) - 1.0) > 1e-12:
        raise ConfigError(f"spend fractions must sum to 1, got {fsum(fractions)!r}")


@dataclass(frozen=True)
class SubgroupSpec:
    """How to partition campaigns: cumulative spend tiers or an explicit label map."""

    kind: str = "by_spend_cumulative"
    spend_fractions: tuple[float, ...] = _THIRDS
    labels: dict[str, str] | None = None

    def __post_init__(self):
        if self.kind not in SUBGROUP_KINDS:
            raise ConfigError(f"kind must be one of {SUBGROUP_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "spend_fractions", tuple(self.spend_fractions))
        if self.kind == "by_spend_cumulative":
            _check_fractions(self.spend_fractions)
        if self.kind == "by_label" and not self.labels:
            raise ConfigError("by_label partitioning requires a labels map")


@dataclass(frozen=True)
class GroupAssignment:
    group_id: str
    members: tuple[str, ...]


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


def partition_by_spend(
    totals: MicroTotals, fractions: tuple[float, ...] = _THIRDS
) -> tuple[GroupAssignment, ...]:
    """Partition campaigns into cumulative-spend tiers, biggest spenders first.

    Campaigns are sorted by both-arm spend (from their micro ``totals``)
    descending; walking the sorted list,
    a campaign joins the current group while the cumulative spend before it is
    strictly below the group's cumulative cap. Groups left empty (fewer
    campaigns than groups, or a dominant campaign spanning several caps) are
    dropped with a warning.
    """
    fractions = tuple(fractions)
    _check_fractions(fractions)
    if not totals:
        raise InsufficientDataError("no campaigns to partition")
    spends = sorted(
        ((from_micros(t[0] + t[2]), campaign_id) for campaign_id, t in totals.items()),
        key=lambda item: (-item[0], item[1]),
    )
    total = fsum(s for s, _ in spends)
    caps = []
    cumulative_fraction = 0.0
    for fraction in fractions:
        cumulative_fraction += fraction
        caps.append(cumulative_fraction * total)
    members: list[list[str]] = [[] for _ in fractions]
    group = 0
    cumulative = 0.0
    for spend, campaign_id in spends:
        while group < len(fractions) - 1 and cumulative >= caps[group]:
            group += 1
        members[group].append(campaign_id)
        cumulative += spend
    assignments = tuple(
        GroupAssignment(f"group_{i + 1}", tuple(ids))
        for i, ids in enumerate(members)
        if ids
    )
    if len(assignments) < len(fractions):
        warnings.warn(
            f"only {len(assignments)} of {len(fractions)} spend groups are non-empty"
        )
    return assignments


def partition_by_label(
    totals: MicroTotals, labels: dict[str, str]
) -> tuple[GroupAssignment, ...]:
    """Group the campaigns of ``totals`` by an explicit campaign-to-group label map."""
    members: dict[str, list[str]] = {}
    for campaign_id in totals:
        label = labels.get(campaign_id)
        if label is None:
            raise SchemaError(f"campaign {campaign_id!r} has no subgroup label")
        members.setdefault(label, []).append(campaign_id)
    return tuple(
        GroupAssignment(group_id, tuple(ids)) for group_id, ids in sorted(members.items())
    )


def resolve_subgroups(totals: MicroTotals, spec: SubgroupSpec) -> tuple[GroupAssignment, ...]:
    if spec.kind == "by_label":
        return partition_by_label(totals, spec.labels or {})
    return partition_by_spend(totals, spec.spend_fractions)


def subgroup_analysis(
    effects: list[EffectSize] | tuple[EffectSize, ...],
    tau2: float,
    groups: tuple[GroupAssignment, ...] | list[GroupAssignment],
    confidence_level: float = 0.95,
) -> SubgroupReport:
    """Decompose grand-mean heterogeneity into within- and between-group parts.

    All decomposition statistics share the random-model weights 1/(v + tau2)
    with the global ``tau2``, which makes the identity exact: the grand-mean Q
    equals the sum of per-group Qs plus the between-group component. Groups
    left empty after matching against ``effects`` are dropped.
    """
    if not effects:
        raise InsufficientDataError("no effects to analyze")
    if tau2 < 0:
        raise ValueError(f"tau2 must be >= 0, got {tau2!r}")
    if not 0.0 < confidence_level < 1.0:
        raise ConfigError(f"confidence_level must be in (0, 1), got {confidence_level!r}")
    by_id: dict[str, EffectSize] = {}
    for effect in effects:
        if effect.campaign_id in by_id:
            raise SchemaError(f"duplicate effect for campaign {effect.campaign_id!r}")
        by_id[effect.campaign_id] = effect
    assigned: set[str] = set()
    for group in groups:
        for campaign_id in group.members:
            if campaign_id in assigned:
                raise SchemaError(
                    f"campaign {campaign_id!r} appears in more than one subgroup"
                )
            assigned.add(campaign_id)
    missing = sorted(set(by_id) - assigned)
    if missing:
        raise SchemaError(f"campaigns not assigned to any subgroup: {', '.join(missing)}")

    grand = random_effect_summary(effects, tau2)
    q_total = weighted_q(grand.per_study_w_star, effects, grand.mu_star)

    summaries: list[SubgroupSummary] = []
    for group in groups:
        present = tuple(cid for cid in group.members if cid in by_id)
        if not present:
            warnings.warn(f"subgroup {group.group_id!r} has no analyzable campaigns; dropped")
            continue
        members = [by_id[cid] for cid in present]
        model = random_effect_summary(members, tau2)
        test = z_significance(model.mu_star, model.nu_star, confidence_level)
        q_k = weighted_q(model.per_study_w_star, members, model.mu_star)
        # one member: q_k may be a rounding residue, not cochran_q's exact 0
        p_q_k = chi_square_sf(q_k, len(present) - 1) if len(present) > 1 else 1.0
        summaries.append(SubgroupSummary(
            group_id=group.group_id,
            members=present,
            mu_star_k=model.mu_star,
            ci_low=test.ci_low,
            ci_high=test.ci_high,
            p_z_k=test.p_z,
            q_star_k=q_k,
            p_q_star_k=p_q_k,
        ))
    if not summaries:
        raise InsufficientDataError("no subgroup has analyzable campaigns")
    q_within = fsum(s.q_star_k for s in summaries)
    q_between = q_total - q_within
    df_between = len(summaries) - 1
    p_between = (
        chi_square_sf(max(q_between, 0.0), df_between) if df_between >= 1 else 1.0
    )
    return SubgroupReport(
        summaries=tuple(summaries),
        q_star_total=q_total,
        q_within=q_within,
        q_between=q_between,
        df_between=df_between,
        p_between=p_between,
    )
