"""Subgroup construction and the within/between heterogeneity decomposition.

A ``SubgroupSpec`` names one partition of the campaigns: by an explicit label
map when it sets ``labels``, otherwise by cumulative-spend tiers, which read
micro totals. ``resolve_subgroups`` is its one entry. Cochran's Q is then
recomputed with the random-model weights: per-group Q around the group mean,
their sum (within-group), and the remainder of the grand-mean Q (between-group,
chi-square with K-1 degrees of freedom). A significant between-group component
means group membership explains part of the effect variation. Every group
shares the single global between-study variance, and the grand and group means,
CIs and Z tests are the verdict's own random model (``random_effect_summary``,
``z_significance``).
"""

from __future__ import annotations

from math import fsum
from typing import NamedTuple

from .baselines import MicroTotals
from .campaigns import from_micros
from .errors import ConfigError, InsufficientDataError, SchemaError
from .meta import random_effect_summary, weighted_q, z_significance
from .records import SubgroupReport, SubgroupSummary, checked
from .statfuncs import chi_square_sf


@checked
class SubgroupSpec(NamedTuple):
    """How to partition campaigns: by ``labels``, a campaign-to-group map, when
    it is set, else by cumulative-spend tiers of ``spend_fractions``. The
    fractions are checked either way."""

    spend_fractions: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)
    labels: dict[str, str] | None = None

    def _check(self):
        fractions = self.spend_fractions
        if type(fractions) is not tuple:
            return self._replace(spend_fractions=tuple(fractions))
        if not fractions or any(not f > 0 for f in fractions):
            raise ConfigError("spend fractions must be positive")
        if abs(fsum(fractions) - 1.0) > 1e-12:
            raise ConfigError(f"spend fractions must sum to 1, got {fsum(fractions)!r}")
        if self.labels is not None and not self.labels:
            raise ConfigError("a labels map must label at least one campaign")
        # The audit line replays the map from a config file, where '#' starts a
        # comment, ',' and the first ':' split the pairs and each part is stripped.
        for campaign_id, group in (self.labels or {}).items():
            label = f"{campaign_id}:{group}"
            if ("#" in label or "," in label or ":" in campaign_id
                    or campaign_id != campaign_id.strip() or group != group.strip()):
                raise ConfigError(
                    "subgroup labels cannot hold '#' or ',', a ':' in a campaign id, or "
                    f"spaces around a campaign or group, got {label!r}")


class GroupAssignment(NamedTuple):
    group_id: str
    members: tuple[str, ...]


def resolve_subgroups(totals: MicroTotals, spec: SubgroupSpec) -> tuple[GroupAssignment, ...]:
    """The groups ``spec`` makes of the campaigns of ``totals``: by label when
    it sets ``labels``, else by spend tier."""
    if spec.labels is not None:
        return _partition_by_label(totals, spec.labels)
    return _partition_by_spend(totals, spec.spend_fractions)


def _partition_by_spend(
    totals: MicroTotals, fractions: tuple[float, ...]
) -> tuple[GroupAssignment, ...]:
    """Partition campaigns into cumulative-spend tiers, biggest spenders first.

    Campaigns are sorted by both-arm spend (from their micro ``totals``)
    descending; walking the sorted list,
    a campaign joins the current group while the cumulative spend before it is
    strictly below the group's cumulative cap. Groups left empty (fewer
    campaigns than groups, or a dominant campaign spanning several caps) are
    dropped; ``evaluate`` records a warning when it drops one.
    """
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
    return tuple(
        GroupAssignment(f"group_{i + 1}", tuple(ids))
        for i, ids in enumerate(members)
        if ids
    )


def _partition_by_label(
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


def subgroup_analysis(
    pairs: dict[str, tuple[float, float]],
    tau2: float,
    groups: tuple[GroupAssignment, ...] | list[GroupAssignment],
    confidence_level: float,
) -> SubgroupReport:
    """Decompose grand-mean heterogeneity into within- and between-group parts,
    from each campaign's (estimate, variance) pair in ``pairs``.

    All decomposition statistics share the random-model weights 1/(v + tau2)
    with the global ``tau2``, which makes the identity exact: the grand-mean Q
    equals the sum of per-group Qs plus the between-group component. Groups
    left empty after matching against ``pairs`` are dropped; ``evaluate``
    records a warning when it drops one. A negative ``tau2`` raises
    ``random_effect_summary``'s ValueError.
    """
    if not pairs:
        raise InsufficientDataError("no effects to analyze")
    if not 0.0 < confidence_level < 1.0:
        raise ConfigError(f"confidence_level must be in (0, 1), got {confidence_level!r}")
    assigned: set[str] = set()
    for group in groups:
        for campaign_id in group.members:
            if campaign_id in assigned:
                raise SchemaError(
                    f"campaign {campaign_id!r} appears in more than one subgroup"
                )
            assigned.add(campaign_id)
    missing = sorted(set(pairs) - assigned)
    if missing:
        raise SchemaError(f"campaigns not assigned to any subgroup: {', '.join(missing)}")

    grand = random_effect_summary(tuple(pairs.values()), tau2)
    q_total = weighted_q(pairs.values(), tau2, grand.mu_star)

    summaries: list[SubgroupSummary] = []
    for group in groups:
        present = tuple(cid for cid in group.members if cid in pairs)
        if not present:
            continue
        members = [pairs[cid] for cid in present]
        model = random_effect_summary(members, tau2)
        test = z_significance(model.mu_star, model.nu_star, confidence_level)
        q_k = weighted_q(members, tau2, model.mu_star)
        # one member: q_k may be a rounding residue, not summarize_effects' exact 0
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
    report = SubgroupReport(tuple(summaries), q_total, p_between=1.0)
    if report.df_between < 1:
        return report
    return report._replace(p_between=chi_square_sf(max(report.q_between, 0.0), report.df_between))
