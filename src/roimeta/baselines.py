"""Micro- and macro-averaged ROI deltas and their A/A threshold calibration.

Micro pools value and spend over all campaigns before dividing, which equals
the spend-weighted average of per-campaign ROIs and so favors big spenders.
Macro averages (or takes the median of) per-campaign ROI differences, which
treats campaigns equally but is outlier sensitive. Both accept the treatment
only when the delta clears a threshold estimated from A/A splits of control
traffic: the noise floor of the whole system. ``baseline_statistics`` is the
one copy of the three statistics: ``evaluate`` calls it on the experiment's
arms, and ``aa_calibrate`` on each repeat's pseudo-arms.

``aa_calibrate`` is the one A/A entry point. It resolves the pseudo-treatment
share itself: the configured ``AaSettings.treatment_share`` (a ``config``
type), else the ``observed_share`` of arm-B spend in the campaigns' micro
totals, which is None, and calibration refuses, unless both arms have spend.
"""

from __future__ import annotations

from itertools import repeat
from math import fsum
from operator import sub, truediv

from .campaigns import MICROS_PER_UNIT, Arm, ExperimentDataset, roi_of_micros
from .config import AaSettings
from .errors import InsufficientDataError
from .randomness import HashStream
from .records import BaselineDecision, BaselineMethod, BaselineResult  # noqa: F401  re-exported
from .records import AaRecord

MicroTotals = dict[str, tuple[int, int, int, int]]  # see campaign_micro_totals


def campaign_micro_totals(dataset: ExperimentDataset) -> MicroTotals:
    """Exact (spend_a, value_a, spend_b, value_b) micro-units of each campaign, by
    id in dataset order: the columns ``evaluate`` passes to ``baseline_statistics``."""
    return {c.campaign_id: (sum(c.a.spend_micros), sum(c.a.value_micros),
                            sum(c.b.spend_micros), sum(c.b.value_micros))
            for c in dataset.campaigns}


def observed_share(totals: MicroTotals) -> float | None:
    """Arm-B spend over all spend, summed exactly from the micro ``totals``, so
    the same parts give the same share however they were read; None unless
    both arms have spend."""
    spend_b = sum(t[2] for t in totals.values())
    spend = spend_b + sum(t[0] for t in totals.values())
    return spend_b / spend if 0 < spend_b < spend else None


def _median(values: list[float]) -> float:
    """``statistics.median``'s value, by its own steps, without loading ``statistics``."""
    values = sorted(values)
    half = len(values) // 2
    if len(values) % 2:
        return values[half]
    return (values[half - 1] + values[half]) / 2


def _roi_diffs(ids, spend_a, value_a, spend_b, value_b) -> list[float]:
    """Per-campaign treatment-minus-control ``roi_of_micros`` differences, by C-level
    maps over the columns; at a zero spend, its error for the first such id."""
    unit = repeat(MICROS_PER_UNIT)
    try:
        return list(map(sub, map(truediv, map(truediv, value_b, unit), map(truediv, spend_b, unit)),
                        map(truediv, map(truediv, value_a, unit), map(truediv, spend_a, unit))))
    except ZeroDivisionError:
        return [roi_of_micros(s_b, v_b, Arm.TREATMENT, campaign_id)
                - roi_of_micros(s_a, v_a, Arm.CONTROL, campaign_id)
                for campaign_id, s_a, v_a, s_b, v_b in zip(ids, spend_a, value_a, spend_b, value_b)]


def baseline_statistics(ids, spend_a, value_a, spend_b, value_b) -> tuple[float, float, float]:
    """Each baseline's treatment-minus-control statistic, in ``BaselineMethod`` order,
    from per-campaign micro columns: the difference of the pooled ROIs (total value
    over total spend), and the mean and median of the per-campaign ROI differences.
    A zero pooled spend raises first, treatment before control; then the first
    campaign with a zero spend."""
    micro = (roi_of_micros(sum(spend_b), sum(value_b), Arm.TREATMENT)
             - roi_of_micros(sum(spend_a), sum(value_a), Arm.CONTROL))
    diffs = _roi_diffs(ids, spend_a, value_a, spend_b, value_b)
    return micro, fsum(diffs) / len(diffs), _median(diffs)


def aa_skipped(dataset: ExperimentDataset) -> list[str]:
    """Ids of the campaigns ``aa_calibrate`` leaves out: fewer than 2 control parts."""
    return [c.campaign_id for c in dataset.campaigns if c.m_a < 2]


def aa_columns(dataset: ExperimentDataset, share_b: float) -> list[tuple]:
    """The ``sample_sums`` columns of ``aa_calibrate``'s splits at ``share_b``, one per
    campaign with at least 2 control parts, in dataset order: the id in UTF-8, the
    control spend and value micros, and n_b, at least 1 and at most m_a - 1."""
    return [(c.campaign_id.encode("utf-8"), c.a.spend_micros, c.a.value_micros,
             min(max(round(c.m_a * share_b), 1), c.m_a - 1))
            for c in dataset.campaigns if c.m_a >= 2]


def aa_calibrate(
    dataset: ExperimentDataset, totals: MicroTotals, settings: AaSettings,
    columns_out: list[tuple] | None = None,
) -> AaRecord:
    """Estimate every baseline's decision threshold from repeated A/A splits.

    Each repeat splits every campaign's control parts (at least two required;
    campaigns with fewer are skipped, see ``aa_skipped``) into disjoint pseudo-arms,
    ``settings.treatment_share`` of them (else the ``observed_share`` of
    ``totals``) pseudo-treatment, computes each method's statistic on that one
    pseudo-experiment, and each threshold, ``AaRecord.theta(method)``, is the
    signed mean of its statistic over repeats. Splits derive deterministically
    from (seed, repeat, campaign_id), so repeats are replayable and order
    independent. ``totals`` must be ``campaign_micro_totals(dataset)``: a
    campaign's pseudo-control is its control totals there less its pseudo-treatment.
    A ``columns_out`` list is extended with the splits' columns.

    Column kernel: each call builds ``aa_columns`` once, encoding each id once. A
    repeat is one ``HashStream.sample_sums`` call, which absorbs ``("aa-split",
    seed, k)`` once and sums the micros of each campaign's n_b pseudo-treatment
    parts (n_b draws, not m_a - 1). ``baseline_statistics`` then computes the
    repeat's three statistics, as it does for the real arms.
    """
    share_b = settings.treatment_share or observed_share(totals)  # a share is never 0
    if share_b is None:
        raise InsufficientDataError("no treatment share without spend in both arms")
    repeats_k, seed = settings.repeats_k, settings.seed
    ids = [c.campaign_id for c in dataset.campaigns if c.m_a >= 2]
    if not ids:
        raise InsufficientDataError("no campaign has >= 2 control parts to split")
    columns = aa_columns(dataset, share_b)
    if columns_out is not None:
        columns_out.extend(columns)
    spends = [totals[i][0] for i in ids]
    values = [totals[i][1] for i in ids]
    stats = []
    for k in range(repeats_k):
        spend_b, value_b = HashStream.sample_sums(("aa-split", seed, k), columns)
        stats.append(baseline_statistics(ids, list(map(sub, spends, spend_b)),
                                         list(map(sub, values, value_b)), spend_b, value_b))
    return AaRecord(seed, share_b, *map(tuple, zip(*stats)))


def threshold_decision(statistic: float, theta: float) -> BaselineDecision:
    """Accept only when the statistic strictly exceeds the threshold."""
    return BaselineDecision.ACCEPT if statistic > theta else BaselineDecision.REJECT
