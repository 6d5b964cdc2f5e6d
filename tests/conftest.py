"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import hashlib
import re
import statistics
from contextlib import contextmanager
from enum import Enum
from math import fsum

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from roimeta.baselines import baseline_statistics, campaign_micro_totals
from roimeta.campaigns import Arm, CampaignExperiment, ExperimentDataset, roi_of_micros, to_micros
from roimeta.dataio import dataset_from_rows

# Every property test draws the same examples on every run, so Tier-1 passes
# or fails the same way each time; each test keeps its own max_examples.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


def pytest_runtest_logreport(report):
    """Print one PASS/FAIL line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    match = re.search(r"TestCriterion(\d+)(\w+)::test_(\w+)", report.nodeid)
    if not match:
        return
    number, name, test = match.groups()
    status = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE criterion {number} ({name}/{test}): {status}")


_BLAKE2B = hashlib.blake2b


class _LoggedBlake2b:
    """A BLAKE2b state that remembers the bytes fed to it since its first
    ancestor was made, and logs each digest as (digest_size, bytes fed, digest)."""

    def __init__(self, log: list, state, fed: bytes, size: int):
        self._log, self._state, self._fed, self._size = log, state, fed, size

    def copy(self):
        return _LoggedBlake2b(self._log, self._state.copy(), self._fed, self._size)

    def update(self, data):
        self._state.update(data)
        self._fed += bytes(data)

    def digest(self):
        out = self._state.digest()
        self._log.append((self._size, self._fed, out))
        return out


@contextmanager
def blake2b_log():
    """While open, ``hashlib.blake2b`` builds logged states; yields the digest log."""
    log: list[tuple[int, bytes, bytes]] = []

    def blake2b(data=b"", *, digest_size=64):
        return _LoggedBlake2b(log, _BLAKE2B(data, digest_size=digest_size), bytes(data),
                              digest_size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hashlib, "blake2b", blake2b)
        yield log


def stream_blocks(log: list[tuple[int, bytes, bytes]]) -> list[tuple[str, int]]:
    """Each hash stream keyed in ``log``, as its key text, with the number of
    64-byte blocks (eight draws each) hashed from it, sorted: a stream's 16-byte
    key digest is what its block states absorb first."""
    blocks: dict[bytes, int] = {}
    for size, fed, _ in log:
        if size == 64:
            blocks[fed[:16]] = blocks.get(fed[:16], 0) + 1
    return sorted((fed.decode("utf-8"), blocks.get(out, 0)) for size, fed, out in log
                  if size == 16)


def row_layout(obj):
    """A report record as schemas up to 6 wrote it: each record an object of its
    fields, a tuple of records one such object per row, and each enum its value."""
    if isinstance(obj, Enum):
        return obj.value
    if hasattr(obj, "_fields"):
        return {name: row_layout(value) for name, value in zip(obj._fields, obj)}
    if isinstance(obj, tuple):
        return [row_layout(item) for item in obj]
    return obj


def make_part(
    campaign_id: str,
    arm: Arm,
    part_id: int,
    roi: float | None = None,
    spend: float = 1.0,
    value: float | None = None,
    impressions: int = 1000,
) -> tuple:
    """A part's row ``(campaign_id, arm tag, part_id, impressions, spend,
    value)``, worth ``value``, or ``roi * spend`` when only ``roi`` is given.

    ``roi`` is shorthand for the value: the stored ROI is always derived from
    the quantized money, so it is ``roi`` only up to micro-unit rounding.
    """
    if value is None:
        value = (roi if roi is not None else 0.0) * spend
    return campaign_id, arm.value, part_id, impressions, spend, value


def campaign_from_rows(rows) -> CampaignExperiment:
    """The one campaign that ``rows`` hold, read through ``dataset_from_rows``."""
    (campaign,) = dataset_from_rows(rows).campaigns
    return campaign


def rows_of(campaign: CampaignExperiment) -> list[tuple]:
    """``campaign``'s parts as rows, arm A first, read from its part views."""
    return [(p.campaign_id, p.arm.value, *p[2:6]) for p in campaign.parts_a + campaign.parts_b]


def make_campaign(
    campaign_id: str,
    rois_a: list[float],
    rois_b: list[float],
    spend_a: float = 1.0,
    spend_b: float = 1.0,
    impressions: int = 1000,
) -> CampaignExperiment:
    return campaign_from_rows([
        make_part(campaign_id, arm, j, roi=r, spend=spend, impressions=impressions)
        for arm, rois, spend in ((Arm.CONTROL, rois_a, spend_a), (Arm.TREATMENT, rois_b, spend_b))
        for j, r in enumerate(rois)
    ])


def make_dataset(campaigns: list[CampaignExperiment]) -> ExperimentDataset:
    return ExperimentDataset(tuple(campaigns))


def dv_pairs(effects):
    """Each effect's (d, v) pair, in order: the input of ``meta``'s chain."""
    return [(e.d, e.v) for e in effects]


def dv_by_id(effects):
    """Each effect's (d, v) pair by campaign: the input of ``subgroup_analysis``."""
    return {e.campaign_id: (e.d, e.v) for e in effects}


# The baseline statistics as computed before the per-campaign micro totals were
# summed once per decision: each walks the dataset's part views, so a check
# against them does not compare ``baselines.baseline_statistics`` with itself.

def micro_totals(parts):
    return sum(to_micros(p.spend) for p in parts), sum(to_micros(p.value) for p in parts)


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


def pooled_roi(dataset, arm):
    """One arm's pooled ROI as ``baseline_statistics`` computes it: its micro statistic
    against an opposite arm of ROI 0 (1 micro spent, nothing earned, per campaign),
    which is exact, since ``x - 0.0`` and ``0.0 - x`` round nothing."""
    totals = campaign_micro_totals(dataset)
    spend_a, value_a, spend_b, value_b = zip(*totals.values())
    ones, zeros = (1,) * len(totals), (0,) * len(totals)
    if arm is Arm.TREATMENT:
        return baseline_statistics(totals, ones, zeros, spend_b, value_b)[0]
    return -baseline_statistics(totals, spend_a, value_a, ones, zeros)[0]


def random_dataset(
    rng: np.random.Generator,
    n_campaigns: tuple[int, int] = (2, 10),
    parts_per_arm: tuple[int, int] = (2, 6),
    spend_range: tuple[float, float] = (0.5, 50.0),
) -> ExperimentDataset:
    """Random dataset for oracle comparisons; ROIs are positive and O(1)."""
    n = int(rng.integers(n_campaigns[0], n_campaigns[1] + 1))
    campaigns = []
    for i in range(n):
        m_a = int(rng.integers(parts_per_arm[0], parts_per_arm[1] + 1))
        m_b = int(rng.integers(parts_per_arm[0], parts_per_arm[1] + 1))
        base = float(rng.uniform(0.3, 3.0))
        lift = float(rng.normal(0.0, 0.15))
        campaigns.append(make_campaign(
            f"c{i:03d}",
            rois_a=[base * float(rng.lognormal(0.0, 0.2)) for _ in range(m_a)],
            rois_b=[base * (1 + lift) * float(rng.lognormal(0.0, 0.2)) for _ in range(m_b)],
            spend_a=float(rng.uniform(*spend_range)),
            spend_b=float(rng.uniform(*spend_range)),
        ))
    return make_dataset(campaigns)


# --- hypothesis strategies ---------------------------------------------------

sane_rois = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
sane_spends = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)


@st.composite
def campaign_strategy(draw, campaign_id: str = "c0", min_parts: int = 2, max_parts: int = 5):
    rois_a = draw(st.lists(sane_rois, min_size=min_parts, max_size=max_parts))
    rois_b = draw(st.lists(sane_rois, min_size=min_parts, max_size=max_parts))
    spend_a = draw(sane_spends)
    spend_b = draw(sane_spends)
    return make_campaign(campaign_id, rois_a, rois_b, spend_a=spend_a, spend_b=spend_b)


@st.composite
def dataset_strategy(draw, min_campaigns: int = 2, max_campaigns: int = 6):
    n = draw(st.integers(min_campaigns, max_campaigns))
    campaigns = [
        draw(campaign_strategy(campaign_id=f"c{i:02d}")) for i in range(n)
    ]
    return make_dataset(campaigns)


@st.composite
def mixed_quality_dataset_strategy(draw, min_campaigns: int = 1, max_campaigns: int = 5):
    """Datasets with some low-impression and zero-spend parts, for preprocessing."""
    n = draw(st.integers(min_campaigns, max_campaigns))
    campaigns = []
    for i in range(n):
        campaign_id = f"c{i:02d}"
        rows = []
        for arm in (Arm.CONTROL, Arm.TREATMENT):
            count = draw(st.integers(1, 6))
            for j in range(count):
                impressions = draw(st.integers(0, 300))
                zero_spend = draw(st.booleans())
                spend = 0.0 if zero_spend else draw(sane_spends)
                roi = None if zero_spend else draw(sane_rois)
                rows.append(make_part(
                    campaign_id, arm, j, roi=roi, spend=spend, impressions=impressions,
                ))
        campaigns.append(campaign_from_rows(rows))
    return make_dataset(campaigns)
