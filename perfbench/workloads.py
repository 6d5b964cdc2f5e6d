"""The benchmark's workloads and the inputs it generates for them.

Every input derives from the workload seed: the simulation seed, the A/A
split seed and, on ``study``, the run of per-decision seeds. The program under
test only ever sees the generated files or datasets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from roimeta.campaigns import ExperimentDataset
from roimeta.dataio import write_dataset
from roimeta.simulate import SimConfig

# Study decisions use seeds base, base + 1, ...; bases of successive workload
# seeds are this far apart so their decision seeds never overlap.
STUDY_SEED_STRIDE = 100_000
# The simulator's treatment share, which every decision calibrates A/A at.
AA_TREATMENT_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    sim: SimConfig
    # "delimited-text" or "record-lines" for an analyst workload that runs the
    # CLI on a file; None for the in-memory study loop.
    input_format: str | None
    expected_verdict: str
    why: str
    # Smaller inputs of the same shape for --smoke; None keeps ``sim``.
    smoke_sim: SimConfig | None = None

    @property
    def in_memory(self) -> bool:
        return self.input_format is None

    def sim_config(self, seed: int, smoke: bool = False) -> SimConfig:
        base = self.smoke_sim if smoke and self.smoke_sim else self.sim
        return replace(base, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide",
            sim=SimConfig(n_campaigns=1000, m_a=10, m_b=10, treatment_lift=0.02),
            smoke_sim=SimConfig(n_campaigns=200, m_a=10, m_b=10, treatment_lift=0.02),
            input_format="delimited-text",
            expected_verdict="accept",
            why="many small campaigns read from CSV, so per-campaign costs "
                "(A/A split rebuilds, hash streams, report size) dominate",
        ),
        Workload(
            name="deep",
            sim=SimConfig(n_campaigns=20, m_a=500, m_b=500, treatment_lift=0.02),
            smoke_sim=SimConfig(n_campaigns=10, m_a=200, m_b=200, treatment_lift=0.02),
            input_format="record-lines",
            expected_verdict="accept",
            why="as many parts as wide in 50x fewer campaigns, read from "
                "record-lines, so per-part work (shuffles, arm stats, JSON) dominates",
        ),
        Workload(
            name="study",
            sim=SimConfig(
                n_campaigns=203, m_a=10, m_b=10, treatment_lift=-0.03,
                outlier_campaigns=3, outlier_lift=0.5,
            ),
            input_format=None,
            expected_verdict="reject_harmful",
            why="repeated seeded in-memory decisions as in the outlier study, "
                "so the generator and A/A calibration are the hot loop",
        ),
    )
}


def exit_code_for(verdict: str) -> int:
    """The CLI's exit code for a verdict: 0 on accept, 1 on any rejection."""
    return 0 if verdict == "accept" else 1


def render_dataset_jsonl(dataset: ExperimentDataset) -> str:
    """Record-lines text with the same 6-decimal money as the CSV writer, so
    both formats carry identical values."""
    lines = []
    for campaign in dataset.campaigns:
        cid = json.dumps(campaign.campaign_id)
        for part in campaign.parts_a + campaign.parts_b:
            lines.append(
                f'{{"campaign_id": {cid}, "arm": "{part.arm.value}", '
                f'"part_id": {part.part_id}, "impressions": {part.impressions}, '
                f'"spend": {part.spend:.6f}, "value": {part.value:.6f}}}\n'
            )
    return "".join(lines)


def write_data(dataset: ExperimentDataset, path: Path, input_format: str) -> None:
    if input_format == "record-lines":
        path.write_text(render_dataset_jsonl(dataset), encoding="utf-8")
    else:
        write_dataset(dataset, path)


def write_config(path: Path, aa_seed: int) -> None:
    """Evaluation config for the CLI. The share is pinned because file ingest
    drops the simulator's metadata, which would otherwise calibrate at 0.5."""
    path.write_text(
        f"aa_seed = {aa_seed}\naa_treatment_share = {AA_TREATMENT_SHARE}\n",
        encoding="utf-8",
    )
