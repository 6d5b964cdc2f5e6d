"""Untraced end-to-end measurement, and the pieces both kinds of run share.

A run drives the program from one process: one decision at a time and at most
one CLI child process at a time. Each child is timed from spawn to exit, and
its own peak resident memory comes from ``os.wait4``; ``RUSAGE_CHILDREN``
would give a running maximum over every child reaped so far.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from roimeta.pipeline import AaSettings, EvaluationConfig, evaluate
from roimeta.reportio import report_to_json
from roimeta.simulate import generate_experiment

from reference import ReferenceClock
from workloads import (
    AA_TREATMENT_SHARE, STUDY_SEED_STRIDE, Workload, exit_code_for, write_config, write_data,
)

# Set-up runs once before the timed loop and again at even intervals during
# it, and the study's re-renders are spread the same way, so that medians span
# the run rather than one speed phase of the host.
SETUP_REPEATS = 7
STUDY_RERENDERS = 20
# Study decisions take about 0.15 s; one reference run per 0.25 s keeps the
# loop at 150 to 190 decisions in 30 s, over the 100 that put ten beyond p90.
STUDY_REFERENCE_GAP_S = 0.25
MIN_DECISIONS = 2
PEAK_RSS_CHILDREN = 3
CHILD_TIMEOUT_S = 100.0

# What a study script pays before its first decision: imports and config.
_STUDY_SETUP_SNIPPET = """\
import time
start = time.perf_counter()
from roimeta.pipeline import AaSettings, EvaluationConfig, evaluate
from roimeta.simulate import SimConfig, generate_experiment
EvaluationConfig(aa=AaSettings(seed=0, treatment_share=0.1))
print(repr(time.perf_counter() - start))
"""

# One study decision in a fresh process, for its peak resident memory.
_STUDY_DECISION_SNIPPET = """\
from roimeta.pipeline import AaSettings, EvaluationConfig, evaluate
from roimeta.simulate import SimConfig, generate_experiment
evaluate(generate_experiment(SimConfig(**{sim!r})),
         EvaluationConfig(aa=AaSettings(seed={seed}, treatment_share={share})))
"""


@dataclass
class Result:
    """What one run measured: metric values plus the operation tally."""

    metrics: dict[str, float] = field(default_factory=dict)
    # How each printed value was obtained, e.g. "median of 4".
    notes: dict[str, str] = field(default_factory=dict)
    # Printed beside the metrics but not part of the machine result.
    extra: list[tuple[str, float, str, str]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0

    def operation(self, problems: list[str]) -> None:
        """Count one attempted operation; it failed if any check found a problem."""
        self.attempted += 1
        if problems:
            self.failed_ops += 1
            self.failures.extend(problems)


@dataclass
class Child:
    wall_s: float
    exit_code: int
    max_rss_mb: float
    stderr: str


class CliRunner:
    """Runs ``python -m roimeta.cli`` from the checkout's ``src``, one child at a time."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work))

    def cli(self, *args: str) -> Child:
        return self.spawn("-m", "roimeta.cli", *args)

    def spawn(self, *args: str) -> Child:
        """Run ``python *args`` to exit: wall time, exit code, its own peak RSS."""
        err_path = self.work / "child.stderr"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=subprocess.DEVNULL, stderr=err,
                env=self.env, cwd=self.work,
            )
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            wall_s=wall,
            exit_code=proc.returncode,
            max_rss_mb=usage.ru_maxrss / 1024.0,
            stderr=err_path.read_text(encoding="utf-8", errors="replace").strip(),
        )

    def python(self, code: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=self.env, cwd=self.work, timeout=CHILD_TIMEOUT_S, check=True,
        )
        return done.stdout


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def exit_problems(what: str, child: Child, expected: int) -> list[str]:
    if child.exit_code == expected:
        return []
    detail = f": {child.stderr.splitlines()[-1]}" if child.stderr else ""
    return [f"{what} exited {child.exit_code}, expected {expected}{detail}"]


def study_decision(workload: Workload, seed: int, smoke: bool):
    """One researcher decision: generate the seeded experiment, evaluate it."""
    dataset = generate_experiment(workload.sim_config(seed, smoke))
    config = EvaluationConfig(aa=AaSettings(seed=seed, treatment_share=AA_TREATMENT_SHARE))
    return evaluate(dataset, config)


def data_path(work: Path, workload: Workload) -> Path:
    suffix = ".jsonl" if workload.input_format == "record-lines" else ".csv"
    return work / f"data{suffix}"


def set_up_files(workload: Workload, seed: int, work: Path, smoke: bool) -> float:
    """Generate the experiment and write the data and config files; seconds taken."""
    start = time.perf_counter()
    dataset = generate_experiment(workload.sim_config(seed, smoke))
    write_data(dataset, data_path(work, workload), workload.input_format)
    write_config(work / "eval.cfg", seed)
    return time.perf_counter() - start


def _due(samples: list[float], count: int, start: float, seconds: float) -> bool:
    """Whether the next of ``count`` samples spread evenly over the run is due."""
    elapsed = time.perf_counter() - start
    return len(samples) < count and elapsed >= len(samples) * seconds / count


def run_analyst(workload: Workload, seed: int, seconds: float, smoke: bool,
                work: Path, runner: CliRunner) -> Result:
    """Closed loop of fresh ``roimeta evaluate`` processes, each followed by a
    fresh ``roimeta report`` of the report it saved."""
    result = Result()
    # The reference run that closes a set-up also opens the next decision.
    clock = ReferenceClock()
    setup_walls = [set_up_files(workload, seed, work, smoke)]
    setups = [clock.normalized(setup_walls[-1])]
    data, config, report = data_path(work, workload), work / "eval.cfg", work / "report.json"
    expected = exit_code_for(workload.expected_verdict)
    decisions, decisions_ref, rerenders, rerenders_ref, peaks = [], [], [], [], []
    digests: set[str] = set()
    size = 0
    start = time.perf_counter()
    while len(decisions) < MIN_DECISIONS or time.perf_counter() - start < seconds:
        if _due(setups, SETUP_REPEATS, start, seconds):
            setup_walls.append(set_up_files(workload, seed, work, smoke))
            setups.append(clock.normalized(setup_walls[-1]))
        report.unlink(missing_ok=True)
        child = runner.cli(
            "evaluate", str(data), "--config", str(config), "--out", str(report),
            "--input-format", workload.input_format,
        )
        decisions.append(child.wall_s)
        decisions_ref.append(clock.relative(child.wall_s))
        peaks.append(child.max_rss_mb)
        problems = exit_problems("evaluate", child, expected)
        if report.is_file():
            body = report.read_bytes()
            size = len(body)
            digests.add(digest(body))
            if len(digests) > 1:
                problems.append("two decisions on the same input wrote different reports")
        else:
            problems.append("evaluate wrote no report")
        result.operation(problems)
        if not report.is_file():
            continue
        child = runner.cli("report", str(report))
        rerenders.append(child.wall_s)
        rerenders_ref.append(clock.relative(child.wall_s))
        result.operation(exit_problems("report", child, expected))

    n = len(decisions)
    _fill(result, setups, setup_walls, decisions, decisions_ref, rerenders, rerenders_ref,
          size, statistics.median(peaks))
    result.notes.update({
        "setup_s": f"median of {len(setups)} spread over the run, at reference speed: "
                   "generate, write data, write config",
        "decision_ref": f"median of {n} evaluate processes, spawn to exit",
        "peak_rss_mb": f"median over {n} evaluate processes",
    })
    return result


def run_study(workload: Workload, seed: int, seconds: float, smoke: bool,
              work: Path, runner: CliRunner) -> Result:
    """Closed loop, one caller: in-memory generate + evaluate pairs on seeds
    base, base + 1, ...; afterwards a saved report is re-rendered by the CLI."""
    result = Result()
    base = seed * STUDY_SEED_STRIDE
    expected = exit_code_for(workload.expected_verdict)
    # Same input twice: the two machine reports must be byte-identical. The
    # first is saved for the re-renders spread over the loop.
    texts = [report_to_json(study_decision(workload, base, smoke)) for _ in range(2)]
    result.operation(
        [] if texts[0] == texts[1]
        else ["two decisions on the same input gave different reports"]
    )
    saved = work / "report.json"
    saved.write_text(texts[0], encoding="utf-8")

    setups, setup_walls = [], []

    def set_up() -> None:
        setup_clock = ReferenceClock()
        setup_walls.append(float(runner.python(_STUDY_SETUP_SNIPPET)))
        setups.append(setup_clock.normalized(setup_walls[-1]))

    set_up()
    latencies, latencies_ref, rerenders, rerenders_ref = [], [], [], []
    clock = ReferenceClock(min_gap_s=STUDY_REFERENCE_GAP_S)
    start = time.perf_counter()
    while len(latencies) < MIN_DECISIONS or time.perf_counter() - start < seconds:
        if _due(setups, SETUP_REPEATS, start, seconds):
            set_up()
            clock = ReferenceClock(min_gap_s=STUDY_REFERENCE_GAP_S)
        if _due(rerenders, STUDY_RERENDERS, start, seconds):
            rerender_clock = ReferenceClock()
            child = runner.cli("report", str(saved))
            rerenders.append(child.wall_s)
            rerenders_ref.append(rerender_clock.relative(child.wall_s))
            result.operation(exit_problems("report", child, expected))
            clock = ReferenceClock(min_gap_s=STUDY_REFERENCE_GAP_S)
        decision_seed = base + len(latencies)
        t0 = time.perf_counter()
        report = study_decision(workload, decision_seed, smoke)
        latencies.append(time.perf_counter() - t0)
        latencies_ref.append(clock.relative(latencies[-1]))
        verdict = report.decision.verdict.value
        result.operation(
            [] if verdict == workload.expected_verdict
            else [f"decision at seed {decision_seed}: verdict {verdict}, "
                  f"expected {workload.expected_verdict}"]
        )

    # This process also holds the reference's working set, so a decision's
    # memory is measured in fresh processes instead.
    peaks = []
    for i in range(PEAK_RSS_CHILDREN):
        sim = dataclasses.asdict(workload.sim_config(base + i, smoke))
        code = _STUDY_DECISION_SNIPPET.format(
            sim=sim, seed=base + i, share=AA_TREATMENT_SHARE)
        child = runner.spawn("-c", code)
        peaks.append(child.max_rss_mb)
        result.operation(exit_problems("study decision process", child, 0))

    n = len(latencies)
    _fill(result, setups, setup_walls, latencies, latencies_ref, rerenders, rerenders_ref,
          len(texts[0].encode("utf-8")), statistics.median(peaks))
    result.notes.update({
        "setup_s": f"median of {len(setups)} fresh interpreters spread over the run, at "
                   "reference speed: imports + config",
        "decision_ref": f"median of {n} in-memory generate + evaluate",
        "peak_rss_mb": f"median of {len(peaks)} fresh processes running one decision",
    })
    p90 = statistics.quantiles(latencies, n=10)[-1]
    beyond = sum(1 for x in latencies if x > p90)
    result.extra += [
        ("study_decisions_per_s", n / sum(latencies), "1/s", "closed loop, one caller"),
        ("study_decision_p50_s", statistics.median(latencies), "s", f"n={n}"),
        ("study_decision_p90_s", p90, "s", f"n={n}, {beyond} beyond"),
    ]
    return result


def _fill(result: Result, setups, setup_walls, decisions, decisions_ref, rerenders,
          rerenders_ref, report_bytes: int, peak_rss_mb: float) -> None:
    """The metrics every untraced run reports; raw seconds are printed beside
    the reference-normalised values that the JSON result carries."""
    n = len(decisions)
    result.metrics = {
        "setup_s": statistics.median(setups),
        "decision_ref": statistics.median(decisions_ref),
        "rerender_ref": statistics.median(rerenders_ref),
        "report_bytes": float(report_bytes),
        "peak_rss_mb": peak_rss_mb,
    }
    result.notes = {"rerender_ref": f"median of {len(rerenders)} report processes"}
    result.extra = [
        ("setup_wall_s", statistics.median(setup_walls), "s", f"median of {len(setup_walls)}"),
        ("decision_s", statistics.median(decisions), "s", f"median of {n}"),
        ("decisions_per_s", n / sum(decisions), "1/s", "decisions / decision time"),
        ("rerender_s", statistics.median(rerenders), "s", f"median of {len(rerenders)}"),
    ]
