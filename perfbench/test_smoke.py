"""Smoke test of the benchmark: every workload at tiny sizes, both kinds of run.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    named = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == {m[0] for m in named}
    for name, unit, *_ in named:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)

    printed = {(cols[0], cols[2]) for cols in map(str.split, lines[:-1]) if len(cols) >= 3}
    expected = {(name, unit) for name, unit, *_ in named} | {("failed_frac", "ratio")}
    if not trace:
        expected |= {("setup_wall_s", "s"), ("decision_s", "s"), ("decisions_per_s", "1/s"),
                     ("rerender_s", "s")}
    if not trace and workload == "study":
        expected |= {("study_decisions_per_s", "1/s"), ("study_decision_p50_s", "s"),
                     ("study_decision_p90_s", "s")}
    assert expected <= printed


def test_benchmark_json_matches_the_spec():
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == run.spec_text()


def test_refuses_to_run_without_the_package():
    bare = BENCH_DIR / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _run("--workload", "wide", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
