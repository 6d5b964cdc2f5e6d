"""Smoke test of the study scripts: each runs as a subprocess at a small size."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
RATE = r"(0|1)\.\d+"


@pytest.mark.parametrize(
    "script,args,rate_lines",
    [
        (
            "run_null_calibration.py",
            ["--runs", "3", "--campaigns", "5"],
            [rf"significant-call rate: +{RATE} \(nominal two-sided 0\.050\)",
             rf"mu\* > 0 rate: +{RATE} \(expect ~0\.5\)"],
        ),
        (
            "run_outlier_study.py",
            ["--runs", "2", "--campaigns", "20"],
            [rf"micro baseline accepts: +{RATE}",
             rf"meta-analysis rejects: +{RATE}",
             rf"disagreement \(accept\+reject\): +{RATE}"],
        ),
    ],
)
def test_script_runs_and_prints_its_rates(script, args, rate_lines):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["runs:", args[1]]
    for pattern in rate_lines:
        assert any(re.fullmatch(pattern, line) for line in lines), (pattern, done.stdout)
