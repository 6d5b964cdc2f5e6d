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
        # exact rates: a change in how the script reaches its summary must not move them
        (
            "run_null_calibration.py",
            ["--runs", "20", "--campaigns", "5"],
            [r"significant-call rate: 0\.0500 \(nominal two-sided 0\.050\)",
             r"mu\* > 0 rate: +0\.3000 \(expect ~0\.5\)"],
        ),
        (
            "run_null_calibration.py",
            ["--runs", "40", "--campaigns", "10", "--seed-base", "100"],
            [r"significant-call rate: 0\.0000 \(nominal two-sided 0\.050\)",
             r"mu\* > 0 rate: +0\.4750 \(expect ~0\.5\)"],
        ),
        # 203 campaigns x 20 parts draw their impressions through the boundary table
        (
            "run_outlier_study.py",
            ["--runs", "20", "--campaigns", "203"],
            [r"micro baseline accepts: +1\.000",
             r"meta-analysis rejects: +1\.000",
             r"disagreement \(accept\+reject\): +1\.000"],
        ),
        (
            "run_outlier_study.py",
            ["--runs", "20", "--campaigns", "203", "--background-lift", "0.0",
             "--outlier-lift", "0.05"],
            [r"micro baseline accepts: +0\.750",
             r"meta-analysis rejects: +0\.950",
             r"disagreement \(accept\+reject\): +0\.700"],
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
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["runs:", args[1]]
    for pattern in rate_lines:
        assert any(re.fullmatch(pattern, line) for line in lines), (pattern, done.stdout)


SOURCE_FIXTURE = '''"""Module docstring,
two lines."""

# a comment
import os  # an inline comment is code


class A:
    """Class docstring."""

    def f(self):
        """Method

        docstring."""
        "a later string is code"
        return os.sep
'''


def test_src_lines_counts_each_kind(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE_FIXTURE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "src_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert [line.split() for line in done.stdout.splitlines()] == [
        ["total", "17"], ["code", "6"], ["docstring", "6"], ["comment", "1"], ["blank", "4"],
    ]
