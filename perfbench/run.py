#!/usr/bin/env python3
"""Decision benchmark for roimeta.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from ``--seed``, drives the package from
``src/`` of the checkout it sits in, checks every decision, and prints one
line per metric (name, value, unit) followed, as the last line, by one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced run reports the per-layer ones. ``--smoke`` shrinks the
inputs for a quick check; ``--write-spec`` writes ``BENCHMARK.json``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "work"
RUN_SECONDS = 30

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("decision_ref", "ref", "lower", 0.2),
    ("rerender_ref", "ref", "lower", 0.2),
    ("report_bytes", "bytes", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
PER_LAYER = (
    ("simulate.generate_s", "s", "lower"),
    ("randomness.normal_draw_us", "us", "lower"),
    ("dataio.write_s", "s", "lower"),
    ("dataio.ingest_s", "s", "lower"),
    ("dataio.ingest_rows", "count", "higher"),
    ("preprocess.qualify_s", "s", "lower"),
    ("preprocess.parts_kept_ratio", "ratio", "higher"),
    ("baselines.aa_calibrate_s", "s", "lower"),
    ("baselines.aa_splits_drawn", "count", "lower"),
    ("baselines.aa_split_reuse", "ratio", "higher"),
    ("baselines.deltas_s", "s", "lower"),
    ("pipeline.effects_s", "s", "lower"),
    ("pipeline.effects_excluded", "count", "lower"),
    ("meta.combine_s", "s", "lower"),
    ("subgroups.analysis_s", "s", "lower"),
    ("subgroups.ran", "count", "lower"),
    ("pipeline.evaluate_s", "s", "lower"),
    ("pipeline.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("reportio.to_json_s", "s", "lower"),
    ("reportio.from_json_s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
)


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def spec_text() -> str:
    return json.dumps(spec(), indent=2) + "\n"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    return parser.parse_args(argv)


def _print_result(workload_name: str, trace: int, result) -> None:
    names = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
    units = {m[0]: m[1] for m in END_TO_END + PER_LAYER}
    if sorted(result.metrics) != sorted(names):
        raise RuntimeError(f"metrics measured {sorted(result.metrics)} != named {sorted(names)}")
    print(f"workload {workload_name}, {'traced' if trace else 'untraced'} run")
    for name in names:
        note = result.notes.get(name, "")
        print(f"  {name:30s} {result.metrics[name]:14.6g} {units[name]:6s} {note}")
    failed_frac = result.failed_ops / result.attempted
    extra = result.extra + [
        ("failed_frac", failed_frac, "ratio", f"{result.failed_ops}/{result.attempted} operations")
    ]
    for name, value, unit, note in extra:
        print(f"  {name:30s} {value:14.6g} {unit:6s} {note}")
    for problem in result.failures[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed_ops,
        "metrics": {
            name: {"value": result.metrics[name], "unit": units[name]} for name in names
        },
    }))


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "roimeta" / "__init__.py").is_file():
        print(f"error: no roimeta package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec_text(), encoding="utf-8")
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    from layers import run_traced
    from timed import CliRunner, run_analyst, run_study

    work = WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = CliRunner(ROOT, work)
    # One CPU for this process and the children it starts, so a reference
    # timing and the operation it brackets run on the same, equally busy, CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        measure = run_traced
    else:
        measure = run_study if workload.in_memory else run_analyst
    result = measure(workload, args.seed, args.seconds, args.smoke, work, runner)
    _print_result(workload.name, args.trace, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
