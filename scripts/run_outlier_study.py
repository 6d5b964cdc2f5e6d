#!/usr/bin/env python3
"""Outlier robustness study: a few huge campaigns get a big lift while the
rest degrade slightly. Spend-weighted micro-averaging tends to accept such a
treatment; the random-effects evaluation rejects it.

    python scripts/run_outlier_study.py --runs 100
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from roimeta.baselines import BaselineDecision, BaselineMethod
from roimeta.pipeline import AaSettings, EvaluationConfig, Verdict, evaluate
from roimeta.reportio import render_human
from roimeta.simulate import SimConfig, generate_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--campaigns", type=int, default=203)
    parser.add_argument("--outliers", type=int, default=3)
    parser.add_argument("--outlier-lift", type=float, default=0.50)
    parser.add_argument("--background-lift", type=float, default=-0.02)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--show-sample-report", action="store_true")
    args = parser.parse_args()

    micro_accepts = 0
    meta_rejects = 0
    disagreements = 0
    sample = None
    for i in range(args.runs):
        config = SimConfig(
            n_campaigns=args.campaigns, m_a=10, m_b=10, treatment_share=0.1,
            budget_log_mean=8.0, budget_log_sd=2.0, part_noise_sd=0.1,
            treatment_lift=args.background_lift,
            outlier_campaigns=args.outliers, outlier_lift=args.outlier_lift,
            seed=args.seed_base + i,
        )
        report = evaluate(
            generate_experiment(config),
            EvaluationConfig(aa=AaSettings(seed=args.seed_base + i, treatment_share=0.1)),
        )
        micro = next(b for b in report.baselines if b.method is BaselineMethod.MICRO)
        accepts = micro.decision is BaselineDecision.ACCEPT
        rejects = report.decision.verdict is not Verdict.ACCEPT
        micro_accepts += accepts
        meta_rejects += rejects
        disagreements += accepts and rejects
        if sample is None and accepts and rejects:
            sample = report

    print(f"runs:                       {args.runs}")
    print(f"micro baseline accepts:     {micro_accepts / args.runs:.3f}")
    print(f"meta-analysis rejects:      {meta_rejects / args.runs:.3f}")
    print(f"disagreement (accept+reject): {disagreements / args.runs:.3f}")
    if args.show_sample_report and sample is not None:
        print()
        print(render_human(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
