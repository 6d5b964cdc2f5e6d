#!/usr/bin/env python3
"""Null-calibration study: how often does the evaluator call a significant
effect when the treatment is identical to control?

Runs seeded A/A-style simulations (zero lift) and reports the significant-call
rate, which should sit near the nominal two-sided level.

    python scripts/run_null_calibration.py --runs 1000 --campaigns 50
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from roimeta.pipeline import EvaluationConfig, ExplicitThetas, evaluate
from roimeta.simulate import SimConfig, generate_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1000)
    parser.add_argument("--campaigns", type=int, default=50)
    parser.add_argument("--parts", type=int, default=10, help="parts per arm")
    parser.add_argument("--noise", type=float, default=0.1)
    parser.add_argument("--confidence-level", type=float, default=0.95)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args()

    evaluation = EvaluationConfig(
        confidence_level=args.confidence_level, aa=ExplicitThetas(0.0, 0.0),
    )
    started = time.perf_counter()
    significant = 0
    positive = 0
    for i in range(args.runs):
        config = SimConfig(
            n_campaigns=args.campaigns, m_a=args.parts, m_b=args.parts,
            treatment_share=0.1, part_noise_sd=args.noise,
            treatment_lift=0.0, seed=args.seed_base + i,
        )
        report = evaluate(generate_experiment(config), evaluation)
        significant += report.significance.significant
        positive += report.random.mu_star > 0
    elapsed = time.perf_counter() - started

    nominal = 1.0 - args.confidence_level
    print(f"runs:                  {args.runs}")
    print(f"campaigns x parts/arm: {args.campaigns} x {args.parts}")
    print(f"significant-call rate: {significant / args.runs:.4f} "
          f"(nominal two-sided {nominal:.3f})")
    print(f"mu* > 0 rate:          {positive / args.runs:.4f} (expect ~0.5)")
    print(f"elapsed:               {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
