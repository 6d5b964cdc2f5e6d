"""Command-line interface.

Subcommands: ``evaluate`` (full pipeline), ``calibrate`` (A/A thresholds only),
``subgroup`` (diagnostic decomposition only), ``simulate`` (synthetic data),
``report`` (re-render a saved machine report).

Exit codes: 0 = ran and accepted, 1 = ran and rejected, 2 = input or
configuration error. ``calibrate``, ``subgroup`` and ``simulate`` exit 0 on
success.
"""

from __future__ import annotations

import argparse
import sys

from .baselines import aa_calibrate, campaign_micro_totals
from .config import (
    EVAL_KEY_PARSERS,
    load_evaluation_config,
    load_sim_config,
)
from .dataio import INPUT_FORMATS, ingest, write_dataset, write_text_atomic
from .errors import RoimetaError
from .meta import summarize_effects
from .pipeline import (
    EvaluationConfig,
    ExplicitThetas,
    Verdict,
    collect_effects,
    evaluate,
)
from .preprocess import qualify
from .reportio import (
    render_report,
    report_from_json,
    report_to_json,
    to_json,
    to_plain,
)
from .simulate import generate_experiment
from .subgroups import resolve_subgroups, subgroup_analysis

_FORMAT_BY_ALIAS = {"human": "human-table", "json": "machine-json"}


def _add_eval_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration overrides")
    for key in EVAL_KEY_PARSERS:
        group.add_argument(
            f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="VALUE",
            help=f"override config key {key}",
        )


def _config_from_args(args: argparse.Namespace) -> EvaluationConfig:
    overrides = {
        key: getattr(args, f"cfg_{key}")
        for key in EVAL_KEY_PARSERS
        if getattr(args, f"cfg_{key}", None) is not None
    }
    return load_evaluation_config(args.config, overrides)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = ingest(args.data, args.input_format)
    config = _config_from_args(args)
    report = evaluate(dataset, config)
    if args.out:
        write_text_atomic(args.out, report_to_json(report))
    print(render_report(report, _FORMAT_BY_ALIAS[args.format]), end="")
    return 0 if report.decision.verdict is Verdict.ACCEPT else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    dataset = ingest(args.data, args.input_format)
    config = _config_from_args(args)
    qualified = qualify(dataset, config.qualification).qualified
    if isinstance(config.aa, ExplicitThetas):
        raise RoimetaError("calibrate needs aa_* settings, not explicit thetas")
    calibrations = aa_calibrate(qualified, campaign_micro_totals(qualified), config.aa)
    doc = {method.value: to_plain(calibration) for method, calibration in calibrations.items()}
    print(to_json(doc), end="")
    return 0


def _cmd_subgroup(args: argparse.Namespace) -> int:
    dataset = ingest(args.data, args.input_format)
    config = _config_from_args(args)
    qualified = qualify(dataset, config.qualification).qualified
    effects, _ = collect_effects(qualified, config.variance_formula)
    tau2 = summarize_effects(effects, config.confidence_level).heterogeneity.tau2
    groups = resolve_subgroups(campaign_micro_totals(qualified), config.subgroups)
    report = subgroup_analysis(effects, tau2, groups, config.confidence_level)
    print(to_json(to_plain(report)), end="")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    config = load_sim_config(args.config, overrides)
    dataset = generate_experiment(config)
    write_dataset(dataset, args.out)
    parts = sum(c.m_a + c.m_b for c in dataset.campaigns)
    print(f"wrote {dataset.n} campaigns ({parts} parts) to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.saved_report, encoding="utf-8") as handle:
        report = report_from_json(handle.read())
    print(render_report(report, _FORMAT_BY_ALIAS[args.format]), end="")
    return 0 if report.decision.verdict is Verdict.ACCEPT else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roimeta",
        description="Evaluate a treatment bidding model against control on ROI "
        "across many campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evaluate_p = sub.add_parser("evaluate", help="run the full evaluation pipeline")
    evaluate_p.add_argument("data", help="part-level input file")
    evaluate_p.add_argument("--config", help="evaluation config file")
    evaluate_p.add_argument("--input-format", choices=INPUT_FORMATS, default="delimited-text")
    evaluate_p.add_argument("--format", choices=("human", "json"), default="human")
    evaluate_p.add_argument("--out", help="also write the machine JSON report here")
    _add_eval_config_flags(evaluate_p)
    evaluate_p.set_defaults(func=_cmd_evaluate)

    calibrate_p = sub.add_parser("calibrate", help="A/A-calibrate baseline thresholds")
    calibrate_p.add_argument("data", help="part-level input file")
    calibrate_p.add_argument("--config", help="evaluation config file")
    calibrate_p.add_argument("--input-format", choices=INPUT_FORMATS, default="delimited-text")
    _add_eval_config_flags(calibrate_p)
    calibrate_p.set_defaults(func=_cmd_calibrate)

    subgroup_p = sub.add_parser("subgroup", help="run only the subgroup decomposition")
    subgroup_p.add_argument("data", help="part-level input file")
    subgroup_p.add_argument("--config", help="evaluation config file")
    subgroup_p.add_argument("--input-format", choices=INPUT_FORMATS, default="delimited-text")
    _add_eval_config_flags(subgroup_p)
    subgroup_p.set_defaults(func=_cmd_subgroup)

    simulate_p = sub.add_parser("simulate", help="generate a synthetic experiment")
    simulate_p.add_argument("--config", help="simulation config file")
    simulate_p.add_argument("--seed", type=int, help="override the config seed")
    simulate_p.add_argument("--out", required=True, help="output data file (delimited text)")
    simulate_p.set_defaults(func=_cmd_simulate)

    report_p = sub.add_parser("report", help="re-render a saved machine report")
    report_p.add_argument("saved_report", help="machine JSON report file")
    report_p.add_argument("--format", choices=("human", "json"), default="human")
    report_p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RoimetaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
