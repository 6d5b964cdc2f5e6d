"""Command-line interface.

Subcommands: ``evaluate`` (full pipeline), ``simulate`` (synthetic data),
``report`` (re-render a saved machine report). The report carries each A/A
threshold (``baselines[*].threshold_theta``), the ``subgroup`` block and an
``audit`` block whose config lines name each value's source: a ``--config``
file or a flag.
Each subcommand imports only the layers it runs, so ``report`` loads
``config``, ``errors``, ``records`` and ``reportio`` and none of the analysis.

Exit codes: 0 = ran and accepted, 1 = ran and rejected, 2 = input or
configuration error. ``simulate`` exits 0 on success.

A command runs as a one-shot process (``run``): cyclic garbage collection is
off, and once stdout and stderr are flushed the process ends without the
interpreter's teardown. An output that cannot be written or flushed, such as
a full disk or a pipe with no reader, gives one ``error:`` line and exit 2.
Library callers, and ``main`` called in process, are unaffected.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from .config import EVAL_KEY_PARSERS, INPUT_FORMATS, load_evaluation_config, load_sim_config
from .errors import RoimetaError

if TYPE_CHECKING:
    from .pipeline import EvaluationConfig

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
    from .dataio import ingest, write_text_atomic
    from .pipeline import Verdict, evaluate
    from .reportio import render_report, report_to_json

    dataset = ingest(args.data, args.input_format)
    config = _config_from_args(args)
    report = evaluate(dataset, config)
    if args.out:
        write_text_atomic(args.out, report_to_json(report))
    print(render_report(report, _FORMAT_BY_ALIAS[args.format]), end="")
    return 0 if report.decision.verdict is Verdict.ACCEPT else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .dataio import write_dataset
    from .simulate import generate_experiment

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
    from .records import Verdict
    from .reportio import render_report, report_from_json

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


def run() -> NoReturn:
    """The ``roimeta`` command: ``main`` as a one-shot process.

    A command keeps what it builds until it exits, so GC is off before the
    subcommand imports its layers, and ``os._exit`` skips the interpreter's
    teardown once stdout and then stderr are flushed. A failed stdout flush is
    reported as ``main`` reports a failed write. An uncaught exception or
    argparse's ``SystemExit`` leaves through the normal exit."""
    gc.disable()
    code = main()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
