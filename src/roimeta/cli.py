"""Command-line interface.

Subcommands: ``evaluate`` (full pipeline), ``simulate`` (synthetic data),
``report`` (re-render a saved machine report). The report carries each A/A
threshold (``baselines.threshold_theta``), the ``subgroup`` block and an
``audit`` block whose config lines name each value's source: a ``--config``
file or a flag. ``evaluate --trace FILE`` writes the stage records of
``pipeline.evaluate`` as JSON lines, after an ``ingest`` record (parts read,
campaigns) and before a ``write_report`` one (1 report, characters written).
Each subcommand imports only the layers it runs, and the parser builds only
the named subcommand's arguments, so ``report`` loads ``cli``, ``errors``,
``records`` and ``reportio`` and neither ``config`` nor any of the analysis.

Exit codes: 0 = ran and accepted, 1 = ran and rejected, 2 = input or
configuration error. ``simulate`` exits 0 on success.

A command runs as a one-shot process (``run``): cyclic garbage collection is
off, and once stdout and stderr are flushed the process ends without the
interpreter's teardown. An output that cannot be written or flushed, such as
a full disk or a pipe with no reader, gives one ``error:`` line and exit 2,
and so does a help text that cannot be written.
Library callers, and ``main`` called in process, are unaffected.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from .errors import RoimetaError

if TYPE_CHECKING:
    from .config import EvaluationConfig

_REPORT_FORMATS = ("human", "json")  # the first is the default


def _config_from_args(args: argparse.Namespace) -> EvaluationConfig:
    from .config import EVAL_KEY_PARSERS, load_evaluation_config

    overrides = {
        key: getattr(args, f"cfg_{key}")
        for key in EVAL_KEY_PARSERS
        if getattr(args, f"cfg_{key}", None) is not None
    }
    return load_evaluation_config(args.config, overrides)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    import json

    from .dataio import ingest, write_text_atomic
    from .pipeline import Verdict, evaluate, stage_clock
    from .reportio import render_human, report_to_json

    trace = [] if args.trace else None
    mark = stage_clock(trace)
    dataset = ingest(args.data, args.input_format)
    if trace is not None:  # counting the parts walks every campaign
        mark("ingest", sum(c.m_a + c.m_b for c in dataset.campaigns), dataset.n)
    config = _config_from_args(args)
    report = evaluate(dataset, config, trace)
    mark = stage_clock(trace)
    text = report_to_json(report) if args.out or args.format == "json" else ""
    if args.out:
        write_text_atomic(args.out, text)
    shown = text if args.format == "json" else render_human(report)
    print(shown, end="")
    mark("write_report", 1, len(shown) + (len(text) if args.out else 0))
    if trace is not None:
        write_text_atomic(args.trace, "".join(json.dumps(record) + "\n" for record in trace))
    return 0 if report.decision.verdict is Verdict.ACCEPT else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .config import load_sim_config
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
    from .reportio import render_human, report_from_json, report_to_json

    with open(args.saved_report, encoding="utf-8") as handle:
        report = report_from_json(handle.read())
    print(report_to_json(report) if args.format == "json" else render_human(report), end="")
    return 0 if report.decision.verdict is Verdict.ACCEPT else 1


def _evaluate_arguments(parser: argparse.ArgumentParser) -> None:
    from .config import EVAL_KEY_PARSERS, INPUT_FORMATS

    parser.add_argument("data", help="part-level input file")
    parser.add_argument("--config", help="evaluation config file")
    parser.add_argument("--input-format", choices=INPUT_FORMATS, default=INPUT_FORMATS[0])
    parser.add_argument("--format", choices=_REPORT_FORMATS, default=_REPORT_FORMATS[0])
    parser.add_argument("--out", help="also write the machine JSON report here")
    parser.add_argument("--trace", metavar="FILE",
                        help="write one JSON line per stage here: stage, seconds, n_in, n_out")
    group = parser.add_argument_group("configuration overrides")
    for key in EVAL_KEY_PARSERS:
        group.add_argument(
            f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="VALUE",
            help=f"override config key {key}",
        )


def _simulate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="simulation config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", required=True, help="output data file (delimited text)")


def _report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("saved_report", help="machine JSON report file")
    parser.add_argument("--format", choices=_REPORT_FORMATS, default=_REPORT_FORMATS[0])


_SUBCOMMANDS = {
    "evaluate": ("run the full evaluation pipeline", _evaluate_arguments, _cmd_evaluate),
    "simulate": ("generate a synthetic experiment", _simulate_arguments, _cmd_simulate),
    "report": ("re-render a saved machine report", _report_arguments, _cmd_report),
}


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        """argparse's, except that a help text that cannot be written raises, as
        ``print`` does, where argparse drops it (stdout closed: it goes to stderr)."""
        file = file or sys.stdout or sys.stderr
        if file is not None:
            file.write(self.format_help())


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``roimeta`` parser. Every subcommand is registered, but only
    ``command``'s gets its arguments; all do when ``command`` names none."""
    parser = _Parser(
        prog="roimeta",
        description="Evaluate a treatment bidding model against control on ROI "
        "across many campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, func) in _SUBCOMMANDS.items():
        sub_parser = sub.add_parser(name, help=help_text)
        if command == name or command not in _SUBCOMMANDS:
            add_arguments(sub_parser)
        sub_parser.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.func(args)
    except (RoimetaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """The ``roimeta`` command: ``main`` as a one-shot process.

    A command keeps what it builds until it exits, so GC is off before the
    subcommand imports its layers, and ``os._exit`` skips the interpreter's
    teardown once stdout and then stderr are flushed, also after argparse's
    ``SystemExit``. A failed stdout flush is reported as ``main`` reports a
    failed write. An uncaught exception leaves through the normal exit."""
    gc.disable()
    try:
        code = main()
    except SystemExit as exc:  # argparse, after its help or usage text
        code = exc.code
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
