"""Traced run: one span per call into each layer's public functions.

A traced pass calls the package's own ``pipeline.evaluate`` while the names it
looks up in ``roimeta.pipeline`` (``qualify``, ``aa_calibrate``, the deltas,
``collect_effects``, the meta-analysis chain and the subgroup functions) are
replaced by wrappers that record one span per call (name, start, end,
parent), and while ``roimeta.baselines.HashStream`` is replaced by a subclass
that records the key of every A/A split stream the program opens. Nothing in
the package changes; the originals are put back when the pass ends. Spans
stay in memory and are written out as JSON lines when the run ends.

The pass also times an untraced ``evaluate`` on the same data: the layer
spans subtracted from it leave ``pipeline.unattributed_s``, and the traced
``evaluate`` minus it is the tracing overhead. A fresh CLI decision on the
same file gives ``cli.overhead_s`` and must agree with the traced verdict.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import roimeta.baselines
import roimeta.pipeline
from roimeta.config import load_evaluation_config
from roimeta.dataio import ingest
from roimeta.pipeline import evaluate
from roimeta.randomness import HashStream
from roimeta.reportio import report_from_json, report_to_json
from roimeta.simulate import generate_experiment

from timed import CliRunner, Result, data_path, digest, exit_problems, MIN_DECISIONS
from workloads import STUDY_SEED_STRIDE, Workload, exit_code_for, write_config, write_data

NORMAL_DRAWS = 20_000

# Names ``pipeline.evaluate`` looks up in its module, and the layer span each
# call is recorded under.
PIPELINE_LAYERS = {
    "qualify": "preprocess.qualify",
    "aa_calibrate": "baselines.aa_calibrate",
    "micro_delta": "baselines.deltas",
    "macro_delta": "baselines.deltas",
    "collect_effects": "pipeline.effects",
    "fixed_effect_summary": "meta.combine",
    "heterogeneity_stats": "meta.combine",
    "random_effect_summary": "meta.combine",
    "z_significance": "meta.combine",
    "resolve_subgroups": "subgroups.analysis",
    "subgroup_analysis": "subgroups.analysis",
}
_EVALUATE_LAYERS = sorted(set(PIPELINE_LAYERS.values()))


class Tracer:
    """In-memory span recorder; spans nest through a stack of open spans.

    Every span of one traced pass carries that pass's ``trace`` number.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.trace = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans), "trace": self.trace, "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None, **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record, sort_keys=True) + "\n")


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, call=fn.__name__):
            return fn(*args, **kwargs)
    return traced


def _missing_layers() -> list[str]:
    return [attr for attr in PIPELINE_LAYERS if not hasattr(roimeta.pipeline, attr)]


@contextmanager
def instrumented(tracer: Tracer, split_keys: list[tuple]):
    """Wrap the program's layer calls in spans and record its A/A split keys."""

    class RecordingStream(HashStream):
        __slots__ = ()

        def __init__(self, *key_parts):
            if key_parts and key_parts[0] == "aa-split":
                split_keys.append(key_parts[1:])
            super().__init__(*key_parts)

    originals = {
        attr: getattr(roimeta.pipeline, attr)
        for attr in PIPELINE_LAYERS if hasattr(roimeta.pipeline, attr)
    }
    stream_class = roimeta.baselines.HashStream
    try:
        for attr, fn in originals.items():
            setattr(roimeta.pipeline, attr, _spanned(tracer, PIPELINE_LAYERS[attr], fn))
        roimeta.baselines.HashStream = RecordingStream
        yield
    finally:
        for attr, fn in originals.items():
            setattr(roimeta.pipeline, attr, fn)
        roimeta.baselines.HashStream = stream_class


def _seconds(spans: list[dict], name: str) -> float:
    return sum((s["end"] - s["start"] for s in spans if s["name"] == name), 0.0)


def run_traced(workload: Workload, seed: int, seconds: float, smoke: bool,
               work: Path, runner: CliRunner) -> Result:
    """Repeat traced passes on one input for ``seconds``; report medians."""
    missing = _missing_layers()
    if missing:
        print(f"note: roimeta.pipeline has no {', '.join(missing)}; "
              "those calls are not traced", file=sys.stderr)
    result = Result()
    tracer = Tracer()
    # The study's decisions are in memory; its traced pass still writes and
    # reads a CSV file so that every layer is measured at the study's size.
    input_format = workload.input_format or "delimited-text"
    decision_seed = seed * STUDY_SEED_STRIDE if workload.in_memory else seed
    data = data_path(work, workload)
    config_path, report_path = work / "eval.cfg", work / "report.json"
    expected = workload.expected_verdict
    per_pass: list[dict[str, float]] = []
    cli_digests: set[str] = set()
    text_digests: set[str] = set()
    start = time.perf_counter()
    while len(per_pass) < MIN_DECISIONS or time.perf_counter() - start < seconds:
        first_span = len(tracer.spans)
        tracer.trace = len(per_pass)
        split_keys: list[tuple] = []
        with tracer.span("pass"):
            with tracer.span("simulate.generate"):
                dataset = generate_experiment(workload.sim_config(decision_seed, smoke))
            with tracer.span("dataio.write"):
                write_data(dataset, data, input_format)
            # Hold no more live objects than the CLI does: collector passes
            # scale with the heap and would bill the layers for our leftovers.
            del dataset
            write_config(config_path, decision_seed)
            config = load_evaluation_config(config_path)
            with tracer.span("dataio.ingest") as span:
                ingested = ingest(data, input_format)
            rows = span["rows"] = sum(c.m_a + c.m_b for c in ingested.campaigns)

            with instrumented(tracer, split_keys):
                with tracer.span("pipeline.evaluate", traced=True) as traced_span:
                    traced = evaluate(ingested, config)
            traced_verdict = traced.decision.verdict.value
            qualification = traced.qualification
            parts_kept = sum(c.m_a + c.m_b for c in qualification.qualified.campaigns)
            effects_excluded = len(traced.effect_exclusions)
            del traced, qualification

            t0 = time.perf_counter()
            report = evaluate(ingested, config)
            evaluate_s = time.perf_counter() - t0
            untraced_verdict = report.decision.verdict.value

            with tracer.span("reportio.to_json"):
                text = report_to_json(report)
            with tracer.span("reportio.from_json"):
                report_from_json(text)

            stream = HashStream("perfbench", "normal", decision_seed)
            with tracer.span("randomness.normal_draws", n=NORMAL_DRAWS) as draws:
                for _ in range(NORMAL_DRAWS):
                    stream.normal()

            report_path.unlink(missing_ok=True)
            with tracer.span("cli.evaluate"):
                child = runner.cli(
                    "evaluate", str(data), "--config", str(config_path),
                    "--out", str(report_path), "--input-format", input_format,
                )
        del ingested, report

        problems = []
        for what, verdict in (("traced", traced_verdict), ("untraced", untraced_verdict)):
            if verdict != expected:
                problems.append(f"{what} verdict {verdict}, expected {expected}")
        problems += exit_problems("CLI evaluate", child, exit_code_for(traced_verdict))
        text_digests.add(digest(text.encode("utf-8")))
        del text
        if report_path.is_file():
            cli_digests.add(digest(report_path.read_bytes()))
        else:
            problems.append("CLI evaluate wrote no report")
        if len(text_digests) > 1 or len(cli_digests) > 1:
            problems.append("two decisions on the same input gave different reports")
        result.operation(problems)

        spans = tracer.spans[first_span:]
        ingest_s = _seconds(spans, "dataio.ingest")
        to_json_s = _seconds(spans, "reportio.to_json")
        layer_sum = sum(_seconds(spans, name) for name in _EVALUATE_LAYERS)
        per_pass.append({
            "simulate.generate_s": _seconds(spans, "simulate.generate"),
            "randomness.normal_draw_us": (draws["end"] - draws["start"]) / NORMAL_DRAWS * 1e6,
            "dataio.write_s": _seconds(spans, "dataio.write"),
            "dataio.ingest_s": ingest_s,
            "dataio.ingest_rows": float(rows),
            "preprocess.qualify_s": _seconds(spans, "preprocess.qualify"),
            "preprocess.parts_kept_ratio": parts_kept / rows,
            "baselines.aa_calibrate_s": _seconds(spans, "baselines.aa_calibrate"),
            "baselines.aa_splits_drawn": float(len(split_keys)),
            "baselines.aa_split_reuse": (
                len(set(split_keys)) / len(split_keys) if split_keys else 1.0),
            "baselines.deltas_s": _seconds(spans, "baselines.deltas"),
            "pipeline.effects_s": _seconds(spans, "pipeline.effects"),
            "pipeline.effects_excluded": float(effects_excluded),
            "meta.combine_s": _seconds(spans, "meta.combine"),
            "subgroups.analysis_s": _seconds(spans, "subgroups.analysis"),
            "subgroups.ran": float(sum(
                1 for s in spans if s.get("call") == "subgroup_analysis")),
            "pipeline.evaluate_s": evaluate_s,
            "pipeline.unattributed_s": evaluate_s - layer_sum,
            "trace.overhead_s": (traced_span["end"] - traced_span["start"]) - evaluate_s,
            "reportio.to_json_s": to_json_s,
            "reportio.from_json_s": _seconds(spans, "reportio.from_json"),
            "cli.overhead_s": child.wall_s - (ingest_s + evaluate_s + to_json_s),
        })

    tracer.write(work / "spans.jsonl")
    result.metrics = {
        name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
    }
    note = f"median of {len(per_pass)} traced passes"
    result.notes = {name: note for name in result.metrics}
    return result
