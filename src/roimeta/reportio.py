"""Evaluation report rendering: machine JSON (versioned, reparseable) and
human tables.

The machine format is deterministic (sorted keys, repr-exact floats), so the
same report always serializes to identical bytes, and parsing it back yields
an object equal to the original. Decoding is the inverse of ``to_plain``,
driven by the field types of the report dataclasses, so a report field is
declared once, on its dataclass.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import types
import typing
from enum import Enum
from typing import Any, Callable

from .baselines import BaselineDecision
from .errors import SchemaError
from .pipeline import EvaluationReport, Verdict

SCHEMA_VERSION = "1"

REPORT_FORMATS = ("human-table", "machine-json")


def to_plain(obj: Any) -> Any:
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (list, tuple)):
        return [to_plain(item) for item in obj]
    if isinstance(obj, dict):
        return {key: to_plain(value) for key, value in obj.items()}
    return obj


def report_to_dict(report: EvaluationReport) -> dict:
    doc = to_plain(report)
    doc["schema_version"] = SCHEMA_VERSION
    return doc


def report_to_json(report: EvaluationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def _same(value: Any) -> Any:
    return value


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    """The inverse of ``to_plain`` for values annotated ``tp``.

    Raises TypeError for an annotation it cannot invert, so no value is ever
    passed through undecoded by accident.
    """
    if tp in (str, int, float, bool):
        return _same
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp
    if dataclasses.is_dataclass(tp):
        return _dataclass_decoder(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and args[1:] == (Ellipsis,):
        item = _decoder(args[0])
        return tuple if item is _same else lambda doc: tuple(map(item, doc))
    if tp == dict[str, str]:
        return dict
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _decoder(args[0] if args[1] is type(None) else args[1])
        return inner if inner is _same else lambda doc: None if doc is None else inner(doc)
    raise TypeError(f"cannot decode a report value annotated {tp!r}")


def _dataclass_decoder(tp: type) -> Callable[[Any], Any]:
    """Read ``tp`` from an object holding exactly its field names, passing the
    values positionally in field order and decoding only those that need it."""
    hints = typing.get_type_hints(tp)
    names = tuple(f.name for f in dataclasses.fields(tp))
    get = operator.itemgetter(*names)
    if len(names) == 1:  # itemgetter of one key returns the bare value, not a 1-tuple
        get = lambda doc, one=get: (one(doc),)
    decoded = [
        (i, decode) for i, name in enumerate(names)
        if (decode := _decoder(hints[name])) is not _same
    ]

    def from_plain(doc: Any) -> Any:
        # With the count right, ``get`` raises KeyError unless the keys are exact.
        if type(doc) is not dict or len(doc) != len(names):
            raise ValueError(f"{tp.__name__} must be an object with the keys {sorted(names)}")
        values = get(doc)
        if decoded:
            values = list(values)
            for i, decode in decoded:
                values[i] = decode(values[i])
        return tp(*values)

    return from_plain


def report_from_dict(doc: dict) -> EvaluationReport:
    doc = dict(doc)
    version = doc.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported report schema_version {version!r}, expected {SCHEMA_VERSION!r}"
        )
    decode = _decoder(EvaluationReport)
    try:
        return decode(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed report document: {exc}") from None


def report_from_json(text: str) -> EvaluationReport:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid report JSON: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise SchemaError("report document must be a JSON object")
    return report_from_dict(doc)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _homogeneity_note(p_value: float, level: float) -> str:
    verdict = "significant" if p_value < level else "not significant"
    return f"({verdict} at the {level * 100:g}% level)"


def render_human(report: EvaluationReport, homogeneity_level: float = 0.10) -> str:
    q = report.qualification
    lines: list[str] = []
    lines.append("model evaluation report")
    lines.append("=======================")
    lines.append("")
    lines.append("qualification")
    lines.append(
        f"  campaigns: {q.qualified.n} qualified, "
        f"{len(q.disqualified_campaigns)} disqualified "
        f"(fraction {_fmt(q.disqualified_fraction)})"
    )
    lines.append(f"  parts excluded: {len(q.excluded_parts)}")
    lines.append("")
    lines.append("baseline methods")
    lines.append(f"  {'method':<14}{'statistic':>14}{'theta':>14}  decision")
    for b in report.baselines:
        lines.append(
            f"  {b.method.value:<14}{_fmt(b.statistic):>14}"
            f"{_fmt(b.threshold_theta):>14}  {b.decision.value}"
        )
    meta_rejects = report.decision.verdict is not Verdict.ACCEPT
    disagreeing = [
        b.method.value
        for b in report.baselines
        if (b.decision is BaselineDecision.ACCEPT) == meta_rejects
    ]
    if disagreeing:
        lines.append(
            f"  note: {', '.join(disagreeing)} disagree(s) with the meta-analysis verdict"
        )
    lines.append("")
    s = report.significance
    lines.append("random-effects meta-analysis")
    lines.append(
        f"  campaigns analyzed: {report.fixed.n} "
        f"(excluded: {len(report.effect_exclusions)})"
    )
    lines.append(f"  fixed effect:  mu={_fmt(report.fixed.mu)}  nu={_fmt(report.fixed.nu)}")
    h = report.heterogeneity
    lines.append(
        f"  heterogeneity: Q={_fmt(h.q)}  df={h.df}  p_Q={_fmt(h.p_q)}  tau2={_fmt(h.tau2)}  "
        + _homogeneity_note(h.p_q, homogeneity_level)
    )
    lines.append(
        f"  random effect: mu*={_fmt(report.random.mu_star)}  nu*={_fmt(report.random.nu_star)}"
    )
    level_pct = f"{s.confidence_level * 100:g}%"
    lines.append(
        f"  significance:  Z={_fmt(s.z)}  P_z={_fmt(s.p_z)}  "
        f"CI {level_pct} = [{_fmt(s.ci_low)}, {_fmt(s.ci_high)}]  "
        f"significant={'yes' if s.significant else 'no'}"
    )
    lines.append("")
    if report.subgroup is not None:
        g = report.subgroup
        lines.append("subgroup analysis")
        lines.append(
            f"  {'group':<12}{'n':>4}{'mu*':>12}{'ci_low':>12}{'ci_high':>12}"
            f"{'P_z':>10}{'Q*':>12}{'p_Q*':>10}"
        )
        for summary in g.summaries:
            lines.append(
                f"  {summary.group_id:<12}{len(summary.members):>4}"
                f"{_fmt(summary.mu_star_k):>12}{_fmt(summary.ci_low):>12}"
                f"{_fmt(summary.ci_high):>12}{_fmt(summary.p_z_k):>10}"
                f"{_fmt(summary.q_star_k):>12}{_fmt(summary.p_q_star_k):>10}"
            )
        lines.append(
            f"  decomposition: Q*={_fmt(g.q_star_total)}  "
            f"Q*_within={_fmt(g.q_within)}  Q*_between={_fmt(g.q_between)}  "
            f"df={g.df_between}  p_between={_fmt(g.p_between)}  "
            + _homogeneity_note(g.p_between, homogeneity_level)
        )
    else:
        lines.append("subgroup analysis")
        lines.append("  skipped (strong rejection)")
    lines.append("")
    lines.append("decision")
    lines.append(f"  verdict: {report.decision.verdict.value}")
    lines.append(f"  basis: {report.decision.basis}")
    lines.append(
        f"  requires manager approval: {'yes' if report.decision.requires_approval else 'no'}"
    )
    r = report.recommendation
    if r.action == "ramp_up":
        lines.append(f"  traffic recommendation: ramp_up to share {r.next_share:g}")
    else:
        lines.append(f"  traffic recommendation: {r.action}")
    return "\n".join(lines) + "\n"


def render_report(
    report: EvaluationReport,
    output_format: str = "human-table",
    homogeneity_level: float = 0.10,
) -> str:
    """Render a report as an aligned human table or versioned machine JSON.

    ``homogeneity_level`` only annotates the human heterogeneity lines; the
    machine format carries the raw p-values.
    """
    if output_format not in REPORT_FORMATS:
        raise SchemaError(
            f"output_format must be one of {REPORT_FORMATS}, got {output_format!r}"
        )
    if output_format == "machine-json":
        return report_to_json(report)
    return render_human(report, homogeneity_level)
