"""Evaluation report rendering: machine JSON (versioned, reparseable) and
human tables.

The machine format is deterministic (sorted keys, repr-exact floats), so the
same report always serializes to identical bytes, and parsing it back yields
an object equal to the original. Encoding and decoding are both driven by the
field types of the report dataclasses (``_codec``), so a report field is
declared once, on its dataclass.

Each dataclass has one encoder and one decoder, applied item by item to a
tuple of dataclasses; the decoder is the only place that words an error.
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

SCHEMA_VERSION = "2"

REPORT_FORMATS = ("human-table", "machine-json")

# The types ``json.loads`` gives a value of each scalar annotation. A float
# field also takes an int: ``ExplicitThetas(micro_theta=0)`` writes one.
_SCALAR_JSON_TYPES = {str: (str,), bool: (bool,), int: (int,), float: (float, int)}

_JSON_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean",
    type(None): "null", list: "an array", dict: "an object",
}


def _same(value: Any) -> Any:
    return value


class _Codec(typing.NamedTuple):
    json_types: frozenset  # the types json.loads may give such a value
    to_plain: Callable[[Any], Any]
    from_plain: Callable[[Any], Any]


def _json_type_error(where: str, allowed: frozenset, value: Any) -> TypeError:
    kinds = {_JSON_NAMES[t] for t in allowed}
    if float in allowed:
        kinds.discard("an integer")
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    return TypeError(f"{where} must be {' or '.join(sorted(kinds))}, not {got}")


def _or_none(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return convert if convert is _same else lambda v: None if v is None else convert(v)


@functools.cache
def _codec(tp: Any) -> _Codec:
    """How a value annotated ``tp`` becomes a plain JSON value and back.

    Raises TypeError for an annotation it cannot invert, so no value is ever
    passed through unconverted or unchecked by accident.
    """
    if tp in _SCALAR_JSON_TYPES:
        return _Codec(frozenset(_SCALAR_JSON_TYPES[tp]), _same, _same)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return _Codec(frozenset(type(m.value) for m in tp), operator.attrgetter("_value_"), tp)
    if dataclasses.is_dataclass(tp) and all(f.init for f in dataclasses.fields(tp)):
        return _dataclass_codec(tp)  # a derived (non-init) field could not be checked
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and args[1:] == (Ellipsis,):
        return _tuple_codec(_codec(args[0]))
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _codec(args[0] if args[1] is type(None) else args[1])
        return _Codec(
            inner.json_types | {type(None)}, _or_none(inner.to_plain), _or_none(inner.from_plain)
        )
    raise TypeError(f"cannot encode or decode a report value annotated {tp!r}")


def _tuple_codec(item: _Codec) -> _Codec:
    """A tuple is written as a JSON array and read only from one (the
    enclosing dataclass checks that), with every item of the item's type."""
    def from_plain(doc: list) -> tuple:
        if not item.json_types.issuperset(map(type, doc)):
            bad = next(v for v in doc if type(v) not in item.json_types)
            raise _json_type_error("an array item", item.json_types, bad)
        return tuple(doc) if item.from_plain is _same else tuple(map(item.from_plain, doc))

    to_plain = list if item.to_plain is _same else lambda v: list(map(item.to_plain, v))
    return _Codec(frozenset({list}), to_plain, from_plain)


def _dataclass_codec(tp: type) -> _Codec:
    """Write ``tp`` as an object of its fields, converting only the fields
    that need it. Read it from an object holding exactly its field names,
    each of its field's JSON type, decoding only those that need it, and pass
    the fields positionally in field order."""
    hints = typing.get_type_hints(tp)
    names = tuple(f.name for f in dataclasses.fields(tp))
    codecs = [_codec(hints[name]) for name in names]
    json_types = tuple(c.json_types for c in codecs)
    attrs, items = operator.attrgetter(*names), operator.itemgetter(*names)
    if len(names) == 1:  # a getter of one name returns the bare value, not a 1-tuple
        attrs = lambda obj, one=attrs: (one(obj),)
        items = lambda doc, one=items: (one(doc),)
    encoded = [(i, c.to_plain) for i, c in enumerate(codecs) if c.to_plain is not _same]
    decoded = [(i, c.from_plain) for i, c in enumerate(codecs) if c.from_plain is not _same]

    def to_plain(obj: Any) -> dict:
        values = attrs(obj)
        if encoded:
            values = list(values)
            for i, encode in encoded:
                values[i] = encode(values[i])
        return dict(zip(names, values))

    def from_plain(doc: Any) -> Any:
        # With the count right, ``items`` raises KeyError unless the keys are exact.
        if type(doc) is not dict or len(doc) != len(names):
            raise ValueError(f"{tp.__name__} must be an object with the keys {sorted(names)}")
        values = items(doc)
        if not all(map(operator.contains, json_types, map(type, values))):
            i = next(i for i, v in enumerate(values) if type(v) not in json_types[i])
            raise _json_type_error(f"{tp.__name__}.{names[i]}", json_types[i], values[i])
        if decoded:
            values = list(values)
            for i, decode in decoded:
                values[i] = decode(values[i])
        return tp(*values)

    return _Codec(frozenset({dict}), to_plain, from_plain)


def to_plain(obj: Any) -> dict:
    """A report dataclass as a plain document: enums as their values, tuples
    as lists, nested dataclasses as objects."""
    return _codec(type(obj)).to_plain(obj)


def to_json(doc: Any) -> str:
    """The machine text of a plain document: sorted keys, two-space indent."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_to_json(report: EvaluationReport) -> str:
    doc = to_plain(report)
    doc["schema_version"] = SCHEMA_VERSION
    return to_json(doc)


def report_from_dict(doc: dict) -> EvaluationReport:
    doc = dict(doc)
    version = doc.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported report schema_version {version!r}, expected {SCHEMA_VERSION!r}"
        )
    decode = _codec(EvaluationReport).from_plain
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


def render_human(report: EvaluationReport) -> str:
    q = report.qualification
    lines = ["model evaluation report", "=======================", "", "qualification"]
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
        + _homogeneity_note(h.p_q, report.homogeneity_level)
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
            + _homogeneity_note(g.p_between, report.homogeneity_level)
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


def render_report(report: EvaluationReport, output_format: str = "human-table") -> str:
    """Render a report as an aligned human table or versioned machine JSON.

    The human heterogeneity lines are marked against the report's own
    ``homogeneity_level``, the level the evaluation was configured with.
    """
    if output_format not in REPORT_FORMATS:
        raise SchemaError(
            f"output_format must be one of {REPORT_FORMATS}, got {output_format!r}"
        )
    if output_format == "machine-json":
        return report_to_json(report)
    return render_human(report)
