"""Evaluation report rendering: machine JSON (versioned, reparseable) and
human tables.

The machine format is compact, deterministic JSON (one line, sorted keys,
repr-exact floats), so the same report always serializes to identical bytes,
and parsing it back yields an object equal to the original. It is strict
JSON: the writer refuses a non-finite float and the reader the ``NaN`` and
``Infinity`` constants, a number too large for a float, such as ``1e999``,
and in a float field an integer too large for one.
Encoding and decoding are both driven by the field types of the report's named
tuples (``_codec``), so a report field is declared once, on its named tuple in
``records``. The codec has one rule for computed values: only named-tuple
fields are stored, so a value that ``records`` computes from them (a property
such as ``EffectSize.d`` or ``SubgroupReport.q_within``) is never written, and
a decoded report computes it again from the same fields.

A tuple of named tuples is a table: one object with one array per field, its
column, all of one length, so a key is written once per table, not once per row.
Each named tuple has one encoder and one decoder, which a table runs over its
columns; the decoder is the only place that words an error.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import types
import typing
from enum import Enum
from typing import Any, Callable

from .errors import SchemaError
from .records import BaselineDecision, EvaluationReport, Verdict

SCHEMA_VERSION = "7"

# The types ``json.loads`` gives a value of each scalar annotation. A float
# field also takes an int that a float can hold: ``ExplicitThetas(micro_theta=0)``
# writes one.
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


def _check_value(where: str, allowed: frozenset, value: Any) -> None:
    """Refuse a value of a type ``allowed`` does not hold, and in a float field
    an int that no float can hold: every reader computes with it as a float."""
    if type(value) not in allowed:
        kinds = {_JSON_NAMES[t] for t in allowed}
        if float in allowed:
            kinds.discard("an integer")
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise TypeError(f"{where} must be {' or '.join(sorted(kinds))}, not {got}")
    if type(value) is int and float in allowed:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{where} is outside the range of a float") from None


def _floats_only(allowed: frozenset) -> frozenset:
    """``allowed`` without the ints a float field takes: the types for which
    ``_check_value`` has nothing to refuse."""
    return allowed - {int} if float in allowed else allowed


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
    # A computed value is a property, not a field, so it is never written and a
    # decoded report computes it again.
    if isinstance(tp, type) and issubclass(tp, tuple) and hasattr(tp, "_fields"):
        return _record_codec(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and args[1:] == (Ellipsis,):
        if hasattr(args[0], "_fields"):  # a tuple of records is a table
            return _record_codec(args[0], table=True)
        return _tuple_codec(_codec(args[0]))
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _codec(args[0] if args[1] is type(None) else args[1])
        return _Codec(
            inner.json_types | {type(None)}, _or_none(inner.to_plain), _or_none(inner.from_plain)
        )
    raise TypeError(f"cannot encode or decode a report value annotated {tp!r}")


@functools.cache  # the columns of every table share one codec per item type
def _tuple_codec(item: _Codec, where: str = "an array item") -> _Codec:
    """A tuple is written as a JSON array and read only from one (the
    enclosing record checks that), with every item of the item's type."""
    plain_types = _floats_only(item.json_types)

    def from_plain(doc: list) -> tuple:
        if not plain_types.issuperset(map(type, doc)):
            for value in doc:
                _check_value(where, item.json_types, value)
        return tuple(doc) if item.from_plain is _same else tuple(map(item.from_plain, doc))

    to_plain = list if item.to_plain is _same else lambda v: list(map(item.to_plain, v))
    return _Codec(frozenset({list}), to_plain, from_plain)


def _record_codec(tp: type, table: bool = False) -> _Codec:
    """Write the named tuple ``tp`` as an object of its fields, converting only
    the fields that need it. Read it from an object holding exactly its field
    names, each of its field's JSON type, decoding only those that need it, and
    pass the fields positionally in field order. The field types are the class's
    own evaluated annotations: ``records`` postpones none. A ``table`` of them
    runs the same over the columns, and builds the rows from columns of one length."""
    names = tp._fields
    fields = [_codec(tp.__annotations__[name]) for name in names]
    codecs = list(map(_tuple_codec, fields)) if table else fields
    json_types, encoders, decoders = zip(*codecs)
    plain_types = tuple(map(_floats_only, json_types))
    items = operator.itemgetter(*names)
    if len(names) == 1:  # a getter of one name returns the bare value, not a 1-tuple
        items = lambda doc, one=items: (one(doc),)
    encoded = [(i, encode) for i, encode in enumerate(encoders) if encode is not _same]
    decoded = [(i, decode) for i, decode in enumerate(decoders) if decode is not _same]

    def to_plain(obj: Any) -> dict:
        values = (tuple(zip(*obj)) or ((),) * len(names)) if table else obj
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
        if not all(map(operator.contains, plain_types, map(type, values))):
            for name, allowed, value in zip(names, json_types, values):
                _check_value(f"{tp.__name__}.{name}", allowed, value)
        if decoded:
            values = list(values)
            for i, decode in decoded:
                try:
                    values[i] = decode(values[i])
                except (TypeError, ValueError):
                    if table:  # decode the column again, to name it in the error
                        _tuple_codec(fields[i], f"{tp.__name__}.{names[i]}").from_plain(values[i])
                    raise
        if not table:
            return tp(*values)
        for name, column in zip(names, values):
            if len(column) != len(values[0]):
                raise ValueError(f"{tp.__name__}.{name} must have {len(values[0])} items, "
                                 f"as {tp.__name__}.{names[0]} has, not {len(column)}")
        return tuple(map(tp, *values))

    return _Codec(frozenset({dict}), to_plain, from_plain)


def to_plain(obj: Any) -> dict:
    """A report record as a plain document: enums as their values, tuples
    as lists, nested records as objects and tuples of records as tables."""
    return _codec(type(obj)).to_plain(obj)


def to_json(doc: Any) -> str:
    """A plain document (as ``to_plain`` and ``json.loads`` make it) as compact
    JSON with sorted keys on one line. A non-finite float raises ValueError, as
    JSON has no such number."""
    return json.dumps(doc, sort_keys=True, allow_nan=False, separators=(",", ":")) + "\n"


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


def _refuse_constant(name: str) -> float:
    raise SchemaError(f"invalid report JSON: {name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise SchemaError(f"invalid report JSON: {text} is outside the range of a float")
    return value


def report_from_json(text: str) -> EvaluationReport:
    try:
        doc = json.loads(text, parse_constant=_refuse_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid report JSON: {exc.msg}") from None
    except RecursionError:
        raise SchemaError("invalid report JSON: nested too deeply") from None
    except ValueError as exc:  # an integer literal longer than int() converts
        raise SchemaError(f"invalid report JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("report document must be a JSON object")
    return report_from_dict(doc)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _homogeneity_note(p_value: float, level: float) -> str:
    verdict = "significant" if p_value < level else "not significant"
    return f"({verdict} at the {level * 100:g}% level)"


# Where each verdict's interval lies (``pipeline.decide``)
_BASIS = {
    Verdict.ACCEPT: "lies entirely above zero",
    Verdict.REJECT_HARMFUL: "lies entirely below zero",
    Verdict.REJECT_INEFFECTIVE: "includes zero",
}


def render_human(report: EvaluationReport) -> str:
    """The report as an aligned human table. Its heterogeneity lines are marked
    against the report's own ``homogeneity_level``."""
    q = report.qualification
    lines = ["model evaluation report", "=======================", "", "qualification"]
    lines.append(
        f"  campaigns: {q.qualified.n} qualified, "
        f"{len(q.disqualified_campaigns)} disqualified "
        f"(fraction {_fmt(q.disqualified_fraction)})"
    )
    lines.append(f"  parts excluded: {sum(x.n for x in q.part_exclusions)}")
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
    interval = f"CI {s.confidence_level * 100:g}% = [{_fmt(s.ci_low)}, {_fmt(s.ci_high)}]"
    lines.append(f"  significance:  Z={_fmt(s.z)}  P_z={_fmt(s.p_z)}  {interval}")
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
    lines.append(f"  basis: {interval} {_BASIS[report.decision.verdict]}")
    lines.append(
        f"  requires manager approval: {'yes' if report.decision.requires_approval else 'no'}"
    )
    r = report.recommendation
    if r.action == "ramp_up":
        lines.append(f"  traffic recommendation: ramp_up to share {r.next_share:g}")
    else:
        lines.append(f"  traffic recommendation: {r.action}")
    if report.audit.warnings:
        lines.extend(["", "warnings"])
        lines.extend(f"  {warning}" for warning in report.audit.warnings)
    return "\n".join(lines) + "\n"

