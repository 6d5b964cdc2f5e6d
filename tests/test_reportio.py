import dataclasses
import functools
import json
import operator
from enum import Enum
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_campaign, make_dataset, make_part
from roimeta import reportio
from roimeta.campaigns import Arm, CampaignExperiment
from roimeta.errors import SchemaError
from roimeta.pipeline import EvaluationConfig, ExplicitThetas, Verdict, evaluate
from roimeta.reportio import (
    _codec,
    render_report,
    report_from_json,
    report_to_json,
    to_json,
)
from roimeta.simulate import SimConfig, generate_experiment


PART = ("qualification", "qualified", "campaigns", 0, "parts_a", 0)
SUMMARY = ("subgroup", "summaries", 0)
DELETE = object()


def edited(path, value):
    """Report text with the value at ``path`` replaced, or removed by DELETE."""
    def edit(doc):
        *parents, key = path
        target = functools.reduce(operator.getitem, parents, doc)
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
        return json.dumps(doc)
    return edit


def indented(doc):
    """The reference machine text: json's own (pure-Python) indent encoder."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def plain(obj):
    """Reference value-driven conversion of a report to a plain document."""
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [plain(item) for item in obj]
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    return obj


# Strings that a broken re-indent or escape would trip over.
TRICKY = st.sampled_from(
    ['"', "\\", "\n", "},\n  {", "},\n    {", ",\n", "é", "\u2028", "💡"]
)
TEXT = st.text(max_size=4) | TRICKY | st.lists(TRICKY | st.text(max_size=2), max_size=3).map("".join)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
FLAT_DICTS = st.dictionaries(TEXT, SCALARS, min_size=1, max_size=4)
DOCUMENTS = st.recursive(
    SCALARS | FLAT_DICTS | st.lists(FLAT_DICTS, min_size=1, max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=40,
)


def thetas_config(**kwargs):
    return EvaluationConfig(aa=ExplicitThetas(micro_theta=0.0, macro_theta=0.0), **kwargs)


@pytest.fixture(scope="module")
def accept_report():
    dataset = generate_experiment(SimConfig(
        n_campaigns=9, m_a=5, m_b=5, treatment_lift=0.12, part_noise_sd=0.08, seed=31,
    ))
    return evaluate(dataset, thetas_config())


@pytest.fixture(scope="module")
def skipped_subgroup_report():
    dataset = generate_experiment(SimConfig(
        n_campaigns=15, m_a=6, m_b=6, treatment_lift=-0.2, part_noise_sd=0.08, seed=32,
    ))
    report = evaluate(dataset, thetas_config())
    assert report.decision.verdict is Verdict.REJECT_HARMFUL
    assert report.subgroup is None
    return report


@pytest.fixture(scope="module")
def report_with_exclusions():
    fine = make_campaign("fine", [1.0, 1.4, 0.9], [1.2, 1.5, 1.0])
    thin = CampaignExperiment(
        "thin",
        [make_part("thin", Arm.CONTROL, 0, roi=1.0)],
        [make_part("thin", Arm.TREATMENT, 0, roi=1.0)],
    )
    return evaluate(make_dataset([fine, thin]), thetas_config())


class TestMachineFormat:
    @settings(max_examples=400, deadline=None)
    @given(DOCUMENTS)
    def test_writer_matches_json_indent(self, doc):
        assert to_json(doc) == indented(doc)

    @pytest.mark.parametrize("name", [
        "accept_report", "skipped_subgroup_report", "report_with_exclusions",
    ])
    def test_report_matches_json_indent(self, request, name):
        report = request.getfixturevalue(name)
        assert report_to_json(report) == indented({**plain(report), "schema_version": "1"})

    def test_roundtrip_equality(self, accept_report, skipped_subgroup_report,
                                report_with_exclusions):
        for report in (accept_report, skipped_subgroup_report, report_with_exclusions):
            assert report_from_json(report_to_json(report)) == report

    def test_serialization_is_byte_stable(self, accept_report):
        assert report_to_json(accept_report) == report_to_json(accept_report)

    def test_carries_schema_version(self, accept_report):
        doc = json.loads(report_to_json(accept_report))
        assert doc["schema_version"] == "1"

    def test_rejects_wrong_schema_version(self, accept_report):
        doc = json.loads(report_to_json(accept_report))
        doc["schema_version"] = "99"
        with pytest.raises(SchemaError, match="schema_version"):
            report_from_json(json.dumps(doc))

    @pytest.mark.parametrize("malform", [
        pytest.param(lambda doc: '{"schema_version": "1"}', id="truncated"),
        pytest.param(lambda doc: "not json at all", id="not-json"),
        pytest.param(edited(PART + ("extra",), 1), id="unknown-key-in-part"),
        pytest.param(edited(("fixed", "extra"), 1), id="unknown-key-in-fixed"),
        pytest.param(edited(PART + ("spend",), DELETE), id="missing-nested-key"),
        pytest.param(edited(PART + ("arm",), "C"), id="unknown-arm"),
        pytest.param(edited(("decision", "verdict"), "maybe"), id="unknown-verdict"),
        pytest.param(edited(("fixed",), None), id="null-fixed"),
        pytest.param(edited(("baselines",), 5), id="number-for-baselines"),
        pytest.param(edited(SUMMARY + ("members",), "abc"), id="string-for-members"),
        pytest.param(edited(SUMMARY + ("members",), [1, 2]), id="numbers-in-members"),
        pytest.param(edited(("fixed", "mu"), "abc"), id="string-for-mu"),
        pytest.param(edited(("heterogeneity", "df"), True), id="boolean-for-df"),
        pytest.param(edited(("qualification", "qualified", "metadata"), {"source": 1}),
                     id="number-in-metadata"),
        pytest.param(edited(PART + ("roi",), 0.5), id="roi-not-value-over-spend"),
        pytest.param(edited(PART + ("spend",), 1e303), id="spend-too-large-to-quantize"),
    ])
    def test_rejects_malformed_document(self, accept_report, malform):
        text = malform(json.loads(report_to_json(accept_report)))
        with pytest.raises(SchemaError):
            report_from_json(text)

    def test_float_field_accepts_an_integer(self, accept_report):
        text = edited(("fixed", "mu"), 0)(json.loads(report_to_json(accept_report)))
        assert report_from_json(text).fixed.mu == 0

    def test_decoder_rejects_unsupported_annotation(self):
        with pytest.raises(TypeError, match="cannot encode or decode"):
            _codec(set[str])


class TestHumanFormat:
    def test_rendering_is_deterministic(self, accept_report):
        assert render_report(accept_report) == render_report(accept_report)

    def test_shows_method_rows_and_verdict(self, accept_report):
        text = render_report(accept_report, "human-table")
        for token in ("micro", "macro", "macro_median", "verdict: accept",
                      "heterogeneity:", "ramp_up"):
            assert token in text

    def test_marks_skipped_subgroup(self, skipped_subgroup_report):
        text = render_report(skipped_subgroup_report)
        assert "skipped (strong rejection)" in text

    def test_homogeneity_annotation_follows_level(self, accept_report):
        p_q = accept_report.heterogeneity.p_q
        tight = render_report(accept_report, "human-table", homogeneity_level=min(p_q / 2, 0.5))
        loose = render_report(accept_report, "human-table",
                              homogeneity_level=min(p_q * 1.5, 0.99))
        assert "not significant at the" in tight
        assert tight != loose

    def test_unknown_format_rejected(self, accept_report):
        with pytest.raises(SchemaError):
            render_report(accept_report, "xml")


def per_item(item, docs):
    """The batch decoder's fallback alone: each item through its own decoder."""
    return tuple(map(item.from_plain, docs))


def batch_only(item, docs):
    """The batch decoder alone, with no fallback."""
    return item.from_plain_many(docs)


def outcome(text):
    """The decoded report, or the SchemaError message."""
    try:
        return report_from_json(text)
    except SchemaError as exc:
        return str(exc)


@functools.cache
def long_report_doc(seed):
    """A report with long tuples of parts, campaigns, exclusions and effects:
    impressions near the qualification floor exclude parts and campaigns."""
    dataset = generate_experiment(SimConfig(
        n_campaigns=12, m_a=25, m_b=25, treatment_lift=0.05,
        impressions_per_part_mean=118.0, seed=seed,
    ))
    return json.loads(report_to_json(evaluate(dataset, thetas_config())))


def tuples_of_items(doc):
    """Paths to every non-empty array of objects in a report document."""
    paths = []

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, path + (key,))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            paths.append(path)
            for i, item in enumerate(value):
                walk(item, path + (i,))

    walk(doc, ())
    return paths


def mutations(item, neighbour):
    """Each listed fault that applies to ``item``, as (name, edit) pairs."""
    key = sorted(item)[len(item) // 2]
    found = [
        ("missing-key", lambda d: d.pop(key)),
        ("extra-key", lambda d: d.update(extra=1)),
        ("renamed-key", lambda d: d.update({key + "_": d.pop(key)})),
        ("array-for-value", lambda d: d.update({key: []})),
        ("text-for-value", lambda d: d.update({key: "x"})),
        ("object-for-value", lambda d: d.update({key: {}})),
    ]
    ints = sorted(k for k, v in item.items() if type(v) is int)
    if ints:
        found.append(("bool-for-int", lambda d: d.update({ints[0]: True})))
    if "arm" in item:
        found.append(("unknown-arm", lambda d: d.update(arm="C")))
    if "roi" in item:
        found.append(("roi-disagrees", lambda d: d.update(roi=(d["roi"] or 1.0) * 2)))
    if "spend" in item:
        found.append(("negative-spend", lambda d: d.update(spend=-1.0)))
    if "part_id" in item and neighbour is not None:
        found.append(("duplicate-part-id", lambda d: d.update(part_id=neighbour["part_id"])))
    return found


class TestBatchDecoder:
    @pytest.mark.parametrize("source", [
        "accept_report", "skipped_subgroup_report", "report_with_exclusions", 1, 2, 3,
    ])
    def test_batch_alone_decodes_valid_reports(self, request, source):
        if isinstance(source, int):
            text = json.dumps(long_report_doc(source))
        else:
            text = report_to_json(request.getfixturevalue(source))
        with mock.patch.object(reportio, "_decode_items", batch_only):
            report = report_from_json(text)
        with mock.patch.object(reportio, "_decode_items", per_item):
            assert report == report_from_json(text)
        assert report_to_json(report) == indented(json.loads(text))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_report_or_same_error_as_per_item(self, data):
        doc = json.loads(json.dumps(long_report_doc(data.draw(st.sampled_from([1, 2, 3])))))
        path = data.draw(st.sampled_from(tuples_of_items(doc)))
        items = functools.reduce(operator.getitem, path, doc)
        position = data.draw(st.integers(0, len(items) - 1))
        neighbour = items[position - 1] if position else None
        name, mutate = data.draw(st.sampled_from(mutations(items[position], neighbour)))
        mutate(items[position])
        text = json.dumps(doc)
        with mock.patch.object(reportio, "_decode_items", per_item):
            expected = outcome(text)
        assert outcome(text) == expected, (path, position, name)

    # Messages for a bad part half-way through an arm, as the per-item
    # decoder has always worded them.
    @pytest.mark.parametrize("name,message", [
        ("missing-key", "PartMeasurement must be an object with the keys "
                        "['arm', 'campaign_id', 'impressions', 'part_id', 'roi', 'spend', 'value']"),
        ("bool-for-int", "PartMeasurement.impressions must be an integer, not a boolean"),
        ("text-for-value", "PartMeasurement.part_id must be an integer, not a string"),
        ("unknown-arm", "'C' is not a valid Arm"),
        ("negative-spend", "spend must be finite and >= 0, got -1.0"),
        ("duplicate-part-id", "duplicate part_id 11 in campaign 'camp_00' arm B"),
    ])
    def test_pinned_messages(self, name, message):
        doc = json.loads(json.dumps(long_report_doc(1)))
        parts = doc["qualification"]["qualified"]["campaigns"][0]["parts_b"]
        dict(mutations(parts[12], parts[11]))[name](parts[12])
        with pytest.raises(SchemaError) as caught:
            report_from_json(json.dumps(doc))
        assert str(caught.value) == f"malformed report document: {message}"
