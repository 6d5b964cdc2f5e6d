import dataclasses
import functools
import hashlib
import json
import operator
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_campaign, make_dataset, make_part
from roimeta.campaigns import (
    Arm,
    CampaignExperiment,
    ExperimentDataset,
    PartMeasurement,
    parts_sha256,
    to_micros,
)
from roimeta.errors import SchemaError
from roimeta.pipeline import EvaluationConfig, ExplicitThetas, Verdict, evaluate
from roimeta.preprocess import qualify
from roimeta.reportio import (
    _codec,
    render_report,
    report_from_json,
    report_to_json,
    to_json,
)
from roimeta.simulate import SimConfig, generate_experiment


PART = ("qualification", "excluded_parts", 0)
KEPT = ("qualification", "qualified", "campaigns", 0)
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
        assert report_to_json(report) == indented({**plain(report), "schema_version": "2"})

    def test_roundtrip_equality(self, accept_report, skipped_subgroup_report,
                                report_with_exclusions):
        for report in (accept_report, skipped_subgroup_report, report_with_exclusions):
            assert report_from_json(report_to_json(report)) == report

    def test_serialization_is_byte_stable(self, accept_report):
        assert report_to_json(accept_report) == report_to_json(accept_report)

    def test_carries_schema_version(self, accept_report):
        doc = json.loads(report_to_json(accept_report))
        assert doc["schema_version"] == "2"

    def test_rejects_wrong_schema_version(self, accept_report):
        doc = json.loads(report_to_json(accept_report))
        for version in ("1", "99"):  # no schema-1 reader
            doc["schema_version"] = version
            with pytest.raises(SchemaError, match=f"schema_version '{version}', expected '2'"):
                report_from_json(json.dumps(doc))

    @pytest.mark.parametrize("malform", [
        pytest.param(lambda doc: '{"schema_version": "2"}', id="truncated"),
        pytest.param(lambda doc: "not json at all", id="not-json"),
        pytest.param(edited(PART + ("extra",), 1), id="unknown-key-in-part"),
        pytest.param(edited(("fixed", "extra"), 1), id="unknown-key-in-fixed"),
        pytest.param(edited(PART + ("part_id",), DELETE), id="missing-nested-key"),
        pytest.param(edited(PART + ("arm",), "C"), id="unknown-arm"),
        pytest.param(edited(("decision", "verdict"), "maybe"), id="unknown-verdict"),
        pytest.param(edited(("fixed",), None), id="null-fixed"),
        pytest.param(edited(("baselines",), 5), id="number-for-baselines"),
        pytest.param(edited(SUMMARY + ("members",), "abc"), id="string-for-members"),
        pytest.param(edited(SUMMARY + ("members",), [1, 2]), id="numbers-in-members"),
        pytest.param(edited(("fixed", "mu"), "abc"), id="string-for-mu"),
        pytest.param(edited(("heterogeneity", "df"), True), id="boolean-for-df"),
        pytest.param(edited(KEPT + ("parts_a",), []), id="parts-in-kept-campaign"),
        pytest.param(edited(KEPT + ("m_b",), 2.0), id="number-for-kept-count"),
        pytest.param(edited(("qualification", "qualified", "sha256"), None), id="null-digest"),
        pytest.param(edited(("homogeneity_level",), DELETE), id="missing-homogeneity-level"),
    ])
    def test_rejects_malformed_document(self, malform):
        # a report with parts excluded, campaigns kept and subgroups analysed
        text = malform(json.loads(json.dumps(long_report_doc(1))))
        with pytest.raises(SchemaError):
            report_from_json(text)

    def test_float_field_accepts_an_integer(self, accept_report):
        text = edited(("fixed", "mu"), 0)(json.loads(report_to_json(accept_report)))
        assert report_from_json(text).fixed.mu == 0

    def test_decoder_rejects_unsupported_annotation(self):
        with pytest.raises(TypeError, match="cannot encode or decode"):
            _codec(set[str])
        with pytest.raises(TypeError, match="cannot encode or decode"):
            _codec(dict[str, str])
        # a derived (non-init) field, such as a part's roi, could not be checked
        with pytest.raises(TypeError, match="cannot encode or decode"):
            _codec(PartMeasurement)


def keys_of(value):
    """Every object key anywhere in a plain document."""
    if isinstance(value, dict):
        return set(value).union(*map(keys_of, value.values()))
    if isinstance(value, list):
        return set().union(*map(keys_of, value))
    return set()


class TestQualificationBlock:
    @pytest.mark.parametrize("source", [
        "accept_report", "skipped_subgroup_report", "report_with_exclusions", 1,
    ])
    def test_no_part_table(self, request, source):
        if isinstance(source, int):
            doc = long_report_doc(source)
        else:
            doc = json.loads(report_to_json(request.getfixturevalue(source)))
        assert not keys_of(doc) & {"parts_a", "parts_b", "roi"}

    def test_counts_and_digest_of_the_qualified_parts(self):
        dataset = generate_experiment(SimConfig(
            n_campaigns=12, m_a=25, m_b=25, impressions_per_part_mean=118.0, seed=1,
        ))
        qualified = qualify(dataset).qualified
        record = evaluate(dataset, thetas_config()).qualification.qualified
        assert [(c.campaign_id, c.m_a, c.m_b) for c in record.campaigns] == [
            (c.campaign_id, c.m_a, c.m_b) for c in qualified.campaigns]
        assert record.n == qualified.n
        assert record.sha256 == parts_sha256(qualified)

    def test_report_size_does_not_grow_with_parts(self):
        size = {
            m: len(report_to_json(evaluate(
                generate_experiment(SimConfig(n_campaigns=20, m_a=m, m_b=m, seed=3)),
                thetas_config(),
            )))
            for m in (10, 200)
        }
        assert size[200] <= 1.1 * size[10]

    def test_digest_pins_the_canonical_encoding(self):
        odd = 'a,"b"%s\u00e9\n!'  # an id may hold a newline, but not end with one
        dataset = ExperimentDataset((
            CampaignExperiment(
                odd,
                [make_part(odd, Arm.CONTROL, 3, spend=1.5, value=2.25, impressions=700),
                 make_part(odd, Arm.CONTROL, 1, spend=0.5, value=0.75, impressions=10)],
                [make_part(odd, Arm.TREATMENT, 0, spend=0.000001, value=0.0)],
            ),
        ))
        head = b'"a,\\"b\\"%s\\u00e9\\n!"'
        encoded = (
            head + b",A\n3,1\n700,10\n" + bytes.fromhex(
                "000000000000f83f" "000000000000e03f"  # spends 1.5, 0.5
                "0000000000000240" "000000000000e83f")  # values 2.25, 0.75
            + head + b",B\n0\n1000\n" + bytes.fromhex("8dedb5a0f7c6b03e" "0000000000000000")
        )
        assert parts_sha256(dataset) == hashlib.sha256(encoded).hexdigest()

    def test_digest_moves_with_one_micro_unit_of_spend(self):
        dataset = generate_experiment(SimConfig(n_campaigns=5, seed=9))
        campaign = dataset.campaigns[2]
        part = campaign.parts_b[4]
        moved = dataclasses.replace(part, spend=part.spend + 1e-6)
        assert to_micros(moved.spend) == to_micros(part.spend) + 1
        parts_b = campaign.parts_b[:4] + (moved,) + campaign.parts_b[5:]
        nudged = ExperimentDataset(dataset.campaigns[:2] + (
            CampaignExperiment(campaign.campaign_id, campaign.parts_a, parts_b),
        ) + dataset.campaigns[3:])
        assert parts_sha256(nudged) != parts_sha256(dataset)


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
        tight = render_report(dataclasses.replace(
            accept_report, homogeneity_level=min(p_q / 2, 0.5)), "human-table")
        loose = render_report(dataclasses.replace(
            accept_report, homogeneity_level=min(p_q * 1.5, 0.99)), "human-table")
        assert "not significant at the" in tight
        assert tight != loose

    def test_unknown_format_rejected(self, accept_report):
        with pytest.raises(SchemaError):
            render_report(accept_report, "xml")


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


def mutations(item):
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
    return found


class TestOneDecoder:
    @pytest.mark.parametrize("source", [
        "accept_report", "skipped_subgroup_report", "report_with_exclusions", 1, 2, 3,
    ])
    def test_valid_report_decodes_and_reencodes_to_the_same_bytes(self, request, source):
        if isinstance(source, int):
            text = json.dumps(long_report_doc(source))
        else:
            text = report_to_json(request.getfixturevalue(source))
        assert report_to_json(report_from_json(text)) == indented(json.loads(text))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fault_gives_a_report_or_a_schema_error(self, data):
        doc = json.loads(json.dumps(long_report_doc(data.draw(st.sampled_from([1, 2, 3])))))
        path = data.draw(st.sampled_from(tuples_of_items(doc)))
        items = functools.reduce(operator.getitem, path, doc)
        position = data.draw(st.integers(0, len(items) - 1))
        name, mutate = data.draw(st.sampled_from(mutations(items[position])))
        mutate(items[position])
        result = outcome(json.dumps(doc))  # any other exception fails the test
        if isinstance(result, str):
            assert result.startswith("malformed report document: "), (path, position, name)
        else:
            assert report_to_json(result) == indented(doc), (path, position, name)

    # Messages for a bad excluded part half-way through its list, as the
    # per-item decoder has always worded them.
    @pytest.mark.parametrize("name,message", [
        ("missing-key", "ExcludedPart must be an object with the keys "
                        "['arm', 'campaign_id', 'part_id', 'reason']"),
        ("bool-for-int", "ExcludedPart.part_id must be an integer, not a boolean"),
        ("text-for-value", "ExcludedPart.part_id must be an integer, not a string"),
        ("unknown-arm", "'C' is not a valid Arm"),
    ])
    def test_pinned_messages(self, name, message):
        doc = json.loads(json.dumps(long_report_doc(1)))
        parts = doc["qualification"]["excluded_parts"]
        dict(mutations(parts[12]))[name](parts[12])
        with pytest.raises(SchemaError) as caught:
            report_from_json(json.dumps(doc))
        assert str(caught.value) == f"malformed report document: {message}"
