import dataclasses
import functools
import hashlib
import json
import operator
import struct
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    campaign_from_rows, dv_by_id, dv_pairs, make_campaign, make_dataset, make_part, rows_of,
)
from roimeta.campaigns import (
    Arm,
    ExperimentDataset,
    parts_sha256,
    to_micros,
)
from roimeta.errors import SchemaError
from roimeta.pipeline import Decision, EvaluationConfig, ExplicitThetas, Verdict, evaluate
from roimeta.preprocess import qualify
from roimeta.reportio import (
    _codec,
    render_report,
    report_from_json,
    report_to_json,
    to_json,
)
from roimeta.meta import random_effect_summary, summarize_effects
from roimeta.simulate import SimConfig, generate_experiment
from roimeta.subgroups import GroupAssignment, SubgroupSpec, subgroup_analysis
from test_acceptance import GOLDEN_EVAL, GOLDEN_SIM
from test_simulate import PINNED_SHAPES


PART = ("qualification", "part_exclusions", 0)
KEPT = ("qualification", "qualified", "campaigns", 0)
SUMMARY = ("subgroup", "summaries", 0)
DELETE = object()


def spliced(path, number):
    """Report text with the value at ``path`` replaced by the JSON text ``number``."""
    def edit(doc):
        return edited(path, "@number@")(doc).replace('"@number@"', number)
    return edit


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
    if hasattr(obj, "_fields"):  # a record is a tuple, but written as an object
        return {name: plain(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, (list, tuple)):
        return [plain(item) for item in obj]
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    return obj


def assert_same_classes(decoded, original, path="report"):
    """Each node of ``decoded`` is of the class of the ``original`` node at the
    same place. A record equals any tuple of the same values, so ``==`` alone
    does not show that the decoder built the right classes."""
    assert type(decoded) is type(original), path
    if isinstance(original, tuple):
        assert len(decoded) == len(original), path
        names = getattr(original, "_fields", range(len(original)))
        for name, a, b in zip(names, decoded, original):
            assert_same_classes(a, b, f"{path}.{name}")


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
    thin = campaign_from_rows([
        make_part("thin", Arm.CONTROL, 0, roi=1.0),
        make_part("thin", Arm.TREATMENT, 0, roi=1.0),
    ])
    return evaluate(make_dataset([fine, thin]), thetas_config())


def report_doc(dataset, config=None):
    """The plain document of ``dataset``'s report, made without ``to_json``."""
    report = evaluate(dataset, config or thetas_config())
    return {**plain(report), "schema_version": "5"}


def odd_ids_dataset():
    """Campaign ids that the JSON text must escape."""
    return make_dataset([
        make_campaign(campaign_id, [1.0, 1.2, 0.9], [1.1, 1.3, 1.0 + i / 10])
        for i, campaign_id in enumerate(['say "hi"', "two\nlines", "caf\u00e9 \U0001f4a1",
                                         "back\\slash", "},\n  {"])
    ])


# Documents for the writer: each is built on use, by name.
WRITER_CASES = {
    "one-campaign": lambda: report_doc(make_dataset([
        make_campaign("only", [1.0, 1.2, 0.9], [1.1, 1.3, 1.0])])),
    "200-campaigns": lambda: report_doc(generate_experiment(SimConfig(
        n_campaigns=200, m_a=10, m_b=10, treatment_lift=0.02, seed=5)), EvaluationConfig()),
    "disqualified-and-excluded-parts": lambda: report_doc(generate_experiment(SimConfig(
        n_campaigns=12, m_a=25, m_b=25, treatment_lift=0.05,
        impressions_per_part_mean=118.0, seed=2))),
    "effect-exclusions": lambda: report_doc(make_dataset([
        make_campaign("fine", [1.0, 1.4, 0.9], [1.2, 1.5, 1.0]),
        make_campaign("flat", [1.0, 1.0], [1.0, 1.0]),
        campaign_from_rows([make_part("thin", Arm.CONTROL, 0, roi=1.0),
                            make_part("thin", Arm.TREATMENT, 0, roi=1.0)])])),
    "skipped-subgroups": lambda: report_doc(generate_experiment(SimConfig(
        n_campaigns=15, m_a=6, m_b=6, treatment_lift=-0.2, part_noise_sd=0.08, seed=32))),
    "explicit-theta-ints": lambda: report_doc(
        generate_experiment(SimConfig(n_campaigns=9, m_a=5, m_b=5, seed=31)),
        EvaluationConfig(aa=ExplicitThetas(micro_theta=0, macro_theta=0))),
    "odd-ids": lambda: report_doc(odd_ids_dataset()),
    "empty-dict": lambda: {},
    "empty-list": lambda: [],
    "empties-inside": lambda: {"a": {}, "b": [], "c": [{}], "d": [[]]},
    "list-of-empty-dicts": lambda: [{}, {}],
    "flat-and-empty-dicts": lambda: [{"a": 1}, {}, {"b": [2]}],
    "nested-lists": lambda: [[1, [2, [3, []]]], [[]], [[{"x": None}]]],
    "dicts-holding-lists": lambda: {"k": [1, "two", 3.5], "l": [{"m": [True]}], "z": {"y": []}},
    "nan-in-flat-dict": lambda: {"x": {"a": float("nan")}},
    "inf-in-list-of-flat-dicts": lambda: {"e": [{"v": 1.0}, {"v": float("inf")}]},
    "-inf-in-nested-list": lambda: [[float("-inf")]],
}


class TestMachineFormat:
    @pytest.mark.parametrize("name", sorted(WRITER_CASES))
    def test_writer_is_json_dumps_indent(self, name):
        doc = WRITER_CASES[name]()
        try:
            expected = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:  # a NaN or an infinity, which no JSON text holds
            with pytest.raises(ValueError):
                to_json(doc)
            assert "nan" in name or "inf" in name
            return
        assert to_json(doc) == expected

    @settings(max_examples=400, deadline=None)
    @given(DOCUMENTS)
    def test_writer_matches_json_indent(self, doc):
        try:
            json.dumps(doc, allow_nan=False)
        except ValueError:  # NaN or an infinity, which no JSON text holds
            with pytest.raises(ValueError, match="not JSON compliant"):
                to_json(doc)
            return
        assert to_json(doc) == indented(doc)

    @pytest.mark.parametrize("name", [
        "accept_report", "skipped_subgroup_report", "report_with_exclusions",
    ])
    def test_report_matches_json_indent(self, request, name):
        report = request.getfixturevalue(name)
        assert report_to_json(report) == indented({**plain(report), "schema_version": "5"})

    def test_roundtrip_equality(self, accept_report, skipped_subgroup_report,
                                report_with_exclusions):
        for report in (accept_report, skipped_subgroup_report, report_with_exclusions):
            assert report_from_json(report_to_json(report)) == report

    @pytest.mark.parametrize("source", [
        "accept_report", "skipped_subgroup_report", "report_with_exclusions", "golden",
    ])
    def test_roundtrip_builds_the_same_classes(self, request, source):
        if source == "golden":
            original = evaluate(generate_experiment(GOLDEN_SIM), GOLDEN_EVAL)
            text = GOLDEN_PATH.read_text(encoding="utf-8")
            assert report_to_json(original) == text
        else:
            original = request.getfixturevalue(source)
            text = report_to_json(original)
        decoded = report_from_json(text)
        assert decoded == original
        assert_same_classes(decoded, original)

    def test_serialization_is_byte_stable(self, accept_report):
        assert report_to_json(accept_report) == report_to_json(accept_report)

    def test_carries_schema_version(self, accept_report):
        doc = json.loads(report_to_json(accept_report))
        assert doc["schema_version"] == "5"

    def test_rejects_wrong_schema_version(self, accept_report):
        doc = json.loads(report_to_json(accept_report))
        for version in ("1", "2", "3", "4", "99"):  # one reader, for the current schema
            doc["schema_version"] = version
            with pytest.raises(SchemaError, match=f"schema_version '{version}', expected '5'"):
                report_from_json(json.dumps(doc))

    @pytest.mark.parametrize("malform", [
        pytest.param(lambda doc: '{"schema_version": "5"}', id="truncated"),
        pytest.param(lambda doc: "not json at all", id="not-json"),
        pytest.param(edited(PART + ("extra",), 1), id="unknown-key-in-part"),
        pytest.param(edited(("fixed", "extra"), 1), id="unknown-key-in-fixed"),
        pytest.param(edited(PART + ("zero_spend",), DELETE), id="missing-nested-key"),
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
        # json.dumps writes these floats as the constants NaN, Infinity and -Infinity
        pytest.param(edited(("heterogeneity", "tau2"), float("nan")), id="NaN"),
        pytest.param(edited(("fixed", "mu"), float("inf")), id="Infinity"),
        pytest.param(edited(SUMMARY + ("ci_low",), float("-inf")), id="-Infinity"),
        # numbers that overflow a float, which json.loads would read as infinities
        pytest.param(spliced(("heterogeneity", "tau2"), "1e999"), id="1e999"),
        pytest.param(spliced(SUMMARY + ("ci_low",), "-1e999"), id="-1e999"),
        # integers that no float can hold, which a float field would otherwise take
        pytest.param(spliced(("heterogeneity", "tau2"), "1" + "0" * 400), id="int-1e400"),
        pytest.param(spliced(SUMMARY + ("ci_low",), "-" + "9" * 400), id="-int-9e399"),
        # an integer literal longer than int() converts from text
        pytest.param(spliced(("heterogeneity", "df"), "1" * 5000), id="int-5000-digits"),
    ])
    def test_rejects_malformed_document(self, malform):
        # a report with parts excluded, campaigns kept and subgroups analysed
        text = malform(json.loads(json.dumps(long_report_doc(1))))
        with pytest.raises(SchemaError):
            report_from_json(text)

    def test_float_field_accepts_an_integer(self, accept_report):
        text = edited(("fixed", "mu"), 0)(json.loads(report_to_json(accept_report)))
        assert report_from_json(text).fixed.mu == 0

    def test_integer_thresholds_round_trip(self, accept_report):
        dataset = generate_experiment(SimConfig(n_campaigns=9, m_a=5, m_b=5, seed=31))
        text = report_to_json(evaluate(dataset, EvaluationConfig(
            aa=ExplicitThetas(micro_theta=0, macro_theta=0))))
        assert '"threshold_theta": 0\n' in text
        assert report_to_json(report_from_json(text)) == text

    @pytest.mark.parametrize("path,number,message", [
        (("heterogeneity", "tau2"), "1" + "0" * 400,
         "HeterogeneityStats.tau2 is outside the range of a float"),
        (("audit", "aa", "macro", 0), "-" + "9" * 400,
         "an array item is outside the range of a float"),
        (("audit", "spend_share_observed"), str(2 ** 1024),
         "Audit.spend_share_observed is outside the range of a float"),
    ], ids=["float-field", "tuple-of-floats", "optional-float"])
    def test_integer_too_large_for_a_float(self, path, number, message):
        text = spliced(path, number)(json.loads(GOLDEN_PATH.read_text(encoding="utf-8")))
        with pytest.raises(SchemaError) as caught:
            report_from_json(text)
        assert str(caught.value) == f"malformed report document: {message}"
        largest = str(int(1.7976931348623157e308))  # the largest float, as an integer
        assert report_from_json(spliced(path, largest)(json.loads(text.replace(number, "0"))))

    def test_decoder_rejects_unsupported_annotation(self):
        with pytest.raises(TypeError, match="cannot encode or decode"):
            _codec(set[str])
        with pytest.raises(TypeError, match="cannot encode or decode"):
            _codec(dict[str, str])
        # a report type is a named tuple, so a dataclass is refused: the simulator's
        # config, which no report holds, and a plain one alike
        with pytest.raises(TypeError, match="cannot encode or decode"):
            _codec(SimConfig)

        @dataclasses.dataclass(frozen=True)
        class Plain:
            x: int

        with pytest.raises(TypeError, match="cannot encode or decode"):
            _codec(Plain)


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
        assert not keys_of(doc) & {"parts_a", "parts_b", "roi", "part_id"}

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
        dataset = make_dataset([campaign_from_rows([
            make_part(odd, Arm.CONTROL, 3, spend=1.5, value=2.25, impressions=700),
            make_part(odd, Arm.CONTROL, 1, spend=0.5, value=0.75, impressions=10),
            make_part(odd, Arm.TREATMENT, 0, spend=0.000001, value=0.0),
        ])])
        head = b'"a,\\"b\\"%s\\u00e9\\n!"'
        encoded = (
            head + b",A\n3,1\n700,10\n" + bytes.fromhex(
                "000000000000f83f" "000000000000e03f"  # spends 1.5, 0.5
                "0000000000000240" "000000000000e83f")  # values 2.25, 0.75
            + head + b",B\n0\n1000\n" + bytes.fromhex("8dedb5a0f7c6b03e" "0000000000000000")
        )
        assert parts_sha256(dataset) == hashlib.sha256(encoded).hexdigest()

    def test_digest_writes_large_integers_as_str_does(self):
        big = 2 ** 63
        dataset = make_dataset([campaign_from_rows([
            make_part("c", Arm.CONTROL, big, spend=1.5, value=2.25, impressions=2 ** 64 + 1),
            make_part("c", Arm.CONTROL, 10 ** 40, spend=0.5, value=0.75, impressions=big - 1),
            make_part("c", Arm.TREATMENT, big + 1, spend=2.0, value=1.0, impressions=10 ** 30),
        ])])
        digest = hashlib.sha256()
        for campaign in dataset.campaigns:
            for arm, columns in (("A", campaign.a), ("B", campaign.b)):
                money = [m / 1_000_000 for m in columns.spend_micros + columns.value_micros]
                digest.update(
                    f'"c",{arm}\n{",".join(map(str, columns.part_ids))}\n'
                    f'{",".join(map(str, columns.impressions))}\n'.encode("utf-8")
                    + struct.pack(f"<{len(money)}d", *money))
        assert dataset.campaigns[0].a.part_ids == (big, 10 ** 40)
        assert parts_sha256(dataset) == digest.hexdigest()

    def test_digest_moves_with_one_micro_unit_of_spend(self):
        dataset = generate_experiment(SimConfig(n_campaigns=5, seed=9))
        campaign = dataset.campaigns[2]
        rows = rows_of(campaign)
        row = rows[campaign.m_a + 4]
        rows[campaign.m_a + 4] = (*row[:4], row[4] + 1e-6, row[5])
        moved = campaign_from_rows(rows)
        assert moved.b.spend_micros[4] == to_micros(row[4]) + 1
        assert moved.b.spend_micros[:4] + moved.b.spend_micros[5:] == (
            campaign.b.spend_micros[:4] + campaign.b.spend_micros[5:])
        nudged = ExperimentDataset(dataset.campaigns[:2] + (moved,) + dataset.campaigns[3:])
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

    def test_basis_line_is_the_interval_of_the_verdict(self, accept_report,
                                                        skipped_subgroup_report):
        across = accept_report._replace(
            significance=accept_report.significance._replace(ci_low=-0.25, ci_high=0.5),
            decision=Decision(Verdict.REJECT_INEFFECTIVE))
        for report, where in [(accept_report, "lies entirely above zero"),
                              (skipped_subgroup_report, "lies entirely below zero"),
                              (across, "includes zero")]:
            s = report.significance
            basis = f"CI 95% = [{s.ci_low:.6f}, {s.ci_high:.6f}] {where}"
            assert f"\n  basis: {basis}\n" in render_report(report)

    def test_homogeneity_annotation_follows_level(self, accept_report):
        p_q = accept_report.heterogeneity.p_q
        tight = render_report(accept_report._replace(
            homogeneity_level=min(p_q / 2, 0.5)), "human-table")
        loose = render_report(accept_report._replace(
            homogeneity_level=min(p_q * 1.5, 0.99)), "human-table")
        assert "not significant at the" in tight
        assert tight != loose

    @pytest.mark.parametrize("seed,parts", [(1, 20), (2, 260), (3, 115)])
    def test_counts_the_excluded_parts(self, seed, parts):
        # the counts the schema-2 reports listed one object per part for
        text = render_report(report_from_json(json.dumps(long_report_doc(seed))))
        assert f"\n  parts excluded: {parts}\n" in text

    def test_unknown_format_rejected(self, accept_report):
        with pytest.raises(SchemaError):
            render_report(accept_report, "xml")


GOLDEN_PATH = Path(__file__).parent / "data" / "golden_report.json"

# SHA-256 of ``computed_lines`` as the reports stored these values before they
# were computed on access: the golden report, and the smoke shapes evaluated
# with zero thresholds.
COMPUTED_SHA = {
    "golden": "2392066137ce84802ecfcae94a0a73a848b314489dad677011afef7e5d54d092",
    "deep": "40975662c8de32ce147c5dc9aef97325178ea09bb14a64906941cdc84e345dd1",
    "study": "7793f30c854d0341483ded87bb1687887379d9548423e8b44bdcb4acbfbf3307",
    "wide": "8083892b8d2c9d9ac6ce3618178772a0532d53fa7b47e1c0fe80ac24e61564f0",
}


def computed_lines(report):
    """Each effect's df and its computed correction, w and w_star, as float.hex."""
    tau2 = report.heterogeneity.tau2
    return "\n".join(
        " ".join([e.campaign_id, str(e.df), e.correction.hex(), e.w.hex(), e.w_star(tau2).hex()])
        for e in report.effects)


class TestComputedFields:
    """A decoded report gives back, bit for bit, the values it no longer stores."""

    @staticmethod
    def decoded(request, source):
        if source == "golden":
            return report_from_json(GOLDEN_PATH.read_text(encoding="utf-8"))
        if source in PINNED_SHAPES:
            report = evaluate(generate_experiment(PINNED_SHAPES[source][0]), thetas_config())
        else:
            report = request.getfixturevalue(source)
        return report_from_json(report_to_json(report))

    @pytest.mark.parametrize("source", [
        "accept_report", "skipped_subgroup_report", "report_with_exclusions", "golden",
        *sorted(PINNED_SHAPES),
    ])
    def test_the_expressions_meta_uses(self, request, source):
        report = self.decoded(request, source)
        kept = {c.campaign_id: c for c in report.qualification.qualified.campaigns}
        tau2 = report.heterogeneity.tau2
        for e in report.effects:
            counts = kept[e.campaign_id]
            assert e.df == counts.m_a + counts.m_b - 2
            assert e.correction.hex() == (1.0 - 3.0 / (4.0 * e.df - 1.0)).hex()
            assert e.d.hex() == (e.correction * e.delta).hex()
            assert e.w.hex() == (1.0 / e.v).hex()
            assert e.w_star(tau2).hex() == (1.0 / (e.v + tau2)).hex()
        assert random_effect_summary(dv_pairs(report.effects), tau2) == report.random
        # the subgroups run unless the rejection is harmful
        assert (report.subgroup is None) == (report.decision.verdict is Verdict.REJECT_HARMFUL)
        if report.subgroup is not None:
            groups = [GroupAssignment(s.group_id, s.members) for s in report.subgroup.summaries]
            assert subgroup_analysis(dv_by_id(report.effects), tau2, groups,
                                     report.significance.confidence_level) == report.subgroup

    @pytest.mark.parametrize("source", sorted(COMPUTED_SHA))
    def test_the_values_reports_stored_before(self, request, source):
        text = computed_lines(self.decoded(request, source))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == COMPUTED_SHA[source]


def with_flat_campaign(dataset):
    """``dataset`` plus one campaign whose arms hold one and the same ROI: zero
    pooled spread with equal means, so its ``d`` is 0.0."""
    return ExperimentDataset(dataset.campaigns + (make_campaign("flat", [1.25] * 4, [1.25] * 5),))


def by_label(dataset):
    labels = {c.campaign_id: f"g{i % 3}" for i, c in enumerate(dataset.campaigns)}
    return SubgroupSpec(labels=labels)


# (simulator config, change to its dataset or None, subgroup spec of the dataset)
RECOMPUTED_CASES = {
    "accept": (SimConfig(n_campaigns=9, m_a=5, m_b=5, treatment_lift=0.12,
                         part_noise_sd=0.08, seed=31), None, None),
    "zero-spread-equal-means": (SimConfig(n_campaigns=8, m_a=4, m_b=4, seed=7),
                                with_flat_campaign, None),
    "one-spend-group": (SimConfig(n_campaigns=1, m_a=6, m_b=6, seed=3), None, None),
    "by-label": (SimConfig(n_campaigns=12, seed=5), None, by_label),
    "harmful": (SimConfig(n_campaigns=15, m_a=6, m_b=6, treatment_lift=-0.2,
                          part_noise_sd=0.08, seed=32), None, None),
    "heterogeneous": (SimConfig(n_campaigns=40, m_a=3, m_b=4, campaign_roi_sd=0.5,
                                part_noise_sd=0.3, treatment_lift=0.05, seed=8), None, None),
}


class TestDecodedReportRecomputes:
    """A decoded report computes every value it does not store, bit for bit as
    the report in memory, and the chain over its (d, v) pairs gives the
    report's own summaries."""

    @pytest.mark.parametrize("case", sorted(RECOMPUTED_CASES))
    def test_every_computed_value(self, case):
        sim, change, spec_of = RECOMPUTED_CASES[case]
        dataset = generate_experiment(sim)
        if change is not None:
            dataset = change(dataset)
        config = thetas_config()
        if spec_of is not None:
            config = config._replace(subgroups=spec_of(dataset))
        report = evaluate(dataset, config)
        decoded = report_from_json(report_to_json(report))
        tau2 = report.heterogeneity.tau2
        assert [e.campaign_id for e in decoded.effects] == [e.campaign_id for e in report.effects]
        for got, want in zip(decoded.effects, report.effects):
            for value in ("d", "correction", "w"):
                assert getattr(got, value).hex() == getattr(want, value).hex(), (got, value)
            assert got.w_star(tau2).hex() == want.w_star(tau2).hex()
        got, want = decoded.subgroup, report.subgroup
        # the subgroups run unless the rejection is harmful
        harmful = report.decision.verdict is Verdict.REJECT_HARMFUL
        assert (got is None) == (want is None) == harmful
        if want is not None:
            assert got.q_within.hex() == want.q_within.hex()
            assert got.q_between.hex() == want.q_between.hex()
            assert got.df_between == want.df_between == len(want.summaries) - 1
        pairs = dv_pairs(decoded.effects)
        random = random_effect_summary(pairs, tau2)
        assert random.mu_star.hex() == report.random.mu_star.hex()
        summary = summarize_effects(pairs, report.significance.confidence_level)
        assert summary == (report.fixed, report.heterogeneity, report.random, report.significance)
        if case == "zero-spread-equal-means":
            flat = next(e for e in decoded.effects if e.campaign_id == "flat")
            assert (flat.delta, flat.pooled_sd, flat.d) == (0.0, 0.0, 0.0)
        if case == "one-spend-group":
            assert got.df_between == 0 and got.p_between == 1.0
        if case == "by-label":
            assert [s.group_id for s in got.summaries] == ["g0", "g1", "g2"]


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

    # Messages for a bad exclusion count half-way through its list, as the
    # per-item decoder has always worded them.
    @pytest.mark.parametrize("name,message", [
        ("missing-key", "PartExclusions must be an object with the keys "
                        "['arm', 'campaign_disqualified', 'campaign_id', 'low_impressions', "
                        "'zero_spend']"),
        ("bool-for-int", "PartExclusions.campaign_disqualified must be an integer, "
                         "not a boolean"),
        ("array-for-value", "PartExclusions.campaign_id must be a string, not an array"),
        ("unknown-arm", "'C' is not a valid Arm"),
    ])
    def test_pinned_messages(self, name, message):
        doc = json.loads(json.dumps(long_report_doc(1)))
        parts = doc["qualification"]["part_exclusions"]
        dict(mutations(parts[12]))[name](parts[12])
        with pytest.raises(SchemaError) as caught:
            report_from_json(json.dumps(doc))
        assert str(caught.value) == f"malformed report document: {message}"
