import csv
import io
import json
import math
import os
import stat
from enum import IntEnum

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from roimeta.baselines import AaSettings
from roimeta.campaigns import (
    MAX_AMOUNT, MICROS_PER_UNIT, Arm, CampaignExperiment, ExperimentDataset, from_micros,
)
from roimeta import dataio
from roimeta.dataio import (
    CSV_FIELDS,
    dataset_from_rows,
    ingest,
    render_dataset_csv,
    write_dataset,
    write_text_atomic,
)
from roimeta.errors import IngestError
from roimeta.pipeline import EvaluationConfig, evaluate
from roimeta.reportio import report_to_json
from roimeta.simulate import SimConfig, generate_experiment

HEADER = "campaign_id,arm,part_id,impressions,spend,value"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestCsvIngest:
    def test_single_row(self, tmp_path):
        path = write(tmp_path, "d.csv", f"{HEADER}\ncamp1,B,0,1500,12.50,20.00\n")
        dataset = ingest(path)
        part = dataset.campaigns[0].parts_b[0]
        assert part.campaign_id == "camp1"
        assert part.arm is Arm.TREATMENT
        assert part.roi == 1.6

    def test_grouping_shape(self, tmp_path):
        rows = [HEADER]
        for cid in ("c1", "c2"):
            for arm in ("A", "B"):
                for pid in range(3):
                    rows.append(f"{cid},{arm},{pid},1000,2.0,2.5")
        dataset = ingest(write(tmp_path, "d.csv", "\n".join(rows) + "\n"))
        assert dataset.n == 2
        assert all(c.m_a == 3 and c.m_b == 3 for c in dataset.campaigns)

    def test_unknown_arm_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "d.csv", f"{HEADER}\ncamp1,C,0,10,1.0,1.0\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest(path)

    def test_negative_spend_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", f"{HEADER}\ncamp1,A,0,10,-1.0,1.0\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest(path)

    def test_duplicate_part_key_rejected(self, tmp_path):
        body = f"{HEADER}\ncamp1,A,0,10,1.0,1.0\ncamp1,A,0,10,1.0,1.0\n"
        with pytest.raises(IngestError, match="duplicate part"):
            ingest(write(tmp_path, "d.csv", body))

    def test_malformed_row_names_line(self, tmp_path):
        body = f"{HEADER}\ncamp1,A,0,10,1.0,1.0\ncamp1,A,1,10,1.0\n"
        with pytest.raises(IngestError, match="line 3"):
            ingest(write(tmp_path, "d.csv", body))

    def test_wrong_header_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="header"):
            ingest(write(tmp_path, "d.csv", "a,b,c\n1,2,3\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="no such file"):
            ingest(tmp_path / "absent.csv")

    def test_bad_part_id(self, tmp_path):
        path = write(tmp_path, "d.csv", f"{HEADER}\ncamp1,A,x,10,1.0,1.0\n")
        with pytest.raises(IngestError, match="part_id"):
            ingest(path)


class TestJsonlIngest:
    def test_record_lines(self, tmp_path):
        records = [
            {"campaign_id": "c1", "arm": "A", "part_id": 0,
             "impressions": 100, "spend": 1.0, "value": 2.0},
            {"campaign_id": "c1", "arm": "B", "part_id": 0,
             "impressions": 100, "spend": 1.0, "value": 2.5},
        ]
        text = "\n".join(json.dumps(r) for r in records) + "\n"
        dataset = ingest(write(tmp_path, "d.jsonl", text), "record-lines")
        assert dataset.campaigns[0].parts_b[0].roi == 2.5

    def test_invalid_json_names_line(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"campaign_id": "c1",\n')
        with pytest.raises(IngestError, match="line 1"):
            ingest(path, "record-lines")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(IngestError, match="input_format"):
            ingest(write(tmp_path, "d.csv", HEADER + "\n"), "parquet")


class TestWriteTextAtomic:
    @pytest.mark.parametrize("slice_chars", [1, 3, 7, 1 << 20])
    def test_sliced_write_gives_the_whole_text_bytes(self, tmp_path, monkeypatch, slice_chars):
        monkeypatch.setattr(dataio, "_WRITE_CHARS", slice_chars)
        # multi-byte characters straddle every small slice boundary
        text = "".join(f"{i},é€😀\r\n" for i in range(500)) + "x" * 3000
        path = tmp_path / "out.txt"
        for body in (text, "", "a"):
            write_text_atomic(path, body)
            assert path.read_bytes() == body.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_file_mode_is_open_default_under_the_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            write_text_atomic(tmp_path / "out.txt", "x")
            with open(tmp_path / "plain.txt", "w", encoding="utf-8") as handle:
                handle.write("x")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == mode
        assert stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == mode

    def test_does_not_touch_the_process_umask(self, tmp_path, monkeypatch):
        # setting the umask to read it would leave other threads' files
        # without it for a moment
        def umask(mask):
            raise AssertionError("write_text_atomic changed the process umask")

        monkeypatch.setattr(os, "umask", umask)
        write_text_atomic(tmp_path / "out.txt", "ok")
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "ok"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_unencodable_text_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(path, "ok" * 10 + "\ud800")
        assert list(tmp_path.iterdir()) == []


class TestRoundTrip:
    def test_write_then_ingest_preserves_parts(self, tmp_path):
        dataset = generate_experiment(SimConfig(n_campaigns=4, m_a=3, m_b=3, seed=17))
        path = tmp_path / "out.csv"
        write_dataset(dataset, path)
        loaded = ingest(path)
        assert loaded.n == dataset.n
        for original, parsed in zip(dataset.campaigns, loaded.campaigns):
            assert parsed.campaign_id == original.campaign_id
            for p0, p1 in zip(original.parts_a + original.parts_b,
                              parsed.parts_a + parsed.parts_b):
                assert (p1.part_id, p1.arm, p1.impressions) == (
                    p0.part_id, p0.arm, p0.impressions
                )
                assert p1.spend == p0.spend
                assert p1.value == p0.value

    def test_rendering_is_deterministic(self):
        dataset = generate_experiment(SimConfig(n_campaigns=3, seed=8))
        assert render_dataset_csv(dataset) == render_dataset_csv(dataset)

    def test_quoted_campaign_id_roundtrips(self, tmp_path):
        from conftest import make_campaign, make_dataset

        dataset = make_dataset([make_campaign("camp,with,commas", [1.0, 1.1], [0.9, 1.0])])
        path = tmp_path / "quoted.csv"
        write_dataset(dataset, path)
        loaded = ingest(path)
        assert loaded.campaigns[0].campaign_id == "camp,with,commas"


# --- the ingest error contract ------------------------------------------------
# Recorded before the two formats shared one row path: each case gives the
# rows of a file and, per format, the exact message of the IngestError that
# the row at ``bad`` raises. CSV numbers its header as line 1.

FORMATS = ("delimited-text", "record-lines")
ABSENT = object()  # key left out of a record; an empty field in CSV
GOOD = ("c1", "A", 0, 1000, 1.5, 2.0)


def row(**changes):
    fields = dict(zip(CSV_FIELDS, GOOD))
    fields.update(changes)
    return tuple(fields.values())


def render_rows(input_format, rows):
    """File text for ``rows``: 6-tuples of raw values, or literal lines."""
    lines = [HEADER] if input_format == "delimited-text" else []
    for r in rows:
        if isinstance(r, str):
            lines.append(r)
        elif input_format == "delimited-text":
            lines.append(",".join("" if v is ABSENT else str(v) for v in r))
        else:
            lines.append(json.dumps({f: v for f, v in zip(CSV_FIELDS, r) if v is not ABSENT}))
    return "\n".join(lines) + "\n"


def line_of(input_format, index):
    return index + (2 if input_format == "delimited-text" else 1)


NAN, INF = float("nan"), float("inf")
ERROR_CASES = [
    # (id, rows, index of the faulty row, {format: message})
    ("empty-field", [GOOD, row(spend="")], 1, dict.fromkeys(FORMATS, "missing field(s): spend")),
    ("absent-fields", [row(impressions=ABSENT, value=ABSENT)], 0,
     dict.fromkeys(FORMATS, "missing field(s): impressions, value")),
    ("null-arm", [row(arm=None)], 0, {
        "delimited-text": "arm must be 'A' or 'B', got 'None'",
        "record-lines": "missing field(s): arm",
    }),
    ("blank-campaign-id", [row(campaign_id="  ")], 0,
     dict.fromkeys(FORMATS, "campaign_id must be non-empty")),
    ("arm-c", [row(arm="C")], 0, dict.fromkeys(FORMATS, "arm must be 'A' or 'B', got 'C'")),
    ("part-id-x", [row(part_id="x")], 0,
     dict.fromkeys(FORMATS, "part_id must be an integer, got 'x'")),
    ("part-id-negative", [row(part_id=-1)], 0,
     dict.fromkeys(FORMATS, "part_id must be >= 0, got -1")),
    ("part-id-boolean", [row(part_id=True)], 0, {
        "delimited-text": "part_id must be an integer, got 'True'",
        "record-lines": "part_id must be an integer, got True",
    }),
    ("fractional-impressions", [row(impressions=1.5)], 0, {
        "delimited-text": "impressions must be an integer, got '1.5'",
        "record-lines": "impressions must be an integer, got 1.5",
    }),
    ("nan-spend", [row(spend=NAN)], 0,
     dict.fromkeys(FORMATS, "spend must be finite and >= 0, got nan")),
    ("text-nan-spend", [row(spend="nan")], 0,
     dict.fromkeys(FORMATS, "spend must be finite and >= 0, got nan")),
    ("negative-spend", [row(spend=-1)], 0,
     dict.fromkeys(FORMATS, "spend must be finite and >= 0, got -1.0")),
    ("infinite-value", [row(value=INF)], 0,
     dict.fromkeys(FORMATS, "value must be finite and >= 0, got inf")),
    ("spend-too-large-to-quantize", [GOOD, row(part_id=1, spend=1e303)], 1,
     dict.fromkeys(FORMATS, "spend is too large to quantize, got 1e+303")),
    ("value-too-large-to-quantize", [GOOD, row(part_id=1, value=1e303)], 1,
     dict.fromkeys(FORMATS, "value is too large to quantize, got 1e+303")),
    ("text-money", [row(spend="1.0x")], 0, {
        "delimited-text": "spend must be a decimal number, got '1.0x'",
        "record-lines": "spend must be a decimal number, got '1.0x'",
    }),
    ("duplicate-part", [GOOD, row(impressions=5)], 1,
     dict.fromkeys(FORMATS, "duplicate part: campaign 'c1' arm A part_id 0")),
    ("wrong-column-count", [GOOD, "c1,A,1,1000,1.5"], 1,
     {"delimited-text": "expected 6 columns, got 5"}),
    ("non-object", ["[1, 2]"], 0, {"record-lines": "each line must be a JSON object"}),
    ("invalid-json", ['{"campaign_id": "c1",'], 0,
     {"record-lines": "invalid JSON: Expecting property name enclosed in double quotes"}),
    ("not-json", ["c1,A,0,1000,1.5,2.0"], 0, {"record-lines": "invalid JSON: Expecting value"}),
    ("extra-data", [GOOD, json.dumps(dict(zip(CSV_FIELDS, GOOD))) + " {}"], 1,
     {"record-lines": "invalid JSON: Extra data"}),
    ("bom-on-a-later-line",
     [GOOD, "\ufeff" + json.dumps(dict(zip(CSV_FIELDS, row(part_id=1))))], 1,
     {"record-lines": "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"}),
    # When a row has several faults, the first check in this order wins:
    # missing fields, campaign_id, arm, part_id, impressions, spend, value,
    # either amount too large to quantize, duplicate key.
    ("missing-before-arm", [row(arm="C", value="")], 0,
     dict.fromkeys(FORMATS, "missing field(s): value")),
    ("campaign-before-arm", [row(campaign_id=" ", arm="C")], 0,
     dict.fromkeys(FORMATS, "campaign_id must be non-empty")),
    ("arm-before-part-id", [row(arm="C", part_id="x", spend=NAN)], 0,
     dict.fromkeys(FORMATS, "arm must be 'A' or 'B', got 'C'")),
    ("part-id-before-impressions", [row(part_id="x", impressions=1.5)], 0,
     dict.fromkeys(FORMATS, "part_id must be an integer, got 'x'")),
    ("impressions-before-spend", [row(impressions=-2, spend=-1)], 0,
     dict.fromkeys(FORMATS, "impressions must be >= 0, got -2")),
    ("spend-before-value", [row(spend=-1, value=INF)], 0,
     dict.fromkeys(FORMATS, "spend must be finite and >= 0, got -1.0")),
    ("value-before-duplicate", [GOOD, row(value=-2)], 1,
     dict.fromkeys(FORMATS, "value must be finite and >= 0, got -2.0")),
    ("value-text-before-spend-too-large", [row(spend=1e303, value="abc")], 0,
     dict.fromkeys(FORMATS, "value must be a decimal number, got 'abc'")),
    ("value-range-before-spend-too-large", [row(spend=1e303, value=NAN)], 0,
     dict.fromkeys(FORMATS, "value must be finite and >= 0, got nan")),
    ("spend-too-large-before-value-too-large", [row(spend=1e303, value=1e303)], 0,
     dict.fromkeys(FORMATS, "spend is too large to quantize, got 1e+303")),
    ("first-faulty-row-wins", [GOOD, row(part_id=1, impressions=-3), row(arm="C")], 1,
     dict.fromkeys(FORMATS, "impressions must be >= 0, got -3")),
    ("blank-lines-count", [GOOD, "", "   ", row(part_id=1, arm="C")], 3,
     dict.fromkeys(FORMATS, "arm must be 'A' or 'B', got 'C'")),
]


class TestIngestErrorContract:
    @pytest.mark.parametrize(
        "input_format, rows, bad, message",
        [
            pytest.param(fmt, rows, bad, messages[fmt], id=f"{case}-{fmt}")
            for case, rows, bad, messages in ERROR_CASES
            for fmt in FORMATS if fmt in messages
        ],
    )
    def test_exact_error(self, tmp_path, input_format, rows, bad, message):
        path = write(tmp_path, "d.txt", render_rows(input_format, rows))
        with pytest.raises(IngestError) as caught:
            ingest(path, input_format)
        line = line_of(input_format, bad)
        assert caught.value.line == line
        assert str(caught.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("rows, bad, message", [
        pytest.param(rows, bad, messages["record-lines"], id=case)
        for case, rows, bad, messages in ERROR_CASES
        if "record-lines" in messages
        and all(isinstance(r, tuple) and ABSENT not in r for r in rows)
    ])
    def test_exact_error_in_memory(self, rows, bad, message):
        """Rows in memory are checked as record-lines are, and row n is line n."""
        with pytest.raises(IngestError) as caught:
            dataset_from_rows(rows)
        assert caught.value.line == bad + 1
        assert str(caught.value) == f"line {bad + 1}: {message}"

    def test_integer_literal_too_long_to_convert(self, tmp_path):
        # json.loads converts an integer literal with int(), which refuses one of
        # more than sys.get_int_max_str_digits() digits with a bare ValueError
        digits = "1" * 5000
        refusal = str(pytest.raises(ValueError, int, digits).value)
        text = render_rows("record-lines", [GOOD, row(part_id=1)])
        path = write(tmp_path, "d.jsonl", text.replace('"part_id": 1,', f'"part_id": {digits},'))
        with pytest.raises(IngestError) as caught:
            ingest(path, "record-lines")
        assert (caught.value.line, str(caught.value)) == (2, f"line 2: invalid JSON: {refusal}")

    @pytest.mark.parametrize("input_format, message", [
        ("delimited-text", f"header must be {HEADER}, got \ufeff{HEADER}"),
        ("record-lines", "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ])
    def test_leading_bom(self, tmp_path, input_format, message):
        path = write(tmp_path, "d.txt", "\ufeff" + render_rows(input_format, [GOOD]))
        with pytest.raises(IngestError) as caught:
            ingest(path, input_format)
        assert (caught.value.line, str(caught.value)) == (1, f"line 1: {message}")

    @pytest.mark.parametrize("input_format", FORMATS)
    def test_blank_lines_and_padding_are_ignored(self, tmp_path, input_format):
        rows = ["", row(campaign_id=" c1 ", arm=" B "), "  ", row(part_id=1), ""]
        dataset = ingest(write(tmp_path, "d.txt", render_rows(input_format, rows)), input_format)
        (campaign,) = dataset.campaigns
        assert campaign.campaign_id == "c1"
        assert [(p.arm, p.part_id) for p in campaign.parts_a + campaign.parts_b] == [
            (Arm.CONTROL, 1), (Arm.TREATMENT, 0),
        ]

    def test_record_values_are_read_as_text(self, tmp_path):
        record = {"campaign_id": 7, "arm": "A", "part_id": "3", "impressions": " 100 ",
                  "spend": "2.5", "value": 5}
        dataset = ingest(write(tmp_path, "d.jsonl", json.dumps(record) + "\n"), "record-lines")
        part = dataset.campaigns[0].parts_a[0]
        assert (part.campaign_id, part.part_id, part.impressions, part.spend, part.value) == (
            "7", 3, 100, 2.5, 5.0,
        )


class TestPaddedCampaignId:
    """An id with leading or trailing whitespace is refused by the campaign
    constructor and stripped by ingest and by ``dataset_from_rows``, so every
    input form of a dataset gives one id."""

    def test_constructor_refuses_and_rows_and_files_strip(self, tmp_path):
        dataset = generate_experiment(SimConfig(n_campaigns=3, seed=5))
        first = dataset.campaigns[0]
        with pytest.raises(ValueError) as caught:
            CampaignExperiment(" padded ", first.a, first.b)
        assert str(caught.value) == "campaign_id ' padded ' has leading or trailing whitespace"

        config = EvaluationConfig(aa=AaSettings(seed=1))
        renamed = ExperimentDataset(
            (CampaignExperiment("padded", first.a, first.b),) + dataset.campaigns[1:])
        expected = report_to_json(evaluate(renamed, config))
        text = render_dataset_csv(dataset).replace("\ncamp_0,", '\n" padded ",')
        assert text.count('" padded "') == first.m_a + first.m_b
        rows = [(row[0], row[1], int(row[2]), int(row[3]), float(row[4]), float(row[5]))
                for row in list(csv.reader(io.StringIO(text)))[1:]]
        records = "".join(json.dumps(dict(zip(CSV_FIELDS, row))) + "\n" for row in rows)
        for loaded in (ingest(write(tmp_path, "d.csv", text)),
                       ingest(write(tmp_path, "d.jsonl", records), "record-lines"),
                       dataset_from_rows(rows)):
            assert [c.campaign_id for c in loaded.campaigns] == ["padded", "camp_1", "camp_2"]
            assert report_to_json(evaluate(loaded, config)) == expected


# --- the row path against the object path it replaced -------------------------

def base_text(raw):
    """A value's text: a ``str`` subclass reads as its characters, an ``int`` or
    ``float`` subclass as its base type's value, and a ``bool`` as ``True``/``False``."""
    if isinstance(raw, str):
        return "".join(raw)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return str((int if isinstance(raw, int) else float)(raw))
    return str(raw)


def reference_dataset(rows):
    """The row path that built a ``PartMeasurement`` per row: its checks in
    their order, money quantised and ROI derived as the part did, grouped by
    campaign (first seen) and arm; each part as ids and float bits. A field is
    read through ``base_text``."""

    def parse_int(raw, name, line):
        try:
            number = int(base_text(raw).strip())
        except (TypeError, ValueError):
            raise IngestError(f"{name} must be an integer, got {raw!r}", line) from None
        if number < 0:
            raise IngestError(f"{name} must be >= 0, got {number}", line)
        return number

    def parse_money(raw, name, line):
        try:
            amount = float(base_text(raw).strip())
        except (TypeError, ValueError):
            raise IngestError(f"{name} must be a decimal number, got {raw!r}", line) from None
        if not math.isfinite(amount) or amount < 0:
            raise IngestError(f"{name} must be finite and >= 0, got {amount}", line)
        return amount

    by_campaign = {}
    for line, fields in rows:
        if None in fields or "" in fields:
            missing = [name for name, raw in zip(CSV_FIELDS, fields) if raw in (None, "")]
            raise IngestError(f"missing field(s): {', '.join(missing)}", line)
        campaign_id, arm_tag, part_id, impressions, spend, value = fields
        campaign_id = base_text(campaign_id).strip()
        if not campaign_id:
            raise IngestError("campaign_id must be non-empty", line)
        arm_tag = base_text(arm_tag).strip()
        if arm_tag not in ("A", "B"):
            raise IngestError(f"arm must be 'A' or 'B', got {arm_tag!r}", line)
        part_id = parse_int(part_id, "part_id", line)
        impressions = parse_int(impressions, "impressions", line)
        spend = parse_money(spend, "spend", line)
        value = parse_money(value, "value", line)
        for name, amount in (("spend", spend), ("value", value)):
            if MAX_AMOUNT < amount < math.inf:
                raise IngestError(f"{name} is too large to quantize, got {amount!r}", line)
        spend = round(spend * MICROS_PER_UNIT) / MICROS_PER_UNIT
        value = round(value * MICROS_PER_UNIT) / MICROS_PER_UNIT
        parts = by_campaign.setdefault(campaign_id, {"A": {}, "B": {}})[arm_tag]
        if part_id in parts:
            raise IngestError(
                f"duplicate part: campaign {campaign_id!r} arm {arm_tag} part_id {part_id}", line)
        parts[part_id] = (part_id, impressions, spend.hex(), value.hex(),
                          (value / spend).hex() if spend else None)
    return [(campaign_id, [(tag, list(arms[tag].values())) for tag in "AB"])
            for campaign_id, arms in by_campaign.items()]


def column_rows(dataset):
    """``reference_dataset``'s shape, read from the columns."""
    return [(c.campaign_id, [
        (tag, [(part_id, impressions, from_micros(spend).hex(), from_micros(value).hex(),
                None if roi is None else roi.hex())
               for part_id, impressions, spend, value, roi in zip(*columns)])
        for tag, columns in (("A", c.a), ("B", c.b))]) for c in dataset.campaigns]


def view_rows(dataset):
    """``reference_dataset``'s shape, read from the part views."""
    return [(c.campaign_id, [
        (tag, [(p.part_id, p.impressions, p.spend.hex(), p.value.hex(),
                None if p.roi is None else p.roi.hex()) for p in parts])
        for tag, parts in (("A", c.parts_a), ("B", c.parts_b))]) for c in dataset.campaigns]


def check_of(message):
    """An error message without its line prefix and the value it shows."""
    return message.split(": ", 1)[1].split(", got ")[0]


def outcome(read):
    try:
        return read()
    except IngestError as exc:
        return "IngestError", exc.line, str(exc)


VALID_FIELDS = (
    st.sampled_from(["c1", "c2", "c3"]),
    st.sampled_from(["A", "B"]),
    st.sampled_from([0, 100]),
    st.integers(0, 5000),
    st.one_of(st.floats(0.0, 1e6), st.just(0.0)),
    st.one_of(st.floats(0.0, 1e6), st.just(0.0)),
)


class Label(str):
    pass


class Count(int):
    pass


class Money(float):
    pass


class Seven(IntEnum):  # its str() is "Seven.SEVEN" before Python 3.11, "7" from 3.11
    SEVEN = 7


class LoudCount(int):
    def __str__(self):
        return "loud"


class LoudLabel(str):
    def __str__(self):
        return "loud"


class LoudMoney(float):
    def __str__(self):
        return "loud"


# Subclasses of the exact types fail the one-test fast path of a typed row.
ODD_ID = st.sampled_from([" c1 ", "c2\t", " c3", "", "  ", "c,4", 'c"5', 7, True, 1.5,
                          None, Label("c1"), Label(" c2 ")])
ODD_ARM = st.sampled_from([" B ", "A\t", "C", "a", "", None, 1, True, ["A"]])
ODD_COUNT = st.one_of(
    st.integers(-3, -1),
    st.sampled_from([True, False, 1.0, 2.5, "3", " 2 ", "1_0", "+1", "٣", "x", "1e3",
                     "", None, 10**20, -(10**20), Count(4), Count(-1)]),
)
ODD_MONEY = st.one_of(
    st.floats(),  # NaN, infinities and negatives included
    st.floats(1e290, 1.8e302),
    st.sampled_from([
        -0.0, -1.0, NAN, INF, -INF, MAX_AMOUNT, math.nextafter(MAX_AMOUNT, INF), 1e303,
        5e-7, 1.5e-6, 5, 0, True, False, 10**303, 10**400, -(10**400),
        "2.5", " 1.5 ", "nan", "NaN", "Infinity", "-inf", "1e400", "1_000.5", "abc", "",
        None, Money(2.5), Money(-0.0), Money(NAN), Money(MAX_AMOUNT),
    ]),
)
ODD_FIELDS = (ODD_ID, ODD_ARM, ODD_COUNT, ODD_COUNT, ODD_MONEY, ODD_MONEY)


@st.composite
def raw_rows(draw):
    """Valid rows with distinct part ids, some repeating the key before them;
    at most two rows have one to three odd fields."""
    count = draw(st.integers(1, 8))
    odd_rows = draw(st.sets(st.integers(0, count - 1), max_size=2))
    rows = []
    for index in range(count):
        row = [draw(strategy) for strategy in VALID_FIELDS]
        row[2] += index
        if rows and draw(st.integers(0, 19)) == 0:
            row[:3] = rows[-1][:3]
        if index in odd_rows:
            fields = st.sampled_from([0, 1, 2, 3, 4, 4, 5, 5])  # money twice as often
            for field in draw(st.sets(fields, min_size=1, max_size=3)):
                row[field] = draw(ODD_FIELDS[field])
        rows.append(row)
    return rows


def render_raw(input_format, rows):
    out = io.StringIO()
    if input_format == "delimited-text":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(rows)
    else:
        for row in rows:
            out.write(json.dumps(dict(zip(CSV_FIELDS, row))) + "\n")
    return out.getvalue()


def reference_record_lines(path):
    """Record-lines as ``json.loads`` reads each non-blank line: a dict's six
    fields by ``.get``, or the first line's ``IngestError``."""
    with open(path, encoding="utf-8") as handle:
        for line, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise IngestError(f"invalid JSON: {exc.msg}", line) from None
            except RecursionError:
                raise IngestError("invalid JSON: nested too deeply", line) from None
            except ValueError as exc:
                raise IngestError(f"invalid JSON: {exc}", line) from None
            if not isinstance(record, dict):
                raise IngestError("each line must be a JSON object", line)
            yield line, tuple(record.get(name) for name in CSV_FIELDS)


GOOD_LINE = render_rows("record-lines", [GOOD])
LONG_INT = "1" * 5000


class TestRowPathParity:
    """Ingest, and ``dataset_from_rows`` given the same raw rows, give the
    columns, part views and first error of the object path."""

    @pytest.mark.parametrize("text, line, message", [
        (GOOD_LINE + render_rows("record-lines", [row(part_id=1, value=ABSENT)]), 2,
         "missing field(s): value"),
        (GOOD_LINE.replace("}", ', "note": "x"}'), None, None),
        (GOOD_LINE + "[1, 2]\n", 2, "each line must be a JSON object"),
        (GOOD_LINE + "5\n", 2, "each line must be a JSON object"),
        (GOOD_LINE + '"c1"\n', 2, "each line must be a JSON object"),
        (GOOD_LINE + "null\n", 2, "each line must be a JSON object"),
        (GOOD_LINE + "x\n", 2, "invalid JSON: Expecting value"),
        (GOOD_LINE + "{\n", 2, "invalid JSON: Expecting property name enclosed in double quotes"),
        ("\ufeff" + GOOD_LINE, 1, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (GOOD_LINE + "{} {}\n", 2, "invalid JSON: Extra data"),
        (GOOD_LINE + GOOD_LINE.replace('"part_id": 0', f'"part_id": {LONG_INT}'), 2,
         f"invalid JSON: {pytest.raises(ValueError, int, LONG_INT).value}"),
        (GOOD_LINE + "[" * 100_000 + "]" * 100_000 + "\n", 2, "invalid JSON: nested too deeply"),
        (GOOD_LINE + render_rows("record-lines", [row(campaign_id=None, part_id=1, spend=None)]),
         2, "missing field(s): campaign_id, spend"),
    ], ids=["missing-key", "extra-key", "array-line", "number-line", "string-line", "null-line",
            "x", "open-brace", "leading-bom", "two-objects", "int-5000-digits",
            "nested-100000-deep", "null-fields"])
    def test_record_line_cases(self, tmp_path, text, line, message):
        """Ingest reads each record-line as ``json.loads`` and ``.get`` read it;
        an extra key is ignored."""
        path = write(tmp_path, "d.jsonl", text)
        expected = outcome(lambda: reference_dataset(reference_record_lines(path)))
        if message is None:
            assert expected == reference_dataset([(1, GOOD)])
        else:
            assert expected == ("IngestError", line, f"line {line}: {message}")
        assert outcome(lambda: column_rows(ingest(path, "record-lines"))) == expected

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(FORMATS), raw_rows())
    def test_same_columns_or_error(self, tmp_path, input_format, rows):
        path = write(tmp_path, "rows.txt", render_raw(input_format, rows))
        reader = reference_record_lines if input_format == "record-lines" else dataio._rows_from_csv
        expected = outcome(lambda: reference_dataset(reader(path)))
        assert outcome(lambda: column_rows(ingest(path, input_format))) == expected
        if expected[0] != "IngestError":
            assert view_rows(ingest(path, input_format)) == expected
        # Memory gives record-lines' outcome, since JSON gives back the values;
        # "line n" is row n, one less than the CSV line.
        memory = outcome(lambda: column_rows(dataset_from_rows(rows)))
        assert memory == outcome(lambda: reference_dataset(enumerate(rows, 1)))
        if expected[0] != "IngestError" or input_format == "record-lines":
            assert memory == expected
        else:  # CSV holds a value as text: it shows 'True' where memory shows True
            assert memory[:2] == ("IngestError", expected[1] - 1)
            assert check_of(memory[2]) == check_of(expected[2])

    @pytest.mark.parametrize("row, plain", [
        (("c1", "A", Seven.SEVEN, 10, 1.0, 1.0), ("c1", "A", 7, 10, 1.0, 1.0)),
        (("c1", "A", 7, LoudCount(10), 1.0, 1.0), ("c1", "A", 7, 10, 1.0, 1.0)),
        ((LoudLabel(" c1"), LoudLabel("B"), 7, 10, LoudMoney(2.5), 1.0),
         ("c1", "B", 7, 10, 2.5, 1.0)),
        (("c1", "A", True, 10, 1.0, 1.0), "line 1: part_id must be an integer, got True"),
        (("c1", "A", 7, 10, False, 1.0), "line 1: spend must be a decimal number, got False"),
    ], ids=["int-enum", "int-str", "str-and-float-str", "bool-count", "bool-money"])
    def test_a_subclass_reads_as_its_base_value(self, tmp_path, row, plain):
        """A subclass of ``str``, ``int`` or ``float`` in memory reads as its base
        type's value, whatever its ``__str__``, as JSON writes it; a ``bool`` does not."""
        expected = (("IngestError", 1, plain) if isinstance(plain, str)
                    else column_rows(dataset_from_rows([plain])))
        assert outcome(lambda: column_rows(dataset_from_rows([row]))) == expected
        assert outcome(lambda: reference_dataset(enumerate([row], 1))) == expected
        path = write(tmp_path, "d.jsonl", json.dumps(dict(zip(CSV_FIELDS, row))) + "\n")
        assert outcome(lambda: column_rows(ingest(path, "record-lines"))) == expected
