import json

import pytest

from roimeta.campaigns import Arm
from roimeta import dataio
from roimeta.dataio import (
    CSV_FIELDS,
    ingest,
    render_dataset_csv,
    write_dataset,
    write_text_atomic,
)
from roimeta.errors import IngestError
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
    # duplicate key.
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
