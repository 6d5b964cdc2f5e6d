"""Reading and writing part-level experiment data.

Two interchangeable formats carry the same six fields per part:

* ``delimited-text`` -- UTF-8 CSV with the exact header
  ``campaign_id,arm,part_id,impressions,spend,value``; arm is ``A`` or ``B``,
  spend and value are decimal strings, one row per part.
* ``record-lines`` -- one JSON object per line with the same keys, each value
  read through its text as a CSV field is; ``null`` counts as missing.

Both feed one row path that turns each non-blank line's six raw fields into a
``PartMeasurement`` and groups parts by campaign (first-seen order) and arm.
The first fault raises ``IngestError`` with its file line (blank lines count;
the CSV header is line 1); within a line the first failing check wins: the
line itself (JSON syntax, an object, CSV column count), missing or empty
fields (all listed), ``campaign_id``, arm, ``part_id``, ``impressions``,
``spend``, ``value``, then a duplicate (campaign, arm, part_id) key. Part ROI
is value/spend wherever spend is positive. Writes are temp file + rename.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .campaigns import Arm, CampaignExperiment, ExperimentDataset, PartMeasurement
from .errors import IngestError

CSV_FIELDS = ("campaign_id", "arm", "part_id", "impressions", "spend", "value")
INPUT_FORMATS = ("delimited-text", "record-lines")

_ARM_BY_TAG = {"A": Arm.CONTROL, "B": Arm.TREATMENT}
_DECODER = json.JSONDecoder()


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write a file via temp-then-rename so readers never see partial content."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _parse_int(raw: object, field: str, line: int) -> int:
    try:
        value = int(str(raw).strip())
    except (TypeError, ValueError):
        raise IngestError(f"{field} must be an integer, got {raw!r}", line) from None
    if value < 0:
        raise IngestError(f"{field} must be >= 0, got {value}", line)
    return value


def _parse_money(raw: object, field: str, line: int) -> float:
    try:
        value = float(str(raw).strip())
    except (TypeError, ValueError):
        raise IngestError(f"{field} must be a decimal number, got {raw!r}", line) from None
    if not math.isfinite(value) or value < 0:
        raise IngestError(f"{field} must be finite and >= 0, got {value}", line)
    return value


def _rows_from_csv(path: Path) -> Iterator[tuple[int, list[str]]]:
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("empty file, expected a header row", 1) from None
        if tuple(h.strip() for h in header) != CSV_FIELDS:
            raise IngestError(
                f"header must be {','.join(CSV_FIELDS)}, got {','.join(header)}", 1
            )
        for line, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(CSV_FIELDS):
                raise IngestError(
                    f"expected {len(CSV_FIELDS)} columns, got {len(row)}", line
                )
            yield line, row


def _rows_from_jsonl(path: Path) -> Iterator[tuple[int, tuple[object, ...]]]:
    with path.open(encoding="utf-8") as handle:
        for line, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record, end = _DECODER.raw_decode(raw)
            except json.JSONDecodeError as exc:
                # json.loads' messages; it rejects a leading BOM before parsing
                bom = raw[0] == "\ufeff"
                message = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if bom else exc.msg
                raise IngestError(f"invalid JSON: {message}", line) from None
            if end != len(raw):
                raise IngestError("invalid JSON: Extra data", line)
            if not isinstance(record, dict):
                raise IngestError("each line must be a JSON object", line)
            yield line, tuple(map(record.get, CSV_FIELDS))


def _dataset_from_rows(rows: Iterable[tuple[int, Sequence[object]]]) -> ExperimentDataset:
    """Validate (line, six raw fields) rows into parts grouped by campaign and arm."""
    by_campaign: dict[str, dict[str, dict[int, PartMeasurement]]] = {}
    for line, fields in rows:
        if None in fields or "" in fields:
            missing = [name for name, raw in zip(CSV_FIELDS, fields) if raw in (None, "")]
            raise IngestError(f"missing field(s): {', '.join(missing)}", line)
        campaign_id, arm_tag, part_id, impressions, spend, value = fields
        campaign_id = str(campaign_id).strip()
        if not campaign_id:
            raise IngestError("campaign_id must be non-empty", line)
        arm_tag = str(arm_tag).strip()
        if arm_tag not in _ARM_BY_TAG:
            raise IngestError(f"arm must be 'A' or 'B', got {arm_tag!r}", line)
        try:
            part = PartMeasurement(
                campaign_id, _ARM_BY_TAG[arm_tag],
                _parse_int(part_id, "part_id", line),
                _parse_int(impressions, "impressions", line),
                _parse_money(spend, "spend", line),
                _parse_money(value, "value", line),
            )
        except ValueError as exc:
            raise IngestError(str(exc), line) from None
        arms = by_campaign.get(campaign_id)
        if arms is None:
            arms = by_campaign[campaign_id] = {"A": {}, "B": {}}
        parts = arms[arm_tag]
        if part.part_id in parts:
            raise IngestError(
                f"duplicate part: campaign {campaign_id!r} arm {arm_tag} "
                f"part_id {part.part_id}", line,
            )
        parts[part.part_id] = part
    return ExperimentDataset(tuple(
        CampaignExperiment(campaign_id, tuple(arms["A"].values()), tuple(arms["B"].values()))
        for campaign_id, arms in by_campaign.items()
    ))


def ingest(path: str | Path, input_format: str = "delimited-text") -> ExperimentDataset:
    """Load an experiment dataset from a part-level file."""
    if input_format not in INPUT_FORMATS:
        raise IngestError(
            f"input_format must be one of {INPUT_FORMATS}, got {input_format!r}"
        )
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    if input_format == "record-lines":
        return _dataset_from_rows(_rows_from_jsonl(path))
    return _dataset_from_rows(_rows_from_csv(path))


def render_dataset_csv(dataset: ExperimentDataset) -> str:
    """Serialize a dataset to the delimited-text format, 6-decimal money."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for campaign in dataset.campaigns:
        for part in campaign.parts_a + campaign.parts_b:
            writer.writerow((
                part.campaign_id, part.arm.value, part.part_id,
                part.impressions, f"{part.spend:.6f}", f"{part.value:.6f}",
            ))
    return out.getvalue()


def write_dataset(dataset: ExperimentDataset, path: str | Path) -> None:
    write_text_atomic(path, render_dataset_csv(dataset))
