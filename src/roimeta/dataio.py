"""Reading and writing part-level experiment data.

Two interchangeable formats carry the same six fields per part:

* ``delimited-text`` -- UTF-8 CSV with the exact header
  ``campaign_id,arm,part_id,impressions,spend,value``; arm is ``A`` or ``B``,
  spend and value are decimal strings, one row per part.
* ``record-lines`` -- one JSON object per line with the same keys, each value
  read through its text as a CSV field is; ``null`` counts as missing.

Both feed one row path that appends each non-blank line's six raw fields to
its campaign's arm columns (campaigns in first-seen order), money in integer
micro-units; ``dataset_from_rows`` feeds it rows held in memory, checked as
record-lines are. The first fault raises ``IngestError`` with its file line
(blank lines count; the CSV header is line 1) or its row number; within a line
the first failing check wins: the line itself (JSON syntax, an object, CSV
column count, six fields in a row in memory), missing or empty fields (all
listed), ``campaign_id``, arm, ``part_id``, ``impressions``, ``spend``,
``value`` (a finite amount >= 0), either amount too large to quantize, then a
duplicate (campaign, arm, part_id) key. Ids and arm tags are stripped. Writes
are temp file + rename.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .campaigns import (
    MAX_AMOUNT, MICROS_PER_UNIT, ArmColumns, CampaignExperiment, ExperimentDataset, arm_columns,
    check_amount,
)
from .config import INPUT_FORMATS
from .errors import IngestError

CSV_FIELDS = ("campaign_id", "arm", "part_id", "impressions", "spend", "value")

_ARM_TAGS = ("A", "B")
_BASE_TEXT = {bool: str, str: str.__str__, int: int.__repr__, float: float.__repr__, object: str}
_DECODER = json.JSONDecoder()
_RECORD_FIELDS = operator.itemgetter(*CSV_FIELDS)
_WRITE_CHARS = 1 << 20


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write a file via temp-then-rename so readers never see partial content;
    the text is encoded slice by slice, never as one whole-file bytes copy.
    The temp file is new (a random name, ``O_EXCL``) and created with mode 0o666,
    so the kernel applies the umask and the file gets ``open(path, "w")``'s mode."""
    path = Path(path)
    tmp_name = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            for start in range(0, len(text), _WRITE_CHARS):
                handle.write(text[start:start + _WRITE_CHARS].encode("utf-8"))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _rows_from_csv(path: Path) -> Iterator[tuple[int, list[str]]]:
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError("empty file, expected a header row", 1)
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
        except csv.Error as exc:  # a field over the csv module's size limit, say
            raise IngestError(f"invalid CSV: {exc}", reader.line_num) from None


def _rows_from_jsonl(path: Path) -> Iterator[tuple[int, tuple[object, ...]]]:
    with path.open(encoding="utf-8") as handle:
        for line, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                try:
                    record, end = _DECODER.scan_once(raw, 0)
                except StopIteration:  # no value at the start: raw_decode words it
                    record, end = _DECODER.raw_decode(raw)
            except json.JSONDecodeError as exc:
                # json.loads' messages; it rejects a leading BOM before parsing
                bom = raw[0] == "\ufeff"
                message = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if bom else exc.msg
                raise IngestError(f"invalid JSON: {message}", line) from None
            except RecursionError:
                raise IngestError("invalid JSON: nested too deeply", line) from None
            except ValueError as exc:  # an integer literal longer than int() converts
                raise IngestError(f"invalid JSON: {exc}", line) from None
            if end != len(raw):
                raise IngestError("invalid JSON: Extra data", line)
            try:
                fields = _RECORD_FIELDS(record)
            except KeyError:  # the row checks name the missing field
                fields = tuple(map(record.get, CSV_FIELDS))
            except TypeError:  # only a dict is indexed by a field name
                raise IngestError("each line must be a JSON object", line) from None
            yield line, fields


def _text(raw: object) -> str:
    """A field's text; a ``str``, ``int`` or ``float`` subclass reads as JSON writes it."""
    return next(text for base, text in _BASE_TEXT.items() if isinstance(raw, base))(raw)


def _checked_row(line: int, fields: Sequence[object]) -> tuple:
    """One row's checks in the module docstring's order: the first failing one
    raises; a row that passes them all gives its clean six values."""
    if None in fields or "" in fields:
        missing = [name for name, raw in zip(CSV_FIELDS, fields) if raw in (None, "")]
        raise IngestError(f"missing field(s): {', '.join(missing)}", line)
    campaign_id = _text(fields[0]).strip()
    if not campaign_id:
        raise IngestError("campaign_id must be non-empty", line)
    arm_tag = _text(fields[1]).strip()
    if arm_tag not in _ARM_TAGS:
        raise IngestError(f"arm must be 'A' or 'B', got {arm_tag!r}", line)
    numbers = []
    try:
        for name, raw in zip(CSV_FIELDS[2:], fields[2:]):
            money = name in ("spend", "value")
            try:
                number = (float if money else int)(_text(raw).strip())
            except (TypeError, ValueError):
                kind = "a decimal number" if money else "an integer"
                raise IngestError(f"{name} must be {kind}, got {raw!r}", line) from None
            if money:  # too large is checked once both amounts parse
                check_amount(name, number, quantizable=False)
            elif number < 0:
                raise IngestError(f"{name} must be >= 0, got {number}", line)
            numbers.append(number)
        check_amount("spend", numbers[2])
        check_amount("value", numbers[3])
    except ValueError as exc:
        raise IngestError(str(exc), line) from None
    return campaign_id, arm_tag, *numbers


def _dataset_from_rows(
    rows: Iterable[tuple[int, Sequence[object]]], typed: bool
) -> ExperimentDataset:
    """Append (line, six raw fields) rows to their campaign's arm columns.

    A row passes one test when its values have their exact types (``typed``:
    JSON or a caller gave them) or ``int``/``float`` parse them (text), and all
    are in range; any other row goes to ``_checked_row``, which alone words the
    error.
    """
    by_campaign: dict[str, dict[str, dict[int, tuple[int, int, int]]]] = {}
    for line, fields in rows:
        try:
            campaign_id, arm_tag, part_id, impressions, spend, value = fields
        except (TypeError, ValueError):  # only an in-memory row can have another shape
            raise IngestError(f"expected a row of {len(CSV_FIELDS)} fields, got {fields!r}",
                              line) from None
        if typed:
            fast = (type(campaign_id) is str and type(arm_tag) is str and type(part_id) is int
                    and type(impressions) is int and type(spend) is float
                    and type(value) is float)
        else:
            try:
                part_id, impressions, spend, value = (
                    int(part_id), int(impressions), float(spend), float(value))
                fast = True
            except ValueError:
                fast = False
        if not (fast and arm_tag in _ARM_TAGS and (campaign_id := campaign_id.strip())
                and part_id >= 0 and impressions >= 0
                and 0.0 <= spend <= MAX_AMOUNT and 0.0 <= value <= MAX_AMOUNT):
            campaign_id, arm_tag, part_id, impressions, spend, value = _checked_row(line, fields)
        arms = by_campaign.get(campaign_id)
        if arms is None:
            arms = by_campaign[campaign_id] = {"A": {}, "B": {}}
        parts = arms[arm_tag]
        if part_id in parts:
            raise IngestError(
                f"duplicate part: campaign {campaign_id!r} arm {arm_tag} "
                f"part_id {part_id}", line,
            )
        # to_micros, inlined
        parts[part_id] = (impressions, round(spend * MICROS_PER_UNIT),
                          round(value * MICROS_PER_UNIT))
    return ExperimentDataset(tuple(
        CampaignExperiment(campaign_id, *map(_unzipped, arms.values()))
        for campaign_id, arms in by_campaign.items()
    ))


def _unzipped(parts: dict[int, tuple[int, int, int]]) -> ArmColumns:
    return arm_columns(tuple(parts), *(zip(*parts.values()) if parts else ((), (), ())))


def dataset_from_rows(rows: Iterable[Sequence[object]]) -> ExperimentDataset:
    """Load an experiment dataset from in-memory rows ``(campaign_id, arm,
    part_id, impressions, spend, value)``, arm ``"A"`` or ``"B"``. The rows are
    checked as record-lines are; an ``IngestError``'s "line n" is row n."""
    return _dataset_from_rows(enumerate(rows, 1), typed=True)


def ingest(path: str | Path, input_format: str = INPUT_FORMATS[0]) -> ExperimentDataset:
    """Load an experiment dataset from a part-level file."""
    if input_format not in INPUT_FORMATS:
        raise IngestError(
            f"input_format must be one of {INPUT_FORMATS}, got {input_format!r}"
        )
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    if input_format == "record-lines":
        return _dataset_from_rows(_rows_from_jsonl(path), typed=True)
    return _dataset_from_rows(_rows_from_csv(path), typed=False)


def render_dataset_csv(dataset: ExperimentDataset) -> str:
    """Serialize a dataset to the delimited-text format, 6-decimal money. Only a
    campaign id can need quoting: ``csv.writer`` quotes it once per campaign, and
    each part's row is one format."""
    out, quoted = io.StringIO(), io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(CSV_FIELDS)
    quote = csv.writer(quoted, lineterminator="\n").writerow
    for campaign in dataset.campaigns:
        quoted.seek(0)
        quoted.truncate()
        quote((campaign.campaign_id, ""))
        lead = quoted.getvalue()[:-1]  # the id as its row's first field, and its comma
        for arm, columns in (("A", campaign.a), ("B", campaign.b)):
            out.write("".join([
                f"{lead}{arm},{part_id},{impressions},{spend / MICROS_PER_UNIT:.6f},"
                f"{value / MICROS_PER_UNIT:.6f}\n"
                for part_id, impressions, spend, value in zip(
                    columns.part_ids, columns.impressions, columns.spend_micros,
                    columns.value_micros)]))
    return out.getvalue()


def write_dataset(dataset: ExperimentDataset, path: str | Path) -> None:
    write_text_atomic(path, render_dataset_csv(dataset))
