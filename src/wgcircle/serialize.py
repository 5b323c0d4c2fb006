"""Deterministic report serialization: JSON, CSV, or plain text.

Field order is insertion order (stable by construction), floats are rounded
to 12 significant digits before encoding, CSV uses RFC-style minimal quoting.
Identical reports serialize to identical bytes.

CSV comes from rows (`to_csv_bytes`, through `csv.writer`, for the small
mixed-type tables) or from numeric columns (`to_csv_columns_bytes`, one
printf template for every row, for the comparison report's hundreds of
thousands of rows).  Both write the same bytes for the same numbers: integers
as str(int), floats as f"{v:.12g}", and no numeric field ever needs quoting.

JSON goes through json.dumps, except for long record lists held as numeric
columns (`JsonRecords`: the comparison rows, the Farey arc lists), which are
written with one %-template per record into the place json.dumps leaves for
them, with the bytes json.dumps would give for their rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Any

from .errors import DomainError

FORMATS = ("json", "csv", "plain")


def _round_sig(x: float) -> float | None:
    if not math.isfinite(x):
        return None  # NaN/inf have no valid JSON encoding
    return float(f"{x:.12g}")


def round_floats(obj: Any) -> Any:
    """Recursively round every float to 12 significant digits.

    Non-finite values map to null so the JSON stays standard.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _round_sig(obj)
    if isinstance(obj, complex):
        return {"re": _round_sig(obj.real), "im": _round_sig(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def _json_float(x: float) -> str:
    rounded = _round_sig(x)
    return "null" if rounded is None else repr(rounded)


@dataclass(frozen=True)
class JsonRecords:
    """A list of JSON records held as equal-length numeric numpy columns: one
    object per row with `fields` as its keys, or one array per row when
    `fields` is empty.

    Integer columns (int64, or object arrays of Python integers) print
    exactly; float columns are rounded like every other float of a report.
    """

    columns: tuple
    fields: tuple[str, ...] = ()

    def to_json(self, indent: int) -> str:
        """What json.dumps(round_floats(rows), indent=2) writes for the list of
        the records as lists or dicts, on a line that starts `indent` spaces in."""
        kinds = [column.dtype.kind for column in self.columns]
        if not set(kinds) <= _COLUMN_FORMATS.keys():
            raise DomainError(f"JSON record columns must be integer or float arrays, got dtype kinds {kinds}")
        if not len(self.columns[0]):
            return "[]"
        values = [list(map(_json_float, column.tolist())) if kind == "f" else column.tolist()
                  for column, kind in zip(self.columns, kinds)]
        outer, inner = " " * (indent + 2), " " * (indent + 4)
        keys = [json.dumps(name).replace("%", "%%") + ": " for name in self.fields] or [""] * len(kinds)
        items = f",\n{inner}".join(key + ("%s" if kind == "f" else "%d") for key, kind in zip(keys, kinds))
        opening, closing = "{}" if self.fields else "[]"
        template = f"{outer}{opening}\n{inner}{items}\n{outer}{closing}"
        return "[\n" + ",\n".join(map(template.__mod__, zip(*values))) + "\n" + " " * indent + "]"


# json.dumps writes the i-th JsonRecords of a report as the string "\0i"
_RECORDS_SLOT = re.compile(r'^( *)(.*?)"\\u0000(\d+)"', re.MULTILINE)


def to_json_bytes(report: Any) -> bytes:
    blocks: list[JsonRecords] = []

    def slot(obj: Any) -> str:
        if not isinstance(obj, JsonRecords):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        blocks.append(obj)
        return f"\0{len(blocks) - 1}"

    text = json.dumps(round_floats(report), indent=2, allow_nan=True, default=slot)
    text = _RECORDS_SLOT.sub(lambda hit: hit[1] + hit[2] + blocks[int(hit[3])].to_json(len(hit[1])), text)
    return (text + "\n").encode()


def to_csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


_COLUMN_FORMATS = {"i": "%d", "O": "%d", "f": "%.12g"}


def to_csv_columns_bytes(header: list[str], columns: list) -> bytes:
    """CSV of numeric numpy columns, the bytes to_csv_bytes gives for their rows.

    Integer columns (int64, or object arrays of Python integers) print with
    %d, float columns with %.12g.
    """
    kinds = [column.dtype.kind for column in columns]
    if not set(kinds) <= _COLUMN_FORMATS.keys():
        raise DomainError(f"CSV columns must be integer or float arrays, got dtype kinds {kinds}")
    template = ",".join(_COLUMN_FORMATS[kind] for kind in kinds) + "\n"
    body = "".join(map(template.__mod__, zip(*(column.tolist() for column in columns))))
    return to_csv_bytes(header, []) + body.encode()


def to_plain_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def serialize(report: Any, fmt: str, csv_header: list[str] | None = None, csv_rows: list[list] | None = None,
              plain_lines: list[str] | None = None, csv_columns: list | None = None) -> bytes:
    """Encode a report in the requested format.

    CSV needs an explicit header and rows or numeric columns; plain needs
    prepared lines; both fall back to JSON when the structured form was not
    supplied.
    """
    if fmt not in FORMATS:
        raise DomainError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "csv" and csv_columns is not None:
        return to_csv_columns_bytes(csv_header or [], csv_columns)
    if fmt == "csv" and csv_rows is not None:
        return to_csv_bytes(csv_header or [], csv_rows)
    if fmt == "plain" and plain_lines is not None:
        return to_plain_bytes(plain_lines)
    return to_json_bytes(report)
