"""Deterministic report serialization: JSON, CSV, or plain text.

Field order is insertion order (stable by construction), floats are rounded
to 12 significant digits before encoding, CSV uses RFC-style minimal quoting.
Identical reports serialize to identical bytes.

CSV comes from rows (`to_csv_bytes`, through `csv.writer`, for the small
mixed-type tables) or from numeric columns (`csv_column_chunks`, for the
comparison report's hundreds of thousands of rows).  Both write the same
bytes for the same numbers: integers as str(int), floats as f"{v:.12g}", and
no numeric field ever needs quoting.

JSON goes through the encoder of json.dumps, except for long record lists
held as numeric columns (`JsonRecords`: the comparison rows, the Farey arc
lists), whose bytes go in one pass into the place the encoder leaves for
them, the bytes json.dumps would give for their rows.

Both column writers take each column's text from one numpy kernel
(`_column_text`).  A float x with decimal exponent X is scaled once,
|x| * 10^(11 - X) by one multiply or divide by an exact power 10^j with
|j| <= 22, so the scaled value is off by at most 2^-14 below 2^40.  Its
rounding D is taken as the 12 digits of x only when the scaled value lies in
[10^11 + 1, 10^12 - 1] (so X is the exponent and no carry is possible) and
its fraction is more than 2^-12 from 1/2 (so the rounding is the exact one).
Every other value (zero, non-finite, subnormal, |j| > 22, near a tie) is
formatted by Python itself, so every field is exact by construction.

Each block of `_ROW_BLOCK` rows is laid out as one uint8 matrix: every
column's NUL-padded text and every constant piece (JSON keys and
indentation, CSV commas, the row separator last) side by side.  The block's
text is the matrix's non-NUL bytes in row order; no number text or piece
holds a NUL, so only padding is dropped.  A block is formatted when the
consumer asks for it, so one that stops leaves the rest unformatted.

`json_chunks` and `csv_column_chunks` hand out the bytes in order, as they
are made: the JSON encoder's text, with each `JsonRecords` list's blocks in
its place; the CSV header, then each row block.  Neither refuses a chunk once
made: JSON record columns are checked when the records are made, CSV columns
when `csv_column_chunks` is called.  A writer of the chunks holds one row
block at a time, whatever the row count.  The caller picks the writer for its
format; plain text is the caller's lines (`to_plain_bytes`).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError


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
    if isinstance(obj, dict):
        return {str(k): round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def _json_float(x: float) -> str:
    rounded = _round_sig(x)
    return "null" if rounded is None else repr(rounded)


class _Layout(NamedTuple):
    """How a float with 12 significant digits D and decimal exponent X is written:
    fixed notation for -4 <= X < fixed_below, else d.ddd e+XX; integral fixed
    values end in ".0" when point_zero; `fallback` writes the values the kernel
    does not certify."""

    fixed_below: int
    point_zero: bool
    fallback: Callable[[float], str]


_CSV = _Layout(12, False, lambda v: f"{v:.12g}")  # %.12g
_JSON = _Layout(16, True, _json_float)  # repr(float(%.12g)): the digits of %.12g, placed as repr does
_NUMBER_KINDS = "iOf"  # int64, object arrays of Python integers, float64
_POW10 = np.array([float(10**j) for j in range(23)])  # every one an exact double
_TIE_MARGIN = 2.0**-12
_ROW_BLOCK = 1 << 16
# "0000" .. "9999": the four ASCII digits of i as the bytes of one uint32, built
# from 10 kB columns so that importing leaves no large temporaries behind
_DIGIT_BYTES = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.stack([np.tile(np.repeat(_DIGIT_BYTES, 10 ** (3 - k)), 10**k) for k in range(4)],
                    axis=1).view(np.uint32).ravel()


def _digit_cells(values: np.ndarray, width: int) -> np.ndarray:
    """The nonnegative integers `values` < 10^(4 width) as rows of 4 width ASCII
    digits, zero-padded: a uint8 matrix."""
    words = np.empty((len(values), width), dtype=np.uint32)
    rest = values.copy()
    for i in range(width - 1, -1, -1):
        words[:, i] = _DIGITS4[rest % 10_000]
        rest //= 10_000
    return words.view(np.uint8)


def _cells(*pieces) -> np.ndarray:
    """The rows of uint8 matrices and constant bytes, `pieces` side by side, as one uint8 matrix."""
    rows = next(len(piece) for piece in pieces if isinstance(piece, np.ndarray))
    return np.concatenate([np.broadcast_to(np.frombuffer(piece, np.uint8), (rows, len(piece)))
                           if isinstance(piece, bytes) else piece for piece in pieces], axis=1)


def _text(*pieces) -> np.ndarray:
    """The rows of uint8 matrices and constant bytes, `pieces` side by side, as an S array."""
    cells = _cells(*pieces)
    return cells.view(f"S{cells.shape[1]}").ravel()


def _int_text(column: np.ndarray) -> np.ndarray:
    if column.dtype.kind == "O":
        return np.array([str(v) for v in column.tolist()], dtype="S")
    column = column.astype(np.int64, copy=False)
    negative = column < 0
    magnitude = column.view(np.uint64)
    magnitude = np.where(negative, -magnitude, magnitude)  # -2^63 wraps to its magnitude 2^63
    width = len(str(int(magnitude.max(initial=0))))
    text = np.strings.lstrip(_text(_digit_cells(magnitude, -(-width // 4))[:, -width:]), b"0")
    text = np.where(magnitude == 0, b"0", text)
    return np.strings.add(np.where(negative, b"-", b""), text) if negative.any() else text


def _place(digits: np.ndarray, exp: int, layout: _Layout) -> np.ndarray:
    """The text of D * 10^(exp - 11), for the 12-digit D in the rows of the uint8 matrix `digits`."""
    if not -4 <= exp < layout.fixed_below:
        mantissa = np.strings.rstrip(_text(digits[:, :1], b".", digits[:, 1:]), b"0")
        return np.strings.add(np.strings.rstrip(mantissa, b"."), f"e{exp:+03d}".encode())
    if exp < 0:
        text = _text(b"0." + b"0" * (-1 - exp), digits)
    else:
        text = _text(digits[:, :exp + 1], b"0" * max(0, exp - 11) + b".", digits[:, exp + 1:])
    text = np.strings.rstrip(text, b"0")
    if layout.point_zero:
        return np.strings.add(text, np.where(np.strings.endswith(text, b"."), b"0", b""))
    return np.strings.rstrip(text, b".")


def _float_text(column: np.ndarray, layout: _Layout) -> np.ndarray:
    x = column.astype(np.float64, copy=False)
    certifiable = np.isfinite(x) & (x != 0)
    magnitude = np.where(certifiable, np.abs(x), 1.0)
    exp = np.floor(np.log10(magnitude)).astype(np.int64)
    j = np.clip(11 - exp, -22, 22)
    certifiable &= j == 11 - exp
    # one correctly rounded multiply or divide by an exact power of ten: off by at most 2^-14
    scaled = np.where(j >= 0, magnitude * _POW10[np.maximum(j, 0)], magnitude / _POW10[np.maximum(-j, 0)])
    whole = np.floor(scaled)
    fraction = scaled - whole
    certifiable &= (scaled >= 1e11 + 1) & (scaled <= 1e12 - 1) & (np.abs(fraction - 0.5) > _TIE_MARGIN)
    digits = np.where(certifiable, whole, 0).astype(np.int64) + (fraction > 0.5)
    # one group per exponent X in [-11, 33] (slots 0..44), and slot 45 for the fallback
    slot = np.where(certifiable, exp + 11, 45).astype(np.int8)
    order = np.argsort(slot, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(slot, minlength=46))[:-1])
    parts = [(groups[45], np.array([layout.fallback(v) for v in x[groups[45]].tolist()], dtype="S"))]
    parts += [(group, _place(_digit_cells(digits[group], 3), e - 11, layout))
              for e, group in enumerate(groups[:45]) if len(group)]
    text = np.empty(len(x), dtype=f"S{max(np.strings.str_len(part).max(initial=1) for _, part in parts)}")
    for group, part in parts:
        text[group] = part
    negative = certifiable & (x < 0)
    return np.strings.add(np.where(negative, b"-", b""), text) if negative.any() else text


def _column_text(column: np.ndarray, layout: _Layout) -> np.ndarray:
    """The exact text of every entry of a numeric column, as an S-dtype array:
    integers as str(int), floats as `layout` writes them."""
    return _float_text(column, layout) if column.dtype.kind == "f" else _int_text(column)


def _check_kinds(columns, what: str) -> None:
    kinds = [column.dtype.kind for column in columns]
    if not set(kinds) <= set(_NUMBER_KINDS):
        raise DomainError(f"{what} must be integer or float arrays, got dtype kinds {kinds}")


def _row_blocks(columns, layout: _Layout, pieces: list[bytes]) -> Iterator[bytes]:
    """The rows pieces[0] + columns[0] + pieces[1] + ... + columns[-1] + pieces[-1], the columns
    as `layout` writes them, one bytes object per block of _ROW_BLOCK rows, in order."""
    assert not any(b"\0" in piece for piece in pieces)  # a NUL would be dropped with the padding

    def block(start: int) -> bytes:  # its arrays go when it returns, before the next block
        cells = [pieces[0]]
        for column, piece in zip(columns, pieces[1:]):
            text = _column_text(column[start:start + _ROW_BLOCK], layout)
            cells += [text.view(np.uint8).reshape(len(text), text.itemsize), piece]
        flat = _cells(*cells).ravel()
        return flat[flat != 0].tobytes()

    for start in range(0, len(columns[0]), _ROW_BLOCK):
        yield block(start)


@dataclass(frozen=True)
class JsonRecords:
    """A list of JSON records held as equal-length numeric numpy columns: one
    object per row with `fields` as its keys, or one array per row when
    `fields` is empty.  The columns' kinds are checked when the records are
    made, so a report that holds them can be written without a refusal.

    Integer columns (int64, or object arrays of Python integers) print
    exactly; float columns are rounded like every other float of a report.
    """

    columns: tuple
    fields: tuple[str, ...] = ()

    def __post_init__(self):
        _check_kinds(self.columns, "JSON record columns")

    def json_chunks(self, indent: int) -> Iterator[bytes]:
        """The bytes of json.dumps(round_floats(rows), indent=2) for the list of
        the records as lists or dicts, on a line that starts `indent` spaces in."""
        rows = len(self.columns[0])
        if not rows:
            yield b"[]"
            return
        outer, inner = " " * (indent + 2), " " * (indent + 4)
        keys = [json.dumps(name) + ": " for name in self.fields] or [""] * len(self.columns)
        opening, closing = "{}" if self.fields else "[]"
        pieces = [f"{outer}{opening}\n{inner}{keys[0]}"] + [f",\n{inner}{key}" for key in keys[1:]]
        pieces.append(f"\n{outer}{closing},\n")
        yield b"[\n"
        last = (rows - 1) // _ROW_BLOCK
        for i, block in enumerate(_row_blocks(self.columns, _JSON, [piece.encode() for piece in pieces])):
            yield block if i < last else memoryview(block)[:-2]  # the last row ends the list: no ",\n"
        yield f"\n{' ' * indent}]".encode()


def json_chunks(report: Any) -> Iterator[bytes]:
    """The bytes of json.dumps(round_floats(report), indent=2) and a newline,
    each `JsonRecords` list written from its columns, in order."""
    held: list[JsonRecords] = []

    def slot(obj: Any) -> str:
        if not isinstance(obj, JsonRecords):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        held.append(obj)
        return "\0"

    # the pure-Python encoder that json.dumps(indent=2) runs, one chunk at a time
    chunks = json.JSONEncoder(indent=2, default=slot).iterencode(round_floats(report))
    text: list[str] = []
    indent = 0  # of the line being written: a newline and its indent come in one chunk
    for chunk in chunks:
        if held:  # the encoder's next chunk after a call to slot is its "\u0000"
            yield "".join(text).encode()
            yield from held.pop().json_chunks(indent)
            text = []
            continue
        if "\n" in chunk:
            line = chunk[chunk.rfind("\n") + 1:]
            indent = len(line) - len(line.lstrip(" "))
        text.append(chunk)
    text.append("\n")
    yield "".join(text).encode()


def to_csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def csv_column_chunks(header: list[str], columns: list) -> Iterator[bytes]:
    """CSV of numeric numpy columns, the bytes to_csv_bytes gives for their rows:
    integer columns (int64, or object arrays of Python integers) as str(int),
    float columns as f"{v:.12g}".  The column kinds are checked by this call,
    before the first chunk is made."""
    _check_kinds(columns, "CSV columns")
    pieces = [b""] + [b","] * (len(columns) - 1) + [b"\n"]
    return itertools.chain([to_csv_bytes(header, [])], _row_blocks(columns, _CSV, pieces) if len(columns) else ())


def to_plain_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()
