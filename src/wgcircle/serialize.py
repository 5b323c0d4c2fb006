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

The digits are integer arithmetic.  A certified value's point goes after
digit place + 1 of D, where place is X in fixed notation and 0 in d.ddd e+XX
notation.  In each row block the kernel writes the values whose places lie in
the window of four consecutive places that holds the most of them; every
other value keeps Python's formatting.  With `low` the window's lowest place,
V = D * 10^(place - low) is an integer below 10^15 < 2^53: D and the powers
10^0 .. 10^3 are integers that float64 holds exactly, and so is their product,
the rounding of an integer below 2^53.  Division by a power of ten in int64
then splits V into its integer part and its fraction's digits, and those
into groups of four, and an int64 column is split the same way.  Each group
is written as one uint32 from `_WORDS`, which holds every group's four ASCII
digits in several versions: as they are, with the leading zeros NUL, with the
trailing zeros NUL, and "." and three fraction digits with or without the
trailing zeros.  Which version a row takes is one comparison of the value
(leading zeros: no digit before the group; trailing: none after it), so
leading zeros, trailing fraction zeros and a bare "." become NUL without a
string operation.  The fallback texts and the exponent suffixes "e+XX" are
placed into their rows as NUL-padded bytes.

Each block of `_ROW_BLOCK` rows is built in one NUL-filled uint8 matrix: every
constant piece (JSON keys and indentation, CSV commas, the row separator last)
and every column's text are written straight into the matrix's column slices,
and no column's text exists apart from it.  The block's text is the matrix's
non-NUL bytes in row order; no number text or piece holds a NUL, so only
padding is dropped.  A block is formatted when the consumer asks for it, so
one that stops leaves the rest unformatted.

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
# x * _UP[22 + j] / _DOWN[22 + j] is x * 10^j for 0 <= j <= 22 and x / 10^-j for -22 <= j < 0
_UP, _DOWN = np.concatenate([np.ones(22), _POW10]), np.concatenate([_POW10[:0:-1], np.ones(23)])
_TIE_MARGIN = 2.0**-12
_WINDOW = 4  # places in one block's layout: D * 10^(_WINDOW - 1) < 10^15 < 2^53
_ROW_BLOCK = 1 << 14  # rows a block: its matrix and arrays fit a core's L2 cache, where the writes are cheap
# "0000" .. "9999": the four ASCII digits of each group, built from 10 kB columns
# so that importing leaves no large temporaries behind
_DIGIT_BYTES = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_GROUP_BYTES = np.stack([np.tile(np.repeat(_DIGIT_BYTES, 10 ** (3 - k)), 10**k) for k in range(4)], axis=1)
_GROUP = np.arange(10_000, dtype=np.uint16)[:, None]
_LEAD = _GROUP < np.array([1000, 100, 10, 1], np.uint16)  # each group's leading zeros
_TRAIL = _GROUP % np.array([10_000, 1000, 100, 10], np.uint16) == 0  # and its trailing ones
_POINT_BYTES = np.concatenate([np.full((1000, 1), ord("."), np.uint8), _GROUP_BYTES[:1000, 1:]], axis=1)
# The words one write puts in a row, four bytes as one uint32: from 0 each group
# as it is, from _LEAD_BLANK with its leading zeros NUL, from _UNITS the same but
# "0" for 0, from _TRAIL_BLANK with its trailing zeros NUL; from _POINT "." and
# the three digits of 0 .. 999, from _POINT_BLANK with the trailing zeros NUL and
# "" for 0, from _POINT_ZERO the same but ".0" for 0.
_LEAD_BLANK, _UNITS, _TRAIL_BLANK, _POINT, _POINT_BLANK, _POINT_ZERO = 10_000, 20_000, 30_000, 40_000, 41_000, 42_000
_WORDS = np.concatenate([_GROUP_BYTES, _GROUP_BYTES * ~_LEAD, _GROUP_BYTES * ~_LEAD, _GROUP_BYTES * ~_TRAIL,
                         _POINT_BYTES, _POINT_BYTES * ~_TRAIL[:1000], _POINT_BYTES * ~_TRAIL[:1000]])
_WORDS[_UNITS, 3] = ord("0")
_WORDS[_POINT_ZERO, :2] = np.frombuffer(b".0", np.uint8)
_WORDS = _WORDS.view(np.uint32).ravel()
del _GROUP, _GROUP_BYTES, _LEAD, _TRAIL, _POINT_BYTES


def _split(values: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """The nonnegative integers `values` cut into groups of `sizes` decimal digits,
    most significant first; the first group takes all that is left."""
    groups = []
    for size in sizes[:0:-1]:
        rest = values // 10**size
        groups.append(values - rest * 10**size)
        values = rest
    return [values, *groups[::-1]]


def _put_words(cells: np.ndarray, at: int, index: np.ndarray) -> None:
    """The _WORDS `index` into bytes at .. at + 3 of the rows of `cells`."""
    cells[:, at:at + 4].view(np.uint32)[:, 0] = np.take(_WORDS, index)


def _put_integer(cells: np.ndarray, values: np.ndarray, digits: int, least: int) -> None:
    """The nonnegative integers `values` < 10^digits, none with fewer than `least` digits,
    right-aligned in the `digits` >= 4 bytes of `cells`, with NULs for their leading zeros."""
    count = -(-digits // 4)
    top = digits - 4 * (count - 1)
    groups = _split(values, [top] + [4] * (count - 1))
    groups[0] = groups[0] * 10 ** (4 - top)  # its word starts with its digits; the next word overwrites the rest
    starts = [0] + [top + 4 * i for i in range(count - 1)]
    for i, (group, start) in enumerate(zip(groups, starts)):
        # a group's leading zeros are NUL where the value has no digit before them
        offset = _UNITS if i == count - 1 else _LEAD_BLANK
        if i == 0:
            group += offset
        elif digits - start > least:
            np.add(group, offset, out=group, where=values < 10 ** (digits - start))
        _put_words(cells, start, group)


def _put_fraction(cells: np.ndarray, values: np.ndarray, digits: int, point_zero: np.ndarray | None) -> None:
    """"." and the `digits` decimals of values / 10^digits (values < 10^digits) in the
    first 1 + max(digits, 3) bytes of `cells`, with NULs for their trailing zeros and for
    the "." when they are all 0, except in the rows where `point_zero` holds: ".0"."""
    sizes = [min(digits, 3)]
    if digits > 3:
        last = (digits - 3) % 4 or 4
        sizes += [4] * ((digits - 3 - last) // 4) + [last]
    groups = _split(values, sizes)
    end = 1 + digits
    blank = np.ones(len(values), bool)  # every group after this one is 0: its trailing zeros are NUL
    # right to left: a short last group's word starts with zeros, which the word before it overwrites
    for group, size in zip(groups[:0:-1], sizes[:0:-1]):
        zero = group == 0
        np.add(group, _TRAIL_BLANK, out=group, where=blank)
        _put_words(cells, end - 4, group)
        blank &= zero
        end -= size
    first = _POINT + groups[0] * 10 ** (3 - sizes[0])
    np.add(first, _POINT_BLANK - _POINT, out=first, where=blank)
    if point_zero is not None:
        np.add(first, _POINT_ZERO - _POINT_BLANK, out=first, where=blank & point_zero)
    _put_words(cells, 0, first)


def _put_strings(cells: np.ndarray, rows, strings: np.ndarray) -> None:
    """The S array `strings`, NUL-padded, into `rows` of the uint8 matrix `cells`."""
    padded = np.zeros((len(strings), cells.shape[1]), np.uint8)
    padded[:, :strings.itemsize] = strings.view(np.uint8).reshape(len(strings), strings.itemsize)
    cells[rows] = padded


#: A column's text in one row block, before it is placed: its width, and the
#: `write` that puts each row's text, NUL-padded, into that row of a NUL-filled
#: (rows, width) uint8 matrix.
_Text = tuple[int, Callable[[np.ndarray], None]]


def _string_text(strings: np.ndarray) -> _Text:
    return strings.itemsize, lambda cells: _put_strings(cells, slice(None), strings)


def _int_text(column: np.ndarray) -> _Text:
    if column.dtype.kind == "O":
        return _string_text(np.array([str(v) for v in column.tolist()], dtype="S"))
    column = column.astype(np.int64, copy=False)
    negative = column < 0
    magnitude = column.view(np.uint64)
    sign = int(negative.any())
    if sign:
        magnitude = np.where(negative, -magnitude, magnitude)  # -2^63 wraps to its magnitude 2^63
    digits = max(len(str(int(magnitude.max(initial=0)))), 4)
    least = len(str(int(magnitude.min(initial=2**63))))

    def write(cells: np.ndarray) -> None:
        if sign:
            cells[:, 0] = negative * np.uint8(ord("-"))
        _put_integer(cells[:, sign:], magnitude, digits, least)

    return sign + digits, write


def _float_text(column: np.ndarray, layout: _Layout) -> _Text:
    x = column.astype(np.float64, copy=False)
    certifiable = np.isfinite(x) & (x != 0)
    magnitude = np.where(certifiable, np.abs(x), 1.0)
    exp = np.floor(np.log10(magnitude)).astype(np.int64)
    scale = np.clip(33 - exp, 0, 44)  # 22 + j for j = 11 - X
    certifiable &= scale == 33 - exp
    # one correctly rounded multiply or divide by an exact power of ten: off by at most 2^-14
    scaled = magnitude * _UP[scale] / _DOWN[scale]
    whole = np.floor(scaled)
    fraction = scaled - whole
    certifiable &= (scaled >= 1e11 + 1) & (scaled <= 1e12 - 1) & (np.abs(fraction - 0.5) > _TIE_MARGIN)
    digits = whole + (fraction > 0.5)  # D, an integer below 10^12
    fixed = (exp >= -4) & (exp < layout.fixed_below)
    place = exp * fixed  # the point goes after digit place + 1 of D
    # the window of _WINDOW consecutive places that holds the most certified values
    counts = np.bincount(place[certifiable] + 4, minlength=layout.fixed_below + 4)
    start = int(np.argmax(np.convolve(counts, np.ones(_WINDOW, np.int64), "valid")))
    present = np.flatnonzero(counts[start:start + _WINDOW]) + start - 4
    if not len(present):
        return _string_text(np.array([layout.fallback(v) for v in x.tolist()], dtype="S"))
    low, high = int(present[0]), int(present[-1])
    inside = certifiable & (place >= low) & (place <= high)
    outside = np.flatnonzero(~inside)
    strings = np.array([layout.fallback(v) for v in x[outside].tolist()], dtype="S")
    negative = inside & (x < 0)
    sign = int(negative.any())
    point = max(11 - low, 0)  # the fraction digits of V = D * 10^(place - low)
    zeros = max(low - 11, 0)  # the zeros after V's digits, before the point
    whole_digits = max(12 + high - low - point, 4)
    fraction_digits = max(point, 1)
    science = inside & ~fixed
    exps = exp[science]
    suffixes = [f"e{e:+03d}".encode() for e in range(int(exps.min()), int(exps.max()) + 1)] if len(exps) else []
    suffixes = np.array(suffixes + [b""], dtype="S")
    point_bytes = 1 + max(fraction_digits, 3)  # "." and the digits, one word at least
    kernel = sign + whole_digits + zeros + point_bytes + (suffixes.itemsize if len(exps) else 0)
    width = max(kernel, strings.itemsize)

    def write(field: np.ndarray) -> None:
        cells = field[:, width - kernel:]
        if sign:
            cells[:, 0] = negative * np.uint8(ord("-"))
        v = digits * inside  # 0 outside the window
        if high > low:
            v *= _POW10[(place - low) * inside]
        v = v.astype(np.int64)
        whole_part = v // 10**point
        _put_integer(cells[:, sign:], whole_part, whole_digits, max(low, 0) + 1)
        at = sign + whole_digits
        cells[:, at:at + zeros] = ord("0")
        # in JSON an integral value in fixed notation ends in ".0"
        _put_fraction(cells[:, at + zeros:], v - whole_part * 10**point, fraction_digits,
                      fixed if layout.point_zero else None)
        if len(exps):
            index = np.where(science, exp - exps.min(), len(suffixes) - 1)
            table = suffixes.view(np.uint8).reshape(len(suffixes), suffixes.itemsize)
            cells[:, kernel - suffixes.itemsize:] = np.take(table, index, axis=0)
        if len(outside):
            _put_strings(field, outside, strings)

    return width, write


def _column_text(column: np.ndarray, layout: _Layout) -> _Text:
    """The exact text of every entry of a numeric column in one row block:
    integers as str(int), floats as `layout` writes them."""
    return _float_text(column, layout) if column.dtype.kind == "f" else _int_text(column)


def _check_kinds(columns, what: str) -> None:
    kinds = [column.dtype.kind for column in columns]
    if not set(kinds) <= set(_NUMBER_KINDS):
        raise DomainError(f"{what} must be integer or float arrays, got dtype kinds {kinds}")


def _row_blocks(columns, layout: _Layout, pieces: list[bytes]) -> Iterator[bytearray]:
    """The rows pieces[0] + columns[0] + pieces[1] + ... + columns[-1] + pieces[-1], the columns
    as `layout` writes them, one bytearray per block of _ROW_BLOCK rows, in order."""
    assert not any(b"\0" in piece for piece in pieces)  # a NUL would be dropped with the padding

    def block(start: int) -> bytearray:  # its arrays go when it returns, before the next block
        rows = min(_ROW_BLOCK, len(columns[0]) - start)
        texts = [_column_text(column[start:start + rows], layout) for column in columns]
        width = sum(map(len, pieces)) + sum(text_width for text_width, _ in texts)
        matrix = bytearray(rows * width)
        cells = np.frombuffer(matrix, np.uint8).reshape(rows, width)
        at = 0
        for piece, text in zip(pieces, texts + [None]):
            cells[:, at:at + len(piece)] = np.frombuffer(piece, np.uint8)
            at += len(piece)
            if text is not None:
                text_width, write = text
                write(cells[:, at:at + text_width])
                at += text_width
        return matrix.translate(None, b"\0")

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
