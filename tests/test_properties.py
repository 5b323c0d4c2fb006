"""Property tests: the power engine, the grid spans and the columnar CSV
writer against plain oracles."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wgcircle import circle, convolve, serialize

PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


def naive_conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def naive_power(hist, s, out_len, modulus):
    """Repeated convolution in Python integers, reduced after every step."""
    def reduce(values):
        values = values[:out_len]
        if modulus is None:
            return values
        out = [0] * modulus
        for i, v in enumerate(values):
            out[i % modulus] += v
        return out

    base = reduce(list(hist))
    result = base
    for _ in range(s - 1):
        result = reduce(naive_conv(result, base))
    return result


@PROPERTY_SETTINGS
@given(
    hist=st.lists(st.integers(0, 2**40), min_size=1, max_size=8),
    s=st.integers(1, 6),
    method=st.sampled_from(convolve.METHODS),
    cyclic=st.booleans(),
    out_len=st.integers(1, 40),
)
def test_power_matches_repeated_convolution(hist, s, method, cyclic, out_len):
    # entries up to 2^40 to the 6th power reach far past int64
    modulus = len(hist) if cyclic else None
    if cyclic:
        out_len = None
    arr = np.array(hist, dtype=np.int64)
    got = convolve.power(arr, s, out_len, modulus=modulus, method=method)
    expected = naive_power(hist, s, out_len, modulus)
    assert got.tolist() == expected
    assert got.dtype == (np.int64 if max(expected) < 2**63 else object)


def _fractions(m: int):
    """Sorted distinct endpoints, many of them exactly on the grid j/m."""
    on_grid = st.integers(0, m).map(lambda j: Fraction(j, m))
    off_grid = st.integers(0, 7 * m).map(lambda j: Fraction(j, 7 * m))
    return st.lists(st.one_of(on_grid, off_grid), min_size=0, max_size=10, unique=True).map(sorted)


@st.composite
def unions(draw, m: int):
    points = draw(_fractions(m))
    pieces = []
    for lo, hi in zip(points[0::2], points[1::2]):
        pieces.append(circle.Piece(lo, hi, None, draw(st.booleans()), draw(st.booleans())))
    return circle.ArcUnion(label="random", intervals=tuple(pieces))


@PROPERTY_SETTINGS
@given(data=st.data(), m=st.sampled_from([8, 12, 64, 100]))
def test_grid_spans_match_contains(data, m):
    a = data.draw(unions(m))
    b = data.draw(unions(m))
    for region in (a, b, a.complement(), a.difference(b), a.union(b), b.complement().difference(a)):
        mask = np.zeros(m, dtype=bool)
        for piece, j0, j1 in region.grid_spans(m):
            assert 0 <= j0 <= j1 < m
            assert not mask[j0 : j1 + 1].any()
            assert all(piece.contains(Fraction(j, m)) for j in range(j0, j1 + 1))
            mask[j0 : j1 + 1] = True
        assert mask.tolist() == [region.contains(Fraction(j, m)) for j in range(m)]
        assert (region.grid_mask(m) == mask).all()


_CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -1.5e-310, 2.0**-1022, 1e300]),
)


@PROPERTY_SETTINGS
@given(rows=st.lists(
    st.tuples(
        st.integers(-(2**63), 2**63 - 1),
        st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**200)),
        _CSV_FLOATS, _CSV_FLOATS, _CSV_FLOATS,
    ),
    max_size=20,
))
def test_csv_columns_match_row_writer(rows):
    header = ["n", "r", "prediction", "ratio", "series"]
    n, r, *floats = (list(column) for column in zip(*rows)) if rows else [[]] * 5
    # past int64 the counts are an object array of Python integers
    r_dtype = object if any(v >= 2**63 for v in r) else np.int64
    columns = [np.array(n, dtype=np.int64), np.array(r, dtype=r_dtype)]
    columns += [np.array(values, dtype=np.float64) for values in floats]
    expected = serialize.to_csv_bytes(header, [list(row) for row in rows])
    assert serialize.to_csv_columns_bytes(header, columns) == expected
