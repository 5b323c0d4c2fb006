"""Property tests: the power engine, the Farey arc families and the columnar
CSV writer against plain oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arc_oracle
from wgcircle import circle, convolve, serialize
from wgcircle.errors import DomainError

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


@st.composite
def families(draw):
    """A Farey family at a dyadic denom, a grid m = denom * 2^t on which many
    endpoints land exactly, and its height: an integer or not."""
    e = draw(st.integers(4, 10))
    denom, m = 2**e, 2 ** (e + draw(st.integers(0, 3)))
    top = 0.5 * math.sqrt(denom)
    height = draw(st.one_of(
        st.integers(1, int(top)).map(float),
        st.floats(1.0, top, allow_nan=False),
        st.integers(4, int(4 * top)).map(lambda x: x / 4),
    ))
    return denom, m, height


@PROPERTY_SETTINGS
@given(family=families(), core=st.booleans(), slice_at=st.floats(0.0, 1.0))
def test_grid_spans_match_contains(family, core, slice_at):
    denom, m, height = family
    if core:
        oracle = arc_oracle.core_oracle(height, denom)
        if not arc_oracle.disjoint(oracle):
            with pytest.raises(DomainError, match="overlapping"):
                circle.core_arcs(denom, height)
            return
        union = circle.core_arcs(denom, height)
    else:
        oracle = arc_oracle.major_oracle(height, denom)
        union = circle.major_arcs(height, denom)
    expected = arc_oracle.mask(oracle, m)
    spans = np.zeros(m, dtype=bool)
    arcs = {(q, a): (lo, hi) for lo, hi, q, a in oracle}
    for q, a, j0, j1 in union.grid_spans(m):
        lo, hi = arcs[q, a]
        assert 0 <= j0 <= j1 < m
        assert not spans[j0 : j1 + 1].any()
        assert all(lo <= Fraction(j, m) <= hi for j in range(j0, j1 + 1))
        spans[j0 : j1 + 1] = True
    assert (spans == expected).all()
    assert (union.grid_mask(m) == expected).all()
    assert union.measure_exact() == arc_oracle.measure(oracle)
    # its complement: the minor-arc mask and measure
    assert (~union.grid_mask(m) == ~expected).all()
    assert 1 - union.measure_exact() == arc_oracle.gaps_measure(oracle)
    # a nested slice M(2Y) minus M(Y), Y in [1/2, sqrt(denom)/4]
    y = 0.5 + slice_at * (0.25 * math.sqrt(denom) - 0.5)
    outer, inner = arc_oracle.major_oracle(2 * y, denom), arc_oracle.major_oracle(max(1.0, y), denom)
    _, sl, sl_measure = circle.height_slice(denom, y, m)
    assert (sl == (arc_oracle.mask(outer, m) & ~arc_oracle.mask(inner, m))).all()
    assert sl_measure == float(arc_oracle.measure_minus(outer, inner))


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
