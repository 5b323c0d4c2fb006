"""Property tests: exact convolution, the power engine, the Farey arc
families, the level sets and the columnar CSV writer against plain oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arc_oracle
import level_oracle
from wgcircle import arith, circle, convolve, serialize
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


def as_array(values, dtype):
    """int64 when asked and every entry fits, else an object array of Python integers."""
    if dtype == "int64" and max(values) < 2**63:
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


@st.composite
def small_prefix_huge_tail(draw, max_bits=200):
    """A short run of small entries followed by a tail of 20- to max_bits-bit
    ones: the shape whose discarded tail corrupts a float-FFT prefix."""
    prefix = draw(st.lists(st.integers(0, 3), min_size=1, max_size=64))
    bits = draw(st.integers(20, max_bits))
    tail = draw(st.lists(st.integers(2 ** (bits - 1), 2**bits - 1), min_size=1, max_size=64))
    return prefix + tail, len(prefix)


def entries(max_size):
    """Nonnegative entries of one random bit width up to 200."""
    return st.integers(0, 200).flatmap(
        lambda bits: st.lists(st.integers(0, 2**bits), min_size=1, max_size=max_size))


@PROPERTY_SETTINGS
@given(
    a=entries(24),
    b=entries(24),
    dtypes=st.tuples(st.sampled_from(["int64", "object"]), st.sampled_from(["int64", "object"])),
    out_len=st.none() | st.integers(1, 60),
)
def test_convolve_exact_matches_python_ints(a, b, dtypes, out_len):
    got = convolve.convolve_exact(as_array(a, dtypes[0]), as_array(b, dtypes[1]), out_len)
    expected = naive_conv(a, b)[:out_len]
    assert got.tolist() == expected
    assert got.dtype == (np.int64 if max(expected) < 2**63 else object)


@PROPERTY_SETTINGS
@given(shape=small_prefix_huge_tail(), dtype=st.sampled_from(["int64", "object"]), truncate=st.booleans())
def test_convolve_exact_small_prefix_huge_tail(shape, dtype, truncate):
    values, prefix_len = shape
    out_len = prefix_len if truncate else None
    got = convolve.convolve_exact(as_array(values, dtype), as_array(values, dtype), out_len)
    assert got.tolist() == naive_conv(values, values)[:out_len]


@PROPERTY_SETTINGS
@given(shape=small_prefix_huge_tail(max_bits=62))
def test_float_checked_prefix_is_exact_or_refused(shape):
    # the float route alone, past the entry bound that convolve_exact splits at
    values, prefix_len = shape
    arr = np.array(values, dtype=np.int64)
    got = convolve.fft_convolve_checked(arr, arr, prefix_len)
    assert got is None or got.tolist() == naive_conv(values, values)[:prefix_len]


@PROPERTY_SETTINGS
@given(
    hist=st.lists(st.integers(0, 2**40), min_size=1, max_size=8),
    s=st.integers(1, 6),
    cyclic=st.booleans(),
    out_len=st.integers(1, 40),
)
def test_power_matches_repeated_convolution(hist, s, cyclic, out_len):
    # entries up to 2^40 to the 6th power reach far past int64
    modulus = len(hist) if cyclic else None
    if cyclic:
        out_len = None
    arr = np.array(hist, dtype=np.int64)
    got = convolve.power(arr, s, out_len, modulus=modulus)
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


def _near(values):
    """Each value with its two float neighbours: on a cut and just either side."""
    return [x for v in values for x in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


_PHASES = np.array([1, -1, 1j, -1j])  # |amplitude * phase| == amplitude exactly


@st.composite
def grid_values(draw, pool, top):
    """Complex grid values whose amplitudes come from the pool or [0, top],
    and a base mask over the grid (possibly empty)."""
    m = draw(st.integers(1, 48))
    amps = draw(st.lists(st.one_of(st.sampled_from(pool), st.floats(0.0, top)), min_size=m, max_size=m))
    phases = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    base = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return np.array(amps) * _PHASES[phases], np.array(base, dtype=bool)


def _level_pair(n, k, s, theta, family, scale, Q, g, f, base):
    """The amplitude-based partition of the base points and the full-grid oracle's."""
    params = {"U": scale} if family == "minor" else {"V": scale, "Q": Q}
    got = circle.level_partition(n, k, s, theta, np.abs(g[base]), np.abs(f[base]), len(g),
                                 family=family, **params)
    return got, level_oracle.level_partition(n, k, s, theta, base, g, f, family=family, **params)


@PROPERTY_SETTINGS
@given(
    family=st.sampled_from(("minor", "slice")),
    n=st.integers(16, 10**7),
    k=st.integers(1, 3),
    s=st.integers(1, 5),
    theta=st.sampled_from((4, 5)),
    scale=st.floats(1e-6, 1e6),
    Q=st.floats(0.5, 1e4),
    data=st.data(),
)
def test_level_partition_matches_full_grid_oracle(family, n, k, s, theta, scale, Q, data):
    # U or V inside and outside the covered range; |g| on every g cut, |f|^s on the f split
    P, L = circle.kth_root_floor(n, k), circle.big_l(n)
    first_cut, log_power = (math.sqrt(n), 3) if family == "minor" else (n / Q, 4)
    split = P**s / (scale * L**log_power)
    g, base = data.draw(grid_values(_near([first_cut, n / scale, 2 * n / scale]) + [0.0], 3.0 * n))
    f_pool = _near([split ** (1.0 / s)]) + [0.0, float(P)]
    f = data.draw(st.lists(st.one_of(st.sampled_from(f_pool), st.floats(0.0, float(P))),
                           min_size=len(g), max_size=len(g)))
    got, expected = _level_pair(n, k, s, theta, family, scale, Q, g, np.array(f, dtype=complex), base)
    assert got == expected
    assert sum(c.points for c in got.classes) == int(base.sum())


def _band_edges(n, theta):
    u_min = n ** (1.0 / theta) / circle.big_l(n) ** 5
    us, u = [], math.sqrt(n)
    while u >= u_min and len(us) < 200:
        us.append(u)
        u /= 2.0
    return [math.sqrt(n)] + [n / u for u in us] + [2 * n / u for u in us]


@PROPERTY_SETTINGS
@given(n=st.one_of(st.integers(2, 10**8), st.integers(2**500, 2**700)), theta=st.integers(1, 8),
       data=st.data())
def test_dyadic_band_cover_matches_band_by_band_oracle(n, theta, data):
    # huge n reaches the 200-band cap; theta = 1 can leave no band at all
    g, base = data.draw(grid_values(_near(_band_edges(n, theta)), 4.0 * n))
    got = circle.dyadic_band_cover(n, theta, np.abs(g[base]))
    assert got == level_oracle.dyadic_band_cover(n, theta, g, base)


def test_level_set_edge_cases_match_oracle():
    n, k, s, theta, scale, Q = 10**5, 2, 1, 5, 50.0, 16.0
    P, L = circle.kth_root_floor(n, k), circle.big_l(n)
    for family, first_cut, log_power in (("minor", math.sqrt(n), 3), ("slice", n / Q, 4)):
        # every point exactly on a cut (s = 1 puts |f| on the split itself), then an empty base
        split = P / (scale * L**log_power)
        g = np.array([first_cut, n / scale, 2 * n / scale, 2 * n / scale, n / scale], dtype=complex)
        f = np.array([split, split, split, 0.0, float(P)], dtype=complex)
        for base in (np.ones(5, dtype=bool), np.zeros(5, dtype=bool)):
            got, expected = _level_pair(n, k, s, theta, family, scale, Q, g, f, base)
            assert got == expected
            assert all(c.points == 0 for c in got.classes) == (not base.any())
    # the 200-band cap, with points on the top edge and just above it
    n, theta = 2**700, 8
    top = _band_edges(n, theta)[-1]
    g = np.array(_near([top, math.sqrt(n)]), dtype=complex)
    base = np.ones(len(g), dtype=bool)
    got = circle.dyadic_band_cover(n, theta, np.abs(g))
    assert got == level_oracle.dyadic_band_cover(n, theta, g, base)
    assert got["bands"] == 200 and got["uncovered"] == 1
    # at this n the lowest band starts at n/sqrt(n), a float above sqrt(n): a point there is covered
    n = 100008
    g = np.array(_near([n / math.sqrt(n)]), dtype=complex)
    got = circle.dyadic_band_cover(n, 5, np.abs(g))
    assert got == level_oracle.dyadic_band_cover(n, 5, g, np.ones(len(g), dtype=bool))
    assert n / math.sqrt(n) > math.sqrt(n) and got["points_above_tiny"] >= 2 and got["uncovered"] == 0


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


@PROPERTY_SETTINGS
@given(x=st.integers(1, 2**200 - 1), k=st.integers(1, 12), offset=st.sampled_from([-1, 0, 1]))
def test_kth_root_floor_near_perfect_powers(x, k, offset):
    n = x**k + offset
    if n < 1:
        return
    root = arith.kth_root_floor(n, k)
    assert root**k <= n < (root + 1) ** k
