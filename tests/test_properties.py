"""Property tests: exact convolution, the power engine, the Farey arc
families, the level sets and the columnar CSV and JSON writers against plain
oracles."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arc_oracle
import grid_oracle
import level_oracle
import local_oracle
import series_oracle
from wgcircle import arith, circle, convolve, serialize, series

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
    # the cyclic branch checks the local-count oracle, which folds the same engine's products
    arr = np.array(hist, dtype=np.int64)
    if cyclic:
        assert local_oracle.cyclic_power(arr, s, len(hist)) == naive_power(hist, s, None, len(hist))
        return
    got = convolve.power(arr, s, out_len)
    expected = naive_power(hist, s, out_len, None)
    assert got.tolist() == expected
    assert got.dtype == (np.int64 if max(expected) < 2**63 else object)


#: m is prime, by trial division, for m = 0..5000.
TRIAL_DIVISION = [m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1)) for m in range(5001)]


@PROPERTY_SETTINGS
@given(limit=st.integers(2, 5000))
def test_sieve_flags_match_trial_division(limit):
    # limit itself is sieved too, also when it is prime
    flags = arith.sieve_primes(limit)
    assert flags.dtype == bool and len(flags) == limit + 1
    assert flags.tolist() == TRIAL_DIVISION[: limit + 1]


SMALL_PRIMES = np.flatnonzero(arith.sieve_primes(2000)).tolist()


@PROPERTY_SETTINGS
@given(p=st.sampled_from(SMALL_PRIMES), n=st.integers(0, 10**7), k=st.integers(1, 8), s=st.integers(1, 11))
def test_mp_count_matches_cyclic_power(p, n, k, s):
    # d = gcd(k, p - 1) runs over {1, 2, 3, 4, 6, 8}; p^s reaches 2^120
    factors = series.class_factors(p, k, s)
    assert factors.mp[factors.slot(n % p)] == local_oracle.mp_count(p, n, k, s)


@st.composite
def tiny_local_cases(draw):
    """(p, s) with p^s <= 30000, small enough to enumerate every tuple."""
    p = draw(st.sampled_from([p for p in SMALL_PRIMES if p * p <= 30000]))
    s = draw(st.integers(1, int(math.log(30000, p) + 1e-9)))
    return p, s


@PROPERTY_SETTINGS
@given(case=tiny_local_cases(), n=st.integers(0, 10**4), k=st.integers(1, 8))
def test_mp_count_matches_enumeration(case, n, k):
    p, s = case
    factors = series.class_factors(p, k, s)
    assert factors.mp[factors.slot(n % p)] == local_oracle.brute_mp_count(p, n, k, s)


@PROPERTY_SETTINGS
@given(p=st.sampled_from(SMALL_PRIMES), n=st.integers(0, 10**7), k=st.integers(1, 8), s=st.integers(1, 11))
def test_chi_p_sum_route_matches_s_n_q(p, n, k, s):
    # the Gauss-period sum against the FFT of the power histogram
    factors = series.class_factors(p, k, s)
    assert abs(factors.snp[factors.slot(n % p)] - series.s_n_q(p, n, k, s)) < 1e-12


@PROPERTY_SETTINGS
@given(n=st.integers(0, 10**7), k=st.integers(1, 6), s=st.integers(1, 6),
       xs=st.lists(st.integers(1, 300), min_size=1, max_size=4))
def test_series_partials_match_q_by_q_sum(n, k, s, xs):
    # the prime-moduli q-sum against one s_n_q call per squarefree q
    partials = series.series_partials(n, k, s, xs)
    expected = series_oracle.qsum_partials(n, k, s, xs)
    assert sorted(partials) == sorted(expected)
    for x, value in partials.items():
        assert abs(value.real - expected[x].real) < 1e-12
        assert abs(abs(value.imag) - abs(expected[x].imag)) < 1e-12


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
@given(family=families(), slice_at=st.floats(0.0, 1.0))
def test_grid_points_match_contains(family, slice_at):
    denom, m, height = family
    oracle = arc_oracle.major_oracle(height, denom)
    union = circle.major_arcs(height, denom)
    full = arc_oracle.mask(oracle, m)
    assert (arc_oracle.span_mask(oracle, m) == full).all()
    expected = full[: circle.half_size(m)]
    arcs = {(q, a): (lo, hi) for lo, hi, q, a in oracle}
    j, q, a = union.grid_points(m)
    # ascending j within [0, m/2]: no point twice; each arc's points one run of consecutive j
    assert (np.diff(j) > 0).all() and (len(j) == 0 or 0 <= j[0] <= j[-1] <= m // 2)
    starts = np.flatnonzero(np.diff(q, prepend=0) | np.diff(a, prepend=-1))
    assert len(set(zip(q[starts].tolist(), a[starts].tolist()))) == len(starts)
    assert (np.diff(j)[(np.diff(q) == 0) & (np.diff(a) == 0)] == 1).all()
    for jj, qq, aa in zip(j.tolist(), q.tolist(), a.tolist()):
        lo, hi = arcs[qq, aa]
        assert lo <= Fraction(jj, m) <= hi
    points = np.zeros(circle.half_size(m), dtype=bool)
    points[j] = True
    assert (points == expected).all()
    assert (union.grid_mask(m) == expected).all()
    assert union.measure_exact() == arc_oracle.measure(oracle)
    # its complement: the minor-arc mask and measure
    assert (~union.grid_mask(m) == ~expected).all()
    assert 1 - union.measure_exact() == arc_oracle.gaps_measure(oracle)
    # a nested slice M(2Y) minus M(Y), Y in [1/2, sqrt(denom)/4]
    y = 0.5 + slice_at * (0.25 * math.sqrt(denom) - 0.5)
    outer, inner = arc_oracle.major_oracle(2 * y, denom), arc_oracle.major_oracle(max(1.0, y), denom)
    _, sl, sl_measure = circle.height_slice(denom, y, m)
    assert (sl == (arc_oracle.mask(outer, m) & ~arc_oracle.mask(inner, m))[: circle.half_size(m)]).all()
    assert sl_measure == float(arc_oracle.measure_minus(outer, inner))


@PROPERTY_SETTINGS
@given(n=st.integers(3, 10**30), k=st.integers(1, 5))
def test_core_arcs_are_the_two_q_one_arcs(n, k):
    # the core height (log n)^(1/99) stays below 2, so the fixed-width core
    # arcs |alpha - a/q| <= Qcal/n, q <= Qcal, are the order-1 family
    height = circle.major_height("N", n, k)
    union = circle.build_arc_union("N", n, k)
    assert union.intervals.tolist() == [[1, 0], [1, 1]]
    assert Fraction(union.num, union.den) == Fraction(height) / n
    assert union.measure_exact() == arc_oracle.measure(arc_oracle.core_oracle(height, n))


@PROPERTY_SETTINGS
@given(n=st.integers(1024, 20000), s=st.integers(1, 3), oversample=st.integers(1, 4),
       label=st.sampled_from(("K", "Kprime", "L", "N", "slice")), slice_at=st.floats(0.0, 1.0))
def test_grid_masks_are_mirror_symmetric(n, s, oversample, label, slice_at):
    # a/q -> (q - a)/q maps each family onto itself, so its mask is symmetric
    # under j -> m - j and the half grid j <= m/2 holds all of it
    m = circle.alias_free_size(n, s, oversample)
    if label == "slice":
        y = 0.5 + slice_at * (0.25 * math.sqrt(n) - 0.5)
        full = (arc_oracle.span_mask(arc_oracle.major_oracle(2 * y, n), m)
                & ~arc_oracle.span_mask(arc_oracle.major_oracle(max(1.0, y), n), m))
        half = circle.height_slice(n, y, m)[1]
    else:
        height = circle.major_height(label, n, 2)
        oracle = arc_oracle.core_oracle(height, n) if label == "N" else arc_oracle.major_oracle(height, n)
        full = arc_oracle.span_mask(oracle, m)
        union = circle.build_arc_union(label, n, 2)
        half = union.grid_mask(m)
        assert np.array_equal(union.grid_points(m)[0], np.flatnonzero(half))
    j = np.arange(m)
    assert (full == full[(m - j) % m]).all()
    assert (half == full[: circle.half_size(m)]).all()


@PROPERTY_SETTINGS
@given(m=st.one_of(st.sampled_from((256, 512, 777, 1000, 1024)), st.integers(1, 300)),
       count=st.integers(0, 3), twist=st.one_of(st.none(), st.integers(-3000, 3000)),
       region=st.one_of(st.none(), st.tuples(st.integers(4, 2000), st.floats(0.0, 1.0))), data=st.data())
def test_integral_matches_full_grid_oracle(m, count, twist, region, data):
    # twice the real part of the half-grid sum, less j = 0 and j = m/2,
    # against the plain sum over the full grid; odd m has no point m/2
    spectra = [np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=m))) for _ in range(count)]
    flags = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
    union = full_mask = None
    if region is not None:
        denom, at = region
        Q = 1.0 + at * (0.5 * math.sqrt(denom) - 1.0)
        union = circle.major_arcs(Q, denom)
        full_mask = arc_oracle.mask(arc_oracle.major_oracle(Q, denom), m)
    got = circle.integrate_over_set(spectra, flags, twist, union, m)
    value, points, sup = grid_oracle.integral(spectra, flags, twist, full_mask, m)
    # the product of the l1 norms bounds |integrand| and scales the FFT rounding
    scale = math.prod(float(np.abs(c).sum()) for c in spectra)
    assert type(got.value) is complex and got.value.imag == 0.0
    assert abs(got.value - value) <= 1e-12 * scale
    assert got.points == points and got.measure == points / m
    if union is None:
        assert (got.boundary_error, got.points, got.measure) == (0.0, m, 1.0)
    else:
        expected = union.endpoint_count() * sup / m
        assert got.boundary_error == pytest.approx(expected, rel=1e-12, abs=1e-12 * scale)


def _near(values):
    """Each value with its two float neighbours: on a cut and just either side."""
    return [x for v in values for x in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


_PHASES = np.array([1, -1, 1j, -1j])  # |amplitude * phase| == amplitude exactly


def mirror(half, m):
    """The grid of size m whose points j <= m/2 are `half`, with conj(half[m - j])
    at j > m/2: for complex values the grid of a real spectrum,
    conjugate-symmetric exactly; for a mask, a symmetric base set."""
    tail = half[1 : m - len(half) + 1][::-1]
    return np.concatenate([half, np.conj(tail) if half.dtype.kind == "c" else tail])


@st.composite
def half_grid(draw, m, pool, top):
    """The values at j <= m/2 of the grid of a random real spectrum: its real
    FFT, or values drawn directly (the spectrum is then their inverse real
    FFT) with amplitudes from the pool or [0, top], so they can sit on a cut;
    the points j = 0 and j = m/2 of a real spectrum's grid are real."""
    h = circle.half_size(m)
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.floats(-top / m, top / m), min_size=1, max_size=m))
        return np.fft.rfft(coeffs, n=m)
    amps = draw(st.lists(st.one_of(st.sampled_from(pool), st.floats(0.0, top)), min_size=h, max_size=h))
    phases = draw(st.lists(st.integers(0, 3), min_size=h, max_size=h))
    phases[0] %= 2
    if m % 2 == 0:
        phases[-1] %= 2
    return np.array(amps) * _PHASES[phases]


@st.composite
def half_base(draw, m):
    """A mask over j <= m/2 (possibly empty), the half of a symmetric base set."""
    h = circle.half_size(m)
    return np.array(draw(st.lists(st.booleans(), min_size=h, max_size=h)), dtype=bool)


def assert_same_partition(got, expected):
    """Counts, measures, maxima, thresholds and warnings exactly; sums within 1e-12."""
    assert (got.family, got.thresholds, got.warnings) == (expected.family, expected.thresholds, expected.warnings)
    assert len(got.classes) == len(expected.classes)
    for mine, theirs in zip(got.classes, expected.classes):
        assert (mine.label, mine.points, mine.measure, mine.sup_g, mine.sup_f) == (
            theirs.label, theirs.points, theirs.measure, theirs.sup_g, theirs.sup_f)
        assert mine.contribution_abs == pytest.approx(theirs.contribution_abs, rel=1e-12, abs=0.0)


def _level_pair(n, k, s, theta, family, scale, Q, g, f, base, m):
    """The half-grid partition of the base points and the full-grid oracle's
    on the mirrored grid."""
    params = {"U": scale} if family == "minor" else {"V": scale, "Q": Q}
    got = circle.level_partition(n, k, s, theta, circle.BasePoints.select(np.abs(g), np.abs(f), base, m),
                                 family=family, **params)
    expected = level_oracle.level_partition(n, k, s, theta, mirror(base, m), mirror(g, m), mirror(f, m),
                                            family=family, **params)
    return got, expected


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
    P, L = circle.kth_root_floor(n, k), math.log(n)
    first_cut, log_power = (math.sqrt(n), 3) if family == "minor" else (n / Q, 4)
    split = P**s / (scale * L**log_power)
    m = data.draw(st.integers(1, 48))
    g = data.draw(half_grid(m, _near([first_cut, n / scale, 2 * n / scale]) + [0.0], 3.0 * n))
    f = data.draw(half_grid(m, _near([split ** (1.0 / s)]) + [0.0, float(P)], float(P)))
    base = data.draw(half_base(m))
    got, expected = _level_pair(n, k, s, theta, family, scale, Q, g, f, base, m)
    assert_same_partition(got, expected)
    assert sum(c.points for c in got.classes) == int(mirror(base, m).sum())


def _band_edges(n, theta):
    u_min = n ** (1.0 / theta) / math.log(n) ** 5
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
    m = data.draw(st.integers(1, 48))
    g, base = data.draw(half_grid(m, _near(_band_edges(n, theta)), 4.0 * n)), data.draw(half_base(m))
    got = circle.dyadic_band_cover(n, theta, np.abs(g)[base], circle.HalfPoints.of_mask(base, m))
    assert got == level_oracle.dyadic_band_cover(n, theta, mirror(g, m), mirror(base, m))


def _cover_pair(n, theta, g, m):
    """The half-grid band cover of every point j <= m/2 and the full-grid oracle's."""
    base = np.ones(len(g), dtype=bool)
    got = circle.dyadic_band_cover(n, theta, np.abs(g), circle.HalfPoints.of_mask(base, m))
    return got, level_oracle.dyadic_band_cover(n, theta, mirror(g, m), mirror(base, m))


@PROPERTY_SETTINGS
@given(n=st.integers(2, 10**15), sup=st.floats(1e-3, 1e15))
def test_band_scale_puts_the_largest_g_in_the_band(n, sup):
    # the default band threshold: 2n/sup, lowered only as far as the band needs
    scale = circle._band_scale(n, sup)
    assert n / scale <= sup <= 2 * n / scale
    assert scale == 2.0 * n / sup or 2 * n / math.nextafter(scale, math.inf) < sup


def test_level_set_edge_cases_match_oracle():
    n, k, s, theta, scale, Q = 10**5, 2, 1, 5, 50.0, 16.0
    P, L = circle.kth_root_floor(n, k), math.log(n)
    for family, first_cut, log_power in (("minor", math.sqrt(n), 3), ("slice", n / Q, 4)):
        # every point exactly on a cut (s = 1 puts |f| on the split itself), then an
        # empty base; the grid of size 8 has its points j <= 4 here, j = 0 and 4 counted once
        split = P / (scale * L**log_power)
        g = np.array([first_cut, n / scale, 2 * n / scale, 2 * n / scale, n / scale], dtype=complex)
        f = np.array([split, split, split, 0.0, float(P)], dtype=complex)
        for base in (np.ones(5, dtype=bool), np.zeros(5, dtype=bool)):
            got, expected = _level_pair(n, k, s, theta, family, scale, Q, g, f, base, 8)
            assert_same_partition(got, expected)
            assert sum(c.points for c in got.classes) == (8 if base.any() else 0)
    # the 200-band cap, with points on the top edge and just above it
    n, theta = 2**700, 8
    top = _band_edges(n, theta)[-1]
    g = np.array(_near([top, math.sqrt(n)]), dtype=complex)
    got, expected = _cover_pair(n, theta, g, 2 * len(g) - 2)
    assert got == expected
    assert got["bands"] == 200 and got["uncovered"] == 2  # just above the top edge, and its mirror
    # at this n the lowest band starts at n/sqrt(n), a float above sqrt(n): a point there is covered
    n = 100008
    g = np.array(_near([n / math.sqrt(n)]), dtype=complex)
    got, expected = _cover_pair(n, 5, g, 2 * len(g) - 1)
    assert got == expected
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


_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308,
                     1.5e-29, 1e-4, 9.99999999999e-5, 100.0, 1e11, 1e12 + 0.5, 123456789012345.0, 1e16,
                     0.1 + 0.2]),
    st.floats(min_value=1e-40, max_value=1e-25),
)


@PROPERTY_SETTINGS
@given(rows=st.lists(
    st.tuples(
        st.integers(-(2**63), 2**63 - 1),
        st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**200)),
        _JSON_FLOATS, _JSON_FLOATS,
    ),
    max_size=20,
), named=st.booleans())
def test_json_records_match_json_dumps(rows, named):
    n, r, x, y = (list(column) for column in zip(*rows)) if rows else [[]] * 4
    # past int64 the integers are an object array of Python integers
    r_dtype = object if any(v >= 2**63 for v in r) else np.int64
    columns = (np.array(n, dtype=np.int64), np.array(r, dtype=r_dtype),
               np.array(x, dtype=np.float64), np.array(y, dtype=np.float64))
    fields = ("n", "r%d", "x", "y") if named else ()
    records = serialize.JsonRecords(columns, fields)
    rows = [dict(zip(fields, row)) if named else list(row) for row in rows]
    # at the top level, as a value and as a list element, nested at several depths
    for report, plain in (
        (records, rows),
        ({"a": 0.1, "rows": records, "more": [records, {"deep": records}], "z": None},
         {"a": 0.1, "rows": rows, "more": [rows, {"deep": rows}], "z": None}),
    ):
        expected = (json.dumps(serialize.round_floats(plain), indent=2) + "\n").encode()
        assert serialize.to_json_bytes(report) == expected


@PROPERTY_SETTINGS
@given(x=st.integers(1, 2**200 - 1), k=st.integers(1, 12), offset=st.sampled_from([-1, 0, 1]))
def test_kth_root_floor_near_perfect_powers(x, k, offset):
    n = x**k + offset
    if n < 1:
        return
    root = arith.kth_root_floor(n, k)
    assert root**k <= n < (root + 1) ** k
