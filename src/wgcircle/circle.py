"""Exponential sums on grids, Farey arc unions, arc integrals, level sets.

The two generating functions share one representation: an integer-frequency
spectrum with real weights.  The smooth-power sum places weight 1 at the
frequencies x^k for x in A(P, R); the prime sum places weight log p at each
prime p <= n.  Values at the uniform grid alpha_j = j/M come from one inverse
FFT, and a Riemann sum over the grid integrates g * f^s * e(-alpha n) exactly
on the full circle whenever M exceeds the bandwidth (trig-polynomial
orthogonality); on arc subsets the endpoint error is reported, never hidden.

An arc union is one closed Farey family: the reduced fractions a/q <= 1
with q <= q_top, in ascending order from the Farey next-term recurrence, each
with an integer reach r, and one exact width W shared by the whole family (a
float height is a dyadic rational, so W = num/den is exact).  The arc around
a/q is |q*alpha - a| <= r*W, with integer-ratio endpoints, so grid masks,
measures and the disjointness check are exact integer arithmetic.  The major
arcs of height Q have reach 1 and W = Q/denom, q <= Q; the core arcs have
reach q and the fixed width W = Qcal/n.  The minor arcs and the height slices
are not unions of their own: they are mask expressions (complement,
difference) over these families, with exact measures.  The weight

    upsilon(alpha) = 1/(q + n*|q*alpha - a|)

is attached to the unique covering arc of height sqrt(n)/2, located through
continued-fraction convergents rather than a linear scan.

The dissection ledger takes |g| and |f| once, at the base points of the
minor arcs and of the height slice only; the level partitions, the band cover
and the envelope constant work on those compressed arrays, from which a class
mask selects the same points, in the same order, as from the full grid.

Grid evaluation and classification are data-parallel over grid indices;
reductions use numpy's fixed-order pairwise sums, so results are reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .arith import SmoothSet, check_double_range, gauss_sum, kth_root_floor, sieve_primes, smooth_set
from .errors import AliasingError, DomainError, ensure_memory
from .specialfn import eta_value

#: Exponent of the core-arc height (log n)^CORE_HEIGHT_EXPONENT; configurable,
#: tiny by design: at desk scale only q = 1 arcs survive.
CORE_HEIGHT_EXPONENT = 1.0 / 99.0

#: Exponent e in the pruned-arc height P^e; any small power works.
PRUNED_HEIGHT_EXPONENT = 1.0 / 5.0


def big_l(n: int) -> float:
    return math.log(n)


# ---------------------------------------------------------------------------
# Spectra and grids


@dataclass(frozen=True)
class ExponentialSumSpectrum:
    """Real weights on integer frequencies 0..max_freq."""

    coeffs: np.ndarray  # float64
    label: str = ""

    @property
    def max_freq(self) -> int:
        return len(self.coeffs) - 1

    def value_at_zero(self) -> float:
        return float(self.coeffs.sum())


def build_f_spectrum(n: int, k: int, R: int) -> tuple[ExponentialSumSpectrum, SmoothSet]:
    """Indicator spectrum of the smooth k-th powers x^k <= n, x in A(P, R)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    P = kth_root_floor(n, k)
    members = smooth_set(P, R)
    ensure_memory(8 * (n + 1), "smooth-power spectrum")
    coeffs = np.zeros(n + 1, dtype=np.float64)
    coeffs[members.members**k] = 1.0
    return ExponentialSumSpectrum(coeffs=coeffs, label=f"f(P={P},R={R},k={k})"), members


def build_g_spectrum(n: int) -> ExponentialSumSpectrum:
    """log p at each prime frequency p <= n."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    table = sieve_primes(n)
    ensure_memory(8 * (n + 1), "prime spectrum")
    coeffs = np.zeros(n + 1, dtype=np.float64)
    coeffs[table.primes] = table.log_weights
    return ExponentialSumSpectrum(coeffs=coeffs, label=f"g(n={n})")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid alpha_j = j/size, size a power of two."""

    size: int
    oversample: int = 1

    def __post_init__(self) -> None:
        if self.size < 2 or self.size & (self.size - 1):
            raise DomainError(f"grid size must be a power of two >= 2, got {self.size}")
        if self.oversample < 1:
            raise DomainError(f"oversample must be >= 1, got {self.oversample}")

    @classmethod
    def alias_free(cls, n: int, s: int, oversample: int = 1) -> "GridSpec":
        """Smallest power-of-two grid exceeding the bandwidth (s+1)*n, scaled."""
        need = (s + 1) * n + 1
        size = 1 << (need - 1).bit_length()
        if oversample > 1:
            size <<= (oversample - 1).bit_length()
        return cls(size=size, oversample=oversample)

    def alphas(self) -> np.ndarray:
        return np.arange(self.size) / self.size


def evaluate_on_grid(
    spectrum: ExponentialSumSpectrum, grid: GridSpec, allow_alias: bool = False
) -> np.ndarray:
    """Values sum_m c_m e(alpha_j m) at all grid points, by inverse FFT."""
    if grid.size <= spectrum.max_freq and not allow_alias:
        raise AliasingError(
            f"grid size {grid.size} <= max frequency {spectrum.max_freq}; "
            "pass allow_alias=True only if aliasing is intended"
        )
    ensure_memory(16 * grid.size, "grid evaluation")
    return np.fft.ifft(spectrum.coeffs, n=grid.size) * grid.size


# ---------------------------------------------------------------------------
# Farey arcs


@dataclass(frozen=True)
class ArcUnion:
    """A closed Farey family: the arcs |q*alpha - a| <= r*W around each reduced
    a/q in [0, 1] with q <= q_top, clipped to [0, 1].

    `intervals` holds one (q, a, r) triple per arc, in ascending a/q, with the
    integer reach r.  The family shares one exact width W = num/den, so the
    arc around a/q runs from (a*den - r*num)/(q*den) to (a*den + r*num)/(q*den)
    and everything below is integer arithmetic on those ratios.
    """

    label: str
    intervals: tuple[tuple[int, int, int], ...]
    num: int
    den: int

    def __post_init__(self) -> None:
        # neighbouring arcs are disjoint iff hi_i < lo_{i+1}; cross-multiplied
        # by q_i*q_{i+1}*den that is an exact integer comparison
        q, a, r = (col.astype(object) for col in self._columns)
        hi = (a[:-1] * self.den + r[:-1] * self.num) * q[1:]
        lo = (a[1:] * self.den - r[1:] * self.num) * q[:-1]
        overlaps = np.flatnonzero(hi >= lo)
        if len(overlaps):
            q1, a1, r1 = self.intervals[overlaps[0] + 1]
            seam = max(0, a1 * self.den - r1 * self.num) / (q1 * self.den)
            raise DomainError(f"{self.label}: overlapping intervals at {seam:.6g}")

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        q, a, r = np.array(self.intervals, dtype=np.int64).reshape(-1, 3).T
        return q, a, r

    def measure_exact(self) -> Fraction:
        """Exact length inside [0, 1]: each arc is 2*r*W/q long, summed per
        distinct q, less what the arcs at 0 and 1 reach past [0, 1] (the family
        is disjoint, so no other arc can)."""
        counts = Counter((q, r) for q, _, r in self.intervals)
        per_width = sum((Fraction(count * r, q) for (q, r), count in counts.items()), Fraction(0))
        (q0, a0, r0), (q1, a1, r1) = self.intervals[0], self.intervals[-1]
        past_zero = Fraction(max(0, r0 * self.num - a0 * self.den), q0 * self.den)
        past_one = Fraction(max(0, (a1 - q1) * self.den + r1 * self.num), q1 * self.den)
        return Fraction(2 * self.num, self.den) * per_width - past_zero - past_one

    def measure(self) -> float:
        return float(self.measure_exact())

    def _spans(self, m: int) -> tuple[np.ndarray, ...]:
        """q, a, j0, j1 of the arcs holding grid points j/m, j0 <= j <= j1.

        With F = floor(m*r*W) the arc's grid points are exactly
        ceil((m*a - F)/q) <= j <= floor((m*a + F)/q): m*a is an integer, so
        the fractional part of m*r*W never moves either bound.
        """
        q, a, r = self._columns
        reaches, which = np.unique(r, return_inverse=True)
        F = np.array([m * int(x) * self.num // self.den for x in reaches], dtype=np.int64)[which]
        j0 = np.maximum(-((F - m * a) // q), 0)
        j1 = np.minimum((m * a + F) // q, m - 1)
        hit = j0 <= j1
        return q[hit], a[hit], j0[hit], j1[hit]

    def grid_spans(self, m: int):
        """(q, a, j0, j1) for each arc holding grid points j/m, j0 <= j <= j1.

        The point alpha = 1 is the grid point 0 by periodicity, so the arc at
        1 stops at j = m - 1 (the arc at 0 covers it).
        """
        return zip(*(col.tolist() for col in self._spans(m)))

    def grid_mask(self, m: int) -> np.ndarray:
        """Boolean membership of the grid points j/m, j in [0, m)."""
        _, _, j0, j1 = self._spans(m)
        edges = np.zeros(m + 1, dtype=np.int8)
        edges[j0] = 1
        edges[j1 + 1] -= 1  # disjoint spans: no index repeats within j0 or within j1 + 1
        return np.cumsum(edges[:-1], dtype=np.int8).astype(bool)

    def endpoint_count(self) -> int:
        return 2 * len(self.intervals)

    def to_json_arcs(self) -> list[dict]:
        # int / int is correctly rounded, so these are the floats of the exact values
        return [
            {"q": q, "a": a, "center": a / q, "half_width": r * self.num / (q * self.den)}
            for q, a, r in self.intervals
        ]


def _farey_family(label: str, q_top: int, width: Fraction, reach_is_q: bool) -> ArcUnion:
    """The arcs |q*alpha - a| <= r*width around the Farey fractions of order
    q_top, with reach r = q or r = 1.

    The next-term recurrence yields every reduced a/q in [0, 1] with q <= q_top
    in ascending order, so there is no gcd test and no sort.
    """
    arcs = [(1, 0, 1)]
    a, b, c, d = 0, 1, 1, q_top
    while c <= q_top:
        step = (q_top + b) // d
        a, b, c, d = c, d, step * c - a, step * d - b
        arcs.append((b, a, b if reach_is_q else 1))
    return ArcUnion(label=label, intervals=tuple(arcs), num=width.numerator, den=width.denominator)


def major_arcs(Q: float, denom: int, label: str | None = None) -> ArcUnion:
    """|q*alpha - a| <= Q/denom around each reduced a/q in [0, 1] with q <= Q.

    Disjoint when Q <= sqrt(denom)/2 (enforced); the width is exact.
    """
    if Q < 1:
        raise DomainError(f"height must be >= 1, got {Q}")
    # 1e-9 slack: callers pass Q = sqrt(denom)/2 as a float, which may round a
    # hair above the irrational bound; disjointness genuinely needs only
    # 2*Q^2 < denom, so the slack is harmless and overlap is still asserted
    # exactly at construction.
    if Q > 0.5 * math.sqrt(denom) * (1.0 + 1e-9):
        raise DomainError(f"height {Q} above the disjointness bound sqrt({denom})/2")
    return _farey_family(label or f"M({Q:g})", int(math.floor(Q)), Fraction(Q) / denom, reach_is_q=False)


def core_arcs(n: int, height: float | None = None, label: str = "N") -> ArcUnion:
    """Fixed-width arcs |alpha - a/q| <= Qcal/n for q <= Qcal.

    Default Qcal = (log n)^(1/99): at n <= 1e6 only q = 1 survives.
    """
    q_cal = (math.log(n)) ** CORE_HEIGHT_EXPONENT if height is None else height
    if q_cal < 1:
        raise DomainError(f"core height must be >= 1, got {q_cal}")
    return _farey_family(label, int(math.floor(q_cal)), Fraction(q_cal) / n, reach_is_q=True)


def build_arc_union(label: str, n: int, k: int, **params) -> ArcUnion:
    """Named dissections: M(Q), N, L, K, Kprime, all at scale n."""
    P = kth_root_floor(n, k)
    if label == "M":
        return major_arcs(params["Q"], n, label=f"M({params['Q']:g})")
    if label == "N":
        return core_arcs(n, params.get("height"))
    if label == "L":
        e = params.get("height_exponent", PRUNED_HEIGHT_EXPONENT)
        return major_arcs(max(1.0, P**e), n, label="L")
    if label == "K":
        return major_arcs(n**0.4, n, label="K")
    if label == "Kprime":
        return major_arcs(0.5 * math.sqrt(n), n, label="Kprime")
    raise DomainError(f"unknown arc-union label {label!r}")


def height_slice(n: int, Y: float, m: int) -> tuple[str, np.ndarray, float]:
    """The slice P(Y) = M(2Y) minus M(Y) at scale n: its label, its mask on
    the grid j/m and its measure.

    Each arc of M(max(1, Y)) has the centre of an arc of M(2Y) and is no wider
    (Y >= 1/2), so the slice measure is the exact difference of the two.
    """
    if not 0.5 <= Y <= 0.25 * math.sqrt(n):
        raise DomainError(f"slice height must lie in [1/2, sqrt(n)/4], got {Y}")
    outer = major_arcs(2 * Y, n)
    inner = major_arcs(max(1.0, Y), n)
    mask = outer.grid_mask(m) & ~inner.grid_mask(m)
    return f"P({Y:g})", mask, float(outer.measure_exact() - inner.measure_exact())


# ---------------------------------------------------------------------------
# The covering-arc weight


def _convergents(alpha: float, q_cap: int):
    """Continued-fraction convergents a/q of alpha with q <= q_cap."""
    a0 = math.floor(alpha)
    p_prev, q_prev = 1, 0
    p_cur, q_cur = a0, 1
    yield p_cur, q_cur
    frac = alpha - a0
    for _ in range(64):
        if frac <= 1e-18:
            return
        x = 1.0 / frac
        digit = math.floor(x)
        frac = x - digit
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, digit * p_cur + p_prev, digit * q_cur + q_prev
        if q_cur > q_cap:
            return
        yield p_cur, q_cur


def locate_farey_arc(alpha: float, Q: float, denom: int) -> tuple[int, int] | None:
    """The (q, a) with q <= Q and |q*alpha - a| <= Q/denom covering alpha, or None.

    Any covering center is a continued-fraction convergent of alpha (the arcs
    are narrower than the Legendre threshold for q <= Q <= sqrt(denom)/2), so
    only convergents need checking; disjointness makes the hit unique.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    bound = Q / denom
    for a, q in _convergents(alpha, int(math.floor(Q))):
        if abs(q * alpha - a) <= bound:
            return q, a
    return None


def upsilon(alpha: float, n: int) -> float:
    """1/(q + n*|q*alpha - a|) on the covering arc of height sqrt(n)/2, else 0."""
    q0 = 0.5 * math.sqrt(n)
    hit = locate_farey_arc(alpha, q0, n)
    if hit is None:
        return 0.0
    q, a = hit
    return 1.0 / (q + n * abs(q * alpha - a))


# ---------------------------------------------------------------------------
# Arc integrals


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    boundary_error: float  # endpoint-count * sup|integrand| / M; 0 on the full circle
    points: int
    measure: float


def integrate_over_set(
    spectra: list[ExponentialSumSpectrum],
    conjugate_flags: list[bool],
    twist: int | None,
    region: ArcUnion | None,
    grid: GridSpec,
    allow_alias: bool = False,
    values: list[np.ndarray] | None = None,
) -> IntegralResult:
    """Riemann sum of prod spectra * e(-alpha*twist) over the region's grid points.

    On the full circle (region None) with an alias-free grid this equals the
    true integral exactly; on subsets the reported boundary error bounds the
    endpoint effect.  Precomputed grid values can be passed to avoid repeated
    FFTs.
    """
    if len(spectra) != len(conjugate_flags):
        raise DomainError("one conjugate flag per spectrum required")
    m = grid.size
    if values is None:
        values = [evaluate_on_grid(sp, grid, allow_alias) for sp in spectra]
    prod = np.ones(m, dtype=np.complex128)
    for vals, conj in zip(values, conjugate_flags):
        prod = prod * (np.conj(vals) if conj else vals)
    if twist:
        prod = prod * np.exp((-2j * np.pi * twist / m) * np.arange(m))
    if region is None:
        return IntegralResult(value=complex(prod.mean()), boundary_error=0.0, points=m, measure=1.0)
    mask = region.grid_mask(m)
    pts = int(mask.sum())
    value = complex(prod[mask].sum() / m)
    sup = float(np.abs(prod).max()) if m else 0.0
    return IntegralResult(
        value=value,
        boundary_error=region.endpoint_count() * sup / m,
        points=pts,
        measure=pts / m,
    )


@lru_cache(maxsize=64)
def _v_weights(n: int, k: int) -> np.ndarray:
    m = np.arange(1, n + 1, dtype=np.float64)
    return m ** (-1.0 + 1.0 / k) / k


def v_poly(beta: float, n: int, k: int) -> complex:
    """(1/k) sum_{m<=n} m^(1/k - 1) e(beta m), by direct summation."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    w = _v_weights(n, k)
    phases = np.exp(2j * np.pi * beta * np.arange(1, n + 1))
    return complex(np.dot(w, phases))


#: Composite Gauss-Legendre rule of singular_integral: nodes per panel, and
#: panels no wider than 1/(_PANELS_PER_PERIOD * n) in beta, half the period of
#: the fastest phase e(-beta n).
_GL_NODES = 16
_PANELS_PER_PERIOD = 2


def singular_integral(n: int, k: int, s: int, X: float) -> float:
    """Composite Gauss-Legendre quadrature of v_1(b) * v_k(b)^s * e(-b n) over |b| <= X/n.

    The integrand has conjugate symmetry, so the value is twice the real part
    of the half-range integral.
    """
    if not 1 <= X <= n / 2:
        raise DomainError(f"need 1 <= X <= n/2, got X={X}")
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    edges = np.linspace(0.0, X / n, math.ceil(_PANELS_PER_PERIOD * X) + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        for node, weight in zip(nodes, weights):
            beta = lo + half * (node + 1.0)
            value = v_poly(beta, n, 1) * v_poly(beta, n, k) ** s * np.exp(-2j * np.pi * beta * n)
            total += half * weight * value.real
    return 2.0 * total


# ---------------------------------------------------------------------------
# Major-arc model and moments


@dataclass(frozen=True)
class ModelErrorReport:
    n: int
    k: int
    R: int
    rho_hat: float
    sup_abs_error: float
    normalized: float  # sup / n^(1/k)
    points: int
    arcs: int


def major_arc_model_error(
    n: int,
    k: int,
    R: int,
    grid: GridSpec | None = None,
    height: float | None = None,
) -> ModelErrorReport:
    """Sup over core-arc grid points of |f(alpha) - rho * S(q,a)/q * v_k(alpha - a/q)|.

    rho is the empirical smooth density |A(P, R)| / P.  The sup is also
    returned normalized by n^(1/k).
    """
    spectrum, members = build_f_spectrum(n, k, R)
    P = kth_root_floor(n, k)
    rho_hat = len(members) / P
    grid = grid or GridSpec.alias_free(n, 1)
    f_vals = evaluate_on_grid(spectrum, grid)
    arcs_union = core_arcs(n, height)
    m = grid.size
    sup_err = 0.0
    points = 0
    for q, a, j0, j1 in arcs_union.grid_spans(m):
        center = a / q
        for j in range(j0, j1 + 1):
            alpha = j / m
            model = rho_hat * gauss_sum(q, a, k) / q * v_poly(alpha - center, n, k)
            sup_err = max(sup_err, abs(f_vals[j] - model))
            points += 1
    return ModelErrorReport(
        n=int(n), k=int(k), R=int(R), rho_hat=rho_hat,
        sup_abs_error=sup_err, normalized=sup_err / n ** (1.0 / k),
        points=points, arcs=len(arcs_union.intervals),
    )


@dataclass(frozen=True)
class MomentResult:
    P: int
    R: int
    Q: float
    t: float
    k: int
    value: float
    boundary_error: float
    measure: float
    points: int
    below_guaranteed_range: bool  # t < k + 1: outside the guaranteed regime


def _moment_values(P: int, R: int, k: int, t: float, grid: GridSpec | None = None) -> tuple[GridSpec, np.ndarray]:
    """The grid and f on it at denominator P^k, refused before the FFT when the
    sums of |f|^t <= P^t over the grid could leave the double range."""
    grid = grid or GridSpec.alias_free(P**k, 0, oversample=2)
    check_double_range(P, t, f"P^t * grid size = {P}^{t:g} * {grid.size}", factor=grid.size)
    return grid, evaluate_on_grid(build_f_spectrum(P**k, k, R)[0], grid)


def moment_v(
    P: int,
    R: int,
    Q: float,
    t: float,
    k: int,
    grid: GridSpec | None = None,
    f_values: np.ndarray | None = None,
) -> MomentResult:
    """Restricted Riemann sum of |f|^t over the major arcs of height Q.

    Arc geometry lives at denominator P^k here.  Fractional t is fine.
    Precomputed f values (from the matching grid) avoid repeated FFTs in
    dyadic sweeps.
    """
    denom = P**k
    if not 1 <= Q <= 0.5 * math.sqrt(denom) * (1.0 + 1e-9):
        raise DomainError(f"need 1 <= Q <= P^(k/2)/2, got Q={Q}")
    if f_values is None:
        grid, f_values = _moment_values(P, R, k, t, grid)
    if grid is None:
        raise DomainError("grid must accompany precomputed f values")
    union = major_arcs(Q, denom)
    mask = union.grid_mask(grid.size)
    amps = np.abs(f_values[mask]) ** t
    value = float(amps.sum() / grid.size)
    sup = float((np.abs(f_values).max()) ** t)
    return MomentResult(
        P=int(P), R=int(R), Q=float(Q), t=float(t), k=int(k),
        value=value,
        boundary_error=union.endpoint_count() * sup / grid.size,
        measure=float(mask.sum()) / grid.size,
        points=int(mask.sum()),
        below_guaranteed_range=t < k + 1,
    )


def moment_doubling_report(P: int, R: int, k: int, t: float, q_values: list[float] | None = None) -> dict:
    """V(Q) over a dyadic ladder with log2 slopes and the reference 2*Delta_t/k."""
    if P < 2 or k < 1:
        raise DomainError(f"need P >= 2 and k >= 1, got P={P}, k={k}")
    reference = 2.0 * eta_value(t / k)  # 2*Delta_t/k with Delta_t = k*eta(t/k)
    denom = P**k
    if q_values is None:
        q_values, q = [], 1.0
        while q <= 0.5 * math.sqrt(denom):
            q_values.append(q)
            q *= 2.0
    grid, f_vals = _moment_values(P, R, k, t)
    rows = []
    prev = None
    for q in q_values:
        res = moment_v(P, R, q, t, k, grid=grid, f_values=f_vals)
        slope = math.log2(res.value / prev) if prev and prev > 0 and res.value > 0 else None
        rows.append({"Q": q, "V": res.value, "measure": res.measure,
                     "boundary_error": res.boundary_error, "log2_ratio": slope})
        prev = res.value
    return {
        "P": P, "R": R, "k": k, "t": t,
        "reference_slope": reference,
        "rows": rows,
        "below_guaranteed_range": t < k + 1,
    }


# ---------------------------------------------------------------------------
# Level sets


@dataclass(frozen=True)
class LevelClass:
    label: str
    points: int
    measure: float
    sup_g: float
    sup_f: float
    contribution_abs: float


@dataclass(frozen=True)
class LevelSetPartition:
    family: str  # "minor" (tiny/band over the minor arcs) or "slice" (per height slice)
    thresholds: dict
    classes: tuple[LevelClass, ...]
    warnings: tuple[str, ...] = ()

    def measures_sum(self) -> float:
        return float(sum(c.measure for c in self.classes))

    def to_csv_rows(self) -> list[list]:
        return [
            [c.label, c.measure, c.sup_g, c.sup_f, c.contribution_abs]
            for c in self.classes
        ]

    def to_report(self, base_measure: float) -> dict:
        return {
            "thresholds": self.thresholds, "warnings": list(self.warnings),
            "measure_sum": self.measures_sum(), "base_measure": base_measure, "classes": self.to_csv_rows(),
        }


def _check_thresholds(**values: float | None) -> None:
    """The band thresholds U and V divide n, so each must be finite and positive."""
    for name, value in values.items():
        if value is not None and not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value}")


def _class_from_mask(label: str, mask: np.ndarray, g_abs, f_abs, weight, m: int) -> LevelClass:
    pts = int(mask.sum())
    return LevelClass(
        label=label,
        points=pts,
        measure=pts / m,
        sup_g=float(g_abs[mask].max()) if pts else 0.0,
        sup_f=float(f_abs[mask].max()) if pts else 0.0,
        contribution_abs=float(weight[mask].sum() / m) if pts else 0.0,
    )


def level_partition(
    n: int,
    k: int,
    s: int,
    theta: int,
    g_abs: np.ndarray,
    f_abs: np.ndarray,
    m: int,
    *,
    family: str,
    U: float | None = None,
    V: float | None = None,
    Q: float | None = None,
) -> LevelSetPartition:
    """Classify the base set's points by the size of |g| (and then |f|).

    g_abs and f_abs are |g| and |f| at the base set's points of the grid of
    size m, in grid order.  family="minor": tiny_g is |g| <= sqrt(n); the band
    is n/U <= |g| <= 2n/U, split at |f|^s = P^s/(U * L^3).  family="slice":
    small_g is |g| <= n/Q on a height slice, band n/V <= |g| <= 2n/V split at
    |f|^s = P^s/(V * L^4).  Points of the base in neither class land in
    "unbanded", so the classes partition the base exactly.  Thresholds outside
    the ranges the theory covers produce warnings, not errors.
    """
    _check_thresholds(U=U, V=V)
    if len(f_abs) != len(g_abs):
        raise DomainError("g and f amplitudes differ in length")
    L = big_l(n)
    if family == "minor":
        if U is None:
            raise DomainError("minor-family partition needs U")
        name, scale, first_label, first_cut = "U", U, "tiny_g", math.sqrt(n)
        lo, hi, log_power = n ** (1.0 / theta) / L**5, math.sqrt(n), 3
        thresholds = {"U": U, "theta": theta}
    elif family == "slice":
        if V is None or Q is None:
            raise DomainError("slice-family partition needs V and Q")
        name, scale, first_label, first_cut = "V", V, "small_g", n / Q
        lo, hi, log_power = math.sqrt(Q) / L**5, Q, 4
        thresholds = {"V": V, "Q": Q, "theta": theta}
    else:
        raise DomainError(f"unknown level-set family {family!r}")
    warnings = []
    if not lo <= scale <= hi:
        warnings.append(f"{name}={scale:g} outside the covered range [{lo:g}, {hi:g}]")
    split = kth_root_floor(n, k) ** s / (scale * L**log_power)
    thresholds["f_split"] = split

    f_pow = f_abs**s
    first = g_abs <= first_cut
    band = ~first & (g_abs >= n / scale) & (g_abs <= 2 * n / scale)
    band_small = band & (f_pow <= split)
    labels = (first_label, "band_small_f", "band_large_f", "unbanded")
    masks = (first, band_small, band & ~band_small, ~first & ~band)
    weight = g_abs * f_pow
    classes = tuple(
        _class_from_mask(label, mask, g_abs, f_abs, weight, m) for label, mask in zip(labels, masks)
    )
    return LevelSetPartition(
        family=family, thresholds=thresholds,
        classes=classes, warnings=tuple(warnings),
    )


def dyadic_band_cover(n: int, theta: int, g_abs: np.ndarray) -> dict:
    """Check that O(log n) dyadic bands cover the base points with |g| > sqrt(n).

    g_abs is |g| at the base points.  Bands are n/U <= |g| <= 2n/U for U
    halving from sqrt(n) down to n^(1/theta)/L^5 (at most 200 bands).
    Consecutive bands share an endpoint exactly in floating point (n/(U/2)
    and 2n/U round the same quotient), so together they are the one interval
    from n/sqrt(n) to 2n/U_last, and coverage can fail only above the top band
    (a point would contradict the prime-sum envelope at scale; at desk scale
    it simply reports).
    """
    u_min = n ** (1.0 / theta) / big_l(n) ** 5
    bands, u, top = 0, math.sqrt(n), None
    while u >= u_min and bands < 200:
        top = 2 * n / u
        u /= 2.0
        bands += 1
    over = g_abs > math.sqrt(n)
    uncovered = over if top is None else over & ~((g_abs >= n / math.sqrt(n)) & (g_abs <= top))
    return {"bands": bands, "points_above_tiny": int(over.sum()), "uncovered": int(uncovered.sum())}


def g_envelope_constant(n: int, sup_g: float) -> dict:
    """Empirical C with sup |g| on the base <= C * n^(4/5) * L^4 (reported, not asserted)."""
    scale = n**0.8 * big_l(n) ** 4
    return {"sup_g": sup_g, "scale": scale, "constant": sup_g / scale}


def dissection_ledger(
    n: int,
    k: int,
    s: int,
    theta: int,
    R: int,
    oversample: int = 1,
    U: float | None = None,
    V: float | None = None,
    Q_slice: float | None = None,
) -> dict:
    """Full arc dissection at scale n with both level-set families.

    Builds the named arc unions, evaluates both generating functions on an
    alias-free grid, partitions the minor arcs and one height slice by the
    size of |g|, runs the dyadic covering check, and reports the empirical
    envelope constants.  Thresholds default to values that keep the bands
    populated at desk scale; all of them are recorded in the output.
    """
    if k < 1 or s < 1:
        raise DomainError(f"need k, s >= 1, got k={k}, s={s}")
    _check_thresholds(U=U, V=V)
    grid = GridSpec.alias_free(n, s, oversample=oversample)
    m = grid.size
    # |g| <= theta(n) < 2n and |f| <= P: the m-point sums of |g| |f|^s stay below P^s * 2n * m
    P = kth_root_floor(n, k)
    check_double_range(P, s, f"P^s * 2n * grid size = {P}^{s} * {2 * n} * {m}", factor=2 * n * m)
    f_spec, members = build_f_spectrum(n, k, R)
    g_spec = build_g_spectrum(n)
    f_vals = evaluate_on_grid(f_spec, grid)
    g_vals = evaluate_on_grid(g_spec, grid)

    wide = build_arc_union("Kprime" if theta == 4 else "K", n, k)
    minor_label = "k" if theta == 5 else "kprime"
    pruned = build_arc_union("L", n, k)
    core = build_arc_union("N", n, k)

    # |g| and |f| once, at the base points of each family only
    minor_mask = ~wide.grid_mask(m)
    g_minor, f_minor = np.abs(g_vals[minor_mask]), np.abs(f_vals[minor_mask])
    sup_g_minor = float(g_minor.max()) if len(g_minor) else 0.0
    if U is None:
        U = min(math.sqrt(n), max(1.0, 2.0 * n / sup_g_minor if sup_g_minor else math.sqrt(n)))
    part_minor = level_partition(n, k, s, theta, g_minor, f_minor, m, family="minor", U=U)

    if Q_slice is None:
        q_hi = 0.5 * n ** (2.0 / theta)
        Q_slice = max(P**PRUNED_HEIGHT_EXPONENT, min(16.0, q_hi))
    slice_label, slice_mask, slice_measure = height_slice(n, Q_slice, m)
    g_slice, f_slice = np.abs(g_vals[slice_mask]), np.abs(f_vals[slice_mask])
    sup_g_slice = float(g_slice.max()) if len(g_slice) else 0.0
    if V is None:
        V = min(Q_slice, max(math.sqrt(Q_slice), 2.0 * n / sup_g_slice if sup_g_slice else Q_slice))
    part_slice = level_partition(n, k, s, theta, g_slice, f_slice, m, family="slice", V=V, Q=Q_slice)

    csv_rows = [["minor/" + row[0], *row[1:]] for row in part_minor.to_csv_rows()]
    csv_rows += [["slice/" + row[0], *row[1:]] for row in part_slice.to_csv_rows()]
    return {
        "n": n, "k": k, "s": s, "theta": theta, "R": R,
        "grid_size": m,
        "smooth_count": len(members),
        "arc_unions": {
            wide.label: {"measure": wide.measure(), "arcs": len(wide.intervals)},
            minor_label: {"measure": float(1 - wide.measure_exact())},
            pruned.label: {"measure": pruned.measure(), "arcs": len(pruned.intervals)},
            core.label: {"measure": core.measure(), "arcs": len(core.intervals)},
            slice_label: {"measure": slice_measure},
        },
        "arcs_json": {
            wide.label: wide.to_json_arcs(),
            pruned.label: pruned.to_json_arcs(),
            core.label: core.to_json_arcs(),
        },
        "minor_partition": part_minor.to_report(len(g_minor) / m),
        "slice_partition": part_slice.to_report(len(g_slice) / m),
        "covering": dyadic_band_cover(n, theta, g_minor),
        "g_envelope": g_envelope_constant(n, sup_g_minor),
        "f_envelope": f_envelope_constant(n, k, f_vals, pruned),
        "csv_rows": csv_rows,
    }


def f_envelope_constant(n: int, k: int, f_values: np.ndarray, pruned: ArcUnion) -> dict:
    """Empirical C with |f| <= C * P * L^3 * upsilon^(1/2k) on the pruned arcs."""
    m = len(f_values)
    P = kth_root_floor(n, k)
    scale = P * big_l(n) ** 3
    best = 0.0
    for q, a, j0, j1 in pruned.grid_spans(m):
        js = np.arange(j0, j1 + 1)
        alphas = js / m
        ups = 1.0 / (q + n * np.abs(q * alphas - a))
        ratio = np.abs(f_values[js]) / (scale * ups ** (1.0 / (2 * k)))
        best = max(best, float(ratio.max()))
    return {"scale": scale, "constant": best}
