"""Implicit decay function eta, named constants, and the exponent-pair optimizer.

Everything in this module hangs off the smooth, strictly decreasing bijection
eta : (0, inf) -> (0, 1) defined implicitly by

    eta(t) + log eta(t) = 1 - t,

equivalently eta * e^eta = e^(1-t).  Differentiating the defining relation gives

    eta'(t) = -eta(t) / (1 + eta(t)).

On top of eta sit the transcendental constants used by the arc dissections
(the ratios where eta equals 1/theta or 1/2), the critical ratio c solving
2c = 2 + log(theta*c - 1) on [1, inf), and the one-parameter optimizer

    h(tau)   = tau/sigma + theta * eta(sigma + tau),
    tau(sigma) = 1 - sigma - 1/(theta*sigma - 1) + log(theta*sigma - 1),
    E(sigma) = tau(sigma)/sigma + theta/(theta*sigma - 1),

where tau(sigma) is the interior stationary point of h and E its minimum.
For 17 <= k <= 2**40, sigma_even_plan locates sigma in (c, c + 4/k) such
that k*(sigma + tau(sigma)) is an even integer, which is what makes the
even-moment machinery applicable while keeping E(sigma) < 1.

All functions are pure; no shared mutable state.  An argument outside a
function's domain raises DomainError (exit 2 in the CLI).  Every solver runs
on a bracket that holds its root by construction, so one that fails to
converge raises InternalConsistencyError (exit 3).
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import DomainError, InternalConsistencyError

THETA_VALUES = (4, 5)

# Domain limits for the optimizer pieces.
TAU_SIGMA_DOMAIN = (1.25, 3.0)
BIG_E_DOMAIN = (1.5, 3.0)

# Beyond t ~ 142 the Newton polish, started from a bracket 1e-3 wide around
# a root near e^(1-t), runs out of _MAX_ITER halvings; from this t on,
# eta(t) = e^(1-t) * e^(-eta) is e^(1-t) to relative error ~ eta < 1e-60.
_ETA_ASYMPTOTIC_T = 140.0

# _bisect_newton's tolerance, step budget per phase, and hand-over width.
_ABS_TOL = 1e-12
_MAX_ITER = 200
_COARSE_WIDTH = 1e-3

# eta's root bracket; for t below ~2e-12 the root lies above it.
_ETA_BRACKET = (1e-300, 1.0 - 1e-12)


def check_theta(theta: int) -> int:
    if theta not in THETA_VALUES:
        raise DomainError(f"theta must be 4 or 5, got {theta!r}")
    return int(theta)


def _bisect_newton(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    lo: float,
    hi: float,
) -> float:
    """Root of f between lo and hi; f(lo) and f(hi) must differ in sign.

    Bisection narrows the bracket to _COARSE_WIDTH, Newton polishes to
    |f| <= _ABS_TOL.  Newton steps leaving the bracket fall back to
    bisection, so convergence is unconditional for monotone f.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise InternalConsistencyError(f"no sign change on bracket [{lo}, {hi}]")
    neg, pos = (lo, hi) if flo < 0.0 else (hi, lo)
    for _ in range(_MAX_ITER):
        if abs(pos - neg) <= _COARSE_WIDTH:
            break
        mid = 0.5 * (neg + pos)
        if f(mid) < 0.0:
            neg = mid
        else:
            pos = mid
    else:
        raise InternalConsistencyError("bisection did not narrow the bracket")
    x = 0.5 * (neg + pos)
    for _ in range(_MAX_ITER):
        fx = f(x)
        if abs(fx) <= _ABS_TOL:
            return x
        if fx < 0.0:
            neg = x
        else:
            pos = x
        step = fx / fprime(x)
        x -= step
        if not (min(neg, pos) < x < max(neg, pos)):
            x = 0.5 * (neg + pos)
    raise InternalConsistencyError(f"root polish did not reach |f| <= {_ABS_TOL}")


def eta(t: float) -> float:
    """Solve eta + log eta = 1 - t for the unique root in (0, 1).

    The map is a strictly decreasing bijection of (0, inf) onto (0, 1).  For
    t > 140 the asymptotic form e^(1-t) is used (relative error below 1e-60).
    Beyond t ~ 709.4, where e^(1-t) drops below the smallest normal double and
    would keep ever fewer significant bits, DomainError is raised.  For t
    below ~2e-12, whose root lies above the solver's bracket, the series
    1 - t/2 + t^2/16 is used (error O(t^3), far below one ulp of 1).
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"eta is defined for t > 0, got {t!r}")
    f = lambda x: x + math.log(x) - (1.0 - t)
    if t > _ETA_ASYMPTOTIC_T:
        u = math.exp(1.0 - t)
        if u < sys.float_info.min:
            raise DomainError(f"eta({t!r}) underflows double precision (t must stay below ~709.4)")
    elif f(_ETA_BRACKET[1]) < 0.0:
        u = 1.0 - t / 2.0 + t * t / 16.0
    else:
        u = _bisect_newton(f, lambda x: 1.0 + 1.0 / x, *_ETA_BRACKET)
    return u


def eta_inverse(u: float) -> float:
    """The t with eta(t) = u, read off the defining relation: t = 1 - u - log u."""
    if not 0.0 < u < 1.0:
        raise DomainError(f"eta takes values in (0, 1), got {u!r}")
    return 1.0 - u - math.log(u)


def coarse_constant(theta: int) -> float:
    """Ratio s/k where eta(s/k) = 1/theta: threshold for one-shot pruning.

    Numerically 2.409437... for theta = 5 and 2.136294... for theta = 4.
    """
    return eta_inverse(1.0 / check_theta(theta))


#: Ratio with eta = 1/2, i.e. 1/2 + log 2; above it the even-moment bound
#: already beats the square-root barrier (2*Delta_s < k).
SIGMA_HALF_RATIO = 0.5 + math.log(2.0)


def critical_ratio(theta: int) -> float:
    """Unique root of 2c = 2 + log(theta*c - 1) in [1, inf).

    This is the critical s/k growth ratio: 2.134693... (theta = 5) and
    1.961969... (theta = 4).
    """
    check_theta(theta)
    return _bisect_newton(
        lambda c: 2.0 * c - 2.0 - math.log(theta * c - 1.0),
        lambda c: 2.0 - theta / (theta * c - 1.0),
        1.0,
        4.0,
    )


def tau_of_sigma(sigma: float, theta: int) -> float:
    """Closed form for the stationary point of h: 1 - sigma - 1/(theta*sigma-1) + log(theta*sigma-1).

    Defined here on sigma in [5/4, 3], where 0 < tau(sigma) < sigma.
    """
    check_theta(theta)
    lo, hi = TAU_SIGMA_DOMAIN
    if not lo <= sigma <= hi:
        raise DomainError(f"tau_of_sigma defined on [{lo}, {hi}], got sigma={sigma!r}")
    q = theta * sigma - 1.0
    return 1.0 - sigma - 1.0 / q + math.log(q)


def tau_prime(sigma: float, theta: int) -> float:
    """Derivative of tau_of_sigma: -1 + theta/(theta*sigma-1) + theta/(theta*sigma-1)^2."""
    check_theta(theta)
    lo, hi = TAU_SIGMA_DOMAIN
    if not lo <= sigma <= hi:
        raise DomainError(f"tau_prime defined on [{lo}, {hi}], got sigma={sigma!r}")
    q = theta * sigma - 1.0
    return -1.0 + theta / q + theta / (q * q)


def _golden_min(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Argmin of a unimodal f on [lo, hi] by golden-section search, to within 1e-10."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def big_e(sigma: float, theta: int, cross_check: bool = False) -> float:
    """E(sigma) = tau(sigma)/sigma + theta/(theta*sigma - 1) on [3/2, 3].

    This equals min over tau in [0, sigma] of h(tau) = tau/sigma + theta*eta(sigma+tau).
    With cross_check=True the minimum is recomputed by a coarse grid plus
    golden-section search over tau and the two values must agree to 1e-6,
    otherwise InternalConsistencyError is raised.
    """
    check_theta(theta)
    lo, hi = BIG_E_DOMAIN
    if not lo <= sigma <= hi:
        raise DomainError(f"big_e defined on [{lo}, {hi}], got sigma={sigma!r}")
    value = tau_of_sigma(sigma, theta) / sigma + theta / (theta * sigma - 1.0)
    if cross_check:
        h = lambda tau: tau / sigma + theta * eta(sigma + tau)
        grid = [sigma * j / 64.0 for j in range(65)]
        j_best = min(range(65), key=lambda j: h(grid[j]))
        a = grid[max(j_best - 1, 0)]
        b = grid[min(j_best + 1, 64)]
        direct = h(_golden_min(h, a, b))
        if abs(direct - value) > 1e-6:
            raise InternalConsistencyError(
                f"closed form {value!r} vs direct minimization {direct!r} at sigma={sigma}, theta={theta}"
            )
    return value


def critical_ratio_via_optimizer(theta: int) -> float:
    """Root of E(c) = 1 on [3/2, 3]; agrees with critical_ratio to ~1e-12.

    E is strictly decreasing here with E(3/2) > 1 > E(3), so plain bisection
    suffices.
    """
    check_theta(theta)
    lo, hi = BIG_E_DOMAIN
    f = lambda c: big_e(c, theta) - 1.0
    flo, fhi = f(lo), f(hi)
    if flo < 0.0 or fhi > 0.0:
        raise InternalConsistencyError("E - 1 does not change sign on [3/2, 3]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def sigma_even_plan(k: int, theta: int) -> dict:
    """Find sigma in (c, c + 4/k) with k*(sigma + tau(sigma)) an even integer:
    {sigma, tau, even_target, gap_bound, interval}, where gap_bound is
    k*(tau(c) - tau(c + 4/k)) and interval the ends of the target interval.

    k*(sigma + tau(sigma)) increases in sigma (its derivative is
    k*theta*(q + 1)/q^2 with q = theta*sigma - 1), so it maps the interval onto
    (k*(c + tau(c)), k*(c + 4/k) + k*tau(c + 4/k)).  The smallest even integer
    strictly inside is selected; by the gap bound k*(tau(c) - tau(c+4/k)) < 2
    the interval is longer than 2, so one always exists for k >= 17.  An empty
    selection therefore indicates a genuine inconsistency and is raised as
    such rather than patched.
    """
    check_theta(theta)
    if k < 17:
        raise DomainError(f"sigma_even_plan requires k >= 17, got {k}")
    if k > 2**40:
        # The ends of the target interval are k*(...) in doubles: from k ~ 2**48
        # on they lose the bits that place an even integer inside, and from
        # 2**52 every k fails.  Refused before any float arithmetic on k.
        raise DomainError(
            f"sigma_even_plan supports k <= 2**40, where doubles still place the even target; got k={k}")
    c = critical_ratio(theta)
    hi_sigma = c + 4.0 / k
    lo_target = k * (c + tau_of_sigma(c, theta))
    hi_target = k * hi_sigma + k * tau_of_sigma(hi_sigma, theta)
    gap_bound = k * (tau_of_sigma(c, theta) - tau_of_sigma(hi_sigma, theta))

    even = 2 * (math.floor(lo_target / 2.0) + 1)
    if not lo_target < even < hi_target:
        raise InternalConsistencyError(
            f"no even integer strictly inside ({lo_target}, {hi_target}) for k={k}, theta={theta}"
        )

    target_ratio = even / k
    sigma = _bisect_newton(
        lambda s: s + tau_of_sigma(s, theta) - target_ratio,
        lambda s: 1.0 + tau_prime(s, theta),
        c,
        hi_sigma,
    )
    return {"sigma": sigma, "tau": tau_of_sigma(sigma, theta), "even_target": int(even),
            "gap_bound": gap_bound, "interval": (lo_target, hi_target)}
