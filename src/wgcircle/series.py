"""Singular series: truncated q-sums, local factors, and the Euler product.

The truncated series is

    S(n, X) = sum_{q <= X} mu(q)/(q^s phi(q)) * sum_{(a,q)=1} S(q,a)^s e(-a n / q),

with S(q, a) the complete k-th power exponential sum.  The normalized inner
sum S_n(q) = q^{-s} sum_{(a,q)=1} S(q,a)^s e(-an/q) is multiplicative, so the
full series factors into local densities

    chi_p(n) = 1 - S_n(p)/(p - 1) = p^{1-s} M_p(n) / (p - 1),

where M_p(n) counts solutions of b + x_1^k + ... + x_s^k = n mod p with b
coprime to p.  chi_p depends on n only through its cyclotomic class, n = 0
mod p or ind n mod d = gcd(k, p - 1).  `class_factors` computes chi_p on all
d + 1 classes by BOTH routes and insists they agree to 1e-9 on every class;
this dual route is the module's central self-test.  One loop over the
primes reads it, in ascending p, for the Euler product at one n and over a
progression of n alike (`_euler_periods`).  The counting route multiplies class counts exactly (`arith.mp_classes`),
the analytic route takes S(p, a) from the Gauss periods of the index-d
subgroup.  They share only the class labelling.  The Euler product over
p <= cutoff is the primary evaluation (absolutely convergent for s >= 3,
sign-stable); the q-sum is the cross-check.  It is built from prime moduli
as well, but on the other route: S_n(p) from the power-histogram Gauss sums
of `s_n_q` for each p <= X, and mu(q) S_n(q)/phi(q) for squarefree q as the
product of -S_n(p)/(p - 1) over p | q; `series_partials` returns each running
sum as a complex number, whose imaginary part is rounding residue.  Factors
are accumulated in ascending p for bit-reproducibility.

For s in {1, 2} every result is computed but flagged: the convergence theory
backing the tail estimates starts at s = 3.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .arith import (
    CLASS_LABEL_BYTES, check_double_range, check_modulus, gauss_sums_all,
    index_classes, mp_classes, sieve_primes,
)
from .errors import DomainError, InternalConsistencyError, ensure_memory

_DUAL_ROUTE_TOL = 1e-9


def s_n_q(q: int, n: int, k: int, s: int) -> complex:
    """Normalized complete sum q^{-s} sum_{(a,q)=1} S(q,a)^s e(-an/q)."""
    if q < 1:
        raise DomainError(f"modulus must be positive, got {q}")
    if s < 1:
        raise DomainError(f"need s >= 1, got {s}")
    if q == 1:
        return 1 + 0j
    sums = gauss_sums_all(q, k)
    a = np.arange(q, dtype=np.int64)
    coprime = np.gcd(a, q) == 1
    phases = np.exp((-2j * np.pi / q) * (a * (n % q) % q))  # a (n mod q) < q^2 fits int64
    value = np.sum(np.where(coprime, sums**s * phases, 0.0))
    return complex(value / q**s)


class ClassFactors(NamedTuple):
    """chi_p on the d + 1 cyclotomic classes of p, d = gcd(k, p - 1), by both
    routes, in slots: 0 for n = 0 mod p, 1 + c for ind n = c (mod d).
    `labels` are the index classes of p modulo d, None when d = 1."""

    labels: np.ndarray | None
    mp: list[int]       # count route: M_p, exact
    snp: list[complex]  # analytic route: S_n(p)
    chi: list[float]    # chi_p = M_p / (p^(s-1) (p - 1))

    def slot(self, residues):
        """The slot of each residue mod p (an int or an array of them)."""
        classes = 0 if self.labels is None else self.labels[residues]  # d = 1: both slots hold 1
        return np.where(residues == 0, 0, classes + 1)

    def chi_at(self, residues: np.ndarray) -> np.ndarray:
        """chi_p at each residue mod p."""
        return np.array(self.chi)[self.slot(residues)]


def class_factors(p: int, k: int, s: int) -> ClassFactors:
    """chi_p for the prime p (not checked) on every class, by both routes.
    Refuses k < 1 or s < 1; raises unless the routes agree to 1e-9 and
    M_p >= 1 on all d + 1 classes.

    The count route is `mp_classes`.  The analytic route: with the Gauss
    periods eta_c = sum_{ind y = c (mod d)} e(y/p), S(p, a) = 1 + d eta_{ind a}
    and p^s S_n(p) = sum_c (1 + d eta_c)^s w_c, where w_c = (p - 1)/d when p
    divides n and w_c = eta_{c + m + ind(-1)} when ind n = m.  For d = 1
    every S(p, a) with p not dividing a is 0, and chi_p = 1 on both routes.
    """
    if s < 1 or k < 1:
        raise DomainError(f"need s >= 1 and k >= 1, got s={s}, k={k}")
    d = math.gcd(k, p - 1)
    labels = index_classes(p, d) if d > 1 else None
    mp = mp_classes(p, k, s, labels)
    snp = [0j] * (d + 1)
    if d > 1:
        angles = np.arange(1, p) * (2 * np.pi / p)
        classes = labels[1:]
        eta = np.bincount(classes, np.cos(angles), d) + 1j * np.bincount(classes, np.sin(angles), d)
        powers = (1 + d * eta) ** s
        cycle = np.concatenate((eta, eta))  # cycle[j : j + d][c] = eta_{c + j}, j < d
        neg = int(labels[p - 1])
        sums = [powers.sum() * ((p - 1) / d)] + [cycle[(m + neg) % d :][:d] @ powers for m in range(d)]
        snp = (np.array(sums) / p**s).tolist()
    # p^{1-s} M / (p-1) evaluated with an exact integer denominator
    denominator = p ** (s - 1) * (p - 1)
    chi = [m / denominator for m in mp]
    gap = max(abs(1.0 - v.real / (p - 1) - c) for v, c in zip(snp, chi))
    if not gap < _DUAL_ROUTE_TOL:
        raise InternalConsistencyError(f"local factor routes disagree at p={p} by {gap!r} (sum against count route)")
    # at least one residue class always survives, so chi >= p^-s > 0
    if min(mp) < 1:
        raise InternalConsistencyError(f"empty congruence count at p={p}")
    return ClassFactors(labels, mp, snp, chi)


#: Peak bytes per residue of one s_n_q call: the power histogram and its
#: temporaries, the complex Gauss sums, the phases and their product
#: (tracemalloc measures 82 at q = 10^5).
_QSUM_BYTES_PER_RESIDUE = 88


def check_limits(s: int, prime_cutoff: int | None, xs=()) -> None:
    """Refuse, before any work, a prime cutoff below 2, s < 1, a truncation
    point X < 1, and moduli past the int64 ceiling or the double range, or
    whose arrays overrun the memory budget: the index classes of the primes
    up to the cutoff, and for the largest X the q-sum's complex terms (16 B
    per q <= X) next to the s_n_q arrays of its largest prime, charged at X
    itself.  prime_cutoff is None for a q-sum alone."""
    if prime_cutoff is not None and prime_cutoff < 2:
        raise DomainError(f"need prime_cutoff >= 2, got {prime_cutoff}")
    if xs and min(xs) < 1:
        raise DomainError(f"need X >= 1, got {min(xs)}")
    if s < 1:
        raise DomainError(f"need s >= 1, got {s}")
    top_prime = prime_cutoff or 0
    top_q = max(xs, default=1)
    top = max(top_prime, top_q)
    check_modulus(top)
    check_double_range(top, s, f"modulus^s = {top}^{s}")  # both routes divide by q^s
    ensure_memory(CLASS_LABEL_BYTES * top_prime, f"index classes of primes up to {top_prime}")
    ensure_memory(16 * (top_q + 1) + _QSUM_BYTES_PER_RESIDUE * top_q, f"q-sum arrays up to {top_q}")


def series_partials(n: int, k: int, s: int, xs) -> dict[int, complex]:
    """Truncated q-sums over q <= X for each X in xs, keyed by X; the
    imaginary part is rounding residue.

    Only squarefree q survive mu(q), and since S_n is multiplicative,
    mu(q) S_n(q)/phi(q) is the product of t_p = -S_n(p)/(p - 1) over the
    primes p | q.  So s_n_q runs on the primes p <= X only, one sieve pass in
    ascending p multiplies t_p into the terms of the multiples of p and zeroes
    those of the multiples of p^2, and a running sum over ascending q reads
    off every X: each value is summed in the same order as a pass stopping at
    its X.  No local factor or index class enters, so the q-sum stays an
    independent check of the Euler product.
    """
    marks = sorted(set(int(x) for x in xs))
    check_limits(s, None, marks)
    top = marks[-1] if marks else 1
    terms = np.ones(top + 1, dtype=np.complex128)
    terms[0] = 0.0
    if top >= 2:
        for p in np.flatnonzero(sieve_primes(top)).tolist():  # ascending: reproducible products
            terms[p::p] *= -s_n_q(p, n, k, s) / (p - 1)
            terms[p * p :: p * p] = 0.0
    totals = np.cumsum(terms)  # sequential, as q = 1, 2, ... one at a time
    return {x: complex(totals[x]) for x in marks}


def _product_tail_estimate(cutoff: int, tail_constant: float) -> float:
    """Estimate of sum_{p > cutoff} |log chi_p| from the measured p^(-3/2) decay.

    Primes thin out like 1/log p, so the sum is approximated by the integral
    C * int_cutoff^inf u^(-3/2)/log(u) du <= 2*C/(sqrt(cutoff)*log(cutoff)).
    An estimate, not a proof.
    """
    if cutoff < 3:
        return float("inf")
    return 2.0 * tail_constant / (math.sqrt(cutoff) * math.log(cutoff))


#: Primes up to this bound measure the decay constant of euler_product's tail bound.
_TAIL_PROBE = 1000


def _euler_periods(n_lo: int, stride: int, count: int, k: int, s: int, prime_cutoff: int, xs=()):
    """The one loop over the primes of the Euler product: after `check_limits`
    (xs are the truncation points of the caller's q-sums), yield for each
    prime p <= prime_cutoff in ascending order p and one period of chi_p at
    n = n_lo + i stride, i < min(p, count), read from `class_factors`.
    chi_p(n_lo + i stride) depends on i only mod p, so the period holds every
    value of the progression."""
    check_limits(s, prime_cutoff, xs)
    for p in np.flatnonzero(sieve_primes(prime_cutoff)).tolist():  # ascending: reproducible products
        # both residues are below p < MODULUS_LIMIT, so the product fits int64
        residues = (n_lo % p + stride % p * np.arange(min(p, count), dtype=np.int64)) % p
        yield p, class_factors(p, k, s).chi_at(residues)


def euler_product(
    n: int,
    k: int,
    s: int,
    prime_cutoff: int,
    partial_xs: tuple[int, ...] = (),
) -> dict:
    """Product of chi_p over p <= prime_cutoff, dual-route checked per prime,
    as the report `series` prints: n, k, s, cutoff, product, tail_bound,
    tail_constant, convergence_guaranteed (False for s in {1, 2}, where no
    guarantee holds) and partials, [X, S(n, X)] for each X of partial_xs in
    the given order.

    The tail bound combines the measured decay constant, max |chi_p - 1|
    p^(3/2) over ascending p <= _TAIL_PROBE (reported as tail_constant),
    with the integral estimate beyond the cutoff.  Every factor is positive:
    `class_factors` checks M_p >= 1.
    """
    product = 1.0
    tail_constant = 0.0
    for p, period in _euler_periods(n, 1, 1, k, s, prime_cutoff, partial_xs):
        chi = float(period[0])
        product *= chi
        if p <= _TAIL_PROBE:
            tail_constant = max(tail_constant, abs(chi - 1.0) * float(p) ** 1.5)
    partials = series_partials(n, k, s, partial_xs) if partial_xs else {}
    return {
        "n": int(n), "k": int(k), "s": int(s), "cutoff": int(prime_cutoff),
        "product": product,
        "tail_bound": _product_tail_estimate(prime_cutoff, tail_constant) * abs(product),
        "tail_constant": tail_constant,
        "convergence_guaranteed": s >= 3,
        "partials": [[int(x), partials[int(x)].real] for x in partial_xs],
    }


def _multiply_periods(out: np.ndarray, periods) -> None:
    """Multiply each (p, period) of `_euler_periods`, in the order given, into
    `out`: into its whole periods through a (len(out) // p, p) view, then into
    the tail."""
    count = len(out)
    for p, period in periods:
        whole = count - count % p
        if whole:
            rows = out[:whole].reshape(-1, p)  # a view: one row per whole period
            rows *= period
        out[whole:] *= period[: count - whole]
