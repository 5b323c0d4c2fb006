"""Sieves and multiplicative-function primitives.

sieve_primes gives the prime flags up to a limit, which callers read as the
prime indicator or turn into primes and log weights; smooth_set materializes
the sets A(P, R) of integers in [1, P] whose prime divisors are all at most R;
ArithTables holds Moebius and totient arrays.  On top of these sit the
complete exponential sum S(q, a) = sum_{x=1..q} e(a x^k / q), Ramanujan sums,
and the local counts M_p(n) of b + x_1^k + ... + x_s^k = n mod p, b coprime
to p (`mp_classes`).  M_p(n) is counted on the cyclotomic classes of p: with
d = gcd(k, p - 1) the k-th powers mod p are 0 once and each element of the
index-d subgroup of F_p^* d times, so every count is constant on 0 and on
each coset and the s-fold count is d + 1 exact integers.

Tables are build-once, read-many; every query is pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ensure_memory


def sieve_primes(limit: int) -> np.ndarray:
    """Plain Eratosthenes up to ``limit`` inclusive: bool flags of length
    limit + 1, True exactly at the primes."""
    if limit < 2:
        raise DomainError(f"sieve needs limit >= 2, got {limit}")
    ensure_memory(limit + 1, "prime sieve")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def smooth_set(P: int, R: int) -> np.ndarray:
    """A(P, R): the integers in [1, P] whose prime divisors are all <= R, as
    an ascending int64 array.

    1 belongs vacuously.  Membership is derived from a greatest-prime-factor
    sieve, so it is exact.
    """
    if P < 1:
        raise DomainError(f"smooth sets need P >= 1, got {P}")
    if not 1 <= R <= P:
        raise DomainError(f"smooth sets need 1 <= R <= P, got R={R}, P={P}")
    ensure_memory(8 * (P + 1), "smooth-set sieve")
    gpf = np.zeros(P + 1, dtype=np.int64)
    gpf[1] = 1
    for p in range(2, P + 1):
        if gpf[p] == 0:  # p prime: stamp it on all multiples, ascending p wins last
            gpf[p::p] = p
    return np.nonzero((gpf >= 1) & (gpf <= R))[0].astype(np.int64)


@dataclass(frozen=True)
class ArithTables:
    """Moebius and totient arrays up to ``limit``."""

    limit: int
    mobius: np.ndarray  # int8 in {-1, 0, 1}
    phi: np.ndarray     # int64


def arith_tables(limit: int) -> ArithTables:
    if limit < 1:
        raise DomainError(f"tables need limit >= 1, got {limit}")
    ensure_memory(9 * (limit + 1), "arithmetic tables")
    mob = np.ones(limit + 1, dtype=np.int8)
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:  # no smaller prime has touched p: p is prime
            mob[p::p] *= -1
            if p * p <= limit:
                mob[p * p :: p * p] = 0
            phi[p::p] -= phi[p::p] // p
    mob[0] = 0
    return ArithTables(limit=int(limit), mobius=mob, phi=phi)


def kth_root_floor(n: int, k: int) -> int:
    """Largest integer P with P^k <= n, by integer Newton steps (any size of n or k)."""
    if n < 1 or k < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if k >= n.bit_length():  # n < 2^k: no Newton step, whose x^(k - 1) would be huge
        return 1
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        # from above the root, Newton steps fall strictly until they reach it
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _modpow_all(q: int, k: int) -> np.ndarray:
    """x^k mod q for x = 1..q, by vectorized binary exponentiation."""
    base = np.arange(1, q + 1, dtype=np.int64) % q
    result = np.ones(q, dtype=np.int64)
    e = k
    while e > 0:
        if e & 1:
            result = (result * base) % q
        base = (base * base) % q
        e >>= 1
    return result


#: Moduli must stay below this, the least q with (q-1)^2 >= 2^63: the power
#: sieve, the index table and the phases of S_n(q) multiply two residues in int64.
MODULUS_LIMIT = 3_037_000_501


def check_modulus(q: int) -> None:
    """Reject a modulus the int64 power sieve cannot take."""
    if not 1 <= q < MODULUS_LIMIT:
        raise DomainError(f"modulus {q} outside the supported range [1, {MODULUS_LIMIT - 1}]")


def check_double_range(base: int, exponent: float, what: str, factor: int = 1) -> None:
    """Reject base^exponent * factor, which a float route computes or divides by, past the largest double.

    Bit lengths settle the clear cases without building a huge power; an
    integer exponent is then compared exactly, a fractional one in floats.
    """
    if exponent * (base.bit_length() - 1) + factor.bit_length() - 1 < 1024:
        try:
            if base**exponent * factor <= sys.float_info.max:
                return
        except OverflowError:
            pass
    raise DomainError(f"{what} leaves the double range")


#: k and s must not pass this: the float routes take 1/k and s/k, and a
#: double holds every integer only up to 2^53 (numpy's int64 powers stop at
#: 2^63).
EXPONENT_LIMIT = 2**53


def check_exponents(k: int, s: int = 1) -> None:
    """Reject a k or s below 1 or past EXPONENT_LIMIT, before any work."""
    for name, value in (("k", k), ("s", s)):
        if not 1 <= value <= EXPONENT_LIMIT:
            raise DomainError(f"need 1 <= {name} <= 2**53, got {name}={value}")


@lru_cache(maxsize=512)
def power_residue_counts(q: int, k: int) -> np.ndarray:
    """Histogram over residues r mod q of #{x in [1, q] : x^k = r mod q}."""
    check_modulus(q)
    counts = np.bincount(_modpow_all(q, k), minlength=q)
    counts.setflags(write=False)
    return counts


def gauss_sums_all(q: int, k: int) -> np.ndarray:
    """S(q, a) for a = 0..q-1 at once: the conjugate DFT of the power histogram."""
    counts = power_residue_counts(q, k).astype(np.float64)
    return np.conj(np.fft.fft(counts))


def ramanujan_sum(q: int, a: int, tables: ArithTables) -> int:
    """c_q(a) = mu(q/g) * phi(q) / phi(q/g) with g = gcd(q, a); exact integer."""
    if q < 1:
        raise DomainError(f"modulus must be positive, got {q}")
    if q > tables.limit:
        raise DomainError(f"tables only reach {tables.limit}, got q={q}")
    g = math.gcd(q, a % q if a else 0)
    if a % q == 0:
        g = q
    d = q // g
    num = int(tables.mobius[d]) * int(tables.phi[q])
    den = int(tables.phi[d])
    quotient, rem = divmod(num, den)
    if rem:
        raise DomainError(f"phi({d}) does not divide mu*phi({q}); inconsistent tables")
    return quotient


#: Peak bytes per residue of the index classes of one prime: the labels, the
#: table of powers and two index temporaries, all int64 (tracemalloc
#: measures 32.1 at p = 10^6); the Gauss periods of `series.class_factors` peak no higher.
CLASS_LABEL_BYTES = 32


#: Peak bytes per entry of the d x d cyclotomic table of mp_classes: the
#: int64 counts and index temporaries, and one Python integer per entry.
CYCLOTOMIC_BYTES = 64


def _primitive_root(p: int) -> int:
    """Least primitive root of the prime p."""
    factors, m, f = [], p - 1, 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        factors.append(m)
    g = 1
    while True:
        g += 1
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g


def index_classes(p: int, d: int) -> np.ndarray:
    """ind(x) mod d for every residue x mod p, for a prime p and d | p - 1.

    ind is the index with respect to the least primitive root g; entry 0 is
    unused.  The powers g^e, e = 0..p-2, come as a table of products
    g^(b i) * g^j of two blocks of about sqrt(p) powers each.
    """
    ensure_memory(CLASS_LABEL_BYTES * p, f"index classes of {p}")
    g = _primitive_root(p)
    b = math.isqrt(p - 1) + 1  # b^2 >= p - 1
    low = [1]
    for _ in range(b - 1):
        low.append(low[-1] * g % p)
    step = low[-1] * g % p  # g^b
    high = [1]
    for _ in range(b - 1):
        high.append(high[-1] * step % p)
    powers = (np.array(high, dtype=np.int64)[:, None] * np.array(low, dtype=np.int64) % p).ravel()
    labels = np.zeros(p, dtype=np.int64)
    labels[powers[: p - 1]] = np.tile(np.arange(d), (p - 1) // d)  # ind g^e = e
    return labels


def mp_classes(p: int, k: int, s: int, labels: np.ndarray | None) -> list[int]:
    """M_p(n) for the prime p (not checked) on its d + 1 cyclotomic classes,
    d = gcd(k, p - 1): the value at n = 0 mod p, then the value at ind n = c
    (mod d) for c = 0..d-1.  ``labels`` are the index classes of p modulo d,
    or None when d = 1.

    For every x-tuple the value b = n - sum x_i^k mod p is forced, and it is
    acceptable unless it is 0 mod p; hence M_p(n) = p^s - N_s(n mod p).
    The count N_1 of x^k is 1 at 0 and d on the subgroup H of index d, so
    N_s = N_1 * ... * N_1 is a class function: one value at 0 and one on
    each coset of H.  A class function u times N_1 is

        (u*N_1)(0) = u(0) + (p - 1) u_{ind(-1)},
        (u*N_1)(r) = u_m + d u(0) [m = 0] + d sum_i A[i][-m] u_{m+i},  ind r = m,

    with the cyclotomic numbers A[i][j] = #{t != 0, 1 : ind t = i,
    ind(1 - t) = j (mod d)} (write a = r t, r - a = r (1 - t) in H).  The
    s - 1 steps run in Python integers, exact past int64.  For d = 1 the
    powers are a permutation and N_s = p^(s-1) on every class.
    """
    d = math.gcd(k, p - 1)
    if d == 1:
        return [p**s - p ** (s - 1)] * 2
    ensure_memory(CYCLOTOMIC_BYTES * d * d, f"cyclotomic numbers of {p} modulo {d}")
    t = labels[2:]  # ind t for t = 2..p-1, and ind(1 - t) = ind(p + 1 - t) reversed
    cyclotomic = np.bincount(t * d + t[::-1], minlength=d * d).reshape(d, d)
    m, c = np.ogrid[:d, :d]
    step = cyclotomic[(c - m) % d, -m % d].astype(object)  # step[m][c] = A[c - m][-m]
    neg = int(labels[p - 1])
    zero, classes = 1, np.array([d] + [0] * (d - 1), dtype=object)  # N_1
    for _ in range(s - 1):
        nxt = classes + d * step.dot(classes)
        nxt[0] += d * zero
        zero, classes = zero + (p - 1) * classes[neg], nxt
    return [p**s - v for v in [zero, *classes.tolist()]]

