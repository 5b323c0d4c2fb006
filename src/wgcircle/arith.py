"""Sieves and multiplicative-function primitives.

PrimeTable gives primes with natural-log weights and the partial sums needed
for the prime exponential sum; SmoothSet materializes the sets A(P, R) of
integers in [1, P] whose prime divisors are all at most R; ArithTables holds
Moebius, totient and smallest-prime-factor arrays.  On top of these sit the
complete exponential sum S(q, a) = sum_{x=1..q} e(a x^k / q), Ramanujan sums,
and the local count M_p(n) of solutions of b + x_1^k + ... + x_s^k = n mod p
with b coprime to p.

Tables are build-once, read-many; every query is pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convolve import power
from .errors import DomainError, ensure_memory


@dataclass(frozen=True)
class PrimeTable:
    """Primes up to ``limit`` with log weights and cumulative log sums."""

    limit: int
    primes: np.ndarray       # int64, ascending
    log_weights: np.ndarray  # float64, log of each prime
    _cum_logs: np.ndarray    # float64, cumulative sum of log_weights

    def chebyshev_theta(self, x: float) -> float:
        """Sum of log p over primes p <= x."""
        idx = int(np.searchsorted(self.primes, x, side="right"))
        return float(self._cum_logs[idx - 1]) if idx > 0 else 0.0

    def prime_count(self, x: float | None = None) -> int:
        if x is None:
            return int(len(self.primes))
        return int(np.searchsorted(self.primes, x, side="right"))

    def is_prime_mask(self) -> np.ndarray:
        """Boolean indicator array of length limit + 1."""
        mask = np.zeros(self.limit + 1, dtype=bool)
        mask[self.primes] = True
        return mask


def sieve_primes(limit: int) -> PrimeTable:
    """Plain Eratosthenes up to ``limit`` inclusive."""
    if limit < 2:
        raise DomainError(f"sieve needs limit >= 2, got {limit}")
    ensure_memory(limit + 1, "prime sieve")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.nonzero(flags)[0].astype(np.int64)
    logs = np.log(primes.astype(np.float64))
    return PrimeTable(limit=int(limit), primes=primes, log_weights=logs, _cum_logs=np.cumsum(logs))


@dataclass(frozen=True)
class SmoothSet:
    """A(P, R): integers in [1, P] whose prime divisors are all <= R.

    1 belongs vacuously.  Membership is derived from a greatest-prime-factor
    sieve, so it is exact.
    """

    p_limit: int
    r_limit: int
    members: np.ndarray  # int64, ascending

    def __len__(self) -> int:
        return int(len(self.members))

    def contains(self, x: int) -> bool:
        i = int(np.searchsorted(self.members, x))
        return i < len(self.members) and int(self.members[i]) == x


def smooth_set(P: int, R: int) -> SmoothSet:
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
    members = np.nonzero((gpf >= 1) & (gpf <= R))[0].astype(np.int64)
    return SmoothSet(p_limit=int(P), r_limit=int(R), members=members)


@dataclass(frozen=True)
class ArithTables:
    """Moebius, totient and smallest-prime-factor arrays up to ``limit``."""

    limit: int
    mobius: np.ndarray  # int8 in {-1, 0, 1}
    phi: np.ndarray     # int64
    spf: np.ndarray     # int64; spf[1] = 1


def arith_tables(limit: int) -> ArithTables:
    if limit < 1:
        raise DomainError(f"tables need limit >= 1, got {limit}")
    ensure_memory(17 * (limit + 1), "arithmetic tables")
    mob = np.ones(limit + 1, dtype=np.int8)
    phi = np.arange(limit + 1, dtype=np.int64)
    spf = np.zeros(limit + 1, dtype=np.int64)
    if limit >= 1:
        spf[1] = 1
    for p in range(2, limit + 1):
        if spf[p] == 0:
            view = spf[p::p]
            view[view == 0] = p
            mob[p::p] *= -1
            if p * p <= limit:
                mob[p * p :: p * p] = 0
            phi[p::p] -= phi[p::p] // p
    mob[0] = 0
    return ArithTables(limit=int(limit), mobius=mob, phi=phi, spf=spf)


def kth_root_floor(n: int, k: int) -> int:
    """Largest integer P with P^k <= n (float guess fixed up exactly)."""
    if n < 1 or k < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    p = int(round(n ** (1.0 / k)))
    while p > 1 and p**k > n:
        p -= 1
    while (p + 1) ** k <= n:
        p += 1
    return p


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


#: Moduli must stay below this: (q-1)^2 has to fit int64 in the power sieve.
MODULUS_LIMIT = 46341


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


@lru_cache(maxsize=512)
def power_residue_counts(q: int, k: int) -> np.ndarray:
    """Histogram over residues r mod q of #{x in [1, q] : x^k = r mod q}."""
    check_modulus(q)
    counts = np.bincount(_modpow_all(q, k), minlength=q)
    counts.setflags(write=False)
    return counts


def gauss_sum(q: int, a: int, k: int) -> complex:
    """S(q, a) = sum_{x=1..q} e(a x^k / q), powers reduced mod q in integers."""
    if q < 1:
        raise DomainError(f"modulus must be positive, got {q}")
    counts = power_residue_counts(q, k)
    phases = np.exp((2j * np.pi * (a % q) / q) * np.arange(q))
    return complex(np.dot(counts, phases))


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


def power_sum_counts(p: int, k: int, s: int) -> np.ndarray:
    """N_s(r) = #{(x_1..x_s) mod p : sum x_i^k = r}; exact via cyclic convolution.

    x runs over a complete residue system, and [1, p] is one, so the k-th
    power histogram over x in [1, p] is the right starting point.
    """
    return power(power_residue_counts(p, k), s, modulus=p)


def mp_count(p: int, n: int, k: int, s: int) -> int:
    """Solutions of b + x_1^k + ... + x_s^k = n (mod p) with 1 <= b <= p-1.

    For every x-tuple the value b = n - sum x_i^k mod p is forced, and it is
    acceptable unless it is 0 mod p; hence M_p(n) = p^s - N_s(n mod p).
    Never the s nested loops: N_s comes from s-fold cyclic convolution of the
    k-th power histogram (exact integers throughout).
    """
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise DomainError(f"p must be prime, got {p}")
    if s < 1 or k < 1:
        raise DomainError(f"need s >= 1 and k >= 1, got s={s}, k={k}")
    n_s = power_sum_counts(p, k, s)
    return p**s - int(n_s[n % p])
