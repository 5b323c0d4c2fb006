"""Direct oracles for the singular-series sums of `wgcircle.series`.

`qsum_partials` is the q-by-q construction of the truncated series: one
`s_n_q` call for every squarefree q <= X, weighted by mu(q)/phi(q) and added
in ascending q.  It knows nothing of multiplicativity, so the tests compare
the prime-moduli q-sum against it.  `gather_product` multiplies a residue
table of each prime into an arbitrary array of n, one gather per prime, with
no assumption that the n form a progression.  Each table comes from the
cyclic power of `local_oracle`, which knows no index classes, through the
same exact division as the package's count route.
"""

from functools import lru_cache

import numpy as np

import local_oracle
from wgcircle.arith import arith_tables, power_residue_counts, sieve_primes
from wgcircle.series import s_n_q


def qsum_partials(n: int, k: int, s: int, xs) -> dict[int, complex]:
    """S(n, X) for each X in xs, summed term by term over ascending q."""
    tables = arith_tables(max(xs))
    out = {}
    total = 1 + 0j  # q = 1 term
    for q in range(2, max(xs) + 1):
        mu = int(tables.mobius[q])
        if mu:
            total += mu / int(tables.phi[q]) * s_n_q(q, n, k, s)
        if q in xs:
            out[q] = total
    if 1 in xs:
        out[1] = 1 + 0j
    return out


@lru_cache(maxsize=None)
def residue_table(p: int, k: int, s: int) -> np.ndarray:
    """chi_p(r) = (p^s - N_s(r)) / (p^(s-1) (p - 1)) for r mod p, N_s the
    s-fold cyclic power of the k-th power histogram."""
    powers = local_oracle.cyclic_power(power_residue_counts(p, k), s, p)
    return np.array([(p**s - v) / (p ** (s - 1) * (p - 1)) for v in powers])


def gather_product(ns: np.ndarray, k: int, s: int, prime_cutoff: int) -> np.ndarray:
    """Euler products over p <= prime_cutoff at every n in ns, in ascending p."""
    ns = np.asarray(ns, dtype=np.int64)
    out = np.ones(len(ns), dtype=np.float64)
    for p in np.flatnonzero(sieve_primes(prime_cutoff)).tolist():
        out *= residue_table(p, k, s)[ns % p]
    return out
