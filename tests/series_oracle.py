"""Direct oracles for the singular-series sums of `wgcircle.series`.

`qsum_partials` is the q-by-q construction of the truncated series: one
`s_n_q` call for every squarefree q <= X, weighted by mu(q)/phi(q) and added
in ascending q.  It knows nothing of multiplicativity, so the tests compare
the prime-moduli q-sum against it.  `gather_product` multiplies the residue
table of each prime into an arbitrary array of n, one gather per prime, with
no assumption that the n form a progression.
"""

import numpy as np

from wgcircle.arith import arith_tables, sieve_primes
from wgcircle.series import chi_residue_table, s_n_q


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


def gather_product(ns: np.ndarray, k: int, s: int, prime_cutoff: int) -> np.ndarray:
    """Euler products over p <= prime_cutoff at every n in ns, in ascending p."""
    ns = np.asarray(ns, dtype=np.int64)
    out = np.ones(len(ns), dtype=np.float64)
    for p in sieve_primes(prime_cutoff).primes.tolist():
        out *= chi_residue_table(p, k, s)[ns % p]
    return out
