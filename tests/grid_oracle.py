"""Full-grid oracle for the half-grid evaluation of `wgcircle.circle`.

The values of a spectrum at every point i/m of the grid come from one
complex inverse FFT, and an arc integral is the plain Riemann sum of the
integrand over the points of a full-grid mask.  The tests compare the real
FFT on the half grid, and the integrals built on it, against these.
"""

import numpy as np


def grid_values(coeffs: np.ndarray, m: int) -> np.ndarray:
    """sum_j c_j e(j * i/m) at every grid point i/m, i in [0, m)."""
    return np.fft.ifft(coeffs, n=m) * m


def integrand(spectra, conjugate_flags, twist, m: int) -> np.ndarray:
    """prod spectra * e(-alpha*twist) at every grid point, a spectrum
    conjugated where its flag is set."""
    prod = np.ones(m, dtype=np.complex128)
    for coeffs, conj in zip(spectra, conjugate_flags):
        vals = grid_values(coeffs, m)
        prod = prod * (np.conj(vals) if conj else vals)
    if twist:
        prod = prod * np.exp((-2j * np.pi * twist / m) * np.arange(m))
    return prod


def integral(spectra, conjugate_flags, twist, region_mask, m: int) -> tuple[complex, int, float]:
    """The Riemann sum (1/m) sum of the integrand over the points of a
    full-grid mask (every point when None), the number of those points, and
    sup |integrand| over the grid."""
    prod = integrand(spectra, conjugate_flags, twist, m)
    picked = prod if region_mask is None else prod[region_mask]
    return complex(picked.sum() / m), len(picked), float(np.abs(prod).max())
