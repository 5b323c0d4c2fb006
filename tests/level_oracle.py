"""Full-grid oracle for the level sets of `wgcircle.circle`.

This is the grid-wide construction: each routine takes the complex grid
values and a boolean base mask over the whole grid, recomputes |g| and |f|
everywhere, and builds every class as a full-grid mask.  The dyadic cover
ORs in one band at a time.  The tests compare the amplitude-based
`level_partition` and `dyadic_band_cover` against it exactly.
"""

import math

import numpy as np

from wgcircle.circle import LevelClass, LevelSetPartition, big_l, kth_root_floor


def class_from_mask(label, mask, g_abs, f_abs, weight, m):
    pts = int(mask.sum())
    return LevelClass(
        label=label,
        points=pts,
        measure=pts / m,
        sup_g=float(g_abs[mask].max()) if pts else 0.0,
        sup_f=float(f_abs[mask].max()) if pts else 0.0,
        contribution_abs=float(weight[mask].sum() / m) if pts else 0.0,
    )


def level_partition(n, k, s, theta, base_mask, g_values, f_values, *, family, U=None, V=None, Q=None):
    m = len(g_values)
    P = kth_root_floor(n, k)
    L = big_l(n)
    g_abs = np.abs(g_values)
    f_abs = np.abs(f_values)
    weight = g_abs * f_abs**s
    warnings = []
    if family == "minor":
        u_lo, u_hi = n ** (1.0 / theta) / L**5, math.sqrt(n)
        if not u_lo <= U <= u_hi:
            warnings.append(f"U={U:g} outside the covered range [{u_lo:g}, {u_hi:g}]")
        first = base_mask & (g_abs <= math.sqrt(n))
        band = base_mask & ~first & (g_abs >= n / U) & (g_abs <= 2 * n / U)
        split = P**s / (U * L**3)
        thresholds = {"U": U, "theta": theta, "f_split": split}
        labels = ("tiny_g", "band_small_f", "band_large_f", "unbanded")
    else:
        v_lo, v_hi = math.sqrt(Q) / L**5, Q
        if not v_lo <= V <= v_hi:
            warnings.append(f"V={V:g} outside the covered range [{v_lo:g}, {v_hi:g}]")
        first = base_mask & (g_abs <= n / Q)
        band = base_mask & ~first & (g_abs >= n / V) & (g_abs <= 2 * n / V)
        split = P**s / (V * L**4)
        thresholds = {"V": V, "Q": Q, "theta": theta, "f_split": split}
        labels = ("small_g", "band_small_f", "band_large_f", "unbanded")
    band_small = band & (f_abs**s <= split)
    band_large = band & ~band_small
    rest = base_mask & ~first & ~band
    masks = (first, band_small, band_large, rest)
    return LevelSetPartition(
        family=family, thresholds=thresholds,
        classes=tuple(class_from_mask(label, mask, g_abs, f_abs, weight, m) for label, mask in zip(labels, masks)),
        warnings=tuple(warnings),
    )


def dyadic_band_cover(n, theta, g_values, base_mask):
    L = big_l(n)
    u_min = n ** (1.0 / theta) / L**5
    g_abs = np.abs(g_values)
    over = base_mask & (g_abs > math.sqrt(n))
    covered = np.zeros_like(over)
    bands = 0
    u = math.sqrt(n)
    while u >= u_min and bands < 200:
        covered |= over & (g_abs >= n / u) & (g_abs <= 2 * n / u)
        u /= 2.0
        bands += 1
    uncovered = int((over & ~covered).sum())
    return {"bands": bands, "points_above_tiny": int(over.sum()), "uncovered": uncovered}
