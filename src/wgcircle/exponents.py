"""Admissible exponents, the shipped exponent tables, and plan selection.

An exponent Delta_t is admissible for the smooth Weyl sum of degree k when the
t-th moment over the full circle is O(P^(t-k+Delta_t+eps)) for R a small power
of P.  For even t the eta formula gives one: Delta_t = k * eta(t/k).

Every exponent pair (s, t) is checked by check_conditions, the one home of
the two side conditions 2*Delta_s < k and Omega < 1, where

    Omega_theta = t/s + theta * Delta_{s+t} / k.

It returns the plan report that `wgcircle plan` prints: k, theta, s, t,
delta_s, delta_st, omega, cond_half_ok (2*Delta_s < k), cond_omega_ok
(Omega < 1) and source, in that order.

The shipped CSV tables (data/table1.csv, data/table2.csv) record, per k in
[5, 20] and theta in {4, 5}, a pair (s_theta, t_theta) with its exponents and
Omega rounded up in the fourth decimal place.  load_table2 keeps each block's
plan beside that tabulated Omega, and verify_table2 checks every tabulated
Omega and both conditions.  plan_for_k selects a working (s, t) pair for
3 <= k <= 2**40: the table blocks for 5 <= k <= 16, the sigma_even_plan
optimizer above, whose sigma, tau, even_target and gap_bound the plan adds
(it refuses k > 2**40, where doubles no longer place its even target), and
literal externally-known pairs for k in {3, 4}.
"""

from __future__ import annotations

import csv
import math
from importlib import resources
from pathlib import Path

from .errors import DomainError
from .specialfn import check_theta, eta, sigma_even_plan

#: Guard subtracted before ceiling at the fourth decimal; absorbs binary
#: representation fuzz of decimal inputs without masking real mismatches.
_ROUND_UP_GUARD = 5e-7


def delta_from_eta(k: int, t: int) -> float:
    """Admissible exponent k * eta(t/k) for even t >= 2, k >= 3."""
    if k < 3:
        raise DomainError(f"eta-formula exponents need k >= 3, got {k}")
    if t < 2 or t % 2 != 0:
        raise DomainError(f"eta-formula exponents need even t >= 2, got {t}")
    return k * eta(t / k)


def check_conditions(
    k: int,
    theta: int,
    s: int,
    t: int,
    delta_s: float,
    delta_st: float,
    source: str = "computed",
) -> dict:
    """The plan report of the pair: Omega = t/s + theta*delta_st/k and both
    side conditions, cond_half_ok (2*delta_s < k) and cond_omega_ok (Omega < 1).

    No rounding happens before the comparisons.
    """
    check_theta(theta)
    if s < 1:
        raise DomainError(f"s must be at least 1, got {s}")
    if not 0 <= t <= s:
        raise DomainError(f"need 0 <= t <= s, got t={t}, s={s}")
    omega = t / s + theta * delta_st / k
    return {"k": int(k), "theta": int(theta), "s": int(s), "t": int(t),
            "delta_s": float(delta_s), "delta_st": float(delta_st), "omega": omega,
            "cond_half_ok": bool(2.0 * delta_s < k), "cond_omega_ok": bool(omega < 1.0),
            "source": source}


def round_up_4dp(x: float) -> float:
    """Ceiling in the fourth decimal place (the tables' display convention)."""
    return math.ceil(x * 10**4 - _ROUND_UP_GUARD) / 10**4


# ---------------------------------------------------------------------------
# Shipped tables

#: (k, theta) -> the table block's plan and its tabulated Omega, None for a
#: blank block, in file order.
PlanTable = dict[tuple[int, int], tuple[dict, float] | None]


def _data_text(name: str) -> str:
    return resources.files("wgcircle.data").joinpath(name).read_text()


def load_table1() -> dict[int, tuple[int | None, int | None]]:
    """k -> (S0, S1) of the shipped table 1; a blank cell stays None (it is never invented)."""
    text = _data_text("table1.csv")
    out: dict[int, tuple[int | None, int | None]] = {}
    reader = csv.DictReader(text.splitlines())
    for lineno, row in enumerate(reader, start=2):
        try:
            k = int(row["k"])
            s0 = int(row["S0"]) if row["S0"] else None
            s1 = int(row["S1"]) if row["S1"] else None
        except (KeyError, ValueError, TypeError) as exc:
            raise DomainError(f"table1.csv line {lineno}: {exc}") from None
        out[k] = (s0, s1)
    return out


def load_table2(path: str | Path | None = None) -> PlanTable:
    """Every block of table 2 as its checked plan and its tabulated Omega."""
    text = Path(path).read_text() if path is not None else _data_text("table2.csv")
    plans: PlanTable = {}
    reader = csv.DictReader(text.splitlines())
    for lineno, row in enumerate(reader, start=2):
        try:
            k = int(row["k"])
            for theta in (4, 5):
                cells = [row[f"s{theta}"], row[f"t{theta}"], row[f"d_s{theta}"], row[f"d_s{theta}t{theta}"], row[f"om{theta}"]]
                if all(not c for c in cells):
                    plans[(k, theta)] = None
                    continue
                if any(not c for c in cells):
                    raise ValueError(f"partially blank theta={theta} block")
                plan = check_conditions(
                    k, theta, int(cells[0]), int(cells[1]), float(cells[2]), float(cells[3]),
                    source="table2_literal",
                )
                plans[(k, theta)] = (plan, float(cells[4]))
        except (KeyError, ValueError, TypeError) as exc:  # DomainError from check_conditions is a ValueError
            raise DomainError(f"table2.csv line {lineno}: {exc}") from None
    return plans


def verify_table2(plans: PlanTable | None = None) -> list[dict]:
    """Compare every block's recomputed Omega with the tabulated one and check
    both conditions: one dict per block with k, theta, ok, blank,
    omega_recomputed, omega_table, cond1_margin (k - 2*delta_s), cond2_margin
    (1 - omega) and a one-line detail.

    A blank block (only k=5, theta=5 in the shipped data) yields a vacuous
    passing entry with None for every number, so that every k contributes
    one check per theta.
    """
    plans = load_table2() if plans is None else plans
    checks: list[dict] = []
    for (k, theta), block in plans.items():
        if block is None:
            checks.append({"k": k, "theta": theta, "ok": True, "blank": True,
                           "omega_recomputed": None, "omega_table": None,
                           "cond1_margin": None, "cond2_margin": None, "detail": "blank entry"})
            continue
        plan, omega_table = block
        omega = plan["omega"]
        omega_up = round_up_4dp(omega)
        table_units = round(omega_table * 10**4)
        recomputed_units = round(omega_up * 10**4)
        match = recomputed_units == table_units
        slack_note = ""
        if not match and recomputed_units == table_units + 1:
            # The tabulated delta is itself rounded up by < 1e-4, which
            # inflates the recomputed omega by at most theta*1e-4/k; a
            # one-ulp overshoot within that slack is consistent.
            slack = theta * 1e-4 / k
            if omega - slack < omega_table + 1e-12:
                match = True
                slack_note = " (within delta-rounding slack)"
        cond2_margin = 1.0 - omega_up
        detail = f"omega {omega:.6f} -> {omega_up:.4f} vs {omega_table:.4f}{slack_note}"
        if not match:
            detail += " MISMATCH"
        checks.append({"k": k, "theta": theta, "ok": match and plan["cond_half_ok"] and cond2_margin > 0.0,
                       "blank": False, "omega_recomputed": omega_up, "omega_table": omega_table,
                       "cond1_margin": k - 2.0 * plan["delta_s"], "cond2_margin": cond2_margin,
                       "detail": detail})
    return checks


def cross_check_table1() -> list[dict]:
    """S0(k) must equal s5(k) and S1(k) must equal s4(k) wherever both exist
    in the shipped tables: one dict {k, detail, ok} per comparison."""
    plans = load_table2()
    results: list[dict] = []
    for k, (s0, s1) in sorted(load_table1().items()):
        for name, s_ref, theta in (("S0", s0, 5), ("S1", s1, 4)):
            block = plans.get((k, theta))
            if s_ref is not None and block is not None:
                s = block[0]["s"]
                results.append({"k": k, "detail": f"{name}({k})={s_ref} vs s{theta}={s}", "ok": s_ref == s})
    return results


def table_plan(k: int, theta: int) -> dict:
    """The shipped table block for (k, theta) as a checked plan."""
    check_theta(theta)
    plans = load_table2()
    if (k, theta) not in plans:
        raise DomainError(f"table has no row for k={k}")
    block = plans[(k, theta)]
    if block is None:
        raise DomainError(f"table has a blank block for k={k}, theta={theta}")
    return block[0]


_EXTERNAL_SMALL_K = {3: 4, 4: 6}  # k -> s known from the literature


def plan_for_k(k: int, theta: int = 5) -> dict:
    """Select a working (s, t) pair for exponent k.

    17 <= k <= 2**40 runs the even-target optimizer: s = ceil(k*sigma), t = target - s,
    Delta_{s+t} = k*eta(target/k) (target is even by construction) and Delta_s
    from the smallest even s' >= s.  Taking the ceiling keeps t/s <= tau/sigma,
    so Omega <= E(sigma) < 1 survives the rounding to integers.  For
    5 <= k <= 16 the shipped table block is returned; k in {3, 4} yields the
    literal externally-known pairs with no condition data (NaN exponents and
    None conditions).  The optimizer's plans end with its sigma, tau,
    even_target and gap_bound.
    """
    check_theta(theta)
    if k < 3:
        raise DomainError(f"plans exist for k >= 3, got {k}")
    if k in _EXTERNAL_SMALL_K:
        nan = float("nan")
        return {"k": int(k), "theta": int(theta), "s": _EXTERNAL_SMALL_K[k], "t": 0,
                "delta_s": nan, "delta_st": nan, "omega": nan,
                "cond_half_ok": None, "cond_omega_ok": None, "source": "external_result"}
    if k <= 16:
        return table_plan(k, theta)
    sp = sigma_even_plan(k, theta)
    s = math.ceil(k * sp["sigma"])
    t = sp["even_target"] - s
    delta_st = delta_from_eta(k, sp["even_target"])
    s_even = s if s % 2 == 0 else s + 1
    delta_s = delta_from_eta(k, s_even)
    plan = check_conditions(k, theta, s, t, delta_s, delta_st, source="eta_formula")
    return plan | {key: sp[key] for key in ("sigma", "tau", "even_target", "gap_bound")}

