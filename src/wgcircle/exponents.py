"""Admissible exponents, the shipped exponent tables, and plan selection.

An exponent Delta_t is admissible for the smooth Weyl sum of degree k when the
t-th moment over the full circle is O(P^(t-k+Delta_t+eps)) for R a small power
of P.  Two sources are implemented:

  * the eta formula: for even t, Delta_t = k * eta(t/k);
  * user-supplied tables of permissible exponents lambda_u, related by
    Delta_u = lambda_{u/2} - u + k for even u and by the average of the two
    neighbouring lambda values for odd u.

The shipped CSV tables (data/table1.csv, data/table2.csv) record, per k in
[5, 20] and theta in {4, 5}, a pair (s_theta, t_theta) with its exponents and
the quantity

    Omega_theta = t/s + theta * Delta_{s+t} / k,

rounded up in the fourth decimal place.  verify_table2 recomputes every Omega
and the two side conditions 2*Delta_s < k and Omega < 1.  plan_for_k selects a
working (s, t) pair for any k >= 3: the table rows for 5 <= k <= 16, the
sigma_even_plan optimizer for k >= 17, and literal externally-known pairs for
k in {3, 4}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import DomainError, TableLookupError, TableParseError
from .specialfn import check_theta, critical_ratio, eta_value, sigma_even_plan

#: Guard subtracted before ceiling at the fourth decimal; absorbs binary
#: representation fuzz of decimal inputs without masking real mismatches.
_ROUND_UP_GUARD = 5e-7


@dataclass(frozen=True)
class AdmissibleExponent:
    k: int
    t: float
    delta: float
    source: str


@dataclass(frozen=True)
class AdmissiblePlan:
    """An exponent pair with its condition checks.

    cond1_ok: 2*Delta_s < k.  cond2_ok: Omega = t/s + theta*Delta_{s+t}/k < 1.
    Both are None for plans whose validity rests on external results rather
    than on these conditions.
    """

    k: int
    theta: int
    s: int
    t: int
    delta_s: float
    delta_st: float
    omega: float
    cond1_ok: bool | None
    cond2_ok: bool | None
    source: str = "computed"


@dataclass(frozen=True)
class LambdaTable:
    """Immutable map (k, u) -> lambda_u from a user-supplied TSV file."""

    entries: dict[tuple[int, int], float]

    def get(self, k: int, u: int) -> float:
        try:
            return self.entries[(k, u)]
        except KeyError:
            raise TableLookupError(f"lambda table has no entry for (k={k}, u={u})") from None

    @classmethod
    def load_tsv(cls, path: str | Path) -> "LambdaTable":
        """Read tab-separated rows ``k<TAB>u<TAB>lambda``; '#' starts a comment."""
        entries: dict[tuple[int, int], float] = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise TableParseError(f"{path}:{lineno}: expected 'k<TAB>u<TAB>lambda', got {raw!r}")
            try:
                k, u, lam = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise TableParseError(f"{path}:{lineno}: {exc}") from None
            if lam < u:
                raise TableParseError(f"{path}:{lineno}: lambda_u = {lam} below the diagonal bound u = {u}")
            entries[(k, u)] = lam
        return cls(entries=entries)


def delta_from_eta(k: int, t: int) -> AdmissibleExponent:
    """Admissible exponent k * eta(t/k) for even t >= 2, k >= 3."""
    if k < 3:
        raise DomainError(f"eta-formula exponents need k >= 3, got {k}")
    if t < 2 or t % 2 != 0:
        raise DomainError(f"eta-formula exponents need even t >= 2, got {t} (odd t goes through a lambda table)")
    return AdmissibleExponent(k=int(k), t=float(t), delta=k * eta_value(t / k), source="eta_formula")


def delta_from_lambda(k: int, u: int, tbl: LambdaTable) -> AdmissibleExponent:
    """Admissible exponent from tabulated lambda values.

    Even u: lambda_{u/2} - u + k.  Odd u: the mean of the two neighbouring
    lambda values minus u plus k (Hoelder interpolation between even moments).
    """
    if u < 1:
        raise DomainError(f"moment order must be positive, got {u}")
    if u % 2 == 0:
        delta = tbl.get(k, u // 2) - u + k
        source = "lambda_even"
    else:
        delta = 0.5 * (tbl.get(k, (u + 1) // 2) + tbl.get(k, (u - 1) // 2)) - u + k
        source = "lambda_odd_interp"
    return AdmissibleExponent(k=int(k), t=float(u), delta=delta, source=source)


def check_conditions(
    k: int,
    theta: int,
    s: int,
    t: int,
    delta_s: float,
    delta_st: float,
    source: str = "computed",
) -> AdmissiblePlan:
    """Assemble Omega = t/s + theta*delta_st/k and both side conditions.

    No rounding happens before the comparisons.
    """
    check_theta(theta)
    if s < 1:
        raise DomainError(f"s must be at least 1, got {s}")
    if not 0 <= t <= s:
        raise DomainError(f"need 0 <= t <= s, got t={t}, s={s}")
    omega = t / s + theta * delta_st / k
    return AdmissiblePlan(
        k=int(k),
        theta=int(theta),
        s=int(s),
        t=int(t),
        delta_s=float(delta_s),
        delta_st=float(delta_st),
        omega=omega,
        cond1_ok=bool(2.0 * delta_s < k),
        cond2_ok=bool(omega < 1.0),
        source=source,
    )


def round_up_4dp(x: float) -> float:
    """Ceiling in the fourth decimal place (the tables' display convention)."""
    return math.ceil(x * 10**4 - _ROUND_UP_GUARD) / 10**4


# ---------------------------------------------------------------------------
# Shipped tables


@dataclass(frozen=True)
class Table2Block:
    theta: int
    s: int
    t: int
    delta_s: float
    delta_st: float
    omega: float


@dataclass(frozen=True)
class Table2Row:
    k: int
    blocks: dict[int, Table2Block]  # keyed by theta; a missing key is a blank block


@dataclass(frozen=True)
class BlockCheck:
    k: int
    theta: int
    ok: bool
    blank: bool
    omega_recomputed: float | None
    omega_table: float | None
    cond1_margin: float | None  # k - 2*delta_s
    cond2_margin: float | None  # 1 - omega
    detail: str


def _data_text(name: str) -> str:
    return resources.files("wgcircle.data").joinpath(name).read_text()


def load_table1(path: str | Path | None = None) -> dict[int, tuple[int | None, int | None]]:
    """k -> (S0, S1); a blank cell stays None (it is never invented)."""
    text = Path(path).read_text() if path is not None else _data_text("table1.csv")
    out: dict[int, tuple[int | None, int | None]] = {}
    reader = csv.DictReader(text.splitlines())
    for lineno, row in enumerate(reader, start=2):
        try:
            k = int(row["k"])
            s0 = int(row["S0"]) if row["S0"] else None
            s1 = int(row["S1"]) if row["S1"] else None
        except (KeyError, ValueError, TypeError) as exc:
            raise TableParseError(f"table1.csv line {lineno}: {exc}") from None
        out[k] = (s0, s1)
    return out


def load_table2(path: str | Path | None = None) -> list[Table2Row]:
    text = Path(path).read_text() if path is not None else _data_text("table2.csv")
    rows: list[Table2Row] = []
    reader = csv.DictReader(text.splitlines())
    for lineno, row in enumerate(reader, start=2):
        try:
            k = int(row["k"])
            blocks: dict[int, Table2Block] = {}
            for theta in (4, 5):
                cells = [row[f"s{theta}"], row[f"t{theta}"], row[f"d_s{theta}"], row[f"d_s{theta}t{theta}"], row[f"om{theta}"]]
                if all(not c for c in cells):
                    continue
                if any(not c for c in cells):
                    raise TableParseError(f"table2.csv line {lineno}: partially blank theta={theta} block")
                blocks[theta] = Table2Block(
                    theta=theta,
                    s=int(cells[0]),
                    t=int(cells[1]),
                    delta_s=float(cells[2]),
                    delta_st=float(cells[3]),
                    omega=float(cells[4]),
                )
        except TableParseError:
            raise
        except (KeyError, ValueError, TypeError) as exc:
            raise TableParseError(f"table2.csv line {lineno}: {exc}") from None
        rows.append(Table2Row(k=k, blocks=blocks))
    return rows


def verify_table2(rows: list[Table2Row] | None = None) -> list[BlockCheck]:
    """Recompute Omega for every (k, theta) block and check both conditions.

    A blank block (only k=5, theta=5 in the shipped data) yields a vacuous
    passing entry so that every k contributes one check per theta.
    """
    rows = load_table2() if rows is None else rows
    checks: list[BlockCheck] = []
    for row in rows:
        for theta in (4, 5):
            block = row.blocks.get(theta)
            if block is None:
                checks.append(
                    BlockCheck(
                        k=row.k, theta=theta, ok=True, blank=True,
                        omega_recomputed=None, omega_table=None,
                        cond1_margin=None, cond2_margin=None,
                        detail="blank entry",
                    )
                )
                continue
            omega_raw = block.t / block.s + theta * block.delta_st / row.k
            omega_up = round_up_4dp(omega_raw)
            table_units = round(block.omega * 10**4)
            recomputed_units = round(omega_up * 10**4)
            match = recomputed_units == table_units
            slack_note = ""
            if not match and recomputed_units == table_units + 1:
                # The tabulated delta is itself rounded up by < 1e-4, which
                # inflates the recomputed omega by at most theta*1e-4/k; a
                # one-ulp overshoot within that slack is consistent.
                slack = theta * 1e-4 / row.k
                if omega_raw - slack < block.omega + 1e-12:
                    match = True
                    slack_note = " (within delta-rounding slack)"
            cond1_margin = row.k - 2.0 * block.delta_s
            cond2_margin = 1.0 - omega_up
            ok = match and cond1_margin > 0.0 and cond2_margin > 0.0
            detail = f"omega {omega_raw:.6f} -> {omega_up:.4f} vs {block.omega:.4f}{slack_note}"
            if not match:
                detail += " MISMATCH"
            checks.append(
                BlockCheck(
                    k=row.k, theta=theta, ok=ok, blank=False,
                    omega_recomputed=omega_up, omega_table=block.omega,
                    cond1_margin=cond1_margin, cond2_margin=cond2_margin,
                    detail=detail,
                )
            )
    return checks


def cross_check_table1(
    table1: dict[int, tuple[int | None, int | None]] | None = None,
    rows: list[Table2Row] | None = None,
) -> list[tuple[int, str, bool]]:
    """S0(k) must equal s5(k) and S1(k) must equal s4(k) wherever both exist."""
    table1 = load_table1() if table1 is None else table1
    rows = load_table2() if rows is None else rows
    by_k = {row.k: row for row in rows}
    results: list[tuple[int, str, bool]] = []
    for k, (s0, s1) in sorted(table1.items()):
        row = by_k.get(k)
        if row is None:
            continue
        if s0 is not None and 5 in row.blocks:
            results.append((k, f"S0({k})={s0} vs s5={row.blocks[5].s}", s0 == row.blocks[5].s))
        if s1 is not None and 4 in row.blocks:
            results.append((k, f"S1({k})={s1} vs s4={row.blocks[4].s}", s1 == row.blocks[4].s))
    return results


def table_plan(k: int, theta: int, rows: list[Table2Row] | None = None) -> AdmissiblePlan:
    """The shipped table row for (k, theta) as a checked plan."""
    check_theta(theta)
    rows = load_table2() if rows is None else rows
    for row in rows:
        if row.k == k:
            block = row.blocks.get(theta)
            if block is None:
                raise TableLookupError(f"table has a blank block for k={k}, theta={theta}")
            return check_conditions(
                k, theta, block.s, block.t, block.delta_s, block.delta_st, source="table2_literal"
            )
    raise TableLookupError(f"table has no row for k={k}")


_EXTERNAL_SMALL_K = {3: 4, 4: 6}  # k -> s known from the literature


def plan_for_k(k: int, theta: int = 5) -> AdmissiblePlan:
    """Select a working (s, t) pair for exponent k.

    k >= 17 runs the even-target optimizer: s = ceil(k*sigma), t = target - s,
    Delta_{s+t} = k*eta(target/k) (target is even by construction) and Delta_s
    from the smallest even s' >= s.  Taking the ceiling keeps t/s <= tau/sigma,
    so Omega <= E(sigma) < 1 survives the rounding to integers.  For
    5 <= k <= 16 the shipped table row is returned; k in {3, 4} yields the
    literal externally-known pairs with no condition data.
    """
    check_theta(theta)
    if k < 3:
        raise DomainError(f"plans exist for k >= 3, got {k}")
    if k in _EXTERNAL_SMALL_K:
        nan = float("nan")
        return AdmissiblePlan(
            k=int(k), theta=int(theta), s=_EXTERNAL_SMALL_K[k], t=0,
            delta_s=nan, delta_st=nan, omega=nan,
            cond1_ok=None, cond2_ok=None, source="external_result",
        )
    if k <= 16:
        return table_plan(k, theta)
    sp = sigma_even_plan(k, theta)
    s = math.ceil(k * sp.sigma)
    t = sp.even_target - s
    delta_st = k * eta_value(sp.even_target / k)
    s_even = s if s % 2 == 0 else s + 1
    delta_s = k * eta_value(s_even / k)
    return check_conditions(k, theta, s, t, delta_s, delta_st, source="eta_formula")


def plan_bound_ok(plan: AdmissiblePlan) -> bool:
    """Sanity bound for optimizer plans: s <= c_theta * k + 5."""
    return plan.s <= critical_ratio(plan.theta) * plan.k + 5.0
