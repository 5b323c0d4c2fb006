"""Command-line surface tying the modules together.

Subcommand per module: constants, eta, plan, verify-tables, sieve, series,
count, compare, dissect, moments, model-error.  Each prints the report dict
its library function returns, except constants, eta, sieve and count, whose
few fields the CLI gathers from the library's values itself.  The CLI lays out
only the tables' CSV rows and the plain lines, which default to one
`key = value` line per field.  Output is json or plain, or csv for the tables
of compare, dissect and moments; identical invocations produce byte-identical
output.  Exit codes: 0 success, 2 validation/usage failure or resource
limit, 3 internal-consistency failure (two routes disagree, or a solver did
not converge on a bracket that holds its root).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

import numpy as np

from . import arith, circle, counting, exponents, series, specialfn
from .errors import DomainError, InternalConsistencyError, WgcircleError
from .serialize import csv_column_chunks, json_chunks, to_csv_bytes, to_plain_bytes

_R_ETA_MAX = 1.0 / 7.0


def _resolve_r(args, P: int) -> int:
    """R from --R (fixed) or --r-eta (power of P, clamped to >= 2)."""
    arith.check_double_range(P, 1, "P")  # the float routes take P, sqrt(P^k) and P^eta
    if args.R is not None:
        return args.R
    eta_exp = args.r_eta if args.r_eta is not None else 0.125
    if not 0.0 < eta_exp <= _R_ETA_MAX:
        raise WgcircleError(f"--r-eta must lie in (0, 1/7], got {eta_exp}")
    return max(2, int(max(P, 1) ** eta_exp))  # R = 2 for every P < 2, which callers refuse


def _parse_list(text: str, kind, flag: str) -> list:
    """A comma-separated list of ``kind`` values; a malformed entry is a usage error."""
    try:
        return [kind(item) for item in text.split(",")]
    except ValueError:
        raise DomainError(
            f"{flag} must be a comma-separated list of {kind.__name__} values, got {text!r}") from None


def _emit(args, report, csv=None, plain_lines=None) -> None:
    """Write the report in args.format, each chunk as it is made: JSON from
    the report, CSV from the command's chunks (only the commands with a table
    offer csv), plain from its lines, or without them one `key = value` line
    per field.  Every refusal comes before --out is opened."""
    if args.format == "json":
        chunks = json_chunks(report)
    elif args.format == "csv":
        chunks = csv
    else:
        if plain_lines is None:
            plain_lines = [f"{key} = {value}" for key, value in report.items()]
        chunks = [to_plain_bytes(plain_lines)]
    where = f"--out {args.out}" if args.out else "stdout"
    try:
        with open(args.out, "wb") if args.out else contextlib.nullcontext(sys.stdout.buffer) as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise WgcircleError(f"cannot write {where}: {exc.strerror or exc}") from None


def _cmd_constants(args) -> int:
    theta = args.theta
    c = specialfn.critical_ratio(theta)
    c_opt = specialfn.critical_ratio_via_optimizer(theta)
    report = {
        "theta": theta,
        "c": c,
        "c_via_optimizer": c_opt,
        "route_difference": abs(c - c_opt),
        "coarse_c1": specialfn.coarse_constant(theta),
        "sigma_half_ratio": specialfn.SIGMA_HALF_RATIO,
        "residual": abs(2 * c - 2 - math.log(theta * c - 1)),
    }
    _emit(args, report)
    return 0


def _cmd_eta(args) -> int:
    u = specialfn.eta(args.t)
    report = {"t": args.t, "eta": u, "eta_prime": -u / (1.0 + u), "residual": abs(u + math.log(u) - (1 - args.t))}
    _emit(args, report)
    return 0


def _cmd_plan(args) -> int:
    _emit(args, exponents.plan_for_k(args.k, args.theta))
    return 0


def _cmd_verify_tables(args) -> int:
    blocks = exponents.verify_table2()
    cross = exponents.cross_check_table1()
    all_ok = all(check["ok"] for check in blocks + cross)
    lines = [f"{'PASS' if c['ok'] else 'FAIL'} k={c['k']} theta={c['theta']} {c.pop('detail')}" for c in blocks]
    lines += [f"cross-check {'ok' if c['ok'] else 'FAIL'}: {c['detail']}" for c in cross]
    lines.append(f"summary: {'all checks passed' if all_ok else 'FAILURES PRESENT'}")
    _emit(args, {"blocks": blocks, "table1_cross_checks": cross, "all_ok": all_ok}, plain_lines=lines)
    return 0 if all_ok else 3


def _cmd_sieve(args) -> int:
    primes = np.flatnonzero(arith.sieve_primes(args.limit))
    report = {
        "limit": args.limit,
        "prime_count": len(primes),
        # the last running sum, not np.sum or math.fsum: they round theta differently
        "chebyshev_theta": float(np.cumsum(np.log(primes))[-1]),
        "largest_prime": int(primes[-1]),
    }
    _emit(args, report)
    return 0


def _cmd_series(args) -> int:
    xs = tuple(_parse_list(args.xs, int, "--xs")) if args.xs else ()
    report = series.euler_product(args.n, args.k, args.s, args.cutoff, partial_xs=xs)
    _emit(args, report, plain_lines=[
        f"product({report['cutoff']}) = {report['product']}",
        f"tail_bound = {report['tail_bound']}",
    ] + [f"partial({x}) = {v}" for x, v in report["partials"]])
    return 0


def _cmd_count(args) -> int:
    if args.method == "direct":
        r = counting.count_direct(args.k, args.s, args.n)
    else:
        r = int(counting.count_range(args.k, args.s, args.n, n_min=args.n)[0])
    report = {"k": args.k, "s": args.s, "n": args.n, "r": r, "method": args.method}
    _emit(args, report, plain_lines=[f"r = {r}"])
    return 0


def _cmd_compare(args) -> int:
    report = counting.compare_report(args.k, args.s, args.lo, args.hi, args.stride, args.cutoff)
    _emit(args, report, csv=csv_column_chunks(list(counting.COMPARE_COLUMNS), report["rows"].columns),
          plain_lines=[f"{key} = {report[key]}" for key in ("min_ratio", "mean_ratio", "zero_count")])
    return 0


def _cmd_dissect(args) -> int:
    if args.oversample < 1:
        raise WgcircleError(f"--oversample must be >= 1, got {args.oversample}")
    P = arith.kth_root_floor(args.n, args.k)
    R = _resolve_r(args, P)
    report = circle.dissection_ledger(
        args.n, args.k, args.s, args.theta, R,
        oversample=args.oversample, U=args.u, V=args.v, Q_slice=args.q_slice,
    )
    rows = [[f"{family}/{label}", *row] for family in ("minor", "slice")
            for label, *row in report[f"{family}_partition"]["classes"]]
    _emit(args, report, csv=[to_csv_bytes(["label", "measure", "sup_g", "sup_f", "contribution_abs"], rows)],
          plain_lines=[f"{row[0]}: measure={row[1]:.6g} sup_g={row[2]:.6g} "
                       f"sup_f={row[3]:.6g} contribution={row[4]:.6g}" for row in rows])
    return 0


def _cmd_moments(args) -> int:
    qs = _parse_list(args.q_values, float, "--q-values") if args.q_values else None
    R = _resolve_r(args, args.P)
    report = circle.moment_doubling_report(args.P, R, args.k, args.t, qs)
    _emit(args, report,
          csv=[to_csv_bytes(["Q", "V", "measure", "boundary_error", "log2_ratio"],
                            [[row["Q"], row["V"], row["measure"], row["boundary_error"],
                              row["log2_ratio"] if row["log2_ratio"] is not None else ""]
                             for row in report["rows"]])],
          plain_lines=[f"Q={row['Q']:g} V={row['V']:.6g}" for row in report["rows"]])
    return 0


def _cmd_model_error(args) -> int:
    P = arith.kth_root_floor(args.n, args.k)
    R = _resolve_r(args, P)
    report = circle.major_arc_model_error(args.n, args.k, R)
    _emit(args, report)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one line on stderr, exit 2;
    its subparsers are of the same class."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wgcircle",
        description="Desk-scale circle-method toolkit for n = p + x_1^k + ... + x_s^k",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="json", table=False):
        p.add_argument("--format", choices=("json", "csv", "plain") if table else ("json", "plain"),
                       default=fmt_default)
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("constants", help="critical ratio 2c = 2 + log(theta*c - 1) and friends")
    p.add_argument("--theta", type=int, choices=(4, 5), default=5)
    common(p)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("eta", help="solve eta + log eta = 1 - t")
    p.add_argument("--t", type=float, required=True)
    common(p)
    p.set_defaults(fn=_cmd_eta)

    p = sub.add_parser("plan", help="working exponent pair (s, t) for a given k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=int, choices=(4, 5), default=5)
    common(p)
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("verify-tables", help="recompute the shipped exponent tables")
    common(p, fmt_default="plain")
    p.set_defaults(fn=_cmd_verify_tables)

    p = sub.add_parser("sieve", help="prime sieve with log weights")
    p.add_argument("--limit", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_sieve)

    p = sub.add_parser("series", help="local-density Euler product with q-sum cross-checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=1000)
    p.add_argument("--xs", default="", help="comma-separated truncation points for the q-sum")
    common(p)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("count", help="exact representation count r(n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("float_fft_verified", "direct"),
                   default="float_fft_verified")
    common(p)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("compare", help="counts vs prediction over a range")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--cutoff", type=int, default=1000)
    common(p, fmt_default="csv", table=True)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("dissect", help="arc dissection and level-set ledgers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--theta", type=int, choices=(4, 5), default=5)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--r-eta", type=float, default=None, dest="r_eta")
    p.add_argument("--oversample", type=int, default=1)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--q-slice", type=float, default=None, dest="q_slice")
    common(p, fmt_default="csv", table=True)
    p.set_defaults(fn=_cmd_dissect)

    p = sub.add_parser("moments", help="restricted moments of |f|^t over dyadic heights")
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--r-eta", type=float, default=None, dest="r_eta")
    p.add_argument("--q-values", default="", dest="q_values")
    common(p, table=True)
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("model-error", help="major-arc model deviation for the smooth sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--r-eta", type=float, default=None, dest="r_eta")
    common(p)
    p.set_defaults(fn=_cmd_model_error)

    return parser


def _check_out(path: str | None) -> None:
    """Refuse an --out path that cannot be written before any work is done."""
    if not path:  # no --out, or an empty one: stdout
        return
    parent = Path(path).absolute().parent
    if Path(path).is_dir():
        raise WgcircleError(f"--out {path} is a directory")
    if not parent.is_dir():
        raise WgcircleError(f"--out {path}: no directory {parent}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.fn(args)
    except InternalConsistencyError as exc:
        print(f"internal-consistency failure: {exc}", file=sys.stderr)
        return 3
    except WgcircleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
