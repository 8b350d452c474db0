"""Command line front end.

Exit codes: 0 on success, 2 for anything wrong with the request (argparse
errors and PreconditionError both land there), 1 for internal failures
(uncaught exceptions, broken invariants), 141 when the reader of stdout
closes it early (`cmtrace ... | head`), the status a shell reports for
SIGPIPE. Every subcommand does whatever can reject the request before
its first line, so a rejected request leaves stdout empty.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .arith import reduce_quartic_twist
from .density import density_formula, density_oracle, is_zero_pair
from .errors import PreconditionError, _as_int, _show
from .frobenius import ap_fast, ap_naive
from .hardy_littlewood import HLPoly, hl_count, hl_delta
from .lab import report_emit, sweep


def _cmd_ap(args) -> int:
    methods = ("naive", "fast") if args.method == "both" else (args.method,)
    values = {m: (ap_naive if m == "naive" else ap_fast)(args.D, args.p) for m in methods}
    for m, value in values.items():
        print(f"ap_{m}(D={args.D}, p={args.p}) = {value}")
    if len(values) == 2:
        match = values["naive"] == values["fast"]
        print(f"match: {match}")
        if not match:
            print("error: trace routes disagree", file=sys.stderr)
            return 1
    return 0


def _cmd_density(args) -> int:
    formula, oracle = args.mode in ("formula", "both"), args.mode in ("oracle", "both")
    if formula:
        pair = density_formula(args.D, args.r)
    if oracle:
        opair, counts = density_oracle(args.D, args.r, x_max=args.xmax)
    if formula:
        print(f"formula:  d_plus={pair.d_plus}  d_minus={pair.d_minus}")
    if oracle:
        print(f"oracle:   d_plus={opair.d_plus}  d_minus={opair.d_minus}")
        print(
            "classes:  "
            f"x_alpha={counts.x_alpha} x_minus_alpha={counts.x_minus_alpha} "
            f"x_beta={counts.x_beta} x_minus_beta={counts.x_minus_beta} "
            f"(total {counts.total})"
        )
    if args.mode == "both":
        agree = pair == opair
        print(f"agree: {agree}")
        if not agree:
            print("error: oracle disagrees with the closed form", file=sys.stderr)
            return 1
    return 0


def _cmd_sweep(args) -> int:
    report = sweep(args.D, args.r, args.N)
    text = report_emit(report, fmt=args.format, path=args.out)
    if args.out:
        print(f"wrote {args.out}")
        print(
            f"n_primes={report.n_primes} n_plus={report.n_plus} "
            f"n_minus={report.n_minus} n_other={report.n_other} "
            f"elapsed={report.elapsed_seconds}s"
        )
    else:
        sys.stdout.write(text)
    return 0


def _cmd_hl(args) -> int:
    poly = HLPoly(args.a, args.b, args.c)
    n = args.count_to
    # the estimate takes sqrt(n) in floats, so n stops at the largest float
    if n is not None:
        _as_int(n, "hl: --count-to", hi=sys.float_info.max)
    cnt = hl_count(poly, n) if n is not None else None
    # the last two partial products are a crude convergence indicator;
    # the full bound goes first, so one over the cap exits before any sieve
    d_full = hl_delta(poly, args.bound)
    d_prev = hl_delta(poly, max(args.bound // 10, 3))
    print(f"hl_delta({args.a},{args.b},{args.c}; bound={args.bound}) = {d_full:.6f}")
    print(f"  partial at bound/10: {d_prev:.6f}  (drift {abs(d_full - d_prev):.2e})")
    if n is not None:
        print(f"hl_count <= {n}: {cnt}")
        import math

        expected = d_full * math.sqrt(n) / math.log(n) if n >= 3 else 0.0
        print(f"  delta * sqrt(n)/log(n) = {expected:.1f}")
        if expected > 0:
            print(f"  ratio = {cnt / expected:.3f}")
    return 0


# zero-scan walks its grid one (D, r) at a time, so it refuses a larger one
_ZERO_SCAN_MAX = 10**6


def _cmd_zero_scan(args) -> int:
    cells = (2 * max(args.dmax, 0) + 1) * (2 * max(args.rmax, 0) + 1)
    if cells > _ZERO_SCAN_MAX:
        raise PreconditionError(
            f"zero-scan: --dmax and --rmax span {_show(cells)} (D, r) cells, over {_ZERO_SCAN_MAX}"
        )
    rows = 0
    formula_only = 0
    for D in range(-args.dmax, args.dmax + 1):
        if D == 0 or reduce_quartic_twist(D) != D:
            continue  # fourth-power-free representatives only
        for r in range(-args.rmax, args.rmax + 1):
            if r == 0:
                continue
            verdict = is_zero_pair(D, r)
            if not (verdict.plus_zero or verdict.minus_zero):
                continue
            sides = []
            if verdict.plus_zero:
                sides.append("+2r")
            if verdict.minus_zero:
                sides.append("-2r")
            tag = verdict.table_row or "(formula only, no published row)"
            if verdict.table_row is None:
                formula_only += 1
            rows += 1
            print(f"D={D:<5} r={r:<4} zero: {','.join(sides):9} {tag}")
    print(f"-- {rows} vanishing pairs, {formula_only} with no published row pattern")
    return 0


def _cmd_selftest(args) -> int:
    # cheap end-to-end smoke: each line is one behavior worth trusting
    from fractions import Fraction

    from .gaussian import two_squares

    failures = 0
    last = time.perf_counter()

    def check(label: str, ok: bool, detail: str = "") -> None:
        # a check's work runs between the previous call and this one; its
        # wall time goes to stderr, so stdout stays the verdicts alone
        nonlocal failures, last
        now = time.perf_counter()
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status}  {label}{suffix}")
        print(f"time  {1000 * (now - last):.1f} ms  {label}", file=sys.stderr)
        last = time.perf_counter()
        if not ok:
            failures += 1

    ts = two_squares(13)
    check("two_squares(13) = (-3, 2)", (ts.alpha, ts.beta) == (-3, 2))
    check("ap_naive(2, 13) = 4", ap_naive(2, 13) == 4)
    check("ap_fast agrees with ap_naive, D in battery, p < 500", all(
        ap_fast(D, p) == ap_naive(D, p)
        for D in (1, 2, -1, 3, -21, 17)
        for p in range(3, 500, 2)
        if all(p % q for q in range(2, p)) and (2 * D) % p != 0
    ))
    pair = density_formula(-21, 1)
    check(
        "density_formula(-21, 1) = (11/42, 11/42)",
        (pair.d_plus, pair.d_minus) == (Fraction(11, 42), Fraction(11, 42)),
    )
    opair, _ = density_oracle(5, 3, x_max=10_000)
    check(
        "density_oracle(5, 3) = (0, 1/3)",
        (opair.d_plus, opair.d_minus) == (Fraction(0), Fraction(1, 3)),
    )
    d = hl_delta(HLPoly(1, 0, 1), 100_000)
    check("hl_delta(1,0,1) near 1.3728", abs(d - 1.3728) < 0.02, f"{d:.5f}")
    rep = sweep(1, 1, 10_000)
    check(
        "sweep(1, 1, 10^4): every prime lands on +2",
        rep.n_plus == rep.n_primes and rep.n_other == 0,
        f"n_primes={rep.n_primes}",
    )
    print(f"-- selftest {'ok' if failures == 0 else f'{failures} FAILURES'}")
    print(f"numpy loaded: {'numpy' in sys.modules}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cmtrace",
        description=(
            "Traces of Frobenius for y^2 = x^3 + D*x: exact trace-class "
            "densities, closed forms, and empirical sweeps."
        ),
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ap", help="trace of Frobenius at one prime")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--method", choices=("naive", "fast", "both"), default="both")
    p.set_defaults(fn=_cmd_ap)

    p = sub.add_parser("density", help="exact class densities for a_p = ±2r")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mode", choices=("formula", "oracle", "both"), default="both")
    p.add_argument("--xmax", type=int, default=100_000,
                   help="representative search bound for the oracle")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("sweep", help="classify all primes r^2 + y^2 <= N")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("hl", help="Hardy-Littlewood constant for a*x^2+b*x+c")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--bound", type=int, default=1_000_000)
    p.add_argument("--count-to", type=int, default=None, dest="count_to")
    p.set_defaults(fn=_cmd_hl)

    p = sub.add_parser("zero-scan", help="list vanishing trace classes on a grid")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.set_defaults(fn=_cmd_zero_scan)

    p = sub.add_parser("selftest", help="quick smoke battery")
    p.set_defaults(fn=_cmd_selftest)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            status = args.fn(args)
        except PreconditionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the rest of the output goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
