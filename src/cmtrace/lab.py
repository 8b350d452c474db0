"""Empirical side: sweeps over p = r^2 + y^2 <= N and report plumbing.

A sweep enumerates every candidate prime with the right fixed leg r,
classifies its trace, and packages the tallies next to the closed-form
prediction and the Lang-Trotter style count prediction, so one report
carries everything needed to eyeball (or assert) agreement.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from math import isqrt, log, sqrt

from .density import DensityPair, _lt_constant, density_formula
from .errors import PreconditionError
from .frobenius import _ap_kernel
from .primes import _U64_MAX, is_prime_u64

__all__ = [
    "SweepReport",
    "sweep",
    "lt_predict",
    "report_emit",
]


def _sig6(x: float) -> float:
    """Round to 6 significant digits (reports store pre-rounded floats)."""
    return float(f"{x:.6g}")


@dataclass(frozen=True, slots=True)
class SweepReport:
    D: int
    r: int
    N: int
    n_primes: int
    n_plus: int
    n_minus: int
    n_other: int
    empirical_plus: float
    empirical_minus: float
    predicted: DensityPair
    pi_lt: int
    lt_predicted: float
    elapsed_seconds: float


def lt_predict(D: int, r: int, N: int, prime_bound: int = 1_000_000) -> float:
    """Predicted count of primes p <= N with a_p = 2r: C * sqrt(N)/log N."""
    if N < 3:
        raise PreconditionError(f"lt_predict wants N >= 3, got {N}")
    return _lt_predict(density_formula(D, r), r, N, prime_bound)


def _lt_predict(pair: DensityPair, r: int, N: int, prime_bound: int = 1_000_000) -> float:
    # lt_predict on the density pair of (D, r), for callers that hold it
    return _lt_constant(pair, r, prime_bound) * sqrt(N) / log(N)


def _scan(D: int, r: int, ys: range) -> tuple[int, int, int, int]:
    r2 = r * r
    n_primes = n_plus = n_minus = n_other = 0
    twoD = 2 * abs(D)
    target = 2 * r
    for y in ys:
        p = r2 + y * y
        if not is_prime_u64(p):
            continue
        if twoD % p == 0:
            continue  # bad reduction for the caller's curve
        a = _ap_kernel(D, r, y)
        n_primes += 1
        if a == target:
            n_plus += 1
        elif a == -target:
            n_minus += 1
        else:
            n_other += 1
    return n_primes, n_plus, n_minus, n_other


def sweep(D: int, r: int, N: int) -> SweepReport:
    """Exhaustive classification of primes p = r^2 + y^2 <= N.

    y runs over the parity opposite to r (no other y can make p prime or
    even odd). Primes dividing 2D are excluded from every tally.
    """
    if D == 0 or r == 0:
        raise PreconditionError("sweep wants nonzero D and r")
    if N < r * r + 1:
        raise PreconditionError(f"sweep: N={N} below r^2+1={r * r + 1}")
    if N > _U64_MAX:
        raise PreconditionError(f"sweep: N={N} exceeds the u64 range")
    t0 = time.perf_counter()
    predicted = density_formula(D, r)  # first: it rejects a non-integer D
    y_max = isqrt(N - r * r)
    y0 = 2 if r % 2 else 1
    n_primes, n_plus, n_minus, n_other = _scan(D, r, range(y0, y_max + 1, 2))
    elapsed = time.perf_counter() - t0
    return SweepReport(
        D=D,
        r=r,
        N=N,
        n_primes=n_primes,
        n_plus=n_plus,
        n_minus=n_minus,
        n_other=n_other,
        empirical_plus=_sig6(n_plus / n_primes) if n_primes else 0.0,
        empirical_minus=_sig6(n_minus / n_primes) if n_primes else 0.0,
        predicted=predicted,
        pi_lt=n_plus,
        lt_predicted=_sig6(_lt_predict(predicted, r, N)),
        elapsed_seconds=_sig6(elapsed),
    )


def report_to_dict(report: SweepReport) -> dict:
    """Flat dict with exact fractions as strings, stable key order."""
    out: dict = {}
    for f in fields(SweepReport):
        v = getattr(report, f.name)
        if f.name == "predicted":
            out["predicted_plus"] = str(v.d_plus)
            out["predicted_minus"] = str(v.d_minus)
        else:
            out[f.name] = v
    return out


def report_from_dict(data: dict) -> SweepReport:
    pair = DensityPair(
        Fraction(data["predicted_plus"]), Fraction(data["predicted_minus"])
    )
    kwargs = {k: v for k, v in data.items() if not k.startswith("predicted_")}
    return SweepReport(predicted=pair, **kwargs)


def report_emit(report: SweepReport, fmt: str = "json", path: str | None = None) -> str:
    """Serialize a report; write to path when given, return the text either way.

    Field order is fixed (report_to_dict's), floats were rounded to 6
    significant digits at construction, fractions ride as strings, so
    report_from_dict(json.loads(...)) reproduces the report exactly.
    """
    if fmt == "json":
        text = json.dumps(report_to_dict(report), indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        row = report_to_dict(report)
        w = csv.DictWriter(buf, fieldnames=list(row))
        w.writeheader()
        w.writerow(row)
        text = buf.getvalue()
    else:
        raise PreconditionError(f"report_emit: unknown format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write report to {path}: {exc}") from exc
    return text
