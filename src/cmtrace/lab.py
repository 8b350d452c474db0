"""Empirical side: sweeps over p = r^2 + y^2 <= N and report plumbing.

A sweep finds every prime p = r^2 + y^2 <= N with the fixed leg r by a
quadratic-polynomial sieve over the legs y (Crandall & Pomerance, Prime
Numbers, section 3.2), which alone decides every leg, with one root rule
for every sieving prime, marked by primes._unmarked like sieve_primes'
own multiples. The Legendre symbol (D/p) of every prime found, read by
quadratic reciprocity from small tables, decides whether its trace can
be ±2r at all; only the primes where it can, about half, take the trace
kernel's modular power, as one array on their legs. The tallies go next
to the closed-form prediction and the Lang-Trotter style count
prediction, so one report carries everything needed to eyeball (or
assert) agreement. What depends only on (|r|, N) is computed once and
cached: _sieve_base holds the sieving primes and their square roots of
-1 per isqrt(N), and _prime_legs the sieved legs per (|r|, N), so a
sweep over many D pays the sieve once.
hl_delta remembers the Euler product of x^2 + r^2 per r^2 and bound.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from math import isqrt, log, sqrt

from .arith import DSplit
from .density import DensityPair, _check_pair, _closed_form, _lt_constant
from .errors import PreconditionError, _as_int, _show
from .frobenius import _SYMBOL_PRIME_MAX, _ap_kernel_array, _chi_table
from .primes import _SIEVE_MAX, _mod_primes, _mod_scalar, _pow_mod_array, _unmarked, sieve_primes

__all__ = [
    "SweepReport",
    "sweep",
    "lt_predict",
    "report_emit",
]


_N_MAX = _SIEVE_MAX**2  # the sieving primes go to isqrt(N)


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
    """Predicted count of primes p <= N with a_p = 2r: C * sqrt(N)/log N.

    N runs from 3 to the largest float, since sqrt(N) is taken in floats.
    """
    D, r = _check_pair("lt_predict", D, r)
    N = _as_int(N, "lt_predict: N", 3, sys.float_info.max)
    prime_bound = _as_int(prime_bound, "lt_predict: prime_bound", 3, _SIEVE_MAX)
    return _lt_constant(_closed_form(D, r, "lt_predict")[1], r, prime_bound) * sqrt(N) / log(N)


def _sqrt_minus_one_mod(q: np.ndarray) -> np.ndarray:
    """A square root of -1 modulo each odd prime q, as int64; 0 where q ≡ 3 (mod 4).

    g^((q-1)/4) is one for any non-residue g of a q ≡ 1 (mod 4); the least
    non-residue is below sqrt(q) + 1, so counting g up from 2 finds it
    while g < q.
    """
    import numpy as np
    root = np.zeros_like(q)
    todo = np.flatnonzero((q & 3) == 1)
    g = 2
    while todo.size:
        qt = q[todo]
        z = _pow_mod_array(np.full_like(qt, g), (qt - 1) >> 2, qt)
        hit = z * z % qt == qt - 1
        root[todo[hit]] = z[hit]
        todo = todo[~hit]
        g += 1
    return root


@functools.lru_cache(maxsize=2)
def _sieve_base(root: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd primes q <= root and sqrt(-1) mod each (0 where q ≡ 3 (mod 4)),
    read-only. Neither depends on D or r, so _prime_legs reuses them for
    every r with the same root = isqrt(N); it reads them only on its own miss."""
    q = sieve_primes(root)[1:]
    i = _sqrt_minus_one_mod(q)
    q.setflags(write=False)
    i.setflags(write=False)
    return q, i


@functools.lru_cache(maxsize=16)
def _prime_legs(r_abs: int, N: int) -> np.ndarray:
    """The legs y > 0 of the primes p = r^2 + y^2 <= N with |r| = r_abs, as a
    read-only int64 array in increasing order.

    y runs over the parity opposite to r (no other y can make p prime or
    even odd), as y = y0 + 2j for 0 <= j < n. An odd prime q divides
    r^2 + y^2 exactly when y ≡ ±r*sqrt(-1) (mod q), where sqrt(-1) exists
    (q ≡ 1 (mod 4)) or q | r (then the root is y ≡ 0). For every odd
    q <= isqrt(N) the sieve marks the j on those roots, starting one step
    past the single leg with r^2 + y^2 = q, which is q itself and prime. A
    composite p <= N has a prime factor q <= isqrt(N) other than p, so the
    unmarked legs are exactly the primes. Both roots are marked, so r and
    -r have one leg set, and neither depends on D: a sweep reuses it for
    every D with the same (|r|, N). An entry holds 8 bytes per leg, 3.65 MB
    at N = 10^14, so the 16 entries hold at most ~58 MB there.
    """
    import numpy as np
    r2 = r_abs * r_abs
    y0 = 2 if r_abs % 2 else 1
    n = max(0, (isqrt(N - r2) - y0) // 2 + 1)
    q, i = _sieve_base(isqrt(N))
    rq = r_abs % q
    k = np.flatnonzero((i != 0) | (rq == 0))  # indices gather faster than a mask
    steps = np.tile(q[k], 2)
    ri = rq[k] * i[k]
    ys = np.concatenate((ri, -ri))
    starts = (ys - y0) % steps * ((steps + 1) >> 1) % steps  # j = (y - y0)/2 mod q
    y = starts * 2 + y0
    starts += np.where(y * y + r2 == steps, steps, 0)  # step past p = q itself
    legs = _unmarked(n, starts, steps) * 2 + y0
    legs.setflags(write=False)
    return legs


def _legendre_legs(odd: tuple[int, ...], two: bool, p: np.ndarray) -> np.ndarray | None:
    """The product of (l/p) over the odd primes l in odd, times (2/p) when two,
    as int8 on an int64 array of primes p ≡ 1 (mod 4); None when some l is
    above _SYMBOL_PRIME_MAX.

    For p ≡ 1 (mod 4), (2/p) is 1 for p ≡ 1 (mod 8), -1 for p ≡ 5, and
    for an odd prime l quadratic reciprocity gives (l/p) = (p/l), read
    from l's table at p mod l. So with odd the odd primes of odd exponent
    in D, and two whether 2's exponent is odd, this is (D/p) wherever p
    does not divide D, and 0 where p is one of those primes.
    """
    import numpy as np
    if odd and max(odd) > _SYMBOL_PRIME_MAX:
        return None
    if two:
        chi = np.where(p & 4, np.int8(-1), np.int8(1))
    else:
        chi = np.ones(p.size, dtype=np.int8)
    for l in odd:
        chi *= _chi_table(l)[_mod_scalar(p.copy(), l)]
    return chi


def _scan(D: int, r: int, N: int, split: DSplit) -> tuple[int, int, int, int]:
    """Tallies over the primes p = r^2 + y^2 <= N not dividing 2D.

    The legs are the cached ones of (|r|, N), and split is D's (reduced by
    fourth powers). The kernel's t is alpha * J lifted from mod p, with
    alpha the odd leg signed ≡ 1 (mod 4) and J = D^((p-1)/4). J^2 ≡ (D/p)
    by Euler's criterion, so J = ±1 where (D/p) = 1 and J = ±√−1 where
    (D/p) = -1; alpha^2 + beta^2 = p makes alpha * √−1 ≡ ±beta. So t is
    ±alpha or ±beta by (D/p) alone. For odd r, ±r is ±alpha; for even r,
    ±r is ±beta. Only the legs with (D/p) = 1 (odd r) or -1 (even r) can
    have a_p = ±2r, so only they take the kernel's power, with r's sign
    in its alpha, and every other good leg counts as other; where no leg
    can, the kernel does not run. (D/p) is
    (d/p)(dbar/p), and (d/p) = 1 on every leg: each odd prime l of d
    divides r, so (l/p) = (p/l) = (y^2/l) = 1. So only dbar's primes are
    read, and a dbar with an odd-exponent prime above _SYMBOL_PRIME_MAX
    powers every leg. The p dividing D are counted apart: only a p <= |D|
    can, and the kernel's 0 marks any that it powers.
    """
    import numpy as np
    y = _prime_legs(abs(r), N)
    p = y * y
    p += r * r
    head = p[:int(p.searchsorted(min(abs(D), N), side="right"))]  # p increases with y
    n_primes = p.size - int(np.count_nonzero(_mod_primes(D, head) == 0))
    sh = split.shape_dbar
    chi = _legendre_legs(sh.p_list + sh.l_list, sh.sigma % 2 == 1, p)  # d is odd
    if chi is not None:
        keep = np.flatnonzero(chi == (1 if r % 2 else -1))
        y, p = y[keep], p[keep]
    if not p.size:
        return n_primes, 0, 0, n_primes
    a = _ap_kernel_array(D, r, y, p)
    n_plus = int(np.count_nonzero(a == 2 * r))
    n_minus = int(np.count_nonzero(a == -2 * r))
    return n_primes, n_plus, n_minus, n_primes - n_plus - n_minus


def sweep(D: int, r: int, N: int) -> SweepReport:
    """Exhaustive classification of primes p = r^2 + y^2 <= N.

    y runs over the parity opposite to r (no other y can make p prime or
    even odd). Primes dividing 2D are excluded from every tally. The sieve
    needs every prime up to isqrt(N), so N is capped at 10^18. Its legs
    are cached per (|r|, N), so a repeated (|r|, N) pays only the trace
    kernel: at N = 10^12 a warm sweep takes ~0.006 s against ~0.014 s
    with the legs sieved (2 vCPU), and elapsed_seconds times what ran. At
    N = 10^7, ~100-300 legs, a warm sweep takes ~0.13 ms, most of it a
    fixed count of numpy calls and the closed form.
    """
    D, r = _check_pair("sweep", D, r)
    N = _as_int(N, "sweep: N", r * r + 1, _N_MAX)
    t0 = time.perf_counter()
    split, predicted, _ = _closed_form(D, r, "sweep")
    # numpy loads once D is factored, so a rejected D never loads it, and off
    # the clock, so elapsed_seconds times the closed form and the scan alone
    t1 = time.perf_counter()
    import numpy  # noqa: F401

    t0 += time.perf_counter() - t1
    n_primes, n_plus, n_minus, n_other = _scan(D, r, N, split)
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
        lt_predicted=_sig6(_lt_constant(predicted, r, 10**6) * sqrt(N) / log(N)),
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
    if not isinstance(report, SweepReport):
        raise PreconditionError(
            f"report_emit: report must be a SweepReport, got {_show(report, repr)}"
        )
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
        raise PreconditionError(f"report_emit: fmt must be 'json' or 'csv', got {_show(fmt, repr)}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(
                f"report_emit: path {_show(path, repr)} cannot be written: {exc}"
            ) from exc
    return text
