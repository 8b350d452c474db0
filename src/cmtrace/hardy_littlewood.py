"""Hardy-Littlewood constants for prime values of a quadratic polynomial.

For admissible f(x) = a*x^2 + b*x + c, delta(f) = hl_delta(f) is the
classical Euler product normalized so that, by Bateman-Horn, the count of
hl_count(f, n) is about (sqrt(a) * delta/2) * li(sqrt(n/a)). For x^2 + 1
that is (delta/2) * (li(sqrt n) - li(2)); delta * sqrt(n)/log n is only its
leading term, and runs about 15% low at n = 10^8. This package only ever
needs f = (4Dx + j)^2 + r^2 shapes, which collapse to x^2 + r^2 up to
finite factors, but the general evaluator is cheap to have and easy to
test on its own. The Lang-Trotter constants call it for x^2 + r^2 at
one bound on every sweep, and only r varies, so hl_delta remembers its
values per (f, bound).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import gcd, isqrt, prod, sqrt

from .errors import PreconditionError, _as_int, _show
from .primes import _SIEVE_MAX, _U64_MAX, _mod_primes, _pow_mod_array, is_prime_u64, sieve_primes

__all__ = ["HLPoly", "hl_admissible", "hl_delta", "hl_count"]


@dataclass(frozen=True, slots=True)
class HLPoly:
    """f(x) = a*x^2 + b*x + c with integer coefficients."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x: int) -> int:
        return (self.a * x + self.b) * x + self.c


def _as_poly(entry: str, f) -> HLPoly:
    # f, an HLPoly or three integers (a, b, c), as an HLPoly of ints; rejected by entry's name
    try:
        a, b, c = (f.a, f.b, f.c) if isinstance(f, HLPoly) else f
    except (TypeError, ValueError):
        raise PreconditionError(
            f"{entry}: f must be an HLPoly or three integers, got {_show(f, repr)}"
        ) from None
    try:
        return HLPoly(operator.index(a), operator.index(b), operator.index(c))
    except TypeError:
        # only a failing coefficient pays for the message and its repr of f
        what = f"{entry}: f = {_show(f, repr)}: a coefficient"
        return HLPoly(_as_int(a, what), _as_int(b, what), _as_int(c, what))


def hl_admissible(f) -> bool:
    """Can f(x) be prime infinitely often, as far as the obvious obstructions go?

    Needs a > 0, gcd(a, b, c) = 1, f not always even (a+b and c not both
    even), and an irreducible f, i.e. the discriminant is not a perfect
    square.
    """
    return _admissible(_as_poly("hl_admissible", f))


def _admissible(f: HLPoly) -> bool:
    # hl_admissible on a normalized f
    if f.a <= 0:
        return False
    if gcd(gcd(f.a, f.b), f.c) != 1:
        return False
    if (f.a + f.b) % 2 == 0 and f.c % 2 == 0:
        return False
    d = f.disc
    if d >= 0 and isqrt(d) ** 2 == d:
        return False
    return True


# primes per vector pass of hl_delta, so its temporaries stay small at any bound
_CHUNK = 1 << 14


def _euler_factors(f: HLPoly, p: np.ndarray) -> np.ndarray:
    # the factor of hl_delta's product at each odd prime p, as float64
    import numpy as np
    a, b, d = (_mod_primes(c, p) for c in (f.a, f.b, f.disc))
    t = _pow_mod_array(d, (p - 1) >> 1, p)  # 0, 1 or p - 1
    leg = np.where(t > 1, -1, t)
    return np.where(a == 0, np.where(b == 0, p / (p - 1), 1.0), 1 - leg / (p - 1))


def hl_delta(f, prime_bound: int = 1_000_000) -> float:
    """Truncated Hardy-Littlewood constant for f.

    gcd(2, a+b)/sqrt(a) * prod_{p | a, p | b, p > 2} p/(p-1)
    * prod_{p ∤ a, 2 < p <= prime_bound} (1 - (disc/p)/(p-1)).

    Plain float product over a sieve; the tail beyond 10^6 moves the value
    in the fourth decimal, which is accuracy enough for everything here.
    The Legendre symbols come from one vectorized int64 power per chunk of
    primes, exact since p^2 < 2^63 for p <= 10^9, sieve_primes' cap. A bound
    outside [3, 10^9], or an a no float holds, raises PreconditionError first.
    Each factor is computed in float64 exactly as the scalar expression
    would be, and math.prod multiplies them in prime order, so the value
    is the one a plain loop over the primes gives, bit for bit. The last
    256 values are remembered, keyed on the normalized (f, bound), so a
    tuple, a list or an HLPoly with the same coefficients share one entry.
    """
    f = _as_poly("hl_delta", f)
    prime_bound = _as_int(prime_bound, "hl_delta: prime_bound", 3, _SIEVE_MAX)
    if not _admissible(f):
        raise PreconditionError(f"hl_delta: f = {_show(f)} is not admissible")
    try:
        float(f.a)  # the product starts from 1/sqrt(a), taken in floats
    except OverflowError:
        raise PreconditionError(
            f"hl_delta: f has its a past the largest float, got {_show(f)}"
        ) from None
    return _hl_delta(f, prime_bound)


@functools.lru_cache(maxsize=256)
def _hl_delta(f: HLPoly, prime_bound: int) -> float:
    # hl_delta on validated, normalized arguments, remembered per (f, bound)
    value = gcd(2, f.a + f.b) / sqrt(f.a)
    primes = sieve_primes(prime_bound)[1:]  # odd primes only
    for lo in range(0, primes.size, _CHUNK):
        value = prod(_euler_factors(f, primes[lo : lo + _CHUNK]).tolist(), start=value)
    return value


# hl_count tests one value at a time, so it refuses a longer scan
_HL_COUNT_MAX = 10**7


def hl_count(f, n: int) -> int:
    """Number of distinct primes <= n of the form f(x), x >= 0 an integer.

    As a > 0, f(x) <= n exactly on one interval lo <= x <= hi; hl_count scans
    only that, and rejects it first if it holds over 10^7 values, or if its
    largest value, f(lo) or f(hi) since f is convex, is 2^64 or more.
    """
    f = _as_poly("hl_count", f)
    n = _as_int(n, "hl_count: n", lo=0)
    if f.a <= 0:
        raise PreconditionError(f"hl_count: f must have a > 0, got {_show(f)}")
    # f(x) <= n iff (2ax + b)^2 <= disc + 4an, i.e. |2ax + b| <= isqrt(disc + 4an)
    span = f.disc + 4 * f.a * n
    s = isqrt(max(span, 0))
    lo, hi = max(0, -((s + f.b) // (2 * f.a))), (s - f.b) // (2 * f.a)
    if span < 0 or lo > hi:
        return 0
    if max(f(lo), f(hi)) > _U64_MAX:
        raise PreconditionError(
            f"hl_count: n = {_show(n)} takes f = {_show(f)} to values at or above 2^64; "
            "primality is tested below 2^64 only"
        )
    if hi - lo + 1 > _HL_COUNT_MAX:
        raise PreconditionError(
            f"hl_count: n = {_show(n)} needs {_show(hi - lo + 1)} values of f = {_show(f)}, "
            f"more than {_HL_COUNT_MAX}"
        )
    return len({v for v in map(f, range(lo, hi + 1)) if v >= 2 and is_prime_u64(v)})
