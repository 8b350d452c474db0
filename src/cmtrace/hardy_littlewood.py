"""Hardy-Littlewood constants for prime values of a quadratic polynomial.

For admissible f(x) = a*x^2 + b*x + c, delta(f) = hl_delta(f) is the
classical Euler product normalized so that, by Bateman-Horn, the count of
hl_count(f, n) is about (sqrt(a) * delta/2) * li(sqrt(n/a)). For x^2 + 1
that is (delta/2) * (li(sqrt n) - li(2)); delta * sqrt(n)/log n is only its
leading term, and runs about 15% low at n = 10^8. This package only ever
needs f = (4Dx + j)^2 + r^2 shapes, which collapse to x^2 + r^2 up to
finite factors, but the general evaluator is cheap to have and easy to
test on its own. The Lang-Trotter constants take x^2 + r^2 from one
table of chi_{-4} factors per bound instead, with the same value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd, isqrt, prod, sqrt

import numpy as np

from .errors import PreconditionError, _as_int
from .primes import _mod_primes, _pow_mod_array, is_prime_u64, sieve_primes

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


def _as_poly(f) -> HLPoly:
    a, b, c = (f.a, f.b, f.c) if isinstance(f, HLPoly) else f
    return HLPoly(*(_as_int(v, f"coefficient of {f!r}") for v in (a, b, c)))


def hl_admissible(f) -> bool:
    """Can f(x) be prime infinitely often, as far as the obvious obstructions go?

    Needs a > 0, gcd(a, b, c) = 1, f not always even (a+b and c not both
    even), and an irreducible f, i.e. the discriminant is not a perfect
    square.
    """
    f = _as_poly(f)
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
    primes, exact since p^2 < 2^63 for every p <= 10^9 (sieve_primes' cap).
    Each factor is computed in float64 exactly as the scalar expression
    would be, and math.prod multiplies them in prime order, so the value
    is the one a plain loop over the primes gives, bit for bit.
    """
    f = _as_poly(f)
    prime_bound = _as_int(prime_bound, "hl_delta: prime_bound")
    if not hl_admissible(f):
        raise PreconditionError(f"hl_delta: {f} is not admissible")
    if prime_bound < 3:
        raise PreconditionError(f"hl_delta: prime_bound too small: {prime_bound}")
    value = gcd(2, f.a + f.b) / sqrt(f.a)
    primes = sieve_primes(prime_bound)[1:]  # odd primes only
    for lo in range(0, primes.size, _CHUNK):
        value = prod(_euler_factors(f, primes[lo : lo + _CHUNK]).tolist(), start=value)
    return value


@functools.lru_cache(maxsize=2)
def _chi4_table(prime_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd primes p <= prime_bound and hl_delta's factor for x^2 + r^2
    at each p not dividing r: 1 - chi_{-4}(p)/(p-1), as the same float64
    expression _euler_factors evaluates. Read-only, cached per bound."""
    p = sieve_primes(prime_bound)[1:]
    chi = np.where(p % 4 == 1, 1, -1)
    factors = 1 - chi / (p - 1)
    p.setflags(write=False)
    factors.setflags(write=False)
    return p, factors


def _delta_sum_of_squares(r: int, prime_bound: int) -> float:
    """hl_delta(HLPoly(1, 0, r*r), prime_bound), bit for bit, with no power.

    The discriminant is -4r^2, so its symbol is chi_{-4}(p) off the primes
    dividing r and 0 on them, where the factor is exactly 1.0. The factors
    come from the table of the bound with 1.0 put at the p | r, found by
    r mod p, and multiply in prime order as in hl_delta, one chunk at a
    time so no temporary is as large as the table.
    """
    prime_bound = _as_int(prime_bound, "hl_delta: prime_bound")
    if prime_bound < 3:
        raise PreconditionError(f"hl_delta: prime_bound too small: {prime_bound}")
    p, factors = _chi4_table(prime_bound)
    value = 1.0  # gcd(2, a + b)/sqrt(a) at a = 1, b = 0
    for lo in range(0, p.size, _CHUNK):
        chunk = factors[lo : lo + _CHUNK]
        hit = _mod_primes(abs(r), p[lo : lo + _CHUNK]) == 0
        if hit.any():
            chunk = np.where(hit, 1.0, chunk)
        value = prod(chunk.tolist(), start=value)
    return value


def hl_count(f, n: int) -> int:
    """Number of distinct primes <= n of the form f(x), x >= 0 an integer."""
    f = _as_poly(f)
    n = _as_int(n, "hl_count: n")
    if f.a <= 0:
        raise PreconditionError(f"hl_count wants a > 0, got {f}")
    if n < 0:
        raise PreconditionError(f"hl_count wants n >= 0, got {n}")
    found: set[int] = set()
    x = 0
    while True:
        v = f(x)
        # past the vertex and above n means every later value is too big
        if v > n and 2 * f.a * x + f.a + f.b > 0:
            break
        if 2 <= v <= n and is_prime_u64(v):
            found.add(v)
        x += 1
    return len(found)
