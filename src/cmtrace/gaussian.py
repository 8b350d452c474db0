"""Gaussian integer arithmetic and two-squares decompositions.

Everything downstream that touches a prime p ≡ 1 (mod 4) goes through
two_squares(p): the normalized writing p = alpha^2 + beta^2 with
alpha ≡ 1 (mod 4) and beta > 0 even. The normalization is load-bearing,
traces of Frobenius are read off these two numbers with signs attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .errors import PreconditionError, _as_int, _show
from .primes import _U64_MAX, _NotPrime, _prime_gate


@dataclass(frozen=True, slots=True)
class GaussianInt:
    re: int
    im: int

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianInt(a * c - b * d, a * d + b * c)

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_odd(self) -> bool:
        # odd = coprime to 1+i, i.e. odd norm
        return self.norm() % 2 == 1

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GI_ONE = GaussianInt(1, 0)
GI_I = GaussianInt(0, 1)


def _round_half_down(x: int, n: int) -> int:
    # nearest integer to x/n (n > 0), ties toward -infinity: 2.5 -> 2, -2.5 -> -3
    return (2 * x + n - 1) // (2 * n)


def _gaussian_args(entry: str, **args) -> None:
    # reject, by entry's name, the first argument that is not a GaussianInt
    for name, z in args.items():
        if not isinstance(z, GaussianInt):
            raise PreconditionError(f"{entry}: {name} must be a GaussianInt, got {_show(z, repr)}")


def gi_divmod(a: GaussianInt, b: GaussianInt) -> tuple[GaussianInt, GaussianInt]:
    """Division with remainder, norm(r) < norm(b).

    Quotient coordinates are the nearest integers to the exact quotient,
    ties rounding toward -infinity. That pins a unique (q, r) and keeps
    norm(r) <= norm(b)/2.
    """
    _gaussian_args("gi_divmod", a=a, b=b)
    if b.is_zero():
        raise PreconditionError("gi_divmod: b must be nonzero, got 0")
    return _gi_divmod(a, b)


def _gi_divmod(a: GaussianInt, b: GaussianInt) -> tuple[GaussianInt, GaussianInt]:
    # gi_divmod on GaussianInt arguments, b nonzero
    n = b.norm()
    t = a * b.conj()
    q = GaussianInt(_round_half_down(t.re, n), _round_half_down(t.im, n))
    r = a - q * b
    if r.norm() * 2 > n:
        raise AssertionError(f"gi_divmod({_show(a)}, {_show(b)}): remainder {_show(r)} too large")
    return q, r


def gi_mod(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    # the remainder of gi_divmod, unchecked: a and b are GaussianInt, b nonzero
    return _gi_divmod(a, b)[1]


def gi_powmod(base: GaussianInt, exp: int, mod: GaussianInt) -> GaussianInt:
    """base^exp reduced mod `mod` at every step (exp >= 0, mod nonzero)."""
    _gaussian_args("gi_powmod", base=base, mod=mod)
    exp = _as_int(exp, "gi_powmod: exp", lo=0)
    if mod.is_zero():
        raise PreconditionError("gi_powmod: mod must be nonzero, got 0")
    result = gi_mod(GI_ONE, mod)
    acc = gi_mod(base, mod)
    while exp:
        if exp & 1:
            result = gi_mod(result * acc, mod)
        exp >>= 1
        if exp:
            acc = gi_mod(acc * acc, mod)
    return result


def is_primary(z: GaussianInt) -> bool:
    """Primary: the associate normal form for odd nonunits.

    z = a+bi qualifies iff (a, b) ≡ (1, 0) or (3, 2) (mod 4). Exactly one
    associate of every odd nonunit qualifies; units and even elements never do.
    """
    _gaussian_args("is_primary", z=z)
    if z.is_unit() or not z.is_odd():
        return False
    a4, b4 = z.re % 4, z.im % 4
    return (a4, b4) in ((1, 0), (3, 2))


def make_primary(z: GaussianInt) -> tuple[int, GaussianInt]:
    """Return (k, w) with w = i^k * z primary, k in 0..3."""
    _gaussian_args("make_primary", z=z)
    if z.is_zero() or z.is_unit():
        raise PreconditionError(f"make_primary: z must be neither zero nor a unit, got {_show(z)}")
    if not z.is_odd():
        raise PreconditionError(f"make_primary: z must be odd (of odd norm), got {_show(z)}")
    w = z
    for k in range(4):
        if is_primary(w):
            return k, w
        w = GI_I * w
    raise AssertionError(f"no primary associate for {_show(z)}")  # unreachable


def gi_gcd(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    """Greatest common divisor, canonically normalized.

    Odd nonunit gcds come back primary. Even nonunit gcds have no primary
    associate, so those are normalized to re > 0, im >= 0 instead. Unit gcds
    come back as 1.
    """
    _gaussian_args("gi_gcd", a=a, b=b)
    if a.is_zero() and b.is_zero():
        raise PreconditionError("gi_gcd: a and b must not both be zero")
    while not b.is_zero():
        a, b = b, _gi_divmod(a, b)[1]
    if a.is_unit():
        return GI_ONE
    if a.is_odd():
        return make_primary(a)[1]
    w = a
    for _ in range(3):
        if w.re > 0 and w.im >= 0:
            break
        w = GI_I * w
    return w


@dataclass(frozen=True, slots=True)
class TwoSquares:
    """p = alpha^2 + beta^2 with alpha odd, alpha ≡ 1 (mod 4), beta > 0 even."""

    p: int
    alpha: int
    beta: int

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if not (a % 4 == 1 and b > 0 and b % 2 == 0 and a * a + b * b == self.p):
            raise PreconditionError(f"TwoSquares: alpha, beta must split p, got {_show(self)}")


def _split_for(entry: str, p: int, want: str = "a prime ≡ 1 (mod 4)") -> "TwoSquares":
    """two_squares(p) for the entry point named entry, which has checked p to be an int
    below 2^64: the prime gate's rejection names entry, any other keeps its own name."""
    try:
        return two_squares(p)
    except _NotPrime:
        raise PreconditionError(f"{entry}: p must be {want}, got {_show(p)}") from None


def sqrt_minus_one(p: int) -> int:
    """The smaller square root of -1 mod p, for prime p ≡ 1 (mod 4) below 2^64.

    two_squares and every routine built on it reject a composite p by
    primes._prime_gate, under the routine's own name.
    """
    p = _as_int(p, "sqrt_minus_one: p", hi=_U64_MAX)
    _prime_gate("sqrt_minus_one", p, split=True)
    return _sqrt_minus_one(p)


def _sqrt_minus_one(p: int) -> int:
    # sqrt_minus_one on a p that has passed the prime gate
    e = (p - 1) // 4
    g = 2
    while (z := pow(g, e, p)) * z % p != p - 1:
        g += 1
    return min(z, p - z)


@lru_cache(maxsize=1 << 16, typed=True)
def two_squares(p: int) -> TwoSquares:
    """Normalized two-squares decomposition of a prime p ≡ 1 (mod 4).

    Cornacchia-style descent: run Euclid on (p, sqrt(-1) mod p); the first
    remainder below sqrt(p) is the odd leg up to sign. A p that is not a
    prime ≡ 1 (mod 4) below 2^64 raises PreconditionError. The cache is
    typed, so 13.0 never hits the entry of np.int64(13) and is rejected like
    any other non-integer.
    """
    p = _as_int(p, "two_squares: p", hi=_U64_MAX)
    _prime_gate("two_squares", p, split=True)
    a, b = p, _sqrt_minus_one(p)
    while b * b > p:
        a, b = b, a % b
    x = b
    y = isqrt(p - x * x)
    if x % 2 == 0:
        x, y = y, x
    alpha = x if x % 4 == 1 else -x
    beta = abs(y)
    return TwoSquares(p=p, alpha=alpha, beta=beta)


def primary_prime_above(p: int) -> GaussianInt:
    """The primary Gaussian prime over p ≡ 1 (mod 4) with positive imaginary part.

    This is the generator the quartic residue conventions are anchored to:
    beta ≡ 0 (mod 4) gives alpha + beta*i itself, beta ≡ 2 (mod 4) flips the
    real part's sign to restore primarity while keeping im > 0.
    """
    p = _as_int(p, "primary_prime_above: p", hi=_U64_MAX)
    ts = _split_for("primary_prime_above", p)
    re = ts.alpha if ts.beta % 4 == 0 else -ts.alpha
    return GaussianInt(re, ts.beta)
