"""Quadratic and quartic residue symbols, and the four-way trace classes.

For p ≡ 1 (mod 4) the value of D^((p-1)/4) mod p lands in a four-element
group {1, -1, i_p, -i_p} (i_p a square root of -1 mod p) and that value
decides which of the four candidates ±2*alpha, ±2*beta the trace of
Frobenius is. FourClass names those outcomes relative to the normalized
decomposition from two_squares; QuarticValue is the abstract fourth root of
unity when we need actual Gaussian-unit arithmetic (sums, products).
"""

from __future__ import annotations

import enum

from .errors import PreconditionError, _as_int, _nonzero_int, _show
from .frobenius import _ap_kernel, _check_good_reduction
from .gaussian import GaussianInt, _gaussian_args, _split_for, gi_mod, gi_powmod, is_primary
from .primes import _U64_MAX, is_prime_u64


class QuarticValue(enum.Enum):
    """Fourth roots of unity; the enum value is the exponent of i."""

    ONE = 0
    I = 1
    MINUS_ONE = 2
    MINUS_I = 3

    def __mul__(self, other: "QuarticValue") -> "QuarticValue":
        return QuarticValue((self.value + other.value) % 4)

    def conjugate(self) -> "QuarticValue":
        return QuarticValue((-self.value) % 4)

    def to_gaussian(self) -> GaussianInt:
        return _UNIT_GI[self.value]

    def __str__(self) -> str:
        return ("1", "i", "-1", "-i")[self.value]


_UNIT_GI = (
    GaussianInt(1, 0),
    GaussianInt(0, 1),
    GaussianInt(-1, 0),
    GaussianInt(0, -1),
)
_UNIT_VALUE = {g: QuarticValue(k) for k, g in enumerate(_UNIT_GI)}


class FourClass(enum.Enum):
    PLUS_ALPHA = "+alpha"
    MINUS_ALPHA = "-alpha"
    PLUS_BETA = "+beta"
    MINUS_BETA = "-beta"


def _trace_class(a: int) -> FourClass:
    """The class of a trace a = 2t of a prime p ≡ 1 (mod 4).

    t is ±alpha or ±beta of the normalized split of p. alpha is odd and
    ≡ 1 (mod 4), so an odd t picks its sign by t mod 4; beta is even and
    positive, so an even t picks its sign by the sign of t.
    """
    t = a // 2
    if t % 2:
        return FourClass.PLUS_ALPHA if t % 4 == 1 else FourClass.MINUS_ALPHA
    return FourClass.PLUS_BETA if t > 0 else FourClass.MINUS_BETA


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    a = _as_int(a, "legendre: a")
    p = _as_int(p, "legendre: p", hi=_U64_MAX)
    if p < 3 or p % 2 == 0 or not is_prime_u64(p):
        raise PreconditionError(f"legendre: p must be an odd prime, got {_show(p)}")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _check_symbol_args(entry: str, lam, pi) -> None:
    """Reject, by entry's name, a lam or pi that is not a GaussianInt, a pi that
    is not a primary Gaussian prime, and a lam that pi divides."""
    _gaussian_args(entry, lam=lam, pi=pi)
    _check_primary_prime(entry, "pi", pi)
    # pi is prime, so lam shares a factor with it exactly when pi divides lam
    if gi_mod(lam, pi).is_zero():
        raise PreconditionError(
            f"{entry}: lam = {_show(lam)} shares a factor with pi = {_show(pi)}"
        )


def _check_primary_prime(entry: str, arg: str, z: GaussianInt) -> None:
    # a primary z is odd; it is prime exactly when q is: its norm, or |z| if z is real
    if not is_primary(z):
        raise PreconditionError(f"{entry}: {arg} must be primary, got {_show(z)}")
    real = z.im == 0
    q = abs(z.re) if real else z.norm()
    if q > _U64_MAX:
        raise PreconditionError(f"{entry}: {arg} must lie over a prime below 2^64, got {_show(z)}")
    if (real and q % 4 != 3) or not is_prime_u64(q):
        raise PreconditionError(f"{entry}: {arg} must be a Gaussian prime, got {_show(z)}")


def quartic_symbol(lam: GaussianInt, pi: GaussianInt) -> QuarticValue:
    """The quartic residue symbol of lam modulo the primary prime pi.

    Defined by lam^((N(pi)-1)/4) ≡ value (mod pi); requires lam coprime
    to pi. Computed honestly in the quotient ring, one reduction per
    multiply, no shortcuts through F_p. Both arguments must be GaussianInt.
    """
    _check_symbol_args("quartic_symbol", lam, pi)
    return _quartic_symbol(lam, pi)


def _quartic_symbol(lam: GaussianInt, pi: GaussianInt) -> QuarticValue:
    # quartic_symbol on checked arguments
    n = pi.norm()
    # w is a gi_mod remainder, which depends only on the class mod pi, and
    # with N(pi) >= 5 each unit is its own remainder: w is the unit itself
    w = gi_powmod(lam, (n - 1) // 4, pi)
    if w not in _UNIT_VALUE:
        raise AssertionError(f"quartic_symbol({_show(lam)}, {_show(pi)}): {_show(w)} is not a unit")
    return _UNIT_VALUE[w]


def reciprocity_check(lam: GaussianInt, pi: GaussianInt) -> bool:
    """Check biquadratic reciprocity for a pair of distinct primary primes.

    (lam/pi) must equal (pi/lam) * (-1)^(((N(lam)-1)/4) * ((N(pi)-1)/4)).
    Returns True when the identity holds. Each argument is checked once,
    by reciprocity_check's name: pi and coprimality as quartic_symbol
    checks them, then lam as a primary prime.
    """
    _check_symbol_args("reciprocity_check", lam, pi)
    _check_primary_prime("reciprocity_check", "lam", lam)
    lhs = _quartic_symbol(lam, pi)
    rhs = _quartic_symbol(pi, lam)
    if ((lam.norm() - 1) // 4) * ((pi.norm() - 1) // 4) % 2 == 1:
        rhs = rhs * QuarticValue.MINUS_ONE
    return lhs == rhs


def quartic_class_of(D: int, p: int) -> FourClass:
    """Which of {1, -1, beta/alpha, -beta/alpha} D^((p-1)/4) is mod p.

    beta/alpha is a square root of -1 mod p (alpha^2 + beta^2 ≡ 0), so for
    any D coprime to p the four cases are exhaustive and exclusive. The
    class is read off t = alpha * D^((p-1)/4) mod p, half the trace, which
    is the member of ±alpha, ±beta that the class names: the class of
    ap_fast's trace.
    """
    return _class_of("quartic_class_of", D, p)[0]


def _class_of(entry: str, D, p) -> tuple[FourClass, int]:
    # quartic_class_of, and beta of p, for the entry point named entry
    D = _nonzero_int(D, f"{entry}: D")
    p = _as_int(p, f"{entry}: p", hi=_U64_MAX)
    ts = _split_for(entry, p)
    _check_good_reduction(entry, D, p)
    return _trace_class(_ap_kernel(D, ts.alpha, ts.beta)), ts.beta


def two_quartic_class(p: int) -> FourClass:
    """Closed form for the class of 2, read off beta mod 8.

    With alpha ≡ 1 (mod 4) the congruences 2*alpha ≡ 2 and 6*alpha ≡ 6
    (mod 8) hold identically, so the case split collapses to beta mod 8:
    0 -> +alpha, 4 -> -alpha, 2 -> +beta, 6 -> -beta. No exponentiation.
    """
    p = _as_int(p, "two_quartic_class: p", hi=_U64_MAX)
    b8 = _split_for("two_quartic_class", p).beta % 8
    if b8 == 0:
        return FourClass.PLUS_ALPHA
    if b8 == 4:
        return FourClass.MINUS_ALPHA
    if b8 == 2:
        return FourClass.PLUS_BETA
    return FourClass.MINUS_BETA


# Translation between the class labels (anchored to alpha ≡ 1 mod 4, beta > 0)
# and the quartic symbol anchored to the primary prime with im > 0. The image
# of i in F_p under that prime is -re/im, and whether the primary generator is
# alpha + beta*i or -alpha + beta*i depends on beta mod 4; hence the flip.

def class_to_value(cls: FourClass, beta: int) -> QuarticValue:
    if cls is FourClass.PLUS_ALPHA:
        return QuarticValue.ONE
    if cls is FourClass.MINUS_ALPHA:
        return QuarticValue.MINUS_ONE
    if beta % 4 == 0:
        return QuarticValue.I if cls is FourClass.PLUS_BETA else QuarticValue.MINUS_I
    return QuarticValue.MINUS_I if cls is FourClass.PLUS_BETA else QuarticValue.I


def quartic_value_of(D: int, p: int) -> QuarticValue:
    """The quartic symbol of D at p as a fourth root of unity.

    Equals quartic_symbol(D, pi) for the primary prime pi over p with
    im(pi) > 0, but computed through the residue class machinery.
    """
    return class_to_value(*_class_of("quartic_value_of", D, p))
