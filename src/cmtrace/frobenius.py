"""Traces of Frobenius for E_D : y^2 = x^3 + D*x, three independent ways.

ap_naive sums the quadratic character of x^3 + D*x over F_p (the definition,
nothing clever). ap_binomial_residue reads 2*alpha off a central binomial
coefficient mod p, with no factoring of p into two squares anywhere near it.
ap_fast picks the right member of {±2*alpha, ±2*beta} as alpha times
D^((p-1)/4) mod p. The whole point of this module is that the three must agree.
"""

from __future__ import annotations

import functools

from .errors import PreconditionError, _as_int, _nonzero_int, _show
from .gaussian import _split_for
from .primes import _U64_MAX, _mod_primes, _mod_scalar, _pow_mod_array, _prime_gate

__all__ = [
    "NAIVE_CAP",
    "ap_naive",
    "ap_binomial_residue",
    "ap_fast",
]

NAIVE_CAP = 10_000_000

# ap_naive and _chi_table walk x in blocks of this many int64 (32 KiB). The
# arrays one block keeps live stay under glibc's 128 KiB mmap and trim
# thresholds, so a point count reuses heap memory instead of mapping fresh
# pages (~15 page faults per call at p ~ 2*10^4 with whole-range arrays,
# which made the per-call time differ from one process to the next)
_BLOCK = 1 << 12


def _check_good_reduction(entry: str, D: int, p: int) -> None:
    # D and p are checked ints and p is an odd prime, so p divides 2*D exactly when it divides D
    if D % p == 0:
        raise PreconditionError(
            f"{entry}: p must not divide D (bad reduction), got p = {_show(p)}, D = {_show(D)}"
        )


@functools.lru_cache(maxsize=8)
def _chi_table(p: int) -> np.ndarray:
    """chi[v] = quadratic character of v mod p, as int8. Read-only, cached.

    The squares of 1..(p-1)/2 are every nonzero square mod p. ap_naive
    reads the table of its p, and the sweep's Legendre prefilter the table
    of each odd prime of odd exponent in D.
    """
    import numpy as np
    chi = np.full(p, -1, dtype=np.int8)
    half = (p + 1) // 2
    for lo in range(1, half, _BLOCK):
        sq = np.arange(lo, min(lo + _BLOCK, half), dtype=np.int64)
        sq *= sq
        chi[_mod_scalar(sq, p)] = 1
    chi[0] = 0
    chi.setflags(write=False)
    return chi


def ap_naive(D: int, p: int) -> int:
    """a_p by direct character sum: a_p = -sum_x chi(x^3 + D*x).

    O(p) work; refuses p above NAIVE_CAP (10^7) rather than silently
    grinding. Odd prime p with good reduction required.
    """
    import numpy as np
    D = _nonzero_int(D, "ap_naive: D")
    p = _as_int(p, "ap_naive: p", hi=NAIVE_CAP)
    _prime_gate("ap_naive", p)
    _check_good_reduction("ap_naive", D, p)
    chi = _chi_table(p)
    dmod = D % p
    total = 0
    for lo in range(0, p, _BLOCK):
        x = np.arange(lo, min(lo + _BLOCK, p), dtype=np.int64)
        # x^3 + D*x = (x^2 + D)*x, in place: each block makes x, v and one
        # quotient per reduction by p; every intermediate stays below 2p^2 < 2^63
        v = _mod_scalar(x * x, p)
        v += dmod
        v *= x
        _mod_scalar(v, p)
        total += int(chi[v].sum(dtype=np.int64))
    a = -total
    if a % 2 or a * a >= 4 * p:
        raise AssertionError(f"ap_naive({_show(D)}, {p}) = {a} breaks parity or the Hasse bound")
    return a


def ap_binomial_residue(p: int) -> int:
    """2*alpha mod p from the central binomial coefficient, lifted to (-p/2, p/2].

    binom((p-1)/2, (p-1)/4) ≡ 2*alpha (mod p) for p ≡ 1 (mod 4), and
    |2*alpha| < p/2 makes the lift exact. Computed by an O(p) running
    product, deliberately ignorant of Gaussian integers.
    """
    p = _as_int(p, "ap_binomial_residue: p", hi=NAIVE_CAP)
    _prime_gate("ap_binomial_residue", p, split=True)
    m = (p - 1) // 4
    num = 1
    for j in range(m + 1, 2 * m + 1):
        num = num * j % p
    den = 1
    for j in range(2, m + 1):
        den = den * j % p
    c = num * pow(den, p - 2, p) % p
    if c > p // 2:
        c -= p
    if c % 8 != 2:  # 2*alpha with alpha ≡ 1 (mod 4)
        raise AssertionError(f"ap_binomial_residue({p}) = {c} is not ≡ 2 (mod 8)")
    return c


def ap_fast(D: int, p: int) -> int:
    """a_p via the quartic class of D, O(log p) after the two-squares split.

    p ≡ 3 (mod 4) is supersingular (trace 0). Otherwise p = alpha^2 + beta^2
    and the class of D^((p-1)/4) picks the trace out of ±2*alpha, ±2*beta;
    two_squares is then the primality test of p.
    """
    D = _nonzero_int(D, "ap_fast: D")
    p = _as_int(p, "ap_fast: p", 3, _U64_MAX)
    if p % 4 == 1:
        ts = _split_for("ap_fast", p, "an odd prime")
    else:
        _prime_gate("ap_fast", p)
    _check_good_reduction("ap_fast", D, p)
    return _ap_kernel(D, ts.alpha, ts.beta) if p % 4 == 1 else 0


def _ap_kernel(D: int, x: int, y: int) -> int:
    """ap_fast without its checks, on the legs of p = x^2 + y^2.

    x and y have opposite parity, p is prime and does not divide D. With
    alpha the odd leg signed ≡ 1 (mod 4), t = D^((p-1)/4) * alpha mod p is
    one of ±alpha, ±beta; both legs are below sqrt(p), so the lift of t to
    (-p/2, p/2) is exact, and a_p = 2t.
    """
    p = x * x + y * y
    alpha = x if x % 2 else y
    if alpha % 4 == 3:
        alpha = -alpha
    t = pow(D, (p - 1) // 4, p) * alpha % p
    return 2 * (t - p if t > p // 2 else t)


def _ap_kernel_array(D: int, r: int, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """_ap_kernel elementwise: a_p on int64 arrays of legs y and primes p = r^2 + y^2.

    r is one int, the first leg of every p, of parity opposite to each y;
    so alpha is ±r for odd r and ±y for even r. The caller passes p, which
    it has built. Same rule and preconditions as the scalar kernel,
    p <= 10^18; a p dividing D gets 0, as it does there, which no good
    prime ≡ 1 (mod 4) has. D is reduced mod p once by _mod_primes (one
    int64 remainder below 2^63, by limbs above), so any integer D works,
    numpy ints included, and t is one modular power
    seeded with alpha mod p, which is alpha or, where alpha < 0, alpha + p,
    for legs of either sign.
    """
    import numpy as np
    if r % 2:
        alpha = r if r % 4 == 1 else -r
        if alpha < 0:
            alpha = p + alpha
    else:
        alpha = np.where(y & 2, -y, y)  # y is odd, so y & 2 marks y ≡ 3 (mod 4)
        alpha = np.where(alpha < 0, alpha + p, alpha)
    t = _pow_mod_array(_mod_primes(D, p), p >> 2, p, alpha)  # (p - 1)/4, as p ≡ 1 (mod 4)
    return 2 * np.where(t > p >> 1, t - p, t)
