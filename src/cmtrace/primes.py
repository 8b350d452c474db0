"""Primality and prime enumeration.

is_prime_u64 answers one-off primality questions. sieve_primes gives every
prime below a bound (at most 10^9), in order, to the sweep's polynomial
sieve and the Hardy-Littlewood Euler products; _unmarked, the one routine
that marks sieve progressions, serves sieve_primes and the sweep's legs
alike. The callers also share the exact array arithmetic below: an integer
of any size mod an array of primes, and the elementwise modular power for
moduli up to 10^18. This module is the one place that knows where vector
arithmetic stops being exact (2^50): the power runs a vector ladder below
it and one Python pow per element above.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import PreconditionError, _as_int

try:  # optional speedup, semantics identical (same witness sets)
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover - environment dependent
    _gmpy2 = None

_U64_MAX = (1 << 64) - 1
_SIEVE_MAX = 10**9  # sieve_primes' largest bound

# Deterministic Miller-Rabin witnesses: correct for every n < 3.317e24,
# which covers the full u64 range with a wide margin.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Below this bound {2, 7, 61} suffice (Jaeschke 1993); the bound itself,
# 48781 * 97561, is a strong pseudoprime to all three, so the test is strict.
_MR_SMALL_BOUND = 4_759_123_141
_MR_SMALL_BASES = (2, 7, 61)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)
_SMALL_SET = frozenset(_SMALL_PRIMES)


def _mr_composite(n: int, a: int, d: int, s: int) -> bool:
    # one strong-probable-prime round; True means "definitely composite"
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime_u64(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64 (numpy integers included)."""
    n = _as_int(n, "is_prime_u64: n")
    if n < 0 or n > _U64_MAX:
        raise PreconditionError(f"is_prime_u64 input out of range: {n}")
    if n < 2:
        return False
    if n in _SMALL_SET:
        return True
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return False
    # n > 97^2 would be needed for trial division alone; everything surviving
    # to here is > 97 and coprime to all bases, so MR is clean.
    bases = _MR_SMALL_BASES if n < _MR_SMALL_BOUND else _MR_BASES
    if _gmpy2 is not None:
        return all(_gmpy2.is_strong_prp(n, a) for a in bases)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return not any(_mr_composite(n, a, d, s) for a in bases)


def _unmarked(n: int, starts: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The j in [0, n) on no progression starts[k] + m*steps[k], one slice each."""
    keep = starts < n
    mask = np.ones(n, dtype=bool)
    for j, step in zip(starts[keep].tolist(), steps[keep].tolist()):
        mask[j::step] = False
    return np.flatnonzero(mask)


def sieve_primes(bound: int) -> np.ndarray:
    """All primes <= bound as an int64 array (empty for bound < 2).

    Index i stands for 2i + 1. Each odd prime q <= isqrt(bound) marks its odd
    multiples from q^2 on; index 0, the 1, is never marked and becomes the 2.
    """
    bound = _as_int(bound, "sieve_primes: bound")
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    if bound > _SIEVE_MAX:
        raise PreconditionError(f"sieve bound too large: {bound}")
    q = sieve_primes(isqrt(bound))[1:]
    primes = _unmarked((bound + 1) // 2, q * q // 2, q)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def _mod_primes(c: int, p: np.ndarray) -> np.ndarray:
    """c mod each p (int64, 0 < p < 2^62), exact for any integer c.

    Horner's rule over limbs of |c| as wide as the largest p leaves room
    for in int64: with p < 2^k, (p - 1) * 2^(63-k) + 2^(63-k) - 1 < 2^63.
    """
    if not p.size:
        return np.zeros_like(p)
    width = 63 - int(p.max()).bit_length()
    m = abs(int(c))
    limbs = []
    while True:
        limbs.append(m & ((1 << width) - 1))
        m >>= width
        if not m:
            break
    out = np.zeros_like(p)
    for limb in reversed(limbs):
        out <<= width
        out += limb
        out %= p
    return (p - out) % p if c < 0 else out


# the largest modulus whose residues multiply exactly in int64: (m-1)^2 < 2^63
_INT64_MOD_MAX = 3_037_000_500
# float64 holds residues below 2^50 exactly, and its quotient is off by at most 1
_MULMOD_BOUND = 1 << 50


def _mulmod(mod: np.ndarray):
    """The exact elementwise a * b % mod for residues 0 <= a, b < mod < 2^50.

    Below 3.03e9 every product fits int64. Above it, q = a*b/m in float64
    is within 1 of the true quotient (three roundings of 2^-53 each, on a
    quotient below 2^50), so a*b - q*m, taken in wrapping int64, lies in
    (-m, 2m) and is fixed by one correction up and one down. The choice is
    made once, from the largest modulus.
    """
    top = int(mod.max()) if mod.size else 0
    if top <= _INT64_MOD_MAX:
        return lambda a, b: a * b % mod
    if top >= _MULMOD_BOUND:
        raise PreconditionError(f"modulus {top} is not below 2^50")
    inv = 1.0 / mod

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        q = (a.astype(np.float64) * b * inv).astype(np.int64)
        r = a * b - q * mod
        r += np.where(r < 0, mod, 0)
        r -= np.where(r >= mod, mod, 0)
        return r

    return mul


def _pow_mod_array(base: np.ndarray, exp: np.ndarray, mod: np.ndarray, start=1) -> np.ndarray:
    """start * base**exp % mod elementwise on int64 arrays, 0 <= base, start < mod <= 10^18.

    start is one int or an array like mod. Moduli below 2^50 run one
    square-and-multiply ladder over _mulmod, seeded with start; each
    modulus at or above 2^50 takes one Python pow.
    """
    result = np.array(np.broadcast_to(start, mod.shape), dtype=np.int64)
    big = mod >= _MULMOD_BOUND
    if big.any():
        s, b, e, m = (v[big].tolist() for v in (result, base, exp, mod))
        result[big] = [x * pow(y, z, w) % w for x, y, z, w in zip(s, b, e, m)]
        small = ~big
        result[small] = _pow_mod_array(base[small], exp[small], mod[small], result[small])
        return result
    mul = _mulmod(mod)
    while True:
        result = np.where(exp & 1, mul(result, base), result)
        exp = exp >> 1
        if not exp.any():
            return result
        base = mul(base, base)
