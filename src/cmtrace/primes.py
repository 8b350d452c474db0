"""Primality and prime enumeration.

is_prime_u64 answers one-off primality questions. sieve_primes gives every
prime below a bound, in order, to the sweep's polynomial sieve and the
Hardy-Littlewood Euler products, which also share the elementwise modular
power below.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

try:  # optional speedup, semantics identical (same witness sets)
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover - environment dependent
    _gmpy2 = None

_U64_MAX = (1 << 64) - 1

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
    """Deterministic primality for 0 <= n < 2^64."""
    if not isinstance(n, int):
        raise PreconditionError(f"is_prime_u64 wants an int, got {type(n).__name__}")
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


def sieve_primes(bound: int) -> np.ndarray:
    """All primes <= bound as an int64 array (empty for bound < 2)."""
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    if bound > 10**9:
        raise PreconditionError(f"sieve bound too large: {bound}")
    mask = np.ones(bound + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(bound**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _pow_mod_array(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base**exp % mod elementwise on int64 arrays, 0 <= base < mod < 3.03e9.

    Every product of two residues stays below mod^2 < 2^63, so the
    square-and-multiply ladder is exact.
    """
    result = np.ones_like(mod)
    while True:
        result = np.where(exp & 1, result * base % mod, result)
        exp = exp >> 1
        if not exp.any():
            return result
        base = base * base % mod
