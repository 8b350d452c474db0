"""Primality and prime enumeration.

is_prime_u64 answers one-off primality questions. sieve_primes gives every
prime below a bound (at most 10^9), in order, to the sweep's polynomial
sieve and the Hardy-Littlewood Euler products; _unmarked, the one routine
that marks sieve progressions, serves sieve_primes and the sweep's legs
alike, with one slice per progression of many marks and computed index
arrays for the rest (Crandall & Pomerance, Prime Numbers, section 3.2).
The callers also share the exact array arithmetic below: an array mod one
modulus, an integer of any size mod an array of primes, and the
elementwise modular power for moduli up to 10^18. This module is the one
place that knows where vector arithmetic stops being exact (2^50): below
it the power runs a left-to-right vector ladder over fixed windows of
exponent bits, on residues kept signed until its last multiply, a block
of elements at a time (Crandall & Pomerance, section 9.3); above it, one
Python pow per element.

numpy is imported inside each function that uses it, so it loads on the
first array call: is_prime_u64, and every scalar route built on it, run
without numpy, and `import cmtrace` does not pay for it.
"""

from __future__ import annotations

from math import isqrt

from .errors import PreconditionError, _as_int, _show

_U64_MAX = (1 << 64) - 1
_SIEVE_MAX = 10**9  # sieve_primes' largest bound
# _unmarked slices a progression with this many marks or more and marks the
# rest by index, _MARK_BATCH progressions at a time; any threshold from 8 to
# 512 ran the sweep equally fast
_SPARSE_HITS = 32
_MARK_BATCH = 4096

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
    n = _as_int(n, "is_prime_u64: n", 0, _U64_MAX)
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
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return not any(_mr_composite(n, a, d, s) for a in bases)


class _NotPrime(PreconditionError):
    """_prime_gate's rejection, which the two-squares stack renames to its caller."""


def _prime_gate(entry: str, p: int, split: bool = False) -> None:
    """Reject, by entry's name, a p (an int below 2^64) that is not an odd prime, or
    with split not a prime ≡ 1 (mod 4): the one primality test of an entry's p."""
    if p < 3 or (split and p % 4 != 1) or not is_prime_u64(p):
        kind = "a prime ≡ 1 (mod 4)" if split else "an odd prime"
        raise _NotPrime(f"{entry}: p must be {kind}, got {_show(p)}")


def _unmarked(n: int, starts: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The j in [0, n) on no progression starts[k] + m*steps[k] (starts >= 0).

    A progression with at least _SPARSE_HITS marks in [0, n) takes one
    slice. The rest, the large steps of a sieve, take few marks each, so
    they are marked together through one computed index array. The
    progressions go _MARK_BATCH at a time, so no array outlives its batch
    and a batch makes fewer than _MARK_BATCH * _SPARSE_HITS marks.
    """
    import numpy as np
    mask = np.ones(n, dtype=bool)
    for lo in range(0, starts.size, _MARK_BATCH):
        start, step = starts[lo:lo + _MARK_BATCH], steps[lo:lo + _MARK_BATCH]
        hits = n - 1 - start
        hits //= step
        hits += 1
        np.maximum(hits, 0, out=hits)  # a start at or past n marks nothing
        dense = hits >= _SPARSE_HITS
        for j, q in zip(start[dense].tolist(), step[dense].tolist()):
            mask[j::q] = False
        hits[dense] = 0
        first = np.cumsum(hits)
        j = np.arange(first[-1], dtype=np.int64)
        first -= hits  # the rank of each progression's first mark
        j -= np.repeat(first, hits)
        j *= np.repeat(step, hits)
        j += np.repeat(start, hits)
        mask[j] = False
    return np.flatnonzero(mask)


def sieve_primes(bound: int) -> np.ndarray:
    """All primes <= bound as an int64 array (empty for bound < 2).

    Index i stands for 2i + 1. Each odd prime q <= isqrt(bound) marks its odd
    multiples from q^2 on; index 0, the 1, is never marked and becomes the 2.
    """
    import numpy as np
    bound = _as_int(bound, "sieve_primes: bound", hi=_SIEVE_MAX)
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    q = sieve_primes(isqrt(bound))[1:]
    primes = _unmarked((bound + 1) // 2, q * q // 2, q)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def _mod_scalar(v: np.ndarray, m: int) -> np.ndarray:
    """v % m in place on an int64 array v >= 0, for one int 0 < m < 2^63; returns v.

    numpy takes an int64 remainder as one hardware divide per element, but
    a floor division by one scalar as a multiply and shift (libdivide): on
    4096 elements the remainder took 15.9 us, the floor division 4.2 us
    and this whole reduction 7.5 us (2 vCPU). With v >= 0,
    (v // m) * m <= v, so nothing wraps, and v - (v // m) * m is Python's
    v % m.
    """
    q = v // m
    q *= m
    v -= q
    return v


def _mod_primes(c: int, p: np.ndarray) -> np.ndarray:
    """c mod each p (int64, 0 < p < 2^62), exact for any integer c.

    A c that int64 holds takes one int64 remainder, which has the sign of
    p as Python's has. A larger c runs Horner's rule over limbs of |c| as
    wide as the largest p leaves room for in int64: with p < 2^k,
    (p - 1) * 2^(63-k) + 2^(63-k) - 1 < 2^63.
    """
    import numpy as np
    if not p.size:
        return np.zeros_like(p)
    c = int(c)
    if abs(c) < 1 << 63:
        return np.remainder(c, p)
    width = 63 - int(p.max()).bit_length()
    m = abs(c)
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
# _pow_mod_array's window of exponent bits and its block of elements, timed
# on 2 vCPU. Over the kernel's inputs of twelve sweep-large cases (6.5k-9k
# legs, exponents of 31-34 bits), windows of 2, 3 and 4 bits ran within 10%
# of each other, 3 the fastest, and 5 bits was slower: a wider window saves
# multiplies per bit but builds a table of 2^w rows. Over 456,361 legs (N =
# 10^14), blocks of 2^13 to 2^16 ran within 6%, 2^12 was 14% slower; 2^14
# holds every sweep-large call in one block and its table in 1 MiB.
# _pow_block makes the table indices of _POW_CHUNK windows in one pass of 4
# numpy calls: a short power pays per call, not per element (~0.7 us a call
# at 160 elements). The int32 indices of 4 windows hold two int64 rows; 8
# windows ran 7% faster at 160 elements but took a block past the 18 rows
# that test_pow_mod_array_memory allows.
_POW_WINDOW = 3
_POW_BLOCK = 1 << 14
_POW_CHUNK = 4


def _signed_mulmod(mod: np.ndarray):
    """An elementwise mul(a, b, out) = a * b mod m in (-m, m), for -m < a, b < m < 2^50.

    mul writes its product into out and returns it; out may be a itself,
    so a chain of squarings allocates nothing on the int64 route. Below
    3.03e9 every product fits int64, and a*b % m is the residue.
    Above it, q is a*b/m computed in float64 and rounded to the nearest
    integer. a, b and m are exact in float64, and the product, 1/m and
    the quotient each round once, by a factor (1 + e) with |e| <= 2^-53.
    So the float quotient differs from the true x = a*b/m, |x| < m < 2^50,
    by less than (3*2^-53 + 2^-104) * |x| < 0.376, and the nearest integer
    q to it has |x - q| < 0.876. Then a*b - q*m = m*(x - q) lies in
    (-m, m), which wrapping int64 arithmetic gives exactly. Signed inputs
    give a signed output in (-m, m) again, so a chain of products needs
    no correction until its end. The choice is made once, from the
    largest modulus.
    """
    import numpy as np
    top = int(mod.max()) if mod.size else 0
    if top <= _INT64_MOD_MAX:
        def mul(a: np.ndarray, b, out: np.ndarray) -> np.ndarray:
            np.multiply(a, b, out)
            return np.remainder(out, mod, out)

        return mul
    if top >= _MULMOD_BOUND:
        raise PreconditionError(f"modulus {top} is not below 2^50")
    inv = 1.0 / mod

    def mul(a: np.ndarray, b, out: np.ndarray) -> np.ndarray:
        x = a.astype(np.float64)
        x *= x if b is a else np.asarray(b, dtype=np.float64)  # float * float beats float * int64
        x *= inv
        q = np.rint(x, out=x).astype(np.int64)
        q *= mod
        np.multiply(a, b, out)
        out -= q
        return out

    return mul


def _pow_block(base: np.ndarray, exp: np.ndarray, mod: np.ndarray, start) -> np.ndarray:
    # _pow_mod_array on one non-empty block whose moduli are all below 2^50:
    # one _signed_mulmod for the whole ladder and the product with start,
    # then its one correction, adding mod where that product is negative
    import numpy as np
    n = mod.size
    w = 1 << _POW_WINDOW
    mul = _signed_mulmod(mod)
    table = np.empty((w, n), dtype=np.int64)  # base**d in row d
    table[0] = 1
    table[1] = base
    for d in range(2, w):
        mul(table[d - 1], base, table[d])
    table = table.ravel()
    cols = np.arange(n, dtype=np.int32)
    top = (max(int(exp.max()).bit_length(), 1) - 1) // _POW_WINDOW * _POW_WINDOW
    shifts = np.arange(top, -1, -_POW_WINDOW)

    def entries():
        # base**d for each window's digit d, top window first, as one take on
        # the flat table at d*n + column (table[d, cols] took 4x as long). A
        # shift's low bits are exact in int32, and every index is below
        # 2^_POW_WINDOW * _POW_BLOCK = 2^17
        for lo in range(0, shifts.size, _POW_CHUNK):
            idx = np.empty((min(_POW_CHUNK, shifts.size - lo), n), dtype=np.int32)
            np.right_shift(exp, shifts[lo:lo + _POW_CHUNK, None], out=idx, casting="unsafe")
            idx &= w - 1
            idx *= n
            idx += cols
            for i in idx:
                yield table.take(i)

    it = entries()
    acc = next(it)
    for entry in it:
        for _ in range(_POW_WINDOW):
            mul(acc, acc, acc)
        mul(acc, entry, acc)
    if not (isinstance(start, int) and start == 1):
        mul(acc, start, acc)
    c = np.right_shift(acc, 63)  # -1 where acc < 0, else 0
    c &= mod
    acc += c
    return acc


def _pow_mod_array(base: np.ndarray, exp: np.ndarray, mod: np.ndarray, start=1) -> np.ndarray:
    """start * base**exp % mod elementwise on int64 arrays, 0 <= base, start < mod <= 10^18.

    start is one int or an array like mod. Moduli below 2^50 run a
    left-to-right ladder over fixed windows of _POW_WINDOW exponent bits,
    _POW_BLOCK elements at a time, on the signed products of
    _signed_mulmod; each block multiplies in start and then applies its
    own one correction to [0, mod). So its table and its temporaries stay
    a bounded number of blocks at any length. Each modulus at or above
    2^50 takes one Python pow.
    """
    import numpy as np
    if not isinstance(start, np.ndarray):
        start = int(start)
    if not mod.size:
        return np.zeros_like(mod)
    if mod.max() >= _MULMOD_BOUND:
        big = mod >= _MULMOD_BOUND
        small = ~big
        starts = np.broadcast_to(start, mod.shape)
        result = np.empty_like(mod)
        s, b, e, m = (v[big].tolist() for v in (starts, base, exp, mod))
        result[big] = [x * pow(y, z, w) % w for x, y, z, w in zip(s, b, e, m)]
        result[small] = _pow_mod_array(base[small], exp[small], mod[small], starts[small])
        return result
    result = np.empty_like(mod)
    for lo in range(0, mod.size, _POW_BLOCK):
        s = slice(lo, lo + _POW_BLOCK)
        result[s] = _pow_block(base[s], exp[s], mod[s], start if isinstance(start, int) else start[s])
    return result
