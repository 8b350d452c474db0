import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from math import gcd, isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cmtrace
from cmtrace import arith, density, gaussian, lab, primes, residue_symbols
from cmtrace.density import (
    density_formula,
    density_oracle,
    is_zero_pair,
    lt_constant,
    sigma_sums,
)
from cmtrace.errors import PreconditionError
from cmtrace.frobenius import _ap_kernel, _ap_kernel_array, ap_fast
from cmtrace.lab import (
    lt_predict,
    report_emit,
    report_from_dict,
    sweep,
)
from cmtrace.primes import (
    _INT64_MOD_MAX,
    _mod_primes,
    _mod_scalar,
    _pow_mod_array,
    _signed_mulmod,
    _unmarked,
    is_prime_u64,
    sieve_primes,
)
from oracles import brute_ap, primes_up_to, trial_is_prime


# ---------------------------------------------------------------------------
# primality front door

def test_is_prime_u64_examples():
    assert is_prime_u64(2)
    assert is_prime_u64(3)
    assert not is_prime_u64(0)
    assert not is_prime_u64(1)
    assert is_prime_u64(1_000_003)
    assert not is_prime_u64(1_000_001)  # 101 * 9901
    assert is_prime_u64(18446744073709551557)  # largest prime below 2^64
    assert not is_prime_u64((1 << 64) - 1)


def test_is_prime_u64_strong_pseudoprimes():
    # classic strong pseudoprimes to the first few bases; the fixed
    # 12-base battery must still reject them
    assert not is_prime_u64(3215031751)          # spsp to 2, 3, 5, 7
    assert not is_prime_u64(3474749660383)       # spsp to 2..13
    assert not is_prime_u64(341550071728321)     # spsp to 2..17


def test_is_prime_u64_vs_trial_division():
    for n in range(10_000):
        assert is_prime_u64(n) == trial_is_prime(n), n


def test_is_prime_u64_vs_sieve():
    # every n <= 2*10^6 runs the three-base test {2, 7, 61}
    is_p = bytearray(2 * 10**6 + 1)
    for p in primes_up_to(2 * 10**6):
        is_p[p] = 1
    assert [n for n in range(len(is_p)) if is_prime_u64(n) != is_p[n]] == []


def test_is_prime_u64_three_base_bound():
    # {2, 7, 61} decide every n < B; B = 48781 * 97561 is itself a strong
    # pseudoprime to all three, so it must get the twelve bases
    B = 4_759_123_141
    assert B == 48_781 * 97_561
    assert not is_prime_u64(B)
    assert is_prime_u64(B - 20) and is_prime_u64(B + 10)
    assert not is_prime_u64(B - 1) and not is_prime_u64(B + 1)
    for n in range(B - 300, B + 300):
        assert is_prime_u64(n) == trial_is_prime(n), n


# ---------------------------------------------------------------------------
# prime tables and array arithmetic

def test_sieve_primes_vs_oracle():
    small = primes_up_to(10**4)
    for bound in range(-2, 10**4 + 1):
        got = sieve_primes(bound)
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in small if p <= bound], bound
    assert sieve_primes(10**6).size == 78498


def test_sieve_primes_memory():
    # one byte per odd number for the sieve, and the result array is the
    # only int64 array built; at 10^6 that is 0.5 MB next to 0.63 MB
    bound = 10**6
    tracemalloc.start()
    try:
        primes_arr = sieve_primes(bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= primes_arr.nbytes + (bound + 1) // 2 + 2**16, peak


@st.composite
def _progressions(draw):
    n = draw(st.integers(0, 2000))
    k = draw(st.integers(0, 50))
    starts = draw(st.lists(st.integers(0, 2 * n), min_size=k, max_size=k))
    steps = draw(st.lists(st.integers(1, 100), min_size=k, max_size=k))
    batch = draw(st.sampled_from((1, 3, primes._MARK_BATCH)))
    return n, np.array(starts, dtype=np.int64), np.array(steps, dtype=np.int64), batch


def _arrays(*values):
    return tuple(np.array(v, dtype=np.int64) for v in values)


@settings(deadline=None, max_examples=300)
@given(args=_progressions())
@example(args=(0, *_arrays([], []), primes._MARK_BATCH))
@example(args=(10, *_arrays([10, 19], [1, 3]), primes._MARK_BATCH))  # starts >= n
@example(args=(10, *_arrays([0, 9], [1, 1]), primes._MARK_BATCH))  # everything marked
# 33 and 32 marks take a slice, 31 and 2 an index each
@example(args=(1000, *_arrays([3, 0, 0, 5], [31, 32, 33, 500]), primes._MARK_BATCH))
# both kinds in each of three batches
@example(args=(1000, *_arrays([3, 5, 0, 0, 1, 998], [31, 500, 32, 33, 7, 1]), 2))
def test_unmarked_vs_brute_force(args):
    n, starts, steps, batch = args
    marked = {j for s, q in zip(starts.tolist(), steps.tolist()) for j in range(s, n, q)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_MARK_BATCH", batch)
        got = _unmarked(n, starts, steps)
    assert got.tolist() == [j for j in range(n) if j not in marked]


@pytest.mark.parametrize("k, hits", [(10**5, 1), (2 * 10**4, primes._SPARSE_HITS - 1)])
def test_unmarked_memory(k, hits):
    # k progressions below the slice threshold mark every even j < n by
    # index; past the mask and the result, only one batch is held at a
    # time: its index array and one temporary (16 bytes a mark, fewer than
    # _SPARSE_HITS marks a progression) and 17 bytes a progression
    n = 2 * k * hits
    starts = np.arange(0, 2 * k, 2, dtype=np.int64)
    steps = np.full(k, 2 * k, dtype=np.int64)
    tracemalloc.start()
    try:
        got = _unmarked(n, starts, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == list(range(1, n, 2))
    batch = primes._MARK_BATCH * (16 * primes._SPARSE_HITS + 17)
    assert peak <= n + got.nbytes + batch + 2**16, peak


def test_mod_primes_vs_python():
    # limbs as wide as the largest p allows, for every p size the callers use
    rng = random.Random(9)
    for hi in (100, 2**31, 2**50, 10**18):
        p = np.array([rng.randrange(2, hi) for _ in range(50)] + [hi - 1], dtype=np.int64)
        for c in (0, 1, -1, 2**63, -(2**63) - 1, 10**30, -(7**90), rng.randrange(-(2**300), 2**300)):
            assert _mod_primes(c, p).tolist() == [c % int(m) for m in p.tolist()], (c, hi)


@pytest.mark.parametrize("lo", [2, 3, 101, 2**31 - 1, 10**18])
def test_mod_primes_at_the_switch(lo):
    # a c that int64 holds takes one remainder, and a larger one the limbs:
    # each c is taken at 0, beside the smallest p, past the largest, on
    # both sides of 2^63 and far past it
    p = np.array([lo, lo + 2, lo + 10**6] if lo < 10**18 else [lo], dtype=np.int64)
    lo, hi = int(p.min()), int(p.max())
    for a in (0, 1, lo - 1, lo, hi + 1, 2**63 - 1, 2**63, 10**100):
        for c in (a, -a):
            assert _mod_primes(c, p).tolist() == [c % m for m in p.tolist()], (c, lo)
    assert _mod_primes(np.int64(-7), p).tolist() == [-7 % m for m in p.tolist()]



@given(m=st.integers(1, 2**63 - 1), extra=st.lists(st.integers(0, 2**63 - 1), max_size=20))
@example(m=1, extra=[])
@example(m=2, extra=[])
@example(m=2**62, extra=[])
@example(m=2**63 - 1, extra=[])
def test_mod_scalar_vs_python(m, extra):
    # v % m in place, for values beside each multiple of m up to 2m, at 0
    # and at int64's top, and for any m that int64 holds
    vals = [0, m - 1, m, m + 1, 2 * m - 1, 2 * m, 2**63 - 1] + extra
    vals = [x for x in vals if x < 2**63]
    v = np.array(vals, dtype=np.int64)
    assert _mod_scalar(v, m) is v
    assert v.dtype == np.int64
    assert v.tolist() == [x % m for x in vals], m

@st.composite
def _short_powers(draw):
    # the lengths of the short sweeps' powers, each element's exponent of up
    # to `bits` bits, moduli below 3.03e9, above it or both, and start as one
    # int or as an array
    n = draw(st.integers(0, 512))
    bits = draw(st.integers(0, 49))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = draw(st.sampled_from(((2, _INT64_MOD_MAX), (_INT64_MOD_MAX + 1, 1 << 50), (2, 1 << 50))))
    mod = rng.integers(lo, hi, n)
    if n and draw(st.booleans()):
        mod[rng.integers(n)] = draw(st.sampled_from((_INT64_MOD_MAX, _INT64_MOD_MAX + 1)))
    base = rng.integers(0, mod) if n else mod.copy()
    exp = rng.integers(0, 1 << bits, n) if bits else np.zeros(n, dtype=np.int64)
    if n:
        exp[rng.integers(n)] = (1 << bits) - 1
    if draw(st.booleans()):
        start = draw(st.integers(0, int(mod.min()) - 1 if n else 10))
    else:
        start = rng.integers(0, mod) if n else mod.copy()
    return base, exp, mod, start


@settings(deadline=None, max_examples=200)
@given(args=_short_powers())
def test_pow_mod_array_short_vs_python(args):
    base, exp, mod, start = args
    starts = start.tolist() if isinstance(start, np.ndarray) else [start] * mod.size
    got = _pow_mod_array(base, exp, mod, start)
    assert got.dtype == np.int64 and got.shape == mod.shape
    want = [s * pow(b, e, m) % m for b, e, m, s in zip(base.tolist(), exp.tolist(), mod.tolist(), starts)]
    assert got.tolist() == want


@pytest.mark.parametrize("top", [3_037_000_500, 3_037_000_501, (1 << 50) - 1])
def test_mulmod_vs_python(top):
    # products ≡ ±1 (mod m) sit next to a multiple of m, where the float64
    # quotient is most often one off in either direction
    rng = random.Random(top)
    cases = []
    for i in range(3000):
        # top itself is one modulus: the largest modulus picks the product's route
        m = rng.randrange(top // 2, top + 1) if i else top
        x = rng.randrange(1, m)
        inv = pow(x, -1, m) if gcd(x, m) == 1 else 1
        cases.append((x, rng.choice((inv, m - inv, rng.randrange(m), m - 1)), m))
    a, b, mod = (np.array(v, dtype=np.int64) for v in zip(*cases))
    assert mod.max() == top
    got = _pow_mod_array(a, np.ones_like(mod), mod, start=b)
    assert got.tolist() == [x * y % m for x, y, m in cases]


def _near_half(a, m, d):
    # a, b, m with a*b ≡ (m + d)/2 (mod m), m odd: a*b/m is d/(2m) off a
    # half-integer, so rounding the float quotient could go either way
    return a, (m + d) // 2 * pow(a, -1, m) % m, m


@settings(deadline=None, max_examples=500)
@given(case=st.integers(_INT64_MOD_MAX + 1, (1 << 50) - 1).flatmap(
    lambda m: st.tuples(st.integers(0, m - 1), st.integers(0, m - 1), st.just(m))))
@example(case=((1 << 50) - 2, (1 << 50) - 2, (1 << 50) - 1))  # a = b = m - 1
@example(case=_near_half((1 << 50) - 3, (1 << 50) - 1, 1))
@example(case=_near_half((1 << 50) - 3, (1 << 50) - 1, -1))
@example(case=_near_half(3**31, (1 << 50) - 3, 1))
@example(case=_near_half(3**31, (1 << 50) - 3, -1))
@example(case=_near_half(_INT64_MOD_MAX, _INT64_MOD_MAX + 1, 1))
@example(case=_near_half(_INT64_MOD_MAX, _INT64_MOD_MAX + 1, -1))
# a*b ≡ 2 and 1 (mod m), with the float quotient just under the integer a*b // m
@example(case=(2_249_838_195, 76_827_199, _INT64_MOD_MAX + 1))
@example(case=(684_565_693_906_371, 772_619_116_965_711, 10**15 + 37))
def test_mulmod_float_quotient(case):
    # the float64 path, with the quotient rounded to nearest and one correction:
    # start * base**1 is the power block's last product
    a, b, m = case
    got = _pow_mod_array(*_arrays([a], [1], [m]), start=b)
    assert got.tolist() == [a * b % m]


def test_mulmod_rejects_modulus_from_2_50():
    # float64 no longer holds every residue exactly there
    with pytest.raises(PreconditionError):
        _signed_mulmod(np.array([5, 1 << 50], dtype=np.int64))


@pytest.mark.parametrize("top", [3_037_000_500, 3_037_000_501, (1 << 50) - 1, 10**18])
def test_pow_mod_array_vs_python(top):
    # the largest modulus below 2^50 picks the multiply: int64 products up
    # to 3_037_000_500, the float64 quotient above it; every call also
    # holds moduli from 2^50 to 10^18, which take Python's pow
    rng = random.Random(top)
    mod = [top - k for k in range(40)] + [rng.randrange(3, top) for _ in range(40)]
    mod += [1 << 50, 10**18] + [rng.randrange(1 << 50, 10**18) for _ in range(8)]
    base = [m - 1 - k % 3 for k, m in enumerate(mod)]
    base[40:] = [rng.randrange(m) for m in mod[40:]]
    exp = [rng.randrange(1 << 51) for _ in mod]
    start = [rng.randrange(m) for m in mod]
    arrays = [np.array(v, dtype=np.int64) for v in (base, exp, mod)]
    got = _pow_mod_array(*arrays)
    assert got.tolist() == [pow(b, e, m) for b, e, m in zip(base, exp, mod)]
    got = _pow_mod_array(*arrays, np.array(start, dtype=np.int64))
    assert got.tolist() == [s * pow(b, e, m) % m for s, b, e, m in zip(start, base, exp, mod)]


# the moduli of each multiply: int64 products, the float64 quotient, Python's pow
_MOD_RANGES = ((1, _INT64_MOD_MAX), (_INT64_MOD_MAX + 1, (1 << 50) - 1), (1 << 50, 10**18))


@st.composite
def _powers(draw):
    # every array holds exponents 0, 1, 2^k - 1 and 2^k beside random ones
    # of any bit length, and a modulus from each range; the order is drawn,
    # so short and long exponents and all three kinds of modulus meet in
    # one block, and a block of 1 or 3 elements puts them in separate ones
    k = draw(st.integers(1, 61))
    exps = [0, 1, (1 << k) - 1, 1 << k]
    exps += draw(st.lists(st.integers(0, (1 << 62) - 1), max_size=30))
    kind = st.sampled_from(_MOD_RANGES).flatmap(lambda r: st.integers(*r))
    mods = [draw(st.integers(*r)) for r in _MOD_RANGES] + [draw(kind) for _ in exps[3:]]
    mods = draw(st.permutations(mods))
    exps = draw(st.permutations(exps))
    bases = [draw(st.integers(0, m - 1)) for m in mods]
    if draw(st.booleans()):
        start = draw(st.integers(0, min(mods) - 1))
        starts = [start] * len(mods)
    else:
        starts = [draw(st.integers(0, m - 1)) for m in mods]
        start = np.array(starts, dtype=np.int64)
    block = draw(st.sampled_from((1, 3, primes._POW_BLOCK)))
    return bases, exps, mods, starts, start, block


@settings(deadline=None, max_examples=300)
@given(args=_powers())
def test_pow_mod_array_windows_vs_python(args):
    # the windowed ladder over blocks against Python's pow, element by element
    bases, exps, mods, starts, start, block = args
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "_POW_BLOCK", block)
        got = _pow_mod_array(*_arrays(bases, exps, mods), start)
    assert got.tolist() == [s * pow(b, e, m) % m for b, e, m, s in zip(bases, exps, mods, starts)]


def test_pow_mod_array_memory():
    # 2^18 float-quotient elements: past the output, one block is held at a
    # time, its table of 2^_POW_WINDOW rows and at most 10 other arrays of
    # its size (the int32 column index, the int32 table indices of
    # _POW_CHUNK windows, 1/m, the accumulator, a table entry, and a
    # product's two float factors and quotient; the product itself is
    # written in place)
    rng = np.random.default_rng(18)
    n = 1 << 18
    mod = rng.integers(_INT64_MOD_MAX + 1, 1 << 50, n)
    base = rng.integers(0, _INT64_MOD_MAX, n)
    exp = (mod - 1) >> 2
    tracemalloc.start()
    try:
        got = _pow_mod_array(base, exp, mod, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check = slice(0, n, 997)
    assert got[check].tolist() == [
        b * pow(b, e, m) % m for b, e, m in zip(*(v[check].tolist() for v in (base, exp, mod)))
    ]
    block = ((1 << primes._POW_WINDOW) + 10) * primes._POW_BLOCK * 8
    assert peak <= got.nbytes + block + 2**16, peak


def test_no_table_at_import():
    # the sieve base, the legs and the Euler products are built by the first call, not by import
    code = (
        "import cmtrace\n"
        "from cmtrace import hardy_littlewood, lab\n"
        "assert lab._sieve_base.cache_info().currsize == 0\n"
        "assert lab._prime_legs.cache_info().currsize == 0\n"
        "assert hardy_littlewood._hl_delta.cache_info().currsize == 0\n"
    )
    src = str(Path(cmtrace.__file__).resolve().parent.parent)
    subprocess.run(
        [sys.executable, "-c", code], timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_tiny_all_plus():
    rep = sweep(1, 1, 100)
    # p = 1 + y^2 <= 100: 5, 17, 37; all have trace +2 on y^2 = x^3 + x
    assert rep.n_primes == 3
    assert (rep.n_plus, rep.n_minus, rep.n_other) == (3, 0, 0)
    assert rep.empirical_plus == 1.0 and rep.empirical_minus == 0.0
    assert rep.predicted.d_plus == 1 and rep.predicted.d_minus == 0
    assert rep.pi_lt == 3


def test_sweep_fixed_even_leg():
    rep = sweep(2, 2, 200)
    # p = 4 + y^2 <= 200: 5, 13, 29, 53, 173; beta = 2 for each, and the
    # doubling curve sends them all to +4
    assert rep.n_primes == 5
    assert (rep.n_plus, rep.n_minus, rep.n_other) == (5, 0, 0)


def test_sweep_all_minus():
    rep = sweep(1, 3, 1_000_000)
    assert rep.n_primes > 50
    assert rep.n_plus == 0
    assert rep.n_minus == rep.n_primes
    assert rep.empirical_minus == 1.0


def test_sweep_tallies_consistent():
    rep = sweep(-21, 1, 50_000)
    assert rep.n_plus + rep.n_minus + rep.n_other == rep.n_primes
    assert rep.n_other > 0  # other trace values certainly occur
    assert abs(rep.empirical_plus - rep.n_plus / rep.n_primes) < 1e-6
    assert abs(rep.empirical_minus - rep.n_minus / rep.n_primes) < 1e-6
    assert rep.pi_lt == rep.n_plus


def test_sweep_matches_brute_force_classification():
    D, r, N = 3, 1, 10_000
    n_primes = n_plus = n_minus = 0
    for y in range(2, 100, 2):
        p = 1 + y * y
        if p > N:
            break
        if not trial_is_prime(p) or (2 * abs(D)) % p == 0:
            continue
        a = brute_ap(D, p)
        n_primes += 1
        n_plus += a == 2 * r
        n_minus += a == -2 * r
    rep = sweep(D, r, N)
    assert (rep.n_primes, rep.n_plus, rep.n_minus) == (n_primes, n_plus, n_minus)


def test_sweep_excludes_bad_reduction():
    # r = 2: p = 4 + 1 = 5 divides 2D for D = 5, so it must be skipped
    rep5 = sweep(5, 2, 200)
    rep3 = sweep(3, 2, 200)
    assert rep5.n_primes == rep3.n_primes - 1


# ---------------------------------------------------------------------------
# the sieve against the per-candidate scan it replaced

def scalar_scan(D, r, N):
    """Tallies of sweep(D, r, N) with a full primality test on every candidate."""
    r2 = r * r
    n_primes = n_plus = n_minus = n_other = 0
    for y in range(2 if r % 2 else 1, isqrt(N - r2) + 1, 2):
        p = r2 + y * y
        if not is_prime_u64(p) or (2 * D) % p == 0:
            continue
        a = _ap_kernel(D, r, y)
        n_primes += 1
        if a == 2 * r:
            n_plus += 1
        elif a == -2 * r:
            n_minus += 1
        else:
            n_other += 1
    return n_primes, n_plus, n_minus, n_other


def _tally(rep):
    return rep.n_primes, rep.n_plus, rep.n_minus, rep.n_other


# r with prime factors ≡ 1 (mod 4) (5, 13, 17), ≡ 3 (mod 4) (3, 7, 11) and both
_MIXED_R = (1, 2, 3, 5, 6, 7, 10, 13, 15, 21, 33, 35, 39, 65, 105, 143, 195, 200)


@st.composite
def _sweep_args(draw):
    r = draw(st.one_of(st.sampled_from(_MIXED_R), st.integers(1, 200)))
    r *= draw(st.sampled_from((1, -1)))
    lo = r * r + 1
    # small N puts p next to the sieving primes <= isqrt(N)
    N = draw(st.one_of(
        st.integers(lo, lo + 3000), st.integers(lo, 10**6), st.integers(10**6, 10**7)
    ))
    y = draw(st.integers(1, isqrt(N - r * r)))
    p = r * r + y * y
    if draw(st.booleans()) and p % 2 and p <= 10**6:
        # a multiple of some candidate p, so primes dividing 2D get excluded
        D = p * draw(st.integers(1, 10**6 // p)) * draw(st.sampled_from((1, -1)))
    else:
        D = draw(st.integers(-(10**6), 10**6).filter(bool))
    return D, r, N


@settings(deadline=None, max_examples=100)
@given(args=_sweep_args())
@example(args=(1, 1, 5))      # p = 5 is the only candidate
@example(args=(1, 1, 289))    # N = 17^2: p = 5, 17 are sieving primes
@example(args=(1, 1, 1369))   # N = 37^2: p = 5, 17, 37 are sieving primes
@example(args=(5, 1, 1370))   # p = 5 is a sieving prime and divides 2D
@example(args=(-34, 1, 5000))  # p = 17 divides 2D
@example(args=(3, 195, 10**7))  # 195 = 3 * 5 * 13
@example(args=(7, 15, 4 * 10**9))  # p crosses 3.03e9, where the kernel's mulmod changes
@example(args=(-21, 2, 841))   # r even: p = 5, 13, 29 are sieving primes on their own legs
@example(args=(-21, 6, 10**4))  # 3 | r with 3 ≡ 3 (mod 4): its only root is y ≡ 0
@example(args=(-21, 15, 10**5))  # 3 and 5 | r: q ≡ 3 and q ≡ 1 (mod 4) both divide r
def test_sweep_matches_scalar_scan(args):
    assert _tally(sweep(*args)) == scalar_scan(*args)


@st.composite
def _two_sweeps_args(draw):
    D1, r, N = draw(_sweep_args())
    return D1, draw(st.integers(-(10**6), 10**6).filter(bool)), r, N


@settings(deadline=None, max_examples=60)
@given(args=_two_sweeps_args())
@example(args=(5, -21, 1, 10**6))   # p = 5 divides 2*D1 only
@example(args=(-21, 7, 6, 10**4))   # 3 | r: its one root y ≡ 0 serves r and -r
def test_warm_legs_match_scalar_scan(args):
    # the second sweep reads the legs of (|r|, N) that the first cached, under
    # -r and another D; the second pass reads both warm
    D1, D2, r, N = args
    want = scalar_scan(D1, r, N), scalar_scan(D2, -r, N)
    lab._prime_legs.cache_clear()
    for _ in range(2):
        assert (_tally(sweep(D1, r, N)), _tally(sweep(D2, -r, N))) == want


def test_legs_keyed_on_N():
    # 100 and 110 share isqrt 10 and so the sieving primes, but only
    # 110 - 1 = 109 reaches the leg y = 10 of the prime 101
    for N in (100, 110, 100):
        assert _tally(sweep(-21, 1, N)) == scalar_scan(-21, 1, N)


def test_cached_legs_are_read_only():
    legs = lab._prime_legs(1, 10**6)
    with pytest.raises(ValueError):
        legs[0] = 4
    assert _tally(sweep(-21, 1, 10**6)) == scalar_scan(-21, 1, 10**6)


def test_legs_cache_is_bounded():
    maxsize = lab._prime_legs.cache_info().maxsize
    for r in range(1, maxsize + 6):
        sweep(-21, r, 10**5)
    assert lab._prime_legs.cache_info().currsize <= maxsize


@pytest.mark.parametrize("D, r", [(-21, 1), (-21, 2), (7, 15), (13, 65), (-6, 21)])
def test_sweep_matches_scalar_scan_at_1e9(D, r):
    assert _tally(sweep(D, r, 10**9)) == scalar_scan(D, r, 10**9)


# D far outside int64, reduced mod each p by limbs, and N too large for the
# scalar scan in a test; every tally is the scalar scan's, computed once
@pytest.mark.parametrize("D, r, N, tally", [
    (10**30, 1, 10**6, (110, 51, 59, 0)),
    (-(3**41), 1, 10**6, (111, 41, 0, 70)),
    (2**70, 1, 10**6, (111, 59, 52, 0)),
    (-21, 1, 10**11, (18821, 4935, 4912, 8974)),
    (-21, 1, 10**12, (54109, 14230, 14098, 25781)),
    (-21, 1, 10**14, (456361, 119864, 119325, 217172)),
    # recorded with every leg powered: 5 | D through a fourth power drops
    # p = 5 at r = 1, and 1000003 is past the Legendre tables' bound
    (-21 * 5**4, 1, 10**9, (2376, 627, 642, 1107)),
    (-21 * 5**4, 2, 10**9, (2321, 565, 537, 1219)),
    (1000003, 1, 10**9, (2377, 642, 605, 1130)),
    (-2 * 1000003, 2, 10**9, (2322, 589, 557, 1176)),
    (-3, 6, 10**7, (200, 0, 0, 200)),  # no leg can carry ±12: none is powered
    (-50, 1, 10**7, (314, 75, 87, 152)),  # p = 5 divides D and is counted apart
])
def test_sweep_pinned_tallies(D, r, N, tally):
    assert _tally(sweep(D, r, N)) == tally


@pytest.mark.parametrize("D, r", [(-3, 6), (-3, -6), (1, 2), (-21 * 5**4, 42)])
def test_scan_powers_no_leg_when_none_can_count(D, r, monkeypatch):
    # every prime of D's reduced part divides r, so (D/p) = 1 on every leg and
    # even r wants -1; no leg divides D, so every one counts as other
    def no_power(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(lab, "_ap_kernel_array", no_power)
    n = lab._prime_legs(abs(r), 10**7).size
    assert lab._scan(D, r, 10**7, arith.split_d(D, r)) == (n, 0, 0, n)


# ---------------------------------------------------------------------------
# the Legendre prefilter against the kernel on every leg

# powers of primes past lab._SYMBOL_PRIME_MAX: of odd exponent in D they send
# _scan down its route that powers every leg; factorize takes the square of
# the one below its trial bound of 10^6
_BIG_POWERS = (100003, 100003**2, 1000003, 2**31 - 1)


@st.composite
def _prefilter_D(draw):
    # a sign, a power of 2, and small primes (three ≡ 1 (mod 4), so legs of
    # small r) to the fifth power, so D may hold fourth powers that divide a leg
    D = draw(st.sampled_from((1, -1))) * 2 ** draw(st.integers(0, 5))
    for q in draw(st.lists(st.sampled_from((3, 5, 7, 11, 13, 17, 29, 99991)), max_size=4)):
        D *= q ** draw(st.integers(1, 5))
    if draw(st.booleans()):
        D *= draw(st.sampled_from(_BIG_POWERS))
    return D


def kernel_counts(D, r, N):
    """_scan's tallies from the kernel on every leg of (|r|, N)."""
    y = lab._prime_legs(abs(r), N)
    a = _ap_kernel_array(D, r, y, y * y + r * r)
    n = int(np.count_nonzero(a))
    n_plus, n_minus = int(np.count_nonzero(a == 2 * r)), int(np.count_nonzero(a == -2 * r))
    return n, n_plus, n_minus, n - n_plus - n_minus


@settings(deadline=None, max_examples=150)
@given(D=_prefilter_D(), r=st.integers(-40, 40).filter(bool), N=st.integers(2, 3 * 10**6))
@example(D=-21 * 5**4, r=1, N=10**5)  # p = 5 divides D through a fourth power
@example(D=-21 * 5**4, r=2, N=10**5)
@example(D=-21 * 13**2, r=2, N=10**5)  # p = 13 divides D through a square
@example(D=8 * 1000003, r=1, N=10**5)  # 2 of odd exponent, a prime past the tables
@example(D=-(100003**2) * 3, r=-3, N=10**5)  # a square of such a prime keeps the tables
@example(D=5 * 99991, r=2, N=10**5)  # the largest prime with a table
# a prime past the tables in d, which divides r, is not read: the tables still filter
@example(D=-5 * 1000003, r=1000003, N=1000003**2 + 10**6)
@example(D=-5 * 1000003, r=2 * 1000003, N=4 * 1000003**2 + 10**6)
def test_scan_matches_kernel_on_every_leg(D, r, N):
    N = max(N, r * r + 1)
    assert lab._scan(D, r, N, arith.split_d(D, r)) == kernel_counts(D, r, N)


@settings(deadline=None, max_examples=60)
@given(D=_prefilter_D())
def test_legendre_legs_vs_scalar(D):
    # given every odd-exponent prime of D, the product is D's full (D/p) on
    # any prime p ≡ 1 (mod 4), not only on the legs of one r
    p = sieve_primes(20_000)
    p = p[p % 4 == 1]
    fac = arith.factorize(D)
    odd = tuple(q for q, e in fac.items() if e % 2 and q != 2)
    chi = lab._legendre_legs(odd, fac.get(2, 0) % 2 == 1, p)
    if odd and max(odd) > lab._SYMBOL_PRIME_MAX:
        assert chi is None
        return
    # (D/p) wherever p does not divide D, and 0 at the primes of odd exponent
    want = [residue_symbols.legendre(D, q) for q in p.tolist()]
    got = [c if D % q or q in odd else 0 for c, q in zip(chi.tolist(), p.tolist())]
    assert got == want


# ---------------------------------------------------------------------------
# the count prediction

def test_lt_predict_value():
    v = lt_predict(1, 1, 100_000_000)
    assert 740 < v < 750  # ~745 x^2+1 style primes with trace +2 up to 1e8


def test_lt_predict_identity():
    from math import log, sqrt

    v = lt_predict(5, 1, 10**6, prime_bound=10_000)
    c = lt_constant(5, 1, 10_000)
    assert v == c * sqrt(10**6) / log(10**6)


# ---------------------------------------------------------------------------
# report plumbing

def test_report_json_round_trip(tmp_path):
    rep = sweep(-21, 2, 200_000)
    out = tmp_path / "report.json"
    text = report_emit(rep, "json", str(out))
    assert out.read_text(encoding="utf-8") == text
    back = report_from_dict(json.loads(text))
    assert back == rep


def test_report_csv_header():
    rep = sweep(2, 2, 200)
    text = report_emit(rep, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == (
        "D,r,N,n_primes,n_plus,n_minus,n_other,empirical_plus,empirical_minus,"
        "predicted_plus,predicted_minus,pi_lt,lt_predicted,elapsed_seconds"
    )
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "2" and row[3] == "5"  # D and n_primes


def test_report_fields_are_rounded():
    rep = sweep(-21, 1, 300_000)
    for v in (rep.empirical_plus, rep.empirical_minus, rep.lt_predicted):
        assert v == float(f"{v:.6g}")


# ---------------------------------------------------------------------------
# each prime is validated once

def _log_prime_tests(monkeypatch, driver):
    """Wrap is_prime_u64 in every cmtrace module that binds it.

    Returns the call log: one (n, nested) pair per call, nested True when the
    call ran beneath the driver's trace step (whatever the driver binds from
    cmtrace.frobenius).
    """
    log = []
    depth = [0]
    orig = primes.is_prime_u64

    def counted(n):
        log.append((n, depth[0] > 0))
        return orig(n)

    for name, mod in list(sys.modules.items()):
        if name == "cmtrace" or name.startswith("cmtrace."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)

    def step(fn):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    for attr, val in list(vars(driver).items()):
        if callable(val) and getattr(val, "__module__", None) == "cmtrace.frobenius":
            monkeypatch.setattr(driver, attr, step(val))
    return log


def test_sweep_makes_no_primality_test(monkeypatch):
    # the sieve decides every candidate, the sieving primes p = r^2 + y^2
    # <= isqrt(N) = 1000 among them
    log = _log_prime_tests(monkeypatch, lab)
    for r in (1, 2):
        assert sweep(-21, r, 10**6).n_primes > 0
    assert log == []


def test_oracle_trace_step_skips_primality(monkeypatch):
    log = _log_prime_tests(monkeypatch, density)
    pair, counts = density_oracle(-21, 1)
    assert counts.total == 42
    assert log and not any(nested for _, nested in log)


# ---------------------------------------------------------------------------
# call counts: the drivers read the two-squares split off the legs they
# hold, and each density request factors D once

def _log_calls(monkeypatch, fn):
    """Wrap fn in every cmtrace module that binds it; log each first argument."""
    log = []

    def counted(n, *args):
        log.append(n)
        return fn(n, *args)

    for name, mod in list(sys.modules.items()):
        if name == "cmtrace" or name.startswith("cmtrace."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return log


@pytest.mark.parametrize("r", [1, 2])
def test_drivers_never_split(monkeypatch, r):
    log = _log_calls(monkeypatch, gaussian.two_squares)
    value_log = _log_calls(monkeypatch, residue_symbols.quartic_value_of)
    assert sweep(-21, r, 10**6).n_primes > 0
    assert density_oracle(-21, r)[1].total > 0
    assert sigma_sums(-21, r).sigma > 0
    assert log == [] and value_log == []
    ap_fast(-21, 13)  # the public route still splits, and the log sees it
    assert log == [13]


@pytest.mark.parametrize("D, r", [(-21, 1), (-46, 10), (10**18 + 3, 1), (2 * (10**12 + 39), 2)])
def test_density_factors_D_once(monkeypatch, D, r):
    # split_d strips fourth powers from the one factorization it splits
    log = _log_calls(monkeypatch, arith._factorize)
    density_formula(D, r)
    assert len(log) == 1
    is_zero_pair(D, r)
    assert len(log) == 2


def test_sweep_factors_D_once(monkeypatch):
    # the Lang-Trotter prediction reuses the sweep's density pair
    log = _log_calls(monkeypatch, arith._factorize)
    sweep(-21, 2, 10**5)
    assert len(log) == 1


def test_each_trace_route_tests_p_once(monkeypatch):
    # ap_fast leaves p ≡ 1 (mod 4) to two_squares' gate, and
    # reciprocity_check leaves its arguments to quartic_symbol's checks
    p1, p3 = 10**6 + 33, 10**6 + 3
    assert (p1 % 4, p3 % 4) == (1, 3)
    gaussian.two_squares.cache_clear()
    lam, pi = gaussian.primary_prime_above(13), gaussian.primary_prime_above(17)
    log = _log_calls(monkeypatch, primes.is_prime_u64)
    ap_fast(-21, p1)
    assert log == [p1]
    ap_fast(-21, p1)
    assert log == [p1]
    ap_fast(-21, p3)
    assert log == [p1, p3]
    del log[:]
    assert residue_symbols.reciprocity_check(lam, pi)
    assert sorted(log) == [13, 17]


# ---------------------------------------------------------------------------
# direct calls of the routes that take D, or a prime p alone or after D = 3

_D_ARGS = {"ap_naive": (13,), "ap_fast": (13,), "density_formula": (1,), "density_oracle": (1,),
           "is_zero_pair": (1,), "sweep": (1, 10**4)}
_P_ROUTES = {e: getattr(cmtrace, e) for e in ("is_prime_u64", "sqrt_minus_one", "two_squares",
             "primary_prime_above", "two_quartic_class", "ap_binomial_residue")} | {
    e: lambda p, f=getattr(cmtrace, e): f(3, p) for e in ("ap_naive", "ap_fast", "legendre", "quartic_class_of")}


@pytest.mark.parametrize("D", [2.5, "2"])
@pytest.mark.parametrize("route", list(_D_ARGS))
def test_non_integer_D_rejected(route, D):
    with pytest.raises(PreconditionError, match=rf"^{route}: D must be an integer, got "):
        getattr(cmtrace, route)(D, *_D_ARGS[route])


@pytest.mark.parametrize("p", [2**64 + 13, 10**5000 + 1], ids=["2^64+13", "5001 digits"])
@pytest.mark.parametrize("route", sorted(set(_P_ROUTES) - {"is_prime_u64", "ap_naive", "ap_binomial_residue"}))
def test_p_past_u64_rejected_by_its_entry(route, p):
    with pytest.raises(PreconditionError, match=rf"^{route}: p must be at most {2**64 - 1}, got "):
        _P_ROUTES[route](p)


@pytest.mark.parametrize("p", [np.int64(13), np.uint64(13), 13.0, "13"], ids=repr)
@pytest.mark.parametrize("route", list(_P_ROUTES))
def test_prime_argument_types(route, p):
    # a numpy integer p gives the int result; anything else is rejected
    if isinstance(p, np.integer):
        assert repr(_P_ROUTES[route](p)) == repr(_P_ROUTES[route](13))
    else:
        with pytest.raises(PreconditionError, match=rf"^{route}: [np] must be an integer, got "):
            _P_ROUTES[route](p)


def test_cm_threads_is_one():
    assert cmtrace.cm_threads() == 1
