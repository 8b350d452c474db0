import random
from itertools import product
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmtrace import frobenius, primes
from cmtrace.arith import reduce_quartic_twist
from cmtrace.frobenius import (
    _BLOCK,
    _chi_table,
    _ap_kernel,
    _ap_kernel_array,
    ap_binomial_residue,
    ap_fast,
    ap_naive,
)
from cmtrace.gaussian import two_squares
from cmtrace.primes import is_prime_u64
from cmtrace.residue_symbols import FourClass, quartic_class_of
from oracles import brute_ap, trial_is_prime

PRIMES_1K = [p for p in range(3, 1000) if trial_is_prime(p)]


def test_ap_naive_examples():
    assert ap_naive(1, 5) == 2
    assert ap_naive(1, 13) == -6
    assert ap_naive(2, 13) == 4
    assert ap_naive(1, 7) == 0


def test_ap_naive_vs_point_count():
    # the definition-level character sum against literally counting points
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice([q for q in PRIMES_1K if q < 250])
        D = rng.randint(-50, 50)
        if D == 0 or D % p == 0:
            continue
        assert ap_naive(D, p) == brute_ap(D, p), (D, p)


@pytest.mark.parametrize("p", [4093, 4099, 8191, 8209, 12289])
def test_ap_naive_vs_point_count_across_blocks(p):
    # ap_naive sums _BLOCK = 4096 values of x at a time: 4093 takes one
    # block, 4099 and 8191 two, 8209 three and 12289 four, its last holding
    # one value; D small, negative and past 2^63 in either sign
    assert trial_is_prime(p)
    for D in (3, -7, 2**64 + 3, -(2**70) - 1):
        if D % p:
            assert ap_naive(D, p) == brute_ap(D, p), (D, p)


def test_chi_table_vs_euler():
    # the table is filled a block of squares at a time; primes around one
    # and two blocks of squares cover a first, a last and a partial block
    edges = [p for p in range(_BLOCK - 60, 4 * _BLOCK + 60) if trial_is_prime(p)]
    for p in [3, 5, 7, 13, 97] + edges[:4] + edges[-4:] + [
        q for q in edges if abs(q - 2 * _BLOCK) < 30
    ]:
        want = [0] + [1 if pow(v, (p - 1) // 2, p) == 1 else -1 for v in range(1, p)]
        chi = _chi_table(p)
        assert chi.dtype == np.int8 and not chi.flags.writeable
        assert chi.tolist() == want, p


def test_ap_binomial_examples():
    assert ap_binomial_residue(5) == 2
    assert ap_binomial_residue(13) == -6
    assert ap_binomial_residue(17) == 2


def test_ap_binomial_is_twice_alpha():
    for p in PRIMES_1K:
        if p % 4 == 1:
            assert ap_binomial_residue(p) == 2 * two_squares(p).alpha, p


def test_ap_fast_examples():
    assert ap_fast(1, 13) == -6
    assert ap_fast(2, 13) == 4
    assert ap_fast(-1, 5) == -2
    assert ap_fast(7, 11) == 0  # supersingular


def test_beta_sign_calibration():
    # the ±beta classes give ±2*beta with no extra sign; a failure here means
    # the class-to-trace dictionary moved and every density is suspect.
    # Reference curve D = 3, the first odd D with ±beta classes: the first
    # 50 primes landing in a ±beta class, against the point count.
    seen = 0
    p = 1
    while seen < 50:
        p += 4
        if not trial_is_prime(p) or p % 3 == 0:
            continue
        ts = two_squares(p)
        cls = quartic_class_of(3, p)
        if cls not in (FourClass.PLUS_BETA, FourClass.MINUS_BETA):
            continue
        want = 2 * ts.beta if cls is FourClass.PLUS_BETA else -2 * ts.beta
        assert ap_naive(3, p) == want, (p, cls, ts)
        assert ap_fast(3, p) == want, (p, cls, ts)
        seen += 1


def test_ap_fast_vs_naive_battery():
    battery = [1, 2, 3, 5, -1, -2, -3, -5, 6, -6, 7, -7, 10, 11, -21, 33]
    for D in battery:
        for p in PRIMES_1K:
            if (2 * D) % p == 0:
                continue
            assert ap_fast(D, p) == ap_naive(D, p), (D, p)


ODD_PRIMES_10K = [p for p in range(3, 10_001, 2) if trial_is_prime(p)]


@settings(deadline=None)
@given(p=st.sampled_from(ODD_PRIMES_10K), D=st.integers(-10**6, 10**6))
def test_ap_fast_matches_naive(p, D):
    # p of both residues mod 4: the two_squares branch and the trace-0 one
    assume(D % p != 0)
    assert ap_fast(D, p) == ap_naive(D, p)


# (odd leg, even leg) of every prime x^2 + y^2 <= 10^5, found by trial division
LEGS = [
    (x, y)
    for x in range(1, 317, 2)
    for y in range(2, 317, 2)
    if x * x + y * y <= 10**5 and trial_is_prime(x * x + y * y)
]


@settings(deadline=None)
@given(legs=st.sampled_from(LEGS), D=st.integers(-10**6, 10**6))
def test_kernel_on_legs_matches_naive(legs, D):
    # legs of opposite parity, in either order and with either sign
    x, y = legs
    p = x * x + y * y
    assume(D % p != 0)
    want = ap_naive(D, p)
    for sx, sy in product((1, -1), repeat=2):
        assert _ap_kernel(D, sx * x, sy * y) == want, (D, sx * x, sy * y)
        assert _ap_kernel(D, sy * y, sx * x) == want, (D, sy * y, sx * x)


# p ranges of the vector kernel: int64 products, the float64-quotient
# mulmod, and the scalar kernel beyond 2^50 (sweep's N stops at 10^18)
_P_REGIMES = ((5, 3_037_000_500), (3_037_000_500, 1 << 50), (1 << 50, 10**18))


@st.composite
def _legs_array(draw):
    """Legs (x, y) of primes x^2 + y^2 from some of the regimes, in any
    order and with any signs, and a D that may be a multiple of one p."""
    regimes = draw(st.lists(st.sampled_from(_P_REGIMES), min_size=1, max_size=3, unique=True))
    legs = []
    for _ in range(draw(st.integers(1, 8))):
        lo, hi = draw(st.sampled_from(regimes))
        p0 = draw(st.integers(lo, hi - 1))
        y = draw(st.integers(1, isqrt(p0 - 1) // 2)) * 2
        x = isqrt(p0 - y * y) | 1
        while not is_prime_u64(x * x + y * y):
            x += 2
        x *= draw(st.sampled_from((1, -1)))
        y *= draw(st.sampled_from((1, -1)))
        legs.append(draw(st.sampled_from(((x, y), (y, x)))))
    D = draw(st.one_of(
        st.sampled_from((1, -1, np.int64(-21), np.int64(2), 2**63, -(2**63) - 1, -(10**30))),
        st.integers(-(10**6), 10**6).filter(bool),
        st.integers(-(2**200), 2**200).filter(bool),
    ))
    if draw(st.booleans()):
        x, y = legs[0]
        D = (x * x + y * y) * draw(st.integers(-3, 3).filter(bool))  # a bad prime: trace 0
    return D, legs


def _pow_seeded_in_range(base, exp, mod, start=1):
    # the power's precondition, 0 <= start < mod, on every seed the kernel passes
    seed = np.broadcast_to(start, mod.shape)
    assert ((0 <= seed) & (seed < mod)).all()
    return primes._pow_mod_array(base, exp, mod, start)


@settings(deadline=None)
@given(args=_legs_array())
def test_kernel_array_matches_scalar(args):
    # the array kernel takes one first leg r for all its legs y: one call per
    # r; legs of either sign, each seed reduced into [0, p)
    D, legs = args
    for r in {x for x, _ in legs}:
        ys = [y for x, y in legs if x == r]
        want = [_ap_kernel(int(D), r, y) for y in ys]
        y = np.array(ys, dtype=np.int64)
        with mock.patch.object(frobenius, "_pow_mod_array", _pow_seeded_in_range):
            got = _ap_kernel_array(D, r, y, y * y + r * r)
        assert got.tolist() == want


def test_hasse_parity_supersingular():
    rng = random.Random(500)
    for _ in range(400):
        p = rng.choice(PRIMES_1K)
        D = rng.randint(-10**4, 10**4)
        if D == 0 or (2 * D) % p == 0:
            continue
        a = ap_fast(D, p)
        assert a * a <= 4 * p
        assert a % 2 == 0
        assert (a == 0) == (p % 4 == 3)


def test_twist_invariance():
    rng = random.Random(77)
    for _ in range(300):
        p = rng.choice(PRIMES_1K)
        D = rng.randint(-100, 100)
        t = rng.randint(1, 8)
        if D == 0 or (2 * D) % p == 0 or t % p == 0:
            continue
        assert ap_fast(D, p) == ap_fast(D * t**4, p)


def test_gauss_congruence_small():
    # binom((p-1)/2, (p-1)/4) ≡ a_p(E_1) (mod p) whenever 2 is where it belongs;
    # the direct statement: the binomial residue equals 2*alpha, and 2*alpha is
    # ap_fast(D, p) exactly when D's quartic class is +alpha. With D = 1 the
    # class is always +alpha.
    for p in PRIMES_1K:
        if p % 4 == 1:
            assert ap_fast(1, p) == ap_binomial_residue(p)


def test_reduce_quartic_twist():
    assert reduce_quartic_twist(32) == 2
    assert reduce_quartic_twist(-48) == -3
    assert reduce_quartic_twist(-21) == -21
    assert reduce_quartic_twist(16) == 1
    assert reduce_quartic_twist(-16) == -1


def test_reduce_quartic_twist_random():
    rng = random.Random(3)
    for _ in range(500):
        D = rng.randint(-10**6, 10**6)
        if D == 0:
            continue
        out = reduce_quartic_twist(D)
        # same sign, fourth-power-free, and the quotient is a fourth power
        assert out * D > 0
        q, rem = divmod(abs(D), abs(out))
        assert rem == 0
        root = isqrt(isqrt(q))
        assert root**4 == q
        assert reduce_quartic_twist(out) == out
