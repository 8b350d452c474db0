import random

import pytest

from cmtrace import gaussian
from cmtrace.errors import PreconditionError
from cmtrace.frobenius import ap_fast
from cmtrace.gaussian import (
    GI_ONE,
    GaussianInt,
    gi_divmod,
    gi_gcd,
    gi_powmod,
    is_primary,
    make_primary,
    primary_prime_above,
    sqrt_minus_one,
    two_squares,
)
from cmtrace.residue_symbols import quartic_class_of
from oracles import exhaustive_two_squares, trial_is_prime


def test_mul_basics():
    assert GaussianInt(1, 1) * GaussianInt(1, -1) == GaussianInt(2, 0)
    assert GaussianInt(-3, 2) * GaussianInt(-3, -2) == GaussianInt(13, 0)
    assert GaussianInt(0, 0) * GaussianInt(5, 7) == GaussianInt(0, 0)
    # norm is multiplicative
    a, b = GaussianInt(3, -4), GaussianInt(-2, 7)
    assert (a * b).norm() == a.norm() * b.norm()


def test_divmod_examples():
    q, r = gi_divmod(GaussianInt(5, 3), GaussianInt(2, 0))
    assert q * GaussianInt(2, 0) + r == GaussianInt(5, 3)
    assert r.norm() <= 2
    q, r = gi_divmod(GaussianInt(7, 0), GaussianInt(-3, 2))
    assert q * GaussianInt(-3, 2) + r == GaussianInt(7, 0)
    assert r.norm() < 13
    # exact division leaves no remainder
    q, r = gi_divmod(GaussianInt(13, 0), GaussianInt(-3, 2))
    assert r == GaussianInt(0, 0) and q == GaussianInt(-3, -2)


def test_divmod_random():
    rng = random.Random(20260816)
    for _ in range(10_000):
        a = GaussianInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        b = GaussianInt(rng.randint(-10**3, 10**3), rng.randint(-10**3, 10**3))
        if b.is_zero():
            continue
        q, r = gi_divmod(a, b)
        assert q * b + r == a
        assert r.norm() < b.norm()
        # our tie rule actually gives the stronger half-norm bound
        assert 2 * r.norm() <= b.norm()


def test_gcd_examples():
    assert gi_gcd(GaussianInt(2, 0), GaussianInt(1, 1)) == GaussianInt(1, 1)
    assert gi_gcd(GaussianInt(5, 0), GaussianInt(3, 0)) == GI_ONE
    # odd-norm gcds come back primary
    assert gi_gcd(GaussianInt(13, 0), GaussianInt(2, 3)) == GaussianInt(3, -2)


def test_gcd_divides_both():
    rng = random.Random(99)
    for _ in range(2000):
        g = GaussianInt(rng.randint(-50, 50), rng.randint(-50, 50))
        if g.is_zero():
            continue
        a = g * GaussianInt(rng.randint(-30, 30), rng.randint(-30, 30))
        b = g * GaussianInt(rng.randint(-30, 30), rng.randint(-30, 30))
        if a.is_zero() and b.is_zero():
            continue
        d = gi_gcd(a, b)
        for z in (a, b):
            if not z.is_zero():
                _, rem = gi_divmod(z, d)
                assert rem.is_zero()
        # and g divides the gcd
        _, rem = gi_divmod(d, g)
        assert rem.is_zero()


def test_make_primary_examples():
    # 2+3i rotates three times before landing on the primary associate
    k, w = make_primary(GaussianInt(2, 3))
    assert (k, w) == (3, GaussianInt(3, -2))
    k, w = make_primary(GaussianInt(1, 4))
    assert (k, w) == (0, GaussianInt(1, 4))
    k, w = make_primary(GaussianInt(3, 2))
    assert (k, w) == (0, GaussianInt(3, 2))
    assert make_primary(GaussianInt(-1, 2))[1] == GaussianInt(-1, 2)


def test_make_primary_random():
    """Exactly one associate of an odd nonunit is primary."""
    rng = random.Random(4242)
    checked = 0
    while checked < 10_000:
        z = GaussianInt(rng.randint(-500, 500), rng.randint(-500, 500))
        if not z.is_odd() or z.is_unit():
            continue
        k, w = make_primary(z)
        assert is_primary(w)
        rot = z
        hits = 0
        for j in range(4):
            if is_primary(rot):
                hits += 1
                assert j == k
            rot = GaussianInt(0, 1) * rot
        assert hits == 1
        checked += 1


def test_sqrt_minus_one():
    assert sqrt_minus_one(5) in (2, 3)
    assert sqrt_minus_one(13) in (5, 8)
    assert sqrt_minus_one(17) in (4, 13)
    for p in (5, 13, 17, 29, 101, 9973):
        z = sqrt_minus_one(p)
        assert 0 < z < p and (z * z + 1) % p == 0


def test_two_squares_examples():
    ts = two_squares(5)
    assert (ts.alpha, ts.beta) == (1, 2)
    ts = two_squares(13)
    assert (ts.alpha, ts.beta) == (-3, 2)
    ts = two_squares(17)
    assert (ts.alpha, ts.beta) == (1, 4)


def test_two_squares_vs_exhaustive():
    # every p ≡ 1 (mod 4) below 10^4 against the all-pairs search
    for p in range(5, 10_000, 4):
        if not trial_is_prime(p):
            continue
        ts = two_squares(p)
        assert (ts.alpha, ts.beta) == exhaustive_two_squares(p)
        assert ts.alpha % 4 == 1 and ts.beta % 2 == 0 and ts.beta > 0
        assert ts.alpha**2 + ts.beta**2 == p


def test_primary_prime_above():
    for p in range(5, 3000, 4):
        if not trial_is_prime(p):
            continue
        g = primary_prime_above(p)
        assert is_primary(g) and g.im > 0 and g.norm() == p


def test_powmod_matches_pow_in_fp():
    # gi_powmod over a rational prime modulus behaves like integer powmod
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice((3, 7, 11, 19, 23))
        a = rng.randint(1, p - 1)
        e = rng.randint(0, 50)
        got = gi_powmod(GaussianInt(a, 0), e, GaussianInt(p, 0))
        want = pow(a, e, p)
        assert (got.re - want) % p == 0 and got.im % p == 0


def test_broken_descent_is_not_blamed_on_p(monkeypatch):
    # a descent that splits p wrongly fails TwoSquares' own guard, under its
    # own name: only the primality gate's rejection is renamed for the caller
    monkeypatch.setattr(gaussian, "_sqrt_minus_one", lambda p: 1)
    gaussian.two_squares.cache_clear()
    try:
        for call in (lambda: two_squares(10009), lambda: ap_fast(2, 10009),
                     lambda: quartic_class_of(2, 10009), lambda: primary_prime_above(10009)):
            with pytest.raises(PreconditionError, match=r"^TwoSquares: alpha, beta must split p"):
                call()
    finally:
        gaussian.two_squares.cache_clear()
