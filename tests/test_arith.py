import dataclasses
import random
from math import gcd

import pytest

from cmtrace.arith import (
    euler_phi,
    factorize,
    progression_set,
    rad_odd,
    reduce_quartic_twist,
    rho,
    shape_of,
    split_d,
    tau,
    v2,
)
from cmtrace.density import _class_walk
from cmtrace.errors import PreconditionError
from oracles import trial_is_prime


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-17) == {17: 1}
    assert factorize(1) == {}
    # one prime above the trial bound is fine; two are refused (see test_contracts)
    assert factorize(10**18 + 3) == {10**18 + 3: 1}


def test_tau_examples():
    assert tau(5) == 3
    assert tau(21) == 21
    assert tau(25) == 15
    assert tau(2) == 2
    assert tau(8) == 8
    assert tau(1) == 1
    assert tau(-1) == 1
    assert tau(13) == 11
    assert tau(169) == 13 * 11


def test_tau_multiplicative():
    rng = random.Random(616)
    for _ in range(500):
        a = rng.randint(1, 3000)
        b = rng.randint(1, 3000)
        if gcd(a, b) != 1:
            continue
        assert tau(a * b) == tau(a) * tau(b)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(-12) == 4
    assert euler_phi(97) == 96
    # brute force agreement
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_rad_odd():
    assert rad_odd(72) == 3
    assert rad_odd(-21) == 21
    assert rad_odd(16) == 1
    assert rad_odd(1) == 1


def test_v2():
    assert v2(40) == 3
    assert v2(-12) == 2
    assert v2(7) == 0
    with pytest.raises(PreconditionError):
        v2(0)


def test_shape_of_examples():
    s = shape_of(-21)
    assert s.sign == -1 and s.sigma == 0
    assert s.p_list == (3, 7) and s.q_list == () and s.l_list == ()
    assert s.r_counts[3] == 1 and s.r_counts[7] == 1 and s.r_counts[1] == 0
    assert (s.r, s.s, s.t) == (2, 0, 0)

    s = shape_of(72)  # 8 * 9
    assert s.sigma == 3 and s.q_list == (3,) and s.s == 1 and s.r == 0

    s = shape_of(250)  # 2 * 125
    assert s.sigma == 1 and s.l_list == (5,) and s.t == 1
    assert s.t_counts[5] == 1


def test_shape_vs_sums():
    # both shapes of split_d over criterion 06's grid: the bins against the
    # primes of each part by exponent, and the five counts derived from them
    # against their own sums, dict key order included
    cases = 0
    for D in range(-50, 51):
        if D == 0 or reduce_quartic_twist(D) != D:
            continue
        fac, sign_D = factorize(D), 1 if D > 0 else -1
        for r in range(1, 11):
            sp = split_d(D, r)
            fac_d = {l: e for l, e in fac.items() if l != 2 and r % l == 0}
            fac_dbar = {l: e for l, e in fac.items() if l not in fac_d}
            for sh, sign, part in ((sp.shape_d, 1, fac_d), (sp.shape_dbar, sign_D, fac_dbar)):
                bins = tuple(
                    tuple(l for l, e in part.items() if l != 2 and e == k) for k in (1, 2, 3)
                )
                assert (sh.sign, sh.sigma) == (sign, part.get(2, 0)), (D, r)
                assert (sh.p_list, sh.q_list, sh.l_list) == bins, (D, r)
                assert (sh.r, sh.s, sh.t) == tuple(map(len, bins)), (D, r)
                for counts, primes in ((sh.r_counts, bins[0]), (sh.t_counts, bins[2])):
                    want = [(i, sum(1 for l in primes if l % 8 == i)) for i in (1, 3, 5, 7)]
                    assert list(counts.items()) == want, (D, r)
                cases += 1
    assert cases > 1000


_QUARTIC_FREE = [D for D in range(-2000, 2001) if D and reduce_quartic_twist(D) == D]
_RS = [r for r in range(-30, 31) if r]


def test_shapes_and_splits_hash_by_value():
    # every split of the grid hashes and is a dict key of its own; the split
    # of 16*D, built from another factorization, is equal to D's, hashes
    # equal and finds it, for every D at an r that cycles through the grid's
    for D in _QUARTIC_FREE:
        assert hash(shape_of(D)) == hash(shape_of(D))
    splits = {split_d(D, r): (D, r) for D in _QUARTIC_FREE for r in _RS}
    assert len(splits) == len(_QUARTIC_FREE) * len(_RS)
    for i, D in enumerate(_QUARTIC_FREE):
        r = _RS[i % len(_RS)]
        same = split_d(16 * D, r)
        assert hash(same) == hash(split_d(D, r)) and splits[same] == (D, r), (D, r)


def test_shape_is_not_mutated_through_what_it_returns():
    s = shape_of(-21)
    s.r_counts[3] = 9
    s.t_counts[1] = 9
    assert s.r_counts[3] == 1 and s.t_counts[1] == 0
    assert s == shape_of(-21) and hash(s) == hash(shape_of(-21))
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.p_list = (3,)


def test_shape_roundtrip():
    rng = random.Random(14)
    count = 0
    while count < 400:
        D = rng.randint(-5000, 5000)
        if D == 0:
            continue
        try:
            s = shape_of(D)
        except PreconditionError:
            assert any(e >= 4 for e in factorize(D).values())
            continue
        assert s.value == D
        count += 1


def test_split_examples():
    sp = split_d(-21, 9)
    assert (sp.d, sp.dbar) == (3, -7)
    sp = split_d(-21, 5)
    assert (sp.d, sp.dbar) == (1, -21)
    sp = split_d(15, 3)
    assert (sp.d, sp.dbar) == (3, 5)
    sp = split_d(18, 6)
    assert (sp.d, sp.dbar) == (9, 2)


def test_split_invariants():
    rng = random.Random(2718)
    done = 0
    while done < 600:
        D = rng.randint(-3000, 3000)
        r = rng.randint(-40, 40)
        if D == 0 or r == 0:
            continue
        sp = split_d(D, r)
        assert sp.D == reduce_quartic_twist(D)
        assert sp.d * sp.dbar == sp.D
        assert gcd(sp.d, sp.dbar) == 1
        assert sp.d > 0 and sp.d % 2 == 1
        assert r % rad_odd(sp.d) == 0
        assert gcd(rad_odd(sp.dbar), r) == 1
        done += 1


def test_split_strips_fourth_powers():
    # one factorization: split_d reduces D by fourth powers itself
    for D in (1, -1, 3, -21, 2, -8, 18, 27 * 5, -4001):
        for t in (2, 3, 5, 6, 7):
            for r in (1, -3, 2, 6, 15, 35):
                assert split_d(D * t**4, r) == split_d(D, r), (D, t, r)


def test_progression_set_examples():
    assert progression_set(5, 1) == (2, 3, 5, 7, 8, 10)
    assert progression_set(3, 1) == (1, 2, 3, 4, 5, 6)
    assert progression_set(1, 1) == (1, 2)


def test_progression_set_count():
    """|ks| = 2 * phi(d) * tau(dbar); the simpler 2 * tau(D) only when d = 1."""
    for D in [x for x in range(-60, 61) if x != 0]:
        try:
            shape_of(D)
        except PreconditionError:
            continue
        for r in [x for x in range(-12, 13) if x != 0]:
            ks = progression_set(D, r)
            sp = split_d(D, r)
            want = 2 * euler_phi(sp.d) * tau(sp.dbar)
            assert len(ks) == want, (D, r)
            assert 2 * sum(k % 2 for k in ks) == len(ks)
            if sp.d == 1:
                assert len(ks) == 2 * tau(D)


def test_progression_set_cap():
    # |D| up to the cap, 10^5, is walked class by class; test_contracts rejects one past it
    assert len(progression_set(-(10**5), 1)) == 2 * tau(10**5)


@pytest.mark.parametrize("D, r", [(5, 1), (5, 2), (-21, 3), (-21, -2)])
def test_class_walk_representatives(D, r):
    # each class k's leg is the first y ≡ 2k + rho(r) (mod 4|D|) from 2k + rho(r)
    # on with r^2 + y^2 prime; y and r have opposite parity, or p would be even
    _, _, walk = _class_walk("test", D, r, 10_000)
    legs = [(k, y) for k, y, _ in walk]
    assert [k for k, _ in legs] == list(progression_set(D, r))
    step = 4 * abs(D)
    for k, y in legs:
        first = 2 * k + rho(r)
        assert y % step == first % step and y % 2 != r % 2, (k, y)
        assert trial_is_prime(r * r + y * y), (k, y)
        assert not any(trial_is_prime(r * r + z * z) for z in range(first, y, step)), (k, y)


def test_rho():
    assert rho(3) == 0
    assert rho(-7) == 0
    assert rho(2) == 1
    assert rho(-10) == 1
