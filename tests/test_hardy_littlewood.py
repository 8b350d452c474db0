import random

import numpy as np
import pytest

from cmtrace import hardy_littlewood
from cmtrace.errors import PreconditionError
from cmtrace.hardy_littlewood import (
    HLPoly,
    _hl_delta,
    hl_admissible,
    hl_count,
    hl_delta,
)
from cmtrace.primes import is_prime_u64
from oracles import slow_hl_delta, slow_prime_count_quadratic
from test_lab import _log_calls


def test_poly_basics():
    f = HLPoly(1, 0, 1)
    assert f(0) == 1 and f(4) == 17
    assert f.disc == -4
    g = HLPoly(2, 3, -1)
    assert g(5) == 64 and g.disc == 17


def test_admissible():
    assert hl_admissible(HLPoly(1, 0, 1))
    assert hl_admissible((1, 0, 4))       # x^2 + 4
    assert hl_admissible((4, 4, 5))       # (2x+1)^2 + 4
    assert not hl_admissible((1, 0, -1))  # factors as (x-1)(x+1)
    assert not hl_admissible((2, 2, 2))   # common factor
    assert not hl_admissible((2, 0, 4))   # always even
    assert not hl_admissible((1, 1, 0))   # reducible, disc = 1
    assert not hl_admissible((-1, 0, -1))  # negative leading coefficient
    assert not hl_admissible((1, 3, 2))   # disc = 1


def test_delta_exact_tiny_truncation():
    # only p = 3 in the product: disc = -4 is a non-residue mod 3, so the
    # whole thing is 1 * (1 - (-1)/2) = 3/2, exactly representable
    assert hl_delta((1, 0, 1), prime_bound=3) == 1.5


def test_delta_x2_plus_1():
    d = hl_delta((1, 0, 1), prime_bound=100_000)
    assert abs(d - 1.3728) < 2e-3
    # truncation is stable in the third decimal past 10^5
    d2 = hl_delta((1, 0, 1), prime_bound=400_000)
    assert abs(d - d2) < 1e-3


def test_delta_ratio_shared_tail():
    # x^2+9 and x^2+1 have the same symbol at every p > 3 (disc -36 vs -4,
    # same class away from 3); they differ only in the p = 3 factor, which
    # is 1 for -36 ≡ 0 and 3/2 for the non-residue -4, so the ratio is 2/3
    a = hl_delta((1, 0, 9), prime_bound=50_000)
    b = hl_delta((1, 0, 1), prime_bound=50_000)
    assert abs(a / b - 2 / 3) < 1e-9


def test_delta_parity_and_leading_factors():
    # 4x^2+1 against x^2+1: the symbol product is identical (disc -16 and
    # -4 agree at every odd p), and 2/sqrt(4) == 1/sqrt(1), so the two
    # constants must come out equal factor for factor
    a = hl_delta((4, 0, 1), prime_bound=20_000)
    b = hl_delta((1, 0, 1), prime_bound=20_000)
    assert abs(a - b) < 1e-9


# p | a; p | a and p | b (3 for 9x^2+3x+1, 5 for 15x^2+5x+1); coefficients
# at or above 2^63; negative and positive discriminants
_ORACLE_POLYS = (
    (1, 0, 1),
    (3, 1, 1),
    (9, 3, 1),
    (15, 5, 1),
    (1, 0, 2**64 + 1),
    (2**63 + 1, 1, 1),
    (1, 2**70, 3),
    (7, -(2**64) - 1, -(2**63) - 5),
    (1, 1, -1),
    (2, 3, -1),
)


@pytest.mark.parametrize("bound", [3, 1000, 10**6])
@pytest.mark.parametrize("f", _ORACLE_POLYS)
def test_delta_equals_scalar_product(f, bound):
    # the vectorized product must be the scalar loop's value, bit for bit
    assert hl_admissible(f)
    assert hl_delta(f, bound) == slow_hl_delta(*f, bound)


def test_delta_memo():
    # one entry per normalized (f, bound), whatever form f came in
    _hl_delta.cache_clear()
    value = hl_delta((1, 0, 49), 1000)
    assert _hl_delta.cache_info().currsize == 1
    assert hl_delta(HLPoly(1, 0, 49), 1000) == value
    assert hl_delta([1, 0, 49], 1000) == value
    assert hl_delta((np.int64(1), np.int64(0), np.int64(49)), np.int64(1000)) == value
    info = _hl_delta.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 3, 1)
    assert value == slow_hl_delta(1, 0, 49, 1000)
    # a rejected input is never remembered, so it raises every time
    for _ in range(2):
        with pytest.raises(PreconditionError):
            hl_delta((1, 0, -1), 1000)
        with pytest.raises(PreconditionError):
            hl_delta((1, 0, 49), 2)
    assert _hl_delta.cache_info().currsize == 1


def test_delta_at_the_largest_float():
    # float() holds a up to the midpoint between the largest float, 2^1024 -
    # 2^971, and 2^1024; the contract table rejects that midpoint
    edge = 2**1024 - 2**970
    assert hl_delta((edge - 1, 0, 1), 3) == slow_hl_delta(edge - 1, 0, 1, 3)


def test_delta_formats_f_only_for_a_bad_coefficient():
    # f's repr goes into the message of a rejected coefficient, and only there
    class Opaque(tuple):
        def __repr__(self):
            raise RuntimeError("repr of a valid f")

    assert hl_delta(Opaque((1, 0, 49)), 1000) == hl_delta((1, 0, 49), 1000)
    with pytest.raises(PreconditionError) as err:
        hl_delta((1, 0, "1"), 1000)
    assert str(err.value) == "hl_delta: f = (1, 0, '1'): a coefficient must be an integer, got '1'"


def test_count_examples():
    # x^2+1 primes up to 100: 2, 5, 17, 37; 101 just misses
    assert hl_count((1, 0, 1), 100) == 4
    assert hl_count((1, 0, 1), 101) == 5
    assert hl_count((1, 0, 4), 100) == 4   # 5, 13, 29, 53
    assert hl_count((4, 4, 5), 100) == 4   # same primes via odd arguments
    assert hl_count((1, 0, 1), 0) == 0
    assert hl_count((1, 0, 1), 2) == 1     # f(1) = 2


def test_count_vs_slow_oracle():
    for coeffs in ((1, 0, 1), (1, 0, 4), (2, 2, 1), (3, 1, 1), (9, 3, 1)):
        f = HLPoly(*coeffs)
        for n in (10, 100, 1000, 5000):
            assert hl_count(f, n) == slow_prime_count_quadratic(f.a, f.b, f.c, n), (
                coeffs,
                n,
            )


def test_count_scan_cap(monkeypatch):
    # the scan length is exact: x^2 + 1 <= 100 needs x = 0..9, and <= 101 one more
    monkeypatch.setattr(hardy_littlewood, "_HL_COUNT_MAX", 10)
    assert hl_count((1, 0, 1), 100) == 4
    with pytest.raises(PreconditionError):
        hl_count((1, 0, 1), 101)
    # (x - 20)^2 + 1 <= 10 scans only x = 17..23, around the vertex
    monkeypatch.setattr(hardy_littlewood, "_HL_COUNT_MAX", 7)
    assert hl_count((1, -40, 401), 10) == 2
    monkeypatch.setattr(hardy_littlewood, "_HL_COUNT_MAX", 6)
    with pytest.raises(PreconditionError):
        hl_count((1, -40, 401), 10)


def test_count_scans_the_interval_around_the_vertex(monkeypatch):
    # f with its vertex at x > 0: the count is the oracle's, and the cap is
    # exactly the number of x >= 0 with f(x) <= n, however far the vertex is;
    # (x - 10^9)^2 + 1 <= 10 at x = 10^9 + {-3..3}: the primes 2 and 5
    assert hl_count((1, -2 * 10**9, 10**18 + 1), 10) == 2
    rng = random.Random(24)
    for _ in range(300):
        f = HLPoly(rng.randint(1, 4), rng.randint(-400, -1), rng.randint(-50, 10_000))
        n = rng.randint(0, 5000)
        count = slow_prime_count_quadratic(f.a, f.b, f.c, n)
        length = sum(f(x) <= n for x in range(1000))  # f(x) > n from x = 1000 on
        monkeypatch.setattr(hardy_littlewood, "_HL_COUNT_MAX", max(length, 1))
        assert hl_count(f, n) == count, (f, n)
        if length:
            monkeypatch.setattr(hardy_littlewood, "_HL_COUNT_MAX", length - 1)
            with pytest.raises(PreconditionError):
                hl_count(f, n)


def test_count_rejects_values_past_u64(monkeypatch):
    # at entry, by hl_count's name: no primality test runs before the raise
    log = _log_calls(monkeypatch, is_prime_u64)
    # the second f has its vertex at 10^6 + 1/4, so its largest value <= n is at
    # the low end, f(0) = n, and its last one f(2*10^6) = n - 2*10^6 is below 2^64
    for f, n in (((10**12, 1, 1), 10**21), ((2, -(4 * 10**6 + 1), 2**64 + 7), 2**64 + 7)):
        with pytest.raises(PreconditionError, match=r"^hl_count: n = \d+ takes f = HLPoly"):
            hl_count(f, n)
    assert log == []
    # every value <= n is below 2^64, though n and f's coefficients are not
    assert hl_count((10**30, 0, 1), 10**20) == 0
    assert hl_count((10**12, 1, 1), 2**64 - 1) == 78


def test_count_u64_rule_is_exact(monkeypatch):
    # with the limit lowered to m, hl_count raises exactly when some value
    # 2 <= f(x) <= n of the scan, x >= 0, is above m; m sits at or just
    # below the first, the last or any one of those values, or n if none
    rng = random.Random(64)
    for _ in range(3000):
        f = HLPoly(rng.randint(1, 4), rng.randint(-60, 60), rng.randint(-50, 50))
        n = rng.randint(0, 3000)
        values = [f(x) for x in range(100) if 2 <= f(x) <= n]  # f(100) > 3000
        pick = values or [n]
        m = rng.choice((pick[0], pick[-1], rng.choice(pick))) - rng.randint(0, 1)
        monkeypatch.setattr(hardy_littlewood, "_U64_MAX", m)
        if max(values, default=0) > m:
            with pytest.raises(PreconditionError):
                hl_count(f, n)
        else:
            hl_count(f, n)


def test_count_matches_delta_asymptotics():
    # loose sanity bound: delta * sqrt(n)/log(n) should be within ~20% of
    # the true count at n = 10^7 (log n understates the integral, so the
    # true count runs a little hot; the window is asymmetric on purpose)
    from math import log, sqrt

    n = 10_000_000
    d = hl_delta((1, 0, 1), prime_bound=200_000)
    predicted = d * sqrt(n) / log(n)
    actual = hl_count((1, 0, 1), n)
    assert 0.9 < actual / predicted < 1.25, (actual, predicted)
