import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cmtrace
from cmtrace.errors import PreconditionError
from cmtrace.frobenius import ap_naive
from cmtrace.gaussian import (
    GaussianInt,
    gi_gcd,
    gi_mod,
    gi_powmod,
    is_primary,
    primary_prime_above,
)
from cmtrace.residue_symbols import (
    FourClass,
    QuarticValue,
    _trace_class,
    class_to_value,
    legendre,
    quartic_class_of,
    quartic_symbol,
    quartic_value_of,
    reciprocity_check,
    two_quartic_class,
)
from oracles import trial_is_prime


def test_legendre_examples():
    assert legendre(2, 7) == 1
    assert legendre(2, 5) == -1
    assert legendre(0, 11) == 0
    assert legendre(22, 11) == 0


def test_legendre_vs_euler():
    rng = random.Random(31337)
    for _ in range(2000):
        p = rng.choice([q for q in range(3, 200) if trial_is_prime(q)])
        a = rng.randint(-10**6, 10**6)
        got = legendre(a, p)
        want = pow(a % p, (p - 1) // 2, p)
        assert got == (0 if want == 0 else (1 if want == 1 else -1))


def test_quartic_value_group():
    vals = list(QuarticValue)
    assert {v * w for v in vals for w in vals} == set(vals)
    assert QuarticValue.I * QuarticValue.I == QuarticValue.MINUS_ONE
    assert QuarticValue.I.conjugate() == QuarticValue.MINUS_I
    assert QuarticValue.MINUS_ONE.conjugate() == QuarticValue.MINUS_ONE
    assert QuarticValue.ONE.to_gaussian() == GaussianInt(1, 0)
    assert QuarticValue.I.to_gaussian() == GaussianInt(0, 1)
    assert QuarticValue.MINUS_I.to_gaussian() == GaussianInt(0, -1)


def test_quartic_symbol_examples():
    # 3±2i are the primary primes over 13; conjugate moduli conjugate the symbol
    assert quartic_symbol(GaussianInt(2, 0), GaussianInt(3, 2)) == QuarticValue.MINUS_I
    assert quartic_symbol(GaussianInt(2, 0), GaussianInt(3, -2)) == QuarticValue.I
    assert quartic_symbol(GaussianInt(1, 0), GaussianInt(3, 2)) == QuarticValue.ONE
    # -7 is primary of norm 49; 2 is a quartic residue there
    assert quartic_symbol(GaussianInt(2, 0), GaussianInt(-7, 0)) == QuarticValue.ONE


def test_quartic_symbol_coprimality_vs_gcd():
    # quartic_symbol rejects lam exactly when gi_gcd(lam, pi) is not 1
    rng = random.Random(23)
    mods = [primary_prime_above(p) for p in (5, 13, 17, 29, 37, 41)]
    mods += [GaussianInt(-3, 0), GaussianInt(-7, 0)]
    for _ in range(2000):
        pi = rng.choice(mods)
        lam = GaussianInt(rng.randint(-30, 30), rng.randint(-30, 30))
        try:
            quartic_symbol(lam, pi)
            rejected = False
        except PreconditionError:
            rejected = True
        assert rejected == (gi_gcd(lam, pi) != GaussianInt(1, 0)), (lam, pi)


def test_quartic_symbol_multiplicative():
    rng = random.Random(2024)
    mods = [primary_prime_above(p) for p in range(5, 2000, 4) if trial_is_prime(p)]
    mods += [GaussianInt(-q, 0) for q in (3, 7, 11, 19, 23)]
    done = 0
    while done < 1000:
        pi = rng.choice(mods)
        lam1 = GaussianInt(rng.randint(-40, 40), rng.randint(-40, 40))
        lam2 = GaussianInt(rng.randint(-40, 40), rng.randint(-40, 40))
        try:
            s1 = quartic_symbol(lam1, pi)
            s2 = quartic_symbol(lam2, pi)
            s12 = quartic_symbol(lam1 * lam2, pi)
        except PreconditionError:
            continue  # shared factor; resample
        assert s12 == s1 * s2
        done += 1


def test_quartic_symbol_matches_the_four_way_scan():
    # the scan the unit lookup replaced: w is congruent to exactly one unit
    # mod pi, and that unit is the symbol; every primary prime with |re|,
    # |im| <= 20 against lam of both small and large coordinates
    pis = [
        z for z in (GaussianInt(a, b) for a in range(-20, 21) for b in range(-20, 21))
        if is_primary(z)
        and (trial_is_prime(abs(z.re)) and abs(z.re) % 4 == 3 if z.im == 0
             else trial_is_prime(z.norm()))
    ]
    assert len(pis) > 100
    rng = random.Random(1034)
    for pi in pis:
        for bound in (30, 10**9) * 10:
            lam = GaussianInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
            if gi_mod(lam, pi).is_zero():
                continue
            w = gi_powmod(lam, (pi.norm() - 1) // 4, pi)
            hits = [val for val in QuarticValue if gi_mod(w - val.to_gaussian(), pi).is_zero()]
            assert hits == [quartic_symbol(lam, pi)], (lam, pi)


def test_reciprocity_examples():
    # the classic pair of distinct primary primes
    assert reciprocity_check(GaussianInt(1, 4), GaussianInt(3, -2))
    assert reciprocity_check(GaussianInt(-1, 2), GaussianInt(3, 2))
    assert reciprocity_check(GaussianInt(-7, 0), GaussianInt(-1, 2))


def test_reciprocity_random():
    rng = random.Random(55221)
    pool = [primary_prime_above(p) for p in range(5, 30_000, 4) if trial_is_prime(p)]
    pool += [GaussianInt(-q, 0) for q in range(3, 170, 4) if trial_is_prime(q)]
    done = 0
    while done < 1000:
        a, b = rng.sample(pool, 2)
        if a.norm() == b.norm():
            continue
        assert reciprocity_check(a, b)
        done += 1


def test_quartic_class_examples():
    assert quartic_class_of(1, 13) == FourClass.PLUS_ALPHA
    assert quartic_class_of(2, 17) == FourClass.MINUS_ALPHA
    assert quartic_class_of(2, 13) == FourClass.PLUS_BETA


PRIMES_1_MOD_4 = [p for p in range(5, 10_001, 4) if trial_is_prime(p)]


@settings(deadline=None)
@given(p=st.sampled_from(PRIMES_1_MOD_4), D=st.integers(-10**6, 10**6))
def test_quartic_class_is_class_of_point_count(p, D):
    # the class is read off the trace, so it must name the point count's trace
    assume(D % p != 0)
    assert quartic_class_of(D, p) == _trace_class(ap_naive(D, p))


# internal guards: with the helper each one checks broken, each call below
# must raise AssertionError, with or without python -O
_BROKEN = (
    ("frobenius", "_chi_table", "lambda p: np.ones(p, dtype=np.int8)",
     "frobenius.ap_naive(2, 13)"),
    ("frobenius", "pow", "lambda *a: 0", "frobenius.ap_binomial_residue(13)"),
    ("gaussian", "_round_half_down", "lambda x, n: 0",
     "gaussian.gi_divmod(GaussianInt(10, 0), GaussianInt(3, 2))"),
    ("residue_symbols", "gi_powmod", "lambda *a: GaussianInt(2, 0)",
     "residue_symbols.quartic_symbol(GaussianInt(1, 4), GaussianInt(3, 2))"),
)


def test_result_guards_survive_python_O():
    script = "\n".join([
        "from unittest import mock",
        "import numpy as np",
        "from cmtrace import frobenius, gaussian, residue_symbols",
        "from cmtrace.gaussian import GaussianInt",
        "for mod, attr, fake, call in " + repr(_BROKEN) + ":",
        "    with mock.patch.object(eval(mod), attr, eval(fake), create=True):",
        "        try:",
        "            print(call, 'returned', eval(call))",
        "        except AssertionError:",
        "            print(call, 'raised')",
    ])
    src = str(Path(cmtrace.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.splitlines() == [f"{case[-1]} raised" for case in _BROKEN]


def test_two_quartic_class_examples():
    assert two_quartic_class(17) == FourClass.MINUS_ALPHA
    assert two_quartic_class(13) == FourClass.PLUS_BETA
    assert two_quartic_class(41) == FourClass.MINUS_ALPHA


def test_two_quartic_class_closed_form_small():
    # full agreement to 10^6 runs in the acceptance suite; spot the idea here
    for p in range(5, 50_000, 4):
        if trial_is_prime(p):
            assert two_quartic_class(p) == quartic_class_of(2, p)


def test_class_exhaustive_and_value_translation():
    """Every coprime D lands in exactly one class, and the class-to-value
    translation matches a direct computation of the quartic symbol."""
    rng = random.Random(808)
    primes = [p for p in range(5, 5000, 4) if trial_is_prime(p)]
    for _ in range(800):
        p = rng.choice(primes)
        D = rng.randint(-10**6, 10**6)
        if D == 0 or D % p == 0:
            continue
        cls = quartic_class_of(D, p)
        assert cls in list(FourClass)
        got = quartic_value_of(D, p)
        want = quartic_symbol(GaussianInt(D, 0), primary_prime_above(p))
        assert got == want, (D, p, cls)


def test_periodicity_of_classes():
    """Primes p = 1 + x^2 with x ≡ x' (mod 4|D|) share the class of D (odd D),
    and x ≡ x' (mod 8|D|) share the class of 2D."""
    for D in (3, -3, 5, -5, 7, 15, -15):
        buckets: dict[int, FourClass] = {}
        for x in range(2, 700, 2):
            p = 1 + x * x
            if not trial_is_prime(p) or (2 * D) % p == 0:
                continue
            key = x % (4 * abs(D))
            cls = quartic_class_of(D, p)
            if key in buckets:
                assert buckets[key] == cls, (D, x)
            else:
                buckets[key] = cls
        buckets2: dict[int, FourClass] = {}
        for x in range(2, 700, 2):
            p = 1 + x * x
            if not trial_is_prime(p) or (4 * D) % p == 0:
                continue
            key = x % (8 * abs(D))
            cls = quartic_class_of(2 * D, p)
            if key in buckets2:
                assert buckets2[key] == cls, (2 * D, x)
            else:
                buckets2[key] = cls


def test_class_to_value_both_beta_parities():
    # p = 13: beta = 2; p = 17: beta = 4. The translation flips between them.
    assert class_to_value(FourClass.PLUS_BETA, 2) == QuarticValue.MINUS_I
    assert class_to_value(FourClass.PLUS_BETA, 4) == QuarticValue.I
    assert class_to_value(FourClass.PLUS_ALPHA, 2) == QuarticValue.ONE
    assert class_to_value(FourClass.MINUS_ALPHA, 4) == QuarticValue.MINUS_ONE
