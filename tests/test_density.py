import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cmtrace
from cmtrace.arith import progression_set, reduce_quartic_twist, shape_of, split_d
from cmtrace.density import (
    DensityPair,
    density_formula,
    density_oracle,
    is_zero_pair,
    lt_constant,
    sigma_sums,
)
from cmtrace.errors import NoRepresentativeFound, PreconditionError
from cmtrace.gaussian import GaussianInt
from cmtrace.primes import is_prime_u64
from test_lab import _log_calls


# ---------------------------------------------------------------------------
# closed form: pinned instances

# every worked instance we trust, as (D, r) -> (density of +2r, density of -2r)
PINNED = {
    # the full -21 family
    (-21, 1): ("11/42", "11/42"),
    (-21, 9): ("3/14", "3/14"),
    (-21, 7): ("1/6", "1/6"),
    (-21, 21): ("1/2", "1/2"),
    (-21, 2): ("5/21", "5/21"),
    (-21, 6): ("2/7", "2/7"),
    (-21, 14): ("1/3", "1/3"),
    (-21, 42): ("0", "0"),
    # unit and near-unit D
    (1, 1): ("1", "0"),
    (1, 3): ("0", "1"),
    (-1, 1): ("1/2", "1/2"),
    (-1, 3): ("1/2", "1/2"),
    (-4, 1): ("1", "0"),
    (-4, 2): ("0", "0"),
    (2, 1): ("1/4", "1/4"),
    (-2, 1): ("1/4", "1/4"),
    (2, 2): ("1", "0"),
    (2, 6): ("0", "1"),
    (-2, 2): ("0", "1"),
    (2, 4): ("0", "0"),
    (6, 2): ("1/3", "0"),
    (6, 6): ("1", "0"),
    # prime D, odd r coprime to D
    (5, 1): ("1/3", "0"),
    (5, 3): ("0", "1/3"),
    (-3, 1): ("1/3", "0"),
    (13, 1): ("3/11", "2/11"),
    (17, 1): ("1/5", "4/15"),
    (3, 1): ("1/6", "1/6"),
    (7, 1): ("3/14", "3/14"),
    # prime D, even r
    (5, 2): ("1/3", "1/3"),
    (13, 2): ("3/11", "3/11"),
    (3, 2): ("1/3", "1/3"),
    (7, 2): ("2/7", "2/7"),
    # square cofactors vanish silently
    (9, 2): ("0", "0"),
    (25, 2): ("0", "0"),
    (49, 4): ("0", "0"),
    (18, 2): ("1/3", "2/3"),
}


def test_density_formula_pinned():
    for (D, r), (p, m) in PINNED.items():
        pair = density_formula(D, r)
        assert (pair.d_plus, pair.d_minus) == (F(p), F(m)), (D, r, pair)
    # a prime D ≡ 3 (mod 4) above the trial bound still factors: (1/4)(1 - 1/D)
    D = 10**18 + 3
    assert density_formula(D, 1) == DensityPair(F(D - 1, 4 * D), F(D - 1, 4 * D))


def test_density_formula_sign_swaps():
    # negating r must swap the two sides
    rng = random.Random(9001)
    for _ in range(300):
        D = rng.randint(-60, 60)
        r = rng.randint(-12, 12)
        if D == 0 or r == 0:
            continue
        try:
            a = density_formula(D, r)
        except PreconditionError:
            continue
        b = density_formula(D, -r)
        assert a.d_plus == b.d_minus and a.d_minus == b.d_plus


def test_density_formula_twist_invariance():
    for D, r in ((2, 1), (-21, 2), (5, 3), (6, 6)):
        base = density_formula(D, r)
        assert density_formula(D * 16, r) == base
        assert density_formula(D * 81, r) == base


# ---------------------------------------------------------------------------
# the oracle agrees with the closed form

def test_oracle_examples():
    pair, counts = density_oracle(-21, 1, x_max=20_000)
    assert (pair.d_plus, pair.d_minus) == (F(11, 42), F(11, 42))
    pair, counts = density_oracle(1, 1, x_max=1000)
    assert (pair.d_plus, pair.d_minus) == (F(1), F(0))
    assert (counts.x_alpha, counts.x_minus_alpha) == (2, 0)
    assert counts.x_beta == counts.x_minus_beta == 0
    pair, _ = density_oracle(5, 3, x_max=10_000)
    assert (pair.d_plus, pair.d_minus) == (F(0), F(1, 3))


def test_oracle_vs_formula_grid():
    # |D| <= 20, |r| <= 6 here; the acceptance suite widens this to 100 x 12
    for D in [x for x in range(-20, 21) if x != 0]:
        if reduce_quartic_twist(D) != D:
            continue
        for r in [x for x in range(-6, 7) if x != 0]:
            f = density_formula(D, r)
            o, counts = density_oracle(D, r, x_max=30_000)
            assert f == o, (D, r, f, o)
            assert counts.total == len(progression_set(D, r))


@settings(deadline=None, max_examples=25)
@given(
    D=st.one_of(st.integers(-5000, -101), st.integers(101, 5000)),
    r=st.one_of(st.integers(-40, -1), st.integers(1, 40)),
)
@example(D=-4001, r=3)
def test_oracle_vs_formula_beyond_grid(D, r):
    # past the acceptance grid's |D| <= 100; the default x_max finds every class
    assert density_oracle(D, r)[0] == density_formula(D, r), (D, r)


def test_oracle_class_counts_sum():
    from cmtrace.arith import euler_phi, tau

    for D, r in ((-21, 1), (5, 2), (6, 3), (30, 2)):
        _, counts = density_oracle(D, r, x_max=30_000)
        sp = split_d(D, r)
        assert counts.total == 2 * euler_phi(sp.d) * tau(sp.dbar)


@pytest.mark.parametrize("fn", [density_oracle, sigma_sums])
def test_oracles_at_the_largest_r(fn):
    r = (1 << 32) - 1  # the largest |r| searched, with p just below 2^64
    if fn is density_oracle:
        assert fn(5, r)[0] == density_formula(5, r)
    else:
        assert fn(5, r).sigma == 8


def test_oracle_representative_failure():
    with pytest.raises(NoRepresentativeFound) as ei:
        density_oracle(-21, 1, x_max=0)
    assert ei.value.x_max == 0
    assert "raise x_max" in str(ei.value)


@pytest.mark.parametrize("fn", [density_oracle, sigma_sums])
def test_representative_failure_names_the_callers_D(fn):
    # -21 * 2^4 reduces to -21, but the error names the D that was passed
    with pytest.raises(NoRepresentativeFound, match=re.escape("(D=-336, r=1)")) as ei:
        fn(np.int64(-21 * 16), 1, x_max=0)
    assert type(ei.value.D) is int and ei.value.D == -336
    assert (ei.value.r, ei.value.k, ei.value.x_max) == (1, 4, 0)


# ---------------------------------------------------------------------------
# quartic sums

def test_sigma_sums_prime_seven():
    s = sigma_sums(7, 1, x_max=20_000)
    assert s.sigma == 14 and s.sigma_i == s.sigma_ii == 7
    assert s.sigma2_i == -1 and s.sigma2_ii == -1
    assert s.sigma4_i == GaussianInt(1, 0)   # 7 ≡ 7 (mod 8)
    assert s.sigma4_ii == GaussianInt(-1, 0)


def test_sigma_sums_prime_three():
    s = sigma_sums(3, 1, x_max=20_000)
    assert s.sigma4_i == GaussianInt(-1, 0)  # 3 ≡ 3 (mod 8)
    assert s.sigma4_ii == GaussianInt(1, 0)


def test_sigma_sums_multiplicative():
    pairs = [(3, 5), (3, 7), (5, 7), (3, 11), (5, 13)]
    for a, b in pairs:
        sa = sigma_sums(a, 1, x_max=20_000)
        sb = sigma_sums(b, 1, x_max=20_000)
        sab = sigma_sums(a * b, 1, x_max=20_000)
        assert sab.sigma4_i == sa.sigma4_i * sb.sigma4_i, (a, b)
        assert sab.sigma4_ii == sa.sigma4_ii * sb.sigma4_ii, (a, b)
        assert sab.sigma2_i == sa.sigma2_i * sb.sigma2_i
        assert sab.sigma2_ii == sa.sigma2_ii * sb.sigma2_ii


def test_sigma_sums_even_r_real():
    # for even r the quartic sum is forced real, and the class counts are
    # symmetric between the two odd-trace signs
    for D in (3, 5, 7, 15, -21):
        s = sigma_sums(D, 2, x_max=20_000)
        assert s.sigma4.im == 0, (D, s.sigma4)


def test_sigma_sums_solve_class_counts():
    """The linear system tying the sums to the class counts (odd r)."""
    for D, r in ((7, 1), (3, 1), (-21, 1), (15, 1), (5, 3)):
        s = sigma_sums(D, r, x_max=30_000)
        _, counts = density_oracle(D, r, x_max=30_000)
        sig, sig2, sig4 = s.sigma, s.sigma2, s.sigma4
        assert sig4.im == 0  # odd r over these D comes out real
        xa = F(sig + sig2 + 2 * sig4.re, 4)
        xma = F(sig + sig2 - 2 * sig4.re, 4)
        assert xa == counts.x_alpha, (D, r)
        assert xma == counts.x_minus_alpha, (D, r)
        assert counts.x_beta == counts.x_minus_beta == (sig - sig2) // 4


def test_sigma_sums_rejects_even_D(monkeypatch):
    # before the class walk starts: no prime search for an even reduced D
    log = _log_calls(monkeypatch, is_prime_u64)
    with pytest.raises(PreconditionError):
        sigma_sums(2, 1)
    with pytest.raises(PreconditionError):
        sigma_sums(-6, 1)
    assert log == []
    # but a fourth power of 2 reduces away
    s = sigma_sums(16 * 3, 1, x_max=20_000)
    assert s.sigma == sigma_sums(3, 1, x_max=20_000).sigma


# ---------------------------------------------------------------------------
# vanishing verdicts

def test_is_zero_pair_examples():
    v = is_zero_pair(5, 3)
    assert v.plus_zero and not v.minus_zero
    assert v.table_row == "odd:prime-cofactor"
    v = is_zero_pair(2, 4)
    assert v.plus_zero and v.minus_zero and v.table_row is None
    v = is_zero_pair(-21, 1)
    assert not v.plus_zero and not v.minus_zero and v.table_row is None


def test_is_zero_pair_row_instances():
    # one instance per published row pattern, zero side verified exactly
    v = is_zero_pair(-27, 3)  # cofactor is a unit after peeling d = 27
    assert v.table_row == "odd:unit-cofactor" and v.minus_zero and not v.plus_zero
    v = is_zero_pair(-3, 1)
    assert v.table_row == "odd:prime-cofactor" and v.minus_zero
    v2 = is_zero_pair(5, 1)
    assert v2.table_row == "odd:prime-cofactor" and v2.minus_zero
    v = is_zero_pair(12, 1)
    assert v.table_row == "odd:prime-cofactor-x4" and v.minus_zero
    v = is_zero_pair(2, 2)
    assert v.table_row == "even:cofactor-2" and v.minus_zero
    v = is_zero_pair(-8, 2)
    assert v.table_row == "even:cofactor-8" and v.minus_zero
    v = is_zero_pair(10, 2)
    assert v.table_row == "even:mixed" and v.plus_zero
    v = is_zero_pair(3, 6)
    assert v.table_row == "even:radical" and v.plus_zero and v.minus_zero


def test_zero_row_check_survives_python_O():
    # a closed form that swaps its sides must trip the row check, even under -O
    script = "\n".join([
        "from cmtrace import PreconditionError, density",
        "for helper, D, r in (('_odd_pair', 5, 3), ('_even_pair', 2, 2)):",
        "    density.is_zero_pair(D, r)",
        "    orig = getattr(density, helper)",
        "    setattr(density, helper, lambda *a, orig=orig: orig(*a)[::-1])",
        "    try:",
        "        print(helper, 'returned', density.is_zero_pair(D, r))",
        "    except PreconditionError:",
        "        print(helper, 'rejected')",
        "    except AssertionError:",
        "        print(helper, 'raised')",
        "    setattr(density, helper, orig)",
    ])
    src = str(Path(cmtrace.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.splitlines() == ["_odd_pair raised", "_even_pair raised"]


def test_zero_verdict_matches_formula_on_grid():
    """Wherever a row matches, its zero claim must agree with the formula
    (the matcher asserts this internally; here we also require that every
    formula zero is either matched or one of the known uncovered shapes)."""
    uncovered = []
    for D in [x for x in range(-50, 51) if x != 0]:
        if reduce_quartic_twist(D) != D:
            continue
        for r in [x for x in range(-10, 11) if x != 0]:
            v = is_zero_pair(D, r)
            if (v.plus_zero or v.minus_zero) and v.table_row is None:
                uncovered.append((D, r))
    # the published rows miss exactly two shapes: doubly-even r over
    # dbar in {±2, ±8}, and even r over an odd-square cofactor
    from math import isqrt

    for D, r in uncovered:
        sp = split_d(reduce_quartic_twist(D), r)
        assert r % 2 == 0, (D, r)
        odd_part = abs(sp.dbar) >> shape_of(sp.dbar).sigma
        is_odd_square = isqrt(odd_part) ** 2 == odd_part and odd_part > 1
        doubly_even_over_two_power = r % 4 == 0 and odd_part == 1
        assert is_odd_square or doubly_even_over_two_power, (D, r)


def test_unit_cofactor_side_is_a_parity():
    """The unit-cofactor row's side condition is a parity of a prime count.
    Small instances only ever show counts 0 and 1, so a literal reading of
    those two values also works there; D = -15, r = 15 is the first instance
    with count 2, and the formula confirms the parity reading."""
    sh = shape_of(-15)
    s = sh.r_counts[3] + sh.r_counts[5] + sh.t_counts[3] + sh.t_counts[5]
    assert s == 2  # both 3 and 5 land in the counted residues
    pair = density_formula(-15, 15)
    assert pair.d_plus == 0 and pair.d_minus == 1  # zero side matches count 0
    v = is_zero_pair(-15, 15)
    assert v.table_row == "odd:unit-cofactor" and v.plus_zero
    # and inside the small grid the count really never exceeds 1
    for D in [x for x in range(-50, 51) if x != 0]:
        if reduce_quartic_twist(D) != D:
            continue
        for r in range(-9, 10, 2):
            v = is_zero_pair(D, r)
            if v.table_row == "odd:unit-cofactor":
                sh = shape_of(reduce_quartic_twist(D))
                s = (
                    sh.r_counts[3] + sh.r_counts[5]
                    + sh.t_counts[3] + sh.t_counts[5]
                )
                assert s in (0, 1), (D, r)


# ---------------------------------------------------------------------------
# Lang-Trotter constants

def test_lt_constant_values():
    c = lt_constant(1, 1, 100_000)
    assert abs(c - 1.3728) < 0.02
    c2 = lt_constant(-1, 1, 100_000)
    assert abs(c2 - c / 2) < 1e-12  # exactly half the density
    assert lt_constant(1, 3, 1000) == 0.0
    assert lt_constant(2, 4, 1000) == 0.0


def test_lt_constant_large_r():
    # r far beyond int64 and beyond every prime of the table; the values
    # are the general hl_delta's, pinned before the chi_{-4} table existed
    assert lt_constant(5, 10**20 + 1) == 0.4674860202320708
    assert lt_constant(2, 7**30) == 0.29417368066730964


# (D, r, bound) -> lt_constant, read before hl_delta became its only route:
# bounds down to 3, r with primes of the product dividing it (3, 15, 30030,
# 999983), r beyond int64, and negative r
_LT_PINNED = {
    (1, 1, 3): 1.5,
    (1, 1, 10): 1.3125,
    (-21, 1, 1000): 0.3589283876373599,
    (-21, 1, 10**6): 0.35954560970448896,
    (-1, 3, 3): 0.5,
    (-1, 3, 10): 0.4375,
    (-21, -3, 1000): 0.19577912052946908,
    (1, -15, 10**5): 1.2198670953089328,
    (-46, 10, 10**5): 0.3977827484703036,
    (-2, 30030, 10**6): 1.03730664257345,
    (-1, 999983, 10**6): 0.6864045684734639,
    (-1, 10**6 + 3, 10**6): 0.686405254890388,
    (-21, 10**20 + 1, 10**6): 0.36731044446805566,
    (-21, -(10**20 + 1), 10): 0.34375,
    (1, 7**30, 1000): 1.174674723176815,
    (1, 7**30, 10**6): 1.1766947226692386,
}


@pytest.mark.parametrize("D, r, bound", list(_LT_PINNED))
def test_lt_constant_pinned(D, r, bound):
    assert lt_constant(D, r, bound) == _LT_PINNED[D, r, bound]


def test_lt_constant_zero_iff_density_zero():
    rng = random.Random(321)
    for _ in range(60):
        D = rng.randint(-30, 30)
        r = rng.randint(-8, 8)
        if D == 0 or r == 0 or reduce_quartic_twist(D) != D:
            continue
        c = lt_constant(D, r, 10_000)
        dens = density_formula(D, r).d_plus
        assert (c == 0.0) == (dens == 0), (D, r)
