"""The argument contract of every public entry point and CLI subcommand, in one table.

The rule: a rejected call raises PreconditionError at entry, before any work
(under 64 kB allocated), the same way under python -O, and its message begins
"<entry>: <arg>": the function the caller called and one of its parameters.
BY_FACTORIZE holds the one exception.

Each row of ROWS gives a valid call, the bounds of each integer parameter as
expressions that read them from their modules, and the calls rejected
otherwise, each with the start of its message after "<entry>: ". From the
bounds the checks generate, for each integer parameter, a float, a
half-integer and a string, a 0 where it must be nonzero, and the values just
past each bound and a 5,000-digit one past it (shown by its bit length);
numpy integers in the integer parameters must give the int result. CLI holds
the requests that exit 2 with stdout empty. legacy() keeps the ids of the
earlier rejection tests running from this table.
"""

import ast
import contextlib
import dataclasses
import functools
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import cmtrace
from cmtrace import arith, cli, density, gaussian, hardy_littlewood, lab, primes
from cmtrace.errors import PreconditionError
from cmtrace.gaussian import GaussianInt as GI
from cmtrace.primes import sieve_primes

_HUGE = 10**5000  # past Python's limit for printing an int (4,300 digits)


class Int(NamedTuple):
    """An integer parameter: its bounds (expressions; None for none), and whether 0 is refused."""

    lo: str | None = None
    hi: str | None = None
    nonzero: bool = False
    stripped: bool = False  # the bounds hold for D with its fourth powers stripped


class Row(NamedTuple):
    call: str  # a valid call, all arguments positional
    ints: dict = {}  # integer parameter -> Int
    rejects: dict = {}  # rejected call -> its message after "<entry>: ", all of it if it ends in $


_D, _DR = {"D": Int(nonzero=True)}, {"D": Int(nonzero=True), "r": Int(nonzero=True)}
_P64 = {"p": Int(hi="primes._U64_MAX")}
_ORACLE = {
    "D": Int("-arith._PROGRESSION_D_MAX", "arith._PROGRESSION_D_MAX", nonzero=True, stripped=True),
    "r": Int("-density._ORACLE_R_MAX", "density._ORACLE_R_MAX", nonzero=True),
    "x_max": Int("0"),
}
_PRIME = "p must be an odd prime, got "
_PRIME1 = "p must be a prime ≡ 1 (mod 4), got "
_U64 = "p must be at most 18446744073709551615, got "
_NOT_U64 = "2**64 + 13"  # past is_prime_u64's range, rejected by the entry's own name
_COMPOSITES = (85, 325, 1649, 18721)  # sums of two squares, ≡ 1 (mod 4)
_OVER_BOUND = "prime_bound must be at most 1000000000, got 1000000000000$"
_COFACTOR = "n leaves the cofactor "
_EDGE = "2**1024 - 2**970"  # the least a that float() cannot hold
_PI13 = "GI(3, 2)"  # a primary prime of norm 13


def _split_rows(call: str) -> dict:
    # the two-squares stack: composites, 2^64 + 1, and a p past 2^64
    out = {call.format(n): _PRIME1 + str(n) for n in _COMPOSITES}
    past = {call.format(p): f"{_U64}{eval(p)}$" for p in ("2**64 + 1", _NOT_U64)}
    return {**out, **past}


ROWS = {
    "is_prime_u64": Row("is_prime_u64(13)", {"n": Int("0", "primes._U64_MAX")}),
    "sieve_primes": Row("sieve_primes(10)", {"bound": Int(hi="primes._SIEVE_MAX")}),
    "factorize": Row("factorize(360)", {"n": Int(nonzero=True)}, {
        "factorize((10**9 + 7) * (10**9 + 9))": _COFACTOR + "1000000016000000063 after",
        "factorize(_HUGE + 1)": _COFACTOR + "<int of 16572 bits> after",
    }),
    "tau": Row("tau(25)", _D),
    "euler_phi": Row("euler_phi(12)", {"n": Int(nonzero=True)}),
    "rad_odd": Row("rad_odd(72)", {"n": Int(nonzero=True)}),
    "shape_of": Row("shape_of(-21)", _D, {
        **{f"shape_of({D})": f"D must be fourth-power-free, got {D}$"
           for D in (16, -16, 48, 81, 64)},
        "shape_of(2**20000)": "D must be fourth-power-free, got <int of 20001 bits>",
    }),
    "split_d": Row("split_d(3, 1)", _DR, {
        "split_d(_HUGE + 1, 1)": _COFACTOR + "<int of 16572 bits>",
    }),
    "rho": Row("rho(3)", {"r": Int()}),
    "progression_set": Row("progression_set(7, 1)", {
        "D": Int("-arith._PROGRESSION_D_MAX", "arith._PROGRESSION_D_MAX", nonzero=True),
        "r": Int(nonzero=True),
    }, {
        "progression_set(3, 1.5)": "r must be an integer, got 1.5",
        "progression_set(1.5, 1)": "D must be an integer, got 1.5",
        "progression_set(10**12, 1)": "D must be at most 100000, got 1000000000000",
    }),
    "reduce_quartic_twist": Row("reduce_quartic_twist(32)", _D),
    "density_formula": Row("density_formula(2, 1)", _DR, {
        "density_formula(5, 0)": "r must be nonzero, got 0",
        "density_formula(3, 1.5)": "r must be an integer, got 1.5",
        "density_formula(3, '1')": "r must be an integer, got '1'",
        "density_formula((10**9 + 7) * (10**9 + 9), 1)": _COFACTOR + "1000000016000000063",
        "density_formula(_HUGE + 1, 1)": _COFACTOR + "<int of 16572 bits>",
    }),
    "is_zero_pair": Row("is_zero_pair(2, 1)", _DR, {
        "is_zero_pair(3, 2.0)": "r must be an integer, got 2.0",
        "is_zero_pair(_HUGE + 1, 1)": _COFACTOR + "<int of 16572 bits>",
    }),
    "density_oracle": Row("density_oracle(5, 1, 100000)", _ORACLE, {
        "density_oracle(2.5, 1)": "D must be an integer, got 2.5",
        "density_oracle('2', 1)": "D must be an integer, got '2'",
        "density_oracle(3, 1.0)": "r must be an integer, got 1.0",
        "density_oracle(-21, 1, x_max=1.5)": "x_max must be an integer, got 1.5",
        "density_oracle(10**9 + 7, 1)": "D with fourth powers stripped must be at most 100000, got",
        "density_oracle(5, 10**30)": "r must be at most 4294967295, got 1" + "0" * 30 + "$",
        # a search that finds no prime names the oracle and the D the caller passed
        "density_oracle(-21, 1, 0)": "x_max = 0 finds no prime representative for class k=4 of",
        "density_oracle(3 * 2**20000, 1, x_max=0)":
            "x_max = 0 finds no prime representative for class k=4 of (D=<int of 20002 bits>, r=1)",
    }),
    "sigma_sums": Row("sigma_sums(5, 1, 100000)", _ORACLE, {
        "sigma_sums(-21, 1, x_max=1.5)": "x_max must be an integer, got 1.5",
        "sigma_sums(10**9 + 7, 1)": "D with fourth powers stripped must be at most 100000, got",
        "sigma_sums(5, 10**30)": "r must be at most 4294967295, got 1" + "0" * 30 + "$",
        "sigma_sums(2, 1)": "D must be odd once fourth powers are stripped, got 2",
        "sigma_sums(-6, 1)": "D must be odd once fourth powers are stripped, got -6$",
        "sigma_sums(-6 * 81, 1)": "D must be odd once fourth powers are stripped, got -486$",
    }),
    # r^2 = 10^20 passes 2^63, so a numpy r must be squared as an int
    "lt_constant": Row("lt_constant(-21, 10**10, 1000)", {
        **_DR, "prime_bound": Int("3", "primes._SIEVE_MAX"),
    }, {
        "lt_constant(3, 1.5)": "r must be an integer, got 1.5",
        "lt_constant(1, 1, 10**12)": _OVER_BOUND,
        # the +2r density of (1, 3) is 0, and its bound is checked all the same
        "lt_constant(1, 3, 2)": "prime_bound must be at least 3, got 2",
        "lt_constant(1, 3, 1000.0)": "prime_bound must be an integer, got 1000.0",
        "lt_constant(1, 3, '1000')": "prime_bound must be an integer, got '1000'",
        "lt_constant(1, 3, 10**12)": _OVER_BOUND,
    }),
    "ap_naive": Row("ap_naive(2, 13)", {**_D, "p": Int(hi="NAIVE_CAP")}, {
        "ap_naive(3, 13.0)": "p must be an integer, got 13.0",
        "ap_naive(3, '13')": "p must be an integer, got '13'",
        "ap_naive(1, NAIVE_CAP + 100)": "p must be at most 10000000, got 10000100",
        **{f"ap_naive({D}, {p})": _PRIME + str(p) for D, p in [
            (1, 2), (2, 9), (2, 15), (2, 21), (2, 3277), (2, 1105)]},
        "ap_naive(3, -_HUGE)": _PRIME + "<negative int of 16610 bits>",
        "ap_naive(14, 7)": "p must not divide D (bad reduction), got p = 7, D = 14",
        "ap_naive(0, 5)": "D must be nonzero, got 0",
    }),
    "ap_binomial_residue": Row("ap_binomial_residue(13)", {"p": Int(hi="NAIVE_CAP")}, {
        "ap_binomial_residue(10_000_121)": "p must be at most 10000000, got 10000121$",
        **{f"ap_binomial_residue({p})": _PRIME1 + str(p) for p in (7, 9, 1105, 3277, -3)},
    }),
    "ap_fast": Row("ap_fast(2, 13)", {**_D, "p": Int("3", "primes._U64_MAX")}, {
        **{f"ap_fast(2, {p})": _PRIME + str(p) for p in (85, 15, 4, 9, 21, 3277, 1105)},
        "ap_fast(2, 1)": "p must be at least 3, got 1",
        "ap_fast(2, -3)": "p must be at least 3, got -3",
        "ap_fast(3, 0)": "p must be at least 3, got 0",
        "ap_fast(2, 2**64 + 1)": _U64,
        "ap_fast(3, 2**64 + 13)": _U64,
        "ap_fast(3, _HUGE + 1)": _U64 + "<int of 16610 bits>",
        "ap_fast(3, '13')": "p must be an integer, got '13'",
        "ap_fast(13, 13)": "p must not divide D (bad reduction), got p = 13, D = 13",
        # p is found not prime before p | D is looked at
        **{f"ap_fast({D}, {p})": _PRIME + str(p) for D, p in [(8, 4), (9, 9), (85, 85)]},
        "ap_fast(5 * _HUGE, 5)":
            "p must not divide D (bad reduction), got p = 5, D = <int of 16612 bits>$",
    }),
    "two_squares": Row("two_squares(13)", _P64, {
        **_split_rows("two_squares({})"),
        **{f"two_squares({p})": _PRIME1 + str(p) for p in (7, 2, -3)},
        # a composite with no g of g^((n-1)/2) ≡ -1: rejected at once, not after a search
        "two_squares(3 * (10**18 + 3))": _PRIME1 + "3000000000000000009",
        "two_squares(_HUGE + 1)": _U64 + "<int of 16610 bits>",
    }),
    "sqrt_minus_one": Row("sqrt_minus_one(13)", _P64, {
        **_split_rows("sqrt_minus_one({})"),
        "sqrt_minus_one(7)": _PRIME1 + "7",
        "sqrt_minus_one(11)": _PRIME1 + "11",
    }),
    "primary_prime_above": Row("primary_prime_above(13)", _P64, {
        **_split_rows("primary_prime_above({})"),
        "primary_prime_above(_HUGE + 1)": _U64 + "<int of 16610 bits>",
    }),
    "two_quartic_class": Row("two_quartic_class(13)", _P64, {
        **_split_rows("two_quartic_class({})"),
        "two_quartic_class(_HUGE + 1)": _U64 + "<int of 16610 bits>",
    }),
    "quartic_class_of": Row("quartic_class_of(2, 13)", {**_D, **_P64}, {
        **_split_rows("quartic_class_of(3, {})"),
        "quartic_class_of(2, 7)": _PRIME1 + "7",
        "quartic_class_of(2, 85)": _PRIME1 + "85",
        "quartic_class_of(13, 13)": "p must not divide D (bad reduction), got p = 13, D = 13",
        "quartic_class_of(-21, '13')": "p must be an integer, got '13'",
        "quartic_class_of(3, _HUGE)": _U64 + "<int of 16610 bits>",
        "quartic_class_of(3, _HUGE + 1)": _U64 + "<int of 16610 bits>",
    }),
    "quartic_value_of": Row("quartic_value_of(2, 13)", {**_D, **_P64}, {
        **_split_rows("quartic_value_of(3, {})"),
        "quartic_value_of(-21, '13')": "p must be an integer, got '13'",
    }),
    "legendre": Row("legendre(2, 13)", {"a": Int(), **_P64}, {
        **{f"legendre({a}, {p})": _PRIME + str(p) for a, p in [
            (3, 4), (3, 2), (2, 15), (2, 561), (2, 1729), (3, 1729)]},  # 561, 1729: Carmichael
        "legendre(2, 2**64 + 13)": _U64,
        "legendre(3, 2**64 + 13)": _U64,
        "legendre(3, _HUGE + 1)": _U64 + "<int of 16610 bits>",
        "legendre(1, _HUGE)": _U64 + "<int of 16610 bits>",
    }),
    "quartic_symbol": Row(f"quartic_symbol(GI(2, 0), {_PI13})", rejects={
        # associates of primes that are not primary; primary of composite norm; the
        # split 5; the ramified 1+i
        **{f"quartic_symbol(GI(2, 0), GI{z})": f"pi must be primary, got {GI(*z)}"
           for z in ((-3, 2), (-3, -2), (2, 3))},
        **{f"quartic_symbol(GI(2, 0), GI{z})": f"pi must be a Gaussian prime, got {GI(*z)}"
           for z in ((1, 8), (-9, 2), (-15, 0), (5, 0))},
        "quartic_symbol(GI(3, 0), GI(1, 1))": "pi must be primary, got 1+1i",
        "quartic_symbol(GI(2, 0), GI(3, 4 * 10**20 + 2))": "pi must lie over a prime below 2^64",
        # pi itself, 0, and the multiples of pi by a unit, by 1+i and by pi
        **{f"quartic_symbol({lam}, {_PI13})": f"lam = {eval(lam)} shares a factor with pi = 3+2i$"
           for lam in (_PI13, "GI(0, 0)", f"GI(0, 1) * {_PI13}", f"GI(1, 1) * {_PI13}",
                       f"{_PI13} * {_PI13}")},
        "quartic_symbol(3, GI(3, 2))": "lam must be a GaussianInt, got 3",
        "quartic_symbol((3, 0), GI(3, 2))": "lam must be a GaussianInt, got (3, 0)",
        "quartic_symbol(GI(-7, 0), (3, 2))": "pi must be a GaussianInt, got (3, 2)",
        "quartic_symbol(GI(-7, 0), 13)": "pi must be a GaussianInt, got 13",
    }),
    "reciprocity_check": Row("reciprocity_check(GI(1, 4), GI(3, 2))", rejects={
        "reciprocity_check(GI(-1, 4), GI(1, 4))": "lam must be primary, got -1+4i",
        "reciprocity_check(GI(1, 4), GI(-1, 4))": "pi must be primary, got -1+4i",
        "reciprocity_check(GI(-7, 4), GI(1, 4))": "lam must be a Gaussian prime, got -7+4i",
        "reciprocity_check(GI(1, 4), GI(-7, 4))": "pi must be a Gaussian prime, got -7+4i",
        "reciprocity_check(GI(1, 4), GI(1, 4))": "lam = 1+4i shares a factor with pi = 1+4i",
        "reciprocity_check(GI(1, 1), GI(1, 4))": "lam must be primary, got 1+1i",
        "reciprocity_check(GI(1, 4), GI(1, 1))": "pi must be primary, got 1+1i",
        "reciprocity_check(3, GI(3, 2))": "lam must be a GaussianInt, got 3",
        "reciprocity_check((3, 0), GI(3, 2))": "lam must be a GaussianInt, got (3, 0)",
        "reciprocity_check(GI(-7, 0), (3, 2))": "pi must be a GaussianInt, got (3, 2)",
        "reciprocity_check(GI(-7, 0), 13)": "pi must be a GaussianInt, got 13",
    }),
    "gi_divmod": Row("gi_divmod(GI(13, 0), GI(-3, 2))", rejects={
        "gi_divmod(GI(1, 1), GI(0, 0))": "b must be nonzero, got 0",
        "gi_divmod(3, 4)": "a must be a GaussianInt, got 3$",
        "gi_divmod(GI(3, 0), (4, 0))": "b must be a GaussianInt, got (4, 0)$",
    }),
    "gi_gcd": Row("gi_gcd(GI(3, 2), GI(13, 0))", rejects={
        "gi_gcd(GI(0, 0), GI(0, 0))": "a and b must not both be zero",
        "gi_gcd(3, 4)": "a must be a GaussianInt, got 3$",
        "gi_gcd(GI(3, 2), 13)": "b must be a GaussianInt, got 13$",
    }),
    "gi_powmod": Row("gaussian.gi_powmod(GI(2, 0), 5, GI(3, 2))", {"exp": Int("0")}, {
        "gaussian.gi_powmod(2, 5, GI(3, 2))": "base must be a GaussianInt, got 2$",
        "gaussian.gi_powmod(GI(2, 0), 5, 13)": "mod must be a GaussianInt, got 13$",
        "gaussian.gi_powmod(GI(2, 0), 5, GI(0, 0))": "mod must be nonzero, got 0$",
    }),
    "is_primary": Row("is_primary(GI(3, 2))", rejects={
        "is_primary(5)": "z must be a GaussianInt, got 5$",
        "is_primary((3, 2))": "z must be a GaussianInt, got (3, 2)$",
    }),
    "make_primary": Row("make_primary(GI(-3, 2))", rejects={
        "make_primary((3, 2))": "z must be a GaussianInt, got (3, 2)$",
        **{f"make_primary(GI{z})": f"z must be neither zero nor a unit, got {GI(*z)}"
           for z in ((0, 1), (1, 0), (0, 0), (-1, 0))},
        **{f"make_primary(GI{z})": f"z must be odd (of odd norm), got {GI(*z)}"
           for z in ((1, 1), (2, 0))},
    }),
    "hl_admissible": Row("hl_admissible((1, 0, 1))", rejects={
        "hl_admissible((1, 0, 1.5))": "f = (1, 0, 1.5): a coefficient must be an integer",
        "hl_admissible((1, 0))": "f must be an HLPoly or three integers, got (1, 0)",
    }),
    "hl_delta": Row("hl_delta((1, 0, 1), 1000)", {"prime_bound": Int("3", "primes._SIEVE_MAX")}, {
        "hl_delta((1, 0, -1))": "f = HLPoly(a=1, b=0, c=-1) is not admissible",
        "hl_delta((2 * _HUGE, 0, 2))": "f = <HLPoly too large to print> is not admissible",
        "hl_delta((1.5, 0, 1), 1000)": "f = (1.5, 0, 1): a coefficient must be an integer",
        "hl_delta((1, 0, '1'), 1000)": "f = (1, 0, '1'): a coefficient must be an integer, got '1'",
        "hl_delta(5)": "f must be an HLPoly or three integers, got 5",
        "hl_delta((10**400, 0, 1), 1000)": "f has its a past the largest float",
        f"hl_delta(({_EDGE}, 1, 1), 1000)": "f has its a past the largest float",
        "hl_delta((1, 0, 1), 10**10)": "prime_bound must be at most 1000000000, got 10000000000$",
    }),
    "hl_count": Row("hl_count((1, 0, 1), 10)", {"n": Int("0")}, {
        "hl_count((1, 0, 1.0), 10)": "f = (1, 0, 1.0): a coefficient must be an integer",
        # a <= 0: f(x) never leaves [0, n] for good, so the scan would not end
        **{f"hl_count({f}, 10)": f"f must have a > 0, got HLPoly(a={f[0]}, b={f[1]}, c={f[2]})"
           for f in ((-1, 0, 5), (0, 0, 5), (0, -1, 7))},
        # past the cap on the scan's length, 10^7 values: x = 0..10^7 here, and
        # 6.3 * 10^7 values around the vertex (x - 10^9)^2 + 1
        "hl_count((1, 0, 1), hardy_littlewood._HL_COUNT_MAX**2 + 1)":
            "n = 100000000000001 needs 10000001 values of f = HLPoly(a=1, b=0, c=1), more than",
        "hl_count((1, 0, 1), 10**40)": "n = 1" + "0" * 40 + " takes f = HLPoly",
        "hl_count((1, -2 * 10**9, 10**18 + 1), 10**15)": "n = 1" + "0" * 15 + " needs ",
        "hl_count((10**12, 1, 1), 10**21)": "n = 1" + "0" * 21 + " takes f = HLPoly",
        # the vertex at 10^6 + 1/4: the largest value <= n is f(0) = n
        "hl_count((2, -(4 * 10**6 + 1), 2**64 + 7), 2**64 + 7)": "n = 18446744073709551623 takes",
    }),
    "lt_predict": Row("lt_predict(1, 1, 100, 1000000)", {
        **_DR, "N": Int("3", "sys.float_info.max"), "prime_bound": Int("3", "primes._SIEVE_MAX"),
    }, {
        "lt_predict(3, 1, 10.5)": "N must be an integer, got 10.5",
        "lt_predict(-21, 1, 10**6, prime_bound=10**12)": _OVER_BOUND,
        # the +2r density of (1, 3) is 0, and its bound is checked all the same
        "lt_predict(1, 3, 100, prime_bound=2)": "prime_bound must be at least 3, got 2",
        "lt_predict(-21, 1, 2**1024)": "N must be at most 1.7976931348623157e+308, got 1797",
    }),
    "sweep": Row("sweep(1, 1, 100)", {
        # N's lower bound is r^2 + 1, 2 at r = 1
        **_DR, "N": Int("2", "lab._N_MAX"),
    }, {
        "sweep(2.5, 1, 10**4)": "D must be an integer, got 2.5",
        "sweep('2', 1, 10**4)": "D must be an integer, got '2'",
        "sweep(1, 5, 25)": "N must be at least 26, got 25",
        "sweep(1, 1, 1 << 65)": "N must be at most 1000000000000000000, got 36893488147419103232",
        "sweep(1, _HUGE, 5)": "N must be at least <int of 33220 bits>, got 5",
    }),
    "report_emit": Row("report_emit(REPORT)", rejects={
        "report_emit(REPORT, 'xml')": "fmt must be 'json' or 'csv', got 'xml'",
        "report_emit(REPORT, 'json', '/nonexistent-dir/report.json')":
            "path '/nonexistent-dir/report.json' cannot be written",
        "report_emit(None)": "report must be a SweepReport, got None",
    }),
    "TwoSquares": Row("TwoSquares(13, -3, 2)", rejects={
        "TwoSquares(13, 3, 2)": "alpha, beta must split p, got TwoSquares(p=13, alpha=3, beta=2)",
    }),
    "DensityPair": Row("DensityPair(F(1, 4), F(1, 4))", rejects={
        "DensityPair(F(3), F(-1))": "d_plus, d_minus must be densities, got DensityPair(",
    }),
}

# public names with no row, none of which checks an argument of its own
EXEMPT = {
    "cm_threads": "takes no argument",
    **dict.fromkeys(
        ("ClassCounts", "DShape", "DSplit", "SigmaTriple", "SweepReport", "ZeroVerdict", "HLPoly",
         "GaussianInt"),
        "a record with no check of its own",
    ),
    **dict.fromkeys(("FourClass", "QuarticValue"), "an enum: a bad value is Python's ValueError"),
    **dict.fromkeys(("NoRepresentativeFound", "PreconditionError"), "an exception raised here"),
}

# The one exception to the rule, until factorize splits every cofactor below
# 2^64 (ROADMAP item 14): a D that leaves a cofactor past the trial division
# to 10^6 that is no prime below 2^64 is rejected by factorize's name.
BY_FACTORIZE = {
    "split_d(_HUGE + 1, 1)",
    "density_formula((10**9 + 7) * (10**9 + 9), 1)",
    "density_formula(_HUGE + 1, 1)",
    "is_zero_pair(_HUGE + 1, 1)",
}
# rejected only after factorize's trial division to 10^6 (1.3 s on 5,000 digits),
# so past any allocation bound, and run once
AFTER_WORK = BY_FACTORIZE | {"factorize((10**9 + 7) * (10**9 + 9))", "factorize(_HUGE + 1)"}

# CLI requests that exit 2 with stdout empty; stderr is "error: " and this
HUGE_ARG = str(10**4000)  # the cell count and r^2 + 1 pass Python's print limit
CLI = {
    "ap --D 1 --p 2": "ap_naive: p must be an odd prime, got 2",
    "ap --D 2 --p 15": "ap_naive: p must be an odd prime, got 15",
    "ap --D 3 --p 10000019 --method naive": "ap_naive: p must be at most 10000000, got 10000019",
    "ap --D 3 --p 0 --method fast": "ap_fast: p must be at least 3, got 0",
    "density --D 0 --r 1": "density_formula: D must be nonzero, got 0",
    "density --D 5 --r 4294967296 --mode oracle":
        "density_oracle: r must be at most 4294967295, got 4294967296",
    "density --D 1000000007 --r 1 --mode oracle":
        "density_oracle: D with fourth powers stripped must be at most 100000",
    "sweep --D 1 --r 1 --N 1000000000000000001":
        "sweep: N must be at most 1000000000000000000, got 1000000000000000001",
    "sweep --D 1 --r HUGE_ARG --N 5": "sweep: N must be at least <int of ",
    "hl --a 1 --b 0 --c -1": "hl_delta: f = HLPoly(a=1, b=0, c=-1) is not admissible",
    "hl --a 1 --b 0 --c 1 --bound 10000000000":
        "hl_delta: prime_bound must be at most 1000000000, got 10000000000$",
    # the count runs first, so a rejected one prints nothing and a bad bound waits for it
    "hl --a 1000000000000 --b 1 --c 1 --count-to 1" + "0" * 21:
        "hl_count: n = 1" + "0" * 21 + " takes f",
    "hl --a 1 --b 0 --c 1 --bound 2 --count-to 100":
        "hl_delta: prime_bound must be at least 3, got 2$",
    f"hl --a 1 --b {10**400} --c 1 --count-to {10**399}": "hl: --count-to must be at most ",
    "hl --a 1 --b 0 --c 1 --count-to 100000000000001":
        "hl_count: n = 100000000000001 needs 10000001 values",
    "hl --a 1 --b 0 --c 1 --count-to 1" + "0" * 40: "hl_count: n = 1" + "0" * 40 + " takes f",
    "zero-scan --dmax 500 --rmax 500": "zero-scan: --dmax and --rmax span 1002001 (D, r) cells",
    "zero-scan --dmax 3 --rmax 1" + "0" * 20: "zero-scan: --dmax and --rmax span ",
    "zero-scan --dmax 1" + "0" * 20 + " --rmax -1": "zero-scan: --dmax and --rmax span ",
    "zero-scan --dmax HUGE_ARG --rmax HUGE_ARG": "zero-scan: --dmax and --rmax span <int of ",
}

# every cap the table reads, by the expression that reads it; the README states each
CAPS = (
    "primes._U64_MAX", "primes._SIEVE_MAX", "lab._N_MAX", "arith._PROGRESSION_D_MAX",
    "density._ORACLE_R_MAX", "NAIVE_CAP", "hardy_littlewood._HL_COUNT_MAX", "cli._ZERO_SCAN_MAX",
)

NS = {
    **{name: getattr(cmtrace, name) for name in cmtrace.__all__},
    "arith": arith, "cli": cli, "density": density, "gaussian": gaussian,
    "hardy_littlewood": hardy_littlewood, "lab": lab, "primes": primes,
    "sieve_primes": sieve_primes, "GI": GI, "F": F, "np": np, "sys": sys, "_HUGE": _HUGE,
    "REPORT": cmtrace.sweep(1, 1, 100),
}


def _parts(row: Row) -> tuple[str, list[str], list[str]]:
    """The function of row's valid call, its argument texts and its parameter names."""
    node = ast.parse(row.call, mode="eval").body
    fn = ast.unparse(node.func)
    params = list(inspect.signature(eval(fn, NS)).parameters)
    return fn, [ast.unparse(a) for a in node.args], params


def _generated(row: Row):
    """The rejected calls row's integer parameters imply, each with its message."""
    fn, args, params = _parts(row)

    def put(i: int, text: str) -> str:
        return f"{fn}({', '.join(args[:i] + [text] + args[i + 1:])})"

    for name, spec in row.ints.items():
        i = params.index(name)
        value = eval(args[i], NS)
        for bad in (float(value), value + 0.5, str(value)):
            yield put(i, repr(bad)), f"{name} must be an integer, got {bad!r}$"
        if spec.nonzero:
            yield put(i, "0"), f"{name} must be nonzero, got 0$"
        what = name + " with fourth powers stripped" * spec.stripped
        for bound, side, step, huge in ((spec.lo, "least", "- 1", "-_HUGE"),
                                        (spec.hi, "most", "+ 1", "_HUGE")):
            if bound is None:
                continue
            edge = eval(bound, NS)
            past = f"int({bound}) {step}" if isinstance(edge, float) else f"{bound} {step}"
            message = f"{what} must be at {side} {edge}, got "
            yield put(i, past), message + f"{eval(past, NS)}$"
            if not spec.stripped:  # a huge D may have a fourth power to strip
                sign = "negative " * huge.startswith("-")
                yield put(i, huge), message + f"<{sign}int of 16610 bits>$"


CASES = {
    call: (entry, message)
    for entry, row in ROWS.items()
    for call, message in [*_generated(row), *row.rejects.items()]
}


def _expected(call: str) -> str:
    entry, message = CASES[call]
    return f"{'factorize' if call in BY_FACTORIZE else entry}: {message}"


def _matches(message: str, want: str) -> bool:
    return message == want[:-1] if want.endswith("$") else message.startswith(want)


def _message(call: str) -> str:
    with pytest.raises(PreconditionError) as err:
        eval(call, NS)
    return str(err.value)


@pytest.mark.parametrize("call", list(CASES))
def test_rejected_by_the_entry_called(call):
    entry, message = CASES[call]
    params = _parts(ROWS[entry])[2]
    # the message names one of the entry's parameters first
    assert call in BY_FACTORIZE or message.split()[0].strip(",:") in params
    t0 = time.perf_counter()
    if call in AFTER_WORK:
        got = _message(call)
    else:
        # raised at entry: under 64 kB allocated, where sieve_primes(10^9 + 1) would need 0.5 GB
        tracemalloc.start()
        try:
            got = _message(call)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, peak
    assert _matches(got, _expected(call)), got
    assert time.perf_counter() - t0 < 5


def test_rejections_survive_python_O():
    # the whole table in one interpreter with asserts stripped, less the
    # calls that pay for factorize's trial division
    calls = [call for call in CASES if call not in AFTER_WORK]
    script = (
        "import json, sys, test_contracts as t\n"
        "print(json.dumps([t._message(c) for c in json.load(sys.stdin)]))"
    )
    dirs = (Path(cmtrace.__file__).resolve().parent.parent, Path(__file__).resolve().parent)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], input=json.dumps(calls),
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, dirs))},
    ).stdout
    bad = [(c, m) for c, m in zip(calls, json.loads(out)) if not _matches(m, _expected(c))]
    assert bad == []


def _cli(argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.replace("HUGE_ARG", HUGE_ARG).split())
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", list(CLI))
def test_cli_rejection_exits_2(argv):
    code, out, err = _cli(argv)
    assert code == 2 and out == ""
    assert _matches(err.removesuffix("\n"), "error: " + CLI[argv]), err


def _typed(x):
    # x with each value tagged by its type, so np.int64(5) and 5 differ on any numpy
    if isinstance(x, cmtrace.SweepReport):
        x = dataclasses.replace(x, elapsed_seconds=0.0)
    if dataclasses.is_dataclass(x):
        return type(x).__name__, *(_typed(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(map(_typed, x))
    if isinstance(x, dict):
        return tuple((_typed(k), _typed(v)) for k, v in x.items())
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.tolist()
    return type(x).__name__, x


@pytest.mark.parametrize("entry", [entry for entry, row in ROWS.items() if row.ints])
def test_numpy_integers_give_the_int_result(entry):
    row = ROWS[entry]
    fn, args, params = _parts(row)
    want = _typed(eval(row.call, NS))
    # each integer parameter alone, then all of them at once
    for chosen, kind in itertools.product([{n} for n in row.ints] + [set(row.ints)],
                                          ("int64", "uint64")):
        wrapped = [
            f"np.{kind}({a})" if params[i] in chosen and (kind == "int64" or eval(a, NS) >= 0)
            else a
            for i, a in enumerate(args)
        ]
        assert _typed(eval(f"{fn}({', '.join(wrapped)})", NS)) == want, wrapped


def _render(value: int) -> str:
    # a cap as the README writes it
    k = len(str(value)) - 1
    if value == 10**k:
        return f"10^{k}"
    b = value.bit_length()
    return f"2^{b} − 1" if value == 2**b - 1 else str(value)


@pytest.mark.parametrize("cap", CAPS)
def test_readme_states_each_cap(cap):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"`{cap}` = {_render(eval(cap, NS))}" in readme


@functools.cache
def _checked(name: str) -> None:
    # every check of the table on one entry point or CLI subcommand; a pass
    # is remembered, so the ids legacy() keeps rerun each name's rows once,
    # not once per id
    assert name in ROWS or name in {argv.split()[0] for argv in CLI}, name
    for argv in (a for a in CLI if a.split()[0] == name):
        test_cli_rejection_exits_2(argv)
    for call, (entry, _) in CASES.items():
        if entry == name and call not in AFTER_WORK:
            assert _matches(_message(call), _expected(call)), call
    if name in ROWS and ROWS[name].ints:
        test_numpy_integers_give_the_int_result(name)


def legacy(*names: str, ids: list[str] | None = None):
    """A test under the id of an earlier rejection test, kept so that each id of
    the suite still runs: it checks the rows of the entry points or CLI
    subcommands it names, or, given ids, of the entry point each id begins
    with. The calls rejected only after factorize's trial division run only in
    test_rejected_by_the_entry_called."""
    def run(case: str = "") -> None:
        for name in names or [re.split(r"[ \-(]", case)[0]]:
            _checked(name)

    if ids is None:
        return lambda: run()

    @pytest.mark.parametrize("case", ids)
    def test(case):
        run(case)

    return test
