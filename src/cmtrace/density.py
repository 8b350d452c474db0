"""Exact densities of the trace classes a_p = ±2r, and their zero sets.

density_formula evaluates the closed forms: among primes p = r^2 + y^2 (the
only p ≡ 1 (mod 4) that can have a_p = ±2r at all), the fraction of residue
classes whose trace comes out +2r, and the fraction giving -2r, as exact
rationals. density_oracle measures the same two numbers by walking every
progression class, finding an actual prime in each, and computing its trace;
it shares no formulas with the closed forms, which is what makes the
agreement test meaningful.

All formulas are stated for a normalized trace parameter (odd r: the
representative ≡ 1 mod 4; singly-even r: the representative ≡ 2 mod 8).
_normalize handles the bookkeeping and the final swap back to the caller's
orientation.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .arith import (
    _PROGRESSION_D_MAX,
    DShape,
    DSplit,
    _split_d,
    _tau_prime,
    progression_set,
    rho,
    v2,
)
from .errors import NoRepresentativeFound, PreconditionError, _as_int, _nonzero_int, _show
from .frobenius import _ap_kernel
from .gaussian import GaussianInt
from .hardy_littlewood import HLPoly, _hl_delta
from .primes import _SIEVE_MAX, is_prime_u64
from .residue_symbols import FourClass, _trace_class, class_to_value

__all__ = [
    "DensityPair",
    "ClassCounts",
    "SigmaTriple",
    "ZeroVerdict",
    "density_formula",
    "density_oracle",
    "sigma_sums",
    "is_zero_pair",
    "lt_constant",
]


@dataclass(frozen=True, slots=True)
class DensityPair:
    """Densities of a_p = +2r (d_plus) and a_p = -2r (d_minus)."""

    d_plus: Fraction
    d_minus: Fraction

    def __post_init__(self):
        if not (0 <= self.d_plus and 0 <= self.d_minus and self.d_plus + self.d_minus <= 1):
            raise PreconditionError(
                f"DensityPair: d_plus, d_minus must be densities, got {_show(self)}"
            )


@dataclass(frozen=True, slots=True)
class ClassCounts:
    """How many progression classes landed in each trace class.

    Counted against the normalized decomposition of each representative
    prime (alpha ≡ 1 mod 4, beta > 0), not against r's sign.
    """

    x_alpha: int
    x_minus_alpha: int
    x_beta: int
    x_minus_beta: int

    @property
    def total(self) -> int:
        return self.x_alpha + self.x_minus_alpha + self.x_beta + self.x_minus_beta


@dataclass(frozen=True, slots=True)
class SigmaTriple:
    """Character sums over one representative prime per progression class.

    sigma counts classes, sigma2 sums the quadratic symbol of D, sigma4 the
    quartic symbol (a Gaussian integer). The _i / _ii parts split by the
    parity of the class index k (odd k / even k), which is the split the
    closed forms are built from.
    """

    sigma: int
    sigma2: int
    sigma4: GaussianInt
    sigma_i: int
    sigma_ii: int
    sigma2_i: int
    sigma2_ii: int
    sigma4_i: GaussianInt
    sigma4_ii: GaussianInt


@dataclass(frozen=True, slots=True)
class ZeroVerdict:
    """Whether each side's density vanishes, and the matched table row if any."""

    D: int
    r: int
    plus_zero: bool
    minus_zero: bool
    table_row: str | None


# ---------------------------------------------------------------------------
# closed forms
#
# Each helper takes the split of the reduced D against the normalized m
# (split.D, split.r), built by _closed_form from one factorization of D.
# The pair helpers return m's (d_plus, d_minus) as a plain tuple, and
# _closed_form builds the one DensityPair, in the caller's orientation.


def _T1(split: DSplit) -> int:
    # weight over dbar's odd primes of exponent 1 and 3
    sh = split.shape_dbar
    return prod(_tau_prime(l) for l in sh.p_list + sh.l_list)


def _T2(split: DSplit) -> int:
    # weight over all of dbar's odd primes
    sh = split.shape_dbar
    return prod(_tau_prime(l) for l in sh.p_list + sh.q_list + sh.l_list)


def _odd_exp(sh: DShape, *residues: int) -> int:
    # the primes of exponent 1 or 3 in sh that lie in the given classes mod 8
    return sum(l & 7 in residues for l in sh.p_list + sh.l_list)


def _base(split: DSplit, sign: int = 1) -> Fraction:
    """(1/4)(1 + sign * (-1)^(r''+t'') / T1), r''+t'' counting dbar's odd-exponent primes."""
    sh = split.shape_dbar
    t1 = _T1(split)
    return Fraction(t1 - sign if (sh.r + sh.t) % 2 else t1 + sign, 4 * t1)


def _sym_pair(split: DSplit, sign: int) -> tuple[Fraction, Fraction]:
    v = _base(split, sign)
    return v, v


def _odd_asym(D: int, sigma: int) -> bool:
    # the odd-trace block where the two sides differ
    return (sigma == 0 and D % 4 == 1) or (sigma == 2 and (D // 4) % 4 == 3)


def _odd_pair(split: DSplit) -> tuple[Fraction, Fraction]:
    """Densities of (a_p = 2*alpha, a_p = -2*alpha), alpha = split.r ≡ 1 (mod 4)."""
    sigma = split.shape_dbar.sigma
    if sigma in (1, 3):
        quarter = Fraction(1, 4)
        return quarter, quarter
    if not _odd_asym(split.D, sigma):
        return _sym_pair(split, +1)
    base = _base(split)
    e = _odd_exp(split.shape_d, 3, 5) + _odd_exp(split.shape_dbar, 1, 7) + split.shape_dbar.s
    term = Fraction((-1) ** e, 2 * _T2(split))
    return base + term, base - term


def _even_pair(split: DSplit) -> tuple[Fraction, Fraction]:
    """Densities of (a_p = 2m, a_p = -2m), even m = split.r; 2||m implies m ≡ 2 (mod 8)."""
    D, sh_db = split.D, split.shape_dbar
    sigma = sh_db.sigma
    if v2(split.r) >= 2 or sigma in (0, 2):
        # symmetric across the board; vanishes iff dbar has no odd prime
        return _sym_pair(split, -1)
    # now 2||m (m ≡ 2 mod 8 by normalization) and sigma in {1, 3}
    if sh_db.r + sh_db.s + sh_db.t == 0:
        # dbar is ±2 or ±8: one side takes everything
        if sigma == 1:
            plus_takes_all = (D // 2) % 4 == 1
        else:
            plus_takes_all = (D // 8) % 4 == 3
        one, zero = Fraction(1), Fraction(0)
        return (one, zero) if plus_takes_all else (zero, one)
    base = _base(split)
    e = _odd_exp(sh_db, 1, 5) + sh_db.s + ((split.d - 1) // 2)
    term = Fraction((-1) ** e, 2 * _T2(split))
    if (sigma == 1) != (D > 0):
        term = -term
    return base + term, base - term


def _normalize(r: int) -> tuple[int, bool]:
    """Normalized trace parameter and whether the output pair must swap.

    Odd r maps to the representative ≡ 1 (mod 4); singly even r to the one
    ≡ 2 (mod 8); doubly even r to |r|. The swap records that the caller's
    +2r is the normalized -2m.
    """
    if r % 2:
        m = r if r % 4 == 1 else -r
    elif r % 4 == 2:
        m = r if r % 8 == 2 else -r
    else:
        m = abs(r)
    return m, m != r


def _check_pair(entry: str, D, r) -> tuple[int, int]:
    # D and r of a closed form as nonzero ints, rejected by entry's name
    return _nonzero_int(D, f"{entry}: D"), _nonzero_int(r, f"{entry}: r")


def _closed_form(D: int, r: int, entry: str) -> tuple[DSplit, DensityPair, bool]:
    """The split of the reduced D against the normalized m, the densities of
    a_p = +2r and -2r for the caller's r, and whether they are m's swapped
    (D, r checked by the entry point named entry)."""
    m, swap = _normalize(r)
    split = _split_d(D, m, entry)
    plus, minus = _odd_pair(split) if m % 2 else _even_pair(split)
    if swap:
        plus, minus = minus, plus
    return split, DensityPair(plus, minus), swap


def density_formula(D: int, r: int) -> DensityPair:
    """Exact densities of a_p = +2r and a_p = -2r among p = r^2 + y^2.

    The density is over the 2|D| progression classes (equivalently, natural
    density along the progression primes). D is reduced by fourth powers
    first; both inputs must be nonzero, and D must pass factorize (at most
    one prime factor above 10^6, and that one below 2^64).
    """
    return _closed_form(*_check_pair("density_formula", D, r), "density_formula")[1]


# ---------------------------------------------------------------------------
# the progression oracle


# the oracles search p = r^2 + y^2 with is_prime_u64, and from |r| = 2^32 on
# every such p is 2^64 or more
_ORACLE_R_MAX = (1 << 32) - 1


def _find_representative(name: str, D: int, D_abs: int, r: int, k: int, x_max: int) -> int:
    """The first leg y of class k with r^2 + y^2 prime; a failure names the oracle and D."""
    r2 = r * r
    base = 2 * k + rho(r)
    step = 4 * D_abs
    for x in range(x_max + 1):
        y = step * x + base
        if is_prime_u64(r2 + y * y):
            return y
    err = NoRepresentativeFound(D, r, k, x_max)
    err.args = (f"{name}: {err}",)
    raise err


def _class_walk(name: str, D: int, r: int, x_max: int) -> tuple[int, int, Iterator]:
    """Check the oracles' arguments; return the reduced D, r and a lazy class walk.

    The walk yields (k, y, a_p) per class k: y is the first leg with p = r^2 + y^2
    prime, a_p the trace at p (p is odd and coprime to D: good reduction). The
    cap on D, progression_set's, holds for D with its fourth powers stripped.
    """
    x_max = _as_int(x_max, f"{name}: x_max", lo=0)
    D = _nonzero_int(D, f"{name}: D")
    r = _nonzero_int(r, f"{name}: r", -_ORACLE_R_MAX, _ORACLE_R_MAX)
    D0 = _split_d(D, r, name).D  # D with its fourth powers stripped
    _as_int(D0, f"{name}: D with fourth powers stripped", -_PROGRESSION_D_MAX, _PROGRESSION_D_MAX)
    ks = progression_set(D0, r)

    def walk():
        for k in ks:
            y = _find_representative(name, D, abs(D0), r, k, x_max)
            yield k, y, _ap_kernel(D0, r, y)

    return D0, r, walk()


def density_oracle(
    D: int, r: int, x_max: int = 100_000
) -> tuple[DensityPair, ClassCounts]:
    """Measure the densities by brute force, one prime per progression class.

    Every class k gets an actual prime p = r^2 + (4|D|x + 2k + rho)^2 (first
    x wins), its trace is computed, and the four outcomes are tallied. The
    trace of the class is well defined: primes in one class share their
    quartic data, which a dedicated test checks separately.
    """
    _, r, walk = _class_walk("density_oracle", D, r, x_max)
    traces = [a for _, _, a in walk]
    n = len(traces)
    pair = DensityPair(Fraction(traces.count(2 * r), n), Fraction(traces.count(-2 * r), n))
    classes = [_trace_class(a) for a in traces]
    counts = ClassCounts(*(classes.count(c) for c in FourClass))  # fields in FourClass order
    return pair, counts


def sigma_sums(D: int, r: int, x_max: int = 100_000) -> SigmaTriple:
    """Quadratic and quartic symbol sums over class representatives (odd D).

    One prime per progression class, as in density_oracle; sums the
    quadratic symbol (D/p) and the quartic value of D at p, split by the
    parity of k. These are the raw sums the closed forms solve for, so the
    identities relating them to the class counts make good cross-checks.
    """
    D0, r, walk = _class_walk("sigma_sums", D, r, x_max)
    if D0 % 2 == 0:
        raise PreconditionError(
            f"sigma_sums: D must be odd once fourth powers are stripped, got {_show(D)}"
        )
    # indexed by the parity of k: classes, quadratic symbols (D/p), quartic values
    n, s2, s4 = [0, 0], [0, 0], [GaussianInt(0, 0)] * 2
    for k, y, a in walk:
        cls = _trace_class(a)
        j = k % 2
        n[j] += 1
        # D is a square mod p exactly on the ±alpha classes
        s2[j] += 1 if cls in (FourClass.PLUS_ALPHA, FourClass.MINUS_ALPHA) else -1
        s4[j] += class_to_value(cls, abs(y if r % 2 else r)).to_gaussian()
    return SigmaTriple(
        sigma=n[1] + n[0],
        sigma2=s2[1] + s2[0],
        sigma4=s4[1] + s4[0],
        sigma_i=n[1],
        sigma_ii=n[0],
        sigma2_i=s2[1],
        sigma2_ii=s2[0],
        sigma4_i=s4[1],
        sigma4_ii=s4[0],
    )


# ---------------------------------------------------------------------------
# vanishing: formula-derived verdicts plus the published row patterns
#
# The row helpers return (row id, plus_zero, minus_zero) for the normalized
# m: which sides of a_p = ±2m the published row says vanish.


def _odd_zero_row(split: DSplit) -> tuple[str, bool, bool] | None:
    """Literal odd-trace row patterns; exactly one side is the zero.

    The three rows share the shape |dbar| in {1,4} x {1,3,5,27,125}; the
    parity that picks the zero side comes from the prime counts ≡ 3,5 (mod 8).
    """
    sh_db = split.shape_dbar
    sigma = sh_db.sigma
    if not _odd_asym(split.D, sigma):
        return None
    s = _odd_exp(split.shape_d, 3, 5)
    dbar_odd = abs(split.dbar) >> sigma
    if dbar_odd == 1:
        s += _odd_exp(sh_db, 3, 5)
        row = "odd:unit-cofactor"
    elif dbar_odd in (3, 5, 27, 125):
        row = "odd:prime-cofactor" if sigma == 0 else "odd:prime-cofactor-x4"
    else:
        return None
    return (row, s % 2 == 1, s % 2 == 0)


_EVEN_MIXED_PLUS = {2 * 5, 2 * 125, -2 * 3, -2 * 27, -8 * 5, -8 * 125, 8 * 3, 8 * 27}
_EVEN_MIXED_MINUS = {2 * 3, 2 * 27, -2 * 5, -2 * 125, -8 * 3, -8 * 27, 8 * 5, 8 * 125}


def _even_zero_row(split: DSplit) -> tuple[str, bool, bool] | None:
    """Literal even-trace rows."""
    D0, dbar, sh_db = split.D, split.dbar, split.shape_dbar
    if sh_db.sigma in (0, 2):
        # m divisible by every odd prime of D0, i.e. all of them went to d
        if sh_db.r + sh_db.s + sh_db.t == 0:
            return ("even:radical", True, True)
        return None
    if v2(split.r) != 1:
        return None  # the published rows only cover 2||beta here
    if dbar in (2, -2):
        plus_zero = (D0 // 2) % 4 == 3
        return ("even:cofactor-2", plus_zero, not plus_zero)
    if dbar in (8, -8):
        plus_zero = (D0 // 8) % 4 == 1
        return ("even:cofactor-8", plus_zero, not plus_zero)
    if dbar in _EVEN_MIXED_PLUS:
        plus_zero = split.d % 4 == 1
        return ("even:mixed", plus_zero, not plus_zero)
    if dbar in _EVEN_MIXED_MINUS:
        plus_zero = split.d % 4 == 3
        return ("even:mixed", plus_zero, not plus_zero)
    return None


def is_zero_pair(D: int, r: int) -> ZeroVerdict:
    """Formula-derived vanishing for both signs, tagged with the matched row.

    The verdict always comes from the closed forms. table_row reports which
    published row pattern (if any) covers the instance; wherever a row
    matches, the two are checked to agree (an AssertionError, also under
    python -O), so a silent divergence cannot hide here.
    """
    D, r = _check_pair("is_zero_pair", D, r)
    split, pair, swap = _closed_form(D, r, "is_zero_pair")
    hit = (_odd_zero_row if r % 2 else _even_zero_row)(split)
    row, z_plus, z_minus = hit or (None, False, False)
    if swap:  # the rows name the sides of the normalized m
        z_plus, z_minus = z_minus, z_plus
    plus_zero, minus_zero = pair.d_plus == 0, pair.d_minus == 0
    if (z_plus and not plus_zero) or (z_minus and not minus_zero):
        raise AssertionError(f"zero row disagrees with formula at (D={_show(D)}, r={_show(r)})")
    return ZeroVerdict(D=D, r=r, plus_zero=plus_zero, minus_zero=minus_zero, table_row=row)


# ---------------------------------------------------------------------------
# Lang-Trotter constants


def lt_constant(D: int, r: int, prime_bound: int = 1_000_000) -> float:
    """The constant in pi_{D,2r}(N) ~ C * sqrt(N)/log N.

    Product of the universal quadratic-progression constant for r^2 + y^2
    (truncated Euler product over p <= prime_bound) and the exact class
    density of a_p = +2r. Exactly 0.0 when the density side vanishes.
    """
    D, r = _check_pair("lt_constant", D, r)
    prime_bound = _as_int(prime_bound, "lt_constant: prime_bound", 3, _SIEVE_MAX)
    return _lt_constant(_closed_form(D, r, "lt_constant")[1], r, prime_bound)


def _lt_constant(pair: DensityPair, r: int, prime_bound: int) -> float:
    # lt_constant on the density pair of (D, r), for callers that hold it and
    # have checked r and prime_bound. x^2 + r^2 with r != 0 is always
    # admissible, so hl_delta's checks would pass, and its memo is read directly
    return _hl_delta(HLPoly(1, 0, r * r), prime_bound) * float(pair.d_plus)
