"""Integer bookkeeping for the density formulas.

The closed-form densities only see D through a small amount of structure:
the 2-adic valuation, the odd primes split by residue mod 8 and by exponent
(1, 2, or 3 after fourth-power reduction), and how that factors against r.
DShape captures the structure of one integer, DSplit the interaction with r,
and progression_set lists the residue classes the progression oracle walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod

from .errors import PreconditionError, _as_int, _nonzero_int, _show
from .primes import _U64_MAX, is_prime_u64

_TRIAL_BOUND = 10**6


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division up to 10^6, n != 0.

    The cofactor left at that bound must be 1 or a prime below 2^64;
    anything else raises PreconditionError instead of grinding on, and so
    does a non-integer n.
    """
    return _factorize(_nonzero_int(n, "factorize: n"), "factorize", "n")


def _factorize(n: int, entry: str, arg: str = "D") -> dict[int, int]:
    # factorize on a checked nonzero int; a cofactor that fails names entry and its arg
    n = abs(n)
    out: dict[int, int] = {}
    f, pair = -1, (2, 3)
    while pair:
        for p in pair:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f = _wheel_divisor(n, f + 6)
        pair = (f, f + 2) if f else ()
    # n is 1 or a prime unless it is past _TRIAL_BOUND^2
    if n > _TRIAL_BOUND**2 and (n > _U64_MAX or not is_prime_u64(n)):
        raise PreconditionError(f"{entry}: {arg} leaves the cofactor {_show(n)} after trial "
                                f"division to {_TRIAL_BOUND}, which is not a prime below 2^64")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _wheel_divisor(n: int, f: int) -> int:
    # the f of the first pair (f, f + 2), (f + 6, f + 8), ... to min(√n, 10^6) dividing n, else 0
    for f in range(f, min(isqrt(n), _TRIAL_BOUND) + 1, 6):
        if not (n % f and n % (f + 2)):
            return f
    return 0


def v2(n: int) -> int:
    """2-adic valuation of n != 0."""
    if n == 0:
        raise PreconditionError("v2(0)")
    n = abs(n)
    return (n & -n).bit_length() - 1


def tau(D: int) -> int:
    """The local weight attached to D's prime powers.

    Multiplicative; on l^e it is l^e unless l ≡ 1 (mod 4), where one factor
    of l is traded for l-2 (the split primes cost a class): l^(e-1) * (l-2).
    tau(±1) = 1 and tau(2^e) = 2^e.
    """
    fac = _factorize(_nonzero_int(D, "tau: D"), "tau")
    return prod(l ** (e - 1) * _tau_prime(l) for l, e in fac.items())


def _tau_prime(l: int) -> int:
    """tau of the prime l: l - 2 for l ≡ 1 (mod 4), l otherwise."""
    return l - 2 if l % 4 == 1 else l


def euler_phi(n: int) -> int:
    out = 1
    for p, e in _factorize(_nonzero_int(n, "euler_phi: n"), "euler_phi", "n").items():
        out *= p ** (e - 1) * (p - 1)
    return out


def rad_odd(n: int) -> int:
    """Product of the distinct odd primes dividing n (1 if none)."""
    return prod(p for p in _factorize(_nonzero_int(n, "rad_odd: n"), "rad_odd", "n") if p != 2)


@dataclass(frozen=True, slots=True)
class DShape:
    """Structure of a fourth-power-free integer.

    Odd primes are binned by exponent: p_list (exponent 1), q_list (2),
    l_list (3). The shape holds only the bins, so it hashes; r, s and t are
    their sizes, and r_counts / t_counts histogram the exponent-1 /
    exponent-3 primes by residue mod 8, a fresh dict on each read.
    """

    sign: int
    sigma: int  # 2-adic valuation, 0..3
    p_list: tuple[int, ...]
    q_list: tuple[int, ...]
    l_list: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.p_list)

    @property
    def s(self) -> int:
        return len(self.q_list)

    @property
    def t(self) -> int:
        return len(self.l_list)

    @property
    def r_counts(self) -> dict[int, int]:
        return {i: sum(l & 7 == i for l in self.p_list) for i in (1, 3, 5, 7)}

    @property
    def t_counts(self) -> dict[int, int]:
        return {i: sum(l & 7 == i for l in self.l_list) for i in (1, 3, 5, 7)}

    @property
    def value(self) -> int:
        v = self.sign * 2**self.sigma
        v *= prod(self.p_list) * prod(q * q for q in self.q_list)
        v *= prod(l**3 for l in self.l_list)
        return v


def shape_of(D: int) -> DShape:
    D = _nonzero_int(D, "shape_of: D")
    fac = _factorize(D, "shape_of")
    if any(e >= 4 for e in fac.values()):
        raise PreconditionError(f"shape_of: D must be fourth-power-free, got {_show(D)}")
    return _shape(1 if D > 0 else -1, fac)


def _shape(sign: int, fac: dict[int, int]) -> DShape:
    """DShape of sign * prod(l**e for l, e in fac), exponents below 4, with
    fac's primes in increasing order, as factorize gives them."""
    bins = {1: [], 2: [], 3: []}
    for l, e in fac.items():
        if l != 2:
            bins[e].append(l)
    return DShape(sign, fac.get(2, 0), tuple(bins[1]), tuple(bins[2]), tuple(bins[3]))


@dataclass(frozen=True, slots=True)
class DSplit:
    """D = d * dbar split against r, D reduced by fourth powers.

    d collects the full power of every odd prime of D that divides r, so
    d > 0 is odd, rad(d) | r, gcd(d, dbar) = 1 and gcd(r, odd part of dbar)
    = 1. The formulas read d's primes through shape_d (the "primed" counts)
    and dbar's through shape_dbar (the "double-primed" ones).
    """

    D: int
    r: int
    d: int
    dbar: int
    shape_d: DShape
    shape_dbar: DShape


def split_d(D: int, r: int) -> DSplit:
    return _split_d(_nonzero_int(D, "split_d: D"), _nonzero_int(r, "split_d: r"), "split_d")


def _split_d(D: int, r: int, entry: str) -> DSplit:
    # split_d on checked, nonzero ints, for the entry point named entry
    fac = {l: e % 4 for l, e in _factorize(D, entry).items() if e % 4}
    sign = 1 if D > 0 else -1
    fac_d = {l: e for l, e in fac.items() if l != 2 and r % l == 0}
    fac_dbar = {l: e for l, e in fac.items() if l not in fac_d}
    d = prod(l**e for l, e in fac_d.items())
    dbar = sign * prod(l**e for l, e in fac_dbar.items())
    shape_d, shape_dbar = _shape(1, fac_d), _shape(sign, fac_dbar)
    return DSplit(D=d * dbar, r=r, d=d, dbar=dbar, shape_d=shape_d, shape_dbar=shape_dbar)


def rho(r: int) -> int:
    """Parity offset of the progression: 0 for odd r, 1 for even."""
    return 0 if _as_int(r, "rho: r") % 2 else 1


# the classes are walked one gcd at a time, 2|D| of them
_PROGRESSION_D_MAX = 10**5


def progression_set(D: int, r: int) -> tuple[int, ...]:
    """The residue classes k whose progression can contain good primes.

    For trace parameter r the candidate primes are p = r^2 + y^2 with
    y = 4*|D|*x + 2k + rho(r); k runs over 1..2|D| and survives iff
    gcd(|D|, (2k + rho)^2 + r^2) = 1. Returns the surviving k in increasing
    order, for 0 < |D| <= 10^5 and r != 0.
    """
    D = _nonzero_int(D, "progression_set: D", -_PROGRESSION_D_MAX, _PROGRESSION_D_MAX)
    D_abs = abs(D)
    r = _nonzero_int(r, "progression_set: r")
    off = rho(r)
    return tuple(
        k for k in range(1, 2 * D_abs + 1) if gcd(D_abs, (2 * k + off) ** 2 + r * r) == 1
    )


def reduce_quartic_twist(D: int) -> int:
    """Strip fourth powers from D; the curve's traces only see the result."""
    D = _nonzero_int(D, "reduce_quartic_twist: D")
    out = 1 if D > 0 else -1
    for l, e in _factorize(D, "reduce_quartic_twist").items():
        out *= l ** (e % 4)
    return out

