"""Traces of Frobenius for the curves y^2 = x^3 + D*x.

Three independent trace computations, exact densities for the classes
a_p = ±2r with their vanishing patterns, Hardy-Littlewood constants, and
an empirical sweep harness that checks the lot against reality.
"""

__version__ = "0.1.0"

from .arith import (
    DShape,
    DSplit,
    euler_phi,
    factorize,
    progression_set,
    rad_odd,
    reduce_quartic_twist,
    rho,
    shape_of,
    split_d,
    tau,
)
from .density import (
    ClassCounts,
    DensityPair,
    SigmaTriple,
    ZeroVerdict,
    density_formula,
    density_oracle,
    is_zero_pair,
    lt_constant,
    sigma_sums,
)
from .errors import NoRepresentativeFound, PreconditionError
from .frobenius import (
    NAIVE_CAP,
    ap_binomial_residue,
    ap_fast,
    ap_naive,
)
from .gaussian import (
    GaussianInt,
    TwoSquares,
    gi_divmod,
    gi_gcd,
    is_primary,
    make_primary,
    primary_prime_above,
    sqrt_minus_one,
    two_squares,
)
from .hardy_littlewood import HLPoly, hl_admissible, hl_count, hl_delta
from .lab import SweepReport, lt_predict, report_emit, sweep
from .primes import is_prime_u64
from .residue_symbols import (
    FourClass,
    QuarticValue,
    legendre,
    quartic_class_of,
    quartic_symbol,
    quartic_value_of,
    reciprocity_check,
    two_quartic_class,
)

__all__ = [
    "__version__",
    "ClassCounts",
    "DensityPair",
    "DShape",
    "DSplit",
    "FourClass",
    "GaussianInt",
    "HLPoly",
    "NAIVE_CAP",
    "NoRepresentativeFound",
    "PreconditionError",
    "QuarticValue",
    "SigmaTriple",
    "SweepReport",
    "TwoSquares",
    "ZeroVerdict",
    "ap_binomial_residue",
    "ap_fast",
    "ap_naive",
    "cm_threads",
    "density_formula",
    "density_oracle",
    "euler_phi",
    "factorize",
    "gi_divmod",
    "gi_gcd",
    "hl_admissible",
    "hl_count",
    "hl_delta",
    "is_prime_u64",
    "is_primary",
    "is_zero_pair",
    "legendre",
    "lt_constant",
    "lt_predict",
    "make_primary",
    "primary_prime_above",
    "progression_set",
    "quartic_class_of",
    "quartic_symbol",
    "quartic_value_of",
    "rad_odd",
    "reciprocity_check",
    "reduce_quartic_twist",
    "report_emit",
    "rho",
    "shape_of",
    "sigma_sums",
    "split_d",
    "sqrt_minus_one",
    "sweep",
    "tau",
    "two_quartic_class",
    "two_squares",
]


def cm_threads() -> int:
    """Worker count of the drivers: 1, since every driver runs serially."""
    return 1
