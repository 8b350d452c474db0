"""Acceptance battery: every headline behavior, one PASS/FAIL line each.

Run with -s (or look at failure output) to see the lines. Each test prints
its verdict and then asserts it, so the battery both reports and enforces.
The tests are ordered; later ones lean on caches the earlier ones warm up,
but every one stands alone if run with -k.
"""

import random
import time
from math import gcd, log, sqrt

from cmtrace.arith import euler_phi, reduce_quartic_twist, split_d, tau
from cmtrace.density import density_formula, density_oracle, is_zero_pair, sigma_sums
from cmtrace.frobenius import ap_binomial_residue, ap_fast, ap_naive
from cmtrace.gaussian import GaussianInt, primary_prime_above, two_squares
from cmtrace.hardy_littlewood import hl_count, hl_delta
from cmtrace.lab import lt_predict, sweep
from cmtrace.primes import sieve_primes
from cmtrace.residue_symbols import (
    quartic_class_of,
    reciprocity_check,
    two_quartic_class,
)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num:02d} {label}: {status}{extra}"
    print(line)
    assert ok, line


def _grid_D(bound: int):
    return [
        D
        for D in range(-bound, bound + 1)
        if D != 0 and reduce_quartic_twist(D) == D
    ]


def test_criterion_01_oracle_equals_formula_full_grid():
    t0 = time.perf_counter()
    pairs = 0
    mismatches = []
    for D in _grid_D(100):
        for r in [x for x in range(-12, 13) if x != 0]:
            f = density_formula(D, r)
            o, _ = density_oracle(D, r, x_max=100_000)
            pairs += 1
            if f != o:
                mismatches.append((D, r, str(f), str(o)))
    _report(
        1,
        "density oracle equals closed form on the full grid",
        not mismatches,
        f"{pairs} (D, r) pairs, {len(mismatches)} mismatches, "
        f"{time.perf_counter() - t0:.1f}s"
        + (f"; first: {mismatches[0]}" if mismatches else ""),
    )


# every congruence branch: odd D of both residues mod 4 and both signs,
# 2||D, 4||D, 8||D, squares, cubes, and mixed powers
_D_BATTERY = [
    1, 5, 9, 13, 17, 21, 25, 45, 49, 125, -3, -7, -15, -27,
    3, 7, 11, 15, 27, -1, -5, -13, -21, -25,
    2, 6, 10, 18, 50, -2, -6,
    4, 12, 20, 36, -4, -12,
    8, 24, -8, -40,
]


def test_criterion_02_fast_trace_equals_point_count():
    t0 = time.perf_counter()
    primes = [int(p) for p in sieve_primes(20_000)[1:]]  # odd primes
    compared = 0
    bad = []
    # p outer, so each point count reuses _chi_table(p) across the battery
    for p in primes:
        for D in _D_BATTERY:
            if (2 * D) % p == 0:
                continue
            compared += 1
            if ap_fast(D, p) != ap_naive(D, p):
                bad.append((D, p))
    _report(
        2,
        "symbol-based trace equals point counting over the curve battery",
        not bad,
        f"{len(_D_BATTERY)} curves, {compared} comparisons, "
        f"{len(bad)} mismatches, {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_03_gauss_congruence():
    checked = 0
    bad = []
    for p in (int(q) for q in sieve_primes(10_000)):
        if p % 4 != 1:
            continue
        checked += 1
        if ap_binomial_residue(p) != 2 * two_squares(p).alpha:
            bad.append(p)
    _report(
        3,
        "central binomial congruence recovers 2*alpha",
        not bad,
        f"{checked} primes ≡ 1 (mod 4) below 10^4, {len(bad)} mismatches",
    )


def test_criterion_04_closed_form_class_of_two():
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for p in (int(q) for q in sieve_primes(1_000_000)):
        if p % 4 != 1:
            continue
        checked += 1
        if two_quartic_class(p) != quartic_class_of(2, p):
            bad.append(p)
    _report(
        4,
        "beta mod 8 closed form matches the power-mod class of 2",
        not bad,
        f"{checked} primes below 10^6, {len(bad)} mismatches, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_05_biquadratic_reciprocity():
    t0 = time.perf_counter()
    rng = random.Random(16180339)
    one_mod_four = [int(p) for p in sieve_primes(1_000_000) if p % 4 == 1]
    pool = [primary_prime_above(p) for p in rng.sample(one_mod_four, 3000)]
    pool += [GaussianInt(-q, 0) for q in range(3, 1000, 4)
             if all(q % f for f in range(3, int(q**0.5) + 1, 2))]
    violations = 0
    pairs = 0
    while pairs < 10_000:
        lam, pi = rng.choice(pool), rng.choice(pool)
        if lam.norm() == pi.norm():
            continue
        pairs += 1
        if not reciprocity_check(lam, pi):
            violations += 1
    _report(
        5,
        "biquadratic reciprocity on random primary prime pairs",
        violations == 0,
        f"{pairs} pairs of norm < 10^6, {violations} violations, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_06_zero_rows_are_exact_zeros():
    t0 = time.perf_counter()
    instances = []
    for D in _grid_D(50):
        for r in [x for x in range(-10, 11) if x != 0]:
            v = is_zero_pair(D, r)
            if v.table_row is not None:
                instances.append(v)
    sides = 0
    bad = []
    for v in instances:
        rep = sweep(v.D, v.r, 100_000_000)
        if v.plus_zero:
            sides += 1
            if rep.n_plus != 0:
                bad.append((v.D, v.r, "+2r", rep.n_plus))
        if v.minus_zero:
            sides += 1
            if rep.n_minus != 0:
                bad.append((v.D, v.r, "-2r", rep.n_minus))
    _report(
        6,
        "published vanishing rows give exactly zero in 10^8 sweeps",
        not bad,
        f"{len(instances)} row instances, {sides} zero sides, "
        f"{len(bad)} nonzero, {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_07_example_densities_at_1e9():
    t0 = time.perf_counter()
    rep_a = sweep(-21, 1, 10**9)
    target_a = 11 / 42
    rep_b = sweep(-21, 2, 10**9)
    target_b = 5 / 21
    rep_c = sweep(1, 1, 10**9)
    ok = (
        abs(rep_a.empirical_plus - target_a) <= 0.04
        and abs(rep_b.empirical_plus - target_b) <= 0.04
        and rep_c.empirical_plus == 1.0
        and rep_c.n_other == 0
    )
    _report(
        7,
        "example densities land inside ±0.04 at N = 10^9",
        ok,
        f"(-21,1): {rep_a.empirical_plus:.4f} vs {target_a:.4f}; "
        f"(-21,2): {rep_b.empirical_plus:.4f} vs {target_b:.4f}; "
        f"(1,1): all {rep_c.n_primes} primes on +2, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def _li(x: float) -> float:
    """Logarithmic integral via the classical series (fine for x ~ 10^4)."""
    from math import factorial

    lx = log(x)
    return (
        0.5772156649015329
        + log(lx)
        + sum(lx**k / (k * factorial(k)) for k in range(1, 80))
    )


def test_criterion_08_hl_constant_stability_and_count():
    # The prediction asserted is the one Hardy-Littlewood conjecture F and
    # Bateman-Horn make: #{x <= X : x^2+1 prime} ~ (delta/2) * li(X), here
    # with X = sqrt(N), taken as (delta/2) * (li(sqrt N) - li(2)). The plain
    # delta * sqrt(N)/log N is only the leading term of that integral and
    # runs about 15% low at X = 10^4 (count 841 against it gives 1.128), so
    # that ratio is printed next to the li one as information only.
    assert abs(_li(10**4) - 1246.1372158994) < 1e-6
    assert abs(_li(2) - 1.0451637801175) < 1e-9
    t0 = time.perf_counter()
    deltas = [hl_delta((1, 0, 1), B) for B in (10**5, 10**6, 10**7)]
    stable = all(1.35 <= d <= 1.40 for d in deltas) and all(
        abs(a - b) < 0.01 for a, b in zip(deltas, deltas[1:])
    )
    n = 10**8
    count = hl_count((1, 0, 1), n)
    predicted = deltas[2] * (_li(sqrt(n)) - _li(2)) / 2
    li_ratio = count / predicted
    leading_ratio = count / (deltas[2] * sqrt(n) / log(n))
    ok = stable and 0.9 <= li_ratio <= 1.1
    _report(
        8,
        "Hardy-Littlewood constant is stable and predicts the count",
        ok,
        f"deltas {', '.join(f'{d:.5f}' for d in deltas)}; "
        f"count {count} / li-predicted {predicted:.1f} = {li_ratio:.3f} "
        f"against window [0.9, 1.1]; sqrt(N)/log N ratio {leading_ratio:.3f}, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_09_lang_trotter_ratio():
    rep = sweep(-1, 1, 10**9)
    predicted = lt_predict(-1, 1, 10**9)
    ratio = rep.n_plus / predicted
    _report(
        9,
        "trace count over sqrt(N)/log N prediction stays near 1",
        0.85 <= ratio <= 1.15,
        f"n_plus={rep.n_plus}, predicted={predicted:.1f}, ratio={ratio:.3f}; "
        "log N in place of the logarithmic integral biases the ratio high, "
        "so the window's upper side is the tight one",
    )


def test_criterion_10_invariant_battery():
    rng = random.Random(271828)
    failures = []

    primes = [int(p) for p in sieve_primes(3000)[3:]]  # 7 and up
    for _ in range(400):
        D = rng.randint(-60, 60) or 1
        p = rng.choice(primes)
        if (2 * D) % p == 0:
            continue
        a = ap_fast(D, p)
        if a * a > 4 * p:
            failures.append(("hasse", D, p))
        if p % 4 == 3 and a != 0:
            failures.append(("supersingular", D, p))
        if p % 4 == 1 and (a % 2 or a == 0):
            failures.append(("ordinary-parity", D, p))
        t = rng.choice((2, 3, 5))
        if p % t and ap_fast(D * t**4, p) != a:
            failures.append(("twist", D, p, t))

    for _ in range(25):
        D = rng.randint(-25, 25)
        if D == 0 or reduce_quartic_twist(D) != D:
            continue
        r = rng.randint(1, 6)
        _, counts = density_oracle(D, r, x_max=30_000)
        sp = split_d(D, r)
        if counts.total != 2 * euler_phi(sp.d) * tau(sp.dbar):
            failures.append(("class-count", D, r))

    s7 = sigma_sums(7, 1, x_max=20_000)
    if not (s7.sigma == 14 and s7.sigma2_i == -1 and s7.sigma2_ii == -1):
        failures.append(("sigma-values",))
    if not (s7.sigma4_i == GaussianInt(1, 0) and s7.sigma4_ii == GaussianInt(-1, 0)):
        failures.append(("sigma4-values",))
    s3 = sigma_sums(3, 1, x_max=20_000)
    s5 = sigma_sums(5, 1, x_max=20_000)
    s15 = sigma_sums(15, 1, x_max=20_000)
    if s15.sigma4_i != s3.sigma4_i * s5.sigma4_i:
        failures.append(("sigma4-multiplicativity", "odd"))
    if s15.sigma4_ii != s3.sigma4_ii * s5.sigma4_ii:
        failures.append(("sigma4-multiplicativity", "even"))

    for _ in range(200):
        a, b = rng.randint(2, 300), rng.randint(2, 300)
        if gcd(a, b) == 1 and tau(a) * tau(b) != tau(a * b):
            failures.append(("tau-multiplicativity", a, b))

    _report(
        10,
        "seeded invariant battery across every module",
        not failures,
        f"0 failures out of all checks" if not failures else f"{failures[:4]}",
    )
