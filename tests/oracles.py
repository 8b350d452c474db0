"""Independent brute-force oracles the tests measure the package against.

Nothing here imports from cmtrace. Slow and obvious on purpose: these are
the implementations a skeptic would write, and the tests treat disagreement
with them as the package's problem.
"""

from math import gcd, isqrt, sqrt


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def brute_ap(D: int, p: int) -> int:
    """Trace by literally counting points on y^2 = x^3 + D*x over F_p."""
    assert p > 2 and D % p != 0
    # chi per element, precomputed the dumb way
    squares = {(y * y) % p for y in range(p)}
    affine = 0
    for x in range(p):
        t = (x * x % p * x + D * x) % p
        if t == 0:
            affine += 1
        elif t in squares:
            affine += 2
    return p + 1 - (affine + 1)  # +1 for the point at infinity


def exhaustive_two_squares(p: int) -> tuple[int, int]:
    """All-pairs search for p = a^2 + b^2, normalized a ≡ 1 (mod 4), b > 0 even."""
    for b in range(2, isqrt(p) + 1, 2):
        a2 = p - b * b
        a = isqrt(a2)
        if a * a == a2 and a % 2 == 1:
            alpha = a if a % 4 == 1 else -a
            return alpha, b
    raise AssertionError(f"no two-squares decomposition for {p}")


def slow_prime_count_quadratic(a: int, b: int, c: int, n: int) -> int:
    """Distinct primes <= n of the form a x^2 + b x + c, x >= 0. Trial division."""
    found = set()
    x = 0
    while True:
        v = (a * x + b) * x + c
        if v > n and 2 * a * x + a + b > 0:
            break
        if 2 <= v <= n and trial_is_prime(v):
            found.add(v)
        x += 1
    return len(found)


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes on a bytearray: every prime <= n, in order."""
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    for p in range(2, isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if mark[p]]


def slow_hl_delta(a: int, b: int, c: int, prime_bound: int) -> float:
    """Truncated Hardy-Littlewood constant of a x^2 + b x + c, one prime at a time.

    gcd(2, a+b)/sqrt(a), times p/(p-1) at each odd p dividing a and b,
    times 1 - (disc/p)/(p-1) at each odd p not dividing a, multiplied in
    prime order with the Legendre symbol from Euler's criterion.
    """
    value = gcd(2, a + b) / sqrt(a)
    disc = b * b - 4 * a * c
    for p in primes_up_to(prime_bound)[1:]:
        if a % p == 0:
            if b % p == 0:
                value *= p / (p - 1)
            continue
        d = disc % p
        if d == 0:
            leg = 0
        else:
            leg = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
        value *= 1 - leg / (p - 1)
    return value
