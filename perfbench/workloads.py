"""The four benchmark workloads: seeded inputs, one operation, its check.

Each workload is a closed loop with one caller. Inputs come in rounds of
fixed composition, so every seed gives the same mix of operation sizes and
only the sampled instances differ; runs of different seeds then measure the
same work. The library receives only the generated arguments.

An operation returns (work, primes, failure); failure is None when the
output passed its check, otherwise a one-line description.
"""

from __future__ import annotations

import json
import random
from math import isqrt
from pathlib import Path

import cmtrace

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# sweep-large: one round is one sweep per slot. Each slot fixes N and |r|,
# so candidate count and prime density are the same for every seed; the
# seed picks D and the sign of r. Two of three sweeps are at 10^10, which
# puts the median among them; p90 falls on the 5*10^10 sweeps.
LARGE_SLOTS = ((10**10, 1), (10**10, 2), (5 * 10**10, 3))
# fourth-power-free D with all four trace classes populated (D = ±1, ±4
# have no ±beta traces and sweep measurably faster)
LARGE_DS = (-21, -11, -6, -3, 2, 5, 7, 13)

# sweep-grid: every instance of the acceptance-06 grid whose zero verdict
# matches a published row, swept at this N
GRID_N = 10**7
GRID_DMAX, GRID_RMAX = 50, 10
# a sweep of a (D, r) whose +2r side vanishes skips lt_predict's hl_delta
# and is ~7x faster; 94 of the 260 instances call it. Each round keeps
# that share (4 of 11), so p50 lands on the fast mode and p90 on the slow.
GRID_ROUND = (4, 7)  # (instances calling hl_delta, instances skipping it)

# oracle-grid: the acceptance-01 grid. An oracle run costs about |D| times
# a constant, so each round takes one odd-r and one even-r pair from every
# band of |D|, and every seed gets the same spread of costs.
ORACLE_DMAX, ORACLE_RMAX, ORACLE_XMAX = 100, 12, 100_000
ORACLE_BAND = 10

# point-count: the acceptance-02 curve battery (every congruence branch of
# D) against every odd prime up to POINT_PMAX, D in the outer loop
POINT_DS = (
    1, 5, 9, 13, 17, 21, 25, 45, 49, 125, -3, -7, -15, -27,
    3, 7, 11, 15, 27, -1, -5, -13, -21, -25,
    2, 6, 10, 18, 50, -2, -6,
    4, 12, 20, 36, -4, -12,
    8, 24, -8, -40,
)
POINT_PMAX = 20_000


def quartic_free_ds(bound: int) -> list[int]:
    """Nonzero D in [-bound, bound] with no fourth-power factor (the acceptance grids)."""
    return [
        D
        for D in range(-bound, bound + 1)
        if D and all(D % k**4 for k in range(2, isqrt(isqrt(bound)) + 1))
    ]


def odd_primes(bound: int) -> list[int]:
    return [p for p in range(3, bound + 1, 2) if all(p % q for q in range(3, isqrt(p) + 1, 2))]


def sweep_candidates(r: int, N: int) -> int:
    """How many y the sweep of (r, N) tries: y <= sqrt(N - r^2), parity opposite r."""
    y_max = isqrt(N - r * r)
    y0 = 2 if r % 2 else 1
    return max(0, (y_max - y0) // 2 + 1)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _tally(rep) -> list[int]:
    return [rep.n_primes, rep.n_plus, rep.n_minus, rep.n_other]


class SweepLarge:
    """Few long sweeps at N in [10^10, 10^11]; the per-candidate kernel dominates."""

    work_unit = "candidates"

    def __init__(self, ref: dict, rng: random.Random):
        self.tallies = {tuple(k[:3]): k[3:] for k in ref["sweep_large"]}
        self.rng = rng
        self.decks: list[list[int]] = [[] for _ in LARGE_SLOTS]

    def _deal(self, slot: int) -> int:
        # each slot draws D from a shuffled deck of the pool, so every run
        # sees the pool's D-dependent costs in nearly equal measure
        deck = self.decks[slot]
        if not deck:
            deck.extend(self.rng.sample(LARGE_DS, len(LARGE_DS)))
        return deck.pop()

    def round(self) -> list[tuple]:
        return [
            (self._deal(i), r * self.rng.choice((1, -1)), N)
            for i, (N, r) in enumerate(LARGE_SLOTS)
        ]

    def op(self, args):
        D, r, N = args
        rep = cmtrace.sweep(D, r, N)
        got = _tally(rep)
        want = self.tallies[(D, r, N)]
        bad = None if got == want else f"sweep{args} tallies {got} != {want}"
        return sweep_candidates(r, N), rep.n_primes, bad


class SweepGrid:
    """Many short sweeps over the zero-row instances; each sweep's fixed cost dominates."""

    work_unit = "candidates"

    def __init__(self, ref: dict, rng: random.Random):
        if ref["sweep_grid_N"] != GRID_N:
            raise ValueError(f"reference.json was recorded at N={ref['sweep_grid_N']}, not {GRID_N}")
        rows = ref["sweep_grid"]
        self.by_pair = {(d["D"], d["r"]): d for d in rows}
        self.slow = [(d["D"], d["r"]) for d in rows if not d["plus_zero"]]
        self.fast = [(d["D"], d["r"]) for d in rows if d["plus_zero"]]
        self.rng = rng

    def round(self) -> list[tuple]:
        n_slow, n_fast = GRID_ROUND
        batch = self.rng.choices(self.slow, k=n_slow) + self.rng.choices(self.fast, k=n_fast)
        self.rng.shuffle(batch)
        return batch

    def op(self, args):
        D, r = args
        want = self.by_pair[args]
        v = cmtrace.is_zero_pair(D, r)
        rep = cmtrace.sweep(D, r, GRID_N)
        got = _tally(rep)
        bad = []
        if (v.plus_zero, v.minus_zero, v.table_row) != (
            want["plus_zero"], want["minus_zero"], want["table_row"]
        ):
            bad.append(f"is_zero_pair{args} = {v}")
        if v.plus_zero and rep.n_plus:
            bad.append(f"sweep{args} +2r side is {rep.n_plus}, not 0")
        if v.minus_zero and rep.n_minus:
            bad.append(f"sweep{args} -2r side is {rep.n_minus}, not 0")
        if got != want["tally"]:
            bad.append(f"sweep{args} tallies {got} != {want['tally']}")
        return sweep_candidates(r, GRID_N), rep.n_primes, "; ".join(bad) or None


class OracleGrid:
    """density_oracle against density_formula on a seeded sample of the 01 grid."""

    work_unit = "classes"

    def __init__(self, ref: dict, rng: random.Random):
        ds = quartic_free_ds(ORACLE_DMAX)
        self.bands = [
            [D for D in ds if lo < abs(D) <= lo + ORACLE_BAND]
            for lo in range(0, ORACLE_DMAX, ORACLE_BAND)
        ]
        rs = [r for r in range(-ORACLE_RMAX, ORACLE_RMAX + 1) if r]
        self.r_odd = [r for r in rs if r % 2]
        self.r_even = [r for r in rs if r % 2 == 0]
        self.rng = rng

    def round(self) -> list[tuple]:
        batch = [
            (self.rng.choice(band), self.rng.choice(rs))
            for band in self.bands
            for rs in (self.r_odd, self.r_even)
        ]
        self.rng.shuffle(batch)
        return batch

    def op(self, args):
        D, r = args
        got, counts = cmtrace.density_oracle(D, r, x_max=ORACLE_XMAX)
        want = cmtrace.density_formula(D, r)
        bad = None if got == want else f"density_oracle{args} = {got} != formula {want}"
        # one representative prime is classified per progression class
        return counts.total, counts.total, bad


class PointCount:
    """ap_fast against ap_naive: one curve per round, then every odd prime."""

    work_unit = "points"

    def __init__(self, ref: dict, rng: random.Random):
        self.primes = odd_primes(POINT_PMAX)
        self.rng = rng

    def round(self) -> list[tuple]:
        D = self.rng.choice(POINT_DS)
        return [(D, p) for p in self.primes if (2 * D) % p]

    def op(self, args):
        D, p = args
        fast = cmtrace.ap_fast(D, p)
        naive = cmtrace.ap_naive(D, p)
        bad = None if fast == naive else f"ap_fast{args} = {fast} != ap_naive {naive}"
        return p, 1, bad


WORKLOADS = {
    "sweep-large": SweepLarge,
    "sweep-grid": SweepGrid,
    "oracle-grid": OracleGrid,
    "point-count": PointCount,
}
