"""Record the reference outputs the benchmark checks against.

Run from the repository root:

    python3 perfbench/make_reference.py

It sweeps every input the sweep workloads can generate with the library's
scalar route and writes perfbench/reference.json: exact tallies
(n_primes, n_plus, n_minus, n_other) for sweep-large and sweep-grid, the
zero verdicts of the sweep-grid instances, and the (D, p, a_p) probe the
set-up measurement checks. A few minutes on one core.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cmtrace  # noqa: E402
from cmtrace import FourClass  # noqa: E402

import workloads as wl  # noqa: E402


def tally(D: int, r: int, N: int) -> list[int]:
    rep = cmtrace.sweep(D, r, N)
    return [rep.n_primes, rep.n_plus, rep.n_minus, rep.n_other]


def beta_probe(D: int = 3) -> dict:
    """First prime p ≡ 1 (mod 4) where D lands in a ±beta class.

    ap_fast at such a p is the first call that needs the beta-sign
    calibration, so it completes the library's lazy set-up.
    """
    p = 1
    while True:
        p += 4
        if D % p == 0 or not cmtrace.is_prime_u64(p):
            continue
        if cmtrace.quartic_class_of(D, p) in (FourClass.PLUS_BETA, FourClass.MINUS_BETA):
            return {"D": D, "p": p, "ap": cmtrace.ap_naive(D, p)}


def dumps_rows(ref: dict) -> str:
    """JSON text with one line per list entry, so diffs show changed rows."""
    parts = []
    for key, val in ref.items():
        if isinstance(val, list):
            rows = ",\n  ".join(json.dumps(row) for row in val)
            parts.append(f" {json.dumps(key)}: [\n  {rows}\n ]")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(val)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> None:
    large = []
    for N, r_abs in wl.LARGE_SLOTS:
        for D in wl.LARGE_DS:
            for r in (r_abs, -r_abs):
                large.append([D, r, N, *tally(D, r, N)])
                print("sweep-large", large[-1], flush=True)
    grid = []
    for D in wl.quartic_free_ds(wl.GRID_DMAX):
        for r in range(-wl.GRID_RMAX, wl.GRID_RMAX + 1):
            if r == 0:
                continue
            v = cmtrace.is_zero_pair(D, r)
            if v.table_row is None:
                continue
            grid.append({
                "D": D,
                "r": r,
                "plus_zero": v.plus_zero,
                "minus_zero": v.minus_zero,
                "table_row": v.table_row,
                "tally": tally(D, r, wl.GRID_N),
            })
    print("sweep-grid instances:", len(grid), flush=True)
    ref = {
        "comment": "tallies are [n_primes, n_plus, n_minus, n_other]; "
        "written by perfbench/make_reference.py",
        "beta_probe": beta_probe(),
        "sweep_large": large,
        "sweep_grid_N": wl.GRID_N,
        "sweep_grid": grid,
    }
    with open(wl.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(dumps_rows(ref))


if __name__ == "__main__":
    main()
