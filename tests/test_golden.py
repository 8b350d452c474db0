"""Golden digests: one sha256 per section of the numbers cmtrace produces.

Each section walks its own fixed list of inputs: a (D, r) grid or an
(r, bound) grid whose extent golden.json holds, or, for the sweeps, the
sweep-large and sweep-grid inputs of perfbench/reference.json. It turns
every output into canonical JSON (sorted keys, compact separators,
Fractions as strings) and hashes the list. A change that moves a number
moves its section's digest. To see which numbers moved, dump the section
at both commits and diff the two:

    PYTHONPATH=src python tests/test_golden.py --dump oracle > oracle.txt

The dump prints one canonical JSON entry per line; the digest is the
sha256 of the same entries as one JSON list.
"""

import argparse
import dataclasses
import hashlib
import json
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from cmtrace.density import DensityPair, density_formula, density_oracle, is_zero_pair, sigma_sums
from cmtrace.hardy_littlewood import hl_delta
from cmtrace.lab import report_to_dict, sweep

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
REFERENCE = HERE.parent / "perfbench" / "reference.json"


def _quartic_free(n: int) -> bool:
    return all(n % (q**4) for q in range(2, isqrt(isqrt(abs(n))) + 1))


def _grid(spec: dict, odd_D: bool = False) -> list[dict]:
    """(D, r) over quartic-free D with 1 <= |D| <= D_max, 1 <= |r| <= r_max."""
    D_max, r_max = spec["D_max"], spec["r_max"]
    Ds = [D for D in range(-D_max, D_max + 1) if D and _quartic_free(D)]
    rs = [r for r in range(-r_max, r_max + 1) if r]
    return [{"D": D, "r": r} for D in Ds if not (odd_D and D % 2 == 0) for r in rs]


def _sweep_inputs(spec: dict) -> list[dict]:
    """The sweep-large inputs, then the sweep-grid ones at their common N."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    large = [{"D": D, "r": r, "N": N} for D, r, N, *_ in ref["sweep_large"]]
    grid = [{"D": row["D"], "r": row["r"], "N": ref["sweep_grid_N"]} for row in ref["sweep_grid"]]
    return large + grid


def _hl_inputs(spec: dict) -> list[dict]:
    """x^2 + r^2 for 1 <= r <= r_max, at each prime bound."""
    return [{"r": r, "B": B} for r in range(1, spec["r_max"] + 1) for B in spec["bounds"]]


def _closed_forms(D: int, r: int) -> dict:
    v = is_zero_pair(D, r)
    return {
        "pair": dataclasses.asdict(density_formula(D, r)),
        "plus_zero": v.plus_zero,
        "minus_zero": v.minus_zero,
        "table_row": v.table_row,
    }


def _oracle(D: int, r: int) -> dict:
    pair, counts = density_oracle(D, r)
    return {"pair": dataclasses.asdict(pair), "counts": dataclasses.asdict(counts)}


def _sigma_sums(D: int, r: int) -> dict:
    return dataclasses.asdict(sigma_sums(D, r))


def _sweep(D: int, r: int, N: int) -> dict:
    out = report_to_dict(sweep(D, r, N))
    del out["elapsed_seconds"]
    return out


def _hl_delta(r: int, B: int) -> str:
    return float.hex(hl_delta((1, 0, r * r), B))


# section: (function, its inputs from the section's golden.json entry)
_SECTIONS = {
    "closed_forms": (_closed_forms, _grid),
    "oracle": (_oracle, _grid),
    "sigma_sums": (_sigma_sums, lambda spec: _grid(spec, odd_D=True)),
    "sweep": (_sweep, _sweep_inputs),
    "hl_delta": (_hl_delta, _hl_inputs),
}


def _canon(obj) -> str:
    def encode(o):
        if isinstance(o, Fraction):
            return str(o)
        raise TypeError(f"no canonical form for {o!r}")

    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=encode)


def entries(section: str) -> list[str]:
    """Canonical JSON of each output of the section, in input order."""
    fn, inputs = _SECTIONS[section]
    return [_canon({**args, "out": fn(**args)}) for args in inputs(GOLDEN[section])]


def digest(section: str) -> str:
    return hashlib.sha256(("[" + ",".join(entries(section)) + "]").encode()).hexdigest()


@pytest.mark.parametrize("section", list(_SECTIONS))
def test_golden_digest(section):
    assert digest(section) == GOLDEN[section]["sha256"], (
        f"golden section {section!r} moved; diff `--dump {section}` against the previous commit"
    )



def test_closed_form_pairs_pass_the_public_check():
    # the closed forms build their pairs without DensityPair's check; every
    # pair of the closed_forms grid passes it when rebuilt by the public
    # constructor, and comes out equal
    for args in _grid(GOLDEN["closed_forms"]):
        pair = density_formula(**args)
        assert DensityPair(pair.d_plus, pair.d_minus) == pair, args

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="print a golden section's entries")
    parser.add_argument("--dump", choices=list(_SECTIONS), required=True)
    for line in entries(parser.parse_args().dump):
        print(line)
