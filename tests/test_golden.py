"""Golden digests: one sha256 per section of the numbers cmtrace produces.

Each section walks a fixed grid of inputs (read from golden.json), turns
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

from cmtrace.density import density_formula, density_oracle, is_zero_pair, sigma_sums

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))


def _quartic_free(n: int) -> bool:
    return all(n % (q**4) for q in range(2, isqrt(isqrt(abs(n))) + 1))


def _grid(D_max: int, r_max: int, odd_D: bool = False):
    """(D, r) over quartic-free D with 1 <= |D| <= D_max, 1 <= |r| <= r_max."""
    Ds = [D for D in range(-D_max, D_max + 1) if D and _quartic_free(D)]
    rs = [r for r in range(-r_max, r_max + 1) if r]
    return [(D, r) for D in Ds if not (odd_D and D % 2 == 0) for r in rs]


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


_SECTIONS = {
    "closed_forms": (_closed_forms, False),
    "oracle": (_oracle, False),
    "sigma_sums": (_sigma_sums, True),
}


def _canon(obj) -> str:
    def encode(o):
        if isinstance(o, Fraction):
            return str(o)
        raise TypeError(f"no canonical form for {o!r}")

    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=encode)


def entries(section: str) -> list[str]:
    """Canonical JSON of each output of the section, in grid order."""
    fn, odd_D = _SECTIONS[section]
    spec = GOLDEN[section]
    return [
        _canon({"D": D, "r": r, "out": fn(D, r)})
        for D, r in _grid(spec["D_max"], spec["r_max"], odd_D)
    ]


def digest(section: str) -> str:
    return hashlib.sha256(("[" + ",".join(entries(section)) + "]").encode()).hexdigest()


@pytest.mark.parametrize("section", list(_SECTIONS))
def test_golden_digest(section):
    assert digest(section) == GOLDEN[section]["sha256"], (
        f"golden section {section!r} moved; diff `--dump {section}` against the previous commit"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="print a golden section's entries")
    parser.add_argument("--dump", choices=list(_SECTIONS), required=True)
    for line in entries(parser.parse_args().dump):
        print(line)
