"""The layers the traced run measures and the per-layer metrics it reports.

Calls and self time are given per operation of the workload, so a run that
completes more operations in its fixed time still compares with one that
completes fewer.
"""

from __future__ import annotations

import numpy as np

from spans import self_times, span_cost
from workloads import sweep_candidates


def _count_true(counters, args, result):
    counters["primes.is_prime_u64.true"] += bool(result)


def _count_hl_repeat(counters, args, result):
    seen = counters.setdefault("hl_delta.seen", set())
    counters["hardy_littlewood.hl_delta.repeats"] += args in seen
    seen.add(args)


def _count_candidates(counters, args, result):
    D, r, N = args
    counters["lab.sweep.candidates"] += sweep_candidates(r, N)


def _count_points(counters, args, result):
    counters["frobenius.ap_naive.points"] += args[1]


# (module, function, observer) for every traced public function
TARGETS = (
    ("primes", "is_prime_u64", _count_true),
    ("primes", "sieve_primes", None),
    ("gaussian", "two_squares", None),
    ("residue_symbols", "quartic_class_of", None),
    ("frobenius", "ap_fast", None),
    ("frobenius", "ap_naive", _count_points),
    ("arith", "factorize", None),
    ("arith", "progression_set", None),
    ("density", "density_formula", None),
    ("density", "density_oracle", None),
    ("density", "is_zero_pair", None),
    ("hardy_littlewood", "hl_delta", _count_hl_repeat),
    ("lab", "sweep", _count_candidates),
    ("lab", "lt_predict", None),
)

# metric name -> (unit, better) for everything layer_metrics reports
PER_LAYER = {
    **{f"{m}.{f}.calls": ("count/op", "lower") for m, f, _ in TARGETS},
    **{f"{m}.{f}.self_s": ("s/op", "lower") for m, f, _ in TARGETS},
    "primes.is_prime_u64.hit_ratio": ("ratio", "higher"),
    "primes.is_prime_u64.calls_under_ap_fast": ("count/op", "lower"),
    "gaussian.two_squares.cache_hit_ratio": ("ratio", "higher"),
    "frobenius._chi_table.cache_hit_ratio": ("ratio", "higher"),
    "hardy_littlewood.hl_delta.repeat_ratio": ("ratio", "lower"),
    "lab.sweep.candidates": ("count/op", "lower"),
    "density.density_oracle.tests_per_class": ("tests/class", "lower"),
    "frobenius.ap_naive.points": ("count/op", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.lazy_setup_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cache_hit_ratio(before, after) -> float:
    hits = after.hits - before.hits
    return _ratio(hits, hits + after.misses - before.misses)


def layer_metrics(tracer, cols: dict, n_ops: int, caches: dict, setup: dict) -> dict[str, float]:
    """Per-layer metrics of a finished traced run.

    cols are the tracer's span columns; caches maps a cache metric name to
    its (cache_info before, after) pair; setup holds the medians of the
    fresh-process import and lazy set-up.
    """
    name, parent = cols["name"], cols["parent"]
    own = self_times(cols["start"], cols["end"], parent)
    ids = {n: i for i, n in enumerate(tracer.names)}
    k = len(tracer.names)
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=own, minlength=k)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def under(child: str, owner: str) -> int:
        return int(np.count_nonzero((name == ids[child]) & (parent_name == ids[owner])))

    c = tracer.counters
    out: dict[str, float] = {}
    for n, i in ids.items():
        out[f"{n}.calls"] = calls[i] / n_ops
        out[f"{n}.self_s"] = self_s[i] / n_ops
    out["primes.is_prime_u64.hit_ratio"] = _ratio(
        c["primes.is_prime_u64.true"], calls[ids["primes.is_prime_u64"]]
    )
    out["primes.is_prime_u64.calls_under_ap_fast"] = (
        under("primes.is_prime_u64", "frobenius.ap_fast") / n_ops
    )
    for metric, (before, after) in caches.items():
        out[metric] = _cache_hit_ratio(before, after)
    out["hardy_littlewood.hl_delta.repeat_ratio"] = _ratio(
        c["hardy_littlewood.hl_delta.repeats"], calls[ids["hardy_littlewood.hl_delta"]]
    )
    out["lab.sweep.candidates"] = c["lab.sweep.candidates"] / n_ops
    out["density.density_oracle.tests_per_class"] = _ratio(
        under("primes.is_prime_u64", "density.density_oracle"),
        under("frobenius.ap_fast", "density.density_oracle"),
    )
    out["frobenius.ap_naive.points"] = c["frobenius.ap_naive.points"] / n_ops
    out["cli.import_s"] = setup["import_s"]
    out["cli.lazy_setup_s"] = setup["lazy_setup_s"]
    out["trace_overhead_s"] = span_cost() * len(name)
    return {m: float(v) for m, v in out.items()}
