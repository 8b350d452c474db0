"""cmtrace benchmark: one workload, closed loop, fixed time, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-large --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 runs the same loop with spans around the library's public
functions and reports the per-layer metrics instead; its spans are written
to perfbench/out/spans-<workload>.npz when the run ends.

The library is imported from src/ next to this directory, so the benchmark
measures the checkout it sits in. Every operation's output is checked; the
last line of stdout is a JSON object with keys correct, attempted, failed
and metrics, and the exit code is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh-interpreter set-up: import the package, then one ap_fast on a prime
# where D is in a ±beta class, which runs the library's lazy beta-sign
# calibration. Every CLI call pays this.
SETUP_CHILD = """
import json, time
t0 = time.perf_counter()
import cmtrace
t1 = time.perf_counter()
a = cmtrace.ap_fast({D}, {p})
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "lazy_setup_s": t2 - t1, "ap": a}}))
"""
SETUP_RUNS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "primes_per_s": "1/s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def machine_facts(cm_threads: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cm_threads": cm_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "machine": platform.machine(),
    }


def measure_setup(probe: dict) -> tuple[list[float], list[dict]]:
    """Wall time of SETUP_RUNS fresh interpreters, after one untimed run that compiles bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = SETUP_CHILD.format(D=probe["D"], p=probe["p"])
    walls, reports = [], []
    for i in range(SETUP_RUNS + 1):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=False,
        )
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        if i:
            walls.append(wall)
            reports.append(json.loads(proc.stdout.splitlines()[-1]))
    return walls, reports


def run_loop(workload, seconds: float) -> dict:
    """Whole rounds of operations until `seconds` have passed.

    Returns every operation's time and, per round, (operations, work,
    primes, seconds). Rounds have a fixed composition, so their rates are
    samples of one distribution; a median over them is not dragged by the
    few rounds a preempted or throttled CPU slows down.
    """
    times: list[float] = []
    rounds: list[tuple[int, int, int, float]] = []
    failed = 0
    t_start = perf_counter()
    while True:
        t_round = perf_counter()
        batch = workload.round()
        work = primes = 0
        for args in batch:
            t0 = perf_counter()
            try:
                w, n, bad = workload.op(args)
            except Exception as exc:  # a raising operation is a wrong output; keep measuring
                w = n = 0
                bad = f"{args}: {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            times.append(perf_counter() - t0)
            work += w
            primes += n
            if bad is not None:
                failed += 1
                if failed <= 5:
                    print(f"FAIL {bad}", file=sys.stderr)
        now = perf_counter()
        rounds.append((len(batch), work, primes, now - t_round))
        if now - t_start >= seconds:
            break
    return {"times": times, "rounds": rounds, "failed": failed, "elapsed": now - t_start}


def median_rate(rounds: list[tuple], field: int) -> float:
    return statistics.median(r[field] / r[3] for r in rounds)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cmtrace" / "__init__.py").is_file():
        print(f"perfbench: no cmtrace source under {SRC}", file=sys.stderr)
        return 2
    # the benchmark runs with the library's default worker count
    os.environ.pop("CM_THREADS", None)
    sys.path.insert(0, str(SRC))
    import cmtrace
    from cmtrace import frobenius, gaussian

    if Path(cmtrace.__file__).resolve().parent != SRC / "cmtrace":
        print(f"perfbench: imported cmtrace from {cmtrace.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    ref = wl.load_reference()
    probe = ref["beta_probe"]
    facts = machine_facts(cmtrace.cm_threads())
    print("facts " + json.dumps(facts))

    walls, reports = measure_setup(probe)
    # finish lazy set-up in this process too, so the loop times steady state
    probes = [r["ap"] for r in reports] + [cmtrace.ap_fast(probe["D"], probe["p"])]
    setup_bad = sum(a != probe["ap"] for a in probes)
    if setup_bad:
        print(f"FAIL ap_fast({probe['D']}, {probe['p']}) gave {probes}, want {probe['ap']}",
              file=sys.stderr)

    workload = wl.WORKLOADS[args.workload](ref, random.Random(args.seed))
    caches = {
        "gaussian.two_squares.cache_hit_ratio": gaussian.two_squares,
        "frobenius._chi_table.cache_hit_ratio": frobenius._chi_table,
    }
    tracer = None
    if args.trace:
        from layers import TARGETS
        from spans import Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
    before = {m: f.cache_info() for m, f in caches.items()}
    try:
        res = run_loop(workload, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = {m: f.cache_info() for m, f in caches.items()}

    times = res["times"]
    # the set-up probes are checked operations too
    attempted = len(times) + len(probes)
    failed = res["failed"] + setup_bad
    elapsed = res["elapsed"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"op_samples {len(times)} rounds {len(res['rounds'])} elapsed_s {elapsed:.3f} "
          f"work_unit {workload.work_unit}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(walls),
            "ops_per_s": median_rate(res["rounds"], 0),
            "op_p50_s": statistics.median(times),
            "op_p90_s": statistics.quantiles(times, n=10)[8],
            "primes_per_s": median_rate(res["rounds"], 2),
            "work_per_s": median_rate(res["rounds"], 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"{workload.work_unit}_per_s {metrics['work_per_s']:.6g} 1/s")
    else:
        import numpy as np

        from layers import PER_LAYER, layer_metrics

        setup = {k: statistics.median(r[k] for r in reports) for k in ("import_s", "lazy_setup_s")}
        cols = tracer.columns()
        metrics = layer_metrics(
            tracer, cols, len(times), {m: (before[m], after[m]) for m in caches}, setup
        )
        units = {m: u for m, (u, _) in PER_LAYER.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        np.savez_compressed(
            out_dir / f"spans-{args.workload}.npz", names=np.array(tracer.names), **cols
        )
    for m, v in metrics.items():
        print(f"{m} {v:.6g} {units[m]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
