"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 [--workloads sweep-large,oracle-grid]
        [--trace-seed 1] [--out perfbench/trajectory/BENCH_000.json]

Each run is one `perfbench/run.py` process, one after another, with the
settings in BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles and the spread, (q3 - q1) / median, next to the
metric's bound; a spread at or above a third of the bound is marked. With
--trace-seed it adds one traced run per workload, and with --out it writes
all of it as one JSON file, a point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    facts = next(json.loads(ln[6:]) for ln in lines if ln.startswith("facts "))
    return {"seed": seed, "facts": facts, **result}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    report: dict = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = [run(bench, name, seed, 0) for seed in parse_seeds(args.seeds)]
        report.setdefault("facts", runs[0]["facts"])
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {},
        }
        print(f"{name}: {len(runs)} runs, failed {sum(entry['failed'])} of {sum(entry['attempted'])}")
        for m in bench["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            entry["end_to_end"][m["name"]] = {"unit": m["unit"], "bound": m["bound"], **s}
            flag = "  <-- spread >= bound/3" if s["spread"] >= m["bound"] / 3 else ""
            print(f"  {m['name']:14s} median {s['median']:<12.6g} {m['unit']:5s} "
                  f"spread {s['spread']:.4f} bound {m['bound']}{flag}")
        if args.trace_seed is not None:
            traced = run(bench, name, args.trace_seed, 1)
            entry["per_layer"] = {"seed": args.trace_seed, **traced["metrics"]}
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
