"""Steadiness of the benchmark: two sets of runs, compared against the bounds.

    python3 bench/steadiness.py [--workloads detect-r3,census-mixed,ingest-200k] [--first-seed 1]

Runs each workload RUNS times per set through the command in
BENCHMARK.json, each run with its own seed, the workloads interleaved. The
two sets start PAUSE_S seconds apart. For every end-to-end metric it prints,
per set, the median and quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and the drift of the second set's median from the
first's in the worse direction, each against the metric's bound. It also
checks that the share of failed operations is the same in both sets. Every
run's metrics are printed as the run ends.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import common

BENCHMARK = common.benchmark()
RUNS = 10
SETS = 2
PAUSE_S = 60


def run_once(workload: str, seed: int) -> dict:
    argv = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=common.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def worse_by(before: float, after: float, better: str) -> float:
    """Relative change from before to after, positive when after is worse."""
    change = (after - before) / before
    return change if better == "lower" else -change


def report(results: dict[str, list[list[dict]]]) -> bool:
    steady = True
    for workload, sets in results.items():
        shares = {f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}" for runs in sets}
        same_share = len({sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets}) == 1
        steady &= same_share
        print(f"\n{workload}: failed/attempted per set {sorted(shares)}{'' if same_share else '  <- differs'}")
        print(f"  {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'drift':>8} {'bound':>6}")
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            for i, s in enumerate(stats):
                drift = worse_by(stats[0]["median"], s["median"], metric["better"]) if i else None
                spread_ok = s["spread"] <= bound
                drift_ok = drift is None or drift <= bound
                steady &= spread_ok and drift_ok
                flag = "" if spread_ok and drift_ok else "  <- over bound"
                drift_text = f"{drift:+8.3f}" if drift is not None else f"{'':>8}"
                print(f"  {name:<12} {i + 1:>3} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} {s['spread']:>8.3f} {drift_text} {bound:>6}{flag}")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    seed = args.first_seed
    for s in range(SETS):
        if s:
            time.sleep(PAUSE_S)
        for w in workloads:
            results[w].append([])
        for _ in range(RUNS):
            for w in workloads:
                result = run_once(w, seed)
                results[w][-1].append(result)
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
                seed += 1
    steady = report(results)
    print("\nsteady" if steady else "\nNOT steady: see the flagged lines")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
