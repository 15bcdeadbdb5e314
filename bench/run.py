"""Benchmark of timeleak: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's inputs from the seed, then runs the workload's
operation in a closed loop with one client for S seconds in a worker
process (bench/worker.py) and checks every operation's output against the
reference in bench/reference.py. setup_s is the median over SETUP_INTERPRETERS
fresh interpreters that import the program and prepare those inputs, half
timed before the worker and half after it. The last line of
standard output is one JSON object: correct, attempted, failed, and the
metrics, each the median over the run's operations. With --trace 1 the
metrics are the per-layer ones, timed by wrapping the program's public
functions; otherwise the end-to-end ones, whose times are scaled to the
nominal speed of the CPU by the host-speed probe (bench/probe.py) that
runs beside them on the same CPU. The line before the result gives each
operation's measured wall time and its scaling factor, traced or not.

Workloads: detect-r3, census-mixed, ingest-200k (see bench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

common.pin_threads()
common.pin_cpu()

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import probe  # noqa: E402
import reference  # noqa: E402

WORKER = common.BENCH_DIR / "worker.py"
PROBE = common.BENCH_DIR / "probe.py"
RUNS_DIR = common.BENCH_DIR / "_runs"
SPANS_DIR = common.BENCH_DIR / "_spans"
# Fresh interpreters timed per run for setup_s, half before the worker and
# half after it, so that they sample the start and the end of the run.
SETUP_INTERPRETERS = 12
# A run stops its worker if it is still going this long after its --seconds.
WORKER_GRACE_S = 150


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Inputs and checks per workload
# ---------------------------------------------------------------------------


def plan_detect(seed: int, run_dir: Path) -> dict:
    return {"csv": str(inputs.make_r3_trace(run_dir))}


def detect_checker(plan: dict):
    def check(op_dir: Path, record: dict) -> list[str]:
        codes = record["output"]["exit_codes"]
        if codes != [0, 0, 0]:
            return [f"exit codes {codes}"]
        return reference.check_detect(op_dir)

    return check


def plan_census(seed: int, run_dir: Path) -> dict:
    return {"models": [{"name": n, "path": str(p), "cap": cap} for n, p, cap in inputs.write_census_models(seed, run_dir)]}


def census_checker(plan: dict):
    refs = {}  # reference class counts per model file, computed once per run
    for m in plan["models"]:
        if m["path"] not in refs:
            refs[m["path"]] = reference.SecretBranch(json.loads(Path(m["path"]).read_text())).class_counts()[0]

    def check(op_dir: Path, record: dict) -> list[str]:
        problems = []
        for m, code in zip(plan["models"], record["output"]["exit_codes"]):
            if code != 0:
                problems.append(f"analyze of model {m['name']} exited {code}")
                continue
            census = json.loads((op_dir / f"census_{m['name']}.json").read_text())
            problems += [f"model {m['name']}: {p}" for p in reference.check_census(census, refs[m["path"]], m["cap"])]
        return problems

    return check


def plan_ingest(seed: int, run_dir: Path) -> dict:
    csv = inputs.make_ingest_inputs(seed, run_dir)
    return {"csv": str(csv), "sidecar": str(csv) + ".schema.json", "arrays": str(run_dir / "ingest.npz")}


def ingest_checker(plan: dict):
    with np.load(plan["arrays"]) as arrays:
        source = {name: arrays[name] for name in ("x", "y", "t")}
    sidecar = json.loads(Path(plan["sidecar"]).read_text())
    secret, public = inputs.ingest_names()
    written_problems: dict[str, list[str]] = {}

    def check(op_dir: Path, record: dict) -> list[str]:
        # Every operation writes the same dataset; each distinct file is parsed once.
        written = op_dir / "written.csv"
        digest = hashlib.sha256(written.read_bytes()).hexdigest()
        if digest not in written_problems:
            written_problems[digest] = reference.check_written_trace(written, secret + public + ["time"], source)
        return reference.check_loaded_trace(record["output"], source, sidecar) + written_problems[digest]

    return check


WORKLOADS = {
    "detect-r3": (plan_detect, detect_checker),
    "census-mixed": (plan_census, census_checker),
    "ingest-200k": (plan_ingest, ingest_checker),
}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def setup_interval(run_dir: Path) -> tuple[float, float]:
    """The time.perf_counter() at starting a fresh interpreter and when the
    program is imported and the workload's inputs are prepared."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(WORKER), "--run-dir", str(run_dir), "--setup-only"],
        stdout=subprocess.PIPE,
        env=common.program_env(),
        cwd=common.ROOT,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up interpreter failed (exit {code})")
    return t0, t1


@contextlib.contextmanager
def host_speed_probe(run_dir: Path):
    """Runs bench/probe.py for the length of the block and yields the path
    of its samples, which are complete once the block has ended."""
    out = run_dir / "probe.txt"
    with subprocess.Popen([sys.executable, str(PROBE), "--out", str(out)], cwd=common.ROOT) as proc:
        try:
            # The probe's first sample must precede the first timed interval.
            while proc.poll() is None and not (out.is_file() and out.read_text().count("\n")):
                time.sleep(0.01)
            if proc.returncode is not None:
                raise BenchError(f"host-speed probe exited {proc.returncode}")
            yield out
        finally:
            proc.terminate()
            proc.wait()


def run_worker(run_dir: Path, seconds: float, trace: bool) -> list[dict]:
    argv = [sys.executable, str(WORKER), "--run-dir", str(run_dir), "--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    log = run_dir / "worker.log"
    with log.open("w") as fh, subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=common.program_env(), cwd=common.ROOT) as proc:
        try:
            code = proc.wait(timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker overran its time") from None
    if code != 0:
        raise BenchError(f"worker exited {code}:\n{log.read_text()[-4000:]}")
    records = [json.loads(line) for line in (run_dir / "records.jsonl").read_text().splitlines()]
    if not records:
        raise BenchError("worker ran no operation")
    return records


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    make_plan, make_checker = WORKLOADS[workload]
    plan = {"workload": workload, **make_plan(seed, run_dir)}
    (run_dir / "plan.json").write_text(json.dumps(plan))

    interpreters = 0 if trace else SETUP_INTERPRETERS
    with host_speed_probe(run_dir) as samples_path:
        setup = [setup_interval(run_dir) for _ in range(interpreters // 2)]
        records = run_worker(run_dir, seconds, trace)
        setup += [setup_interval(run_dir) for _ in range(interpreters - interpreters // 2)]
    samples = probe.read_samples(samples_path)
    # Each time is scaled by the probe's speed over its own interval.
    factors = [probe.speed_factor(samples, r["t0"], r["t1"]) for r in records]

    check = make_checker(plan)
    failed = 0
    for rec in records:
        problems = [rec["error"]] if rec["error"] else check(run_dir / f"op{rec['op']}", rec)
        if problems:
            failed += 1
            print(f"op {rec['op']} failed: " + "; ".join(problems), file=sys.stderr)

    print(
        f"{workload} seed {seed}{' traced' if trace else ''}: {len(records)} operations, {failed} failed, "
        f"measured op_s " + " ".join(f"{r['op_s']:.3f}" for r in records) + ", host speed factors " + " ".join(f"{f:.3f}" for f in factors)
    )
    declared = common.benchmark()
    if trace:
        metrics = {
            m["name"]: {"value": statistics.median(r["layers"][m["name"]] for r in records), "unit": m["unit"]}
            for m in declared["per_layer"]
        }
        SPANS_DIR.mkdir(exist_ok=True)
        shutil.move(run_dir / "spans.npz", SPANS_DIR / f"{workload}-seed{seed}.npz")
    else:
        values = {
            "op_s": statistics.median(f * r["op_s"] for f, r in zip(factors, records)),
            "cpu_s": statistics.median(f * r["cpu_s"] for f, r in zip(factors, records)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
            "setup_s": statistics.median(probe.speed_factor(samples, t0, t1) * (t1 - t0) for t0, t1 in setup),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared["end_to_end"]}
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (common.SRC / "timeleak" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({common.SRC / 'timeleak'})", file=sys.stderr)
        return 2

    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
