"""The process that runs the program: one workload, one client, closed loop.

    python3 bench/worker.py --run-dir DIR [--seconds S] [--trace] [--setup-only]

Reads DIR/plan.json (written by run.py), imports timeleak from the
checkout's `src`, prepares the workload's inputs, then repeats the
workload's operation for S seconds, each in its own DIR/op<i>/ directory:
at least once, and again only while the last operation's duration still
fits in the S seconds. After each operation it appends one JSON line to
DIR/records.jsonl: wall seconds, process CPU seconds, peak resident MB so
far, the time.perf_counter() at its start and end, what run.py needs to
check the output and, with --trace, the per-layer metrics. With
--setup-only it prints "ready" once the program is imported and the inputs
are prepared, and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
from pathlib import Path

import common

common.pin_threads()

import numpy as np  # noqa: E402

from reference import array_digest  # noqa: E402
from spans import Tracer, layer_metrics, span_totals  # noqa: E402
from timeleak import cli, dataset  # noqa: E402

# The acceptance settings of the R_3 sweep.
DETECT_SWEEP = [
    "--k-max", "3", "--tau", "0.05", "--seeds-per-k", "3", "--seed", "1",
    "--secret-widths", "10", "--public-widths", "10", "--joint-widths", "20",
    "--lr", "0.02", "--ste-clip", "4", "--max-epochs", "300", "--patience", "120",
]
DETECT_CAP = 8


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def prepare_detect(plan: dict):
    data = plan["csv"]

    def op(op_dir: Path):
        out = op_dir / "sweep"
        codes = [run_cli(["sweep", "--data", data, *DETECT_SWEEP, "--out-dir", str(out)])]
        if codes[0] == 0:
            k_star = json.loads((out / "sweep.json").read_text())["k_star"]
            census = str(op_dir / "census.json")
            codes.append(run_cli(["analyze", "--model", str(out / "models" / f"k{k_star}.json"), "--cap", str(DETECT_CAP), "--out", census]))
            codes.append(run_cli(["report", "--census", census, "--sweep", str(out / "sweep.json"), "--out", str(op_dir / "report.json")]))
        return {"exit_codes": codes}

    return op, lambda result: result


def prepare_census(plan: dict):
    def op(op_dir: Path):
        return {
            "exit_codes": [
                run_cli(["analyze", "--model", m["path"], "--cap", str(m["cap"]), "--out", str(op_dir / f"census_{m['name']}.json")])
                for m in plan["models"]
            ]
        }

    return op, lambda result: result


def _domain(obj) -> dataset.Binary | dataset.IntRange:
    return dataset.Binary() if obj == "binary" else dataset.IntRange(*obj["int"])


def prepare_ingest(plan: dict):
    sidecar = json.loads(Path(plan["sidecar"]).read_text())
    schema = dataset.FeatureSchema(
        tuple((f["name"], _domain(f["domain"])) for f in sidecar["secret"]),
        tuple(sidecar["public"]),
        sidecar["time_unit"],
    )
    with np.load(plan["arrays"]) as arrays:
        source = dataset.TraceDataset(schema, arrays["x"], arrays["y"], arrays["t"])

    def op(op_dir: Path):
        dataset.write_csv(source, op_dir / "written.csv")
        return dataset.load_csv(plan["csv"], sidecar=plan["sidecar"])

    def describe(loaded) -> dict:
        return {
            "digests": {name: array_digest(getattr(loaded, name)) for name in ("x", "y", "t")},
            "domains": [dataset.schema_to_json(loaded.schema)["secret"][j]["domain"] for j in range(loaded.schema.n_secret)],
        }

    return op, describe


PREPARE = {"detect-r3": prepare_detect, "census-mixed": prepare_census, "ingest-200k": prepare_ingest}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    plan = json.loads((args.run_dir / "plan.json").read_text())
    op, describe = PREPARE[plan["workload"]](plan)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    dumps = []
    with (args.run_dir / "records.jsonl").open("w", encoding="utf-8") as out:
        t_begin = time.perf_counter()
        i, last = 0, 0.0
        # Start another operation only if it should end within the run's time.
        while i == 0 or time.perf_counter() - t_begin + last <= args.seconds:
            op_dir = args.run_dir / f"op{i}"
            op_dir.mkdir()
            if tracer:
                tracer.reset()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result, error = op(op_dir), None
            except Exception as exc:  # the operation failed; run.py counts it
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
            last = t1 - t0
            record = {
                "op": i,
                "t0": t0,
                "t1": t1,
                "op_s": t1 - t0,
                "cpu_s": c1 - c0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "error": error,
                "output": describe(result) if error is None else None,
            }
            del result
            if tracer:
                spans = tracer.spans()
                record["layers"] = layer_metrics(*span_totals(tracer.names, spans), tracer.counts)
                dumps.append(spans)
            out.write(json.dumps(record) + "\n")
            out.flush()
            i += 1
    if tracer:
        tracer.uninstall()
        np.savez(
            args.run_dir / "spans.npz",
            names=np.asarray(tracer.names),
            **{f"op{j}_{key}": value for j, spans in enumerate(dumps) for key, value in spans.items()},
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
