"""Command-line pipeline: gen | sweep | train | analyze | report.

Stages communicate through documented CSV/JSON artifacts. Every JSON artifact
embeds the hash of its producing run manifest; the manifest itself (with
wall-clock timings) is written next to the primary output. Exit codes: 0
success, 2 generation, 3 training, 4 analysis, 5 reporting; argparse and
--config usage errors also return 2.

Each command imports the pipeline modules it runs, and no others.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, dataset
from .jsonio import FieldError, canonical_dumps, get, hash_file, read_json, sha256_hex, write_json

if TYPE_CHECKING:
    from . import network

_EXIT_CODES = {"gen": 2, "sweep": 3, "train": 3, "analyze": 4, "report": 5}


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


class Manifest:
    """Per-run record: command, argument echo, input hashes, stage timings.

    The hash excludes filesystem paths and wall-clock fields so that
    re-running the same command on the same data elsewhere yields the same
    hash and hence byte-identical downstream artifacts.
    """

    _UNHASHED_ARGS = {"out", "out_dir", "data", "model", "census", "sweep", "sidecar"}

    def __init__(self, command: str, args: dict):
        self.command = command
        self.args = {k: v for k, v in args.items() if k not in ("func", "command")}
        self.input_hashes: dict[str, str] = {}
        self.outputs: list[str] = []
        self.stages: dict[str, float] = {}
        self._t0 = time.monotonic()

    def add_input(self, path) -> None:
        self.input_hashes[Path(path).name] = hash_file(path)

    def add_output(self, path) -> None:
        self.outputs.append(Path(path).name)

    def stage_done(self, name: str) -> None:
        now = time.monotonic()
        self.stages[name] = round(now - self._t0, 6)
        self._t0 = now

    def hash(self) -> str:
        hashed_view = {
            "tool": "timeleak",
            "version": __version__,
            "command": self.command,
            "args": {k: v for k, v in self.args.items() if k not in self._UNHASHED_ARGS},
            "inputs": dict(sorted(self.input_hashes.items())),
        }
        return sha256_hex(canonical_dumps(hashed_view))

    def write(self, path) -> None:
        write_json(
            path,
            {
                "tool": "timeleak",
                "version": __version__,
                "command": self.command,
                "args": {k: (str(v) if isinstance(v, Path) else v) for k, v in self.args.items()},
                "inputs": dict(sorted(self.input_hashes.items())),
                "outputs": self.outputs,
                "stages": self.stages,
                "manifest_hash": self.hash(),
            },
        )


def _write_artifact(path, obj: dict, manifest: Manifest) -> None:
    obj = dict(obj)
    obj["manifest_hash"] = manifest.hash()
    write_json(path, obj)
    manifest.add_output(path)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _widths(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def widths(text: str) -> str:
    """A --*-widths value, checked at parse time: hidden widths >= 1, comma
    separated, or none. It stays the text given, which manifests echo."""
    if min(_widths(text), default=1) < 1:
        raise ValueError(text)
    return text


def _load_traces(args) -> dataset.TraceDataset:
    data = Path(args.data)
    sidecar = getattr(args, "sidecar", None)
    if sidecar is None:
        candidate = data.with_suffix(data.suffix + ".schema.json")
        if not candidate.exists():
            candidate = data.with_suffix(".schema.json")
        sidecar = candidate if candidate.exists() else None
    return dataset.load_csv(data, sidecar=sidecar)


def _train_config(args) -> network.TrainConfig:
    from . import network

    return network.TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
        ste_clip=args.ste_clip,
    )


def _architecture(args, schema: dataset.FeatureSchema, k: int) -> network.Architecture:
    from . import network

    return network.Architecture(
        n_secret=schema.n_secret,
        n_public=schema.n_public,
        k=k,
        secret_widths=_widths(args.secret_widths),
        public_widths=_widths(args.public_widths),
        joint_widths=_widths(args.joint_widths),
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    manifest = Manifest("gen", vars(args))
    out = Path(args.out)

    if args.family == "rn":
        if not args.preset:
            raise CliError("--preset is required for the rn family")
        ds = dataset.gen_rn_preset(args.preset, args.rows, args.noise_std, args.seed)
        ground_truth = dataset.rn_preset(args.preset).ground_truth_sizes()
    else:
        i = args.variants
        secret_bits = args.secret_bits if args.secret_bits is not None else 8 + i
        ds = dataset.gen_bl(
            i,
            secret_bits,
            dataset.IntRange(args.public_lo, args.public_hi),
            args.rows,
            args.noise_std,
            args.seed,
        )
        ground_truth = dataset.bl_ground_truth(i, secret_bits)

    out.parent.mkdir(parents=True, exist_ok=True)
    dataset.write_csv(ds, out)
    manifest.add_output(out)
    write_json(Path(str(out) + ".schema.json"), dataset.schema_to_json(ds.schema))
    manifest.add_output(str(out) + ".schema.json")
    write_json(Path(str(out) + ".groundtruth.json"), ground_truth)
    manifest.add_output(str(out) + ".groundtruth.json")
    manifest.stage_done("generate")
    manifest.write(Path(str(out) + ".manifest.json"))
    print(f"wrote {ds.n_rows} rows to {out}")
    return 0


def cmd_sweep(args) -> int:
    from . import network, sweep
    from .svgplot import sse_plot

    if args.epsilon is not None and not 0 <= args.epsilon < math.inf:
        raise CliError("epsilon must be finite and non-negative")
    if args.tau is None:
        args.tau = sweep.DEFAULT_TAU
    manifest = Manifest("sweep", vars(args))
    manifest.add_input(args.data)
    out_dir = Path(args.out_dir)

    ds = _load_traces(args)
    arch = _architecture(args, ds.schema, k=0)
    config = _train_config(args)
    result = sweep.sweep_k(
        ds,
        arch,
        args.k_max,
        config,
        seeds_per_k=args.seeds_per_k,
        tau=args.tau,
        test_fraction=args.test_fraction,
    )
    manifest.stage_done("train_sweep")

    records = []
    (out_dir / "models").mkdir(parents=True, exist_ok=True)
    for rec in result.records:
        rel = f"models/k{rec.k}.json"
        network.save(rec.model, out_dir / rel)
        manifest.add_output(out_dir / rel)
        records.append(replace(rec, model_path=rel))
    result = replace(result, records=tuple(records))

    verdict = sweep.detect(result, epsilon=args.epsilon)
    payload = result.to_json()
    if args.epsilon is not None:
        payload["epsilon"] = args.epsilon
        payload["epsilon_verdict"] = verdict.label
        if verdict.note:
            payload["note"] = verdict.note
    _write_artifact(out_dir / "sweep.json", payload, manifest)

    svg = sse_plot([r.k for r in result.records], [r.test_sse for r in result.records], result.k_star)
    (out_dir / "sse_vs_k.svg").write_text(svg, encoding="utf-8")
    manifest.add_output(out_dir / "sse_vs_k.svg")
    manifest.stage_done("artifacts")
    manifest.write(out_dir / "manifest.json")

    print(f"k*={result.k_star}  verdict={verdict.label}")
    for rec in result.records:
        print(
            f"  k={rec.k}: test SSE={rec.test_sse:.6g}, R2={rec.test_r2:.4f}, "
            f"max|resid|={rec.max_abs_residual:.6g}"
        )
    return 0


def cmd_train(args) -> int:
    from . import network

    manifest = Manifest("train", vars(args))
    manifest.add_input(args.data)
    out = Path(args.out)

    ds = _load_traces(args)
    train_ds, valid_ds, test = dataset.split_train_valid_test(ds, args.test_fraction, args.seed)
    arch = _architecture(args, ds.schema, k=args.k)
    net, history = network.train(train_ds, valid_ds, arch, _train_config(args))
    manifest.stage_done("train")

    out.parent.mkdir(parents=True, exist_ok=True)
    network.save(net, out)
    manifest.add_output(out)
    manifest.write(Path(str(out) + ".manifest.json"))
    print(
        f"trained k={args.k} model in {len(history)} epochs: "
        f"test SSE={network.sse(net, test):.6g}, R2={network.r2(net, test):.4f}"
    )
    return 0


def cmd_analyze(args) -> int:
    from . import counter, network

    if args.budget is None:
        args.budget = counter.DEFAULT_NODE_BUDGET
    manifest = Manifest("analyze", vars(args))
    manifest.add_input(args.model)
    out = Path(args.out)

    net = network.load(args.model)
    reducer = counter.extract_reducer(net)
    census = counter.bnb_census(reducer, cap=args.cap, budget=args.budget)
    manifest.stage_done("count")

    out.parent.mkdir(parents=True, exist_ok=True)
    _write_artifact(out, census.to_json(), manifest)
    manifest.write(Path(str(out) + ".manifest.json"))
    outcomes = ", ".join(f"{name}={n}" for name, n in census.node_outcomes._asdict().items())
    print(
        f"census: k={census.k}, feasible classes={census.feasible_count}, "
        f"counted={census.total_counted}, complete={census.complete}, nodes={census.nodes} ({outcomes})"
    )
    return 0


def cmd_report(args) -> int:
    from . import counter, quantifier, sweep

    manifest = Manifest("report", vars(args))
    manifest.add_input(args.census)
    manifest.add_input(args.sweep)
    out = Path(args.out)

    census = counter.ClassCensus.from_json(read_json(args.census))
    result = sweep.SweepResult.from_json(read_json(args.sweep))
    summary = {"k_star": result.k_star, "tau": result.tau, "verdict": result.verdict.label}
    model_ref = result.record(census.k).model_path if census.k < len(result.records) else None
    report = quantifier.build_report(census, sweep_summary=summary, model_ref=model_ref)
    manifest.stage_done("quantify")

    out.parent.mkdir(parents=True, exist_ok=True)
    _write_artifact(out, report.to_json(), manifest)
    manifest.write(Path(str(out) + ".manifest.json"))
    print(report.summary())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--secret-widths", type=widths, default="10", help="comma-separated secret hidden widths")
    p.add_argument("--public-widths", type=widths, default="10", help="comma-separated public hidden widths")
    p.add_argument("--joint-widths", type=widths, default="20", help="comma-separated joint hidden widths")
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--max-epochs", type=int, default=2000)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--ste-clip", type=float, default=1.0)
    p.add_argument("--test-fraction", type=float, default=0.1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timeleak",
        description="Learn a program's timing model and quantify timing-channel leakage.",
    )
    parser.add_argument("--version", action="version", version=f"timeleak {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic trace CSV")
    p.add_argument("--family", choices=("rn", "bl"), required=True)
    p.add_argument("--preset", help="rn preset name (R_2..R_7)")
    p.add_argument("--i", dest="variants", type=int, default=1, help="bl: variants per complexity")
    p.add_argument("--secret-bits", type=int, default=None, help="bl: secret width (default 8+i)")
    p.add_argument("--public-lo", type=int, default=1)
    p.add_argument("--public-hi", type=int, default=128)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--noise-std", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="train models for k=0..k_max and select k*")
    p.add_argument("--data", required=True)
    p.add_argument("--sidecar", default=None, help="schema JSON (default: <data>.schema.json if present)")
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--tau", type=float, default=None)  # cmd_sweep: sweep.DEFAULT_TAU
    p.add_argument("--seeds-per-k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=None, help="optional max-residual tolerance")
    _add_train_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train", help="train a single model at a fixed k")
    p.add_argument("--data", required=True)
    p.add_argument("--sidecar", default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="count secrets per interface valuation")
    p.add_argument("--model", required=True)
    p.add_argument("--cap", type=int, default=100)
    p.add_argument("--budget", type=int, default=None)  # cmd_analyze: counter.DEFAULT_NODE_BUDGET
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="turn a census + sweep into leak figures")
    p.add_argument("--census", required=True)
    p.add_argument("--sweep", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def _config_value(action: argparse.Action, value):
    """A --config value as its flag takes it on the command line: a string or
    a number, written out and checked against the flag's type and choices."""
    where = f"--config {action.dest}"
    if type(value) not in (str, int, float):
        raise FieldError(f"{where}: must be a string or a number, got {value!r:.40}")
    try:
        value = (action.type or str)(str(value))
    except ValueError:
        raise FieldError(f"{where}: invalid {action.type.__name__} value {str(value)!r:.40}") from None
    if action.choices is not None and value not in action.choices:
        raise FieldError(f"{where}: invalid choice {value!r:.40} (choose from {list(action.choices)})")
    return value


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)

    # Config-file defaults: flags beat the file, the file beats built-ins.
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            config_path = argv[idx + 1]
        except IndexError:
            print("error: --config needs a path", file=sys.stderr)
            return 2
        del argv[idx : idx + 2]
        # The file sets the flags of the subcommand, the first word not an option.
        command = next((a for a in argv if a[:1] != "-"), None)
        subparser = parser._subparsers._group_actions[0].choices.get(command)  # type: ignore[union-attr]
        try:
            overrides = get({"--config": read_json(config_path)}, "--config", dict)
            for action in subparser._actions if subparser else ():
                if action.dest in overrides:
                    subparser.set_defaults(**{action.dest: _config_value(action, overrides[action.dest])})
                    action.required = False
        except FieldError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = _EXIT_CODES.get(args.command, 1)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
