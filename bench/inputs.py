"""Inputs of every workload, made by the benchmark from the workload seed.

detect-r3 is the exception: its trace is the same for every seed (see
`make_r3_trace`). Nothing here imports the program: traces are written by the benchmark's own
CSV writer and models by its own writer of the documented `timeleak-model`
v1 JSON format, so the program receives only files (and, for the write
half of ingest-200k, arrays) made here.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from reference import r3_slopes

# detect-r3: the row count of the R_3 acceptance preset. The trace itself
# comes from this module's generator with trace seed 1, not from the
# program's R_3 preset; trace seed 4, for one, misses the SE_O tolerance.
R3_ROWS = 800
R3_TRACE_SEED = 1
R3_PUBLIC_BITS = 7
R3_NOISE = 0.02

# ingest-200k: 11 binary secrets, one wide integer secret, one integer public.
INGEST_ROWS = 200_000
INGEST_BITS = 11
INGEST_GOAL = (-10_000, 10_000)
INGEST_PUBLIC = (1, 100_000)

# census-mixed: hidden (16,), k = 6, over 20 binary bits (model a) or one
# integer in [-1000, 1000] plus 12 binary bits (models b and c).
CENSUS_HIDDEN = 16
CENSUS_K = 6
CENSUS_DENSE_BITS = 20
CENSUS_INT = (-1000, 1000)
CENSUS_MIXED_BITS = 12
CENSUS_BASE_SEED = 1


def write_trace_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Integer columns print as integers, float columns as their shortest
    round-tripping repr, so a correct reader recovers every value exactly."""
    cols = [c.tolist() for c in columns]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cols))


def write_sidecar(path: Path, secret: list[tuple[str, object]], public: list[str]) -> None:
    sidecar = {
        "secret": [{"name": n, "domain": d} for n, d in secret],
        "public": public,
        "time_unit": "cost-units",
    }
    Path(path).write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# detect-r3
# ---------------------------------------------------------------------------


def make_r3_trace(out_dir: Path) -> Path:
    """800 rows of R_3: three uniform secret bits, seven uniform public bits
    read as an integer N, time 10 + slope(secret) * N with 2% noise.

    One trace for every seed: training time moves with the trace by about
    10% between trace seeds, and on some trace seeds the sweep picks k* = 3
    and misses the SE_O tolerance, so a seed-drawn trace would make both
    the timing and the failure count depend on the seed."""
    rng = np.random.default_rng([R3_TRACE_SEED, 3])
    x = rng.integers(0, 2, size=(R3_ROWS, 3))
    y = rng.integers(0, 2, size=(R3_ROWS, R3_PUBLIC_BITS))
    n_public = y @ (2 ** np.arange(R3_PUBLIC_BITS))
    t = 10.0 + r3_slopes(x) * n_public
    t = np.maximum(t * (1.0 + R3_NOISE * rng.standard_normal(R3_ROWS)), 0.0)

    secret = [f"s_{j}" for j in range(3)]
    public = [f"p_{j}" for j in range(R3_PUBLIC_BITS)]
    path = out_dir / "r3.csv"
    write_trace_csv(path, secret + public + ["time"], [x[:, j] for j in range(3)] + [y[:, j] for j in range(R3_PUBLIC_BITS)] + [t])
    write_sidecar(Path(str(path) + ".schema.json"), [(n, "binary") for n in secret], public)
    return path


# ---------------------------------------------------------------------------
# ingest-200k
# ---------------------------------------------------------------------------


def ingest_arrays(seed: int) -> dict[str, np.ndarray]:
    """Source arrays of the 200k-row trace, in the program's (x, y, t) layout."""
    rng = np.random.default_rng([seed, 200])
    bits = rng.integers(0, 2, size=(INGEST_ROWS, INGEST_BITS))
    goal = rng.integers(INGEST_GOAL[0], INGEST_GOAL[1] + 1, size=INGEST_ROWS)
    n = rng.integers(INGEST_PUBLIC[0], INGEST_PUBLIC[1] + 1, size=INGEST_ROWS)
    work = 1.0 + bits.sum(axis=1) + np.abs(goal) / 1000.0
    t = 10.0 + 1e-3 * n * work * (1.0 + 0.02 * rng.standard_normal(INGEST_ROWS))
    x = np.column_stack([bits, goal]).astype(np.float64)
    return {"x": x, "y": n.astype(np.float64)[:, None], "t": np.maximum(t, 0.0)}


def ingest_names() -> tuple[list[str], list[str]]:
    return [f"s_b{j}" for j in range(INGEST_BITS)] + ["s_goal"], ["p_n"]


def ingest_domains() -> list[object]:
    return ["binary"] * INGEST_BITS + [{"int": list(INGEST_GOAL)}]


def make_ingest_inputs(seed: int, out_dir: Path) -> Path:
    """Writes the source arrays (`ingest.npz`, the data handed to write_csv)
    and, with the benchmark's own writer, the CSV plus sidecar that
    load_csv reads. Returns the CSV path."""
    arrays = ingest_arrays(seed)
    np.savez(out_dir / "ingest.npz", **arrays)
    secret, public = ingest_names()
    x, y, t = arrays["x"], arrays["y"], arrays["t"]
    columns = [x[:, j].astype(np.int64) for j in range(x.shape[1])] + [y[:, 0].astype(np.int64), t]
    path = out_dir / "ingest.csv"
    write_trace_csv(path, secret + public + ["time"], columns)
    write_sidecar(Path(str(path) + ".schema.json"), list(zip(secret, ingest_domains())), public)
    return path


# ---------------------------------------------------------------------------
# census-mixed
# ---------------------------------------------------------------------------


def _uniform(rng, n_out: int, n_in: int, bias: float) -> tuple[np.ndarray, np.ndarray]:
    limit = np.sqrt(6.0 / n_in)
    return rng.uniform(-limit, limit, size=(n_out, n_in)), rng.uniform(-bias, bias, size=n_out)


def _layer(w: np.ndarray, b: np.ndarray) -> dict:
    return {"w": w.tolist(), "b": b.tolist()}


def base_branch(n_in: int) -> tuple[np.ndarray, ...]:
    """Secret branch shared by every seed, up to symmetry: random fan-in
    uniform weights and biases spread so that pre-activations straddle 0."""
    rng = np.random.default_rng([CENSUS_BASE_SEED, n_in])
    return (*_uniform(rng, CENSUS_HIDDEN, n_in, 0.5), *_uniform(rng, CENSUS_K, CENSUS_HIDDEN, 0.5))


def symmetric_branch(branch, rng, binary: np.ndarray) -> tuple[np.ndarray, ...]:
    """The same census work on another input: hidden units and interface bits
    permuted, and binary inputs reflected (x -> 1 - x, folded into the bias)."""
    w1, b1, wi, bi = (a.copy() for a in branch)
    flip = binary & (rng.integers(0, 2, size=binary.size) == 1)
    b1 += w1[:, flip].sum(axis=1)
    w1[:, flip] *= -1.0
    hidden, iface = rng.permutation(CENSUS_HIDDEN), rng.permutation(CENSUS_K)
    return w1[hidden], b1[hidden], wi[iface][:, hidden], bi[iface]


def model_json(rng, branch, secret: list[tuple[str, object]], shift: list[float], denom: list[float]) -> dict:
    """A `timeleak-model` v1 document around a secret branch (hidden (16,),
    k = 6), with a small random public/joint branch the census never reads."""
    w1, b1, wi, bi = branch
    arch = {
        "n_secret": len(secret),
        "n_public": 1,
        "k": CENSUS_K,
        "secret_widths": [CENSUS_HIDDEN],
        "public_widths": [4],
        "joint_widths": [8],
    }
    weights = {
        "secret": [_layer(w1, b1)],
        "iface": _layer(wi, bi),
        "public": [_layer(*_uniform(rng, 4, 1, 0.0))],
        "joint": [_layer(*_uniform(rng, 8, CENSUS_K + 4, 0.0))],
        "out": _layer(*_uniform(rng, 1, 8, 0.0)),
    }
    return {
        "format": "timeleak-model",
        "version": 1,
        "architecture": arch,
        "weights": weights,
        "normalizer": {
            "secret_shift": shift,
            "secret_denom": denom,
            "public_shift": [0.0],
            "public_scale": [1.0],
            "time_shift": 0.0,
            "time_scale": 1.0,
        },
        "schema": {
            "secret": [{"name": n, "domain": d} for n, d in secret],
            "public": ["p_0"],
            "time_unit": "cost-units",
        },
        "seed": 0,
        "metrics": None,
    }


def census_models(seed: int) -> list[tuple[str, dict, int]]:
    """(name, model document, cap) for the three census-mixed models:
    (a) dense 20-bit branch at cap 2^20, (b) integer + 12 bits at cap 100,
    (c) the same model as (b) at cap equal to its domain size."""
    rng = np.random.default_rng([seed, 6])
    n = CENSUS_DENSE_BITS
    dense = model_json(
        rng,
        symmetric_branch(base_branch(n), rng, np.ones(n, dtype=bool)),
        [(f"s_{j}", "binary") for j in range(n)],
        [0.0] * n,
        [1.0] * n,
    )
    lo, hi = CENSUS_INT
    n = 1 + CENSUS_MIXED_BITS
    mixed = model_json(
        rng,
        symmetric_branch(base_branch(n), rng, np.arange(n) > 0),
        [("s_n", {"int": [lo, hi]})] + [(f"s_{j}", "binary") for j in range(CENSUS_MIXED_BITS)],
        [float(lo)] + [0.0] * CENSUS_MIXED_BITS,
        [float(hi - lo)] + [1.0] * CENSUS_MIXED_BITS,
    )
    mixed_size = (hi - lo + 1) * 2**CENSUS_MIXED_BITS
    return [
        ("a", dense, 2**CENSUS_DENSE_BITS),
        ("b", mixed, 100),
        ("c", mixed, mixed_size),
    ]


def write_census_models(seed: int, out_dir: Path) -> list[tuple[str, Path, int]]:
    """Writes each distinct model once, so (b) and (c) share one file, and
    returns (name, path, cap) per census."""
    written = {}
    out = []
    for name, model, cap in census_models(seed):
        key = id(model)
        if key not in written:
            path = out_dir / f"model_{name}.json"
            path.write_text(json.dumps(model) + "\n", encoding="utf-8")
            written[key] = path
        out.append((name, written[key], cap))
    return out
