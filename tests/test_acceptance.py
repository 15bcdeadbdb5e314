"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavier criteria (4 and 6) share one pipeline runner so the
determinism check replays the identical commands in a fresh directory.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from timeleak import counter as C
from timeleak import dataset as D
from timeleak import network as N
from timeleak import quantifier as Q
from timeleak.cli import main

from conftest import conditional_entropy_of_sizes, random_reducer_net

# Desk-scale settings for the clause-loop presets: reference row counts and
# branch widths, fixed base seed, tau = 0.05, best-of-3 seeds.
PRESET_RUNS = {
    "R_2": dict(rows=400, widths=("5", "5", "10"), expected_k=1),
    "R_3": dict(rows=800, widths=("10", "10", "20"), expected_k=2),
    "R_4": dict(rows=1600, widths=("10", "10", "20"), expected_k=2),
    "R_5": dict(rows=3200, widths=("10,10", "10", "20"), expected_k=2),
}
BASE_SEED = 1
TRAIN_FLAGS = ["--lr", "0.02", "--ste-clip", "4", "--max-epochs", "300", "--patience", "120"]


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {number} ({title}): PASS")


def run_preset_pipeline(root: Path, name: str) -> dict:
    """gen -> sweep -> analyze(cap=B_dom) -> report for one preset; returns artifacts."""
    cfg = PRESET_RUNS[name]
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    csv = d / "traces.csv"
    sw, pw, jw = cfg["widths"]
    assert main(
        ["gen", "--family", "rn", "--preset", name, "--rows", str(cfg["rows"]),
         "--noise-std", "0.02", "--seed", str(BASE_SEED), "--out", str(csv)]
    ) == 0
    assert main(
        ["sweep", "--data", str(csv), "--k-max", "3", "--tau", "0.05",
         "--seeds-per-k", "3", "--seed", str(BASE_SEED),
         "--secret-widths", sw, "--public-widths", pw, "--joint-widths", jw]
        + TRAIN_FLAGS + ["--out-dir", str(d / "sweep")]
    ) == 0
    sweep = json.loads((d / "sweep" / "sweep.json").read_text())
    k_star = sweep["k_star"]
    b_dom = 2 ** D.rn_preset(name).n_secret_bits
    assert main(
        ["analyze", "--model", str(d / "sweep" / f"models/k{k_star}.json"),
         "--cap", str(b_dom), "--out", str(d / "census.json")]
    ) == 0
    assert main(
        ["report", "--census", str(d / "census.json"),
         "--sweep", str(d / "sweep" / "sweep.json"), "--out", str(d / "report.json")]
    ) == 0
    return {
        "sweep": sweep,
        "census": json.loads((d / "census.json").read_text()),
        "report": json.loads((d / "report.json").read_text()),
        "ground_truth": json.loads(Path(str(csv) + ".groundtruth.json").read_text()),
        "bytes": {
            "sweep.json": (d / "sweep" / "sweep.json").read_bytes(),
            "census.json": (d / "census.json").read_bytes(),
            "report.json": (d / "report.json").read_bytes(),
        },
    }


@pytest.fixture(scope="module")
def preset_pipelines(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_run1")
    return {name: run_preset_pipeline(root, name) for name in PRESET_RUNS}


def test_criterion_1_entropy_arithmetic():
    with criterion(1, "entropy arithmetic"):
        t0 = time.monotonic()
        five = C.census_from_sizes([68, 16, 27, 1, 16])
        assert Q.remaining_entropy(five) == pytest.approx(5.24, abs=0.01)
        assert Q.shannon_leak(five) == pytest.approx(1.76, abs=0.01)

        pw = C.census_from_sizes([48, 6760, 4309, 5269])
        assert Q.remaining_entropy(pw) == pytest.approx(12.41, abs=0.01)

        keyed = C.census_from_sizes([10_000] * 26, cap=10_000)
        assert Q.initial_entropy(keyed) == pytest.approx(17.99, abs=0.01)
        assert Q.remaining_entropy(keyed) == pytest.approx(13.29, abs=0.01)
        assert Q.shannon_leak(keyed) == pytest.approx(4.71, abs=0.01)

        profiles = C.census_from_sizes([60] * 8, cap=60)
        assert Q.initial_entropy(profiles) == pytest.approx(8.91, abs=0.01)
        assert Q.shannon_leak(profiles) == pytest.approx(3.00, abs=0.01)

        records = C.census_from_sizes([3] * 60, cap=3)
        assert Q.initial_entropy(records) == pytest.approx(7.49, abs=0.01)
        assert Q.remaining_entropy(records) == pytest.approx(1.58, abs=0.01)

        assert time.monotonic() - t0 < 1.0


def test_criterion_2_counting_oracle_equivalence():
    with criterion(2, "counting oracle equivalence"):
        t0 = time.monotonic()
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, 5))
            depth = int(rng.integers(1, 3))
            hidden = tuple(int(rng.integers(2, 17)) for _ in range(depth))
            net = random_reducer_net(rng, n_secret=n, k=k, hidden=hidden)
            reducer = C.extract_reducer(net)
            dom = C.SecretDomain(los=(0,) * n, his=(1,) * n)
            for cap in (1, 5, dom.size):
                bnb = C.bnb_census(reducer, dom, cap=cap)
                brute = C.brute_force_census(reducer, dom, cap=cap)
                assert bnb == brute, f"trial {trial}: n={n} k={k} cap={cap}"
        elapsed = time.monotonic() - t0
        assert elapsed < 120, f"took {elapsed:.1f}s"


def _relu_kink_distance(net, batch) -> float:
    """Smallest |pre-activation| across the public and joint ReLU stacks; the
    loss is differentiable in the checked parameters only away from zero."""
    ws = N._forward_cache(net.stack, batch[0][None], batch[1][None])
    dists = [np.min(np.abs(z)) for z, _ in ws.public + ws.joint]
    return min(dists) if dists else np.inf


def test_criterion_3_gradient_correctness():
    with criterion(3, "gradient correctness"):
        rng = np.random.default_rng(7)
        trials = 0
        while trials < 10:
            k = int(rng.integers(0, 4))
            arch = N.Architecture(
                n_secret=int(rng.integers(2, 5)),
                n_public=int(rng.integers(1, 4)),
                k=k,
                secret_widths=(int(rng.integers(2, 9)),),
                public_widths=(int(rng.integers(2, 9)),),
                joint_widths=(int(rng.integers(2, 9)),),
            )
            net = N.init(arch, seed=trials)
            batch = (
                rng.normal(size=(5, arch.n_secret)),
                rng.normal(size=(5, arch.n_public)),
                rng.normal(size=5),
            )
            if _relu_kink_distance(net, batch) < 1e-4:
                continue  # finite differences are invalid across a ReLU kink
            trials += 1
            _, grad = N.loss_and_gradients(net.stack, tuple(a[None] for a in batch))

            def non_ste(vec):
                # Public, joint and output arrays: no straight-through surrogate.
                v = N.TriBranchNetwork(arch, vec)
                return [a for layer in (*v.public_layers, *v.joint_layers, v.out_layer) for a in layer]

            def loss_at(b=batch):
                t_hat, _ = N.predict_batch(net, b[0], b[1])
                return float(np.mean((t_hat - b[2]) ** 2))

            for p, g in zip(non_ste(net.flat), non_ste(grad)):
                flat_p, flat_g = p.reshape(-1), g.reshape(-1)
                for i in range(flat_p.size):
                    orig = flat_p[i]
                    h = 1e-6 * max(1.0, abs(orig))
                    flat_p[i] = orig + h
                    up = loss_at()
                    flat_p[i] = orig - h
                    down = loss_at()
                    flat_p[i] = orig
                    fd = (up - down) / (2 * h)
                    assert fd == pytest.approx(flat_g[i], rel=1e-4, abs=1e-6)


def test_criterion_4_micro_benchmark_end_to_end(preset_pipelines):
    with criterion(4, "micro-benchmark end-to-end"):
        t0 = time.monotonic()
        for name, cfg in PRESET_RUNS.items():
            run = preset_pipelines[name]
            k_star = run["sweep"]["k_star"]
            rec = next(r for r in run["sweep"]["records"] if r["k"] == k_star)
            gt_entropy = conditional_entropy_of_sizes(run["ground_truth"])
            se_o = run["report"]["se_o"]
            assert rec["test_r2"] >= 0.95, f"{name}: R2 {rec['test_r2']:.4f}"
            assert abs(k_star - cfg["expected_k"]) <= 1, f"{name}: k*={k_star}"
            assert abs(se_o - gt_entropy) <= 0.3, (
                f"{name}: SE_O {se_o:.3f} vs ground truth {gt_entropy:.3f}"
            )
        assert time.monotonic() - t0 < 900


def test_criterion_5_noninterference_negative_control(tmp_path):
    with criterion(5, "noninterference negative control"):
        t0 = time.monotonic()
        # Time depends on the public integer alone. Enough rows that every
        # trained model reaches the shared noise floor, where the SSE curve
        # is flat in k.
        always = (D.Clause(lambda x: np.ones(x.shape[0], dtype=bool), 1.0),)
        ds = D.gen_rn(4, always, 3, rows=1600, noise_std=0.05, seed=3)
        csv = tmp_path / "public_only.csv"
        D.write_csv(ds, csv)
        passes = 0
        for seed in range(5):
            out_dir = tmp_path / f"run{seed}"
            assert main(
                ["sweep", "--data", str(csv), "--k-max", "2", "--seeds-per-k", "3",
                 "--seed", str(seed),
                 "--secret-widths", "6", "--public-widths", "6", "--joint-widths", "12"]
                + TRAIN_FLAGS + ["--out-dir", str(out_dir)]
            ) == 0
            sweep = json.loads((out_dir / "sweep.json").read_text())
            curve = [r["test_sse"] for r in sweep["records"]]
            if sweep["k_star"] == 0 and sweep["verdict"] == "NoLeakDetected" and curve[0] <= 1.1 * curve[-1]:
                passes += 1
        assert passes >= 4, f"only {passes}/5 runs reported NoLeakDetected"
        assert time.monotonic() - t0 < 300


def test_criterion_6_determinism(preset_pipelines, tmp_path_factory):
    with criterion(6, "byte-identical artifacts on re-run"):
        root = tmp_path_factory.mktemp("accept_run2")
        for name in PRESET_RUNS:
            rerun = run_preset_pipeline(root, name)
            for artifact, blob in preset_pipelines[name]["bytes"].items():
                assert rerun["bytes"][artifact] == blob, f"{name}: {artifact} differs"


def test_criterion_7_scale_probe(tmp_path):
    with criterion(7, "branch-loop scale probe"):
        csv = tmp_path / "bl3.csv"
        assert main(
            ["gen", "--family", "bl", "--i", "3", "--rows", "3024", "--seed", "2", "--out", str(csv)]
        ) == 0
        model = tmp_path / "model.json"
        assert main(
            ["train", "--data", str(csv), "--k", "6", "--seed", "2",
             "--secret-widths", "20,20", "--public-widths", "10", "--joint-widths", "40"]
            + TRAIN_FLAGS + ["--out", str(model)]
        ) == 0
        t0 = time.monotonic()
        census_path = tmp_path / "census.json"
        assert main(
            ["analyze", "--model", str(model), "--cap", "100", "--out", str(census_path)]
        ) == 0
        analyze_seconds = time.monotonic() - t0
        census = C.ClassCensus.from_json(json.loads(census_path.read_text()))
        assert census.complete
        assert 4 <= census.feasible_count <= 64, f"K={census.feasible_count}"
        assert census.total_counted <= 2**11
        assert analyze_seconds < 600, f"analyze took {analyze_seconds:.1f}s"
