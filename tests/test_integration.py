"""End-to-end run over an integer-valued secret domain.

Binary-secret pipelines are covered by the acceptance suite; this exercises
the other supported domain shape: one wide IntRange secret whose value picks
a timing band, trained, extracted, counted by bisection, and quantified.
"""

import json
import math

import numpy as np

from timeleak import counter as C
from timeleak import dataset as D
from timeleak import network as N
from timeleak import quantifier as Q
from timeleak.cli import main

from conftest import brute_force_census

DOMAIN_HI = 2000
BAND_EDGE = 667  # three bands: [0, 666], [667, 1333], [1334, 2000]


def band_of(values):
    return np.minimum(values // BAND_EDGE, 2)


def make_banded_dataset(rows=900, seed=5) -> D.TraceDataset:
    rng = np.random.default_rng(seed)
    goal = rng.integers(0, DOMAIN_HI + 1, size=rows)
    n_pub = rng.integers(1, 65, size=rows)
    t = (10.0 + (band_of(goal) + 1) * n_pub) * (1 + 0.02 * rng.standard_normal(rows))
    schema = D.FeatureSchema((("s_goal", D.IntRange(0, DOMAIN_HI)),), ("p_N",), "cost-units")
    return D.TraceDataset(
        schema, goal[:, None].astype(float), n_pub[:, None].astype(float), np.maximum(t, 0.0)
    )


def test_int_range_secret_end_to_end():
    ds = make_banded_dataset()
    trainval, test = D.split(ds, 0.1, 0)
    train, valid = D.split(trainval, 0.1, 1)
    arch = N.Architecture(n_secret=1, n_public=1, k=2, secret_widths=(8,), public_widths=(6,), joint_widths=(12,))

    best = None
    for seed in (0, 1, 2):
        cfg = N.TrainConfig(learning_rate=0.02, ste_clip=4.0, max_epochs=300, patience=120, seed=seed)
        net, _ = N.train(train, valid, arch, cfg)
        score = N.sse(net, test)
        if best is None or score < best[0]:
            best = (score, net)
    net = best[1]
    assert N.r2(net, test) >= 0.95

    reducer = C.extract_reducer(net)
    census = C.bnb_census(reducer, cap=reducer.domain_size)
    assert census == brute_force_census(reducer, cap=reducer.domain_size)
    assert census.total_counted == DOMAIN_HI + 1

    # The learned partition must recover the three bands' conditional entropy.
    true_sizes = np.bincount(band_of(np.arange(DOMAIN_HI + 1)))
    truth = sum(b * math.log2(b) for b in true_sizes) / (DOMAIN_HI + 1)
    report = Q.build_report(census)
    assert abs(report.remaining_bits - truth) <= 0.3
    assert 2 <= report.n_classes <= 4


def test_int_range_cap_census_matches_oracle():
    ds = make_banded_dataset(rows=400, seed=9)
    trainval, _ = D.split(ds, 0.1, 0)
    train, valid = D.split(trainval, 0.1, 1)
    arch = N.Architecture(n_secret=1, n_public=1, k=2, secret_widths=(6,), public_widths=(4,), joint_widths=(8,))
    net, _ = N.train(train, valid, arch, N.TrainConfig(learning_rate=0.02, ste_clip=4.0, max_epochs=60, patience=30, seed=0))
    reducer = C.extract_reducer(net)
    for cap in (1, 100):
        assert C.bnb_census(reducer, cap=cap) == brute_force_census(reducer, cap=cap)


def test_int_range_model_save_load_analyze(tmp_path):
    # The schema's {"int": [lo, hi]} domain survives a saved model, and
    # `analyze` on the loaded file counts the whole domain at cap = its size.
    ds = make_banded_dataset(rows=200, seed=3)
    train, valid = D.split(ds, 0.1, 0)
    arch = N.Architecture(n_secret=1, n_public=1, k=2, secret_widths=(4,), public_widths=(4,), joint_widths=(6,))
    net, _ = N.train(train, valid, arch, N.TrainConfig(learning_rate=0.02, ste_clip=4.0, max_epochs=10, seed=0))
    N.save(net, tmp_path / "model.json")
    loaded = N.load(tmp_path / "model.json")
    assert loaded.schema == ds.schema and np.array_equal(loaded.flat, net.flat)
    size = DOMAIN_HI + 1
    out = tmp_path / "census.json"
    assert main(["analyze", "--model", str(tmp_path / "model.json"), "--cap", str(size), "--out", str(out)]) == 0
    census = C.ClassCensus.from_json(json.loads(out.read_text()))
    assert census.total_counted == size
    assert census == C.bnb_census(C.extract_reducer(net), cap=size)
