"""Tests of the benchmark's own reference checks and span arithmetic.

    python3 -m pytest bench -q
"""

import json
import math

import numpy as np
import pytest

import common
import inputs
import probe
import reference
import spans


def branch_model(w1, b1, wi, bi, domains, shift, denom) -> dict:
    return {
        "normalizer": {"secret_shift": shift, "secret_denom": denom},
        "weights": {"secret": [{"w": w1, "b": b1}], "iface": {"w": wi, "b": bi}},
        "schema": {"secret": [{"name": f"s_{j}", "domain": d} for j, d in enumerate(domains)]},
    }


def test_r3_classes_and_entropy():
    assert reference.r3_class_sizes() == [3, 3, 2]
    se_i, se_o, se_l = reference.entropy_figures([3, 3, 2])
    assert se_i == 3.0
    assert se_o == pytest.approx((6 * math.log2(3) + 2) / 8, abs=1e-15)
    assert se_l == pytest.approx(3.0 - se_o, abs=1e-15)
    assert reference.entropy_figures([4, 0]) == (2.0, 2.0, 0.0)


def test_binary_branch_counts():
    # bit = x0 + x1 >= 1.5: only (1, 1) maps to valuation 1.
    model = branch_model([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [[1.0, 1.0]], [-1.5], ["binary"] * 2, [0.0, 0.0], [1.0, 1.0])
    assert reference.SecretBranch(model).class_counts() == ([3, 1], 0)


def test_integer_branch_counts_decide_ties_exactly():
    # x in [-2, 2], normalized (x + 2) / 4; h = 4 * that = x + 2; bit = x >= 0.
    model = branch_model([[4.0]], [0.0], [[1.0]], [-2.0], [{"int": [-2, 2]}], [-2.0], [4.0])
    counts, rechecked = reference.SecretBranch(model).class_counts()
    assert counts == [2, 3]
    assert rechecked == 1  # x = 0 lands exactly on the threshold


def test_exact_bits_where_float_sums_cancel():
    # 1e16 + 1 rounds back to 1e16 in float64; the exact sum keeps the 1.
    model = branch_model(np.eye(3).tolist(), [0.0] * 3, [[1e16, 1.0, -1e16]], [-0.75], ["binary"] * 3, [0.0] * 3, [1.0] * 3)
    branch = reference.SecretBranch(model)
    assert branch.exact_bits([1, 1, 1]) == [1]
    assert branch.exact_bits([1, 0, 1]) == [0]
    counts, rechecked = branch.class_counts()
    assert counts == [4, 4]
    assert rechecked == 2  # x0 = x2 = 1, where the 1e16 terms cancel


def test_check_census_caps():
    ref = [5, 0, 3, 1]
    census = {
        "format": "timeleak-census",
        "k": 2,
        "cap": 3,
        "complete": True,
        "classes": [
            {"valuation": "00", "status": "cap_hit", "count": 3},
            {"valuation": "01", "status": "infeasible", "count": 0},
            {"valuation": "10", "status": "cap_hit", "count": 3},
            {"valuation": "11", "status": "counted", "count": 1},
        ],
    }
    assert reference.check_census(census, ref, 3) == []
    census["classes"][2]["status"] = "counted"
    assert len(reference.check_census(census, ref, 3)) == 1
    census["complete"] = False
    assert len(reference.check_census(census, ref, 3)) == 2


def test_three_row_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("s_a,p_b,time\n0,5,1.5\n1,-3,2.25\n1,7,0.1\n")
    header, cells = reference.read_trace_csv(path)
    assert header == ["s_a", "p_b", "time"]
    assert np.array_equal(cells, [[0, 5, 1.5], [1, -3, 2.25], [1, 7, 0.1]])


def test_writer_round_trips_exactly(tmp_path):
    t = np.array([0.1, 1 / 3, 1e-300, 12345.678901234567])
    ints = np.array([-10000, 0, 1, 10000])
    path = tmp_path / "w.csv"
    inputs.write_trace_csv(path, ["s_i", "time"], [ints, t])
    header, cells = reference.read_trace_csv(path)
    assert header == ["s_i", "time"]
    assert np.array_equal(cells[:, 0], ints) and np.array_equal(cells[:, 1], t)


def test_check_loaded_trace():
    source = {"x": np.zeros((2, 1)), "y": np.ones((2, 1)), "t": np.array([1.0, 2.0])}
    sidecar = {"secret": [{"name": "s_0", "domain": "binary"}]}
    loaded = {"digests": {k: reference.array_digest(v) for k, v in source.items()}, "domains": ["binary"]}
    assert reference.check_loaded_trace(loaded, source, sidecar) == []
    loaded["digests"]["t"] = reference.array_digest(np.array([1.0, 2.0 + 1e-15]))
    loaded["domains"] = [{"int": [0, 1]}]
    assert len(reference.check_loaded_trace(loaded, source, sidecar)) == 2


def test_check_detect(tmp_path):
    (tmp_path / "sweep").mkdir()
    sweep = {"k_star": 2, "records": [{"k": 2, "test_r2": 0.99}]}
    census = {"k": 2, "complete": True, "classes": [{"count": c} for c in (3, 3, 2, 0)]}
    se_i, se_o, se_l = reference.entropy_figures([3, 3, 2])
    report = {"se_i": se_i, "se_o": se_o, "se_l": se_l}
    for name, obj in (("sweep/sweep.json", sweep), ("census.json", census), ("report.json", report)):
        (tmp_path / name).write_text(json.dumps(obj))
    assert reference.check_detect(tmp_path) == []
    report["se_o"] += 0.5
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert len(reference.check_detect(tmp_path)) == 2  # off the truth and off the recomputation


def test_census_seeds_are_symmetric_copies():
    """Two seeds give different model files with the same class sizes."""
    dense = [reference.SecretBranch(m) for seed in (1, 2) for name, m, _ in inputs.census_models(seed) if name == "a"]
    assert not np.array_equal(dense[0].hidden[0][0], dense[1].hidden[0][0])
    counts = [dense[0].class_counts()[0], dense[1].class_counts()[0]]
    assert counts[0] != counts[1]
    assert sorted(counts[0]) == sorted(counts[1])


def test_union_and_self_time():
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    names = ["cli.main", "sweep.sweep_k", "network.train"]
    recorded = {
        "sid": np.array([2, 3, 1, 0]),
        "parent": np.array([1, 1, 0, -1]),
        "name": np.array([2, 2, 1, 0]),
        "start": np.array([1.0, 3.0, 0.5, 0.0]),
        "end": np.array([2.0, 4.5, 5.0, 6.0]),
    }
    total, own, calls = spans.span_totals(names, recorded)
    assert total == {"cli.main": 6.0, "sweep.sweep_k": 4.5, "network.train": 2.5}
    assert own == {"cli.main": 1.5, "sweep.sweep_k": 2.0, "network.train": 2.5}
    assert calls == {"cli.main": 1, "sweep.sweep_k": 1, "network.train": 2}


def test_per_layer_metrics_match_benchmark_json():
    declared = common.benchmark()["per_layer"]
    produced = spans.layer_metrics({}, {}, {}, {})
    assert [m["name"] for m in declared] == list(produced)
    assert all(v == 0 for v in produced.values())


def test_speed_factor_uses_the_samples_within_the_interval(tmp_path):
    path = tmp_path / "probe.txt"
    passes = [(1.0, 0.1)] + [(2.0 + i / 10, 0.2 if i < 4 else 0.4) for i in range(6)] + [(2.6, 9.0), (4.0, 5.0)]
    path.write_text("".join(f"{t!r} {d!r}\n" for t, d in passes))
    samples = probe.read_samples(path)
    assert samples.shape == (9, 2)
    # Of the 7 passes in [2, 4) the 5 fastest are kept: 4 of 0.2 and 1 of 0.4.
    assert probe.speed_factor(samples, 2.0, 4.0) == pytest.approx(probe.NOMINAL_S / 0.24)
    with pytest.raises(ValueError):
        probe.speed_factor(samples, 4.5, 5.0)
