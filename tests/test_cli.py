import json
from pathlib import Path

import pytest

from timeleak import dataset as D
from timeleak import network as N
from timeleak.cli import main

QUICK_TRAIN = [
    "--secret-widths", "5",
    "--public-widths", "5",
    "--joint-widths", "10",
    "--lr", "0.02",
    "--ste-clip", "4",
    "--max-epochs", "120",
    "--patience", "60",
]


def gen_r2(tmp_path, rows=400, seed=1) -> Path:
    out = tmp_path / "traces.csv"
    rc = main(
        ["gen", "--family", "rn", "--preset", "R_2", "--rows", str(rows), "--seed", str(seed), "--out", str(out)]
    )
    assert rc == 0
    return out


class TestGen:
    def test_rn_artifacts(self, tmp_path, capsys):
        out = tmp_path / "r3.csv"
        rc = main(["gen", "--family", "rn", "--preset", "R_3", "--rows", "800", "--seed", "1", "--out", str(out)])
        assert rc == 0
        ds = D.load_csv(out, sidecar=Path(str(out) + ".schema.json"))
        assert ds.n_rows == 800 and ds.schema.n_secret == 3
        assert json.loads(Path(str(out) + ".groundtruth.json").read_text()) == [3, 3, 2]
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["command"] == "gen" and "manifest_hash" in manifest

    def test_bl_defaults(self, tmp_path):
        out = tmp_path / "bl2.csv"
        rc = main(["gen", "--family", "bl", "--i", "2", "--rows", "1512", "--out", str(out)])
        assert rc == 0
        ds = D.load_csv(out)
        assert ds.n_rows == 1512 and ds.schema.n_secret == 10  # 8 + i secret bits
        assert json.loads(Path(str(out) + ".groundtruth.json").read_text()) == [128] * 8

    def test_sort_demo(self, tmp_path):
        out = tmp_path / "sort.csv"
        rc = main(["gen", "--family", "sort", "--rows", "500", "--max-len", "2000", "--out", str(out)])
        assert rc == 0
        assert D.load_csv(out).schema.n_secret == 0

    def test_rn_without_preset_fails(self, tmp_path, capsys):
        rc = main(["gen", "--family", "rn", "--rows", "10", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_generation_determinism(self, tmp_path):
        a = gen_r2(tmp_path / "a")
        b = gen_r2(tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipe")
    csv = gen_r2(tmp_path)
    sweep_dir = tmp_path / "sweep"
    rc = main(
        ["sweep", "--data", str(csv), "--k-max", "2", "--seeds-per-k", "2", "--seed", "1"]
        + QUICK_TRAIN
        + ["--out-dir", str(sweep_dir)]
    )
    assert rc == 0
    sweep = json.loads((sweep_dir / "sweep.json").read_text())
    k = max(sweep["k_star"], 1)
    census_path = tmp_path / "census.json"
    rc = main(["analyze", "--model", str(sweep_dir / f"models/k{k}.json"), "--cap", "4", "--out", str(census_path)])
    assert rc == 0
    report_path = tmp_path / "report.json"
    rc = main(["report", "--census", str(census_path), "--sweep", str(sweep_dir / "sweep.json"), "--out", str(report_path)])
    assert rc == 0
    return tmp_path, sweep_dir, census_path, report_path


class TestPipeline:
    def test_sweep_artifacts(self, artifacts):
        _, sweep_dir, _, _ = artifacts
        sweep = json.loads((sweep_dir / "sweep.json").read_text())
        assert sweep["k_star"] >= 1
        assert sweep["verdict"].startswith("LeakDetected")
        assert "manifest_hash" in sweep
        assert [r["k"] for r in sweep["records"]] == [0, 1, 2]
        assert all((sweep_dir / r["model_path"]).exists() for r in sweep["records"])
        svg = (sweep_dir / "sse_vs_k.svg").read_text()
        assert "<svg" in svg and "polyline" in svg and "k*=" in svg

    def test_census_artifact(self, artifacts):
        _, _, census_path, _ = artifacts
        census = json.loads(census_path.read_text())
        assert census["complete"] is True
        assert sum(c["count"] for c in census["classes"]) == 4
        assert "manifest_hash" in census

    def test_report_artifact(self, artifacts, capsys):
        _, _, _, report_path = artifacts
        report = json.loads(report_path.read_text())
        assert report["se_l"] >= 0.0
        assert report["total"] == 4
        assert report["provenance"]["census_hash"]
        assert "manifest_hash" in report

    def test_analyze_rejects_k0_model(self, artifacts, capsys):
        tmp_path, sweep_dir, _, _ = artifacts
        rc = main(["analyze", "--model", str(sweep_dir / "models/k0.json"), "--out", str(tmp_path / "c0.json")])
        assert rc == 4
        assert "k=0 model has no reducer" in capsys.readouterr().err

    def test_report_k_mismatch_exits_5(self, artifacts, tmp_path, capsys):
        _, sweep_dir, census_path, _ = artifacts
        census = json.loads(census_path.read_text())
        sweep = json.loads((sweep_dir / "sweep.json").read_text())
        sweep["k_star"] = census["k"] + 1
        bad_sweep = tmp_path / "bad_sweep.json"
        bad_sweep.write_text(json.dumps(sweep))
        rc = main(["report", "--census", str(census_path), "--sweep", str(bad_sweep), "--out", str(tmp_path / "r.json")])
        assert rc == 5

    def test_cap_one_census(self, artifacts, tmp_path):
        _, sweep_dir, _, _ = artifacts
        sweep = json.loads((sweep_dir / "sweep.json").read_text())
        k = max(sweep["k_star"], 1)
        out = tmp_path / "cap1.json"
        rc = main(["analyze", "--model", str(sweep_dir / f"models/k{k}.json"), "--cap", "1", "--out", str(out)])
        assert rc == 0
        census = json.loads(out.read_text())
        for cls in census["classes"]:
            assert cls["status"] in ("infeasible", "cap_hit")


class TestErrorPaths:
    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["sweep", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_csv_no_traceback(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("s_0,time\n0,abc\n")
        rc = main(["sweep", "--data", str(bad), "--out-dir", str(tmp_path / "o")] + QUICK_TRAIN)
        assert rc == 3
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep", "train"])
    def test_non_finite_cell_exits_3(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("s_0,p_0,time\n0,1,1.0\n1,nan,2.0\n")
        out = ["--out-dir", str(tmp_path / "o")] if command == "sweep" else ["--k", "1", "--out", str(tmp_path / "m.json")]
        rc = main([command, "--data", str(bad), *out] + QUICK_TRAIN)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite cell at row 3, column 'p_0'") and err.count("\n") == 1

    def test_corrupt_model_analyze(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("{broken")
        rc = main(["analyze", "--model", str(bad), "--out", str(tmp_path / "c.json")])
        assert rc == 4

    def test_missing_census_report(self, tmp_path):
        rc = main(
            ["report", "--census", str(tmp_path / "no.json"), "--sweep", str(tmp_path / "no2.json"), "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5


class TestTrainCommand:
    def test_train_writes_model(self, tmp_path, capsys):
        csv = gen_r2(tmp_path)
        out = tmp_path / "model.json"
        rc = main(["train", "--data", str(csv), "--k", "1", "--seed", "3"] + QUICK_TRAIN + ["--out", str(out)])
        assert rc == 0
        net = N.load(out)
        assert net.k == 1
        assert "test SSE" in capsys.readouterr().out


class TestSweepFlags:
    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--data", str(tmp_path / "t.csv"), "--threads", "1", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestConfigFile:
    def test_config_defaults_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rows": 120, "seed": 9}))
        out_a = tmp_path / "a.csv"
        rc = main(["gen", "--config", str(cfg), "--family", "rn", "--preset", "R_2", "--out", str(out_a)])
        assert rc == 0
        assert D.load_csv(out_a).n_rows == 120
        out_b = tmp_path / "b.csv"
        rc = main(
            ["gen", "--config", str(cfg), "--family", "rn", "--preset", "R_2", "--rows", "60", "--out", str(out_b)]
        )
        assert rc == 0
        assert D.load_csv(out_b).n_rows == 60


class TestTauMonotonicity:
    def test_larger_tau_never_larger_k(self, tmp_path):
        csv = gen_r2(tmp_path)
        ks = {}
        for tau in ("0.05", "0.5"):
            out_dir = tmp_path / f"sweep_{tau}"
            rc = main(
                ["sweep", "--data", str(csv), "--k-max", "2", "--seeds-per-k", "2", "--seed", "1",
                 "--tau", tau] + QUICK_TRAIN + ["--out-dir", str(out_dir)]
            )
            assert rc == 0
            ks[tau] = json.loads((out_dir / "sweep.json").read_text())["k_star"]
        assert ks["0.5"] <= ks["0.05"]
