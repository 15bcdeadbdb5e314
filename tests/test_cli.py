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


def edit_first(obj: dict, key: str, **fields) -> dict:
    """An edit that changes `fields` of the first entry of the list obj[key]."""
    return {key: [{**obj[key][0], **fields}, *obj[key][1:]]}


def apply_edit(obj: dict, edit) -> dict:
    """`obj` with the top-level keys of `edit` replaced; a callable edit is
    given `obj` and returns those keys."""
    return {**obj, **(edit(obj) if callable(edit) else edit)}


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

    def test_analyze_reports_node_outcomes(self, artifacts, tmp_path, capsys):
        _, sweep_dir, census_path, _ = artifacts
        census = json.loads(census_path.read_text())
        outcomes = census["node_outcomes"]
        names = ["decided", "pruned", "enumerated", "split"]
        assert sorted(outcomes) == sorted(names)
        assert sum(outcomes.values()) == census["nodes"]
        out = tmp_path / "again.json"
        k = census["k"]
        assert main(["analyze", "--model", str(sweep_dir / f"models/k{k}.json"), "--cap", "4", "--out", str(out)]) == 0
        line = capsys.readouterr().out
        assert f"nodes={census['nodes']} (" + ", ".join(f"{name}={outcomes[name]}" for name in names) + ")" in line

    @pytest.mark.parametrize(
        "edit",
        [
            {"k": 40},
            {"k": -1},
            {"classes": []},
            {"classes": "x"},
            lambda census: edit_first(census, "classes", count=census["classes"][0]["count"] + 0.9),
            {"complete": "false"},
            {"nodes": 1.5},
            {"nodes": True},
            lambda census: {"node_outcomes": {**census["node_outcomes"], "split": census["node_outcomes"]["split"] + 0.5}},
            {"nodes": -1},
            lambda census: edit_first(census, "classes", status="cap_hit", count=census["cap"] - 1),
            lambda census: edit_first(census, "classes", status="counted", count=census["cap"]),
        ],
        ids=[
            "k40", "negative-k", "no-classes", "classes-not-a-list", "count-float", "complete-string",
            "nodes-float", "nodes-bool", "outcome-float", "nodes-negative", "cap-hit-below-cap", "counted-at-cap",
        ],
    )
    def test_report_malformed_census_exits_5(self, artifacts, tmp_path, capsys, edit):
        _, sweep_dir, census_path, _ = artifacts
        bad = tmp_path / "bad_census.json"
        bad.write_text(json.dumps(apply_edit(json.loads(census_path.read_text()), edit)))
        rc = main(["report", "--census", str(bad), "--sweep", str(sweep_dir / "sweep.json"), "--out", str(tmp_path / "r.json")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("error: census ") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            {"records": None},
            {"records": [{"k": 0}]},
            {"tau": "x"},
            {"k_star": 9},
            {"format": "other"},
            lambda sweep: {"k_star": sweep["k_star"] + 0.9},
            {"tau": True},
            lambda sweep: edit_first(sweep, "records", seed=sweep["records"][0]["seed"] + 0.5),
            lambda sweep: edit_first(sweep, "records", test_sse=str(sweep["records"][0]["test_sse"])),
            lambda sweep: edit_first(sweep, "records", model_path=5),
            lambda sweep: edit_first(sweep, "records", seed=-1),
            lambda sweep: edit_first(sweep, "records", test_sse=float("nan")),
            {"tau": 5.0},
        ],
        ids=[
            "records-null", "record-fields", "tau", "k-star-outside", "format", "k-star-float", "tau-bool",
            "seed-float", "sse-string", "model-path-number", "seed-negative", "sse-nan", "tau-out-of-range",
        ],
    )
    def test_report_malformed_sweep_exits_5(self, artifacts, tmp_path, capsys, edit):
        _, sweep_dir, census_path, _ = artifacts
        bad = tmp_path / "bad_sweep.json"
        bad.write_text(json.dumps(apply_edit(json.loads((sweep_dir / "sweep.json").read_text()), edit)))
        rc = main(["report", "--census", str(census_path), "--sweep", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) > len("error: \n")
        assert not (tmp_path / "r.json").exists()

    def test_empty_error_message_names_the_exception(self, artifacts, tmp_path, capsys, monkeypatch):
        _, sweep_dir, census_path, _ = artifacts

        def fail(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("timeleak.quantifier.build_report", fail)
        rc = main(["report", "--census", str(census_path), "--sweep", str(sweep_dir / "sweep.json"), "--out", str(tmp_path / "r.json")])
        assert rc == 5
        assert capsys.readouterr().err == "error: MemoryError\n"

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

    def test_non_finite_model_weights_analyze(self, artifacts, tmp_path, capsys):
        _, sweep_dir, _, _ = artifacts
        model = json.loads((sweep_dir / "models/k1.json").read_text())
        model["weights"]["iface"]["w"][0][0] = float("nan")
        bad = tmp_path / "nan_model.json"
        bad.write_text(json.dumps(model))  # json writes NaN as a bare token, which it also reads back
        rc = main(["analyze", "--model", str(bad), "--out", str(tmp_path / "c.json")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err == "error: model weights are not all finite\n"
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("secret_denom", "zeros", "secret_denom values must all be > 0"),
            ("secret_denom", "negated", "secret_denom values must all be > 0"),
            ("secret_denom", "short", "secret_denom must hold"),
            ("secret_shift", "short", "secret_shift must hold"),
            ("secret_shift", "long", "secret_shift must hold"),
            ("secret_shift", "scalar", "secret_shift must hold"),
        ],
    )
    def test_malformed_normalizer_analyze_exits_4(self, artifacts, tmp_path, capsys, field, value, message):
        # An all-zero denominator used to exit 0 with a one-class census
        # that `report` reads as no leak.
        _, sweep_dir, _, _ = artifacts
        model = json.loads((sweep_dir / "models/k1.json").read_text())
        values = model["normalizer"][field]
        model["normalizer"][field] = {
            "zeros": [0.0] * len(values),
            "negated": [-v for v in values],
            "short": values[:-1],
            "long": values + [1.0],
            "scalar": 1.0,
        }[value]
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(model))
        rc = main(["analyze", "--model", str(bad), "--out", str(tmp_path / "c.json")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: model normalizer {message}") and err.count("\n") == 1
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda m: m.pop("architecture"), "architecture"),
            (lambda m: m["architecture"].update(k="2"), "architecture.k"),
            (lambda m: m["architecture"].update(k=True), "architecture.k"),
            (lambda m: m["architecture"].update(secret_widths=[True]), "architecture.secret_widths"),
            (lambda m: m["weights"].update(secret="w"), "weights.secret"),
            (lambda m: m["schema"]["secret"][0].update(domain={"int": [0, 10**30]}), "schema"),
            (lambda m: m["normalizer"].pop("secret_shift"), "normalizer secret_shift is missing"),
            (lambda m: m.update(normalizer="x"), "normalizer must be an object"),
            (lambda m: m["normalizer"].update(time_scale="a"), "normalizer time_scale must be a number"),
            (lambda m: m["normalizer"].update(time_shift=True), "normalizer time_shift must be a number"),
            (lambda m: m["normalizer"]["public_shift"].pop(), "normalizer public_shift must hold"),
            (lambda m: m["normalizer"].update(public_scale=[["1.0"]] * len(m["normalizer"]["public_scale"])), "normalizer public_scale must hold"),
            (lambda m: m["normalizer"].update(time_scale=0.0), "normalizer time_scale must be > 0"),
            (lambda m: m["normalizer"].update(public_scale=[-1.0] * len(m["normalizer"]["public_scale"])), "normalizer public_scale values"),
            (lambda m: m.update(metrics="x"), "metrics must be an object or null"),
            (lambda m: m["schema"]["secret"][0].pop("name"), "schema: secret[0].name is missing"),
            (lambda m: m["schema"].update(public="abc"), "schema: public must be a list"),
        ],
        ids=[
            "no-architecture",
            "string-k",
            "bool-k",
            "bool-width",
            "string-secret-weights",
            "domain-beyond-int64",
            "no-secret-shift",
            "string-normalizer",
            "string-time-scale",
            "bool-time-shift",
            "short-public-shift",
            "string-public-scale",
            "zero-time-scale",
            "negative-public-scale",
            "string-metrics",
            "schema-feature-without-name",
            "schema-public-string",
        ],
    )
    def test_malformed_model_analyze_exits_4(self, artifacts, tmp_path, capsys, edit, field):
        # Each of these used to exit 4 with a raw Python message, such as
        # "'architecture'" or "high is out of bounds for int64", or (a short
        # public_shift, a zero time_scale) exit 0.
        _, sweep_dir, _, _ = artifacts
        model = json.loads((sweep_dir / "models/k1.json").read_text())
        edit(model)
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(model))
        rc = main(["analyze", "--model", str(bad), "--out", str(tmp_path / "c.json")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: model {field}") and err.count("\n") == 1
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--cap", "0"), ("--budget", "0"), ("--budget", "-5")], ids=["cap-0", "budget-0", "budget-negative"]
    )
    def test_bad_census_limit_analyze_exits_4(self, artifacts, tmp_path, capsys, flag, value):
        # A budget below 1 used to exit 0 with an incomplete census in which
        # every class read "infeasible".
        _, sweep_dir, _, _ = artifacts
        rc = main(["analyze", "--model", str(sweep_dir / "models/k1.json"), flag, value, "--out", str(tmp_path / "c.json")])
        assert rc == 4
        assert capsys.readouterr().err == f"error: {flag[2:]} must be >= 1\n"
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"secret": [{"domain": "binary"}]}', "sidecar t.schema.json secret[0].name is missing"),
            ('{"secret": 5}', "sidecar t.schema.json secret must be a list, got 5"),
            ('[{"name": "s_0", "domain": "binary"}]', "sidecar t.schema.json must be an object, got"),
            ('{"secret": [{"name": "s_0", "domain": "binary"}], "time_unit": 5}', "sidecar t.schema.json time_unit must be a string"),
            ('{"secret": [{"name": "s_0", "domain": "binary"}], "public": "abc"}', "sidecar t.schema.json public must be a list"),
            ("{broken", "cannot read JSON file {sidecar}: Expecting property name"),
        ],
        ids=["no-name", "secret-number", "top-level-list", "time-unit-number", "public-string", "unreadable"],
    )
    def test_malformed_sidecar_exits_3(self, tmp_path, capsys, text, message):
        data = tmp_path / "t.csv"
        data.write_text("s_0,p_0,time\n0,1,1.0\n1,2,2.0\n")
        sidecar = tmp_path / "t.schema.json"
        sidecar.write_text(text)
        rc = main(["sweep", "--data", str(data), "--sidecar", str(sidecar), "--out-dir", str(tmp_path / "o")] + QUICK_TRAIN)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(sidecar=sidecar)}") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--census", "--sweep"])
    def test_unreadable_report_input_names_the_file(self, artifacts, tmp_path, capsys, flag):
        # Used to print only the parser's message, naming neither flag nor file.
        _, sweep_dir, census_path, _ = artifacts
        bad = tmp_path / "broken.json"
        bad.write_text("{broken")
        inputs = {"--census": census_path, "--sweep": sweep_dir / "sweep.json", flag: bad}
        rc = main(["report", *(str(a) for pair in inputs.items() for a in pair), "--out", str(tmp_path / "r.json")])
        assert rc == 5
        assert capsys.readouterr().err.startswith(f"error: cannot read JSON file {bad}: Expecting property name")
        assert not (tmp_path / "r.json").exists()

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


    @pytest.mark.parametrize("text", [None, "{broken", "[1, 2]"], ids=["missing", "malformed", "list"])
    def test_bad_config_is_a_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "a.csv"
        rc = main(["gen", "--config", str(cfg), "--family", "rn", "--preset", "R_2", "--rows", "10", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize(
        "command, config, key",
        [
            (["gen"], {"family": "xyz", "rows": 20}, "family"),
            (["gen", "--family", "rn", "--preset", "R_2"], {"rows": True}, "rows"),
            (["gen", "--family", "rn", "--preset", "R_2"], {"rows": "20.5"}, "rows"),
            (["sweep", "--data", "DATA"], {"k_max": [1]}, "k_max"),
        ],
        ids=["choice-outside", "bool-for-int", "float-text-for-int", "list-for-int"],
    )
    def test_config_value_its_flag_refuses_is_a_usage_error(self, tmp_path, capsys, command, config, key):
        # A value from the file is taken only where the same value passes on
        # the command line, against the flag's type and choices.
        data = gen_r2(tmp_path, rows=60)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        flag = "--out-dir" if command[0] == "sweep" else "--out"
        argv = [str(data) if a == "DATA" else a for a in command] + ["--config", str(cfg), flag, str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config {key}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_config_keys_of_other_subcommands_are_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rows": 30, "k_max": [1], "cap": "many"}))
        out = tmp_path / "a.csv"
        assert main(["gen", "--config", str(cfg), "--family", "rn", "--preset", "R_2", "--out", str(out)]) == 0
        assert D.load_csv(out).n_rows == 30


class TestEpsilon:
    def test_sweep_epsilon_keys_and_report(self, tmp_path):
        # An epsilon far above every residual says no leak; where the SSE
        # elbow says leak, the two disagree and sweep.json notes it.
        csv = gen_r2(tmp_path)
        sweep_dir = tmp_path / "sweep"
        rc = main(
            ["sweep", "--data", str(csv), "--k-max", "1", "--seeds-per-k", "1", "--seed", "1", "--epsilon", "1e9"]
            + QUICK_TRAIN
            + ["--out-dir", str(sweep_dir)]
        )
        assert rc == 0
        sweep = json.loads((sweep_dir / "sweep.json").read_text())
        assert sweep["k_star"] == 1 and sweep["verdict"] == "LeakDetected(k=1)"
        assert sweep["epsilon"] == 1e9 and sweep["epsilon_verdict"] == "NoLeakDetected"
        assert "disagrees with the SSE elbow" in sweep["note"]
        census, report = tmp_path / "census.json", tmp_path / "report.json"
        assert main(["analyze", "--model", str(sweep_dir / "models/k1.json"), "--cap", "4", "--out", str(census)]) == 0
        assert main(["report", "--census", str(census), "--sweep", str(sweep_dir / "sweep.json"), "--out", str(report)]) == 0
        assert json.loads(report.read_text())["provenance"]["sweep"]["verdict"] == "LeakDetected(k=1)"


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
