import json
import math

import numpy as np
import pytest

from timeleak import dataset as D

from conftest import conditional_entropy_of_sizes

# Frozen oracle values: brute-force conditional entropies of the preset partitions.
R2_ENTROPY = 1.1887218755408671  # {3, 1}
R3_ENTROPY = 1.4387218755408671  # {3, 3, 2}


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# Reader corpus. The expected outcomes are what a row-wise `csv.reader` +
# `float()` parse gives: a file with a blank line is rejected, quoted cells and
# underscore numerals load, and errors name the row (the header is row 1).
CSV_HEADER = "s_0,p_0,time"
TWO_ROWS = ([[0.0], [1.0]], [[1.0], [2.0]], [2.5, 3.5])

LOADING_FILES = [
    pytest.param('0,"1",2.5\n1,2,3.5\n', TWO_ROWS, id="quoted-cell"),
    pytest.param("0, 1 ,2.5\n1,\t2,3.5 \n", TWO_ROWS, id="whitespace-around-number"),
    pytest.param("0,1_0,2.5\n", ([[0.0]], [[10.0]], [2.5]), id="underscore-numeral"),
    pytest.param("0,1,2.5\r\n1,2,3.5\r\n", TWO_ROWS, id="crlf-endings"),
    pytest.param("0,1,2.5\r1,2,3.5\r", TWO_ROWS, id="cr-endings"),
    pytest.param("0,1,2.5\n1,2,3.5", TWO_ROWS, id="no-final-newline"),
]

WIDTH_ERRORS = [
    pytest.param("0,1,2.5\n\n1,2,3.5\n", "row 3 has 0 cells, expected 3", id="blank-line-mid-file"),
    pytest.param("0,1,2.5\n1,2,3.5\n\n", "row 4 has 0 cells, expected 3", id="trailing-blank-line"),
    pytest.param("0,1,2.5,\n", "row 2 has 4 cells, expected 3", id="trailing-comma"),
    pytest.param("0,1,2.5\n1,2\n", "row 3 has 2 cells, expected 3", id="short-row"),
    pytest.param("0,1,2.5\n1,2,3.5,4\n", "row 3 has 4 cells, expected 3", id="long-row"),
]

CELL_ERRORS = [
    pytest.param("0,1,2.5\n1,#2,3.5\n", D.NonNumericCell, 3, "p_0", "#2", id="hash-in-cell"),
    pytest.param("0,,2.5\n", D.NonNumericCell, 2, "p_0", "", id="empty-cell"),
    pytest.param('0,"1,5",2.5\n', D.NonNumericCell, 2, "p_0", "1,5", id="quoted-comma"),
    pytest.param("0,1,2.5\n1,nan,3.5\n", D.NonFiniteCell, 3, "p_0", "nan", id="nan"),
    pytest.param("0,1,2.5\n-inf,2,3.5\n", D.NonFiniteCell, 3, "s_0", "-inf", id="neg-inf"),
    # Every cell parses before any is checked for finiteness.
    pytest.param("0,nan,2.5\n1,x,3.5\n", D.NonNumericCell, 3, "p_0", "x", id="bad-cell-after-nan"),
]


def write_exact(path, text):
    path.write_bytes(text.encode("utf-8"))


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,s_1,p_0,time", "0,1,5,3.2", "1,1,5,7.9"])
        ds = D.load_csv(f)
        assert ds.schema.n_secret == 2 and ds.schema.n_public == 1
        assert all(isinstance(dom, D.Binary) for _, dom in ds.schema.secret_features)
        assert ds.n_rows == 2
        assert ds.t.tolist() == [3.2, 7.9]

    def test_domain_inference(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_a,s_b,time", "0,-3,1", "1,0,1", "1,7,1", "0,0,1"])
        ds = D.load_csv(f)
        assert ds.schema.secret_features[0][1] == D.Binary()
        assert ds.schema.secret_features[1][1] == D.IntRange(-3, 7)

    def test_rn7_shaped_file(self, tmp_path):
        ds = D.gen_rn_preset("R_7", rows=12_800, noise_std=0.02, seed=5)
        f = tmp_path / "r7.csv"
        D.write_csv(ds, f)
        loaded = D.load_csv(f)
        assert loaded.schema.n_secret == 7
        assert loaded.schema.n_public == 7
        assert loaded.n_rows == 12_800

    def test_missing_time_column(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,p_0", "0,1"])
        with pytest.raises(D.MissingTimeColumn):
            D.load_csv(f)

    def test_non_numeric_cell(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,time", "0,1.0", "oops,2.0"])
        with pytest.raises(D.NonNumericCell) as info:
            D.load_csv(f)
        assert info.value.row == 3 and info.value.col == "s_0"

    @pytest.mark.parametrize(
        "lines, row, col",
        [
            (["s_0,p_0,time", "0,1,1.0", "1,nan,2.0"], 3, "p_0"),
            (["s_0,p_0,time", "0,1,inf", "1,2,2.0"], 2, "time"),
            (["s_0,p_0,time", "0,1,1.0", "1,2,2.0", "-inf,3,3.0"], 4, "s_0"),
        ],
        ids=["nan-public", "inf-time", "neg-inf-secret"],
    )
    def test_non_finite_cell(self, tmp_path, lines, row, col):
        f = tmp_path / "t.csv"
        write_lines(f, lines)
        with pytest.raises(D.NonFiniteCell) as info:
            D.load_csv(f)
        assert info.value.row == row and info.value.col == col

    def test_sidecar_violation(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,time", "0,1.0", "5,2.0"])
        sc = tmp_path / "t.schema.json"
        sc.write_text(json.dumps({"secret": [{"name": "s_0", "domain": {"int": [0, 3]}}], "public": []}))
        with pytest.raises(D.SecretValueOutOfDomain):
            D.load_csv(f, sidecar=sc)

    @pytest.mark.parametrize(
        "bounds",
        [[0, 10**30], [-(2**63) - 1, 0], [0, 9.0], [False, True], ["0", "9"], [0], 9],
        ids=["above-int64", "below-int64", "float", "bools", "strings", "one-bound", "scalar"],
    )
    def test_sidecar_domain_needs_int64_bounds(self, tmp_path, bounds):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,time", "0,1.0", "1,2.0"])
        sc = tmp_path / "t.schema.json"
        sc.write_text(json.dumps({"secret": [{"name": "s_0", "domain": {"int": bounds}}], "public": []}))
        with pytest.raises(D.DatasetError, match=r"secret feature 's_0': int domain must be \[lo, hi\]"):
            D.load_csv(f, sidecar=sc)

    def test_sidecar_overrides_inference(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,time", "0,1.0", "1,2.0"])
        sc = tmp_path / "t.schema.json"
        sc.write_text(
            json.dumps({"secret": [{"name": "s_0", "domain": {"int": [0, 9]}}], "public": [], "time_unit": "ms"})
        )
        ds = D.load_csv(f, sidecar=sc)
        assert ds.schema.secret_features[0][1] == D.IntRange(0, 9)
        assert ds.schema.time_unit == "ms"

    def test_round_trip(self, tmp_path):
        ds = D.gen_rn_preset("R_3", rows=50, noise_std=0.02, seed=9)
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        D.write_csv(ds, f1)
        D.write_csv(D.load_csv(f1), f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_round_trip_int_range_binary_public(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        n = 1000
        goal = rng.integers(-50, 51, size=n)
        goal[:2] = [-50, 50]  # inference recovers the full range
        bits = rng.integers(0, 2, size=(n, 2))
        bits[:2] = [[0, 0], [1, 1]]
        schema = D.FeatureSchema(
            (("s_goal", D.IntRange(-50, 50)), ("s_b0", D.Binary()), ("s_b1", D.Binary())), ("p_n", "p_w")
        )
        y = np.column_stack([rng.integers(1, 10**6, size=n), 1e3 * rng.standard_normal(n)])
        ds = D.TraceDataset(schema, np.column_stack([goal, bits]), y, rng.exponential(size=n))
        monkeypatch.setattr(D, "WRITE_BLOCK", 64)  # 15 full blocks and one of 40 rows
        f = tmp_path / "t.csv"
        D.write_csv(ds, f)
        assert D.load_csv(f) == ds

    def test_write_matches_fmt_cell(self, tmp_path, monkeypatch):
        mixed = [0.0, -0.0, 1e15 - 1, 1e15, 1e16, -3.0, 0.1, 1e-5, 2.5e-300, -(2.0**49)]
        schema = D.FeatureSchema((("s_g", D.IntRange(-4, 5)),), ("p_mix", "p_n"))
        x = np.arange(-4.0, 6.0)[:, None]
        y = np.column_stack([mixed, 7.0 * np.arange(10)])
        ds = D.TraceDataset(schema, x, y, np.abs(mixed))
        monkeypatch.setattr(D, "WRITE_BLOCK", 4)  # blocks of 4, 4 and 2 rows
        f = tmp_path / "t.csv"
        D.write_csv(ds, f)
        expected = "s_g,p_mix,p_n,time\r\n" + "".join(
            ",".join(D._fmt_cell(v) for v in (*ds.x[r], *ds.y[r], ds.t[r])) + "\r\n" for r in range(ds.n_rows)
        )
        assert f.read_bytes() == expected.encode("utf-8")
        assert [line.split(",")[1] for line in f.read_text().splitlines()[1:]] == [
            "0", "0", "999999999999999", "1000000000000000.0", "1e+16",
            "-3", "0.1", "1e-05", "2.5e-300", "-562949953421312",
        ]

    @pytest.mark.parametrize("body, arrays", LOADING_FILES)
    def test_corpus_loads(self, tmp_path, body, arrays):
        f = tmp_path / "t.csv"
        write_exact(f, CSV_HEADER + "\n" + body)
        ds = D.load_csv(f)
        assert (ds.x.tolist(), ds.y.tolist(), ds.t.tolist()) == arrays
        assert ds.schema == D.FeatureSchema((("s_0", D.Binary()),), ("p_0",))

    def test_corpus_header_only(self, tmp_path):
        f = tmp_path / "t.csv"
        write_exact(f, CSV_HEADER + "\n")
        ds = D.load_csv(f)
        assert (ds.x.shape, ds.y.shape, ds.t.shape) == ((0, 1), (0, 1), (0,))
        assert ds.schema == D.FeatureSchema((("s_0", D.IntRange(0, 1)),), ("p_0",))

    @pytest.mark.parametrize("body, message", WIDTH_ERRORS)
    def test_corpus_width_errors(self, tmp_path, body, message):
        f = tmp_path / "t.csv"
        write_exact(f, CSV_HEADER + "\n" + body)
        with pytest.raises(D.DatasetError) as info:
            D.load_csv(f)
        assert type(info.value) is D.DatasetError
        assert str(info.value) == f"{f}: {message}"

    @pytest.mark.parametrize("body, error, row, col, text", CELL_ERRORS)
    def test_corpus_cell_errors(self, tmp_path, body, error, row, col, text):
        f = tmp_path / "t.csv"
        write_exact(f, CSV_HEADER + "\n" + body)
        with pytest.raises(error) as info:
            D.load_csv(f)
        assert type(info.value) is error
        assert (info.value.row, info.value.col) == (row, col)
        assert str(info.value).endswith(f"row {row}, column {col!r}: {text!r}")

    def test_bad_cell_deep_in_a_large_file(self, tmp_path):
        lines = [f"{i % 2},{i},1.5" for i in range(150_000)]
        lines[120_000] = "1,x,1.5"  # row 120_002: the header is row 1
        f = tmp_path / "t.csv"
        write_lines(f, [CSV_HEADER] + lines)
        with pytest.raises(D.NonNumericCell) as info:
            D.load_csv(f)
        assert (info.value.row, info.value.col) == (120_002, "p_0")


class TestTraceDataset:
    @pytest.mark.parametrize(
        "column, row, value",
        [("p_0", 2, float("nan")), ("p_1", 0, float("-inf")), ("time", 3, float("inf")), ("time", 1, float("nan"))],
    )
    def test_non_finite_public_or_time_names_row_and_column(self, column, row, value):
        schema = D.FeatureSchema((("s_0", D.Binary()),), ("p_0", "p_1"), "ns")
        x, y, t = np.zeros((4, 1)), np.ones((4, 2)), np.ones(4)
        if column == "time":
            t[row] = value
        else:
            y[row, int(column[-1])] = value
        with pytest.raises(D.NonFiniteValue) as info:
            D.TraceDataset(schema, x, y, t)
        assert (info.value.row, info.value.col) == (row, column)
        assert f"at row {row} of '{column}'" in str(info.value)

    def test_first_bad_row_of_first_bad_column(self):
        schema = D.FeatureSchema((), ("p_0", "p_1"), "ns")
        y = np.array([[0.0, np.inf], [np.nan, 1.0], [np.nan, 1.0]])
        with pytest.raises(D.NonFiniteValue) as info:
            D.TraceDataset(schema, np.zeros((3, 0)), y, [np.inf, 1.0, 1.0])
        assert (info.value.row, info.value.col) == (1, "p_0")


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(D.DatasetError):
            D.FeatureSchema((("a", D.Binary()),), ("a",))

    def test_constant_domain_rejected(self):
        with pytest.raises(D.DatasetError):
            D.IntRange(5, 5)


class TestSplit:
    def test_sizes_and_determinism(self):
        ds = D.gen_rn_preset("R_2", rows=100, noise_std=0.0, seed=0)
        tr1, te1 = D.split(ds, 0.1, seed=7)
        tr2, te2 = D.split(ds, 0.1, seed=7)
        assert (tr1.n_rows, te1.n_rows) == (90, 10)
        assert tr1 == tr2 and te1 == te2

    def test_partition_exact(self):
        ds = D.gen_rn_preset("R_2", rows=57, noise_std=0.02, seed=1)
        tr, te = D.split(ds, 0.25, seed=3)
        rows = {tuple(r) for r in np.hstack([ds.x, ds.y, ds.t[:, None]])}
        got = {tuple(r) for r in np.hstack([tr.x, tr.y, tr.t[:, None]])}
        got |= {tuple(r) for r in np.hstack([te.x, te.y, te.t[:, None]])}
        assert tr.n_rows + te.n_rows == ds.n_rows
        assert got == rows

    def test_seed_changes_membership(self):
        ds = D.gen_rn_preset("R_2", rows=100, noise_std=0.02, seed=1)
        _, te7 = D.split(ds, 0.1, seed=7)
        _, te8 = D.split(ds, 0.1, seed=8)
        assert te7.n_rows == te8.n_rows == 10
        assert not np.array_equal(te7.t, te8.t)

    def test_minimum_one_test_row(self):
        ds = D.gen_rn_preset("R_2", rows=10, noise_std=0.0, seed=0)
        tr, te = D.split(ds, 0.05, seed=0)
        assert (tr.n_rows, te.n_rows) == (9, 1)

    def test_too_small(self):
        ds = D.gen_rn_preset("R_2", rows=1, noise_std=0.0, seed=0)
        with pytest.raises(D.DatasetTooSmall):
            D.split(ds, 0.5, seed=0)

    def test_bad_fraction(self):
        ds = D.gen_rn_preset("R_2", rows=30, noise_std=0.0, seed=0)
        with pytest.raises(D.DatasetError):
            D.split(ds, 1.5, seed=0)


class TestNormalizer:
    def test_time_zscore_population(self):
        schema = D.FeatureSchema((), ("p_x",), "s")
        ds = D.TraceDataset(schema, np.zeros((2, 0)), [[0.0], [1.0]], [1.0, 3.0])
        norm = D.fit_normalizer(ds)
        assert norm.time_shift == 2.0 and norm.time_scale == 1.0
        assert norm.map_time(ds.t).tolist() == [-1.0, 1.0]

    def test_binary_secret_identity(self):
        ds = D.gen_rn_preset("R_2", rows=30, noise_std=0.0, seed=0)
        norm = D.fit_normalizer(ds)
        assert np.array_equal(norm.map_secrets(ds.x), ds.x)

    def test_intrange_midpoint(self):
        schema = D.FeatureSchema((("s_goal", D.IntRange(-10_000, 10_000)),), ("p_x",), "s")
        ds = D.TraceDataset(schema, [[0.0], [5.0]], [[1.0], [2.0]], [1.0, 2.0])
        norm = D.fit_normalizer(ds)
        assert norm.map_secrets(np.array([[0.0]]))[0, 0] == 0.5

    def test_zero_variance_public(self):
        schema = D.FeatureSchema((), ("p_x",), "s")
        ds = D.TraceDataset(schema, np.zeros((3, 0)), [[4.0], [4.0], [4.0]], [1.0, 2.0, 3.0])
        norm = D.fit_normalizer(ds)
        assert norm.public_scale[0] == 1.0 and norm.public_shift[0] == 4.0


class TestGenRn:
    def test_r2_ground_truth(self):
        sizes = D.rn_preset("R_2").ground_truth_sizes()
        assert sizes == [3, 1]
        assert math.isclose(conditional_entropy_of_sizes(sizes), R2_ENTROPY)

    def test_r3_ground_truth(self):
        sizes = D.rn_preset("R_3").ground_truth_sizes()
        assert sizes == [3, 3, 2]
        assert math.isclose(conditional_entropy_of_sizes(sizes), R3_ENTROPY)

    @pytest.mark.parametrize(
        "name,expected_entropy",
        [("R_2", 1.19), ("R_3", 1.44), ("R_4", 2.42), ("R_5", 3.42), ("R_6", 4.0), ("R_7", 5.0)],
    )
    def test_preset_entropies_match_published(self, name, expected_entropy):
        sizes = D.rn_preset(name).ground_truth_sizes()
        assert conditional_entropy_of_sizes(sizes) == pytest.approx(expected_entropy, abs=0.005)

    def test_ground_truth_matches_independent_tally(self):
        # Re-derive the partition by enumerating secrets one by one.
        preset = D.rn_preset("R_4")
        tally = {}
        for bits in range(2**preset.n_secret_bits):
            x = np.array([[(bits >> j) & 1 for j in range(preset.n_secret_bits)]], dtype=float)
            slope = sum(c.coeff for c in preset.clauses if c.trigger(x)[0])
            tally[slope] = tally.get(slope, 0) + 1
        assert sorted(tally.values(), reverse=True) == preset.ground_truth_sizes()

    def test_noiseless_generator_is_pure(self):
        a = D.gen_rn_preset("R_3", rows=60, noise_std=0.0, seed=11)
        b = D.gen_rn_preset("R_3", rows=60, noise_std=0.0, seed=11)
        assert a == b
        # t is a function of (x, y) alone: same x and y rows get the same t
        seen = {}
        for r in range(a.n_rows):
            key = (tuple(a.x[r]), tuple(a.y[r]))
            assert seen.setdefault(key, a.t[r]) == a.t[r]

    def test_all_false_clause_constant_time(self):
        clauses = (D.Clause(lambda x: np.zeros(x.shape[0], dtype=bool), 1.0),)
        ds = D.gen_rn(3, clauses, 4, rows=40, noise_std=0.0, seed=2)
        assert np.all(ds.t == D.GEN_BASE_TIME)

    def test_empty_clause_list(self):
        with pytest.raises(D.EmptyClauseList):
            D.gen_rn(2, (), 4, rows=10, noise_std=0.0, seed=0)

    def test_duplicate_coefficients_rejected(self):
        c = D.Clause(lambda x: x[:, 0] == 1, 1.0)
        with pytest.raises(D.DatasetError):
            D.gen_rn(2, (c, c), 4, rows=10, noise_std=0.0, seed=0)


class TestGenBl:
    def test_quadratic_behavior_cost(self):
        assert D._bl_times(np.array([3]), np.array([100.0])).tolist() == [10_000.0]

    def test_variant_coefficients(self):
        times = D._bl_times(np.array([0, 4, 5]), np.array([64.0, 64.0, 10.0]))
        # log2; the second log variant doubles the factor; the second linear variant
        assert times.tolist() == [6.0, 12.0, 20.0]

    def test_ground_truth_mod_tally(self):
        sizes = D.bl_ground_truth(5, 13)
        tally = {}
        for s in range(2**13):
            tally[s % 20] = tally.get(s % 20, 0) + 1
        assert sizes == sorted(tally.values(), reverse=True)
        assert set(sizes) == {409, 410} and len(sizes) == 20

    def test_generated_times_match_behavior_formula(self):
        ds = D.gen_bl(2, 10, D.IntRange(2, 64), rows=50, noise_std=0.0, seed=3)
        secrets = (ds.x @ (2 ** np.arange(10))).astype(np.int64)
        expected = D._bl_times(secrets % 8, ds.y[:, 0])
        assert ds.t == pytest.approx(expected, rel=1e-12)

    def test_too_few_secret_bits(self):
        with pytest.raises(D.TooFewSecretBits):
            D.gen_bl(2, 2, D.IntRange(1, 16), rows=10, noise_std=0.0, seed=0)


class TestGenSortDemo:
    def test_bubble_cost_scales_quadratically(self):
        assert D.sort_cost("bubble", 1000) == pytest.approx(0.75e6)

    def test_merge_cost(self):
        assert D.sort_cost("merge", 1000) == pytest.approx(1000 * math.log2(1000))

    @pytest.mark.parametrize("length", [64, 100, 1000, 20000])
    def test_bubble_slower_than_merge(self, length):
        assert D.sort_cost("bubble", length) > D.sort_cost("merge", length)

    def test_no_secret_features(self):
        ds = D.gen_sort_demo(max_len=500, rows=30, seed=1)
        assert ds.schema.n_secret == 0
        assert ds.schema.n_public == 7
        assert np.all(ds.t >= 0)
