import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# Row counts around the column scan's fold (64 rows) and block (WRITE_BLOCK rows).
SCAN_ROWS = (0, 1, 63, 64, 65, D.WRITE_BLOCK - 1, D.WRITE_BLOCK + 1)


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
        with pytest.raises(D.DatasetError, match=f"^{re.escape(str(f))}: final column must be 'time'$"):
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

    def test_negative_time(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,time", "0,1.0", "1,-0.5", "1,2.0"])
        with pytest.raises(D.DatasetError, match="^negative execution time$"):
            D.load_csv(f)

    def test_sidecar_violation(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,time", "0,1.0", "5,2.0"])
        sc = tmp_path / "t.schema.json"
        sc.write_text(json.dumps({"secret": [{"name": "s_0", "domain": {"int": [0, 3]}}], "public": []}))
        with pytest.raises(D.SecretValueOutOfDomain):
            D.load_csv(f, sidecar=sc)

    @pytest.mark.parametrize(
        "bounds",
        [[0, 10**30], [-(2**63) - 1, 0], [0, 2**53], [-(2**53), 0], [0, 9.0], [False, True], ["0", "9"], [0], 9],
        ids=[
            "above-int64", "below-int64", "above-2^53-1", "below-2^53-1", "float", "bools", "strings", "one-bound", "scalar"
        ],
    )
    def test_sidecar_domain_needs_int64_bounds(self, tmp_path, bounds):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,time", "0,1.0", "1,2.0"])
        sc = tmp_path / "t.schema.json"
        sc.write_text(json.dumps({"secret": [{"name": "s_0", "domain": {"int": bounds}}], "public": []}))
        with pytest.raises(D.DatasetError, match=r"secret feature 's_0': int domain must be \[lo, hi\]"):
            D.load_csv(f, sidecar=sc)

    def test_sidecar_domain_beyond_2_53_is_refused(self, tmp_path):
        # Cells parse to float64, where 2^63 and 2^63 - 1 are one value, so
        # this out-of-domain cell used to load as 9.223372036854776e18.
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,time", "0,1.0", "9223372036854775808,2.0"])
        sc = tmp_path / "t.schema.json"
        sc.write_text(json.dumps({"secret": [{"name": "s_0", "domain": {"int": [0, 2**63 - 1]}}], "public": []}))
        must = r"int domain must be \[lo, hi\], two integers within ±\(2\^53 − 1\)"
        with pytest.raises(D.DatasetError, match=rf"^sidecar t\.schema\.json secret feature 's_0': {must}"):
            D.load_csv(f, sidecar=sc)

    def test_inferred_domain_beyond_2_53_names_its_column(self, tmp_path):
        # 2^53 + 1 parses to 2^53, which the inferred domain used to record.
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,s_1,time", "0,0,1.0", "1,9007199254740993,2.0"])
        message = f"{f}: column 's_1': IntRange [0, 9007199254740992] is not within ±(2^53 − 1)"
        with pytest.raises(D.DatasetError, match=f"^{re.escape(message)}$"):
            D.load_csv(f)

    def test_inferred_domain_at_2_53_minus_1_loads_exactly(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,s_1,time", "0,-9007199254740991,1.0", "9007199254740991,0,2.0"])
        ds = D.load_csv(f)
        assert ds.schema.secret_features == (
            ("s_0", D.IntRange(0, 2**53 - 1)),
            ("s_1", D.IntRange(-(2**53 - 1), 0)),
        )
        assert ds.x[1, 0] == 2**53 - 1 and ds.x[0, 1] == -(2**53 - 1)

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            ({"secret": [{"domain": "binary"}]}, r"secret\[0\]\.name is missing"),
            ({"secret": 5}, "secret must be a list, got 5"),
            ([{"name": "s_0", "domain": "binary"}], "must be an object, got"),
            ({"secret": [{"name": "s_0", "domain": "binary"}], "time_unit": 5}, "time_unit must be a string, got 5"),
            ({"secret": [{"name": "s_0", "domain": "binary"}], "public": "abc"}, "public must be a list, got 'abc'"),
            ({"secret": [{"name": "s_0", "domain": "binary"}], "public": [1]}, r"public\[0\] must be a string, got 1"),
        ],
        ids=["no-name", "secret-number", "top-level-list", "time-unit-number", "public-string", "public-number"],
    )
    def test_malformed_sidecar_names_the_field(self, tmp_path, sidecar, message):
        # Each used to fail with a raw Python message ("'name'", "'int' object
        # is not iterable") or load: a string "public" read as one feature per
        # character, an int time_unit went into the model.
        f = tmp_path / "t.csv"
        write_lines(f, ["s_0,time", "0,1.0", "1,2.0"])
        sc = tmp_path / "t.schema.json"
        sc.write_text(json.dumps(sidecar))
        with pytest.raises(D.DatasetError, match=rf"^sidecar t\.schema\.json {message}"):
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

    @pytest.mark.parametrize(
        "seed, n",
        [*((seed, None) for seed in range(40)), *((40 + i, n) for i, n in enumerate(SCAN_ROWS))],
        ids=[*map(str, range(40)), *(f"rows{n}" for n in SCAN_ROWS)],
    )
    def test_write_matches_fmt_cell_seeded(self, tmp_path, monkeypatch, seed, n):
        # Label tables of at most 16 labels, and 12 or 24 rows in blocks of 5,
        # so that the ranges below fall below, at and above both the table
        # bound and the row count; binary runs are broken by float and wide
        # columns. Given row counts keep WRITE_BLOCK, to cross the scan's
        # fold and block boundaries.
        rng = np.random.default_rng(seed)
        if n is None:
            n = int(rng.choice([12, 24]))
            monkeypatch.setattr(D, "WRITE_BLOCK", 5)
        monkeypatch.setattr(D, "WRITE_TABLE", 16)
        special = [0.0, -0.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15, 1e16, -1e16, 2.0**52, 0.5]

        def column():
            kind = rng.integers(6)
            if kind == 0:
                return rng.integers(0, 2, size=n).astype(np.float64)
            if kind == 1:  # an integral range of exactly `size` values
                size, lo = int(rng.choice([2, 11, 12, 13, 15, 16, 17, 23, 24, 25])), int(rng.integers(-30, 5))
                col = rng.integers(lo, lo + size, size=n).astype(np.float64)
                col[rng.permutation(n)[:2]] = [lo, lo + size - 1][:n]
                return col
            if kind == 2:  # floats with integral values among them
                col = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 7)
                col[rng.random(n) < 0.3] = rng.integers(-9, 9)
                return col
            if kind == 3:
                return rng.choice(special, size=n)
            if kind == 4:  # two integral values just below or at 1e15 in magnitude
                top = rng.choice([1e15 - 1, 1e15])
                return rng.choice([-1.0, 1.0]) * rng.choice([top - 1, top], size=n)
            return rng.choice([-0.0, 0.0, 1.0, 1e15 - 1, -(1e15 - 1)], size=n)

        n_secret, n_public = int(rng.integers(0, 6)), int(rng.integers(0, 4))
        x, y = np.zeros((n, 0)), np.zeros((n, 0))
        if n_secret:
            x = np.column_stack([column() for _ in range(n_secret)])
        if n_public:
            y = np.column_stack([column() for _ in range(n_public)])
        schema = D.FeatureSchema(
            tuple((f"s_{j}", D.Binary()) for j in range(n_secret)), tuple(f"p_{j}" for j in range(n_public))
        )
        ds = D.TraceDataset(schema, x, y, column(), validate=False)
        f = tmp_path / "t.csv"
        D.write_csv(ds, f)
        expected = ",".join([*(n for n, _ in schema.secret_features), *schema.public_features, "time"]) + "\r\n"
        expected += "".join(
            ",".join(D._fmt_cell(v) for v in (*ds.x[r], *ds.y[r], ds.t[r])) + "\r\n" for r in range(ds.n_rows)
        )
        assert f.read_bytes() == expected.encode("utf-8")

    def test_write_fields_group_adjacent_integral_columns(self, monkeypatch):
        monkeypatch.setattr(D, "WRITE_TABLE", 16)
        bits = np.arange(20) % 2
        wide = np.arange(20.0) - 5  # 20 values: more than WRITE_TABLE labels
        columns = [bits, bits, bits, bits, bits + 0.5, bits, bits, np.arange(4.0).repeat(5), wide, bits]
        # [4 bits], float, [2 bits, one of 4 values], wide, [1 bit]
        assert len(D._fields(columns, 20)) == 5
        # At most as many labels as rows: 8 rows allow a table of 3 bits, not
        # 4, and not one of two columns of 3 values each.
        assert len(D._fields([c[:8] for c in columns[:4]], 8)) == 2
        assert len(D._fields([np.arange(8.0) % 3] * 2, 8)) == 2

    @pytest.mark.parametrize("first, later", [(np.nan, np.inf), (np.inf, np.nan), (-np.inf, np.nan)])
    def test_write_non_finite_raises_as_fmt_cell(self, tmp_path, first, later):
        # The first non-finite value in row order raises, not the first in column order.
        schema = D.FeatureSchema((("s_0", D.Binary()),), ("p_0",))
        x, y, t = np.zeros((6, 1)), np.ones((6, 1)), np.ones(6)
        t[2], x[3, 0] = first, later
        with pytest.raises((ValueError, OverflowError)) as expected:
            D._fmt_cell(first)
        with pytest.raises(expected.type, match=f"^{expected.value}$"):
            D.write_csv(D.TraceDataset(schema, x, y, t, validate=False), tmp_path / "t.csv")

    def test_load_returns_read_only_views_of_one_table(self, tmp_path):
        ds = D.gen_rn_preset("R_3", rows=50, noise_std=0.02, seed=9)
        f = tmp_path / "t.csv"
        D.write_csv(ds, f)
        loaded = D.load_csv(f)
        assert [a.tolist() for a in (loaded.x, loaded.y, loaded.t)] == [a.tolist() for a in (ds.x, ds.y, ds.t)]
        assert loaded.x.base is not None and loaded.x.base is loaded.y.base is loaded.t.base
        assert not any(a.flags.writeable for a in (loaded.x, loaded.y, loaded.t))

    def test_interleaved_columns_load_as_copies(self, tmp_path):
        f = tmp_path / "t.csv"
        write_lines(f, ["s_a,p_b,s_c,time", "0,5,-1,1.5", "1,6,1,2.5", "1,7,0,0"])
        ds = D.load_csv(f)
        assert ds.x.tolist() == [[0, -1], [1, 1], [1, 0]]
        assert ds.y.tolist() == [[5], [6], [7]] and ds.t.tolist() == [1.5, 2.5, 0.0]
        assert ds.schema == D.FeatureSchema((("s_a", D.Binary()), ("s_c", D.IntRange(-1, 1))), ("p_b",))
        assert not np.may_share_memory(ds.x, ds.t) and not ds.x.flags.writeable

    @pytest.mark.parametrize(
        "cell, domain, error",
        [
            ("9", {"int": [0, 3]}, "secret value 9.0 at row 8 outside domain of 's_1'"),
            ("-1", "binary", "secret value -1.0 at row 8 outside domain of 's_1'"),
            ("2.5", "binary", "secret value 2.5 at row 8 outside domain of 's_1'"),
        ],
        ids=["above-int-domain", "below-binary", "non-integral"],
    )
    def test_secret_error_mid_block_names_its_cell(self, tmp_path, monkeypatch, cell, domain, error):
        # Rows are checked in blocks of 4: the bad cell is the third row of the second block.
        monkeypatch.setattr(D, "WRITE_BLOCK", 4)
        lines = ["s_0,s_1,p_0,time"] + [f"{r % 2},{r % 2},{r},1.5" for r in range(10)]
        lines[7] = f"1,{cell},6,1.5"  # row 8: the header is row 1
        f = tmp_path / "t.csv"
        write_lines(f, lines)
        sc = tmp_path / "t.schema.json"
        secret = [{"name": "s_0", "domain": "binary"}, {"name": "s_1", "domain": domain}]
        sc.write_text(json.dumps({"secret": secret, "public": ["p_0"]}))
        for sidecar in (sc, None) if cell == "2.5" else (sc,):
            with pytest.raises(D.SecretValueOutOfDomain) as info:
                D.load_csv(f, sidecar=sidecar)
            assert (info.value.row, info.value.col, str(info.value)) == (8, "s_1", error)

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

    @pytest.mark.parametrize(
        "array, shape",
        [("x", (2, 3)), ("y", (3, 2)), ("t", (3, 1))],
        ids=["transposed-x", "wide-y", "column-t"],
    )
    def test_arrays_of_the_wrong_shape_are_refused(self, array, shape):
        # A transposed x used to be reshaped into rows it never held.
        schema = D.FeatureSchema((("s_0", D.Binary()), ("s_1", D.Binary())), ("p_0",), "ns")
        arrays = {"x": np.zeros((3, 2)), "y": np.ones((3, 1)), "t": np.ones(3), array: np.zeros(shape)}
        expected = {"x": (3, 2), "y": (3, 1), "t": (3,)}[array]
        message = f"{array} must have shape {expected}, got {shape}"
        with pytest.raises(D.DatasetError, match=f"^{re.escape(message)}$"):
            D.TraceDataset(schema, arrays["x"], arrays["y"], arrays["t"])

    def test_first_bad_row_of_first_bad_column(self):
        schema = D.FeatureSchema((), ("p_0", "p_1"), "ns")
        y = np.array([[0.0, np.inf], [np.nan, 1.0], [np.nan, 1.0]])
        with pytest.raises(D.NonFiniteValue) as info:
            D.TraceDataset(schema, np.zeros((3, 0)), y, [np.inf, 1.0, 1.0])
        assert (info.value.row, info.value.col) == (1, "p_0")

    @pytest.mark.parametrize("column", ["s_1", "p_1"])
    def test_first_bad_cell_past_the_first_block_in_a_later_column(self, column):
        n, row = D.WRITE_BLOCK + 100, D.WRITE_BLOCK + 70
        schema = D.FeatureSchema((("s_0", D.Binary()), ("s_1", D.IntRange(0, 9))), ("p_0", "p_1"), "ns")
        x, y, t = np.zeros((n, 2)), np.ones((n, 2)), np.ones(n)
        table, value, error = (x, 12.0, D.SecretValueOutOfDomain) if column == "s_1" else (y, np.nan, D.NonFiniteValue)
        table[[row, row + 20], 1] = value
        with pytest.raises(error) as info:
            D.TraceDataset(schema, x, y, t)
        assert (info.value.row, info.value.col) == (row, column)


def trace_file(path, schema, x, y, t, layout) -> tuple:
    """Write arrays as trace CSV text by hand (`write_csv` refuses non-finite
    values), with a sidecar declaring the schema's domains; `layout` is the
    header's "s"/"p" sequence, each side keeping its own column order.
    Returns the arguments of `load_csv`."""
    columns = {"s": iter(x.T), "p": iter(y.T)}
    names = {"s": iter(n for n, _ in schema.secret_features), "p": iter(schema.public_features)}
    header = [next(names[side]) for side in layout] + ["time"]
    table = np.column_stack([next(columns[side]) for side in layout] + [t])
    path.write_text("\n".join([",".join(header), *(",".join(map(repr, row)) for row in table.tolist())]) + "\n")
    sidecar = path.with_suffix(".schema.json")
    sidecar.write_text(json.dumps(D.schema_to_json(schema)))
    return path, sidecar


def raised(load) -> tuple:
    """(error class, column, row, message) of what `load()` raises, or None."""
    try:
        load()
    except D.DatasetError as exc:
        return type(exc), getattr(exc, "col", None), getattr(exc, "row", None), str(exc)
    return None


# The one rule order: (file error, array error) per rule, in the order the rules are checked.
RULES = [(D.NonFiniteCell, D.NonFiniteValue), (D.DatasetError, D.DatasetError), (D.SecretValueOutOfDomain,) * 2]


class TestFilesAndArraysAgree:
    """`load_csv` of a trace file and `TraceDataset` of the same arrays name
    the same rule, column and row (a file's row is the array row + 2)."""

    def check(self, tmp_path, schema, x, y, t, layout, rule):
        """Assert that the file and the arrays break `rule`, an index into
        RULES or None for none, at the same cell; return (column, array row)."""
        args = trace_file(tmp_path / "t.csv", schema, x, y, t, layout)
        if rule is None:
            assert D.load_csv(*args) == D.TraceDataset(schema, x, y, t)
            return None
        file, array = raised(lambda: D.load_csv(*args)), raised(lambda: D.TraceDataset(schema, x, y, t))
        assert file is not None and array is not None
        assert (file[0], array[0]) == RULES[rule] and file[1] == array[1]
        if array[2] is None:
            assert file[2] is None and file[3] == array[3] == "negative execution time"
        else:
            assert file[2] == array[2] + 2
        return array[1], array[2]

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 6),
        domains=st.lists(st.sampled_from([D.Binary(), D.IntRange(-2, 3), D.IntRange(4, 5)]), max_size=3),
        n_public=st.integers(0, 2),
        faults=st.lists(
            st.tuples(
                st.sampled_from(["non-finite", "negative-time", "non-integral", "outside-domain"]),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.sampled_from([np.nan, np.inf, -np.inf]),
            ),
            max_size=3,
        ),
        order=st.randoms(use_true_random=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_rule_same_cell(self, tmp_path_factory, n, domains, n_public, faults, order, seed):
        rng = np.random.default_rng(seed)
        secret = tuple((f"s_{j}", d) for j, d in enumerate(domains))
        schema = D.FeatureSchema(secret, tuple(f"p_{j}" for j in range(n_public)))
        x = np.column_stack([rng.integers(d.lo, d.hi + 1, size=n) for d in domains] or [np.zeros((n, 0))]) * 1.0
        y = rng.integers(-3, 4, size=(n, n_public)) * rng.choice([1.0, 0.25], size=(n, n_public))
        t = rng.integers(0, 8, size=n) * 0.5
        columns = [*x.T, *y.T, t]  # views of the arrays, in the rule order's column order
        for kind, row, col, value in faults:
            row, col = row % n, col % len(columns)
            if kind == "non-finite":
                columns[col][row] = value
            elif kind == "negative-time":
                t[row] = -0.5
            elif domains and kind == "non-integral":
                x[row, col % len(domains)] += 0.5
            elif domains:
                x[row, col % len(domains)] = domains[col % len(domains)].hi + 1
        # The first rule the arrays break, checked here the long way.
        finite = [np.isfinite(c).all() for c in columns]
        inside = [((c == np.floor(c)) & (c >= d.lo) & (c <= d.hi)).all() for c, d in zip(x.T, domains)]
        rule = next((r for r, ok in enumerate([all(finite), (t >= 0).all(), all(inside)]) if not ok), None)
        layout = ["s"] * len(domains) + ["p"] * n_public
        order.shuffle(layout)
        self.check(tmp_path_factory.mktemp("agree"), schema, x, y, t, layout, rule)

    SCHEMA = D.FeatureSchema((("s_0", D.Binary()), ("s_1", D.IntRange(0, 3))), ("p_0",))

    def arrays(self):
        return np.array([[0.0, 1], [1, 2], [0, 3], [1, 0]]), np.ones((4, 1)), np.ones(4)

    def test_non_finite_beats_negative_time(self, tmp_path):
        x, y, t = self.arrays()
        t[0], y[2, 0] = -1.0, np.nan
        assert self.check(tmp_path, self.SCHEMA, x, y, t, "ssp", 0) == ("p_0", 2)

    def test_negative_time_beats_a_secret_outside_its_domain(self, tmp_path):
        x, y, t = self.arrays()
        x[0, 1], t[3] = 9.0, -1.0
        assert self.check(tmp_path, self.SCHEMA, x, y, t, "sps", 1) == (None, None)

    def test_non_finite_secret_beats_non_finite_time(self, tmp_path):
        x, y, t = self.arrays()
        t[0], x[3, 1] = np.inf, -np.inf
        assert self.check(tmp_path, self.SCHEMA, x, y, t, "pss", 0) == ("s_1", 3)

    def test_first_bad_row_of_a_secret_column_whatever_its_fault(self, tmp_path):
        # File row 2 is outside the domain, file row 4 is not an integer.
        x, y, t = self.arrays()
        x[0, 1], x[2, 1] = 7.0, 2.5
        assert self.check(tmp_path, self.SCHEMA, x, y, t, "sps", 2) == ("s_1", 0)


SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.5, -2.5, 1e15, -1e15, 1e15 + 0.5, 1e15 - 1, 2.0**53, 1e16]


class TestColumnStats:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from(SCAN_ROWS),
        width=st.integers(1, 16),
        kind=st.sampled_from(["binary", "integers", "floats", "near-1e15"]),
        cells=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 15), st.sampled_from(SPECIAL_VALUES)), max_size=6),
        seed=st.integers(0, 2**32 - 1),
        view=st.booleans(),
    )
    def test_matches_per_column_reference(self, n, width, kind, cells, seed, view):
        rng = np.random.default_rng(seed)
        shape = (n, width + 2)
        table = {
            "binary": lambda: rng.integers(0, 2, size=shape).astype(np.float64),
            "integers": lambda: rng.integers(-1000, 1000, size=shape).astype(np.float64),
            "floats": lambda: rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 7),
            "near-1e15": lambda: rng.choice([-1.0, 1.0], size=shape) * (1e15 + 0.5 * rng.integers(-8, 8, size=shape)),
        }[kind]()
        for r, c, value in cells if n else ():
            table[r % n, 1 + c % width] = value
        # A view of a wider table, as load_csv's x, or a table of its own.
        table = table[:, 1:-1] if view else table[:, 1:-1].copy()

        stats = lo, hi, integral = D._column_stats(table)
        for j, col in enumerate(table.T):
            assert np.array_equal(lo[j], col.min(initial=np.inf), equal_nan=True)
            assert np.array_equal(hi[j], col.max(initial=-np.inf), equal_nan=True)
            assert integral[j] == np.array_equal(col, np.floor(col))
            assert D._all_finite(lo[j : j + 1], hi[j : j + 1]) == np.isfinite(col).all()
        # Tables side by side, a 1-D array being one column, read as one table.
        split = D._column_stats(table[:, 0], table[:, 1:])
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(split, stats))


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

    def test_train_valid_test_parts(self):
        # The test part comes off first with the seed, the validation part
        # off the rest with the same fraction and seed + 1; the three parts
        # hold every row once.
        ds = D.gen_rn_preset("R_2", rows=57, noise_std=0.02, seed=1)
        train, valid, test = D.split_train_valid_test(ds, 0.2, seed=3)
        trainval, test2 = D.split(ds, 0.2, seed=3)
        train2, valid2 = D.split(trainval, 0.2, seed=4)
        assert train == train2 and valid == valid2 and test == test2
        assert (train.n_rows, valid.n_rows, test.n_rows) == (37, 9, 11)
        assert len(np.unique(ds.t)) == ds.n_rows
        assert np.array_equal(np.sort(np.concatenate([train.t, valid.t, test.t])), np.sort(ds.t))

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
        with pytest.raises(D.DatasetError, match=r"^cannot split 1 rows with test fraction 0\.5$"):
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
        with pytest.raises(D.DatasetError, match="^clause list is empty$"):
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
        with pytest.raises(D.DatasetError, match="^2 secret bits cannot index 8 behaviors$"):
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
