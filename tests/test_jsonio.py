import math
import re

import numpy as np
import pytest

from timeleak.jsonio import FieldError, canonical_dumps, get, numbers, read_json


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_rejected(value):
    with pytest.raises(ValueError):
        canonical_dumps({"test_sse": value})


def test_sorted_indented_with_newline():
    assert canonical_dumps({"b": 1, "a": [1.5]}) == '{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'


class TestGet:
    @pytest.mark.parametrize("types", [(int,), (float,), (int, float)])
    def test_a_bool_is_no_number(self, types):
        with pytest.raises(FieldError, match=r"^nodes must be .*, got True$"):
            get({"nodes": True}, "nodes", *types)

    def test_bool_asked_for_by_name(self):
        assert get({"complete": False}, "complete", bool) is False
        with pytest.raises(FieldError, match="complete must be true or false, got 1"):
            get({"complete": 1}, "complete", bool)

    def test_an_int_is_taken_where_a_float_is_asked(self):
        value = get({"tau": 1}, "tau", float)
        assert value == 1.0 and type(value) is float
        assert type(get({"tau": 1}, "tau", int, float)) is int
        with pytest.raises(FieldError, match="k must be an integer, got 1.0"):
            get({"k": 1.0}, "k", int)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_numbers_are_refused(self, value):
        with pytest.raises(FieldError, match="test_sse must be a finite number"):
            get({"test_sse": value}, "test_sse", float)

    def test_bounds_hold_inclusively(self):
        assert get({"k": 0}, "k", int, lo=0, hi=3) == 0 and get({"k": 3}, "k", int, lo=0, hi=3) == 3
        with pytest.raises(FieldError, match=r"k must be an integer >= 0 and <= 3, got 4"):
            get({"k": 4}, "k", int, lo=0, hi=3)
        with pytest.raises(FieldError, match=r"seed must be an integer >= 0, got -1"):
            get({"seed": -1}, "seed", int, lo=0)
        with pytest.raises(FieldError, match=r"x must be a finite number <= 1.5, got 2"):
            get({"x": 2}, "x", float, hi=1.5)

    def test_bounds_apply_only_to_numbers(self):
        assert get({"cap": None}, "cap", int, type(None), lo=1) is None
        with pytest.raises(FieldError, match=r"cap must be an integer >= 1 or null, got 0"):
            get({"cap": 0}, "cap", int, type(None), lo=1)

    def test_missing_key_and_default(self):
        with pytest.raises(FieldError, match=r"^classes\[3\]\.count is missing$"):
            get({}, "count", int, where="classes[3]")
        assert get({}, "nodes", int, default=0) == 0
        assert get({}, "cap", int, default=None) is None  # a default is not type-checked
        assert get({"nodes": 5}, "nodes", int, default=0) == 5

    def test_list_indices(self):
        assert get([4, 5], 1, int, where="widths") == 5
        with pytest.raises(FieldError, match=r"^widths\[2\] is missing$"):
            get([4, 5], 2, int, where="widths")
        with pytest.raises(FieldError, match=r"^widths\[0\] must be an integer >= 1, got 0$"):
            get([0], 0, int, lo=1, where="widths")

    def test_container_is_checked(self):
        with pytest.raises(FieldError, match=r"^must be an object, got \[1, 2\]$"):
            get([1, 2], "secret")
        with pytest.raises(FieldError, match=r"^secret must be a list, got 'abc'$"):
            get("abc", 0, where="secret")

    def test_no_types_takes_any_value(self):
        assert get({"domain": [1]}, "domain") == [1]


class TestNumbers:
    def test_shapes(self):
        assert numbers(2, ()).shape == () and numbers(2, ()).dtype == np.float64
        assert np.array_equal(numbers([[1, 2.5]], (1, 2)), [[1.0, 2.5]])
        assert numbers([], (0,)).shape == (0,)

    @pytest.mark.parametrize(
        "value, shape",
        [
            ([1.0, 2.0], (3,)),
            ([1.0, 2.0], (2, 1)),
            ([[1.0], [2.0, 3.0]], (2, 1)),
            (1.0, (1,)),
            ([1.0], ()),
        ],
        ids=["short", "flat-for-matrix", "ragged", "scalar-for-vector", "vector-for-scalar"],
    )
    def test_wrong_shape(self, value, shape):
        assert numbers(value, shape) is None

    @pytest.mark.parametrize("cell", [True, "1.0", None, {"a": 1}, [1.0], 10**400])
    def test_non_numeric_cell(self, cell):
        assert numbers([[1.0, cell]], (1, 2)) is None

    def test_non_finite_is_left_to_the_caller(self):
        assert np.isnan(numbers([math.nan], (1,))[0])


class TestReadJson:
    @pytest.mark.parametrize("text", [None, "{broken", b"\xff\xfe"], ids=["missing", "not-json", "not-utf8"])
    def test_names_the_file(self, tmp_path, text):
        path = tmp_path / "input.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        with pytest.raises(FieldError, match=f"^cannot read JSON file {re.escape(str(path))}: "):
            read_json(path)

    def test_reads_a_document(self, tmp_path):
        path = tmp_path / "input.json"
        path.write_text('{"a": [1, 2.5, null]}')
        assert read_json(path) == {"a": [1, 2.5, None]}
