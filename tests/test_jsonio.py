import math

import pytest

from timeleak.jsonio import canonical_dumps


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_rejected(value):
    with pytest.raises(ValueError):
        canonical_dumps({"test_sse": value})


def test_sorted_indented_with_newline():
    assert canonical_dumps({"b": 1, "a": [1.5]}) == '{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'
