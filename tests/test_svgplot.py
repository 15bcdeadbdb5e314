from pathlib import Path

import pytest

from timeleak.svgplot import sse_plot

PLOTS = Path(__file__).parent / "plots"


@pytest.mark.parametrize(
    "name, ks, sses, k_star",
    [
        ("falling", [0, 1, 2, 3, 4], [12.5, 4.25, 0.5, 0.45, 0.47], 2),
        ("flat", [0, 1, 2], [3.0, 3.0, 3.0], 0),
        ("k0", [0, 1, 2, 3], [0.0123, 0.0125, 0.0119, 0.0131], 0),
        ("kmax", [0, 1], [250.0, 1.5], 1),
    ],
)
def test_sse_plot_text_is_pinned(name, ks, sses, k_star):
    # The recorded files are the plots `sweep` wrote for these curves
    # before the plot's labels and size became constants.
    assert sse_plot(ks, sses, k_star) == (PLOTS / f"{name}.svg").read_text(encoding="utf-8")
