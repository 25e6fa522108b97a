from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from armwing import (
    GridMismatch,
    PlotSpec,
    Series,
    render_svg,
    sensitivity_sweep,
    write_svg,
)

from conftest import GOLDEN_DIR


def family_plot(reference) -> PlotSpec:
    result = sensitivity_sweep(reference, "shoulder_x", (0.95, 1.0, 1.05),
                               samples=60)
    series = []
    for scale in result.scales:
        traj = result.trajectories[scale]
        series.append(
            Series(
                name=f"shoulder_x x{scale:g}",
                x=np.degrees(traj.phi),
                y=traj.theta_e_deg,
                scale=scale,
            )
        )
    return PlotSpec(
        title="elbow angle family: shoulder_x",
        x_label="phase [deg]",
        y_label="theta_e [deg]",
        series=series,
    )


def test_family_plot_matches_the_golden_file(reference):
    golden = (GOLDEN_DIR / "shoulder_x_family.svg").read_text()
    assert render_svg(family_plot(reference)) == golden


def test_render_is_deterministic(reference):
    plot = family_plot(reference)
    assert render_svg(plot) == render_svg(plot)


def test_write_svg_matches_render(tmp_path: Path, reference):
    plot = family_plot(reference)
    out = tmp_path / "plot.svg"
    write_svg(plot, out)
    assert out.read_text() == render_svg(plot)


def test_svg_is_well_formed_xml(reference):
    import xml.etree.ElementTree as ET

    root = ET.fromstring(render_svg(family_plot(reference)))
    assert root.tag.endswith("svg")


def test_series_validation():
    with pytest.raises(ValueError):
        Series("short", np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Series("ragged", np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        Series("deep", np.zeros((2, 2)), np.zeros((2, 2)))


def test_plot_needs_at_least_one_series():
    with pytest.raises(ValueError):
        render_svg(PlotSpec("empty", "x", "y", []))


def test_series_lengths_must_agree():
    a = Series("a", np.arange(4.0), np.arange(4.0))
    b = Series("b", np.arange(5.0), np.arange(5.0))
    with pytest.raises(GridMismatch):
        render_svg(PlotSpec("mixed", "x", "y", [a, b]))


def test_nan_splits_a_polyline():
    y = np.array([0.0, 1.0, np.nan, 1.0, 0.0])
    s = Series("gap", np.arange(5.0), y)
    text = render_svg(PlotSpec("gap", "x", "y", [s]))
    assert text.count("<polyline") == 2


def test_scaled_series_get_distinct_colors():
    x = np.arange(4.0)
    plot = PlotSpec(
        "colors", "x", "y",
        [
            Series("low", x, x, scale=0.95),
            Series("nominal", x, x + 1.0, scale=1.0),
            Series("high", x, x + 2.0, scale=1.05),
        ],
    )
    text = render_svg(plot)
    assert text.count("#000000") >= 1
    colors = {
        line.split("stroke=\"")[1].split("\"")[0]
        for line in text.splitlines()
        if "<polyline" in line
    }
    assert len(colors) == 3


def test_explicit_ranges_are_honored(reference):
    plot = family_plot(reference)
    pinned = PlotSpec(
        title=plot.title,
        x_label=plot.x_label,
        y_label=plot.y_label,
        series=plot.series,
        x_range=(0.0, 360.0),
        y_range=(90.0, 130.0),
    )
    text = render_svg(pinned)
    assert "360" in text
    assert text != render_svg(plot)


@pytest.mark.parametrize("x, x_range", [
    ([-1.7976931348623157e308, 0.0, 1.0], None),  # the span overflows
    ([1e300, 1e300, 1e300], None),  # padding cannot move values this large
    ([0.0, 1.0, 2.0], (0.0, float("inf"))),
])
def test_an_axis_with_no_finite_span_is_a_value_error(x, x_range):
    plot = PlotSpec(title="t", x_label="x", y_label="y",
                    series=[Series("s", np.array(x), np.arange(3.0))], x_range=x_range)
    with pytest.raises(ValueError, match="axis span"):
        render_svg(plot)
