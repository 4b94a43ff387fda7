"""SVG rendering: clipping, stroke styles, degenerate cells."""

import pytest

from staircase import DimensionMismatch, ValidationError, cell, plset
from staircase.svg import render_plset

from conftest import hs


def test_triangle_render_has_fill_and_dashes(triangle_quotient):
    svg = render_plset(triangle_quotient.carrier, [-2, -2], [2, 2])
    assert svg.startswith("<svg")
    assert "polygon" in svg
    assert "stroke-dasharray" in svg  # all three boundary pieces are strict


def test_closed_boundary_is_solid():
    box = plset(2, cell(2, hs([1, 0], 1), hs([0, 1], 1), hs([-1, 0], 0), hs([0, -1], 0)))
    svg = render_plset(box, [-1, -1], [2, 2])
    assert "stroke-dasharray" not in svg
    assert svg.count("<line") == 4


def test_segment_renders_as_line():
    seg = plset(
        2, cell(2, hs([1, 1], 1), hs([-1, -1], -1), hs([-1, 0], 0), hs([1, 0], 1))
    )
    svg = render_plset(seg, [-1, -1], [2, 2])
    assert "<line" in svg  # measure-zero cells still draw their boundary


def test_empty_cells_skipped():
    s = plset(2, cell(2, hs([1, 0], 0, True), hs([-1, 0], 0, True)))
    svg = render_plset(s, [-1, -1], [1, 1])
    assert "<polygon" not in svg and "<line" not in svg


def test_dimension_guard():
    with pytest.raises(DimensionMismatch):
        render_plset(plset(3, cell(3)), [-1, -1, -1], [1, 1, 1])


@pytest.mark.parametrize("lo, hi, width", [
    ([-2, -2], [2, 2], -5), ([-2, -2], [2, 2], 0), ([0, 0], [1000, 1], 480),
])
def test_degenerate_picture_size_is_rejected(triangle_quotient, lo, hi, width):
    with pytest.raises(ValidationError):
        render_plset(triangle_quotient.carrier, lo, hi, width)


def test_one_pixel_picture_renders(triangle_quotient):
    svg = render_plset(triangle_quotient.carrier, [0, 0], [1000, 2], 500)
    assert 'width="500" height="1"' in svg
