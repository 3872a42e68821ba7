from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    P,
    near_tie,
    near_tie_points,
    reference_segment_intersects_rect,
    reference_segments_intersect,
)
from geocastsim.geometry import (
    CLOCKWISE,
    COLLINEAR,
    COUNTERCLOCKWISE,
    Point,
    Rect,
    Segment,
    orientation,
    segment_intersects_rect,
    segments_intersect,
    wedge_contains_direction,
)

coord = st.floats(min_value=-100, max_value=100, allow_nan=False)
points = st.builds(Point, coord, coord)


class TestOrientation:
    def test_left_turn(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) == COUNTERCLOCKWISE

    def test_collinear(self):
        assert orientation(P(0, 0), P(1, 0), P(2, 0)) == COLLINEAR

    def test_right_turn(self):
        assert orientation(P(0, 0), P(1, 0), P(1, -1)) == CLOCKWISE

    @given(points, points, points)
    def test_antisymmetric_under_swap(self, p, q, r):
        assert orientation(p, q, r) == -orientation(p, r, q)

    @pytest.mark.parametrize("p, q, r, expected", [
        # the float cross product rounds to exactly 0
        (P(-1, 1), P(1, 0), P(1, -1.9628868139488513e-232), CLOCKWISE),
        # both float products underflow to 0
        (P(0, 0), P(1e-200, 0), P(0, 1e-200), COUNTERCLOCKWISE),
    ])
    def test_sign_is_exact_below_float_rounding(self, p, q, r, expected):
        assert orientation(p, q, r) == expected

    @given(points, points, points)
    def test_matches_rational_arithmetic(self, p, q, r):
        det = ((Fraction(q.x) - Fraction(p.x)) * (Fraction(r.y) - Fraction(p.y))
               - (Fraction(q.y) - Fraction(p.y)) * (Fraction(r.x) - Fraction(p.x)))
        assert orientation(p, q, r) == (det > 0) - (det < 0)


class TestSegmentsIntersect:
    def test_x_crossing(self):
        assert segments_intersect(Segment(P(0, 0), P(2, 2)), Segment(P(0, 2), P(2, 0)))

    def test_parallel_disjoint(self):
        assert not segments_intersect(Segment(P(0, 0), P(1, 0)), Segment(P(0, 1), P(1, 1)))

    def test_shared_endpoint_counts(self):
        assert segments_intersect(Segment(P(0, 0), P(1, 0)), Segment(P(1, 0), P(2, 1)))

    def test_collinear_overlap(self):
        assert segments_intersect(Segment(P(0, 0), P(2, 0)), Segment(P(1, 0), P(3, 0)))

    def test_collinear_disjoint(self):
        assert not segments_intersect(Segment(P(0, 0), P(1, 0)), Segment(P(2, 0), P(3, 0)))

    @given(points, points, points, points)
    @example(P(1.0, -1.9628868139488513e-232), P(2, -1), P(-1, 1), P(1, 0))
    def test_symmetric(self, a, b, c, d):
        s1, s2 = Segment(a, b), Segment(c, d)
        assert segments_intersect(s1, s2) == segments_intersect(s2, s1)


class TestSegmentRect:
    unit = Rect.from_bounds(0, 0, 1, 1)

    def test_crosses_two_sides(self):
        assert segment_intersects_rect(Segment(P(-1, 0.5), P(2, 0.5)), self.unit)

    def test_fully_inside(self):
        assert segment_intersects_rect(Segment(P(0.2, 0.2), P(0.8, 0.8)), self.unit)

    def test_disjoint(self):
        assert not segment_intersects_rect(Segment(P(2, 2), P(3, 3)), self.unit)

    def test_touching_boundary_counts(self):
        assert segment_intersects_rect(Segment(P(1, 0.5), P(2, 0.5)), self.unit)

    def test_sides_are_built_once_and_not_part_of_the_value(self):
        assert self.unit.sides() is self.unit.sides()
        assert self.unit.sides() == (Segment(P(0, 0), P(1, 0)), Segment(P(1, 0), P(1, 1)),
                                     Segment(P(1, 1), P(0, 1)), Segment(P(0, 1), P(0, 0)))
        assert repr(self.unit) == f"Rect(lo={self.unit.lo!r}, hi={self.unit.hi!r})"
        assert self.unit == Rect.from_bounds(0, 0, 1, 1)

    def test_rect_membership_closed(self):
        assert self.unit.contains(P(0, 0)) and self.unit.contains(P(1, 1))
        assert not self.unit.contains(P(1.0000001, 0.5))


class TestBoxRejects:
    """The bounding-box rejects change no answer: both tests agree with the
    frozen orientation-only versions."""

    @pytest.mark.parametrize("s1, s2, expected", [
        # boxes touch at x = 1 only, the segments miss each other
        (Segment(P(0, 0), P(1, 1)), Segment(P(1, 1.5), P(2, 0.9)), False),
        # boxes touch at x = 1 and the segments meet there
        (Segment(P(0, 0), P(1, 1)), Segment(P(1, 1), P(2, 0)), True),
        # boxes touch at one corner point, which both segments hold
        (Segment(P(0, 0), P(1, 1)), Segment(P(1, 1), P(2, 2)), True),
        # collinear, boxes touch at one coordinate
        (Segment(P(0, 0), P(1, 0)), Segment(P(1, 0), P(2, 0)), True),
        (Segment(P(0, 0), P(1, 0)), Segment(P(1 + 2 ** -52, 0), P(2, 0)), False),
        # degenerate (point) segments
        (Segment(P(0.5, 0.5), P(0.5, 0.5)), Segment(P(0, 0), P(1, 1)), True),
        (Segment(P(0.5, 0.5 + 2 ** -53), P(0.5, 0.5 + 2 ** -53)), Segment(P(0, 0), P(1, 1)), False),
    ])
    def test_touching_boxes(self, s1, s2, expected):
        for a, b in ((s1, s2), (s2, s1)):
            assert segments_intersect(a, b) == reference_segments_intersect(a, b) == expected

    @pytest.mark.parametrize("seg, expected", [
        (Segment(P(0, 0), P(1, 1)), True),            # ends at a corner
        (Segment(P(0, 2), P(2, 0)), True),            # crosses through a corner only
        (Segment(P(1, 0.5), P(1, 3)), True),          # lies along a side, overlapping it
        (Segment(P(1, 2.5), P(1, 3)), False),         # along a side's line, past its end
        (Segment(P(0, 1.5), P(1, 3)), False),         # boxes touch at x = 1 only
        (Segment(P(0.5, 0.5), P(1 - 2 ** -53, 1)), False),  # aims at a corner, stops short of the box
    ])
    def test_degenerate_contacts(self, seg, expected):
        rect = Rect.from_bounds(1, 1, 2, 2)
        for s in (seg, Segment(seg.b, seg.a)):
            assert segment_intersects_rect(s, rect) == reference_segment_intersects_rect(s, rect) == expected

    @settings(max_examples=400)
    @given(near_tie_points, near_tie_points, near_tie_points, near_tie_points)
    def test_segments_match_reference_on_near_ties(self, a, b, c, d):
        s1, s2 = Segment(a, b), Segment(c, d)
        assert segments_intersect(s1, s2) == reference_segments_intersect(s1, s2)

    @settings(max_examples=400)
    @given(near_tie_points, near_tie_points, st.lists(near_tie, min_size=4, max_size=4))
    def test_rect_matches_reference_on_near_ties(self, a, b, corners):
        x0, x1 = sorted(corners[:2])
        y0, y1 = sorted(corners[2:])
        rect = Rect.from_bounds(x0, y0, x1, y1)
        seg = Segment(a, b)
        assert segment_intersects_rect(seg, rect) == reference_segment_intersects_rect(seg, rect)


class TestWedgeContainment:
    def test_simple_sector(self):
        assert wedge_contains_direction(P(0, 0), P(1, 0), P(0, 1), P(1, 1))
        assert not wedge_contains_direction(P(0, 0), P(1, 0), P(0, 1), P(-1, -1))

    def test_boundary_is_closed(self):
        assert wedge_contains_direction(P(0, 0), P(1, 0), P(0, 1), P(2, 0))

    def test_reflex_sector(self):
        assert wedge_contains_direction(P(0, 0), P(0, 1), P(1, 0), P(-1, -1))

    def test_self_wedge_is_full_circle(self):
        u = P(1, 0)
        for toward in (P(0, 1), P(-3, -2), P(1, 0)):
            assert wedge_contains_direction(P(0, 0), u, u, toward)
