from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import P
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

    def test_rect_membership_closed(self):
        assert self.unit.contains(P(0, 0)) and self.unit.contains(P(1, 1))
        assert not self.unit.contains(P(1.0000001, 0.5))


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
