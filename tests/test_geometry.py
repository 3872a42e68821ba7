import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import P, next_hop_oracle
from geocastsim.geometry import (
    CLOCKWISE,
    COLLINEAR,
    COUNTERCLOCKWISE,
    LEFT,
    RIGHT,
    Point,
    Rect,
    Segment,
    next_hop,
    next_hop_index,
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


class TestNextHop:
    def test_right_rule_picks_clockwise(self):
        got = next_hop(P(0, 0), P(1, 0), [P(0, 1), P(0, -1)], RIGHT)
        assert got == P(0, -1)
        assert got == next_hop_oracle(P(0, 0), P(1, 0), [P(0, 1), P(0, -1)], RIGHT)

    def test_left_rule_mirrors(self):
        got = next_hop(P(0, 0), P(1, 0), [P(0, 1), P(0, -1)], LEFT)
        assert got == P(0, 1)
        assert got == next_hop_oracle(P(0, 0), P(1, 0), [P(0, 1), P(0, -1)], LEFT)

    def test_dead_end_bounce_back(self):
        assert next_hop(P(0, 0), P(1, 0), [P(1, 0)], RIGHT) == P(1, 0)

    def test_empty_neighbors_rejected(self):
        with pytest.raises(ValueError):
            next_hop_index(P(0, 0), P(1, 0), [], RIGHT)

    def test_matches_angle_sweep_oracle_on_random_fans(self):
        import random
        rng = random.Random(1234)
        for _ in range(300):
            at = P(rng.uniform(-5, 5), rng.uniform(-5, 5))
            k = rng.randint(1, 8)
            nbrs = [P(at.x + rng.uniform(-1, 1), at.y + rng.uniform(-1, 1)) for _ in range(k)]
            nbrs = [p for p in nbrs if p != at] or [P(at.x + 1, at.y)]
            prev = nbrs[rng.randrange(len(nbrs))]
            for rule in (LEFT, RIGHT):
                assert next_hop(at, prev, nbrs, rule) == next_hop_oracle(at, prev, nbrs, rule)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_right_and_left_are_inverse(self, data):
        grid = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
        raw = data.draw(st.lists(grid, min_size=2, max_size=7, unique=True))
        at = P(0, 0)
        nbrs = [P(x, y) for x, y in raw if (x, y) != (0, 0)]
        if len(nbrs) < 2:
            return
        # the inverse property needs distinct neighbor directions
        seen_dirs = set()
        for p in nbrs:
            g = math.gcd(int(p.x), int(p.y))
            seen_dirs.add((p.x / g, p.y / g))
        if len(seen_dirs) != len(nbrs):
            return
        u = nbrs[0]
        w = next_hop(at, u, nbrs, RIGHT)
        assert next_hop(at, w, nbrs, LEFT) == u


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
