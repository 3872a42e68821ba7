"""Planar predicates that the routing graph and face traversal build on.

No angles are ever extracted.  `orientation` and `dot_sign` return exact
signs; `wedge_contains_direction` compares rounded cross and dot products.
The intersection tests first reject pairs whose closed bounding boxes are
disjoint, with plain float comparisons and so without rounding: closed
segments that meet always have overlapping boxes.  Face traversal itself
needs no predicate here: it is a rotation on the counter-clockwise adjacency
that `netgraph` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

COUNTERCLOCKWISE = 1
CLOCKWISE = -1
COLLINEAR = 0

# relative error bound of a float sum or difference of two products of
# rounded differences (Shewchuk's ccwerrboundA), and an absolute floor that
# covers products rounded in the subnormal range
PRODUCT_ERR = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
UNDERFLOW_FLOOR = 2.0 ** -1000

LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    @property
    def degenerate(self) -> bool:
        return self.a == self.b


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle with closed membership (the boundary is inside)."""

    lo: Point
    hi: Point
    _sides: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.lo.x > self.hi.x or self.lo.y > self.hi.y:
            raise ValueError("rectangle corners out of order")
        a, b = self.lo, self.hi
        c = Point(b.x, a.y)
        d = Point(a.x, b.y)
        object.__setattr__(self, "_sides", (Segment(a, c), Segment(c, b), Segment(b, d), Segment(d, a)))

    @classmethod
    def from_bounds(cls, xmin: float, ymin: float, xmax: float, ymax: float) -> "Rect":
        return cls(Point(xmin, ymin), Point(xmax, ymax))

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (self.lo.x, self.lo.y, self.hi.x, self.hi.y)

    @property
    def center(self) -> Point:
        return Point((self.lo.x + self.hi.x) / 2.0, (self.lo.y + self.hi.y) / 2.0)

    def contains(self, p: Point) -> bool:
        return self.lo.x <= p.x <= self.hi.x and self.lo.y <= p.y <= self.hi.y

    def sides(self) -> tuple[Segment, Segment, Segment, Segment]:
        return self._sides


def dist2(a: Point, b: Point) -> float:
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def orientation(p: Point, q: Point, r: Point) -> int:
    """Turn direction of the path p -> q -> r.

    Returns COUNTERCLOCKWISE (+1), CLOCKWISE (-1) or COLLINEAR (0), the exact
    sign of the cross product of (q - p) with (r - p).  The float product
    decides whenever it clears its rounding-error bound (Shewchuk 1997, plus
    a floor for underflow); otherwise the sign is computed in rationals.
    """
    detl = (q.x - p.x) * (r.y - p.y)
    detr = (q.y - p.y) * (r.x - p.x)
    det = detl - detr
    bound = PRODUCT_ERR * (abs(detl) + abs(detr)) + UNDERFLOW_FLOOR
    if det > bound:
        return COUNTERCLOCKWISE
    if det < -bound:
        return CLOCKWISE
    px, py = Fraction(p.x), Fraction(p.y)
    exact = (Fraction(q.x) - px) * (Fraction(r.y) - py) - (Fraction(q.y) - py) * (Fraction(r.x) - px)
    return (exact > 0) - (exact < 0)


def dot_sign(p: Point, q: Point, w: Point) -> int:
    """Exact sign of the dot product of (p - w) with (q - w): negative, zero
    or positive as the angle p-w-q is obtuse, right or acute, so w lies in
    the closed disk with diameter pq iff the sign is <= 0.  Float filter and
    rational fallback as in `orientation`."""
    a = (p.x - w.x) * (q.x - w.x)
    b = (p.y - w.y) * (q.y - w.y)
    dot = a + b
    bound = PRODUCT_ERR * (abs(a) + abs(b)) + UNDERFLOW_FLOOR
    if dot > bound:
        return 1
    if dot < -bound:
        return -1
    wx, wy = Fraction(w.x), Fraction(w.y)
    exact = (Fraction(p.x) - wx) * (Fraction(q.x) - wx) + (Fraction(p.y) - wy) * (Fraction(q.y) - wy)
    return (exact > 0) - (exact < 0)


def _within_box(p: Point, q: Point, r: Point) -> bool:
    # q assumed collinear with p-r; closed bounding-box membership
    return (min(p.x, r.x) <= q.x <= max(p.x, r.x)
            and min(p.y, r.y) <= q.y <= max(p.y, r.y))


def segments_intersect(s1: Segment, s2: Segment) -> bool:
    """Closed-segment intersection; touching endpoints count."""
    p1, q1 = s1.a, s1.b
    p2, q2 = s2.a, s2.b
    if (max(p1.x, q1.x) < min(p2.x, q2.x) or max(p2.x, q2.x) < min(p1.x, q1.x)
            or max(p1.y, q1.y) < min(p2.y, q2.y) or max(p2.y, q2.y) < min(p1.y, q1.y)):
        return False  # disjoint bounding boxes
    o1 = orientation(p1, q1, p2)
    o2 = orientation(p1, q1, q2)
    if o1 == o2 != COLLINEAR:
        return False  # s2 lies strictly on one side of the line through s1
    o3 = orientation(p2, q2, p1)
    o4 = orientation(p2, q2, q1)
    if o1 != o2 and o3 != o4 and o1 != COLLINEAR and o2 != COLLINEAR:
        return True
    if o1 == COLLINEAR and _within_box(p1, p2, q1):
        return True
    if o2 == COLLINEAR and _within_box(p1, q2, q1):
        return True
    if o3 == COLLINEAR and _within_box(p2, p1, q2):
        return True
    if o4 == COLLINEAR and _within_box(p2, q1, q2):
        return True
    return False


def segment_intersects_rect(seg: Segment, rect: Rect) -> bool:
    """True iff the closed segment meets the closed rectangle."""
    a, b, lo, hi = seg.a, seg.b, rect.lo, rect.hi
    if (max(a.x, b.x) < lo.x or min(a.x, b.x) > hi.x
            or max(a.y, b.y) < lo.y or min(a.y, b.y) > hi.y):
        return False  # the segment's bounding box misses the rectangle
    if rect.contains(a) or rect.contains(b):
        return True
    return any(segments_intersect(seg, side) for side in rect.sides())


def wedge_contains_direction(at: Point, u: Point, w: Point, toward: Point) -> bool:
    """True iff the direction at->toward lies in the closed ccw sector from
    at->u to at->w.  A self-wedge (u == w) spans the full circle."""
    if u == w:
        return True
    ux, uy = u.x - at.x, u.y - at.y
    wx, wy = w.x - at.x, w.y - at.y
    cx, cy = toward.x - at.x, toward.y - at.y
    c_uw = ux * wy - uy * wx
    c_uc = ux * cy - uy * cx
    c_cw = cx * wy - cy * wx
    if c_uw > 0.0:
        return c_uc >= 0.0 and c_cw >= 0.0
    if c_uw < 0.0:
        return c_uc >= 0.0 or c_cw >= 0.0
    if ux * wx + uy * wy > 0.0:
        # distinct neighbors in exactly the same direction: zero-width sector
        return c_uc == 0.0 and ux * cx + uy * cy > 0.0
    return c_uc >= 0.0
