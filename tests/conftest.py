"""Shared fixtures, crafted topologies, and independent oracles for the suite."""

from __future__ import annotations

import math
from collections import defaultdict, deque
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st

from geocastsim.engine import TransmissionEvent, arrivals
from geocastsim.export import used_edges_from_trace
from geocastsim.geometry import COLLINEAR, RIGHT, Point, Rect, Segment, dist2, orientation
from geocastsim.netgraph import (
    DuplicatePointsError,
    GeocastInstance,
    Network,
    Scenario,
    World,
    bfs_hops,
    build_unit_disk,
    connected_components,
    edge_key,
    edge_qualifies,
)
from geocastsim.protocol import RoutingNets


def P(x: float, y: float) -> Point:
    return Point(float(x), float(y))


# coordinates on a small grid, each nudged by zero, a subnormal, a rounding
# unit or so: collinear, touching and barely-missing configurations abound
near_tie = st.builds(lambda base, nudge: base + nudge,
                     st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                     st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300,
                                      2.0 ** -52, -(2.0 ** -52), 1e-16, -1e-16]))
near_tie_points = st.builds(Point, near_tie, near_tie)


def from_edges(points, edges, radius: float = 1.0) -> Network:
    """Crafted topology: the unit-disk network on the points, restricted to
    the listed edges.  A subset of a ccw-sorted adjacency stays sorted, so
    the order, and the checks on points and radius, are the builder's."""
    full = build_unit_disk(points, radius)
    keep = set()
    for u, v in edges:
        if u == v:
            raise ValueError("self-loops are not allowed")
        if not (0 <= u < full.n and 0 <= v < full.n):
            raise ValueError(f"edge ({u},{v}) names a device outside [0, {full.n})")
        if v not in full.adjacency[u]:
            raise ValueError(f"edge ({u},{v}) longer than radius {radius}")
        keep.add(edge_key(u, v))
    adjacency = [tuple(v for v in nbrs if edge_key(d, v) in keep) for d, nbrs in enumerate(full.adjacency)]
    return Network(full.positions, adjacency)


def nets_from_edges(points, edges, radius: float = 1.5) -> RoutingNets:
    """Crafted topology where the planar overlay equals the full graph."""
    net = from_edges(points, edges, radius)
    return RoutingNets(net, net)


# --- the documented splitting walkthrough ------------------------------------
# A crafted planar graph: source s starts a traversal of the face toward the
# region; juncture b forwards and splits into one qualifying face while the
# face on its far side receives nothing; juncture a splits twice (four
# messages); the returning traversal meets its mate at a.

WALK_S, WALK_A, WALK_B, WALK_C, WALK_A1, WALK_A3 = range(6)

WALK_POINTS = (
    P(0.0, 0.0),     # s
    P(0.5, 0.45),    # a
    P(0.5, -0.45),   # b
    P(-0.3, -0.85),  # c
    P(1.25, 0.6),    # a1 (pendant off a, away from everything)
    P(0.85, -0.4),   # a3 (pendant off a, its edge crosses the guide line)
)

WALK_EDGES = (
    (WALK_S, WALK_A), (WALK_S, WALK_B), (WALK_A, WALK_B),
    (WALK_S, WALK_C), (WALK_B, WALK_C),
    (WALK_A, WALK_A1), (WALK_A, WALK_A3),
)

WALK_REGION = Rect.from_bounds(2.1, -0.3, 2.7, 0.3)


@pytest.fixture
def walkthrough():
    nets = nets_from_edges(WALK_POINTS, WALK_EDGES)
    inst = GeocastInstance.create(WALK_S, WALK_POINTS[WALK_S], WALK_REGION)
    return nets, inst


# --- independent oracles ------------------------------------------------------

def next_hop_oracle(at: Point, prev: Point, neighbors, rule: str) -> Point:
    """Angle-extraction sweep, independent of the exact-arithmetic version."""
    ref = math.atan2(prev.y - at.y, prev.x - at.x)
    two_pi = 2.0 * math.pi

    def key(p: Point):
        ang = math.atan2(p.y - at.y, p.x - at.x)
        delta = (ref - ang) % two_pi if rule == "R" else (ang - ref) % two_pi
        if delta == 0.0:
            delta = two_pi
        return (delta, dist2(at, p))

    return min(neighbors, key=key)


def reference_next_hop_index(at: Point, prev: Point, neighbors, rule: str) -> int:
    """The angular sweep face traversal used before the rotation on the ccw
    adjacency: index of the first neighbor met when sweeping from the ray
    at->prev.

    Rule RIGHT sweeps clockwise, LEFT counter-clockwise.  A neighbor exactly in
    the direction of `prev` is considered last (full sweep), which makes a
    dead-end bounce back to its only neighbor.  Angular ties break by distance,
    nearer first.
    """
    if not neighbors:
        raise ValueError("next_hop needs at least one neighbor")
    dx = prev.x - at.x
    dy = prev.y - at.y
    best = -1
    b_phase = 0
    b_wx = b_wy = b_d2 = 0.0
    for i, p in enumerate(neighbors):
        wx = p.x - at.x
        wy = p.y - at.y
        cr = dx * wy - dy * wx
        dt = dx * wx + dy * wy
        phase = _sweep_phase(cr, dt, rule)
        d2 = wx * wx + wy * wy
        if best < 0:
            earlier = True
        elif phase != b_phase:
            earlier = phase < b_phase
        elif phase in (1, 3):
            earlier = d2 < b_d2
        else:
            c2 = wx * b_wy - wy * b_wx  # cross(candidate, best)
            if c2 == 0.0:
                earlier = d2 < b_d2
            elif rule == RIGHT:
                earlier = c2 < 0.0
            else:
                earlier = c2 > 0.0
        if earlier:
            best, b_phase, b_wx, b_wy, b_d2 = i, phase, wx, wy, d2
    return best


def _sweep_phase(cr: float, dt: float, rule: str) -> int:
    # Order of encounter when sweeping away from the reference ray:
    # 0 = strictly on the sweep side, 1 = exactly opposite, 2 = far side,
    # 3 = aligned with the reference ray (a full turn away).
    if cr == 0.0:
        return 3 if dt > 0.0 else 1
    if rule == RIGHT:
        return 0 if cr < 0.0 else 2
    return 0 if cr > 0.0 else 2


def component_of(net: Network, src: int) -> set[int]:
    """Devices reachable from src."""
    return {d for d, h in enumerate(bfs_hops(net, src)) if h is not None}


def in_region(scenario: Scenario) -> set[int]:
    """Devices of the scenario inside its geocast region."""
    return {d for d, p in enumerate(scenario.devices) if scenario.region.contains(p)}


def is_juncture(net: Network, d: int, inst: GeocastInstance) -> bool:
    """A device inside the region, or with an edge that meets the region or
    the source-center line."""
    if inst.region.contains(net.positions[d]):
        return True
    world = World(net, inst)
    return any(edge_qualifies(world, d, u) for u in net.adjacency[d])


def reference_edge_qualifies(net: Network, u: int, v: int, inst: GeocastInstance) -> bool:
    """`edge_qualifies` as it was before the bounding-box rejects and the
    memo: every call runs the full segment tests."""
    pu, pv = net.positions[u], net.positions[v]
    if reference_segment_intersects_rect(Segment(pu, pv), inst.region):
        return True
    line = inst.center_line
    if line.degenerate:
        return False
    s, c = line.a, line.b
    if pu == s or pv == s:
        other = pv if pu == s else pu
        if orientation(s, c, other) != COLLINEAR:
            return False
        return (other.x - s.x) * (c.x - s.x) + (other.y - s.y) * (c.y - s.y) > 0.0
    return reference_segments_intersect(Segment(pu, pv), line)


def reference_segment_intersects_rect(seg: Segment, rect: Rect) -> bool:
    """True iff the closed segment meets the closed rectangle; the sides are
    rebuilt on every call, as `Rect.sides()` did."""
    if rect.contains(seg.a) or rect.contains(seg.b):
        return True
    a, b = rect.lo, rect.hi
    c = Point(b.x, a.y)
    d = Point(a.x, b.y)
    sides = (Segment(a, c), Segment(c, b), Segment(b, d), Segment(d, a))
    return any(reference_segments_intersect(seg, side) for side in sides)


def _reference_within_box(p: Point, q: Point, r: Point) -> bool:
    # q assumed collinear with p-r; closed bounding-box membership
    return (min(p.x, r.x) <= q.x <= max(p.x, r.x)
            and min(p.y, r.y) <= q.y <= max(p.y, r.y))


def reference_segments_intersect(s1: Segment, s2: Segment) -> bool:
    """Closed-segment intersection by orientations alone, no box reject."""
    p1, q1 = s1.a, s1.b
    p2, q2 = s2.a, s2.b
    o1 = orientation(p1, q1, p2)
    o2 = orientation(p1, q1, q2)
    if o1 == o2 != COLLINEAR:
        return False  # s2 lies strictly on one side of the line through s1
    o3 = orientation(p2, q2, p1)
    o4 = orientation(p2, q2, q1)
    if o1 != o2 and o3 != o4 and o1 != COLLINEAR and o2 != COLLINEAR:
        return True
    if o1 == COLLINEAR and _reference_within_box(p1, p2, q1):
        return True
    if o2 == COLLINEAR and _reference_within_box(p1, q2, q1):
        return True
    if o3 == COLLINEAR and _reference_within_box(p2, p1, q2):
        return True
    if o4 == COLLINEAR and _reference_within_box(p2, q1, q2):
        return True
    return False


def gabriel_oracle_keeps(points, u: int, v: int) -> bool:
    """Closed diametral-disk test in exact rationals, scanning every device:
    the edge goes iff some third device w has (pu - pw)·(pv - pw) <= 0."""
    pu, pv = points[u], points[v]
    ux, uy, vx, vy = Fraction(pu.x), Fraction(pu.y), Fraction(pv.x), Fraction(pv.y)
    reach = 2.0 * dist2(pu, pv)  # a witness is no farther from u than v is
    for w, pw in enumerate(points):
        if w in (u, v) or dist2(pu, pw) > reach:
            continue
        wx, wy = Fraction(pw.x), Fraction(pw.y)
        if (ux - wx) * (vx - wx) + (uy - wy) * (vy - wy) <= 0:
            return False
    return True


def reference_ccw_sorted(positions, d: int, nbrs) -> tuple[int, ...]:
    """The comparator sort the builders used before the key-based sort: half
    plane, then the sign of the rounded cross product, then distance, then
    id, re-evaluated on every comparison."""
    at = positions[d]

    def half(u: int) -> int:
        p = positions[u]
        vx, vy = p.x - at.x, p.y - at.y
        return 0 if (vy > 0.0 or (vy == 0.0 and vx > 0.0)) else 1

    def cmp(u: int, v: int) -> int:
        hu, hv = half(u), half(v)
        if hu != hv:
            return -1 if hu < hv else 1
        c = reference_cross_ids(positions, at, u, v)
        if c > 0.0:
            return -1
        if c < 0.0:
            return 1
        du = dist2(at, positions[u])
        dv = dist2(at, positions[v])
        if du != dv:
            return -1 if du < dv else 1
        return -1 if u < v else (1 if u > v else 0)

    return tuple(sorted(nbrs, key=cmp_to_key(cmp)))


def reference_cross_ids(positions, at: Point, u: int, v: int) -> float:
    pu, pv = positions[u], positions[v]
    return (pu.x - at.x) * (pv.y - at.y) - (pu.y - at.y) * (pv.x - at.x)


def reference_connector_path(net: Network, start: set[int], goal: set[int], universe: set[int]) -> set[int]:
    """The connector search the CDS used before its incremental heaps: a BFS
    from the whole start set in id order, returning the interior of the path
    to the first goal device it finds."""
    prev: dict[int, int] = {d: d for d in start}
    queue = deque(sorted(start))
    while queue:
        d = queue.popleft()
        for u in net.adjacency[d]:
            if u not in universe or u in prev:
                continue
            prev[u] = d
            if u in goal:
                interior = set()
                at = prev[u]
                while at not in start:
                    interior.add(at)
                    at = prev[at]
                return interior
            queue.append(u)
    raise RuntimeError("connector search failed inside a connected component")


def reference_unit_disk(points, radius: float) -> Network:
    """The all-pairs unit-disk builder: an n x n distance matrix in numpy,
    O(n^2) memory.  The cell-grid builder must match it tuple for tuple."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = list(points)
    if len(set((p.x, p.y) for p in pts)) != len(pts):
        raise DuplicatePointsError("device coordinates must be pairwise distinct")
    n = len(pts)
    if n == 0:
        return Network((), ())
    arr = np.array([(p.x, p.y) for p in pts], dtype=np.float64)
    diff = arr[:, None, :] - arr[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    within = d2 <= radius * radius
    np.fill_diagonal(within, False)
    adjacency = [reference_ccw_sorted(pts, d, np.flatnonzero(within[d]).tolist()) for d in range(n)]
    return Network(pts, adjacency)


def reference_cds_backbone(net: Network) -> set[int]:
    """The re-partitioning CDS: after every connector path the chosen set of
    the component is split into induced parts again from scratch, and the
    next connector starts from the part holding the smallest device.  The
    incremental hub must choose the same set."""
    n = net.n
    chosen: set[int] = set()
    covered = [False] * n
    for d in sorted(range(n), key=lambda d: (-net.degree(d), d)):
        if not covered[d] or any(not covered[u] for u in net.adjacency[d]):
            chosen.add(d)
            covered[d] = True
            for u in net.adjacency[d]:
                covered[u] = True
    for comp in connected_components(net):
        comp_set = set(comp)
        while True:
            parts = _induced_parts(net, chosen & comp_set)
            if len(parts) <= 1:
                break
            chosen |= reference_connector_path(net, parts[0], set().union(*parts[1:]), comp_set)
    return chosen


def _induced_parts(net: Network, nodes: set[int]) -> list[set[int]]:
    remaining = set(nodes)
    parts = []
    while remaining:
        s = min(remaining)
        part = {s}
        queue = deque([s])
        while queue:
            d = queue.popleft()
            for u in net.adjacency[d]:
                if u in nodes and u not in part:
                    part.add(u)
                    queue.append(u)
        parts.append(part)
        remaining -= part
    return sorted(parts, key=min)


def minimum_cds_oracle(net: Network) -> set[int]:
    """Smallest connected dominating set by exhaustive search (n <= 8 or so).

    Assumes a connected input with at least one vertex.
    """
    n = net.n
    if n == 1:
        return {0}

    def dominating(sub: set[int]) -> bool:
        return all(d in sub or any(u in sub for u in net.adjacency[d]) for d in range(n))

    def connected(sub: set[int]) -> bool:
        start = next(iter(sub))
        seen = {start}
        stack = [start]
        while stack:
            d = stack.pop()
            for u in net.adjacency[d]:
                if u in sub and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen == sub

    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            sub = set(combo)
            if dominating(sub) and connected(sub):
                return sub
    raise AssertionError("no CDS found")


def exhaustive_sf_outcomes(adjacency, source):
    """Every fair schedule of stateless flooding, by exhaustive search.

    Independent re-implementation of the flood rules over immutable states;
    returns the set of (transmissions, visited frozenset) at quiescence.
    """
    init = tuple(
        tuple((source, u) for u in adjacency[d]) if d == source else ()
        for d in range(len(adjacency))
    )
    outcomes = set()
    seen_states = set()

    def explore(queues, visited, sent):
        state = (queues, visited, sent)
        if state in seen_states:
            return
        seen_states.add(state)
        pending = [(d, i) for d, q in enumerate(queues) for i in range(len(q))]
        if not pending:
            outcomes.add((sent, visited))
            return
        for d, i in pending:
            sender, receiver = queues[d][i]
            q2 = list(list(q) for q in queues)
            del q2[d][i]
            visited2 = visited | {receiver}
            mate = None
            for j, (ms, mr) in enumerate(q2[receiver]):
                if mr == sender:
                    mate = j
                    break
            if mate is not None:
                del q2[receiver][mate]
            else:
                for u in adjacency[receiver]:
                    if u != sender:
                        q2[receiver].append((receiver, u))
            explore(tuple(tuple(q) for q in q2), visited2, sent + 1)

    explore(init, frozenset({source}), 0)
    return outcomes


def sf_border_violations(sim, source: int) -> list[str]:
    """Check the flooding frontier invariant on the current state: a visited
    device queues exactly one message per unused incident edge and none per
    used edge; unvisited devices queue nothing."""
    net = sim.nets.full
    st = sim.state
    used = used_edges_from_trace(st.transcript)
    visited = arrivals(st.transcript, source)
    receivers = defaultdict(list)
    for (sender, receiver), msgs in st.queued.items():
        receivers[sender].extend([receiver] * len(msgs))
    violations = []
    for d in range(net.n):
        queued = receivers[d]
        if d not in visited:
            if queued:
                violations.append(f"unvisited device {d} holds {queued}")
            continue
        for u in net.adjacency[d]:
            edge = (d, u) if d < u else (u, d)
            count = queued.count(u)
            if edge in used:
                if count != 0:
                    violations.append(f"device {d} queues over used edge {edge}")
            elif count != 1:
                violations.append(f"device {d} queues {count} messages over unused edge {edge}")
        extras = set(queued) - set(net.adjacency[d])
        if extras:
            violations.append(f"device {d} queues to non-neighbors {extras}")
    return violations


def reference_deliver_dominated(state, nets: RoutingNets, inst: GeocastInstance,
                                backbone: frozenset) -> int:
    """The backbone epilogue by its rule over an explicit backbone set: each
    unvisited in-region device off `backbone` gets one hop on `nets.unit_disk`
    from its visited backbone neighbor of least depth, lowest id on ties."""
    arrival = {inst.source: 0}
    for e in state.transcript:
        arrival[e.receiver] = min(e.depth, arrival.get(e.receiver, e.depth))
    transcript = state.transcript
    before = len(transcript)
    for d in sorted(nets.world(inst).region.difference(backbone, arrival)):
        dominators = [u for u in nets.unit_disk.adjacency[d] if u in backbone and u in arrival]
        if dominators:
            u = min(dominators, key=lambda v: (arrival[v], v))
            arrival[d] = arrival[u] + 1
            transcript.append(TransmissionEvent(len(transcript) + 1, "flood", None, u, d, arrival[d]))
    return len(transcript) - before
