"""Unit-disk connectivity, Gabriel planar overlay, backbone selection and face bookkeeping."""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain, compress
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import (
    COLLINEAR,
    PRODUCT_ERR,
    UNDERFLOW_FLOOR,
    Point,
    Rect,
    Segment,
    dot_sign,
    orientation,
    segment_intersects_rect,
    segments_intersect,
)

DeviceId = int

# A world's numeric domain: a radius in [2**-511, 2**511] and field sides of
# at most 2**511 keep radius*radius a normal float and every product of two
# coordinate differences finite, so no distance test overflows or underflows.
DOMAIN_LIMIT = 2.0 ** 511


def edge_key(u: DeviceId, v: DeviceId) -> tuple[DeviceId, DeviceId]:
    """The undirected edge {u, v} as a key: the lower id first."""
    return (u, v) if u < v else (v, u)


class DuplicatePointsError(ValueError):
    """Two devices share coordinates; the scenario must be regenerated."""


class ScenarioFormatError(ValueError):
    """A scenario file is malformed; the message names the offending field."""


class Network:
    """Immutable embedded graph: positions plus adjacency sorted counter-clockwise.

    The angular order starts at the positive x axis; ties (collinear neighbors)
    order nearer-first, then by id.
    """

    __slots__ = ("positions", "adjacency")

    def __init__(self, positions: Sequence[Point], adjacency: Sequence[Sequence[int]]):
        self.positions: tuple[Point, ...] = tuple(positions)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(tuple(a) for a in adjacency)

    @property
    def n(self) -> int:
        return len(self.positions)

    def degree(self, d: DeviceId) -> int:
        return len(self.adjacency[d])

    def edges(self) -> Iterable[tuple[DeviceId, DeviceId]]:
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2


def _ccw_repaired(positions: Sequence[Point], d: DeviceId, nbrs: Iterable[DeviceId]) -> tuple[int, ...]:
    """Neighbours of d, given in the order of `build_unit_disk`'s key, with
    every neighbour the key misplaced moved by an insertion pass on
    `_ccw_before`."""
    at = positions[d]
    ax, ay = at.x, at.y
    order = []
    for u in nbrs:
        p = positions[u]
        vx = p.x - ax
        vy = p.y - ay
        half = 0 if (vy > 0.0 or (vy == 0.0 and vx > 0.0)) else 1
        order.append((half, vx, vy, vx * vx + vy * vy, u))
    for i in range(1, len(order)):
        j = i
        while j and _ccw_before(order[j], order[j - 1]):
            order[j - 1], order[j] = order[j], order[j - 1]
            j -= 1
    return tuple(e[4] for e in order)


def _ccw_before(a: tuple, b: tuple) -> bool:
    """True iff neighbour a must precede neighbour b (entries of `_ccw_repaired`):
    half-plane (the one from the positive x axis first), then the sign of the
    rounded cross product, then distance, then id."""
    if a[0] != b[0]:
        return a[0] < b[0]
    c = a[1] * b[2] - a[2] * b[1]
    if c > 0.0:
        return True
    if c < 0.0:
        return False
    return (a[3], a[4]) < (b[3], b[4])


def build_unit_disk(points: Sequence[Point], radius: float) -> Network:
    """Connect every pair at Euclidean distance <= radius (closed threshold).

    Construction is a cell grid in arrays: devices are binned into square
    cells a hair wider than the radius, and each cell is tested against
    itself and the four cells ahead of it (the other four see it from their
    side), so time and memory are O(n·deg) rather than O(n²).  The test is
    `dx*dx + dy*dy <= radius*radius`, which gives the same answer for (u, v)
    and (v, u).  The adjacency order is that of `_ccw_before`: one lexsort
    of all directed edges on the key (half, -vx/vy, dist2, id), which puts
    them in that order up to rounding (-vx/vy rises with the angle inside
    either half and is -inf on the x axis), then its check on adjacent
    pairs; a device with a pair the key misplaced gets `_ccw_repaired`.
    """
    if not 1.0 / DOMAIN_LIMIT <= radius <= DOMAIN_LIMIT:  # rejects NaN, inf, 0 and below too
        raise ValueError("radius must be finite and lie in [2**-511, 2**511]")
    pts = list(points)
    n = len(pts)
    xs, ys = _coordinates(pts)
    bad = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys)))
    if bad.size:
        raise ValueError(f"device {bad[0]} has a non-finite coordinate")
    if not pairwise_distinct(xs, ys):
        raise DuplicatePointsError("device coordinates must be pairwise distinct")
    if not pts:
        return Network((), ())
    # the numeric domain (DOMAIN_LIMIT); min + DOMAIN_LIMIT cannot overflow, where max - min could
    if any(float(v.max()) > float(v.min()) + DOMAIN_LIMIT for v in (xs, ys)):
        raise ValueError("device coordinates must span at most 2**511 on each axis")
    # Cells are a hair wider than the radius, so a pair that passes the rounded
    # distance test is never two cells apart after x / cell is rounded: the
    # relative slack covers the rounding of the test, the extent term that of
    # quotients of large coordinates.
    extent = float(max(np.abs(xs).max(), np.abs(ys).max()))
    cell = radius * (1.0 + 2.0 ** -20) + extent * 2.0 ** -50
    a, b = _cell_pairs(xs, ys, cell, radius * radius)
    src = np.concatenate((a, b))
    dst = np.concatenate((b, a))
    del a, b
    vx = xs[dst] - xs[src]
    vy = ys[dst] - ys[src]
    upper = (vy > 0.0) | ((vy == 0.0) & (vx > 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        slope = np.divide(-vx, vy, out=np.full(vx.shape, -np.inf), where=vy != 0.0)
    d2 = vx * vx + vy * vy
    order = np.lexsort((dst, d2, slope, ~upper, src))
    # each array is dropped once used up, which keeps the traced peak near 2 MB at n = 3,565
    del slope
    src = src[order]
    dst = dst[order]
    vx = vx[order]
    vy = vy[order]
    d2 = d2[order]
    upper = upper[order]
    del order
    # _ccw_before(next, previous) on adjacent neighbours of one device and half
    with np.errstate(over="ignore", invalid="ignore"):
        c = vx[1:] * vy[:-1] - vy[1:] * vx[:-1]
    del vx, vy
    same = (src[1:] == src[:-1]) & (upper[1:] == upper[:-1])
    misplaced = same & ((c > 0.0) | (~(c < 0.0) & (
        (d2[1:] < d2[:-1]) | ((d2[1:] == d2[:-1]) & (dst[1:] < dst[:-1])))))
    redo = np.unique(src[1:][misplaced])
    del c, d2, upper, same, misplaced
    ids = list(range(n))  # one int object per device, shared by every entry and overlay
    adjacency = _adjacency(src, list(map(ids.__getitem__, dst.tolist())), n)
    for d in redo.tolist():
        adjacency[d] = _ccw_repaired(pts, d, adjacency[d])
    return Network(pts, adjacency)


def pairwise_distinct(xs: np.ndarray, ys: np.ndarray) -> bool:
    """True iff no two devices share both coordinates (-0.0 equals 0.0)."""
    by_xy = np.lexsort((ys, xs))
    return not np.any((xs[by_xy[1:]] == xs[by_xy[:-1]]) & (ys[by_xy[1:]] == ys[by_xy[:-1]]))


def _cell_pairs(xs: np.ndarray, ys: np.ndarray, cell: float, r2: float) -> tuple[np.ndarray, np.ndarray]:
    """Each pair (a, b) of devices within the distance test, once, found cell
    offset by cell offset.  Cell coordinates reach about 2**50, so they are
    replaced by their ranks before they are packed into one key."""
    cx = np.floor(xs / cell).astype(np.int64)
    cy = np.floor(ys / cell).astype(np.int64)
    ux, rx = np.unique(cx, return_inverse=True)
    uy, ry = np.unique(cy, return_inverse=True)
    key = rx * len(uy) + ry
    by_cell = np.argsort(key, kind="stable")
    cells, first, count = np.unique(key[by_cell], return_index=True, return_counts=True)
    sx, sy = xs[by_cell], ys[by_cell]
    pos = np.arange(len(xs))
    home = np.repeat(np.arange(len(cells)), count)  # cell of each sorted position
    end = (first + count)[home]
    ccx, ccy = ux[cells // len(uy)], uy[cells % len(uy)]
    found_a: list[np.ndarray] = []
    found_b: list[np.ndarray] = []
    for ox, oy in ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1)):
        if (ox, oy) == (0, 0):
            lo, hi = pos + 1, end  # later devices of the same cell
        else:
            tx = np.searchsorted(ux, ccx + ox).clip(max=len(ux) - 1)
            ty = np.searchsorted(uy, ccy + oy).clip(max=len(uy) - 1)
            want = tx * len(uy) + ty
            target = np.searchsorted(cells, want).clip(max=len(cells) - 1)
            hit = (ux[tx] == ccx + ox) & (uy[ty] == ccy + oy) & (cells[target] == want)
            lo = np.where(hit, first[target], 0)[home]
            hi = np.where(hit, (first + count)[target], 0)[home]
        span = hi - lo
        pa = np.repeat(pos, span)
        pb = np.arange(len(pa)) - np.repeat(np.cumsum(span) - span - lo, span)
        dx = sx[pa] - sx[pb]
        dy = sy[pa] - sy[pb]
        near = dx * dx + dy * dy <= r2
        found_a.append(by_cell[pa[near]])
        found_b.append(by_cell[pb[near]])
    return np.concatenate(found_a), np.concatenate(found_b)


def gabriel_subgraph(net: Network) -> Network:
    """Keep edge (u,v) iff no third device w lies in the closed disk with
    diameter uv, i.e. (pu - pw)·(pv - pw) > 0 for every w (Gabriel & Sokal
    1969).  The closed disk drops both diagonals of four cocircular devices,
    so the overlay has no proper crossings.  Witnesses are necessarily
    unit-disk neighbours of u, so the test stays local.

    The test runs witness slot by witness slot: step j tests, for every
    directed edge (u, v) still kept, the j-th neighbour of u, so temporaries
    stay O(edges).  Signs are exact: a float filter decides almost all of
    them and `dot_sign` the rest.
    """
    pos = net.positions
    adj = net.adjacency
    n = net.n
    xs, ys = _coordinates(pos)
    # int32 indices halve the temporaries; 2**31 devices or edges would not fit in memory
    deg = np.fromiter(map(len, adj), np.int32, n)
    dst = np.fromiter(chain.from_iterable(adj), np.int32, int(deg.sum()))
    src = np.repeat(np.arange(n, dtype=np.int32), deg)
    last = np.repeat(np.cumsum(deg, dtype=np.int32), deg)  # one past u's last neighbour in dst
    first = last - deg[src]
    kept = np.ones(len(dst), dtype=bool)
    live = np.arange(len(dst), dtype=np.int32)
    for j in range(int(deg.max(initial=0))):
        live = live[first[live] + j < last[live]]
        u, v, w = src[live], dst[live], dst[first[live] + j]
        xw, yw = xs[w], ys[w]
        with np.errstate(over="ignore", invalid="ignore"):
            px = (xs[u] - xw) * (xs[v] - xw)
            py = (ys[u] - yw) * (ys[v] - yw)
            dot = px + py
            bound = PRODUCT_ERR * (np.abs(px) + np.abs(py)) + UNDERFLOW_FLOOR
        witness = w != v
        inside = (dot < -bound) & witness
        for i in np.flatnonzero(~(np.abs(dot) > bound) & witness).tolist():
            inside[i] = dot_sign(pos[u[i]], pos[v[i]], pos[w[i]]) <= 0
        kept[live[inside]] = False
        live = live[~inside]
    # a subset of a ccw-sorted list stays sorted; compressing the input
    # tuples keeps the entries the very int objects of `net`
    entries = list(compress(chain.from_iterable(adj), kept.tolist()))
    return Network(pos, _adjacency(src[kept], entries, n))


def _coordinates(points: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
    return (np.fromiter((p.x for p in points), np.float64, len(points)),
            np.fromiter((p.y for p in points), np.float64, len(points)))


def _adjacency(src: np.ndarray, entries: list[int], n: int) -> list[tuple[int, ...]]:
    """Adjacency tuples of n devices from directed edges sorted by source:
    `src` holds their sources and `entries` their destinations."""
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    return [tuple(entries[s:e]) for s, e in zip([0] + ends[:-1], ends)]


def induced_subgraph(net: Network, keep: Iterable[DeviceId]) -> Network:
    """Same id space; devices outside `keep` become isolated."""
    keep_set = set(keep)
    adjacency = [
        tuple(v for v in net.adjacency[d] if v in keep_set) if d in keep_set else ()
        for d in range(net.n)
    ]
    return Network(net.positions, adjacency)


def bfs_hops(net: Network, src: DeviceId) -> list[Optional[int]]:
    hops: list[Optional[int]] = [None] * net.n
    hops[src] = 0
    queue = deque([src])
    while queue:
        d = queue.popleft()
        nd = hops[d] + 1  # type: ignore[operator]
        for u in net.adjacency[d]:
            if hops[u] is None:
                hops[u] = nd
                queue.append(u)
    return hops


def connected_components(net: Network) -> list[list[DeviceId]]:
    seen = [False] * net.n
    comps = []
    for s in range(net.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            d = queue.popleft()
            for u in net.adjacency[d]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def cds_backbone(net: Network) -> set[DeviceId]:
    """Connected dominating set, one per component.

    Greedy cover by descending degree, then connectors until the chosen set
    induces a connected subgraph within every component.  The contract is
    dominating + induced-connected, not minimality.

    The connectors grow a hub: it starts as the induced part holding the
    component's smallest chosen device, and after each connector a BFS over
    chosen devices from the connector absorbs every part that joins.  So no
    chosen device outside the hub is adjacent to it, and since every device
    is dominated, the nearest one is 2 or 3 hops away.  The connector is the
    interior of the path a BFS from the hub's devices in id order would find
    first.  A level-1 device v (adjacent to the hub, not in it) is found
    from its smallest-id hub neighbour h, so its key is key1(v) = (h, index
    of v in h's adjacency).  If some v has a chosen neighbour w outside the
    hub, the goal is the lexicographically least (key1(v), index of w in v's
    adjacency) and the connector is {v}.  Otherwise the goal is the least
    ((key1(v), index of x in v's adjacency), index of w in x's adjacency)
    over level-2 devices x and the connector is {v, x}.  Only v and x decide
    the connector, and their minima are kept in lazy heaps as the hub grows,
    so no search walks the whole hub for every connector.
    """
    n = net.n
    adj = net.adjacency
    chosen: set[int] = set()
    covered = [False] * n
    for d in sorted(range(n), key=lambda d: (-net.degree(d), d)):
        if not covered[d] or any(not covered[u] for u in net.adjacency[d]):
            chosen.add(d)
            covered[d] = True
            for u in net.adjacency[d]:
                covered[u] = True
    for comp in connected_components(net):
        rest = chosen.intersection(comp)  # chosen devices of the component not yet in the hub
        hub: set[int] = set()
        key1: dict[int, tuple[int, int]] = {}  # level-1 devices, and former ones now in the hub
        pairs: list = []  # (key1(v), v)
        triples: list = []  # (key1(v), index of x in adj[v], v, x)
        seeds = [min(rest)]
        while True:
            hub.update(seeds)
            rest.difference_update(seeds)
            added = list(seeds)
            queue = deque(seeds)
            while queue:
                d = queue.popleft()
                for u in adj[d]:
                    if u in rest:
                        rest.discard(u)
                        hub.add(u)
                        added.append(u)
                        queue.append(u)
            if not rest:
                break
            lowered = set()
            for h in added:
                for i, v in enumerate(adj[h]):
                    if v not in hub:
                        old = key1.get(v)
                        if old is None or (h, i) < old:
                            key1[v] = (h, i)
                            lowered.add(v)
            for v in lowered:
                k = key1[v]
                heappush(pairs, (k, v))
                for i, x in enumerate(adj[v]):
                    if x not in hub and x not in key1:
                        heappush(triples, (k, i, v, x))
            seeds = _next_connector(adj, hub, rest, key1, pairs, triples)
            chosen.update(seeds)
    return chosen


def _next_connector(adj: Sequence[tuple[int, ...]], hub: set[int], rest: set[int], key1: dict,
                    pairs: list, triples: list) -> list[int]:
    """The connector of the least valid pair entry, else of the least valid
    triple entry, dropping invalid entries on the way.

    An invalid entry stays invalid, since devices only join the hub and rest
    only shrinks.  An entry pushed before key1(v) fell pops after the fresh
    one, which either wins (so v joins the hub) or fails for a reason that
    fails the old one too, so no entry needs its key checked.
    """
    while pairs:
        _, v = heappop(pairs)
        if v not in hub and not rest.isdisjoint(adj[v]):
            return [v]
    while triples:
        _, _, v, x = heappop(triples)
        if v not in hub and x not in hub and x not in key1 and not rest.isdisjoint(adj[x]):
            return [v, x]
    raise RuntimeError("connector search failed inside a connected component")


class World:
    """What one unit-disk graph and one instance value alone decide: `region`,
    the in-region devices (given, when a world of the same region has them);
    `qualified`, the `edge_qualifies` answers by edge key; and `reach`, made
    on first use: the hop distances from the source, the targets (the
    in-region devices it reaches) and the furthest target (most hops, then
    lowest id; None without targets)."""

    def __init__(self, net: Network, inst: "GeocastInstance", region: Optional[frozenset] = None):
        self.net, self.inst, self.qualified = net, inst, {}
        self.region = region_devices(net.positions, inst.region) if region is None else region

    @cached_property
    def reach(self) -> tuple[list[Optional[int]], frozenset, Optional[DeviceId]]:
        hops = bfs_hops(self.net, self.inst.source)
        targets = frozenset(d for d in self.region if hops[d] is not None)
        return hops, targets, max(targets, key=lambda d: (hops[d], -d), default=None)


def region_devices(positions: Sequence[Point], region: Rect) -> frozenset:
    """The devices whose positions lie in the closed region: one scan of all."""
    return frozenset(compress(range(len(positions)), map(region.contains, positions)))


@dataclass(frozen=True)
class GeocastInstance:
    """One geocast request: source device, the target region, and the line
    from the source's coordinates to the region center."""

    source: DeviceId
    region: Rect
    center_line: Segment

    @classmethod
    def create(cls, source: DeviceId, point: Point, region: Rect) -> "GeocastInstance":
        return cls(source, region, Segment(point, region.center))


def local_faces(net: Network, d: DeviceId) -> list[tuple[DeviceId, DeviceId]]:
    """Wedges at d: consecutive neighbor pairs in ccw order, one per local face.

    A degree-1 device has the single self-wedge (u, u); an isolated device has
    none.
    """
    nbrs = net.adjacency[d]
    k = len(nbrs)
    if k == 0:
        return []
    return [(nbrs[i], nbrs[(i + 1) % k]) for i in range(k)]


def edge_qualifies(world: World, u: DeviceId, v: DeviceId) -> bool:
    """True iff edge (u,v) meets the geocast region or the source-center line.

    Region membership is closed.  The line test ignores contact that happens
    only at the source point itself, otherwise every edge at the source would
    qualify spuriously; an edge pointing along the line past the source still
    counts.  Memoised in the world; the test is symmetric in u and v.
    """
    memo = world.qualified
    key = edge_key(u, v)
    hit = memo.get(key)
    if hit is None:
        pos = world.net.positions
        hit = memo[key] = _edge_qualifies(pos[u], pos[v], world.inst)
    return hit


def _edge_qualifies(pu: Point, pv: Point, inst: GeocastInstance) -> bool:
    if segment_intersects_rect(Segment(pu, pv), inst.region):
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
    return segments_intersect(Segment(pu, pv), line)


def wedge_qualifies(world: World, d: DeviceId, wedge: tuple[DeviceId, DeviceId]) -> bool:
    """Either edge of the wedge at d qualifies; a memo hit makes no call."""
    memo = world.qualified
    for u in wedge:
        if (hit := memo.get((d, u) if d < u else (u, d))) is None:
            hit = edge_qualifies(world, d, u)
        if hit:
            return True
    return False


@dataclass(frozen=True)
class Scenario:
    """The immutable world of one simulation: geometry, source, region, seed."""

    radius: float
    field: tuple[float, float]
    devices: tuple[Point, ...]
    source: DeviceId
    region: Rect
    seed: int

    def instance(self) -> GeocastInstance:
        return GeocastInstance.create(self.source, self.devices[self.source], self.region)


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "radius": sc.radius,
        "field": [sc.field[0], sc.field[1]],
        "devices": [[p.x, p.y] for p in sc.devices],
        "source": sc.source,
        "region": list(sc.region.bounds),
        "seed": sc.seed,
    }


def scenario_from_dict(data: dict) -> Scenario:
    def fail(field: str, why: str) -> ScenarioFormatError:
        return ScenarioFormatError(f"scenario field '{field}': {why}")

    def number(field: str, value) -> float:
        # exact types, as in read_trace (JSON true is a bool); the bound fails NaN, inf and ints past float range
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise fail(field, "must be a finite number")
        return float(value)

    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    for key in ("radius", "field", "devices", "source", "region", "seed"):
        if key not in data:
            raise fail(key, "missing")
    radius = number("radius", data["radius"])
    if not 1.0 / DOMAIN_LIMIT <= radius <= DOMAIN_LIMIT:
        raise fail("radius", "must lie in [2**-511, 2**511]")
    field = data["field"]
    if not (isinstance(field, list) and len(field) == 2):
        raise fail("field", "expected [width, height]")
    fw, fh = (number("field", v) for v in field)
    if not (0 < fw <= DOMAIN_LIMIT and 0 < fh <= DOMAIN_LIMIT):
        raise fail("field", "sides must lie in (0, 2**511]")
    devices = data["devices"]
    if not isinstance(devices, list) or not devices:
        raise fail("devices", "expected a non-empty list of [x, y] pairs")
    for i, xy in enumerate(devices):
        if not (type(xy) is list and len(xy) == 2 and {type(xy[0]), type(xy[1])} <= {int, float}):
            raise fail(f"devices[{i}]", "must be an [x, y] pair of numbers")
    try:
        xs, ys = np.array(devices, dtype=np.float64).T
    except OverflowError:  # an int beyond float range, which number() names
        xs, ys = np.array([[number(f"devices[{i}]", v) for v in xy] for i, xy in enumerate(devices)]).T
    inside = (0.0 <= xs) & (xs <= fw) & (0.0 <= ys) & (ys <= fh)  # False for NaN and infinities
    if not inside.all():
        raise fail(f"devices[{np.argmin(inside)}]", "must be finite and lie within the field")
    if not pairwise_distinct(xs, ys):
        raise fail("devices", "coordinates must be pairwise distinct")
    source = data["source"]
    if type(source) is not int or not 0 <= source < len(devices):
        raise fail("source", f"must be an index in [0, {len(devices) - 1}]")
    region = data["region"]
    if not (isinstance(region, list) and len(region) == 4):
        raise fail("region", "expected [xmin, ymin, xmax, ymax]")
    xmin, ymin, xmax, ymax = (number("region", v) for v in region)
    if xmin > xmax or ymin > ymax:
        raise fail("region", "min corner exceeds max corner")
    if xmin < 0 or ymin < 0 or xmax > fw or ymax > fh:
        raise fail("region", "must lie within the field")
    seed = data["seed"]
    if type(seed) is not int or seed < 0:
        raise fail("seed", "must be a non-negative integer")
    pts = tuple(map(Point, xs.tolist(), ys.tolist()))
    return Scenario(radius, (fw, fh), pts, source, Rect.from_bounds(xmin, ymin, xmax, ymax), seed)


def save_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc), fh)
        fh.write("\n")


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return scenario_from_dict(data)
