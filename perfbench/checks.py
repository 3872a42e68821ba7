"""Output checks that need no reference hash, so they hold on any seed.

The graph quantities are recomputed here from the device coordinates alone,
without calling `geocastsim.netgraph`, so a faster network builder that drops
or adds an edge fails the check instead of agreeing with itself.  The float
expressions are the builder's own (`dx*dx + dy*dy <= r*r`, and the open-disk
Gabriel test on the edge midpoint), so closed-threshold ties cannot flip.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def unit_disk_adjacency(points, radius: float) -> list[list[int]]:
    """Neighbour lists (ascending ids) of the closed unit-disk graph."""
    xy = np.array([(p.x, p.y) for p in points], dtype=np.float64)
    n = len(xy)
    r2 = radius * radius
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for start in range(0, n, 256):
        block = xy[start:start + 256]
        dx = block[:, None, 0] - xy[None, :, 0]
        dy = block[:, None, 1] - xy[None, :, 1]
        rows, cols = np.nonzero(dx * dx + dy * dy <= r2)
        for i, j in zip((rows + start).tolist(), cols.tolist()):
            if i != j:
                adjacency[i].append(j)
    return adjacency


def gabriel_adjacency(points, adjacency: list[list[int]]) -> list[list[int]]:
    """Edges (u, v), u < v, with no neighbour of u strictly inside the disk on
    diameter uv; returned symmetric."""
    kept: list[list[int]] = [[] for _ in adjacency]
    for u, nbrs in enumerate(adjacency):
        pu = points[u]
        for v in nbrs:
            if v < u:
                continue
            pv = points[v]
            mx = (pu.x + pv.x) / 2.0
            my = (pu.y + pv.y) / 2.0
            r2 = ((pu.x - pv.x) ** 2 + (pu.y - pv.y) ** 2) / 4.0
            if all(w == v or (points[w].x - mx) ** 2 + (points[w].y - my) ** 2 >= r2
                   for w in nbrs):
                kept[u].append(v)
                kept[v].append(u)
    return kept


def component(adjacency: list[list[int]], source: int) -> set[int]:
    seen = {source}
    queue = deque([source])
    while queue:
        d = queue.popleft()
        for u in adjacency[d]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def component_edges(adjacency: list[list[int]], source: int) -> int:
    comp = component(adjacency, source)
    return sum(len(adjacency[d]) for d in comp) // 2


def scenario_bounds(scenario) -> tuple[int, int]:
    """(flood cost, planar bound) for one scenario: the edge count of the
    source's unit-disk component (criterion 1: `sf` costs exactly this) and
    twice the edge count of its component in the Gabriel overlay (criterion
    3: `spg` costs at most this)."""
    full = unit_disk_adjacency(scenario.devices, scenario.radius)
    planar = gabriel_adjacency(scenario.devices, full)
    return component_edges(full, scenario.source), 2 * component_edges(planar, scenario.source)
