"""Degenerate worlds end to end: every algorithm under every policy, with and
without the backbone, on lattices, a collinear row and a cocircular ring.

Lattice diagonals sit at or a rounding unit off the radius, regions shrink to
a point on a device or to a strip between columns, and the source can sit
exactly at the region centre.  Each run must quiesce and deliver to every
reachable in-region device; flooding must cost exactly the edges of the
source's component, and planar routing at most two per overlay edge of it.
"""

import math

import pytest

from conftest import P, component_of
from geocastsim.engine import POLICIES, run
from geocastsim.experiments import build_nets
from geocastsim.geometry import Rect
from geocastsim.netgraph import Scenario
from geocastsim.protocol import ALGORITHMS

SIDE = 9  # lattice devices per row and column


def _lattice_worlds():
    for step_name, step in (("0.3", 0.3), ("0.5", 0.5), ("sqrt2/2", math.sqrt(2.0) / 2.0),
                            ("1.0", 1.0)):
        pts = tuple(P(i * step, j * step) for j in range(SIDE) for i in range(SIDE))
        end = (SIDE - 1) * step

        def box(i0, j0, i1, j1):
            return Rect.from_bounds(i0 * step, j0 * step, i1 * step, j1 * step)

        for source_name, source in (("corner", 0), ("centre", SIDE * SIDE // 2),
                                    ("far-corner", SIDE * SIDE - 1)):
            si, sj = source % SIDE, source // SIDE
            regions = {
                "point-on-device": box(6, 2, 6, 2),
                "point-on-source": box(si, sj, si, sj),
                "edges-on-rows": box(2, 5, 5, 7),
                "strip-between-columns": box(4.5, 0, 4.5, SIDE - 1),
                "whole-field": Rect.from_bounds(0.0, 0.0, end, end),
            }
            if source_name == "centre":
                regions["centred-on-source"] = box(si - 2, sj - 2, si + 2, sj + 2)
            for region_name, region in regions.items():
                yield (f"lattice-{step_name}-{source_name}-{region_name}",
                       Scenario(1.0, (end, end), pts, source, region, 7))


def _row_and_ring_worlds():
    row = tuple(P(0.5 * i, 0.0) for i in range(12))
    for source_name, source in (("end", 0), ("middle", 6)):
        for region_name, region in (("point-on-device", Rect.from_bounds(4.0, 0.0, 4.0, 0.0)),
                                    ("point-on-source", Rect(row[source], row[source])),
                                    ("tail", Rect.from_bounds(3.0, 0.0, 5.5, 0.0)),
                                    ("whole-field", Rect.from_bounds(0.0, 0.0, 5.5, 1.0))):
            yield f"row-{source_name}-{region_name}", Scenario(1.0, (5.5, 1.0), row, source, region, 7)
    # twelve devices on the unit circle around a centre device, all at exactly
    # the radius from it
    ring = (P(1.0, 1.0),) + tuple(P(1.0 + math.cos(k * math.pi / 6), 1.0 + math.sin(k * math.pi / 6))
                                  for k in range(12))
    for source_name, source in (("centre", 0), ("rim", 1)):
        for region_name, region in (("point-on-device", Rect(ring[7], ring[7])),
                                    ("point-on-centre", Rect.from_bounds(1.0, 1.0, 1.0, 1.0)),
                                    ("strip-through-centre", Rect.from_bounds(1.0, 0.0, 1.0, 2.0)),
                                    ("whole-field", Rect.from_bounds(0.0, 0.0, 2.0, 2.0))):
            yield f"ring-{source_name}-{region_name}", Scenario(1.0, (2.0, 2.0), ring, source, region, 7)


WORLDS = dict(_lattice_worlds())
WORLDS.update(_row_and_ring_worlds())


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_every_algorithm_delivers_on_degenerate_world(name):
    scenario = WORLDS[name]
    inst = scenario.instance()
    for cds in (False, True):
        bundle = build_nets(scenario, cds=cds)
        comp = component_of(bundle.nets.full, scenario.source)
        flood_edges = sum(1 for u, v in bundle.nets.full.edges() if u in comp)
        pcomp = component_of(bundle.nets.planar, scenario.source)
        planar_edges = sum(1 for u, v in bundle.nets.planar.edges() if u in pcomp)
        for alg in ALGORITHMS:
            for policy in POLICIES:
                case = (alg, policy, "cds" if cds else "full")
                state, metrics = run(bundle.nets, inst, alg, policy, scenario.seed)
                assert state.queued_messages() == 0, case
                assert metrics.delivery_rate in (None, 1.0), case
                # every enqueued message was sent or annihilated; the backbone's
                # one-hop delivery to dominated devices comes on top
                routed = state.enqueued - state.annihilated
                if alg == "sf":
                    assert routed == flood_edges, case
                if alg == "spg":
                    assert routed <= 2 * planar_edges, case
