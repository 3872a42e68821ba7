import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    P,
    from_edges,
    gabriel_oracle_keeps,
    is_juncture,
    minimum_cds_oracle,
    near_tie_points,
    next_hop_oracle,
    reference_cds_backbone,
    reference_ccw_sorted,
    reference_edge_qualifies,
    reference_unit_disk,
)
from geocastsim import netgraph
from geocastsim.experiments import ExperimentConfig, build_nets, gen_scenario
from geocastsim.geometry import LEFT, RIGHT, Rect, dot_sign, orientation
from geocastsim.netgraph import (
    DuplicatePointsError,
    GeocastInstance,
    Network,
    Scenario,
    ScenarioFormatError,
    World,
    bfs_hops,
    build_unit_disk,
    cds_backbone,
    connected_components,
    edge_qualifies,
    gabriel_subgraph,
    load_scenario,
    local_faces,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    wedge_qualifies,
)
from geocastsim.protocol import continuation


def random_points(rng, n, side):
    return [P(x, y) for x, y in rng.uniform(0, side, size=(n, 2))]


class TestBuildUnitDisk:
    def test_edge_below_radius(self):
        net = build_unit_disk([P(0, 0), P(0.9, 0)], 1.0)
        assert list(net.edges()) == [(0, 1)]

    def test_threshold_is_closed(self):
        net = build_unit_disk([P(0, 0), P(1.0, 0)], 1.0)
        assert list(net.edges()) == [(0, 1)]

    def test_beyond_radius(self):
        net = build_unit_disk([P(0, 0), P(1.1, 0)], 1.0)
        assert list(net.edges()) == []

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePointsError):
            build_unit_disk([P(0, 0), P(0, 0)], 1.0)

    def test_adjacency_sorted_ccw(self):
        import math
        rng = np.random.default_rng(7)
        net = build_unit_disk(random_points(rng, 60, 4.0), 1.0)
        for d in range(net.n):
            at = net.positions[d]
            angles = [math.atan2(p.y - at.y, p.x - at.x) % (2 * math.pi)
                      for p in [net.positions[u] for u in net.adjacency[d]]]
            assert angles == sorted(angles)

    def test_adjacency_symmetric(self):
        rng = np.random.default_rng(8)
        net = build_unit_disk(random_points(rng, 80, 5.0), 1.0)
        for u in range(net.n):
            for v in net.adjacency[u]:
                assert u in net.adjacency[v]

    @pytest.mark.parametrize("pts, radius, what", [
        # r*r and dx*dx + dy*dy both overflowed to inf, which linked this pair
        # with an overflow warning
        ([P(0, 0), P(1e308, 1e308)], 1e308, "radius"),
        ([P(0, 0), P(1, 0)], 2.0 ** 512, "radius"),
        ([P(0, 0), P(1e-160, 0)], 2.0 ** -512, "radius"),
        ([P(0, 0), P(1, 0)], 0.0, "radius"),
        ([P(0, 0), P(1, 0)], -1.0, "radius"),
        ([P(0, 0), P(2.0 ** 512, 0)], 1.0, "span"),
        ([P(0, -1e308), P(1, 1e308)], 1.0, "span"),
    ])
    def test_outside_the_numeric_domain_rejected(self, pts, radius, what):
        with pytest.raises(ValueError, match=what):
            build_unit_disk(pts, radius)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            build_unit_disk([P(0, 0), P(bad, 1)], 1.0)
        with pytest.raises(ValueError, match="finite"):
            build_unit_disk([P(0, 0), P(0.5, 0)], bad)


def assert_matches_reference(pts, radius):
    """Cell-grid adjacency (and `from_edges` on the same edges) and the
    incremental-hub CDS equal the all-pairs builder with the comparator sort
    and the re-partitioning CDS kept in conftest."""
    net = build_unit_disk(pts, radius)
    ref = reference_unit_disk(pts, radius)
    assert net.adjacency == ref.adjacency
    assert from_edges(pts, ref.edges(), radius).adjacency == ref.adjacency
    assert cds_backbone(net) == reference_cds_backbone(ref)


@pytest.mark.parametrize("edge, why", [((1, 1), "self-loop"), ((0, 3), "outside"),
                                       ((-1, 0), "outside"), ((0, 2), "longer than radius")])
def test_crafted_network_rejects_bad_edge(edge, why):
    with pytest.raises(ValueError, match=why):
        from_edges([P(0, 0), P(1, 0), P(2, 0)], [edge], radius=1.0)


def lattice(cols, rows, step=1.0, x0=0.0, y0=0.0):
    return [P(x0 + i * step, y0 + j * step) for j in range(rows) for i in range(cols)]


class TestReferenceEquivalence:
    @pytest.mark.parametrize("field, density, trials", [
        (10.0, 3.0, 3), (10.0, 7.0, 3), (10.0, 16.0, 3),
        (20.0, 3.0, 2), (20.0, 7.0, 2), (20.0, 16.0, 1),
        (40.0, 3.0, 1),  # the all-pairs reference holds n^2 doubles; keep n near 1.5k
    ])
    def test_generated_corpus(self, field, density, trials):
        cfg = ExperimentConfig(field_side=field, density=density, seed=17)
        for t in range(trials):
            sc = gen_scenario(cfg, t)
            assert_matches_reference(sc.devices, sc.radius)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_drawn_points(self, data):
        # a coarse grid puts pairs at exactly the radius and on cell boundaries
        coarse = st.integers(-12, 12).map(lambda k: k * 0.25)
        fine = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
        coord = st.one_of(coarse, fine)
        raw = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40, unique=True))
        radius = data.draw(st.sampled_from([0.25, 0.3, 0.5, 1.0, 2.5]))
        assert_matches_reference([P(x, y) for x, y in raw], radius)

    @pytest.mark.parametrize("pts, radius", [
        (lattice(9, 9), 1.0),                          # pairs at exactly r, on cell edges
        (lattice(9, 9, x0=-4.0, y0=-4.0), 1.0),        # negative coordinates
        (lattice(12, 12, step=0.3), 0.3),              # rounded steps either side of r
        (lattice(7, 7, step=0.5, x0=-1.75, y0=-1.75), 2.5),
        (lattice(30, 1, step=0.5), 1.0),               # one collinear row
        (lattice(20, 3, step=0.3, y0=-0.3), 0.3),      # collinear rows, exactly r apart
        (lattice(25, 2, step=1.0, x0=-12.0), 1.0),     # two rows r apart, negative x
        # dx rounds to exactly r although the rounded quotients x/r lie two cells apart
        ([P(-1e-16, 0.0), P(1.0, 0.0)], 1.0),
    ], ids=["unit-lattice", "negative-lattice", "lattice-0.3", "lattice-2.5",
            "row", "rows-0.3", "rows-negative", "rounding-across-two-cells"])
    def test_degenerate_inputs(self, pts, radius):
        assert_matches_reference(pts, radius)

    @pytest.mark.parametrize("radius", [0.3, 2.5])
    def test_negative_random_points(self, radius):
        rng = np.random.default_rng(41)
        for _ in range(5):
            pts = [P(x, y) for x, y in rng.uniform(-6.0, 2.0, size=(120, 2))]
            assert_matches_reference(pts, radius)

    def test_cds_at_benchmark_scale(self):
        # field 40, density 7 (n = 3,565): both connector branches fire many
        # times here, and the re-partitioning oracle needs no n^2 memory
        cfg = ExperimentConfig(field_side=40.0, density=7.0, seed=17)
        for t in range(2):
            sc = gen_scenario(cfg, t)
            net = build_unit_disk(sc.devices, sc.radius)
            assert net.n == 3565
            assert cds_backbone(net) == reference_cds_backbone(net)


def key_order(pts, d, nbrs):
    """The ccw order by the (half, -vx/vy, dist2, id) key alone, before the
    cross-product pass repairs it."""
    at = pts[d]

    def key(u):
        vx, vy = pts[u].x - at.x, pts[u].y - at.y
        half = 0 if (vy > 0.0 or (vy == 0.0 and vx > 0.0)) else 1
        return (half, -vx / vy if vy != 0.0 else -math.inf, vx * vx + vy * vy, u)

    return tuple(sorted(nbrs, key=key))


def scaled(x, y, scales):
    return [P(x * s, y * s) for s in scales]


ULP_HALF = math.nextafter(0.5, 1.0)
UNDER_HALF = math.nextafter(0.5, 0.0)
OVER_QUARTER = math.nextafter(0.25, 1.0)
UNDER_QUARTER = math.nextafter(0.25, 0.0)


class TestCcwNearTies:
    """Adjacency order against the comparator sort kept in conftest, on
    neighbours whose order the key alone can get wrong."""

    CASES = {
        # directions one ulp apart, at several distances
        "one-ulp": ([P(0.0, 0.0), P(0.5, 0.5), P(0.5, ULP_HALF), P(0.5, UNDER_HALF),
                     P(ULP_HALF, 0.5), P(0.25, 0.25), P(-0.5, -0.5), P(-0.5, -ULP_HALF),
                     P(-ULP_HALF, -0.5)], 1.0),
        # collinear through the origin up to rounding: the quotients -vx/vy
        # tie, the rounded cross products do not, so the key puts the third
        # device first-but-two places too late
        "collinear-distances": ([P(0.0, 0.0)] + scaled(0.05, 0.225, (1, 2, 3, 4))
                                + scaled(-0.05, -0.225, (1, 2, 3, 4))
                                + scaled(0.1, 0.3, (1, 2, 3))
                                + scaled(0.05, -0.225, (1, 2, 3, 4)), 1.0),
        # on the x axis with vy == 0.0 and vy == -0.0, and a subnormal vy
        # whose quotient overflows to the axis key -inf
        "x-axis-signed-zero": ([P(0.0, 0.0), P(0.5, 0.0), P(0.25, -0.0), P(-0.5, -0.0),
                                P(-0.25, 0.0), P(0.5, 1e-309), P(0.5, -1e-309),
                                P(-0.5, 1e-309), P(-0.5, -1e-309), P(0.0, 0.5),
                                P(0.0, -0.5), P(0.75, -0.0)], 1.0),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_comparator(self, name):
        pts, radius = self.CASES[name]
        assert_matches_reference(pts, radius)
        net = from_edges(pts, build_unit_disk(pts, radius).edges(), radius)
        for d in range(net.n):
            assert net.adjacency[d] == reference_ccw_sorted(pts, d, set(net.adjacency[d]))

    @pytest.mark.parametrize("name", ["collinear-distances", "x-axis-signed-zero"])
    def test_repair_pass_is_needed(self, name):
        pts, radius = self.CASES[name]
        net = build_unit_disk(pts, radius)
        assert any(key_order(pts, d, net.adjacency[d]) != net.adjacency[d] for d in range(net.n))

    def test_signed_zero_axis_order(self):
        pts, radius = self.CASES["x-axis-signed-zero"]
        # the +x axis first, nearer first whatever the sign of the zero; the
        # -x axis opens the lower half
        assert build_unit_disk(pts, radius).adjacency[0] == (2, 1, 11, 5, 9, 7, 4, 3, 8, 10, 6)


class TestGabriel:
    def test_witness_inside_removes_edge(self):
        pts = [P(0, 0), P(0.8, 0), P(0.4, 0.2)]
        assert not gabriel_oracle_keeps(pts, 0, 1)
        net = gabriel_subgraph(build_unit_disk(pts, 1.0))
        assert 1 not in net.adjacency[0]

    def test_witness_outside_keeps_edge(self):
        pts = [P(0, 0), P(0.8, 0), P(0.4, 0.6)]
        assert gabriel_oracle_keeps(pts, 0, 1)
        net = gabriel_subgraph(build_unit_disk(pts, 1.0))
        assert 1 in net.adjacency[0]

    def test_two_devices_keep_edge(self):
        net = gabriel_subgraph(build_unit_disk([P(0, 0), P(0.5, 0.5)], 1.0))
        assert list(net.edges()) == [(0, 1)]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            pts = random_points(rng, 50, 3.0)
            full = build_unit_disk(pts, 1.0)
            gab = gabriel_subgraph(full)
            for u, v in full.edges():
                assert ((u, v) in gab.edges() or v in gab.adjacency[u]) == \
                    gabriel_oracle_keeps(pts, u, v)

    def test_planar_no_proper_crossings(self):
        from geocastsim.geometry import orientation
        rng = np.random.default_rng(22)
        for _ in range(10):
            pts = random_points(rng, 60, 3.5)
            gab = gabriel_subgraph(build_unit_disk(pts, 1.0))
            edges = list(gab.edges())
            for i in range(len(edges)):
                for j in range(i + 1, len(edges)):
                    a, b = edges[i]
                    c, d = edges[j]
                    if {a, b} & {c, d}:
                        continue
                    o1 = orientation(pts[a], pts[b], pts[c])
                    o2 = orientation(pts[a], pts[b], pts[d])
                    o3 = orientation(pts[c], pts[d], pts[a])
                    o4 = orientation(pts[c], pts[d], pts[b])
                    assert not (o1 * o2 < 0 and o3 * o4 < 0), (edges[i], edges[j])

    def test_preserves_components(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pts = random_points(rng, 70, float(rng.uniform(2.5, 6.0)))
            full = build_unit_disk(pts, 1.0)
            gab = gabriel_subgraph(full)
            assert connected_components(gab) == connected_components(full)


def proper_crossings(pts, edges):
    """Pairs of edges that cross at a point interior to both, by exact
    orientation, with a bounding-box reject first."""
    found = []
    for i, (a, b) in enumerate(edges):
        ax0, ax1 = sorted((pts[a].x, pts[b].x))
        ay0, ay1 = sorted((pts[a].y, pts[b].y))
        for c, d in edges[i + 1:]:
            if {a, b} & {c, d} or max(pts[c].x, pts[d].x) < ax0 or min(pts[c].x, pts[d].x) > ax1 \
                    or max(pts[c].y, pts[d].y) < ay0 or min(pts[c].y, pts[d].y) > ay1:
                continue
            if (orientation(pts[a], pts[b], pts[c]) * orientation(pts[a], pts[b], pts[d]) < 0
                    and orientation(pts[c], pts[d], pts[a]) * orientation(pts[c], pts[d], pts[b]) < 0):
                found.append(((a, b), (c, d)))
    return found


def assert_overlay_sound(pts, radius):
    """Criterion 9 on one point set: the overlay is the exact closed-disk
    Gabriel graph, has no proper crossings and keeps the unit-disk graph's
    components."""
    full = build_unit_disk(pts, radius)
    gab = gabriel_subgraph(full)
    assert set(gab.edges()) == {(u, v) for u, v in full.edges() if gabriel_oracle_keeps(pts, u, v)}
    assert proper_crossings(pts, list(gab.edges())) == []
    assert connected_components(gab) == connected_components(full)


class TestGabrielDegenerate:
    """Cocircular and collinear devices, where the closed disk matters."""

    def test_cocircular_square_drops_both_diagonals(self):
        pts = [P(0.0, 0.0), P(0.5, 0.0), P(0.5, 0.5), P(0.0, 0.5)]
        full = build_unit_disk(pts, 1.0)
        assert full.edge_count() == 6
        assert set(gabriel_subgraph(full).edges()) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    @pytest.mark.parametrize("pts, radius", [
        (lattice(9, 9), 1.0),
        (lattice(9, 9), 1.5),                          # diagonals: cocircular unit squares
        (lattice(12, 12, step=0.3), 1.0),
        (lattice(7, 7, step=0.5, x0=-1.75, y0=-1.75), 2.5),
        (lattice(30, 1, step=0.5), 1.0),               # one collinear row
        (lattice(20, 3, step=0.3, y0=-0.3), 1.0),      # collinear rows
    ], ids=["unit-lattice", "unit-lattice-diagonals", "lattice-0.3", "lattice-0.5",
            "row", "rows-0.3"])
    def test_lattices(self, pts, radius):
        assert_overlay_sound(pts, radius)

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=30, unique=True),
           st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=60, deadline=None)
    def test_drawn_grid_points(self, raw, step):
        # grid points make many right angles at witnesses
        assert_overlay_sound([P(x * step, y * step) for x, y in raw], 1.0)

    @pytest.mark.parametrize("w, kept", [
        ((0.25, UNDER_QUARTER), False),
        ((0.25, 0.25), False),
        ((0.25, OVER_QUARTER), True),
    ], ids=["one-ulp-inside", "on-the-circle", "one-ulp-outside"])
    def test_witness_within_float_error(self, monkeypatch, w, kept):
        # (0.25, y) lies within rounding error of the circle with diameter
        # (0, 0)-(0.5, 0), so the float filter defers to the exact sign
        self.assert_decided_exactly(monkeypatch, [P(0.0, 0.0), P(0.5, 0.0), P(*w)], kept)

    @pytest.mark.parametrize("pts, kept", [
        # the float dot product rounds to 0.0, the exact one is 2.4e-18
        ([P(0.2448319779690169, 0.2104789386956465), P(0.8805817593662799, 0.42291764838969603),
          P(0.49363140019732393, -0.01125837605926)], True),
        # the float dot product is 2.8e-17, the exact one is -2.1e-18
        ([P(0.003037288082221923, 0.4854231292990312), P(0.8371914973042014, 0.6584020634401193),
          P(0.43260993808009207, 0.14614552337036174)], False),
    ], ids=["float-says-on-the-circle", "float-says-outside"])
    def test_float_sign_is_wrong(self, monkeypatch, pts, kept):
        self.assert_decided_exactly(monkeypatch, pts, kept)

    @staticmethod
    def assert_decided_exactly(monkeypatch, pts, kept):
        """Edge (0, 1) with witness 2 is decided by `dot_sign`, from both ends."""
        calls = []

        def spy(p, q, w):
            calls.append((p, q, w))
            return dot_sign(p, q, w)

        monkeypatch.setattr(netgraph, "dot_sign", spy)
        gab = gabriel_subgraph(build_unit_disk(pts, 1.0))
        assert (1 in gab.adjacency[0], 0 in gab.adjacency[1]) == (kept, kept)
        assert gabriel_oracle_keeps(pts, 0, 1) == kept
        assert (pts[0], pts[1], pts[2]) in calls and (pts[1], pts[0], pts[2]) in calls


def traced_peak(fn, *args) -> int:
    """Bytes allocated at the peak of one call, above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestConstructionMemory:
    """At benchmark scale (field 40, density 7, n = 3,565) one build and one
    overlay each hold at most 3 MB at their traced peak: the array code keeps
    its temporaries O(edges), not O(sum of squared degrees)."""

    LIMIT = 3_000_000

    def test_peaks(self):
        sc = gen_scenario(ExperimentConfig(field_side=40.0, density=7.0, seed=17), 0)
        net = build_unit_disk(sc.devices, sc.radius)
        assert net.n == 3565
        assert traced_peak(build_unit_disk, sc.devices, sc.radius) <= self.LIMIT
        assert traced_peak(gabriel_subgraph, net) <= self.LIMIT

    def test_entries_share_the_device_ints(self):
        # one int object per device in the full graph, and the overlay
        # reuses them rather than holding copies
        sc = gen_scenario(ExperimentConfig(field_side=40.0, density=7.0, seed=3), 0)
        full = build_unit_disk(sc.devices, sc.radius)
        planar = gabriel_subgraph(full)
        held = {id(u) for nbrs in full.adjacency for u in nbrs}
        assert len(held) <= full.n
        assert all(id(u) in held for nbrs in planar.adjacency for u in nbrs)


class TestCds:
    def test_star_collapses_to_hub(self):
        # hub is id 3 to make sure degree, not id order, drives the choice
        pts = [P(1, 0), P(0, 1), P(-1, 0), P(0, 0), P(0, -1), P(0.7, 0.7)]
        edges = [(3, u) for u in (0, 1, 2, 4, 5)]
        net = from_edges(pts, edges, radius=1.5)
        assert minimum_cds_oracle(net) == {3}
        assert cds_backbone(net) == {3}

    def test_path_picks_middle(self):
        net = from_edges([P(0, 0), P(1, 0), P(2, 0)], [(0, 1), (1, 2)], radius=1.0)
        assert minimum_cds_oracle(net) == {1}
        assert cds_backbone(net) == {1}

    def test_single_device(self):
        net = build_unit_disk([P(0, 0)], 1.0)
        assert cds_backbone(net) == {0}

    def test_three_hop_connector(self):
        # stars around 0 and 7 joined by the arm 1-5-6: greedy picks 0, 7 and
        # 1 (for 5), so the hub {0, 1} is three hops from 7 and the connector
        # has two interior devices, 5 and 6
        pts = [P(0, 0), P(1, 0), P(0, 1), P(-1, 0), P(0, -1), P(2, 0), P(3, 0),
               P(4, 0), P(4, 1), P(5, 0), P(4, -1)]
        net = build_unit_disk(pts, 1.0)
        assert bfs_hops(net, 1)[7] == 3
        assert cds_backbone(net) == {0, 1, 5, 6, 7} == reference_cds_backbone(net)

    def test_components_and_isolated_devices(self):
        pts = (lattice(4, 4, step=0.9) + lattice(6, 1, y0=10.0)
               + [P(20.0, 20.0), P(25.0, 0.0)] + lattice(3, 3, step=0.7, x0=30.0, y0=30.0))
        net = build_unit_disk(pts, 1.0)
        assert len(connected_components(net)) == 5
        backbone = cds_backbone(net)
        assert backbone == reference_cds_backbone(net)
        assert {22, 23} <= backbone  # isolated devices dominate themselves

    @given(st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
                    min_size=1, max_size=60, unique=True),
           st.sampled_from([0.3, 0.45, 0.6]))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_on_many_components(self, raw, radius):
        net = build_unit_disk([P(x, y) for x, y in raw], radius)
        assert cds_backbone(net) == reference_cds_backbone(net)

    def test_contract_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            pts = random_points(rng, int(rng.integers(5, 60)), float(rng.uniform(2, 5)))
            net = build_unit_disk(pts, 1.0)
            backbone = cds_backbone(net)
            for comp in connected_components(net):
                comp_set = set(comp)
                chosen = backbone & comp_set
                assert chosen, "every component gets a dominator"
                for d in comp:
                    assert d in chosen or any(u in chosen for u in net.adjacency[d])
                # induced subgraph on the chosen set is connected
                seen = set()
                stack = [min(chosen)]
                seen.add(min(chosen))
                while stack:
                    d = stack.pop()
                    for u in net.adjacency[d]:
                        if u in chosen and u not in seen:
                            seen.add(u)
                            stack.append(u)
                assert seen == chosen


class TestBfs:
    def test_path_distances(self):
        net = from_edges([P(0, 0), P(1, 0), P(2, 0)], [(0, 1), (1, 2)], radius=1.0)
        assert bfs_hops(net, 0) == [0, 1, 2]

    def test_disconnected_pair(self):
        net = build_unit_disk([P(0, 0), P(5, 5)], 1.0)
        assert bfs_hops(net, 0) == [0, None]

    def test_triangle(self):
        net = from_edges([P(0, 0), P(1, 0), P(0.5, 0.8)],
                         [(0, 1), (1, 2), (0, 2)], radius=1.1)
        assert bfs_hops(net, 2) == [1, 1, 0]


class TestLocalFaces:
    def test_wedge_count_equals_degree(self):
        pts = [P(0, 0), P(1, 0), P(0, 1), P(-1, 0), P(0, -1)]
        net = from_edges(pts, [(0, u) for u in (1, 2, 3, 4)], radius=1.0)
        assert len(local_faces(net, 0)) == 4

    def test_degree_one_self_wedge(self):
        net = from_edges([P(0, 0), P(1, 0)], [(0, 1)], radius=1.0)
        assert local_faces(net, 0) == [(1, 1)]

    def test_degree_two(self):
        net = from_edges([P(0, 0), P(1, 0), P(0, 1)], [(0, 1), (0, 2)], radius=1.0)
        assert len(local_faces(net, 0)) == 2

    def test_isolated_device_has_none(self):
        net = build_unit_disk([P(0, 0), P(5, 5)], 1.0)
        assert local_faces(net, 0) == []

    def test_each_neighbor_appears_twice(self):
        rng = np.random.default_rng(41)
        net = build_unit_disk(random_points(rng, 50, 3.0), 1.0)
        for d in range(net.n):
            if net.degree(d) < 2:
                continue
            wedges = local_faces(net, d)
            firsts = [u for u, _ in wedges]
            seconds = [w for _, w in wedges]
            assert sorted(firsts) == sorted(net.adjacency[d])
            assert sorted(seconds) == sorted(net.adjacency[d])

    def test_face_closure_under_fixed_rule(self):
        # walking any directed edge with one rule returns to the start and the
        # orbits partition the directed edge set; each rotation step is the
        # hop the atan2 sweep picks
        rng = np.random.default_rng(42)
        for _ in range(8):
            net = gabriel_subgraph(build_unit_disk(random_points(rng, 40, 3.0), 1.0))
            for rule in (LEFT, RIGHT):
                directed = {(u, v) for u, v in net.edges()} | {(v, u) for u, v in net.edges()}
                remaining = set(directed)
                while remaining:
                    start = min(remaining)
                    walk = start
                    for _ in range(2 * len(directed) + 1):
                        u, v = walk
                        nxt, _ = continuation(net, v, u, rule)
                        pos = net.positions
                        assert pos[nxt] == next_hop_oracle(pos[v], pos[u],
                                                           [pos[w] for w in net.adjacency[v]], rule)
                        walk = (v, nxt)
                        assert walk in remaining, "orbits must not overlap"
                        remaining.discard(walk)
                        if walk == start:
                            break
                    assert walk == start, "face walk must close"


class TestJunctures:
    region = Rect.from_bounds(2.0, -0.5, 3.0, 0.5)

    def make(self):
        pts = [P(0, 0), P(0.9, 0.4), P(0.9, -0.4), P(2.2, 0.0), P(-2.0, 3.0)]
        edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
        net = from_edges(pts, edges, radius=1.6)
        inst = GeocastInstance.create(0, pts[0], self.region)
        return net, inst

    def test_device_inside_region_is_juncture(self):
        net, inst = self.make()
        assert is_juncture(net, 3, inst)

    def test_edge_crossing_line_makes_juncture(self):
        net, inst = self.make()
        assert is_juncture(net, 1, inst)  # edge (1,2) crosses the line y=0

    def test_distant_isolated_device_is_not(self):
        net, inst = self.make()
        assert not is_juncture(net, 4, inst)

    def test_source_endpoint_contact_does_not_qualify(self):
        net, inst = self.make()
        # both of the source's edges touch the guide line only at the source
        assert not edge_qualifies(World(net, inst), 0, 1)
        assert not edge_qualifies(World(net, inst), 0, 2)
        assert not is_juncture(net, 0, inst)

    def test_collinear_edge_past_source_qualifies(self):
        pts = [P(0, 0), P(1.0, 0.0), P(4.2, 0.2)]
        net = from_edges(pts, [(0, 1)], radius=1.0)
        # region center (4.5, 0) sits on the ray the edge points along
        inst = GeocastInstance.create(0, pts[0], Rect.from_bounds(4.0, -0.5, 5.0, 0.5))
        assert edge_qualifies(World(net, inst), 0, 1)

    def test_juncture_iff_some_wedge_qualifies(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            pts = random_points(rng, 40, 3.0)
            net = gabriel_subgraph(build_unit_disk(pts, 1.0))
            src = int(rng.integers(40))
            region = Rect.from_bounds(1.0, 1.0, 2.0, 2.0)
            inst = GeocastInstance.create(src, pts[src], region)
            world = World(net, inst)
            for d in range(net.n):
                if net.degree(d) == 0:
                    continue
                wedge_any = any(wedge_qualifies(world, d, w) for w in local_faces(net, d))
                assert wedge_any == is_juncture(net, d, inst)

    def test_degenerate_line_uses_region_only(self):
        pts = [P(2.5, 0.0), P(2.0, 0.8), P(1.2, 0.9)]
        net = from_edges(pts, [(0, 1), (1, 2)], radius=1.1)
        inst = GeocastInstance.create(0, pts[0], self.region)  # source at center
        assert inst.center_line.degenerate
        assert edge_qualifies(World(net, inst), 0, 1)      # endpoint inside the region
        assert not edge_qualifies(World(net, inst), 1, 2)  # far from region, line inert


def edge_net(pu, pv) -> Network:
    """Two devices joined by one edge, with no radius check."""
    return Network((pu, pv), ((1,), (0,)))


class TestQualificationOracle:
    """The memoised `edge_qualifies` with box rejects answers as the frozen
    full-test version does."""

    # reference calls per overlay for the re-anchored instances; above it
    # the anchors are every k-th device (only density 16 without --cds)
    ANCHOR_BUDGET = 80_000
    region = Rect.from_bounds(4.0, -1.0, 6.0, 1.0)  # center (5, 0)

    @pytest.mark.parametrize("cds", [False, True])
    @pytest.mark.parametrize("density", [3.0, 7.0, 16.0])
    def test_generated_overlays(self, density, cds):
        for seed in range(2):
            cfg = ExperimentConfig(field_side=10.0, density=density, seed=seed)
            for trial in range(3):
                sc = gen_scenario(cfg, trial)
                net = build_nets(sc, cds=cds).nets.planar
                edges = list(net.edges())
                inst = sc.instance()
                world = World(net, inst)
                for u, v in edges:
                    want = reference_edge_qualifies(net, u, v, inst)
                    assert reference_edge_qualifies(net, v, u, inst) == want
                    assert edge_qualifies(world, u, v) == edge_qualifies(world, v, u) == want
                if seed or trial:
                    continue
                # sf-spg-g re-anchors the guide line at the device where
                # greedy forwarding stops
                anchors = [d for d in range(net.n) if net.degree(d)]
                stride = max(1, len(anchors) * len(edges) // self.ANCHOR_BUDGET)
                for d in anchors[::stride]:
                    anchored = GeocastInstance.create(d, net.positions[d], sc.region)
                    world = World(net, anchored)
                    for u, v in edges:
                        assert edge_qualifies(world, u, v) == reference_edge_qualifies(
                            net, u, v, anchored), (d, u, v)

    @pytest.mark.parametrize("pu, pv, expected", [
        (P(3, 2), P(4, 1), True),              # ends at a region corner
        (P(3, 0), P(4, 1), True),              # ends at a corner, crossing the guide line
        (P(3, 2), P(5, 0.5), True),            # ends inside the region
        (P(4.5, 1), P(5.5, 1), True),          # lies along the top side
        (P(6, 1.5), P(6, 2.5), False),         # along a side's line, past its end
        (P(6.5, 2), P(7, 1), False),           # boxes touch at x = 6 only
        (P(0, 0), P(1, 0), True),              # from the source along the line
        (P(0, 0), P(-1, 0), False),            # from the source away from the region
        (P(0, 0), P(1, 1), False),             # touches the line only at the source
        (P(1, 0), P(2, 0), True),              # collinear with the line, on it
        (P(-2, 0), P(-1, 0), False),           # collinear, short of the source
        (P(-1, 0), P(1, 0), True),             # collinear, across the source
        (P(6.5, 0), P(7, 0), False),           # collinear, past the region
        (P(2, -1), P(2, 1), True),             # crosses the line
        (P(2, 2 ** -52), P(3, 1), False),      # barely misses the line
    ])
    def test_degenerate_edges(self, pu, pv, expected):
        inst = GeocastInstance.create(0, P(0, 0), self.region)
        for a, b in ((pu, pv), (pv, pu)):
            net = edge_net(a, b)
            assert reference_edge_qualifies(net, 0, 1, inst) == expected
            assert edge_qualifies(World(net, inst), 0, 1) == expected

    @settings(max_examples=400)
    @given(near_tie_points, near_tie_points, near_tie_points, near_tie_points, near_tie_points)
    def test_near_ties(self, pu, pv, source, lo, hi):
        region = Rect.from_bounds(min(lo.x, hi.x), min(lo.y, hi.y), max(lo.x, hi.x), max(lo.y, hi.y))
        inst = GeocastInstance.create(0, source, region)
        net = edge_net(pu, pv)
        assert edge_qualifies(World(net, inst), 0, 1) == reference_edge_qualifies(net, 0, 1, inst)


class TestQualificationMemo:
    region = Rect.from_bounds(4.0, -1.0, 6.0, 1.0)

    def inst(self) -> GeocastInstance:
        return GeocastInstance.create(0, P(0, 0), self.region)

    def test_each_world_gets_its_own_answers(self):
        inst = self.inst()
        near = World(edge_net(P(3, 0.5), P(4.5, 0.5)), inst)
        far = World(edge_net(P(3, 2), P(4, 3)), inst)
        assert edge_qualifies(near, 0, 1)
        assert not edge_qualifies(far, 0, 1)
        assert edge_qualifies(near, 1, 0)
        assert (near.qualified, far.qualified) == ({(0, 1): True}, {(0, 1): False})

    def test_one_entry_per_undirected_edge(self):
        world = World(edge_net(P(3, 0.5), P(4.5, 0.5)), self.inst())
        edge_qualifies(world, 1, 0)
        edge_qualifies(world, 0, 1)
        assert world.qualified == {(0, 1): True}


class TestScenarioIO:
    def scenario(self):
        rng = np.random.default_rng(5)
        pts = tuple(P(x, y) for x, y in rng.uniform(0, 10, size=(30, 2)))
        return Scenario(1.0, (10.0, 10.0), pts, 4,
                        Rect.from_bounds(2.0, 3.0, 5.0, 6.0), 991)

    def test_round_trip_is_lossless(self, tmp_path):
        sc = self.scenario()
        path = tmp_path / "scenario.json"
        save_scenario(sc, str(path))
        assert load_scenario(str(path)) == sc

    def test_dict_round_trip(self):
        sc = self.scenario()
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_field_names_fixed(self, tmp_path):
        sc = self.scenario()
        path = tmp_path / "scenario.json"
        save_scenario(sc, str(path))
        data = json.loads(path.read_text())
        assert set(data) == {"radius", "field", "devices", "source", "region", "seed"}

    @pytest.mark.parametrize("mutation, field", [
        (lambda d: d.pop("radius"), "radius"),
        (lambda d: d.update(source=99), "source"),
        (lambda d: d.update(region=[5, 5, 2, 2]), "region"),
        (lambda d: d.update(region=[0, 0, 20, 20]), "region"),
        (lambda d: d.update(devices=[[0, 0], [0, 0]]), "devices"),
        (lambda d: d.update(field=[None, 10]), "field"),
        (lambda d: d["devices"].__setitem__(3, [float("nan"), 1.0]), "devices"),
        (lambda d: d["devices"].__setitem__(3, [55.0, 1.0]), "devices"),
        (lambda d: d.update(region=[2.0, float("nan"), 5.0, 6.0]), "region"),
        (lambda d: d.update(radius=float("inf")), "radius"),
        (lambda d: d.update(source=True), "source"),
        (lambda d: d.update(seed=False), "seed"),
        (lambda d: d.update(radius="1"), "radius"),
        (lambda d: d.update(field=[True, 10]), "field"),
        (lambda d: d["devices"].__setitem__(3, [0.5, "0.5"]), "devices"),
        (lambda d: d["devices"].__setitem__(3, [False, 1.0]), "devices"),
        (lambda d: d["region"].__setitem__(1, "1"), "region"),
        (lambda d: d.update(radius=10 ** 400), "radius"),
        (lambda d: d["devices"].__setitem__(3, [1.0, 10 ** 400]), "devices"),
        (lambda d: d["region"].__setitem__(2, 10 ** 400), "region"),
    ])
    def test_malformed_scenarios_name_the_field(self, mutation, field):
        data = scenario_to_dict(self.scenario())
        mutation(data)
        with pytest.raises(ScenarioFormatError, match=f"field '{field}"):  # not "within the field"
            scenario_from_dict(data)

    def test_integer_values_load_as_floats(self, tmp_path):
        data = scenario_to_dict(self.scenario())
        data.update(radius=1, field=[10, 10], region=[2, 3, 5, 6])
        data["devices"][0] = [1, 2]
        path = tmp_path / "scenario.json"
        save_scenario(scenario_from_dict(data), str(path))
        data.update(radius=1.0, field=[10.0, 10.0], region=[2.0, 3.0, 5.0, 6.0])
        data["devices"][0] = [1.0, 2.0]
        assert path.read_text() == json.dumps(data) + "\n"
