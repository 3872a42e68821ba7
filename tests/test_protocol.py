import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    P,
    WALK_A,
    WALK_A1,
    WALK_A3,
    WALK_B,
    WALK_C,
    WALK_S,
    exhaustive_sf_outcomes,
    from_edges,
    next_hop_oracle,
    nets_from_edges,
    reference_next_hop_index,
)
from geocastsim.engine import POLICIES, Simulation, SimulationFault
from geocastsim.experiments import ExperimentConfig, build_nets, gen_scenario
from geocastsim.geometry import LEFT, RIGHT, Rect
from geocastsim.netgraph import GeocastInstance
from geocastsim.protocol import (
    ALGORITHMS,
    FLOOD,
    GREEDY,
    PLANAR,
    Algorithm,
    Message,
    combined_handle,
    combined_initiate,
    continuation,
    greedy_handle,
    greedy_initiate,
    mate_matches,
    sf_handle,
    sf_initiate,
    spg_handle,
    spg_initiate,
)

FAR_REGION = Rect.from_bounds(50.0, 50.0, 51.0, 51.0)


def some_inst() -> GeocastInstance:
    return GeocastInstance.create(0, P(0, 0), Rect.from_bounds(1, 1, 2, 2))


def brief(m: Message):
    return (m.mode, m.dir, m.sender, m.receiver, m.depth)


def scripted(alg: str, *messages: Message):
    """`alg` behind an initiation that enqueues `messages` in order, with a
    handler that records each arrival it is called on."""
    calls: list = []
    handle = ALGORITHMS[alg].handle

    def recording(nets, d, m, **flags):
        calls.append(brief(m))
        return handle(nets, d, m, **flags)

    return Algorithm(alg, lambda nets, inst: list(messages), recording), calls


def assert_mate_annihilated(nets, inst, alg: str, arriving: Message, mate: Message):
    """Under fifo `arriving` is transmitted first and meets `mate` on the
    reverse edge: both are gone, nothing is sent and no handler runs."""
    algorithm, calls = scripted(alg, arriving, mate)
    sim = Simulation(nets, inst, algorithm)
    event = sim.step()
    assert (event.sender, event.receiver) == (arriving.sender, arriving.receiver)
    assert sim.state.annihilated == 1 and calls == []
    assert sim.state.queued == {} and sim.step() is None
    assert (sim.state.steps, sim.state.enqueued) == (1, 2)


def fan(center, others, radius: float = 2.0):
    """A star: device 0 at `center`, joined to devices 1..k at `others`."""
    pts = [center, *others]
    return from_edges(pts, [(0, i) for i in range(1, len(pts))], radius)


class TestNextHop:
    def test_right_rule_picks_clockwise(self):
        net = fan(P(0, 0), [P(1, 0), P(0, 1), P(0, -1)])
        nxt, wedge = continuation(net, 0, 1, RIGHT)
        assert net.positions[nxt] == P(0, -1)
        assert net.positions[nxt] == next_hop_oracle(P(0, 0), P(1, 0), net.positions[1:], RIGHT)
        assert wedge == (nxt, 1)

    def test_left_rule_mirrors(self):
        net = fan(P(0, 0), [P(1, 0), P(0, 1), P(0, -1)])
        nxt, wedge = continuation(net, 0, 1, LEFT)
        assert net.positions[nxt] == P(0, 1)
        assert net.positions[nxt] == next_hop_oracle(P(0, 0), P(1, 0), net.positions[1:], LEFT)
        assert wedge == (1, nxt)

    def test_dead_end_bounce_back(self):
        net = fan(P(0, 0), [P(1, 0)])
        assert continuation(net, 0, 1, RIGHT) == (1, (1, 1))
        assert continuation(net, 0, 1, LEFT) == (1, (1, 1))

    def test_matches_angle_sweep_oracle_on_random_fans(self):
        rng = random.Random(1234)
        for _ in range(300):
            at = P(rng.uniform(-5, 5), rng.uniform(-5, 5))
            k = rng.randint(1, 8)
            nbrs = [P(at.x + rng.uniform(-1, 1), at.y + rng.uniform(-1, 1)) for _ in range(k)]
            nbrs = [p for p in nbrs if p != at] or [P(at.x + 1, at.y)]
            net = fan(at, nbrs)
            prev = rng.randint(1, len(nbrs))
            for rule in (LEFT, RIGHT):
                nxt, _ = continuation(net, 0, prev, rule)
                assert net.positions[nxt] == next_hop_oracle(at, net.positions[prev], nbrs, rule)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_right_and_left_are_inverse(self, data):
        grid = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
        raw = data.draw(st.lists(grid, min_size=2, max_size=7, unique=True))
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
        net = fan(P(0, 0), nbrs, radius=9.0)
        w, _ = continuation(net, 0, 1, RIGHT)
        assert continuation(net, 0, w, LEFT)[0] == 1


class TestRotationEquivalence:
    """The rotation on the ccw adjacency picks the hop and wedge of the
    angular sweep it replaced, on every (device, sender, rule) triple of
    generated overlays."""

    @pytest.mark.parametrize("cds", [False, True])
    def test_rotation_matches_sweep_on_generated_overlays(self, cds):
        for seed in range(5):
            for density in (3.0, 7.0, 16.0):
                cfg = ExperimentConfig(field_side=10.0, density=density, seed=seed)
                for trial in range(3):
                    net = build_nets(gen_scenario(cfg, trial), cds=cds).nets.planar
                    pos = net.positions
                    for d, nbrs in enumerate(net.adjacency):
                        pts = [pos[u] for u in nbrs]
                        for sender in nbrs:
                            for rule in (LEFT, RIGHT):
                                nxt = nbrs[reference_next_hop_index(pos[d], pos[sender], pts, rule)]
                                wedge = (nxt, sender) if rule == RIGHT else (sender, nxt)
                                assert continuation(net, d, sender, rule) == (nxt, wedge)


class TestMates:
    inst = some_inst()

    def test_flood_pair(self):
        m1 = Message(FLOOD, None, 1, 2, self.inst, 3)
        m2 = Message(FLOOD, None, 2, 1, self.inst, 5)
        assert mate_matches(m1, m2) and mate_matches(m2, m1)

    def test_planar_opposite_directions(self):
        m1 = Message(PLANAR, LEFT, 1, 2, self.inst, 3)
        m2 = Message(PLANAR, RIGHT, 2, 1, self.inst, 3)
        assert mate_matches(m1, m2)

    def test_planar_same_direction_rejected(self):
        m1 = Message(PLANAR, LEFT, 1, 2, self.inst, 3)
        m2 = Message(PLANAR, LEFT, 2, 1, self.inst, 3)
        assert not mate_matches(m1, m2)

    def test_different_instances_rejected(self):
        other = GeocastInstance.create(1, P(0.5, 0), Rect.from_bounds(1, 1, 2, 2))
        m1 = Message(FLOOD, None, 1, 2, self.inst, 1)
        m2 = Message(FLOOD, None, 2, 1, other, 1)
        assert not mate_matches(m1, m2)

    def test_greedy_never_mates(self):
        m1 = Message(GREEDY, None, 1, 2, self.inst, 1)
        m2 = Message(GREEDY, None, 2, 1, self.inst, 1)
        assert not mate_matches(m1, m2)


class TestStatelessFlood:
    def star(self):
        pts = [P(0, 0), P(1, 0), P(0, 1), P(-1, 0)]
        return nets_from_edges(pts, [(0, 1), (0, 2), (0, 3)])

    def test_initiate_one_message_per_neighbor(self):
        nets = self.star()
        inst = GeocastInstance.create(0, P(0, 0), FAR_REGION)
        msgs = sf_initiate(nets, inst)
        assert sorted(m.receiver for m in msgs) == [1, 2, 3]
        assert all(m.mode == FLOOD and m.depth == 1 and m.sender == 0 for m in msgs)

    def test_isolated_source_initiates_nothing(self):
        nets = nets_from_edges([P(0, 0), P(5, 5)], [])
        inst = GeocastInstance.create(0, P(0, 0), FAR_REGION)
        assert sf_initiate(nets, inst) == []

    def test_mate_annihilates_without_sends(self):
        nets = self.star()
        inst = GeocastInstance.create(0, P(0, 0), FAR_REGION)
        assert_mate_annihilated(nets, inst, "sf", Message(FLOOD, None, 1, 0, inst, 2),
                                Message(FLOOD, None, 0, 1, inst, 1))

    def test_older_of_two_mates_is_annihilated(self):
        nets = self.star()
        inst = GeocastInstance.create(0, P(0, 0), FAR_REGION)
        older = Message(FLOOD, None, 0, 1, inst, 1)
        newer = Message(FLOOD, None, 0, 1, inst, 3)
        algorithm, calls = scripted("sf", Message(FLOOD, None, 1, 0, inst, 2), older, newer)
        sim = Simulation(nets, inst, algorithm)
        sim.step()
        assert sim.state.annihilated == 1 and calls == []
        assert sim.state.queued == {(0, 1): [newer]}

    def test_leaf_receiving_sends_nothing(self):
        nets = self.star()
        inst = GeocastInstance.create(0, P(0, 0), FAR_REGION)
        arriving = Message(FLOOD, None, 0, 1, inst, 1)
        out = sf_handle(nets, 1, arriving)
        assert out.sends == []

    def test_relay_floods_all_but_sender_with_incremented_depth(self):
        pts = [P(0, 0), P(1, 0), P(1, 1), P(2, 0)]
        nets = nets_from_edges(pts, [(0, 1), (1, 2), (1, 3)])
        inst = GeocastInstance.create(0, P(0, 0), FAR_REGION)
        out = sf_handle(nets, 1, Message(FLOOD, None, 0, 1, inst, 4))
        assert sorted(m.receiver for m in out.sends) == [2, 3]
        assert all(m.depth == 5 for m in out.sends)

    def test_triangle_costs_three_under_every_schedule(self):
        adjacency = ((1, 2), (0, 2), (0, 1))
        outcomes = exhaustive_sf_outcomes(adjacency, 0)
        assert outcomes == {(3, frozenset({0, 1, 2}))}


class TestPlanarInitiate:
    def test_walkthrough_left_to_a_right_to_b(self, walkthrough):
        nets, inst = walkthrough
        msgs = spg_initiate(nets, inst)
        assert [brief(m) for m in msgs] == [
            (PLANAR, LEFT, WALK_S, WALK_A, 1),
            (PLANAR, RIGHT, WALK_S, WALK_B, 1),
        ]

    def test_degree_one_source_sends_both_to_single_neighbor(self):
        nets = nets_from_edges([P(0, 0), P(1, 0)], [(0, 1)])
        inst = GeocastInstance.create(0, P(0, 0), Rect.from_bounds(4, -1, 6, 1))
        msgs = spg_initiate(nets, inst)
        assert [brief(m) for m in msgs] == [
            (PLANAR, LEFT, 0, 1, 1), (PLANAR, RIGHT, 0, 1, 1)]

    def test_center_along_edge_breaks_tie_by_angular_order(self):
        pts = [P(0, 0), P(1, 0), P(0, 1)]
        nets = nets_from_edges(pts, [(0, 1), (0, 2)])
        inst = GeocastInstance.create(0, P(0, 0), Rect.from_bounds(1.5, -0.5, 2.5, 0.5))
        msgs = spg_initiate(nets, inst)  # center (2, 0) lies along edge 0-1
        assert [brief(m) for m in msgs] == [
            (PLANAR, LEFT, 0, 2, 1), (PLANAR, RIGHT, 0, 1, 1)]

    def test_source_at_region_center_uses_first_qualifying_wedge(self):
        pts = [P(0, 0), P(1, 0), P(-0.5, 0.8)]
        nets = nets_from_edges(pts, [(0, 1), (0, 2)])
        inst = GeocastInstance.create(0, P(0, 0), Rect.from_bounds(-1, -1, 1, 1))
        assert inst.center_line.degenerate
        msgs = spg_initiate(nets, inst)
        assert len(msgs) == 2 and {m.dir for m in msgs} == {LEFT, RIGHT}

    def test_isolated_source_initiates_nothing(self):
        nets = nets_from_edges([P(0, 0), P(5, 5)], [])
        inst = GeocastInstance.create(0, P(0, 0), FAR_REGION)
        assert spg_initiate(nets, inst) == []


class TestPlanarHandle:
    def test_walkthrough_b_forwards_and_splits_into_one_face(self, walkthrough):
        nets, inst = walkthrough
        arriving = Message(PLANAR, RIGHT, WALK_S, WALK_B, inst, 1)
        out = spg_handle(nets, WALK_B, arriving, split_done=False)
        assert [brief(m) for m in out.sends] == [
            (PLANAR, LEFT, WALK_B, WALK_A, 2),   # pair into the qualifying face
            (PLANAR, RIGHT, WALK_B, WALK_C, 2),
            (PLANAR, RIGHT, WALK_B, WALK_A, 2),  # continuation of the traversal
        ]
        # nothing was sent into the face spanned by s and c

    def test_walkthrough_a_splits_twice(self, walkthrough):
        nets, inst = walkthrough
        arriving = Message(PLANAR, LEFT, WALK_S, WALK_A, inst, 1)
        out = spg_handle(nets, WALK_A, arriving, split_done=False)
        assert [brief(m) for m in out.sends] == [
            (PLANAR, LEFT, WALK_A, WALK_A3, 2),
            (PLANAR, RIGHT, WALK_A, WALK_B, 2),
            (PLANAR, LEFT, WALK_A, WALK_A1, 2),
            (PLANAR, RIGHT, WALK_A, WALK_A3, 2),
            (PLANAR, LEFT, WALK_A, WALK_B, 2),   # continuation toward b
        ]

    def test_walkthrough_returning_message_meets_mate(self, walkthrough):
        nets, inst = walkthrough
        assert_mate_annihilated(nets, inst, "spg", Message(PLANAR, RIGHT, WALK_B, WALK_A, inst, 2),
                                Message(PLANAR, LEFT, WALK_A, WALK_B, inst, 2))

    def test_walkthrough_full_run_terminates_with_full_coverage(self, walkthrough):
        nets, inst = walkthrough
        sim = Simulation(nets, inst, "spg")
        state = sim.run_to_quiescence()
        assert set(state.arrival) == set(range(6))
        assert state.queued_messages() == 0
        assert state.steps <= 2 * nets.planar.edge_count()

    def test_non_juncture_forwards_exactly_one_continuation(self):
        pts = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
        nets = nets_from_edges(pts, [(0, 1), (1, 2), (2, 3), (3, 0)])
        inst = GeocastInstance.create(0, P(0, 0), Rect.from_bounds(5, 0, 6, 1))
        arriving = Message(PLANAR, RIGHT, 2, 3, inst, 2)
        out = spg_handle(nets, 3, arriving, split_done=False)
        assert len(out.sends) == 1
        assert out.sends[0].mode == PLANAR and out.sends[0].dir == RIGHT

    def test_split_fires_once_per_device(self, walkthrough):
        nets, inst = walkthrough
        arriving = Message(PLANAR, RIGHT, WALK_S, WALK_B, inst, 1)
        first = spg_handle(nets, WALK_B, arriving, split_done=False)
        again = Message(PLANAR, RIGHT, WALK_S, WALK_B, inst, 5)
        second = spg_handle(nets, WALK_B, again, split_done=True)
        assert len(first.sends) == 3
        assert [brief(m) for m in second.sends] == [(PLANAR, RIGHT, WALK_B, WALK_A, 6)]


class TestCombined:
    def fixture(self):
        pts = [P(0, 0), P(0.3, 0.1), P(-0.2, 0.3), P(-0.1, -0.9), P(-0.7, -0.5)]
        nets = nets_from_edges(pts, [(0, 1), (0, 2), (0, 3), (0, 4)])
        region = Rect.from_bounds(-0.4, -0.4, 0.4, 0.4)
        inst = GeocastInstance.create(4, pts[4], region)
        return nets, inst

    def test_in_region_planar_arrival_bursts_and_replies(self):
        nets, inst = self.fixture()
        arriving = Message(PLANAR, LEFT, 4, 0, inst, 3)
        out = combined_handle(nets, 0, arriving, split_done=False)
        assert [brief(m) for m in out.sends] == [
            (FLOOD, None, 0, 1, 4),
            (FLOOD, None, 0, 2, 4),
            (PLANAR, LEFT, 0, 3, 4),
            (PLANAR, RIGHT, 0, 3, 4),
            (PLANAR, RIGHT, 0, 4, 4),  # reply: the exact mate of the arrival
        ]

    def test_in_region_flood_arrival_with_mate_annihilates_only(self):
        # device 0 has not been reached: without the mate it would burst
        nets, inst = self.fixture()
        assert_mate_annihilated(nets, inst, "sf-spg", Message(FLOOD, None, 1, 0, inst, 4),
                                Message(FLOOD, None, 0, 1, inst, 4))

    def test_repeat_arrival_without_mate_is_absorbed(self):
        nets, inst = self.fixture()
        arriving = Message(PLANAR, RIGHT, 4, 0, inst, 9)
        out = combined_handle(nets, 0, arriving, split_done=True)
        assert out.sends == []

    def test_out_of_region_device_delegates_to_planar_rule(self, walkthrough):
        nets, inst = walkthrough
        arriving = Message(PLANAR, RIGHT, WALK_S, WALK_B, inst, 1)
        spg = spg_handle(nets, WALK_B, arriving, split_done=False)
        comb = combined_handle(nets, WALK_B, arriving, split_done=False)
        assert [brief(m) for m in comb.sends] == [brief(m) for m in spg.sends]

    def test_in_region_source_floods_immediately(self):
        nets, inst = self.fixture()
        inst0 = GeocastInstance.create(0, P(0, 0), inst.region)
        msgs = combined_initiate(nets, inst0)
        assert [brief(m) for m in msgs] == [
            (FLOOD, None, 0, 1, 1),
            (FLOOD, None, 0, 2, 1),
            (PLANAR, LEFT, 0, 4, 1),
            (PLANAR, RIGHT, 0, 4, 1),
            (PLANAR, LEFT, 0, 3, 1),
            (PLANAR, RIGHT, 0, 3, 1),
        ]


class TestGreedy:
    def chain(self):
        pts = [P(0, 0), P(0.9, 0), P(1.8, 0), P(2.7, 0), P(3.6, 0)]
        nets = nets_from_edges(pts, [(0, 1), (1, 2), (2, 3), (3, 4)], radius=1.0)
        inst = GeocastInstance.create(0, pts[0], Rect.from_bounds(3.3, -0.5, 4.3, 0.5))
        return nets, inst

    def test_chain_forwards_one_message_per_hop(self):
        nets, inst = self.chain()
        msgs = greedy_initiate(nets, inst)
        assert [brief(m) for m in msgs] == [(GREEDY, None, 0, 1, 1)]
        out = greedy_handle(nets, 1, msgs[0])
        assert [brief(m) for m in out.sends] == [(GREEDY, None, 1, 2, 2)]

    def test_region_arrival_switches_to_flood(self):
        nets, _ = self.chain()
        # region covering devices 3 and 4; greedy arrives at 3 from 2
        inst = GeocastInstance.create(0, P(0, 0), Rect.from_bounds(2.4, -0.5, 4.3, 0.5))
        arriving = Message(GREEDY, None, 2, 3, inst, 3)
        out = greedy_handle(nets, 3, arriving, split_done=False)
        briefs = [brief(m) for m in out.sends]
        assert (FLOOD, None, 3, 4, 4) in briefs
        # the faces flanking the greedy arrival edge are explored via a pair
        # back toward the sender
        assert (PLANAR, LEFT, 3, 2, 4) in briefs
        assert (PLANAR, RIGHT, 3, 2, 4) in briefs
        assert not any(m.mode == GREEDY for m in out.sends)

    def test_local_minimum_switches_to_planar_with_reanchored_line(self):
        # device 1 is strictly closest to the center in its neighborhood
        pts = [P(0, 0), P(1.0, 0.3), P(0.4, 0.9)]
        nets = nets_from_edges(pts, [(0, 1), (0, 2), (1, 2)], radius=1.3)
        inst = GeocastInstance.create(0, pts[0], Rect.from_bounds(2.0, 0.0, 3.0, 1.0))
        arriving = Message(GREEDY, None, 0, 1, inst, 1)
        out = greedy_handle(nets, 1, arriving)
        assert len(out.sends) == 2
        assert {m.dir for m in out.sends} == {LEFT, RIGHT}
        for m in out.sends:
            assert m.mode == PLANAR and m.depth == 2 and m.sender == 1
            assert m.inst.source == 1 and m.inst.center_line.a == pts[1]
            assert m.inst.region == inst.region

    @pytest.mark.parametrize("anchor, mates", [(WALK_A, False), (WALK_S, True)],
                             ids=["other-device", "original-source"])
    def test_reanchored_instance_is_not_a_mate(self, walkthrough, anchor, mates):
        # the switch device re-anchors the guide line; an anchoring at the
        # original source is an equal instance, and mates compare by value
        nets, inst = walkthrough
        anchored = GeocastInstance.create(anchor, nets.full.positions[anchor], inst.region)
        arriving = Message(PLANAR, RIGHT, WALK_B, WALK_A, inst, 2)
        queued = Message(PLANAR, LEFT, WALK_A, WALK_B, anchored, 2)
        if mates:
            assert_mate_annihilated(nets, inst, "sf-spg-g", arriving, queued)
            return
        algorithm, calls = scripted("sf-spg-g", arriving, queued)
        sim = Simulation(nets, inst, algorithm)
        sim.step()
        assert sim.state.annihilated == 0 and calls == [brief(arriving)]
        assert sim.state.queued[(WALK_A, WALK_B)][0] is queued

    @pytest.mark.parametrize("mode", [GREEDY, FLOOD])
    def test_greedy_arrival_never_annihilates(self, mode):
        nets, inst = self.chain()
        arriving = Message(GREEDY, None, 0, 1, inst, 1)
        queued = Message(mode, None, 1, 0, inst, 1)
        algorithm, calls = scripted("sf-spg-g", arriving, queued)
        sim = Simulation(nets, inst, algorithm)
        sim.step()
        assert sim.state.annihilated == 0 and calls == [brief(arriving)]
        assert sim.state.queued[(1, 0)] == [queued]
        assert [brief(m) for m in sim.state.queued[(1, 2)]] == [(GREEDY, None, 1, 2, 2)]

    def test_source_already_in_region_floods(self):
        pts = [P(0, 0), P(0.5, 0.2), P(3, 3)]
        nets = nets_from_edges(pts, [(0, 1)], radius=1.0)
        inst = GeocastInstance.create(0, pts[0], Rect.from_bounds(-1, -1, 1, 1))
        msgs = greedy_initiate(nets, inst)
        assert [brief(m) for m in msgs] == [(FLOOD, None, 0, 1, 1)]

    def test_full_run_delivers_to_chain_region(self):
        nets, inst = self.chain()
        sim = Simulation(nets, inst, "sf-spg-g")
        state = sim.run_to_quiescence()
        assert 4 in state.arrival and 3 in state.arrival
        assert state.queued_messages() == 0


class TestOneShotGate:
    """`split_done` is the one gate on one-shot emissions: face splits outside
    the region and the flood-plus-pair burst inside it."""

    def triangle(self):
        # only device 1 lies in the region; devices 0 and 2 route planar
        pts = [P(0, 0), P(1, 0), P(0.5, 0.8)]
        nets = nets_from_edges(pts, [(0, 1), (0, 2), (1, 2)])
        inst = GeocastInstance.create(0, pts[0], Rect.from_bounds(0.9, -0.1, 1.1, 0.9))
        return nets, inst

    @pytest.mark.parametrize("policy", POLICIES)
    def test_gated_run_quiesces(self, policy):
        nets, inst = self.triangle()
        state = Simulation(nets, inst, "sf-spg", policy).run_to_quiescence()
        assert state.steps == 9
        assert set(state.arrival) == {0, 1, 2} and state.split_done == {0, 1, 2}

    @pytest.mark.parametrize("policy", POLICIES)
    def test_ungated_run_never_quiesces(self, policy):
        # every arrival fires again: the region device re-seeds both faces
        # of the triangle, which re-seed it in turn
        nets, inst = self.triangle()
        ungated = Algorithm("sf-spg", combined_initiate,
                            lambda nets, d, m, split_done: combined_handle(nets, d, m, False))
        sim = Simulation(nets, inst, ungated, policy, step_budget=5000)
        with pytest.raises(SimulationFault):
            sim.run_to_quiescence()

    @pytest.mark.parametrize("cds", [False, True])
    @pytest.mark.parametrize("alg", ["sf-spg", "sf-spg-g"])
    def test_in_region_devices_fire_once_at_their_first_arrival(self, alg, cds):
        cfg = ExperimentConfig(seed=4)
        for trial in range(15):
            scenario = gen_scenario(cfg, trial)
            nets = build_nets(scenario, cds=cds).nets
            inst = scenario.instance()
            region = {d for d, p in enumerate(scenario.devices) if inst.region.contains(p)}
            for policy in POLICIES:
                ungated_calls: Counter = Counter()
                handle = ALGORITHMS[alg].handle

                def recording(nets, d, m, split_done):
                    if d in region and not split_done:
                        ungated_calls[d] += 1
                    return handle(nets, d, m, split_done=split_done)

                sim = Simulation(nets, inst, Algorithm(alg, ALGORITHMS[alg].initiate, recording),
                                 policy, scenario.seed)
                state = sim.run_to_quiescence()
                reached = state.arrival.keys() & region
                assert state.split_done & region == reached
                assert ungated_calls == Counter(reached - {inst.source})
