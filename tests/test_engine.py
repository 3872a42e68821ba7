import copy
import dataclasses
import hashlib
import json
import tracemalloc
from collections.abc import Collection

import numpy as np
import pytest

from conftest import P, nets_from_edges, reference_deliver_dominated, sf_border_violations
from geocastsim.engine import (
    BUDGET_FACTOR,
    POLICIES,
    Metrics,
    Simulation,
    SimulationFault,
    TransmissionEvent,
    arrivals,
    bounded_index,
    compute_metrics,
    deliver_dominated,
    raw_words,
    replay,
    run,
    substream,
)
from geocastsim import netgraph
from geocastsim.cli import main
from geocastsim.experiments import ExperimentConfig, build_nets, gen_scenario, run_trial
from geocastsim.export import read_trace, used_edges_from_trace, write_trace
from geocastsim.geometry import Rect
from geocastsim.netgraph import (
    GeocastInstance,
    bfs_hops,
    build_unit_disk,
    edge_qualifies,
    gabriel_subgraph,
    induced_subgraph,
    save_scenario,
)
from geocastsim.protocol import ALGORITHMS, FLOOD, Message, RoutingNets, mate_matches

FAR_REGION = Rect.from_bounds(50.0, 50.0, 51.0, 51.0)

# sha256 over repr(transcript) of 4 algorithms x 3 policies (seed = the
# scenario's) on the first 40 scenarios of the acceptance corpus (seed
# 20260809, density 7, field 10, region 3), as the full segment tests gave
# them before qualification was memoised
ACCEPTANCE_SEED = 20260809
ACCEPTANCE_TRANSCRIPTS_SHA256 = "4689e34f96f0bd89b3a740209817290fe8978af8e1b62242a77723301e9411b6"


def path_fixture():
    pts = [P(0, 0), P(0.9, 0), P(1.8, 0)]
    net = build_unit_disk(pts, 1.0)
    nets = RoutingNets(net, gabriel_subgraph(net))
    inst = GeocastInstance.create(0, pts[0], Rect.from_bounds(1.6, -0.2, 2.0, 0.2))
    return nets, inst


def triangle_fixture():
    pts = [P(0, 0), P(0.9, 0), P(0.45, 0.7)]
    net = build_unit_disk(pts, 1.0)
    nets = RoutingNets(net, gabriel_subgraph(net))
    inst = GeocastInstance.create(0, pts[0], Rect.from_bounds(-1, -1, 2, 2))
    return nets, inst


class TestStep:
    def test_empty_queues_are_quiescent(self):
        nets = nets_from_edges([P(0, 0), P(5, 5)], [])
        inst = GeocastInstance.create(0, P(0, 0), FAR_REGION)
        sim = Simulation(nets, inst, "sf")
        assert sim.step() is None
        assert arrivals(sim.state.transcript, inst.source) == {0: 0}

    def test_single_message_to_leaf(self):
        nets = nets_from_edges([P(0, 0), P(1, 0)], [(0, 1)])
        inst = GeocastInstance.create(0, P(0, 0), FAR_REGION)
        sim = Simulation(nets, inst, "sf")
        event = sim.step()
        assert (event.sender, event.receiver) == (0, 1)
        assert sim.step() is None

    @pytest.mark.parametrize("policy", ["fifo", "lifo", "random"])
    def test_triangle_flood_takes_three_steps(self, policy):
        nets, inst = triangle_fixture()
        sim = Simulation(nets, inst, "sf", policy=policy, seed=11)
        state = sim.run_to_quiescence()
        assert state.steps == 3
        assert set(arrivals(state.transcript, inst.source)) == {0, 1, 2}

    def test_budget_exhaustion_raises_fault(self):
        nets, inst = path_fixture()
        sim = Simulation(nets, inst, "sf", step_budget=1)
        with pytest.raises(SimulationFault):
            sim.run_to_quiescence()

    @pytest.mark.parametrize("policy", ["fifo", "lifo", "random"])
    def test_fault_leaves_the_run_as_it_was(self, policy):
        scenario = gen_scenario(ExperimentConfig(field_side=4.0, trials=1), 0)
        nets, inst = build_nets(scenario).nets, scenario.instance()
        whole = Simulation(nets, inst, "sf", policy=policy, seed=5).run_to_quiescence()
        sim = Simulation(nets, inst, "sf", policy=policy, seed=5, step_budget=3)
        for _ in range(3):
            sim.step()
        queued = {edge: list(msgs) for edge, msgs in sim.state.queued.items()}
        for _ in range(2):
            with pytest.raises(SimulationFault):
                sim.step()
            assert sim.state.steps == 3 and sim.state.queued == queued
        assert sim.state.queued_messages() == sum(map(len, queued.values())) > 0
        # with a larger budget the run goes on exactly as an unbounded one:
        # the fault took no message out of the schedule
        sim.step_budget = whole.steps
        assert sim.run_to_quiescence().transcript == whole.transcript

    def test_random_policy_rejects_negative_seed(self):
        nets, inst = triangle_fixture()
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            Simulation(nets, inst, "sf", policy="random", seed=-1)


class TestOneLoop:
    """`step()` and `run_to_quiescence()` drive the one step loop, and `replay`
    drives it with a pick of its own: all three give one run."""

    @pytest.mark.parametrize("algorithm", ["sf", "spg", "sf-spg", "sf-spg-g"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_stepping_running_and_replaying_agree(self, algorithm, policy):
        cfg = ExperimentConfig(field_side=6.0, density=6.0, region_side=2.0, trials=3, seed=12)
        for trial in range(3):
            sc = gen_scenario(cfg, trial)
            nets, inst = build_nets(sc).nets, sc.instance()
            whole = Simulation(nets, inst, algorithm, policy, seed=sc.seed).run_to_quiescence()
            sim = Simulation(nets, inst, algorithm, policy, seed=sc.seed)
            events = []
            while (event := sim.step()) is not None:
                events.append(event)
            stepped = sim.state
            assert events == stepped.transcript == whole.transcript
            assert stepped.queued_messages() == 0 and sim.step() is None
            replayed = replay(nets, inst, algorithm, whole.transcript)
            for state in (stepped, replayed):
                assert state.transcript == whole.transcript
                assert (state.enqueued, state.annihilated) == (whole.enqueued, whole.annihilated)
                assert state.split_done == whole.split_done
                assert arrivals(state.transcript, inst.source) == arrivals(whole.transcript, inst.source)
            assert replayed.queued_messages() == 0

    def test_replay_rejects_a_transcript_longer_than_the_run(self):
        nets, inst = triangle_fixture()
        state, _ = run(nets, inst, "sf")
        extra = state.transcript[-1]._replace(step=state.steps + 1)
        with pytest.raises(ValueError, match="has no queued counterpart") as err:
            replay(nets, inst, "sf", state.transcript + [extra])
        assert repr(extra) in str(err.value)

    def test_step_budget_from_the_routing_values_max_degree(self):
        sc = gen_scenario(ExperimentConfig(field_side=6.0, trials=1), 0)
        nets, inst = build_nets(sc).nets, sc.instance()
        degree = max(map(len, nets.full.adjacency))
        assert Simulation(nets, inst).step_budget == BUDGET_FACTOR * nets.full.n * degree
        assert nets.max_degree == degree


class TestRandomPick:
    """The `random` policy draws the index `substream(seed, 0).integers(n)`
    would, from the raw Philox stream."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 20260809])
    def test_index_equals_numpy_integers(self, seed):
        # n = 2**31 + 1 and 3 * 2**30 reject about a half and a quarter of their
        # words; n = 1 draws none, and 2**32 - 1 is the largest n
        rng = np.random.default_rng(seed)
        sizes = ([1, 2, 3, 2 ** 31, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 1] * 50
                 + rng.integers(1, 2 ** 32 - 1, 300).tolist() + rng.integers(1, 600, 300).tolist())
        rng.shuffle(sizes)
        reference = substream(seed, 0)
        words = raw_words(substream(seed, 0).bit_generator)
        assert [bounded_index(words, n) for n in sizes] == [int(reference.integers(n)) for n in sizes]


class TestRun:
    def test_flood_on_path_metrics(self):
        nets, inst = path_fixture()
        state, metrics = run(nets, inst, "sf")
        assert metrics.message_cost == 2
        assert metrics.latency == 2
        assert metrics.path_stretch == 1.0
        assert metrics.normalized_cost == 2.0
        assert metrics.delivery_rate == 1.0

    def test_planar_triangle_within_double_edge_bound(self):
        nets, inst = triangle_fixture()
        state, metrics = run(nets, inst, "spg")
        assert metrics.message_cost <= 2 * nets.planar.edge_count()
        assert set(arrivals(state.transcript, inst.source)) == {0, 1, 2}
        assert state.queued_messages() == 0

    def test_region_in_other_component_not_counted(self):
        pts = [P(0, 0), P(0.9, 0), P(8, 8), P(8.9, 8)]
        net = build_unit_disk(pts, 1.0)
        nets = RoutingNets(net, gabriel_subgraph(net))
        inst = GeocastInstance.create(0, pts[0], Rect.from_bounds(7.5, 7.5, 9.5, 9.5))
        state, metrics = run(nets, inst, "sf")
        assert metrics.message_cost == 1  # the component's single edge
        assert metrics.latency is None and metrics.path_stretch is None
        assert metrics.normalized_cost is None and metrics.target_count == 0

    def test_source_alone_in_region(self):
        pts = [P(0, 0), P(0.9, 0)]
        net = build_unit_disk(pts, 1.0)
        nets = RoutingNets(net, net)
        inst = GeocastInstance.create(0, pts[0], Rect.from_bounds(-0.2, -0.2, 0.2, 0.2))
        state, metrics = run(nets, inst, "sf")
        assert metrics.latency == 0 and metrics.path_stretch is None
        assert metrics.delivery_rate == 1.0

    def test_arrival_includes_source_at_depth_zero(self):
        nets, inst = path_fixture()
        state, _ = run(nets, inst, "sf")
        assert arrivals(state.transcript, inst.source)[0] == 0


class TestDeterminismAndConservation:
    def scenario(self, seed=77):
        cfg = ExperimentConfig(field_side=6.0, density=6.0, region_side=2.0,
                               trials=1, seed=seed)
        sc = gen_scenario(cfg, 0)
        return sc, build_nets(sc)

    @pytest.mark.parametrize("algorithm", ["sf", "spg", "sf-spg", "sf-spg-g"])
    @pytest.mark.parametrize("policy", ["fifo", "lifo", "random"])
    def test_identical_seeds_identical_transcripts(self, algorithm, policy):
        sc, bundle = self.scenario()
        inst = sc.instance()
        t1 = Simulation(bundle.nets, inst, algorithm, policy, seed=5).run_to_quiescence()
        t2 = Simulation(bundle.nets, inst, algorithm, policy, seed=5).run_to_quiescence()
        assert t1.transcript == t2.transcript

    @pytest.mark.parametrize("algorithm", ["sf", "spg", "sf-spg", "sf-spg-g"])
    def test_every_message_transmitted_or_annihilated(self, algorithm):
        for seed in (1, 2, 3):
            sc, bundle = self.scenario(seed)
            sim = Simulation(bundle.nets, sc.instance(), algorithm)
            state = sim.run_to_quiescence()
            assert state.queued_messages() == 0
            assert state.enqueued == state.steps + state.annihilated

    @pytest.mark.parametrize("algorithm, graph", [
        ("sf", "full"), ("spg", "planar"), ("sf-spg", "full"), ("sf-spg-g", "full")])
    def test_arrival_depth_at_least_hop_distance(self, algorithm, graph):
        sc, bundle = self.scenario(9)
        net = bundle.nets.full if graph == "full" else bundle.nets.planar
        state = Simulation(bundle.nets, sc.instance(), algorithm).run_to_quiescence()
        hops = bfs_hops(net, sc.source)
        for d, depth in arrivals(state.transcript, sc.source).items():
            assert hops[d] is not None and depth >= hops[d]

    def test_flood_arrivals_match_hop_distance_under_fifo(self):
        for seed in range(6):
            sc, bundle = self.scenario(seed)
            state = Simulation(bundle.nets, sc.instance(), "sf", "fifo").run_to_quiescence()
            hops = bfs_hops(bundle.nets.full, sc.source)
            assert all(depth == hops[d] for d, depth in arrivals(state.transcript, sc.source).items())


    def test_acceptance_transcripts_unchanged(self):
        cfg = ExperimentConfig(trials=1, seed=ACCEPTANCE_SEED)
        digest = hashlib.sha256()
        for trial in range(40):
            sc = gen_scenario(cfg, trial)
            nets = build_nets(sc).nets
            inst = sc.instance()
            for algorithm in ("sf", "spg", "sf-spg", "sf-spg-g"):
                for policy in ("fifo", "lifo", "random"):
                    state = Simulation(nets, inst, algorithm, policy, seed=sc.seed).run_to_quiescence()
                    digest.update(repr(state.transcript).encode())
        assert digest.hexdigest() == ACCEPTANCE_TRANSCRIPTS_SHA256


def world_answers(nets: RoutingNets, inst: GeocastInstance) -> tuple:
    """Everything a routing value's world of `inst` answers: the world values
    and the qualification of every unit-disk edge."""
    world = nets.world(inst)
    return world.region, world.reach, {e: edge_qualifies(world, *e) for e in nets.unit_disk.edges()}


def fresh(nets: RoutingNets) -> RoutingNets:
    """The same graphs behind a routing value with no world made yet."""
    return RoutingNets(nets.full, nets.planar, nets.unit_disk)


class TestWorldMemo:
    """One routing value may serve several instances; each gets exactly what
    a fresh routing value on the same graphs gives it."""

    @pytest.mark.parametrize("cds", [False, True])
    def test_several_instances_on_one_routing_value(self, cds):
        sc = gen_scenario(ExperimentConfig(seed=3), 0)
        nets = build_nets(sc, cds=cds).nets
        corner = Rect.from_bounds(0.0, 0.0, 2.0, 2.0)
        insts = [sc.instance(), GeocastInstance.create(sc.source, sc.devices[sc.source], corner)]
        # re-anchorings, as sf-spg-g makes them: same region, another source
        insts += [GeocastInstance.create(d, sc.devices[d], sc.region)
                  for d in range(0, len(sc.devices), 40)]
        answers = [world_answers(nets, inst) for inst in insts]
        assert answers == [world_answers(fresh(nets), inst) for inst in insts]
        assert len(nets.worlds) == len(set(insts))
        assert all(nets.world(inst).region is nets.world(insts[0]).region for inst in insts[2:])

    def test_two_scenarios_never_share_a_world(self):
        cfg = ExperimentConfig(seed=5)
        first, second = gen_scenario(cfg, 0), gen_scenario(cfg, 1)
        assert len(first.devices) == len(second.devices)
        inst = first.instance()
        both = [build_nets(sc).nets for sc in (first, second)]
        assert both[0].world(inst) is not both[1].world(inst)
        answers = [world_answers(nets, inst) for nets in both]
        assert answers[0] != answers[1]
        assert answers == [world_answers(fresh(nets), inst) for nets in both]

    def test_backbone_world_is_built_on_the_unit_disk_graph(self):
        sc = gen_scenario(ExperimentConfig(seed=3), 0)
        bundle = build_nets(sc, cds=True)
        world = bundle.nets.world(sc.instance())
        assert world.net is bundle.nets.unit_disk and world.net is not bundle.nets.full
        # reach extends past the backbone, which alone reaches fewer devices
        hops = world.reach[0]
        assert hops == bfs_hops(bundle.nets.unit_disk, sc.source)
        assert hops.count(None) < bfs_hops(bundle.nets.full, sc.source).count(None)
        assert any(hops[d] is not None for d in range(len(hops)) if d not in bundle.backbone)

    def test_instance_is_a_plain_value(self):
        sc = gen_scenario(ExperimentConfig(seed=3), 0)
        nets = build_nets(sc).nets
        a, b = sc.instance(), sc.instance()
        assert [f.name for f in dataclasses.fields(GeocastInstance)] == ["source", "region", "center_line"]
        assert a == b and a is not b
        assert nets.world(a) is nets.world(b)
        assert mate_matches(Message(FLOOD, None, 0, 1, nets.world(a), 1),
                            Message(FLOOD, None, 1, 0, nets.world(b), 1))

    @pytest.mark.parametrize("cds", [False, True])
    def test_shared_routing_value_measures_like_fresh_ones(self, cds):
        cfg = ExperimentConfig(seed=8, field_side=8.0, region_side=3.0)
        for trial in range(10):
            sc = gen_scenario(cfg, trial)
            bundle = build_nets(sc, cds=cds)
            for alg in ALGORITHMS:
                for policy in POLICIES:
                    unshared = fresh(bundle.nets)
                    (state, metrics), (fresh_state, fresh_metrics) = (
                        run(nets, sc.instance(), alg, policy, sc.seed)
                        for nets in (bundle.nets, unshared))
                    assert metrics == fresh_metrics
                    assert state.transcript == fresh_state.transcript
                    assert compute_metrics(state, bundle.nets, sc.instance()) == \
                        compute_metrics(state, unshared, sc.instance())

    @pytest.mark.parametrize("cds", [False, True])
    def test_worlds_are_resolved_per_run_not_per_step(self, monkeypatch, cds):
        # sf-spg-g at field 40 (seed 1, trial 0) re-anchors once.  A world is
        # resolved at the start, at the re-anchoring, in the backbone
        # epilogue and in the metrics; the region is scanned once.
        sc = gen_scenario(ExperimentConfig(seed=1, field_side=40.0), 0)
        bundle = build_nets(sc, cds=cds)
        scan, resolve = netgraph.region_devices, RoutingNets.world
        scans, resolved = [], []

        def counting_scan(positions, region):
            scans.append(region)
            return scan(positions, region)

        def counting_resolve(nets, inst):
            resolved.append(inst)
            return resolve(nets, inst)

        monkeypatch.setattr(netgraph, "region_devices", counting_scan)
        monkeypatch.setattr(RoutingNets, "world", counting_resolve)
        state, _ = run(bundle.nets, sc.instance(), "sf-spg-g", seed=sc.seed)
        assert len(bundle.nets.worlds) == 2  # the instance and its re-anchoring
        assert scans == [sc.region]
        assert len(resolved) == (4 if cds else 3)
        assert state.steps > 100


class TestRetainedMemory:
    def test_metrics_hold_no_collection_over_visited_devices(self):
        # a caller that keeps many Metrics (a sweep, a benchmark pass) must
        # not keep every run's visited set; the transcript holds that
        sc = gen_scenario(ExperimentConfig(), 0)
        assert len(sc.devices) == 223
        state, metrics = run(build_nets(sc).nets, sc.instance(), "sf")
        assert len(arrivals(state.transcript, sc.source)) > metrics.target_count
        for field in dataclasses.fields(Metrics):
            value = getattr(metrics, field.name)
            if isinstance(value, Collection):
                assert len(value) <= metrics.target_count, field.name


class TestFloodFrontierInvariant:
    def test_holds_after_every_step_on_small_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            side = float(rng.uniform(1.0, 3.0))
            pts = [P(x, y) for x, y in rng.uniform(0, side, size=(n, 2))]
            net = build_unit_disk(pts, 1.0)
            nets = RoutingNets(net, net)
            src = int(rng.integers(n))
            inst = GeocastInstance.create(src, pts[src], Rect.from_bounds(0, 0, side, side))
            sim = Simulation(nets, inst, "sf")
            assert sf_border_violations(sim, src) == []
            while sim.step() is not None:
                assert sf_border_violations(sim, src) == []


class TestReplayAndTrace:
    @pytest.mark.parametrize("algorithm", ["sf", "spg", "sf-spg", "sf-spg-g"])
    @pytest.mark.parametrize("policy", ["fifo", "lifo", "random"])
    def test_replay_reproduces_final_state(self, algorithm, policy):
        cfg = ExperimentConfig(field_side=5.0, density=6.0, region_side=2.0,
                               trials=1, seed=31)
        sc = gen_scenario(cfg, 0)
        bundle = build_nets(sc)
        inst = sc.instance()
        state = Simulation(bundle.nets, inst, algorithm, policy, seed=sc.seed).run_to_quiescence()
        replayed = replay(bundle.nets, inst, algorithm, state.transcript)
        assert replayed.transcript == state.transcript
        assert arrivals(replayed.transcript, inst.source) == arrivals(state.transcript, inst.source)
        assert replayed.split_done == state.split_done
        assert (replayed.annihilated, replayed.steps) == (state.annihilated, state.steps)
        assert replayed.queued_messages() == 0

    def test_replay_holds_no_more_than_the_run(self):
        # field 20, seed 1, trial 0: replay's pick reads the queues, so it
        # pools no message (the fifo pool it had kept all 5,134 this run enqueues)
        sc = gen_scenario(ExperimentConfig(seed=1, field_side=20.0), 0)
        nets, inst = build_nets(sc).nets, sc.instance()
        nets.world(inst)  # made once, outside both measurements
        tracemalloc.start()
        try:
            state = Simulation(nets, inst, "sf", seed=sc.seed).run_to_quiescence()
            run_peak = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            replay(nets, inst, "sf", state.transcript)
            replay_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert state.steps == 3008
        assert replay_peak <= run_peak

    # (-3, 1) is the first event 0 -> 1 with its sender wrapped around
    # (-3 is 0 modulo n = 3)
    @pytest.mark.parametrize("sender, receiver", [(-3, 1), (1, -2), (3, 1), (0, 7)])
    def test_replay_rejects_devices_out_of_range(self, sender, receiver):
        nets, inst = triangle_fixture()
        state, _ = run(nets, inst, "sf")
        first = state.transcript[0]
        assert (first.sender, first.receiver) == (0, 1)
        bad = first._replace(sender=sender, receiver=receiver)
        with pytest.raises(ValueError, match=r"names a device outside \[0, 3\)") as err:
            replay(nets, inst, "sf", [bad] + state.transcript[1:])
        assert repr(bad) in str(err.value)

    def test_event_is_the_tuple_of_its_fields(self):
        # events are NamedTuples: equal to the plain tuple of their fields,
        # with the repr the transcript hashes have always been taken over
        event = TransmissionEvent(7, "planar", "L", 3, 12, 4)
        assert event == (7, "planar", "L", 3, 12, 4)
        assert tuple(event) == (event.step, event.mode, event.dir, event.sender,
                                event.receiver, event.depth)
        assert repr(event) == ("TransmissionEvent(step=7, mode='planar', dir='L', "
                               "sender=3, receiver=12, depth=4)")
        assert repr(TransmissionEvent(1, "flood", None, 0, 1, 1)) == (
            "TransmissionEvent(step=1, mode='flood', dir=None, sender=0, receiver=1, depth=1)")

    def test_trace_round_trip(self, tmp_path):
        nets, inst = triangle_fixture()
        state, _ = run(nets, inst, "spg")
        path = tmp_path / "trace.jsonl"
        write_trace(state.transcript, str(path))
        events = read_trace(str(path))
        assert events == state.transcript
        assert used_edges_from_trace(events) == {(0, 1), (0, 2), (1, 2)}

    def test_trace_bytes_match_json_dumps(self, tmp_path):
        events = [TransmissionEvent(1, "flood", None, 0, 1, 1),
                  TransmissionEvent(2, "planar", "L", 1, 12, 2),
                  TransmissionEvent(3, "planar", "R", 12, 3565, 2),
                  TransmissionEvent(40213, "greedy", None, 3565, 7, 187)]
        path = tmp_path / "trace.jsonl"
        write_trace(events, str(path))
        expected = "".join(json.dumps({"step": ev.step, "mode": ev.mode, "dir": ev.dir,
                                       "sender": ev.sender, "receiver": ev.receiver,
                                       "depth": ev.depth}) + "\n" for ev in events)
        assert path.read_bytes() == expected.encode("utf-8")
        assert read_trace(str(path)) == events


class TestBackboneDelivery:
    def test_one_hop_epilogue_reaches_dominated_devices(self):
        # device 2 neighbors only device 1, and the backbone is {0, 1}
        pts = [P(0, 0), P(0.9, 0), P(1.0, 0.5)]
        full = build_unit_disk(pts, 1.0)
        backbone = induced_subgraph(full, {0, 1})
        nets = RoutingNets(backbone, gabriel_subgraph(backbone), full)
        region = Rect.from_bounds(0.6, -0.6, 1.4, 0.9)
        inst = GeocastInstance.create(0, pts[0], region)
        state = Simulation(nets, inst, "sf").run_to_quiescence()
        assert 2 not in arrivals(state.transcript, inst.source)
        before = state.steps
        extra = deliver_dominated(state, nets, inst)
        assert extra == 1
        arrival = arrivals(state.transcript, inst.source)
        assert arrival[2] == arrival[1] + 1
        assert state.steps == before + 1
        metrics = compute_metrics(state, nets, inst)
        assert metrics.delivery_rate == 1.0
        # `run` adds the epilogue itself, since `nets` routes on a backbone
        again, again_metrics = run(nets, inst, "sf")
        assert again.transcript == state.transcript and again_metrics == metrics

    def test_epilogue_equals_the_backbone_set_rule(self):
        # the epilogue targets the in-region devices `full` leaves isolated;
        # on every value `build_nets` makes, those are the ones off the backbone
        cfg = ExperimentConfig(seed=6, field_side=8.0, region_side=3.0)
        extras = 0
        for trial in range(10):
            sc = gen_scenario(cfg, trial)
            bundle, inst = build_nets(sc, cds=True), sc.instance()
            for alg in ALGORITHMS:
                for policy in POLICIES:
                    state = Simulation(bundle.nets, inst, alg, policy, sc.seed).run_to_quiescence()
                    reference = copy.copy(state)
                    reference.transcript = list(state.transcript)
                    extra = deliver_dominated(state, bundle.nets, inst)
                    assert extra == reference_deliver_dominated(reference, bundle.nets, inst, bundle.backbone)
                    assert state.transcript == reference.transcript
                    extras += extra
        assert extras > 0

    @pytest.mark.parametrize("algorithm", ["sf", "spg", "sf-spg", "sf-spg-g"])
    def test_cds_routing_value_alone_delivers_like_the_cli(self, tmp_path, capsys, algorithm):
        # without the epilogue these runs delivered to 24-52 % of the targets
        cfg = ExperimentConfig(seed=1, field_side=20.0)
        path, trace = tmp_path / "scenario.json", tmp_path / "trace.jsonl"
        for trial in range(5):
            sc = gen_scenario(cfg, trial)
            state, metrics = run(build_nets(sc, cds=True).nets, sc.instance(), algorithm, seed=sc.seed)
            assert metrics.delivery_rate == 1.0
            save_scenario(sc, str(path))
            assert main(["run", "--scenario", str(path), "--alg", algorithm, "--cds",
                         "--trace", str(trace)]) == 0
            line = dict(item.split("=", 1) for item in capsys.readouterr().out.split())
            assert (line["cost"], line["latency"], line["delivered"]) == (
                str(metrics.message_cost), str(metrics.latency),
                f"{len(metrics.region_covered)}/{metrics.target_count}")
            assert read_trace(str(trace)) == state.transcript

    @pytest.mark.parametrize("trial", [0, 1, 2])
    @pytest.mark.parametrize("algorithm", ["sf", "spg", "sf-spg", "sf-spg-g"])
    def test_run_with_backbone_matches_run_trial_and_cli(self, tmp_path, capsys,
                                                         algorithm, trial):
        sc = gen_scenario(ExperimentConfig(seed=3), trial)
        bundle = build_nets(sc, cds=True)
        state, metrics = run(bundle.nets, sc.instance(), algorithm, seed=sc.seed)
        assert metrics.delivery_rate in (None, 1.0)
        assert metrics == run_trial(sc, algorithm, build_nets(sc, cds=True))

        path, trace = tmp_path / "scenario.json", tmp_path / "trace.jsonl"
        save_scenario(sc, str(path))
        assert main(["run", "--scenario", str(path), "--alg", algorithm, "--cds",
                     "--trace", str(trace)]) == 0
        line = dict(item.split("=", 1) for item in capsys.readouterr().out.split())
        assert line["cost"] == str(metrics.message_cost)
        assert line["delivered"] == f"{len(metrics.region_covered)}/{metrics.target_count}"
        assert read_trace(str(trace)) == state.transcript

    def test_backbone_run_reaches_the_region_beyond_the_backbone(self):
        # seed 3, trial 0: routing on the backbone alone covers 6 of the
        # 17 reachable in-region devices; the epilogue delivers the rest
        sc = gen_scenario(ExperimentConfig(seed=3), 0)
        bundle = build_nets(sc, cds=True)
        _, metrics = run(bundle.nets, sc.instance(), "sf-spg", seed=sc.seed)
        assert (metrics.message_cost, len(metrics.region_covered), metrics.target_count) \
            == (284, 17, 17)
