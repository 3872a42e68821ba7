"""Fair atomic-step scheduler over per-edge send queues, plus metrics.

One transmission per step: a queued message is selected by the scheduling
policy, removed from its edge's queue and delivered.  If the receiver holds a
*mate* of it on the reverse edge, the oldest one is annihilated with it and no
handler runs; otherwise the algorithm's handler returns the messages to
enqueue.  Annihilated mates never count as transmissions.  Everything is
deterministic for a fixed (scenario, algorithm, policy, seed).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from .netgraph import DeviceId, GeocastInstance
from .protocol import ALGORITHMS, Algorithm, Message, RoutingNets, mate_matches

BUDGET_FACTOR = 50
POLICIES = ("fifo", "lifo", "random")
DEFAULT_POLICY = POLICIES[0]


class SimulationFault(RuntimeError):
    """Step budget exhausted: the run did not reach quiescence."""


class TransmissionEvent(NamedTuple):
    """One transmission; as a tuple it equals the plain tuple of its fields."""
    step: int
    mode: str
    dir: Optional[str]
    sender: DeviceId
    receiver: DeviceId
    depth: int


# The pools keep annihilated mates too; `Simulation.step` skips them, and
# pops only while something is queued.

class _DequePool:
    """The oldest (fifo) or the newest (lifo) pooled message."""

    def __init__(self, lifo: bool) -> None:
        items: deque = deque()
        self.add = items.append
        self.pop = items.pop if lifo else items.popleft


class _RandomPool:
    """Uniform choice over all pooled messages, from a seeded stream."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._items: list = []
        self.add = self._items.append
        self._rng = rng

    def pop(self) -> Message:
        items = self._items
        i = int(self._rng.integers(len(items)))
        m = items[i]
        items[i] = items[-1]
        items.pop()
        return m


class SimState:
    """Queued messages by directed edge (sender, receiver), oldest first, plus the
    transcript, arrivals, one-shot gate and counters; `Simulation.pool` picks each step."""

    def __init__(self) -> None:
        self.queued: dict[tuple[DeviceId, DeviceId], list[Message]] = {}
        self.transcript: list[TransmissionEvent] = []
        self.arrival: dict[DeviceId, int] = {}
        self.split_done: set[DeviceId] = set()
        self.enqueued = 0
        self.annihilated = 0

    @property
    def steps(self) -> int:
        return len(self.transcript)

    def queued_messages(self) -> int:
        return sum(map(len, self.queued.values()))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for the stream keyed by (seed, *key)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


class Simulation:
    """A single run: initiate, then step to quiescence."""

    def __init__(self, nets: RoutingNets, inst: GeocastInstance,
                 algorithm: Union[str, Algorithm] = "sf", policy: str = DEFAULT_POLICY,
                 seed: int = 0, step_budget: Optional[int] = None):
        self.nets = nets
        self.algorithm = ALGORITHMS[algorithm] if isinstance(algorithm, str) else algorithm
        if step_budget is None:
            step_budget = BUDGET_FACTOR * nets.full.n * max(1, nets.full.max_degree())
        self.step_budget = step_budget
        if policy in ("fifo", "lifo"):
            self.pool = _DequePool(lifo=policy == "lifo")
        elif policy == "random":
            if seed < 0:
                raise ValueError(f"seed must be non-negative, got {seed!r}")
            self.pool = _RandomPool(substream(seed, 0))
        else:
            raise ValueError(f"unknown policy {policy!r}")
        self.state = SimState()
        # the source has already participated: its one-shot emissions happen
        # at initiation, so later receipts only forward or annihilate
        self.state.arrival[inst.source] = 0
        self.state.split_done.add(inst.source)
        self._enqueue(self.algorithm.initiate(nets, nets.world(inst)))

    def _enqueue(self, sends: list) -> None:
        queued, add = self.state.queued, self.pool.add
        for m in sends:
            queued.setdefault((m.sender, m.receiver), []).append(m)
            add(m)
        self.state.enqueued += len(sends)

    def _apply(self, m: Message) -> TransmissionEvent:
        st = self.state
        queued = st.queued
        s, d = m.sender, m.receiver
        edge = queued[(s, d)]
        edge.remove(m)
        if not edge:
            del queued[(s, d)]
        transcript = st.transcript
        event = TransmissionEvent(len(transcript) + 1, m.mode, m.dir, s, d, m.depth)
        transcript.append(event)
        arrival = st.arrival
        prev = arrival.get(d)
        if prev is None or m.depth < prev:
            arrival[d] = m.depth
        back = queued.get((d, s))
        if back is not None:
            for mate in back:
                if mate_matches(m, mate):
                    back.remove(mate)
                    if not back:
                        del queued[(d, s)]
                    st.annihilated += 1
                    return event
        mutation = self.algorithm.handle(self.nets, d, m, split_done=d in st.split_done)
        if mutation.split:
            st.split_done.add(d)
        self._enqueue(mutation.sends)
        return event

    def step(self) -> Optional[TransmissionEvent]:
        """Transmit one message; None means nothing is queued (quiescent)."""
        st = self.state
        queued = st.queued
        if not queued:
            return None
        if len(st.transcript) >= self.step_budget:
            raise SimulationFault(f"no quiescence after {st.steps} steps (budget "
                                  f"{self.step_budget}, {st.queued_messages()} messages still queued)")
        while True:
            m = self.pool.pop()
            if m in queued.get((m.sender, m.receiver), ()):
                return self._apply(m)

    def run_to_quiescence(self) -> SimState:
        while self.step() is not None:
            pass
        return self.state


@dataclass(frozen=True)
class Metrics:
    message_cost: int
    region_covered: frozenset
    latency: Optional[int]
    path_stretch: Optional[float]
    normalized_cost: Optional[float]
    delivery_rate: Optional[float]
    target_count: int


def compute_metrics(state: SimState, nets: RoutingNets, inst: GeocastInstance) -> Metrics:
    """Cost, coverage, and latency of a quiescent run.

    The furthest target is the reachable in-region device with the greatest
    hop distance from the source on `nets.unit_disk` (ties break to the
    lowest id); in-region devices of other components are not counted.
    """
    cost = len(state.transcript)
    world = nets.world(inst)
    covered = frozenset(state.arrival.keys() & world.region)
    hops, targets, far = world.reach
    if not targets:
        return Metrics(cost, covered, None, None, None, None, 0)
    latency = state.arrival.get(far)
    stretch = latency / hops[far] if latency is not None and hops[far] > 0 else None
    return Metrics(cost, covered, latency, stretch, cost / len(targets),
                   len(covered & targets) / len(targets), len(targets))


def deliver_dominated(state: SimState, nets: RoutingNets, inst: GeocastInstance,
                      backbone: frozenset) -> int:
    """Backbone mode epilogue: one-hop delivery from visited backbone devices
    to dominated in-region neighbors that routing never reached."""
    arrival, transcript = state.arrival, state.transcript
    before = len(transcript)
    for d in sorted(nets.world(inst).region.difference(backbone, arrival)):
        dominators = [u for u in nets.unit_disk.adjacency[d] if u in backbone and u in arrival]
        if dominators:
            u = min(dominators, key=lambda v: (arrival[v], v))
            arrival[d] = arrival[u] + 1
            transcript.append(TransmissionEvent(len(transcript) + 1, "flood", None, u, d, arrival[d]))
    return len(transcript) - before


def run(nets: RoutingNets, inst: GeocastInstance, algorithm: Union[str, Algorithm] = "sf",
        policy: str = DEFAULT_POLICY, seed: int = 0, step_budget: Optional[int] = None, *,
        backbone: Optional[frozenset] = None) -> tuple[SimState, Metrics]:
    """One delivery: simulate to quiescence, then measure on `nets.unit_disk`.

    When `nets` is restricted to a `backbone`, the run ends with the one-hop
    delivery to dominated devices (`deliver_dominated`); that needs
    `nets.unit_disk` to be the unrestricted graph, since `nets.full` has no
    edges off the backbone.  Raises SimulationFault if the step budget runs out.
    """
    if backbone is not None and nets.unit_disk is nets.full:
        raise ValueError("a backbone run needs nets.unit_disk, the unrestricted unit-disk graph")
    state = Simulation(nets, inst, algorithm, policy, seed, step_budget).run_to_quiescence()
    if backbone is not None:
        deliver_dominated(state, nets, inst, backbone)
    return state, compute_metrics(state, nets, inst)


def replay(nets: RoutingNets, inst: GeocastInstance, algorithm: Union[str, Algorithm],
           transcript: Iterable[TransmissionEvent]) -> SimState:
    """Re-apply a transcript to a fresh state; raises ValueError if any event
    names a device outside [0, n) or cannot be matched to a queued message."""
    sim = Simulation(nets, inst, algorithm)
    n = nets.full.n
    for event in transcript:
        if not (0 <= event.sender < n and 0 <= event.receiver < n):
            raise ValueError(f"transcript event {event} names a device outside [0, {n})")
        for m in sim.state.queued.get((event.sender, event.receiver), ()):
            if m.mode == event.mode and m.dir == event.dir and m.depth == event.depth:
                sim._apply(m)
                break
        else:
            raise ValueError(f"transcript event {event} has no queued counterpart")
    return sim.state
