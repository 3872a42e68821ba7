"""Fair atomic-step scheduler over per-edge send queues, plus metrics.

One transmission per step: a queued message is selected by the scheduling
policy, removed from its edge's queue and delivered.  If the receiver holds a
*mate* of it on the reverse edge, the oldest one is annihilated with it and no
handler runs; otherwise the algorithm's handler returns the messages to
enqueue.  Annihilated mates never count as transmissions.  Everything is
deterministic for a fixed (scenario, algorithm, policy, seed).
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

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


# The pools keep annihilated mates too; `Simulation` skips them, and pops
# only while something is queued.

class _DequePool:
    """The oldest (fifo) or the newest (lifo) pooled message."""

    def __init__(self, lifo: bool) -> None:
        items: deque = deque()
        self.add = items.append
        self.pop = items.pop if lifo else items.popleft


def raw_words(bits: np.random.BitGenerator) -> Iterator[int]:
    """The 32-bit words of `bits`, low half of each 64-bit output first, read in blocks."""
    while True:
        yield from bits.random_raw(64).astype("<u8").view("<u4").tolist()


def bounded_index(words: Iterator[int], n: int) -> int:
    """The index in [0, n), 1 <= n < 2**32, that `Generator.integers(n)` returns
    when its bit generator yields `words`: Lemire's multiply-and-reject (2019),
    as numpy draws it.  n == 1 draws nothing."""
    if n == 1:
        return 0
    floor = 2 ** 32 % n
    while ((m := next(words) * n) & 0xFFFFFFFF) < floor:
        pass
    return m >> 32


class _RandomPool:
    """Uniform choice over all pooled messages: `substream(seed, 0).integers(len(pool))`."""

    def __init__(self, seed: int) -> None:
        self._items: list = []
        self.add = self._items.append
        self._words = raw_words(substream(seed, 0).bit_generator)

    def pop(self) -> Message:
        items = self._items
        i = bounded_index(self._words, len(items))
        m = items[i]
        items[i] = items[-1]
        items.pop()
        return m


class _MatchingPool:
    """Replay's pool: `pop` is a pick that reads the queues, so `add` keeps nothing."""

    def __init__(self, pop: Callable[[], Message]) -> None:
        self.pop, self.add = pop, lambda m: None


class SimState:
    """Queued messages by directed edge (sender, receiver), oldest first, plus the
    transcript, one-shot gate and counters; `Simulation.pool` picks each step."""

    def __init__(self) -> None:
        self.queued: dict[tuple[DeviceId, DeviceId], list[Message]] = {}
        self.transcript: list[TransmissionEvent] = []
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
            step_budget = BUDGET_FACTOR * nets.full.n * max(1, nets.max_degree)
        self.step_budget = step_budget
        if policy in ("fifo", "lifo"):
            self.pool = _DequePool(lifo=policy == "lifo")
        elif policy == "random":
            if seed < 0:
                raise ValueError(f"seed must be non-negative, got {seed!r}")
            self.pool = _RandomPool(seed)
        else:
            raise ValueError(f"unknown policy {policy!r}")
        self.state = SimState()
        # the source has already participated: its one-shot emissions happen
        # at initiation, so later receipts only forward or annihilate
        self.state.split_done.add(inst.source)
        self._advance(self.pool.pop, 0, self.algorithm.initiate(nets, nets.world(inst)))

    def _advance(self, pick: Callable[[], Message], count: int = sys.maxsize,
                 sends: Sequence[Message] = ()) -> Optional[TransmissionEvent]:
        """The step loop: enqueue `sends`, then transmit up to `count` messages (fewer
        if the queues run dry) and return the last event, if any.  `pick` returns a pooled
        message, skipped if no longer queued; the budget is checked first, so a fault changes nothing."""
        st = self.state
        queued, transcript, split_done = st.queued, st.transcript, st.split_done
        nets, handle, add, budget = self.nets, self.algorithm.handle, self.pool.add, self.step_budget
        new_event = tuple.__new__  # the NamedTuple's own __new__ is a Python-level call
        stop = len(transcript) + count
        event = None
        while True:
            for x in sends:
                queued.setdefault((x.sender, x.receiver), []).append(x)
                add(x)
            st.enqueued += len(sends)
            step = len(transcript)
            if not queued or step >= stop:
                return event
            if step >= budget:
                raise SimulationFault(f"no quiescence after {step} steps (budget "
                                      f"{budget}, {st.queued_messages()} messages still queued)")
            while True:
                m = pick()
                s, d = m.sender, m.receiver
                edge = queued.get((s, d))
                if edge is not None and m in edge:
                    break
            edge.remove(m)
            if not edge:
                del queued[(s, d)]
            event = new_event(TransmissionEvent, (step + 1, m.mode, m.dir, s, d, m.depth))
            transcript.append(event)
            sends = ()
            for mate in queued.get((d, s), ()):
                if mate_matches(m, mate):
                    back = queued[(d, s)]
                    back.remove(mate)
                    if not back:
                        del queued[(d, s)]
                    st.annihilated += 1
                    break
            else:
                mutation = handle(nets, d, m, split_done=d in split_done)
                if mutation.split:
                    split_done.add(d)
                sends = mutation.sends

    def step(self) -> Optional[TransmissionEvent]:
        """Transmit one message; None means nothing is queued (quiescent)."""
        return self._advance(self.pool.pop, 1)

    def run_to_quiescence(self) -> SimState:
        self._advance(self.pool.pop)
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


def arrivals(transcript: Iterable[TransmissionEvent], source: DeviceId) -> dict[DeviceId, int]:
    """Each visited device's least depth in `transcript`; the source's is 0."""
    arrival = {source: 0}
    for e in transcript:
        if e.depth < arrival.get(e.receiver, sys.maxsize):
            arrival[e.receiver] = e.depth
    return arrival


def compute_metrics(state: SimState, nets: RoutingNets, inst: GeocastInstance) -> Metrics:
    """Cost, coverage, and latency of a quiescent run.

    The furthest target is the reachable in-region device with the greatest
    hop distance from the source on `nets.unit_disk` (ties break to the
    lowest id); in-region devices of other components are not counted.
    """
    cost = len(state.transcript)
    world = nets.world(inst)
    arrival = arrivals(state.transcript, inst.source)
    covered = frozenset(arrival.keys() & world.region)
    hops, targets, far = world.reach
    if not targets:
        return Metrics(cost, covered, None, None, None, None, 0)
    latency = arrival.get(far)
    stretch = latency / hops[far] if latency is not None and hops[far] > 0 else None
    return Metrics(cost, covered, latency, stretch, cost / len(targets),
                   len(covered & targets) / len(targets), len(targets))


def deliver_dominated(state: SimState, nets: RoutingNets, inst: GeocastInstance) -> int:
    """Backbone epilogue: each unvisited in-region device that `nets.full` leaves
    isolated (it is off the backbone) gets one hop on `nets.unit_disk` from its
    visited neighbor of least depth, lowest id on ties; returns how many did."""
    transcript, arrival = state.transcript, arrivals(state.transcript, inst.source)
    before = len(transcript)
    for d in sorted(nets.world(inst).region.difference(arrival)):
        dominators = [u for u in nets.unit_disk.adjacency[d] if u in arrival]
        if dominators and not nets.full.adjacency[d]:
            u = min(dominators, key=lambda v: (arrival[v], v))
            transcript.append(TransmissionEvent(len(transcript) + 1, "flood", None, u, d, arrival[u] + 1))
    return len(transcript) - before


def run(nets: RoutingNets, inst: GeocastInstance, algorithm: Union[str, Algorithm] = "sf",
        policy: str = DEFAULT_POLICY, seed: int = 0,
        step_budget: Optional[int] = None) -> tuple[SimState, Metrics]:
    """One delivery: simulate to quiescence, then measure on `nets.unit_disk`.  A run on
    a backbone (`nets.unit_disk` is not `nets.full`) ends with the one-hop delivery to
    dominated devices, `deliver_dominated`.  Raises SimulationFault if the step budget runs out."""
    state = Simulation(nets, inst, algorithm, policy, seed, step_budget).run_to_quiescence()
    if nets.unit_disk is not nets.full:
        deliver_dominated(state, nets, inst)
    return state, compute_metrics(state, nets, inst)


def replay(nets: RoutingNets, inst: GeocastInstance, algorithm: Union[str, Algorithm],
           transcript: Sequence[TransmissionEvent]) -> SimState:
    """Re-run the step loop, picking the queued message each event names; raises
    ValueError if an event names a device outside [0, n) or no queued message."""
    sim = Simulation(nets, inst, algorithm, step_budget=len(transcript))
    queued, done = sim.state.queued, sim.state.transcript
    n = nets.full.n

    def matching() -> Message:
        event = transcript[len(done)]
        if not (0 <= event.sender < n and 0 <= event.receiver < n):
            raise ValueError(f"transcript event {event} names a device outside [0, {n})")
        for m in queued.get((event.sender, event.receiver), ()):
            if m.mode == event.mode and m.dir == event.dir and m.depth == event.depth:
                return m
        raise ValueError(f"transcript event {event} has no queued counterpart")

    sim.pool = _MatchingPool(matching)  # drops the fifo pool and the initiation it holds
    sim._advance(matching, len(transcript))
    if len(done) < len(transcript):
        matching()  # the queues ran dry: raises for the next event
    return sim.state
