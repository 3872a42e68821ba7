"""The routing algorithms as pure handler functions.

Each handler maps (networks, receiving device, delivered message) to the
messages that device enqueues.  Devices keep no protocol state beyond their
send queues, which the engine owns; the engine also applies the mate rule
(`mate_matches`) before any handler runs, so a handler sees only arrivals
that met no mate.  One flag, `split_done`, tells whether the device has fired
its one-shot emission (face splitting outside the region, the flood-plus-pair
burst inside it); that gate keeps the stateless rules terminating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .geometry import LEFT, RIGHT, dist2, wedge_contains_direction
from .netgraph import (
    DeviceId,
    GeocastInstance,
    Network,
    World,
    local_faces,
    wedge_qualifies,
)

FLOOD = "flood"
PLANAR = "planar"
GREEDY = "greedy"


class Message:
    """One queued or in-flight message.  `dir` is L/R for planar mode, else None."""

    __slots__ = ("mode", "dir", "sender", "receiver", "world", "depth")

    def __init__(self, mode: str, dir: Optional[str], sender: DeviceId,
                 receiver: DeviceId, world: World, depth: int):
        if sender == receiver:
            raise ValueError("a message cannot be addressed to its sender")
        if depth < 1:
            raise ValueError("depth starts at 1")
        self.mode = mode
        self.dir = dir
        self.sender = sender
        self.receiver = receiver
        self.world = world
        self.depth = depth

    def __repr__(self) -> str:  # debugging aid
        tag = self.dir if self.mode == PLANAR else self.mode[0].upper()
        return f"{tag}({self.sender}->{self.receiver})@{self.depth}"


class Mutations(NamedTuple):
    """Handler outcome: the messages to enqueue.  `split` reports that the
    device fired its one-shot emission (a face split or a region burst)."""

    sends: list
    split: bool = False


class RoutingNets:
    """A run's world: the graphs an algorithm routes on (`full` unit-disk and
    `planar` overlay), `unit_disk`, the graph a run is measured on (`full`
    itself unless it routes on a backbone), and `worlds`, the one `World` of
    each instance value on `unit_disk`, made when first resolved."""

    def __init__(self, full: Network, planar: Network, unit_disk: Optional[Network] = None):
        self.full, self.planar = full, planar
        self.unit_disk = full if unit_disk is None else unit_disk
        self.worlds: dict[GeocastInstance, World] = {}

    def world(self, inst: GeocastInstance) -> World:
        """The world of `inst`; a world of the same region lends it its
        in-region set, so each region is scanned once."""
        if (w := self.worlds.get(inst)) is None:
            kin = next((k.region for k in self.worlds.values() if k.inst.region == inst.region), None)
            w = self.worlds[inst] = World(self.unit_disk, inst, kin)
        return w


def opposite(direction: str) -> str:
    return LEFT if direction == RIGHT else RIGHT


def mate_matches(m1: Message, m2: Message) -> bool:
    """Mates: same world, each one's sender is the other's receiver, and
    either both flood or both planar with opposite traversal directions."""
    if (m1.sender != m2.receiver or m1.receiver != m2.sender or m1.mode != m2.mode
            or m1.world is not m2.world):
        return False
    return m1.mode == FLOOD or (m1.mode == PLANAR and m1.dir != m2.dir)


# --- stateless flooding -----------------------------------------------------

def sf_initiate(nets: RoutingNets, world: World) -> list:
    src = world.inst.source
    return [Message(FLOOD, None, src, u, world, 1) for u in nets.full.adjacency[src]]


def sf_handle(nets: RoutingNets, d: DeviceId, m: Message,
              split_done: bool = False) -> Mutations:
    return Mutations([Message(FLOOD, None, d, u, m.world, m.depth + 1)
                      for u in nets.full.adjacency[d] if u != m.sender])


# --- planar geocast ---------------------------------------------------------

def _pair_into_wedge(d: DeviceId, wedge: tuple[DeviceId, DeviceId],
                     world: World, depth: int) -> list:
    # Into wedge (u, w) with w the ccw successor of u: the left-hand message
    # goes to w and the right-hand message to u, so both traverse the face
    # spanned by the wedge, in opposite directions.
    u, w = wedge
    return [Message(PLANAR, LEFT, d, w, world, depth),
            Message(PLANAR, RIGHT, d, u, world, depth)]


def _bracketing_wedge(net: Network, at: DeviceId, world: World) -> Optional[tuple[DeviceId, DeviceId]]:
    """The wedge at `at` containing the direction toward the region center.

    With the device exactly at the center the direction is undefined; fall
    back to the first qualifying wedge in angular order (any wedge whose edge
    meets the region), then to the first wedge.
    """
    wedges = local_faces(net, at)
    if not wedges:
        return None
    pos = net.positions
    center = world.inst.region.center
    if pos[at] == center:
        for wedge in wedges:
            if wedge_qualifies(world, at, wedge):
                return wedge
        return wedges[0]
    for wedge in wedges:
        if wedge_contains_direction(pos[at], pos[wedge[0]], pos[wedge[1]], center):
            return wedge
    return wedges[0]  # unreachable: wedges cover the full angle


def spg_initiate(nets: RoutingNets, world: World, depth: int = 1) -> list:
    wedge = _bracketing_wedge(nets.planar, world.inst.source, world)
    if wedge is None:
        return []
    return _pair_into_wedge(world.inst.source, wedge, world, depth)


def continuation(net: Network, d: DeviceId, sender: DeviceId,
                 rule: str) -> tuple[DeviceId, tuple[DeviceId, DeviceId]]:
    """Next hop at d of a planar message from `sender`, plus the wedge of the
    face it traverses.  On the ccw adjacency the right-hand rule (R) is the
    predecessor of the sender and the left-hand rule (L) its successor; a
    dead end bounces back."""
    nbrs = net.adjacency[d]
    i = nbrs.index(sender)
    if rule == RIGHT:
        nxt = nbrs[i - 1]
        return nxt, (nxt, sender)
    nxt = nbrs[(i + 1) % len(nbrs)]
    return nxt, (sender, nxt)


def spg_handle(nets: RoutingNets, d: DeviceId, m: Message,
               split_done: bool = False) -> Mutations:
    net = nets.planar
    nxt, current = continuation(net, d, m.sender, m.dir)
    sends: list = []
    split = False
    world = m.world
    if not split_done and wedge_qualifies(world, d, current):
        split = True
        for wedge in local_faces(net, d):
            if wedge != current and wedge_qualifies(world, d, wedge):
                sends.extend(_pair_into_wedge(d, wedge, world, m.depth + 1))
    sends.append(Message(PLANAR, m.dir, d, nxt, world, m.depth + 1))
    return Mutations(sends, split)


# --- flood inside the region, planar outside --------------------------------

def _region_burst(nets: RoutingNets, world: World, d: DeviceId,
                  exclude: Optional[DeviceId], depth: int) -> list:
    """One flood message per in-region neighbor and one L/R pair per
    out-of-region planar neighbor, skipping `exclude`."""
    region = world.region
    sends: list = []
    for u in nets.full.adjacency[d]:
        if u != exclude and u in region:
            sends.append(Message(FLOOD, None, d, u, world, depth))
    for u in nets.planar.adjacency[d]:
        if u != exclude and u not in region:
            sends.append(Message(PLANAR, LEFT, d, u, world, depth))
            sends.append(Message(PLANAR, RIGHT, d, u, world, depth))
    return sends


def combined_initiate(nets: RoutingNets, world: World) -> list:
    if (src := world.inst.source) in world.region:
        return _region_burst(nets, world, src, None, 1)
    return spg_initiate(nets, world)


def combined_handle(nets: RoutingNets, d: DeviceId, m: Message,
                    split_done: bool = False) -> Mutations:
    if d not in (world := m.world).region:
        return spg_handle(nets, d, m, split_done)
    if split_done:
        return Mutations([])  # the burst is one-shot, like the face split
    # a greedy arrival has no partner walker and gets no reply, so the faces
    # flanking its arrival edge are explored via a pair to the sender; flood
    # and planar arrivals keep the sender exclusion
    exclude = None if m.mode == GREEDY else m.sender
    sends = _region_burst(nets, world, d, exclude, m.depth + 1)
    if m.mode == PLANAR:
        # reply with the exact mate of the arrival: the sender-side traversal annihilates
        sends.append(Message(PLANAR, opposite(m.dir), d, m.sender, world, m.depth + 1))
    return Mutations(sends, True)


# --- greedy approach, then the combined algorithm ---------------------------

def _closest_to_center(nets: RoutingNets, world: World, d: DeviceId) -> Optional[DeviceId]:
    # greedy forwards on the planar overlay, like the rest of the planar
    # machinery it switches into
    net = nets.planar
    center = world.inst.region.center
    here = dist2(net.positions[d], center)
    best: Optional[DeviceId] = None
    best_d2 = here
    for u in net.adjacency[d]:
        d2 = dist2(net.positions[u], center)
        if d2 < best_d2 or (best is not None and d2 == best_d2 and u < best):
            best = u
            best_d2 = d2
    return best  # None means local minimum (ties count as no progress)


def greedy_initiate(nets: RoutingNets, world: World) -> list:
    src = world.inst.source
    if src in world.region:
        return combined_initiate(nets, world)
    target = _closest_to_center(nets, world, src)
    if target is not None:
        return [Message(GREEDY, None, src, target, world, 1)]
    return spg_initiate(nets, world)


def greedy_handle(nets: RoutingNets, d: DeviceId, m: Message,
                  split_done: bool = False) -> Mutations:
    if m.mode != GREEDY:
        return combined_handle(nets, d, m, split_done)
    world = m.world
    if d in world.region:
        # the greedy phase ends here: re-anchor the guide line at the switch
        # device, then apply the in-region rule
        anchored = nets.world(GeocastInstance.create(d, nets.full.positions[d], world.inst.region))
        handoff = Message(GREEDY, None, m.sender, d, anchored, m.depth)
        return combined_handle(nets, d, handoff, split_done)
    target = _closest_to_center(nets, world, d)
    if target is not None:
        return Mutations([Message(GREEDY, None, d, target, world, m.depth + 1)])
    # local minimum: the other switch point, re-anchored the same way
    anchored = nets.world(GeocastInstance.create(d, nets.full.positions[d], world.inst.region))
    return Mutations(spg_initiate(nets, anchored, depth=m.depth + 1))


@dataclass(frozen=True)
class Algorithm:
    name: str
    initiate: Callable[[RoutingNets, World], list]
    handle: Callable[..., Mutations]


ALGORITHMS: dict[str, Algorithm] = {
    "sf": Algorithm("sf", sf_initiate, sf_handle),
    "spg": Algorithm("spg", spg_initiate, spg_handle),
    "sf-spg": Algorithm("sf-spg", combined_initiate, combined_handle),
    "sf-spg-g": Algorithm("sf-spg-g", greedy_initiate, greedy_handle),
}
