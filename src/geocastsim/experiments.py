"""Scenario generation and parameter sweeps with reproducible aggregation.

All randomness flows from one root seed through counter-based substreams keyed
by (trial, purpose), so results are identical across machines and across runs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .engine import DEFAULT_POLICY, POLICIES, Metrics, SimulationFault, run, substream
from .netgraph import (
    DOMAIN_LIMIT,
    Point,
    Rect,
    Scenario,
    build_unit_disk,
    cds_backbone,
    gabriel_subgraph,
    induced_subgraph,
    pairwise_distinct,
)
from .protocol import ALGORITHMS, RoutingNets

_PURPOSE_SCENARIO = 1
_PURPOSE_RUN_SEED = 2

# Largest device count a configuration may ask for.  A network holds a few
# Python objects per device and per edge, so a million devices already take
# hundreds of megabytes; far larger counts would fail on allocation.
MAX_DEVICES = 1_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    field_side: float = 10.0
    density: float = 7.0
    region_side: float = 3.0
    algorithms: tuple[str, ...] = tuple(ALGORITHMS)
    trials: int = 100
    seed: int = 0
    policy: str = DEFAULT_POLICY
    cds: bool = False

    def __post_init__(self) -> None:
        for name in ("field_side", "density"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not self.field_side <= DOMAIN_LIMIT:
            raise ValueError(f"field_side must be at most 2**511, got {self.field_side!r}")
        if not 0 <= self.region_side <= self.field_side:
            raise ValueError(f"region_side must lie in [0, field_side = {self.field_side!r}], "
                             f"got {self.region_side!r}")
        count = self.density * self.field_side * self.field_side / math.pi
        if not count <= MAX_DEVICES:
            raise ValueError(f"device count density * field_side**2 / pi = {count:.3g} "
                             f"exceeds {MAX_DEVICES:,}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials!r}")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r} (choose from {', '.join(ALGORITHMS)})")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")


AXES = {"density": "density", "region": "region_side", "field": "field_side"}


def device_count(density: float, field_side: float) -> int:
    """Number of devices: field area divided by the unit-circle area, times
    the density, rounded to the nearest integer (at least one device)."""
    return max(1, round(density * field_side * field_side / math.pi))


def gen_scenario(cfg: ExperimentConfig, trial_index: int) -> Scenario:
    if trial_index < 0:
        raise ValueError(f"trial_index must be non-negative, got {trial_index!r}")
    rng = substream(cfg.seed, trial_index, _PURPOSE_SCENARIO)
    side = cfg.field_side
    n = device_count(cfg.density, side)
    coords = rng.uniform(0.0, side, size=(n, 2))
    while not pairwise_distinct(*coords.T):  # redraw until no two devices coincide
        coords = rng.uniform(0.0, side, size=(n, 2))
    pts = tuple(map(Point, *coords.T.tolist()))
    source = int(rng.integers(n))
    span = side - cfg.region_side
    ox = float(rng.uniform(0.0, span)) if span > 0 else 0.0
    oy = float(rng.uniform(0.0, span)) if span > 0 else 0.0
    region = Rect.from_bounds(ox, oy, ox + cfg.region_side, oy + cfg.region_side)
    run_seed = int(substream(cfg.seed, trial_index, _PURPOSE_RUN_SEED).integers(2 ** 62))
    return Scenario(1.0, (side, side), pts, source, region, run_seed)


@dataclass(frozen=True)
class NetBundle:
    nets: RoutingNets
    backbone: Optional[frozenset]


def build_nets(scenario: Scenario, cds: bool = False) -> NetBundle:
    full = build_unit_disk(scenario.devices, scenario.radius)
    if not cds:
        return NetBundle(RoutingNets(full, gabriel_subgraph(full)), None)
    backbone = cds_backbone(full)
    backbone.add(scenario.source)
    restricted = induced_subgraph(full, backbone)
    # planarize the restricted graph itself so the backbone overlay keeps its
    # connectivity component-wise
    planar = gabriel_subgraph(restricted)
    return NetBundle(RoutingNets(restricted, planar, full), frozenset(backbone))


def run_trial(scenario: Scenario, algorithm: str, bundle: NetBundle,
              policy: str = DEFAULT_POLICY) -> Optional[Metrics]:
    """Metrics of one delivery of the scenario's instance on its networks, or
    None if it faulted.  Runs on one bundle share its routing value's worlds."""
    try:
        _, metrics = run(bundle.nets, scenario.instance(), algorithm, policy, scenario.seed)
    except SimulationFault:
        return None
    return metrics


@dataclass(frozen=True)
class ResultRow:
    axis: str
    value: float
    algorithm: str
    trials: int
    faults: int
    mean_cost: Optional[float]
    ci_cost: Optional[float]
    mean_norm_cost: Optional[float]
    ci_norm_cost: Optional[float]
    mean_stretch: Optional[float]
    ci_stretch: Optional[float]
    median_cost: Optional[float]
    delivery_rate: Optional[float]


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def mean_ci(values: Sequence[float]) -> tuple[Optional[float], Optional[float]]:
    """Sample mean and 95% half-width under the normal approximation."""
    if not values:
        return None, None
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    half = float(1.96 * arr.std(ddof=1) / math.sqrt(len(arr)))
    return mean, half


def aggregate(axis: str, value: float, algorithm: str,
              results: Sequence[Optional[Metrics]]) -> ResultRow:
    """One CSV row from the trials' metrics; None marks a faulted trial."""
    ok = [m for m in results if m is not None]
    faults = len(results) - len(ok)
    costs = [float(m.message_cost) for m in ok]
    norm = [m.normalized_cost for m in ok if m.normalized_cost is not None]
    stretch = [m.path_stretch for m in ok if m.path_stretch is not None]
    rates = [m.delivery_rate for m in ok if m.delivery_rate is not None]
    mean_cost, ci_cost = mean_ci(costs)
    mean_norm, ci_norm = mean_ci(norm)
    mean_stretch, ci_stretch = mean_ci(stretch)
    return ResultRow(
        axis=axis, value=value, algorithm=algorithm, trials=len(ok), faults=faults,
        mean_cost=mean_cost, ci_cost=ci_cost,
        mean_norm_cost=mean_norm, ci_norm_cost=ci_norm,
        mean_stretch=mean_stretch, ci_stretch=ci_stretch,
        median_cost=float(np.median(costs)) if costs else None,
        delivery_rate=float(np.mean(rates)) if rates else None,
    )


def sweep(cfg: ExperimentConfig, axis: str, values: Sequence[float]) -> list[ResultRow]:
    """For each value on the axis, run cfg.trials trials of every algorithm
    with the other two parameters held at their configured defaults.  All
    algorithms see the same scenarios."""
    if not values:
        raise ValueError("sweep needs at least one value")
    if axis not in AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    points = [(v, replace(cfg, **{AXES[axis]: v})) for v in values]  # all checked before any trial
    rows = []
    for value, point_cfg in points:
        per_alg: dict[str, list[Optional[Metrics]]] = {alg: [] for alg in cfg.algorithms}
        for trial in range(cfg.trials):
            scenario = gen_scenario(point_cfg, trial)
            bundle = build_nets(scenario, cfg.cds)
            for alg in cfg.algorithms:
                per_alg[alg].append(run_trial(scenario, alg, bundle, cfg.policy))
        for alg in cfg.algorithms:
            rows.append(aggregate(axis, value, alg, per_alg[alg]))
    return rows


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for r in rows:
        writer.writerow([_cell(getattr(r, col)) for col in RESULT_COLUMNS])
    return buf.getvalue()


def write_results_csv(rows: Sequence[ResultRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))
