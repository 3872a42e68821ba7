"""The benchmark's three workloads.

Each workload makes its inputs from the seed (`setup`), runs one closed-loop
pass of operations (`run_pass`: one caller, each operation starting after
the previous one ends), hashes a pass's outputs into its behaviour
fingerprint (`fingerprint`) and checks them against properties that need no
reference hash (`check`).  The program is called only through its public
functions, looked up at call time, so a traced run can rebind them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import geocastsim as gs
from geocastsim import cli, engine, experiments, export

import checks

ALGS = ("sf", "spg", "sf-spg", "sf-spg-g")
PLANAR_ALGS = ("spg", "sf-spg", "sf-spg-g")
POLICIES = ("fifo", "lifo", "random")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return sha256(fh.read())
    except FileNotFoundError:
        return "missing"


@dataclass
class Pass:
    """One pass: per-operation latencies and what the operations produced."""

    op_s: list = field(default_factory=list)
    failed: int = 0
    runs: int = 0  # completed deliveries: (scenario, algorithm, policy, cds) runs
    steps: int = 0  # simulated transmissions, read from the outputs
    outputs: list = field(default_factory=list)
    wall: float = 0.0
    hashes: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.op_s)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def call_cli(argv: list) -> tuple[int, str]:
    """`geocastsim <argv>` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def parse_run_line(text: str) -> Optional[dict]:
    """`cost=12164 latency=44 stretch=1.0 delivered=21/21` -> fields."""
    try:
        fields = dict(item.split("=", 1) for item in text.split())
        covered, targets = fields["delivered"].split("/")
        return {"cost": int(fields["cost"]), "covered": int(covered), "targets": int(targets)}
    except (KeyError, ValueError):
        return None


class SweepDensity:
    """The paper's headline sweep, `geocastsim sweep --axis density --values
    3..16 --algs all --policy fifo`, through `experiments.sweep` at a fixed
    trial count.  Many small networks (n = 95-509); simulation time is mostly
    flood steps.  One operation is one density point: a sweep over several
    values is the concatenation of the one-value sweeps, so the CSV is the
    one `geocastsim sweep` writes."""

    name = "sweep-density"

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.values = list(range(3, 17)) if size == "full" else [3, 4, 5]
        self.trials = 4 if size == "full" else 1
        self.workdir = workdir
        self.cfg = None

    def setup(self) -> None:
        self.cfg = experiments.ExperimentConfig(trials=self.trials, seed=self.seed, policy="fifo")

    def largest_scenario(self):
        return experiments.gen_scenario(replace(self.cfg, density=float(self.values[-1])), 0)

    def run_pass(self) -> Pass:
        p = Pass()
        rows = []
        for v in self.values:
            point, dt = timed(experiments.sweep, self.cfg, "density", [float(v)])
            p.op_s.append(dt)
            p.failed += any(r.faults for r in point)
            rows.extend(point)
        p.outputs = [rows, experiments.rows_to_csv(rows)]
        p.runs = sum(r.trials for r in rows)
        p.steps = round(sum(r.mean_cost * r.trials for r in rows if r.mean_cost is not None))
        return p

    def fingerprint(self, p: Pass) -> dict:
        return {"csv": sha256(p.outputs[1].encode("utf-8"))}

    def check(self, p: Pass) -> list:
        problems = []
        bounds = {}
        for v in self.values:
            point_cfg = replace(self.cfg, density=float(v))
            per_trial = [checks.scenario_bounds(experiments.gen_scenario(point_cfg, t))
                         for t in range(self.trials)]
            bounds[float(v)] = (sum(f for f, _ in per_trial), sum(b for _, b in per_trial))
        for r in p.outputs[0]:
            where = f"density {r.value} {r.algorithm}"
            if r.delivery_rate not in (None, 1.0):
                problems.append(f"{where}: delivery_rate {r.delivery_rate}")
            if r.faults or r.mean_cost is None:
                continue
            flood, planar = bounds[r.value]
            total = r.mean_cost * r.trials
            if r.algorithm == "sf" and round(total) != flood:
                problems.append(f"{where}: total cost {total} != component edges {flood}")
            if r.algorithm == "spg" and total > planar:
                problems.append(f"{where}: total cost {total} above 2E = {planar}")
        return problems

    def extra_checks(self, reference: Pass, untraced) -> list:
        """The CSV `geocastsim sweep` writes with the same arguments must be
        byte-identical to the one the passes produced."""
        os.makedirs(self.workdir, exist_ok=True)
        path = os.path.join(self.workdir, "sweep.csv")
        argv = ["sweep", "--axis", "density", "--values", f"{self.values[0]}..{self.values[-1]}",
                "--trials", str(self.trials), "--algs", "all", "--policy", "fifo",
                "--seed", str(self.seed), "-o", path]
        rc, _ = call_cli(argv)
        if rc != 0:
            return [f"geocastsim sweep exited {rc}"]
        if file_sha256(path) != reference.hashes["csv"]:
            return ["geocastsim sweep CSV differs from the benchmark's"]
        return []


class PlanarPolicies:
    """The paper's default point (field 10, density 7, region 3: n = 223).
    Per scenario one `build_nets`, then the README-library `run(...)` for
    spg, sf-spg and sf-spg-g under fifo, lifo and random; one operation is
    one `run`.  Mostly planar steps.  It runs no `sf`, so a flood-only change
    predicts no change here, and a netgraph-only change should show little."""

    name = "planar-policies"

    def __init__(self, seed: int, size: str, workdir: str, step_budget: Optional[int] = None):
        self.seed = seed
        self.count = 40 if size == "full" else 2
        self.step_budget = step_budget
        self.scenarios = []

    def setup(self) -> None:
        cfg = experiments.ExperimentConfig(seed=self.seed)
        self.scenarios = [experiments.gen_scenario(cfg, i) for i in range(self.count)]

    def largest_scenario(self):
        return self.scenarios[0]

    def run_pass(self) -> Pass:
        p = Pass()
        for index, sc in enumerate(self.scenarios):
            bundle = experiments.build_nets(sc)
            inst = sc.instance()
            for alg in PLANAR_ALGS:
                for policy in POLICIES:
                    t0 = time.perf_counter()
                    try:
                        _, m = gs.run(bundle.nets, inst, alg, policy, seed=sc.seed,
                                      step_budget=self.step_budget)
                    except engine.SimulationFault:
                        m = None
                    p.op_s.append(time.perf_counter() - t0)
                    p.outputs.append((index, alg, policy, m))
                    if m is None:
                        p.failed += 1
                    else:
                        p.runs += 1
                        p.steps += m.message_cost
        return p

    def fingerprint(self, p: Pass) -> dict:
        tuples = [None if m is None else
                  (m.message_cost, m.latency, m.path_stretch, len(m.region_covered))
                  for _, _, _, m in p.outputs]
        return {"runs": sha256(repr(tuples).encode("utf-8"))}

    def check(self, p: Pass) -> list:
        problems = []
        bounds = [checks.scenario_bounds(sc) for sc in self.scenarios]
        for index, alg, policy, m in p.outputs:
            if m is None:
                continue
            where = f"scenario {index} {alg}/{policy}"
            if m.delivery_rate not in (None, 1.0):
                problems.append(f"{where}: delivery_rate {m.delivery_rate}")
            if alg == "spg" and m.message_cost > bounds[index][1]:
                problems.append(f"{where}: cost {m.message_cost} above 2E = {bounds[index][1]}")
        return problems

    def extra_checks(self, reference: Pass, untraced) -> list:
        return []


class CliField40:
    """`geocastsim run` in-process on field-40 scenario files (n = 3,565):
    per file, all four algorithms with and without --cds, each with --trace,
    then one `export --format svg`; each command is one operation.  Dominated
    by netgraph and export, and the only workload that exercises the CDS
    backbone, `deliver_dominated` and trace I/O.  Two files per pass halve
    the spread between seeds that one file alone shows."""

    name = "cli-field40"
    RUNS = tuple((alg, cds) for cds in (False, True) for alg in ALGS)

    def __init__(self, seed: int, size: str, workdir: str, scenarios: Optional[list] = None):
        self.seed = seed
        self.field = 40.0 if size == "full" else 10.0
        self.workdir = workdir
        self.scenarios = scenarios
        self.paths = []

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        if self.scenarios is None:
            cfg = experiments.ExperimentConfig(seed=self.seed, field_side=self.field)
            self.scenarios = [experiments.gen_scenario(cfg, i) for i in range(2)]
        self.paths = [os.path.join(self.workdir, f"scenario-{i}.json")
                      for i in range(len(self.scenarios))]
        for sc, path in zip(self.scenarios, self.paths):
            gs.save_scenario(sc, path)

    def largest_scenario(self):
        return max(self.scenarios, key=lambda sc: len(sc.devices))

    def _trace(self, index: int, alg: str, cds: bool) -> str:
        return os.path.join(self.workdir, f"trace-{index}-{alg}{'-cds' if cds else ''}.jsonl")

    def _svg(self, index: int) -> str:
        return os.path.join(self.workdir, f"run-{index}.svg")

    def run_pass(self) -> Pass:
        p = Pass()
        for index, path in enumerate(self.paths):
            for alg, cds in self.RUNS:
                argv = ["run", "--scenario", path, "--alg", alg, "--policy", "fifo",
                        "--trace", self._trace(index, alg, cds)] + (["--cds"] if cds else [])
                (rc, out), dt = timed(call_cli, argv)
                p.op_s.append(dt)
                parsed = parse_run_line(out) if rc == 0 else None
                p.outputs.append((index, alg, cds, out.strip() if parsed else f"exit {rc}", parsed))
                if parsed is None:
                    p.failed += 1
                else:
                    p.runs += 1
                    p.steps += parsed["cost"]
            (rc, _), dt = timed(call_cli, ["export", "--scenario", path,
                                           "--trace", self._trace(index, "sf-spg", False),
                                           "--format", "svg", "-o", self._svg(index)])
            p.op_s.append(dt)
            p.failed += rc != 0
        return p

    def fingerprint(self, p: Pass) -> dict:
        lines = "\n".join(line for _, _, _, line, _ in p.outputs)
        traces = "\n".join(file_sha256(self._trace(index, alg, cds))
                           for index in range(len(self.paths)) for alg, cds in self.RUNS)
        svgs = "\n".join(file_sha256(self._svg(index)) for index in range(len(self.paths)))
        return {"runs": sha256(lines.encode("utf-8")),
                "traces": sha256(traces.encode("utf-8")),
                "svg": sha256(svgs.encode("utf-8"))}

    def check(self, p: Pass) -> list:
        problems = []
        bounds = [checks.scenario_bounds(sc) for sc in self.scenarios]
        for index, alg, cds, _, parsed in p.outputs:
            if parsed is None:
                continue
            where = f"scenario {index} {alg}{' --cds' if cds else ''}"
            if parsed["covered"] != parsed["targets"]:
                problems.append(f"{where}: delivered {parsed['covered']}/{parsed['targets']}")
            flood, planar = bounds[index]
            if not cds and alg == "sf" and parsed["cost"] != flood:
                problems.append(f"{where}: cost {parsed['cost']} != component edges {flood}")
            if not cds and alg == "spg" and parsed["cost"] > planar:
                problems.append(f"{where}: cost {parsed['cost']} above 2E = {planar}")
        return problems

    def extra_checks(self, reference: Pass, untraced) -> list:
        """Read each written trace back and replay it, as a check that the
        trace is complete.  A --cds trace ends with the one-hop deliveries to
        dominated devices, which are off the backbone and not replayable;
        everything before them must replay to quiescence."""
        problems = []
        for index, sc in enumerate(self.scenarios):
            inst = sc.instance()
            with untraced():
                bundles = {cds: experiments.build_nets(sc, cds=cds) for cds in (False, True)}
            for alg, cds in self.RUNS:
                bundle = bundles[cds]
                events = export.read_trace(self._trace(index, alg, cds))
                simulated = len(events)
                if cds:
                    while simulated and events[simulated - 1].receiver not in bundle.backbone:
                        simulated -= 1
                where = f"replay scenario {index} {alg}{' --cds' if cds else ''}"
                try:
                    state = engine.replay(bundle.nets, inst, alg, events[:simulated])
                except ValueError as exc:
                    problems.append(f"{where}: {exc}")
                    continue
                if state.queued_messages() != 0:
                    problems.append(f"{where}: trace ends before quiescence")
        return problems


WORKLOADS = {cls.name: cls for cls in (SweepDensity, PlanarPolicies, CliField40)}
