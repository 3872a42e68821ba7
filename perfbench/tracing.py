"""Spans around the calls into each geocastsim module, recorded from the
benchmark's side: for the length of a traced section the modules' public
functions are rebound to timing wrappers, and `Simulation` to a subclass that
hands the engine a wrapping `Algorithm(name, initiate, handle)`.  Nothing in
`src/` changes.

A span is (name, start, end, parent, run id); spans are kept in memory and
written out when the run ends.  A span's self time is its length minus the
lengths of its direct children.  Counts are recorded at the same boundaries,
per run id.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import geocastsim
from geocastsim import cli, engine, experiments, export, netgraph, protocol

MODULES = {"experiments": experiments, "netgraph": netgraph, "engine": engine,
           "protocol": protocol, "export": export, "cli": cli}

TRACED = {
    "experiments": ("sweep", "gen_scenario", "build_nets", "aggregate", "rows_to_csv"),
    "netgraph": ("build_unit_disk", "gabriel_subgraph", "cds_backbone", "induced_subgraph",
                 "load_scenario", "save_scenario"),
    "engine": ("compute_metrics", "deliver_dominated", "replay"),
    "export": ("write_trace", "read_trace", "render_svg"),
    "cli": ("main",),
}

# span name -> (count name, count of one call from (result, args))
COUNTERS = {
    "netgraph.build_unit_disk": ("edges", lambda result, args: result.edge_count()),
    "netgraph.gabriel_subgraph": ("edges", lambda result, args: result.edge_count()),
    "netgraph.cds_backbone": ("size", lambda result, args: len(result)),
    "engine.deliver_dominated": ("extra", lambda result, args: result),
    "export.write_trace": ("bytes", lambda result, args: os.path.getsize(args[1])),
    "export.render_svg": ("bytes", lambda result, args: len(result.encode("utf-8"))),
}

# the modules every workload's passes call; export and cli self time is in
# the spans file
PASS_MODULES = ("experiments", "netgraph", "engine", "protocol")

SIM_COUNTS = ("steps", "enqueued", "annihilated", "splits")


def _rank(run: str) -> int:
    """Where a layer is measured: in the workload's own traced passes if it
    calls the layer there, else in its set-up or post-run checks, else in the
    probe (see run.py)."""
    if run.startswith("pass-"):
        return 0
    return 2 if run == "probe" else 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1, run id]
        self.counts: dict = defaultdict(Counter)  # run id -> counts
        self.sims: list = []  # (run id, algorithm, simulate span indices, steps)
        self.run = ""
        self.active = False
        self._stack: list = []
        base = engine.Simulation
        self._replacements = {}
        for module, names in TRACED.items():
            for name in names:
                original = getattr(MODULES[module], name)
                fn = self._replay_on(original, base) if name == "replay" else original
                wrapper = self.wrap(f"{module}.{name}", fn, COUNTERS.get(f"{module}.{name}"))
                self._replacements[id(original)] = (original, wrapper)
        self._replacements[id(base)] = (base, self._traced_simulation(base))

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.run])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if counter is not None:
                tracer.counts[tracer.run][f"{name}.{counter[0]}"] += counter[1](result, args)
            return result

        return traced

    @staticmethod
    def _replay_on(replay, base):
        """`replay` drives its own Simulation step by step; run it on the
        untraced class so replayed steps are not counted as simulated ones."""
        def replay_untraced(*args, **kwargs):
            current = engine.Simulation
            engine.Simulation = base
            try:
                return replay(*args, **kwargs)
            finally:
                engine.Simulation = current
        return replay_untraced

    def _traced_simulation(self, base):
        tracer = self

        class TracedSimulation(base):
            """`Simulation(...)` plus `run_to_quiescence()` as two
            `engine.simulate` spans, with the protocol handlers as children."""

            def __init__(self, nets, inst, algorithm="sf", policy="fifo", seed=0,
                         step_budget=None):
                self._trace_spans = None
                if not tracer.active:
                    super().__init__(nets, inst, algorithm, policy, seed, step_budget)
                    return
                alg = protocol.ALGORITHMS[algorithm] if isinstance(algorithm, str) else algorithm
                wrapped = protocol.Algorithm(alg.name,
                                             tracer.wrap("protocol.initiate", alg.initiate),
                                             tracer.wrap("protocol.handle", alg.handle))
                self._trace_alg = alg.name
                self._trace_spans = [tracer.begin("engine.simulate")]
                try:
                    super().__init__(nets, inst, wrapped, policy, seed, step_budget)
                finally:
                    tracer.end(self._trace_spans[0])

            def run_to_quiescence(self):
                if self._trace_spans is None:
                    return super().run_to_quiescence()
                idx = tracer.begin("engine.simulate")
                self._trace_spans.append(idx)
                try:
                    state = super().run_to_quiescence()
                finally:
                    tracer.end(idx)
                tracer.record_sim(self._trace_alg, self._trace_spans, state)
                return state

        return TracedSimulation

    def record_sim(self, alg: str, spans: list, state) -> None:
        counts = self.counts[self.run]
        counts["engine.steps"] += state.steps
        counts["engine.enqueued"] += state.enqueued
        counts["engine.annihilated"] += state.annihilated
        counts["engine.splits"] += len(state.split_done)
        self.sims.append((self.run, alg, tuple(spans), state.steps))

    @contextmanager
    def installed(self, run: str):
        """Rebind the traced functions wherever a geocastsim module (or the
        package) holds them; spans recorded inside carry this run id."""
        patches = []
        for module in (geocastsim, *MODULES.values()):
            for attr, value in list(vars(module).items()):
                rep = self._replacements.get(id(value))
                if rep is not None and rep[0] is value:
                    setattr(module, attr, rep[1])
                    patches.append((module, attr, value))
        self.run, self.active = run, True
        try:
            yield
        finally:
            self.active = False
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def run_counts(self, run: str) -> dict:
        """The counts of one run id, with the number of calls of each span."""
        counts = dict(self.counts[run])
        calls = Counter(s[0] for s in self.spans if s[4] == run)
        counts.update({f"{name}.calls": n for name, n in calls.items()})
        return counts

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (name, start, end, parent, run), c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        """One CSV line per span: name, start, end, parent, run id, self time
        (seconds on the perf_counter clock)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,run,self\n")
            for (name, start, end, parent, run), own in zip(self.spans, self.self_times()):
                fh.write(f"{name},{start!r},{end!r},{parent},{run},{own!r}\n")

    def per_layer(self, traced_walls: list, plain_walls: list, peak_mb: float) -> dict:
        spans = self.spans
        own = self.self_times()
        out = {}

        def best_runs(runs):
            runs = set(runs)
            if not runs:
                return set()
            top = min(_rank(r) for r in runs)
            return {r for r in runs if _rank(r) == top}

        for module, names in TRACED.items():
            for name in names:
                full = f"{module}.{name}"
                where = best_runs(s[4] for s in spans if s[0] == full)
                durations = [s[2] - s[1] for s in spans if s[0] == full and s[4] in where]
                out[f"{full}.ms"] = 1000.0 * statistics.fmean(durations) if durations else 0.0
                if full in COUNTERS:
                    # counts repeat exactly per pass, so one pass stands for all
                    runs = {"pass-0"} if "pass-0" in where else where
                    key = f"{full}.{COUNTERS[full][0]}"
                    out[key] = sum(self.counts[r][key] for r in runs)

        sim_runs = best_runs(run for run, _, _, _ in self.sims)
        sims = [s for s in self.sims if s[0] in sim_runs]
        total = [sum(spans[i][2] - spans[i][1] for i in idx) for _, _, idx, _ in sims]
        selfs = [sum(own[i] for i in idx) for _, _, idx, _ in sims]
        out["engine.simulate.ms"] = 1000.0 * statistics.fmean(total)
        out["engine.self.ms"] = 1000.0 * statistics.fmean(selfs)
        for alg in protocol.ALGORITHMS:
            where = best_runs(run for run, a, _, _ in self.sims if a == alg)
            chosen = [(sum(spans[i][2] - spans[i][1] for i in idx), steps)
                      for run, a, idx, steps in self.sims if a == alg and run in where]
            steps = sum(s for _, s in chosen)
            out[f"engine.us_per_step.{alg}"] = 1e6 * sum(t for t, _ in chosen) / steps if steps else 0.0
        for name in ("handle", "initiate"):
            durations = [s[2] - s[1] for s in spans
                         if s[0] == f"protocol.{name}" and s[4] in sim_runs]
            out[f"protocol.{name}.ms"] = 1000.0 * statistics.fmean(durations)

        first = self.run_counts("pass-0")
        out["protocol.handle.calls"] = first.get("protocol.handle.calls", 0)
        for key in SIM_COUNTS:
            out[f"engine.{key}"] = first.get(f"engine.{key}", 0)
        out["engine.transmit_ratio"] = out["engine.steps"] / out["engine.enqueued"]
        out["netgraph.build_unit_disk.peak_mb"] = peak_mb

        passes = sorted({s[4] for s in spans if s[4].startswith("pass-")})
        per_pass = defaultdict(lambda: defaultdict(float))
        for s, t in zip(spans, own):
            if s[4].startswith("pass-"):
                per_pass[s[0].split(".", 1)[0]][s[4]] += t
        for module in PASS_MODULES:
            out[f"layer_self_ms.{module}"] = 1000.0 * statistics.median(
                per_pass[module][r] for r in passes)
        out["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0)
        return out
