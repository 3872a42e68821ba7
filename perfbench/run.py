#!/usr/bin/env python3
"""geocastsim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload sweep-density --seed 1 --seconds 30 --trace 0

With `--trace 0` it prints the end-to-end metrics, measured with tracing off;
with `--trace 1` the per-layer metrics of a separate traced run.  The last
line of standard output is the result JSON; the line before it holds the
details: fingerprint hashes, the tail percentile and its sample count, the
error rate, any failed check and the environment.  The exit code is 0 only
if every operation succeeded and every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
WORKLOAD_NAMES = ("sweep-density", "planar-policies", "cli-field40")
SETUP_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: a few small inputs, for the self-tests")
    p.add_argument("--reference", default=str(BENCH / "reference.json"),
                   help="reference fingerprint hashes, by size, workload and seed")
    p.add_argument("--step-budget", type=int, default=None,
                   help="planar-policies only: step budget for every run (fault injection)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program() -> None:
    """Use the checkout's own sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "geocastsim" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'geocastsim'} not found: run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import geocastsim
    if Path(geocastsim.__file__).resolve().parent != (src / "geocastsim").resolve():
        sys.exit(f"error: imported geocastsim from {geocastsim.__file__}, not {src}")


def make_workload(args, workdir: str):
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    if args.step_budget is not None:
        if cls is not workloads.PlanarPolicies:
            sys.exit("error: --step-budget applies to planar-policies only")
        return cls(args.seed, args.size, workdir, step_budget=args.step_budget)
    return cls(args.seed, args.size, workdir)


def setup_seconds(args) -> list:
    """Wall time of fresh processes that import geocastsim, make the
    workload's inputs and exit: the set-up a user pays before the first
    operation, repeated so that its median is steady."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def timed_pass(wl):
    t0 = time.perf_counter()
    p = wl.run_pass()
    p.wall = time.perf_counter() - t0
    p.hashes = wl.fingerprint(p)
    return p


def typical_pass(passes: list) -> float:
    """The time of one pass, built from the median of each operation over
    the passes plus the median time between operations.  Every pass runs the
    same operations, and a transient slowdown of the shared machine then
    moves this less than it moves the median pass."""
    per_op = [statistics.median(times) for times in zip(*(p.op_s for p in passes))]
    between = statistics.median(p.wall - sum(p.op_s) for p in passes)
    return sum(per_op) + between


def tail(samples: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which
    percentile that is; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def consistency_problems(passes: list, first) -> list:
    return [f"pass {k}: fingerprint {p.hashes} differs from {first.hashes}"
            for k, p in enumerate(passes) if p.hashes != first.hashes]


def reference_problems(args, hashes: dict) -> list:
    try:
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"reference file {args.reference}: {exc}"]
    expected = reference.get(args.size, {}).get(args.workload, {}).get(str(args.seed))
    if expected is None:
        return []
    return [f"fingerprint {key}: {hashes.get(key)} != reference {value}"
            for key, value in expected.items() if hashes.get(key) != value]


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "platform": platform.platform()}


def plain_run(args, wl) -> tuple[dict, list, dict, list]:
    setups = setup_seconds(args)
    wl.setup()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(timed_pass(wl))
    ops = [t for p in passes for t in p.op_s]
    op_tail, pct = tail(ops)
    wall = typical_pass(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "runs_per_s": (statistics.median(p.runs for p in passes) / wall, "1/s"),
        "steps_per_s": (statistics.median(p.steps for p in passes) / wall, "1/s"),
        "op_ms_p50": (1000.0 * statistics.median(ops), "ms"),
        "op_ms_tail": (1000.0 * op_tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"setup_samples_s": setups, "op_samples": len(ops), "op_tail_percentile": pct}
    return metrics, passes, detail, []


def traced_run(args, wl, workdir: str) -> tuple[dict, list, dict, list]:
    import tracing
    import workloads
    from geocastsim import netgraph

    tracer = tracing.Tracer()
    with tracer.installed("setup"):
        wl.setup()
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        plain.append(timed_pass(wl))
        with tracer.installed(f"pass-{len(traced)}"):
            traced.append(timed_pass(wl))
    first = tracer.run_counts("pass-0")
    problems = [f"traced pass {k} counts differ from pass 0"
                 for k in range(1, len(traced)) if tracer.run_counts(f"pass-{k}") != first]
    with tracer.installed("checks"):
        problems += wl.extra_checks(plain[0], tracer.paused)

    # Layers this workload never calls are timed once in a probe, so that
    # every per-layer metric exists on every workload: a smoke-size sweep, and
    # the cli-field40 commands on the workload's own largest scenario.  They
    # cannot move this workload's end-to-end metrics.
    probes = [workloads.SweepDensity(args.seed, "smoke", os.path.join(workdir, "probe-sweep"))]
    if not isinstance(wl, workloads.CliField40):
        probes.append(workloads.CliField40(args.seed, "smoke", os.path.join(workdir, "probe-cli"),
                                           scenarios=[wl.largest_scenario()]))
    for probe in probes:
        with tracer.installed("probe"):
            probe.setup()
            probe_pass = timed_pass(probe)
            problems += probe.extra_checks(probe_pass, tracer.paused)
        problems += [f"probe {probe.name}: {p}" for p in probe.check(probe_pass)]
        if probe_pass.failed:
            problems.append(f"probe {probe.name}: {probe_pass.failed} operations failed")

    largest = wl.largest_scenario()
    tracemalloc.start()
    netgraph.build_unit_disk(largest.devices, largest.radius)
    peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()

    layers = tracer.per_layer([p.wall for p in traced], [p.wall for p in plain], peak_mb)
    units = per_layer_units()
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}.csv"
    tracer.write(str(spans_path))
    detail = {"spans": str(spans_path.relative_to(ROOT)), "spans_recorded": len(tracer.spans),
              "counts_pass_0": first,
              "peak_mb_kind": "computed: tracemalloc peak of one build_unit_disk call "
                              f"on the workload's largest scenario (n={len(largest.devices)})"}
    return metrics, plain + traced, detail, problems


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    workdir = str(WORK / f"{args.workload}-{os.getpid()}")
    try:
        wl = make_workload(args, workdir)
        if args.setup_only:
            wl.setup()
            return 0
        run = traced_run(args, wl, workdir) if args.trace else plain_run(args, wl)
        metrics, passes, detail, problems = run
        reference = passes[0]
        problems += consistency_problems(passes, reference)
        problems += wl.check(reference)
        problems += reference_problems(args, reference.hashes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    # each failed output check counts as one failed operation
    failed = min(attempted, sum(p.failed for p in passes) + len(problems))
    detail.update({
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "passes": len(passes), "pass_s": [p.wall for p in passes],
        "hashes": reference.hashes, "error_rate": failed / attempted,
        "problems": problems, "environment": environment(),
    })
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
