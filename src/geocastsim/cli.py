"""Command-line entry point: generate scenarios, run single deliveries, sweep
parameters, and export traces or drawings."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import experiments, export
from .engine import POLICIES, SimulationFault, run
from .netgraph import load_scenario, save_scenario
from .protocol import ALGORITHMS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAULT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); the contract is 1
        raise ValueError(message)


def parse_values(spec: str) -> list[float]:
    """Comma-separated numbers; `a..b` expands to the inclusive integer range."""
    values: list[float] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo_s, hi_s = chunk.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"empty range {chunk!r}")
            values.extend(float(v) for v in range(lo, hi + 1))
        else:
            values.append(float(chunk))
    if not values:
        raise ValueError("no values given")
    return values


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _parse_algs(spec: str) -> tuple[str, ...]:
    if spec == "all":
        return tuple(ALGORITHMS)
    algs = tuple(s.strip() for s in spec.split(",") if s.strip())
    if not algs:
        raise ValueError("no algorithms given")
    return algs


def build_parser() -> _Parser:
    parser = _Parser(prog="geocastsim", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    defaults = experiments.ExperimentConfig()
    world = argparse.ArgumentParser(add_help=False)  # the flags generate and sweep share
    world.add_argument("--density", type=float, default=defaults.density,
                       help="devices per unit-disk area")
    world.add_argument("--field", type=float, default=defaults.field_side, help="square field side")
    world.add_argument("--region", type=float, default=defaults.region_side,
                       help="square geocast region side")
    world.add_argument("--seed", type=int, default=defaults.seed)

    gen = sub.add_parser("generate", parents=[world], help="write a random scenario file")
    gen.add_argument("--trial", type=non_negative_int, default=0, help="trial index within the seed")
    gen.add_argument("-o", "--output", required=True)

    run_p = sub.add_parser("run", help="run one delivery on a scenario file")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--alg", default="sf", choices=tuple(ALGORITHMS))
    run_p.add_argument("--policy", default=defaults.policy, choices=POLICIES)
    run_p.add_argument("--seed", type=non_negative_int, default=None,
                       help="scheduler seed (defaults to the scenario's)")
    run_p.add_argument("--cds", action="store_true",
                       help="route on the connected-dominating-set backbone")
    run_p.add_argument("--trace", default=None, help="write a JSONL transcript here")

    sweep_p = sub.add_parser("sweep", parents=[world], help="aggregate trials over a parameter axis")
    sweep_p.add_argument("--axis", required=True, choices=tuple(experiments.AXES))
    sweep_p.add_argument("--values", required=True,
                         help="comma list and/or a..b integer ranges, e.g. 3..16 or 4,7,12")
    sweep_p.add_argument("--trials", type=int, default=defaults.trials)
    sweep_p.add_argument("--algs", default="all")
    sweep_p.add_argument("--policy", default=defaults.policy, choices=POLICIES)
    sweep_p.add_argument("--cds", action="store_true")
    sweep_p.add_argument("-o", "--output", required=True)

    exp = sub.add_parser("export", help="render a scenario and trace")
    exp.add_argument("--scenario", required=True)
    exp.add_argument("--trace", required=True)
    exp.add_argument("--format", required=True, choices=("dot", "svg"))
    exp.add_argument("-o", "--output", required=True)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    _check_output("-o", args.output)
    cfg = experiments.ExperimentConfig(
        field_side=args.field, density=args.density, region_side=args.region, seed=args.seed)
    scenario = experiments.gen_scenario(cfg, args.trial)
    save_scenario(scenario, args.output)
    print(f"wrote {args.output}: n={len(scenario.devices)} source={scenario.source} "
          f"region={scenario.region.bounds}")
    return EXIT_OK


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return repr(round(v, 4))
    return str(v)


def _check_output(flag: str, path: str) -> None:
    """Reject an unwritable output path; this opens nothing, so it leaves no file."""
    if not path or os.path.isdir(path) or not os.access(os.path.dirname(path) or ".", os.W_OK):
        raise ValueError(f"{flag} {path}: not a file in a writable directory")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.trace is not None:
        _check_output("--trace", args.trace)
    scenario = load_scenario(args.scenario)
    bundle = experiments.build_nets(scenario, cds=args.cds)
    seed = scenario.seed if args.seed is None else args.seed
    try:
        state, metrics = run(bundle.nets, scenario.instance(), args.alg, args.policy, seed)
    except SimulationFault as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    print(f"cost={metrics.message_cost} latency={_fmt(metrics.latency)} "
          f"stretch={_fmt(metrics.path_stretch)} "
          f"delivered={len(metrics.region_covered)}/{metrics.target_count}")
    if args.trace is not None:
        export.write_trace(state.transcript, args.trace)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = parse_values(args.values)
    cfg = experiments.ExperimentConfig(
        field_side=args.field, density=args.density, region_side=args.region,
        algorithms=_parse_algs(args.algs), trials=args.trials, seed=args.seed,
        policy=args.policy, cds=args.cds)
    _check_output("-o", args.output)
    rows = experiments.sweep(cfg, args.axis, values)
    experiments.write_results_csv(rows, args.output)
    print(f"wrote {args.output}: {len(rows)} rows")
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    _check_output("-o", args.output)
    scenario = load_scenario(args.scenario)
    events = export.read_trace(args.trace)
    n = len(scenario.devices)
    for ev in events:
        for d in (ev.sender, ev.receiver):
            if not 0 <= d < n:
                raise ValueError(f"trace step {ev.step}: device {d} is not in the scenario "
                                 f"(ids run 0..{n - 1})")
    used = export.used_edges_from_trace(events)
    bundle = experiments.build_nets(scenario)
    if args.format == "dot":
        text = export.render_dot(scenario, bundle.nets.unit_disk, used)
    else:
        text = export.render_svg(scenario, bundle.nets.unit_disk, used, planar=bundle.nets.planar)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "generate":
            return _cmd_generate(args)
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "sweep":
            return _cmd_sweep(args)
        return _cmd_export(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
