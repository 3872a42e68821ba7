#!/usr/bin/env python3
"""Generate one scenario, run an algorithm on it, and render the outcome.

Writes scenario.json, trace.jsonl and network.svg into the output directory.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from geocastsim.cli import summary_line
from geocastsim.engine import run
from geocastsim.experiments import ExperimentConfig, build_nets, gen_scenario
from geocastsim.export import render_svg, used_edges_from_trace, write_trace
from geocastsim.netgraph import save_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alg", default="sf-spg",
                        choices=("sf", "spg", "sf-spg", "sf-spg-g"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--density", type=float, default=7.0)
    parser.add_argument("--region", type=float, default=3.0)
    parser.add_argument("--out-dir", default="demo")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = ExperimentConfig(density=args.density, region_side=args.region,
                           trials=1, seed=args.seed)
    scenario = gen_scenario(cfg, 0)
    save_scenario(scenario, str(out / "scenario.json"))
    bundle = build_nets(scenario)
    state, metrics = run(bundle.nets, scenario.instance(), args.alg, seed=scenario.seed)
    write_trace(state.transcript, str(out / "trace.jsonl"))
    (out / "network.svg").write_text(render_svg(
        scenario, bundle.full, used_edges_from_trace(state.transcript),
        planar=bundle.nets.planar))
    print(f"{args.alg}: {summary_line(metrics)}")
    print(f"outputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
