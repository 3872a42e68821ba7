#!/usr/bin/env python3
"""Generate one scenario, run an algorithm on it, and render the outcome.

Writes scenario.json, trace.jsonl and network.svg into the output directory
through `geocastsim generate`, `run --trace` and `export --format svg`; the
first step that fails ends the script with its exit code.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from geocastsim.cli import main as geocastsim


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alg", default="sf-spg")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--density", default="7.0")
    parser.add_argument("--region", default="3.0")
    parser.add_argument("--out-dir", default="demo")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario, trace = str(out / "scenario.json"), str(out / "trace.jsonl")
    for argv in (
        ["generate", "--density", args.density, "--region", args.region, "--seed", args.seed,
         "-o", scenario],
        ["run", "--scenario", scenario, "--alg", args.alg, "--trace", trace],
        ["export", "--scenario", scenario, "--trace", trace, "--format", "svg",
         "-o", str(out / "network.svg")],
    ):
        code = geocastsim(argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
