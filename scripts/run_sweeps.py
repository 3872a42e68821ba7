#!/usr/bin/env python3
"""Run the three standard parameter sweeps and write one CSV per axis.

Each sweep is one `geocastsim sweep` call; the first one that fails ends the
script with its exit code.  Defaults are desk-scale; raise --trials for
publication-grade statistics.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from geocastsim.cli import main as geocastsim

SWEEPS = {"density": "3..16", "region": "1..9", "field": "5,10,15,20"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", default="25")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--algs", default="sf,spg,sf-spg,sf-spg-g")
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # the CLI's contract: bad input exits 1 naming the flag
        print(f"error: --out-dir: {exc}", file=sys.stderr)
        return 1
    for axis, values in SWEEPS.items():
        code = geocastsim(["sweep", "--axis", axis, "--values", values, "--trials", args.trials,
                           "--seed", args.seed, "--algs", args.algs,
                           "-o", str(out_dir / f"sweep_{axis}.csv")])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
