#!/usr/bin/env python3
"""Record the fingerprint hashes that run.py compares each run against.

    python3 perfbench/record_reference.py

It runs one pass of every workload at full size for seeds 0-9 and at smoke
size for seed 0, and refuses to record a pass that fails an operation or an
output check.  Re-record only for a change that is meant to alter the
program's behaviour, and say so in that change: a speed-up that changes a
hash is a behaviour change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEEDS = {"full": range(10), "smoke": range(1)}


def main() -> int:
    run.import_program()
    import workloads

    reference = {}
    for size, seeds in SEEDS.items():
        for name, cls in workloads.WORKLOADS.items():
            for seed in seeds:
                workdir = str(run.WORK / f"record-{os.getpid()}")
                try:
                    wl = cls(seed, size, workdir)
                    wl.setup()
                    p = run.timed_pass(wl)
                    problems = wl.check(p)
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                if p.failed or problems:
                    sys.exit(f"error: {size} {name} seed {seed}: {p.failed} failed, {problems}")
                reference.setdefault(size, {}).setdefault(name, {})[str(seed)] = p.hashes
                print(f"{size} {name} seed {seed}: {p.wall:.2f} s", file=sys.stderr)
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
