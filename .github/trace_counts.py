"""Fail unless a traced benchmark run reports the pinned engine counts.

The output fingerprints hash transcripts and metrics, not how many messages
the engine enqueued, annihilated or split on the way; these counts pin that.

Usage: python perfbench/run.py --workload cli-field40 --seed 2 --seconds 0 --trace 1 > OUT
       python .github/trace_counts.py OUT
"""

import json
import sys

# traced cli-field40, seed 2
PINNED = {
    "engine.steps": 48794,
    "engine.enqueued": 67932,
    "engine.annihilated": 19138,
    "engine.splits": 524,
    "protocol.handle.calls": 29656,
    "engine.deliver_dominated.extra": 128,
}


def main(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        metrics = json.loads(f.read().splitlines()[-1])["metrics"]
    wrong = 0
    for name, expected in PINNED.items():
        got = metrics.get(name, {}).get("value")
        print(f"{name}: {got}" + ("" if got == expected else f" (expected {expected})"))
        wrong += got != expected
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
