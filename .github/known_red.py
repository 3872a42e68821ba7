"""Fail on any failed or errored test in a pytest JUnit report except the
known-red acceptance criteria, which are listed as such.

Usage: python .github/known_red.py REPORT.xml
"""

import sys
import xml.etree.ElementTree as ET

KNOWN_RED = {
    "test_criterion_6_flood_wins_when_region_fills_field",
    "test_criterion_8_greedy_worsens_stretch",
}


def main(path: str) -> int:
    cases = list(ET.parse(path).getroot().iter("testcase"))
    red = [f"{c.get('classname')}::{c.get('name')}" for c in cases
           if c.find("failure") is not None or c.find("error") is not None]
    known = [r for r in red if r.rsplit("::", 1)[1] in KNOWN_RED]
    other = [r for r in red if r not in known]
    for r in known:
        print(f"known red: {r}")
    for r in other:
        print(f"FAILED: {r}")
    print(f"{len(cases)} tests, {len(known)} known red, {len(other)} other failures")
    return 1 if other or not cases else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
