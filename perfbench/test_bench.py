"""Self-tests of the benchmark at smoke size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def scratch():
    """A fresh directory inside the checkout, removed afterwards."""
    path = BENCH / ".work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args: str):
    """Run the benchmark at smoke size; (exit code, detail, result)."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--size", "smoke",
                           "--seconds", "1", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    rc, detail, result = bench("--workload", workload, "--seed", "0", "--trace", str(trace))
    assert rc == 0, detail and detail["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    env = detail["environment"]
    assert env["python"] and env["numpy"] and env["nproc"] >= 1
    assert detail["error_rate"] == 0.0


def test_corrupted_reference_hash_exits_nonzero(scratch):
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    entry = reference["smoke"]["planar-policies"]["0"]
    key = sorted(entry)[0]
    entry[key] = "0" * 64
    corrupted = scratch / "reference.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    rc, detail, result = bench("--workload", "planar-policies", "--seed", "0", "--trace", "0",
                               "--reference", str(corrupted))
    assert rc != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert any(p.startswith(f"fingerprint {key}:") for p in detail["problems"])


def test_error_rate_counts_an_injected_simulation_fault():
    # a three-step budget cannot reach quiescence on any smoke scenario, so
    # every run raises SimulationFault through the public run() API
    rc, detail, result = bench("--workload", "planar-policies", "--seed", "1", "--trace", "0",
                               "--step-budget", "3")
    assert rc != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert detail["error_rate"] == 1.0


def test_exits_nonzero_without_the_program(scratch):
    shutil.copytree(BENCH, scratch / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
