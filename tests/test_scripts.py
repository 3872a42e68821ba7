import pathlib
import subprocess
import sys

import pytest

from geocastsim.cli import main
from geocastsim.export import read_trace, write_trace

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True)


def test_render_demo_agrees_with_cli_run(tmp_path, capsys):
    done = script("render_demo.py", "--alg", "sf-spg", "--seed", "3", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    # generate, run and export each print one line; the second is the run's
    demo_line = done.stdout.splitlines()[1]

    assert main(["run", "--scenario", str(tmp_path / "scenario.json"), "--alg", "sf-spg"]) == 0
    assert demo_line == capsys.readouterr().out.strip()

    events = read_trace(str(tmp_path / "trace.jsonl"))
    assert f"cost={len(events)} " in demo_line
    write_trace(events, str(tmp_path / "again.jsonl"))
    assert (tmp_path / "again.jsonl").read_bytes() == (tmp_path / "trace.jsonl").read_bytes()
    assert main(["export", "--scenario", str(tmp_path / "scenario.json"), "--trace",
                 str(tmp_path / "trace.jsonl"), "--format", "svg", "-o", str(tmp_path / "cli.svg")]) == 0
    assert (tmp_path / "network.svg").read_bytes() == (tmp_path / "cli.svg").read_bytes()
    assert (tmp_path / "network.svg").read_text().startswith("<svg")


def test_run_sweeps_writes_what_cli_sweep_writes(tmp_path):
    done = script("run_sweeps.py", "--trials", "1", "--algs", "sf", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for axis, values in (("density", "3..16"), ("region", "1..9"), ("field", "5,10,15,20")):
        cli_csv = tmp_path / f"cli_{axis}.csv"
        assert main(["sweep", "--axis", axis, "--values", values, "--trials", "1",
                     "--algs", "sf", "-o", str(cli_csv)]) == 0
        assert (tmp_path / f"sweep_{axis}.csv").read_bytes() == cli_csv.read_bytes()


@pytest.mark.parametrize("name, args, field", [
    ("run_sweeps.py", ("--trials", "0"), "trials"),
    ("run_sweeps.py", ("--algs", "bogus"), "algorithm"),
    ("render_demo.py", ("--density", "-1"), "density"),
])
def test_bad_input_exits_1_naming_the_field(tmp_path, name, args, field):
    done = script(name, *args, "--out-dir", str(tmp_path))
    assert done.returncode == 1
    assert field in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("name", ["run_sweeps.py", "render_demo.py"])
def test_out_dir_that_is_a_file_exits_1(tmp_path, name):
    taken = tmp_path / "taken"
    taken.write_text("")
    done = script(name, "--out-dir", str(taken))
    assert done.returncode == 1
    assert "--out-dir" in done.stderr and "Traceback" not in done.stderr


def test_readme_library_use_runs():
    # the documented calls cannot drift from the library's signatures
    section = (SCRIPTS.parent / "README.md").read_text().split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    metrics = namespace["metrics"]  # the backbone run's
    assert metrics.delivery_rate == 1.0
    assert metrics.region_covered <= namespace["visited"].keys()
