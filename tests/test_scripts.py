import pathlib
import subprocess
import sys

from geocastsim.cli import main
from geocastsim.export import read_trace, write_trace

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_render_demo_agrees_with_cli_run(tmp_path, capsys):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "render_demo.py"), "--alg", "sf-spg", "--seed", "3",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, check=True)
    demo_line = done.stdout.splitlines()[0]

    assert main(["run", "--scenario", str(tmp_path / "scenario.json"), "--alg", "sf-spg"]) == 0
    assert demo_line == "sf-spg: " + capsys.readouterr().out.strip()

    events = read_trace(str(tmp_path / "trace.jsonl"))
    assert f"cost={len(events)} " in demo_line
    write_trace(events, str(tmp_path / "again.jsonl"))
    assert (tmp_path / "again.jsonl").read_bytes() == (tmp_path / "trace.jsonl").read_bytes()
    assert main(["export", "--scenario", str(tmp_path / "scenario.json"), "--trace",
                 str(tmp_path / "trace.jsonl"), "--format", "svg", "-o", str(tmp_path / "cli.svg")]) == 0
    assert (tmp_path / "network.svg").read_bytes() == (tmp_path / "cli.svg").read_bytes()
    assert (tmp_path / "network.svg").read_text().startswith("<svg")
