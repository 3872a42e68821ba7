import json
import warnings

import pytest

import geocastsim.engine as engine_mod
import geocastsim.experiments as experiments_mod
from conftest import P
from geocastsim.cli import build_parser, main, parse_values
from geocastsim.experiments import AXES, ExperimentConfig, gen_scenario, rows_to_csv, sweep
from geocastsim.export import read_trace, used_edges_from_trace
from geocastsim.geometry import Rect
from geocastsim.netgraph import Scenario, load_scenario, save_scenario, scenario_to_dict


@pytest.fixture
def path_scenario(tmp_path):
    sc = Scenario(1.0, (2.0, 2.0), (P(0, 0), P(0.9, 0), P(1.8, 0)), 0,
                  Rect.from_bounds(1.6, 0.0, 2.0, 0.2), 123)
    path = tmp_path / "path.json"
    save_scenario(sc, str(path))
    return str(path)


class TestParseValues:
    def test_range(self):
        assert parse_values("3..6") == [3.0, 4.0, 5.0, 6.0]

    def test_comma_list(self):
        assert parse_values("4,7,12.5") == [4.0, 7.0, 12.5]

    def test_mixed(self):
        assert parse_values("1..3,9") == [1.0, 2.0, 3.0, 9.0]


class TestGenerate:
    def test_writes_valid_scenario(self, tmp_path, capsys):
        out = tmp_path / "scenario.json"
        code = main(["generate", "--density", "5", "--field", "8", "--region", "2",
                     "--seed", "3", "-o", str(out)])
        assert code == 0
        sc = load_scenario(str(out))
        assert len(sc.devices) == round(5 * 64 / 3.141592653589793)
        assert "wrote" in capsys.readouterr().out

    def test_defaults_are_the_library_defaults(self, tmp_path):
        cli_out, lib_out = tmp_path / "cli.json", tmp_path / "lib.json"
        assert main(["generate", "-o", str(cli_out)]) == 0
        save_scenario(gen_scenario(ExperimentConfig(), 0), str(lib_out))
        assert cli_out.read_bytes() == lib_out.read_bytes()

    def test_region_larger_than_field_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--region", "12", "-o", str(tmp_path / "x.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["generate", "--bogus", "1", "-o", str(tmp_path / "x.json")]) == 1

    @pytest.mark.parametrize("where", ["directory", "missing-directory", "empty"])
    def test_bad_output_rejected_before_any_work(self, tmp_path, monkeypatch, capsys, where):
        calls = []
        monkeypatch.setattr(experiments_mod, "gen_scenario", lambda *a, **k: calls.append(a))
        out = {"directory": tmp_path, "missing-directory": tmp_path / "missing" / "x.json",
               "empty": ""}[where]
        assert main(["generate", "-o", str(out)]) == 1
        assert calls == []
        out_text, err = capsys.readouterr()
        assert out_text == "" and "-o" in err and str(out) in err and "Traceback" not in err


@pytest.mark.parametrize("argv, field", [
    (["generate", "--density", "inf"], "density"),
    (["generate", "--field", "nan"], "field_side"),
    (["generate", "--region", "-1"], "region_side"),
    (["sweep", "--axis", "density", "--values", "inf", "--trials", "1"], "density"),
    (["sweep", "--axis", "field", "--values", "1e308", "--trials", "1"], "field_side"),
    (["generate", "--density", "1e12"], "density"),
    (["generate", "--field", "1e100"], "field_side"),
    (["generate", "--seed", "-1"], "seed"),
    (["generate", "--trial", "-1"], "--trial"),
    (["sweep", "--axis", "density", "--values", "5", "--trials", "1", "--seed", "-1"], "seed"),
], ids=["generate-infinite-density", "generate-nan-field", "generate-negative-region",
        "sweep-infinite-density", "sweep-overflowing-field", "generate-unallocatable-density",
        "generate-unallocatable-field", "generate-negative-seed", "generate-negative-trial",
        "sweep-negative-seed"])
def test_unsimulatable_config_exits_one(tmp_path, capsys, argv, field):
    assert main(argv + ["-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestRun:
    def test_path_fixture_metrics(self, path_scenario, capsys):
        code = main(["run", "--scenario", path_scenario, "--alg", "sf"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost=2" in out and "latency=2" in out and "stretch=1.0" in out

    @pytest.mark.parametrize("alg", ["sf", "spg", "sf-spg", "sf-spg-g"])
    def test_all_algorithms_run(self, path_scenario, alg):
        assert main(["run", "--scenario", path_scenario, "--alg", alg]) == 0

    def test_malformed_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"radius": 1.0, "field": [2, 2]}')
        assert main(["run", "--scenario", str(bad)]) == 1
        assert "devices" in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--scenario", str(bad)]) == 1
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("mutation, field", [
        (lambda d: d.update(field=[None, 10]), "field"),
        (lambda d: d["devices"].__setitem__(1, [float("nan"), 0.0]), "devices"),
        (lambda d: d.update(region=[1.6, float("nan"), 2.0, 0.2]), "region"),
        (lambda d: d.update(source=True), "source"),
        (lambda d: d.update(radius=float("inf")), "radius"),
        (lambda d: d["devices"].__setitem__(1, [55.0, 0.0]), "devices"),
        (lambda d: d.update(seed=-1), "seed"),
        (lambda d: d.update(radius="1"), "radius"),
        (lambda d: d["devices"].__setitem__(1, [10 ** 400, 0.0]), "devices"),
    ], ids=["null-field", "nan-device", "nan-region", "bool-source", "infinite-radius",
            "device-outside-field", "negative-seed", "string-radius", "huge-integer-device"])
    def test_unplaceable_scenario_exits_one(self, path_scenario, tmp_path, capsys,
                                            mutation, field):
        data = scenario_to_dict(load_scenario(path_scenario))
        mutation(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))  # NaN and Infinity as Python's json writes them
        assert main(["run", "--scenario", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"'{field}" in err and "Traceback" not in err  # not "scenario field"

    def test_negative_scheduler_seed_exits_one(self, path_scenario, capsys):
        assert main(["run", "--scenario", path_scenario, "--seed", "-1", "--policy", "random"]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err

    def test_output_to_directory_exits_one(self, tmp_path, capsys):
        assert main(["generate", "-o", str(tmp_path)]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_simulation_fault_exits_two(self, path_scenario, monkeypatch, capsys):
        monkeypatch.setattr(engine_mod, "BUDGET_FACTOR", 0)
        assert main(["run", "--scenario", path_scenario]) == 2
        assert "fault" in capsys.readouterr().err

    def test_trace_written(self, path_scenario, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "--scenario", path_scenario, "--alg", "sf",
                     "--trace", str(trace)]) == 0
        events = read_trace(str(trace))
        assert [(e.sender, e.receiver) for e in events] == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("where", ["directory", "missing-directory", "empty"])
    def test_bad_trace_rejected_before_the_run(self, path_scenario, tmp_path, capsys, where):
        trace = {"directory": tmp_path, "missing-directory": tmp_path / "missing" / "t.jsonl",
                 "empty": ""}[where]
        assert main(["run", "--scenario", path_scenario, "--trace", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "--trace" in err and str(trace) in err

    def test_backbone_flag_runs(self, path_scenario):
        assert main(["run", "--scenario", path_scenario, "--cds"]) == 0


BIG, TINY = 2.0 ** 511, 2.0 ** -511


def world(radius, field, devices, region):
    return {"radius": radius, "field": field, "devices": devices, "source": 0,
            "region": region, "seed": 0}


class TestNumericDomain:
    """A world can be simulated when radius*radius is a normal float and every
    product of two coordinate differences is finite: a radius in
    [2**-511, 2**511] and field sides of at most 2**511.  Files outside exit 1,
    naming the field; files inside run with no overflow."""

    def run(self, tmp_path, capsys, data, alg="sf"):
        path = tmp_path / "world.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--scenario", str(path), "--alg", alg])
        out, err = capsys.readouterr()
        assert caught == [] and "Traceback" not in err and "Warning" not in err
        return code, out, err

    @pytest.mark.parametrize("data, field", [
        # r*r and dx*dx + dy*dy both overflowed to inf, which linked this pair:
        # it ran to delivered=2/2 with an overflow warning
        (world(1e308, [1e308, 1e308], [[0.0, 0.0], [1e308, 1e308]], [0, 0, 1e308, 1e308]), "radius"),
        (world(2.0 ** -512, [1.0, 1.0], [[0.0, 0.0], [TINY, 0.0]], [0, 0, 1, 1]), "radius"),
        (world(2.0 ** 512, [1.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], [0, 0, 1, 1]), "radius"),
        (world(1.0, [2.0 ** 512, 1.0], [[0.0, 0.0], [1.0, 0.0]], [0, 0, 1, 1]), "field"),
    ], ids=["overflowing-world", "radius-2^-512", "radius-2^512", "field-2^512"])
    def test_outside_the_domain_exits_one(self, tmp_path, capsys, data, field):
        code, out, err = self.run(tmp_path, capsys, data)
        assert code == 1 and out == "" and f"'{field}'" in err

    @pytest.mark.parametrize("data, line", [
        # device 2 is one radius from device 1 and sqrt(2) radii from device 0
        (world(BIG, [BIG, BIG], [[0.0, 0.0], [BIG, 0.0], [BIG, BIG]], [0, 0, BIG, BIG]),
         "cost=2 latency=2 stretch=1.0 delivered=3/3"),
        (world(TINY, [1.0, 1.0], [[0.0, 0.0], [TINY, 0.0], [TINY, TINY]], [0, 0, 1, 1]),
         "cost=2 latency=2 stretch=1.0 delivered=3/3"),
        (world(1.0, [BIG, BIG], [[0.0, 0.0], [1.0, 0.0], [BIG, BIG]], [0, 0, 2, 2]),
         "cost=1 latency=1 stretch=1.0 delivered=2/2"),
    ], ids=["radius-2^511", "radius-2^-511", "field-2^511"])
    def test_boundary_worlds_run(self, tmp_path, capsys, data, line):
        for alg in ("sf", "spg", "sf-spg", "sf-spg-g"):
            code, out, _ = self.run(tmp_path, capsys, data, alg)
            assert code == 0
            if alg == "sf":
                assert out.strip() == line


class TestSweep:
    def test_single_trial_deterministic_csv(self, tmp_path):
        args = ["sweep", "--axis", "density", "--values", "5", "--trials", "1",
                "--algs", "sf,spg", "--field", "5", "--seed", "6"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("axis,value,algorithm,trials,faults,mean_cost")

    def test_defaults_are_the_library_defaults(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis", "density", "--values", "3", "--trials", "1",
                     "--algs", "sf", "-o", str(out)]) == 0
        rows = sweep(ExperimentConfig(trials=1, algorithms=("sf",)), "density", [3.0])
        assert out.read_bytes() == rows_to_csv(rows).encode()

    def test_axis_choices_are_the_library_axes(self):
        verbs = next(a for a in build_parser()._actions if a.dest == "verb")
        axis = next(a for a in verbs.choices["sweep"]._actions if a.dest == "axis")
        assert axis.choices == tuple(AXES)

    def test_backbone_sweep_is_the_library_sweep(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis", "density", "--values", "5,7", "--trials", "2",
                     "--algs", "all", "--cds", "-o", str(out)]) == 0
        rows = sweep(ExperimentConfig(trials=2, cds=True), "density", [5.0, 7.0])
        assert out.read_bytes() == rows_to_csv(rows).encode()
        assert len(rows) == 8
        assert all(r.faults == 0 and r.delivery_rate == 1.0 for r in rows)

    def test_bad_values_spec_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--axis", "density", "--values", "9..3",
                     "-o", str(tmp_path / "x.csv")]) == 1

    def test_unknown_algorithm_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--axis", "density", "--values", "5",
                     "--algs", "dijkstra", "-o", str(tmp_path / "x.csv")]) == 1
        assert "(choose from sf, spg, sf-spg, sf-spg-g)" in capsys.readouterr().err

    def test_bad_last_value_rejected_before_any_trial(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(experiments_mod, "run_trial", lambda *a, **k: calls.append(a))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis", "region", "--values", "3,4,11", "--trials", "2",
                     "-o", str(out)]) == 1
        assert calls == []
        assert "region_side" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("where", ["directory", "missing-directory", "empty"])
    def test_bad_output_rejected_before_any_trial(self, tmp_path, monkeypatch, capsys, where):
        calls = []
        monkeypatch.setattr(experiments_mod, "run_trial", lambda *a, **k: calls.append(a))
        out = {"directory": tmp_path, "missing-directory": tmp_path / "missing" / "x.csv",
               "empty": ""}[where]
        assert main(["sweep", "--axis", "density", "--values", "3..5", "--trials", "2",
                     "--algs", "sf", "-o", str(out)]) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert "-o" in err and str(out) in err and "Traceback" not in err


class TestExport:
    def test_dot_and_svg_match_run_used_edges(self, path_scenario, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "--scenario", path_scenario, "--alg", "sf",
                     "--trace", str(trace)]) == 0
        used = used_edges_from_trace(read_trace(str(trace)))

        dot = tmp_path / "net.dot"
        assert main(["export", "--scenario", path_scenario, "--trace", str(trace),
                     "--format", "dot", "-o", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("graph geocast {")
        for u, v in used:
            assert f"n{u} -- n{v} [color=red" in text

        svg = tmp_path / "net.svg"
        assert main(["export", "--scenario", path_scenario, "--trace", str(trace),
                     "--format", "svg", "-o", str(svg)]) == 0
        body = svg.read_text()
        assert body.startswith("<svg") and body.count('stroke="#d03030"') == len(used)

    def test_trace_record_missing_key_exits_one(self, path_scenario, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"step": 1, "dir": null, "sender": 0, "receiver": 1, "depth": 1}\n')
        assert main(["export", "--scenario", path_scenario, "--trace", str(trace),
                     "--format", "dot", "-o", str(tmp_path / "x.dot")]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "mode" in err

    @pytest.mark.parametrize("key, value", [
        ("sender", "a"), ("sender", [0]), ("receiver", True), ("step", 1.5),
        ("depth", None), ("mode", 5), ("dir", []),
    ])
    def test_trace_record_wrong_type_exits_one(self, path_scenario, tmp_path, capsys, key, value):
        rec = {"step": 1, "mode": "flood", "dir": None, "sender": 0, "receiver": 1, "depth": 1}
        rec[key] = value
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps(rec) + "\n")
        assert main(["export", "--scenario", path_scenario, "--trace", str(trace),
                     "--format", "dot", "-o", str(tmp_path / "x.dot")]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and key in err

    @pytest.mark.parametrize("sender", [3, -1])
    def test_trace_device_outside_scenario_exits_one(self, path_scenario, tmp_path, capsys, sender):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps({"step": 1, "mode": "flood", "dir": None,
                                     "sender": sender, "receiver": 1, "depth": 1}) + "\n")
        assert main(["export", "--scenario", path_scenario, "--trace", str(trace),
                     "--format", "dot", "-o", str(tmp_path / "x.dot")]) == 1
        assert f"device {sender}" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "missing-directory", "empty"])
    def test_bad_output_rejected_before_any_work(self, path_scenario, tmp_path, monkeypatch,
                                                 capsys, where):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "--scenario", path_scenario, "--trace", str(trace)]) == 0
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(experiments_mod, "build_nets", lambda *a, **k: calls.append(a))
        out = {"directory": tmp_path, "missing-directory": tmp_path / "missing" / "x.svg",
               "empty": ""}[where]
        assert main(["export", "--scenario", path_scenario, "--trace", str(trace),
                     "--format", "svg", "-o", str(out)]) == 1
        assert calls == []
        out_text, err = capsys.readouterr()
        assert out_text == "" and "-o" in err and str(out) in err and "Traceback" not in err

    def test_missing_trace_exits_one(self, path_scenario, tmp_path):
        assert main(["export", "--scenario", path_scenario,
                     "--trace", str(tmp_path / "nope.jsonl"),
                     "--format", "dot", "-o", str(tmp_path / "x.dot")]) == 1
