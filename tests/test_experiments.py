import math
from collections import Counter

import numpy as np
import pytest

import geocastsim.experiments as experiments_mod
from geocastsim import netgraph
from conftest import component_of
from geocastsim.experiments import (
    ExperimentConfig,
    RESULT_COLUMNS,
    build_nets,
    device_count,
    gen_scenario,
    mean_ci,
    rows_to_csv,
    run_trial,
    sweep,
    write_results_csv,
)
from geocastsim.engine import substream
from geocastsim.geometry import Point, dist2


def brute_force_component_edges(scenario):
    """Independent count of unit-disk edges in the source's component, via a
    double loop and union-find over raw coordinates."""
    pts = scenario.devices
    n = len(pts)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges = []
    r2 = scenario.radius * scenario.radius
    for i in range(n):
        for j in range(i + 1, n):
            if dist2(pts[i], pts[j]) <= r2:
                edges.append((i, j))
                parent[find(i)] = find(j)
    root = find(scenario.source)
    return sum(1 for i, j in edges if find(i) == root)


class TestScenarioGeneration:
    def test_device_count_at_reference_density(self):
        assert device_count(7.0, 10.0) == 223

    def test_device_count_floor_case(self):
        assert device_count(math.pi / 100.0, 10.0) == 1

    def test_same_seed_and_trial_reproduce_scenario(self):
        cfg = ExperimentConfig(trials=1, seed=8)
        assert gen_scenario(cfg, 4) == gen_scenario(cfg, 4)
        assert gen_scenario(cfg, 4) != gen_scenario(cfg, 5)

    def test_coinciding_draw_is_redrawn(self, monkeypatch):
        """A device draw with two devices at one point is dropped whole, and
        the world is built from the stream's next draw."""
        class FirstDrawCoincides:
            def __init__(self, rng):
                self.rng, self.drawn = rng, False

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def uniform(self, *args, **kwargs):
                out = self.rng.uniform(*args, **kwargs)
                if not self.drawn:
                    self.drawn = True
                    out[1] = out[0]
                return out

        cfg = ExperimentConfig(trials=1, seed=8)
        n = device_count(cfg.density, cfg.field_side)
        rng = substream(cfg.seed, 0, experiments_mod._PURPOSE_SCENARIO)
        first = rng.uniform(0.0, cfg.field_side, size=(n, 2))
        second = rng.uniform(0.0, cfg.field_side, size=(n, 2))
        source = int(rng.integers(n))
        monkeypatch.setattr(experiments_mod, "substream", lambda *a: FirstDrawCoincides(substream(*a)))
        sc = gen_scenario(cfg, 0)
        assert sc.devices == tuple(Point(x, y) for x, y in second.tolist())
        assert sc.devices[0] != Point(*first[0].tolist())
        assert sc.source == source

    def test_negative_trial_index_rejected(self):
        with pytest.raises(ValueError, match="trial_index must be non-negative, got -1"):
            gen_scenario(ExperimentConfig(trials=1), -1)

    def test_region_fits_in_field(self):
        cfg = ExperimentConfig(region_side=9.5, trials=1, seed=2)
        for t in range(5):
            sc = gen_scenario(cfg, t)
            xmin, ymin, xmax, ymax = sc.region.bounds
            assert 0 <= xmin and xmax <= 10 and 0 <= ymin and ymax <= 10
            assert xmax - xmin == pytest.approx(9.5)

    def test_region_larger_than_field_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(region_side=11.0)

    @pytest.mark.parametrize("kwargs, field", [
        ({"field_side": float("inf")}, "field_side"),
        ({"field_side": float("nan")}, "field_side"),
        ({"field_side": 0.0}, "field_side"),
        ({"density": float("inf")}, "density"),
        ({"density": float("nan")}, "density"),
        ({"density": -1.0}, "density"),
        ({"region_side": -1.0}, "region_side"),
        ({"region_side": float("nan")}, "region_side"),
        ({"field_side": 1e200}, "field_side"),
        ({"density": 1e6}, "density"),  # 3.2e7 devices in the default field
        ({"policy": "round-robin"}, "policy"),
    ])
    def test_unsimulatable_config_names_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**kwargs)


class TestRunTrial:
    def test_flood_cost_matches_independent_edge_count(self):
        cfg = ExperimentConfig(field_side=6.0, density=6.0, trials=1, seed=14)
        for t in range(6):
            sc = gen_scenario(cfg, t)
            res = run_trial(sc, "sf", build_nets(sc))
            assert res is not None
            assert res.message_cost == brute_force_component_edges(sc)

    def test_flood_is_latency_optimal(self):
        cfg = ExperimentConfig(field_side=6.0, density=7.0, region_side=2.0,
                               trials=1, seed=15)
        for t in range(6):
            sc = gen_scenario(cfg, t)
            res = run_trial(sc, "sf", build_nets(sc))
            assert res.path_stretch in (None, 1.0)

    def test_planar_coverage_matches_flood_on_planar_component(self):
        cfg = ExperimentConfig(field_side=7.0, density=7.0, region_side=3.0,
                               trials=1, seed=16)
        for t in range(6):
            sc = gen_scenario(cfg, t)
            bundle = build_nets(sc)
            flood = run_trial(sc, "sf", bundle)
            planar = run_trial(sc, "spg", bundle)
            pcomp = component_of(bundle.nets.planar, sc.source)
            expected = flood.region_covered & frozenset(pcomp)
            assert planar.region_covered == expected

    def test_combined_coverage_equals_flood_coverage(self):
        cfg = ExperimentConfig(field_side=7.0, density=7.0, region_side=3.0,
                               trials=1, seed=17)
        for t in range(6):
            sc = gen_scenario(cfg, t)
            bundle = build_nets(sc)
            flood = run_trial(sc, "sf", bundle)
            combined = run_trial(sc, "sf-spg", bundle)
            assert combined.region_covered == flood.region_covered

    def test_planar_cost_within_double_planar_edges(self):
        cfg = ExperimentConfig(field_side=7.0, density=7.0, trials=1, seed=18)
        for t in range(6):
            sc = gen_scenario(cfg, t)
            bundle = build_nets(sc)
            res = run_trial(sc, "spg", bundle)
            pcomp = component_of(bundle.nets.planar, sc.source)
            pe = sum(1 for u, v in bundle.nets.planar.edges() if u in pcomp)
            assert res.message_cost <= 2 * pe

    def test_backbone_mode_still_delivers(self):
        cfg = ExperimentConfig(field_side=7.0, density=7.0, region_side=3.0,
                               trials=1, seed=19)
        for t in range(5):
            sc = gen_scenario(cfg, t)
            for alg in ("sf", "spg", "sf-spg"):
                res = run_trial(sc, alg, build_nets(sc, cds=True))
                assert res is not None
                assert res.delivery_rate in (None, 1.0)


class TestSweep:
    def small_cfg(self):
        return ExperimentConfig(field_side=5.0, density=5.0, region_side=2.0,
                                algorithms=("sf", "spg"), trials=2, seed=77)

    def test_row_shape(self):
        rows = sweep(self.small_cfg(), "density", [4.0, 6.0])
        assert len(rows) == 4
        assert [(r.value, r.algorithm) for r in rows] == [
            (4.0, "sf"), (4.0, "spg"), (6.0, "sf"), (6.0, "spg")]
        assert all(r.faults == 0 and r.trials == 2 for r in rows)

    def test_csv_columns_and_reproducibility(self, tmp_path):
        rows1 = sweep(self.small_cfg(), "region", [1.0, 2.0])
        rows2 = sweep(self.small_cfg(), "region", [1.0, 2.0])
        text1, text2 = rows_to_csv(rows1), rows_to_csv(rows2)
        assert text1 == text2
        header = text1.splitlines()[0]
        assert header == ",".join(RESULT_COLUMNS)
        out = tmp_path / "rows.csv"
        write_results_csv(rows1, str(out))
        assert out.read_text() == text1

    def test_field_axis_scales_device_count(self):
        cfg = ExperimentConfig(algorithms=("sf",), trials=1, seed=3)
        rows = sweep(cfg, "field", [5.0, 10.0])
        assert rows[0].mean_cost < rows[1].mean_cost

    def test_world_work_runs_once_per_trial(self, monkeypatch):
        # one routing value per trial: its four algorithms share one BFS and
        # one answer per undirected edge (an sf-spg-g re-anchoring is another
        # instance value, with a world and answers of its own)
        bfs, qualifies = netgraph.bfs_hops, netgraph._edge_qualifies
        sources: list = []
        evaluations: Counter = Counter()

        def counting_bfs(net, src):
            sources.append(src)
            return bfs(net, src)

        def counting_qualifies(pu, pv, inst):
            evaluations[frozenset((pu, pv)), inst] += 1
            return qualifies(pu, pv, inst)

        monkeypatch.setattr(netgraph, "bfs_hops", counting_bfs)
        monkeypatch.setattr(netgraph, "_edge_qualifies", counting_qualifies)
        rows = sweep(ExperimentConfig(trials=2), "density", [7.0])
        assert [(r.trials, r.faults) for r in rows] == [(2, 0)] * 4
        assert sources == [gen_scenario(ExperimentConfig(), t).source for t in range(2)]
        assert evaluations and max(evaluations.values()) == 1

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep(self.small_cfg(), "radius", [1.0])


class TestMeanCi:
    def test_empty(self):
        assert mean_ci([]) == (None, None)

    def test_single_value(self):
        assert mean_ci([4.0]) == (4.0, 0.0)

    def test_matches_normal_approximation(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        mean, half = mean_ci(vals)
        assert mean == 2.5
        assert half == pytest.approx(1.96 * np.std(vals, ddof=1) / 2.0)
