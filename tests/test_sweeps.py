"""Tests for the Monte-Carlo sweep subsystem (repro.sweeps)."""

from __future__ import annotations

import json
from datetime import datetime

import numpy as np
import pytest

from repro import artifacts, scenarios, sweeps
from repro.energy.model import EnergyModelParams
from repro.errors import ConfigurationError
from repro.experiments.common import FigureResult
from repro.scenarios.spec import MarketSpec, RouterSpec, Scenario, TraceSpec
from repro.sweeps.aggregate import SweepResult, aggregate, bootstrap_ci
from repro.sweeps.seeding import replica_seed
from repro.sweeps.spec import SweepAxis, SweepSpec, cells, expand

#: Two-month market covering a tiny five-minute trace: fast, real runs.
TINY_MARKET = MarketSpec(start=datetime(2008, 11, 1), months=2, seed=7)
TINY_TRACE = TraceSpec(kind="five-minute", start=datetime(2008, 12, 1), n_steps=24, seed=7)

TINY_BASE = Scenario(
    name="tiny-base",
    market=TINY_MARKET,
    trace=TINY_TRACE,
    router=RouterSpec.of("price", distance_threshold_km=1500.0),
)


def tiny_spec(**overrides) -> SweepSpec:
    defaults = dict(
        name="tiny",
        description="tiny sweep",
        base=TINY_BASE,
        axes=(
            SweepAxis(name="distance_threshold_km", values=(0.0, 4500.0), target="router"),
            SweepAxis(name="follow_95_5", values=(False, True)),
        ),
        n_replicas=3,
        metrics=("savings_pct",),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSweepSpecValidation:
    def test_needs_name(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(name="")

    def test_needs_replicas(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(n_replicas=0)

    def test_rejects_duplicate_axis_names(self):
        axis = SweepAxis(name="follow_95_5", values=(False, True))
        with pytest.raises(ConfigurationError, match="duplicate"):
            tiny_spec(axes=(axis, axis))

    def test_rejects_two_energy_axes(self):
        e = SweepAxis(name="e1", values=(EnergyModelParams(0.0, 1.1),), target="energy")
        e2 = SweepAxis(name="e2", values=(EnergyModelParams(0.5, 1.3),), target="energy")
        with pytest.raises(ConfigurationError, match="energy axis"):
            tiny_spec(axes=(e, e2))

    def test_rejects_unknown_metric(self):
        with pytest.raises(ConfigurationError, match="unknown metrics"):
            tiny_spec(metrics=("not_a_metric",))

    def test_rejects_unknown_reseed_target(self):
        with pytest.raises(ConfigurationError, match="reseed"):
            tiny_spec(reseed=("router",))

    def test_rejects_replicas_without_reseed(self):
        with pytest.raises(ConfigurationError, match="reseed"):
            tiny_spec(reseed=(), n_replicas=4)

    def test_axis_rejects_bad_target(self):
        with pytest.raises(ConfigurationError, match="target"):
            SweepAxis(name="x", values=(1,), target="nope")

    def test_axis_rejects_empty_values(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            SweepAxis(name="x", values=())

    def test_energy_axis_values_must_be_params(self):
        with pytest.raises(ConfigurationError, match="EnergyModelParams"):
            SweepAxis(name="x", values=(1.0,), target="energy")

    def test_counts(self):
        spec = tiny_spec()
        assert spec.n_cells == 4
        assert spec.n_points == 12


class TestExpansion:
    def test_cell_order_is_cartesian_product(self):
        grid = cells(tiny_spec())
        coords = [c.coords for c in grid]
        assert coords == [
            (("distance_threshold_km", "0"), ("follow_95_5", "no")),
            (("distance_threshold_km", "0"), ("follow_95_5", "yes")),
            (("distance_threshold_km", "4500"), ("follow_95_5", "no")),
            (("distance_threshold_km", "4500"), ("follow_95_5", "yes")),
        ]

    def test_axes_applied_to_scenario(self):
        grid = cells(tiny_spec())
        assert grid[0].scenario.router.kwargs["distance_threshold_km"] == 0.0
        assert grid[0].scenario.follow_95_5 is False
        assert grid[3].scenario.router.kwargs["distance_threshold_km"] == 4500.0
        assert grid[3].scenario.follow_95_5 is True

    def test_replica_zero_keeps_base_seeds(self):
        points = expand(tiny_spec())
        first = points[0]
        assert first.replica == 0
        assert first.scenario.market.seed == TINY_MARKET.seed
        assert first.scenario.trace.seed == TINY_TRACE.seed

    def test_replicas_reseed_market_and_trace(self):
        points = expand(tiny_spec())
        by_replica = {p.replica: p for p in points if p.cell_index == 0}
        for r in (1, 2):
            assert by_replica[r].scenario.market.seed == replica_seed(TINY_MARKET.seed, r)
            assert by_replica[r].scenario.trace.seed == replica_seed(TINY_TRACE.seed, r)

    def test_reseed_can_be_restricted_to_trace(self):
        points = expand(tiny_spec(reseed=("trace",)))
        replica1 = next(p for p in points if p.replica == 1)
        assert replica1.scenario.market.seed == TINY_MARKET.seed
        assert replica1.scenario.trace.seed != TINY_TRACE.seed

    def test_point_scenarios_have_cleared_names(self):
        for point in expand(tiny_spec()):
            assert point.scenario.name == ""
            assert point.scenario.description == ""

    def test_energy_axis_multiplies_cells_not_scenarios(self):
        spec = tiny_spec(
            axes=(
                SweepAxis(
                    name="energy model",
                    values=(EnergyModelParams(0.0, 1.1), EnergyModelParams(0.65, 1.3)),
                    target="energy",
                ),
            ),
        )
        points = expand(spec)
        assert len(points) == 2 * spec.n_replicas
        by_cell = {}
        for p in points:
            by_cell.setdefault(p.cell_index, []).append(p)
        # Same replica in both energy cells shares one physical scenario.
        assert by_cell[0][0].scenario == by_cell[1][0].scenario
        assert by_cell[0][0].energy != by_cell[1][0].energy

    def test_scenario_axis_with_unknown_field_fails(self):
        spec = tiny_spec(axes=(SweepAxis(name="not_a_field", values=(1,)),))
        with pytest.raises(ConfigurationError, match="not_a_field"):
            expand(spec)

    def test_router_kind_axis_via_scenario_target(self):
        spec = tiny_spec(
            axes=(
                SweepAxis(
                    name="router",
                    values=(
                        RouterSpec.of("baseline"),
                        RouterSpec.of("price", distance_threshold_km=1500.0),
                    ),
                ),
            ),
        )
        grid = cells(spec)
        assert grid[0].scenario.router.kind == "baseline"
        assert grid[1].scenario.router.kind == "price"
        assert grid[0].coords[0][1] == "baseline"


class TestBootstrap:
    def test_deterministic(self):
        values = np.array([1.0, 2.0, 4.0, 8.0])
        assert bootstrap_ci(values, entropy=(0, 0)) == bootstrap_ci(values, entropy=(0, 0))

    def test_entropy_changes_interval(self):
        values = np.array([1.0, 2.0, 4.0, 8.0])
        assert bootstrap_ci(values, entropy=(0, 0)) != bootstrap_ci(values, entropy=(1, 0))

    def test_single_sample_degenerates(self):
        assert bootstrap_ci(np.array([3.0]), entropy=(0, 0)) == (3.0, 3.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            bootstrap_ci(np.array([]), entropy=(0, 0))

    def test_interval_brackets_mean_and_orders(self):
        rng = np.random.default_rng(5)
        values = rng.normal(10.0, 2.0, size=32)
        lo, hi = bootstrap_ci(values, entropy=(2, 1))
        assert lo <= values.mean() <= hi
        assert values.min() - 1e-9 <= lo <= hi <= values.max() + 1e-9


class TestAggregate:
    def test_statistics_per_cell(self):
        spec = tiny_spec(n_replicas=4)
        points = expand(spec)
        metrics = {p.index: {"savings_pct": float(p.cell_index * 10 + p.replica)} for p in points}
        result = aggregate(spec, points, metrics)
        assert len(result.cells) == 4
        cell0 = result.cells[0]
        assert cell0.n_replicas == 4
        stats = cell0.stats["savings_pct"]
        assert stats.mean == pytest.approx(np.mean([0.0, 1.0, 2.0, 3.0]))
        assert stats.std == pytest.approx(np.std([0.0, 1.0, 2.0, 3.0], ddof=1))
        assert stats.ci_lo <= stats.mean <= stats.ci_hi

    def test_missing_point_rejected(self):
        spec = tiny_spec()
        points = expand(spec)
        with pytest.raises(ConfigurationError, match="missing metrics"):
            aggregate(spec, points, {})

    def test_json_round_trip(self):
        spec = tiny_spec(n_replicas=2)
        points = expand(spec)
        metrics = {p.index: {"savings_pct": float(p.index)} for p in points}
        result = aggregate(spec, points, metrics)
        payload = json.loads(json.dumps(result.to_json_dict()))
        assert SweepResult.from_json_dict(payload) == result

    def test_figure_result_round_trip(self):
        spec = tiny_spec(n_replicas=2)
        points = expand(spec)
        metrics = {p.index: {"savings_pct": float(p.index)} for p in points}
        fig = aggregate(spec, points, metrics).to_figure_result()
        assert fig.figure_id == "sweep-tiny"
        assert set(fig.series) == {
            "savings_pct_mean",
            "savings_pct_std",
            "savings_pct_ci_lo",
            "savings_pct_ci_hi",
        }
        decoded = FigureResult.from_json_dict(fig.to_json_dict())
        assert decoded.summary == fig.summary
        for name in fig.series:
            assert np.array_equal(decoded.series[name], fig.series[name])

    def test_to_text_renders_all_cells(self):
        spec = tiny_spec(n_replicas=2)
        points = expand(spec)
        metrics = {p.index: {"savings_pct": float(p.index)} for p in points}
        text = aggregate(spec, points, metrics).to_text()
        assert "savings_pct mean" in text
        assert text.count("\n") >= 4 + 3


class TestExecutor:
    def test_serial_run_produces_statistics(self):
        result = sweeps.run_sweep(tiny_spec())
        assert len(result.cells) == 4
        for cell in result.cells:
            assert cell.n_replicas == 3
            stats = cell.stats["savings_pct"]
            assert np.isfinite(stats.mean)
            assert stats.ci_lo <= stats.mean <= stats.ci_hi

    def test_grouping_buckets_by_market(self):
        points = expand(tiny_spec())
        groups = sweeps.group_points(points)
        assert len(groups) == 3  # one bucket per replica market seed
        for group in groups:
            markets = {p.scenario.market for p in group}
            assert len(markets) == 1

    def test_sweep_artifact_reused(self, tmp_path, monkeypatch):
        artifacts.configure(tmp_path / "store")
        spec = tiny_spec()
        first = sweeps.run_sweep(spec)
        from repro.sweeps import executor

        monkeypatch.setattr(
            executor,
            "_run_group",
            lambda *a, **k: pytest.fail("sweep recomputed despite cached artifact"),
        )
        assert sweeps.run_sweep(spec) == first

    def test_simulations_reused_when_sweep_artifact_missing(self, tmp_path, monkeypatch):
        """Incrementality below the sweep layer: the run memo satisfies
        a re-aggregation in the same process without any engine
        execution. Campaign simulations live only there — the store
        holds none, so a cold process recomputes them."""
        store = artifacts.configure(tmp_path / "store")
        spec = tiny_spec()
        scenarios.clear_caches()
        first = sweeps.run_sweep(spec)
        store.path_for(artifacts.KIND_SWEEP, spec).unlink()
        assert not any(e.kind == artifacts.KIND_SIMULATION for e in store.entries())
        from repro.scenarios import runner

        def refuse(*args):
            pytest.fail("engine ran despite memoised simulations")

        monkeypatch.setattr(runner, "_execute", refuse)
        monkeypatch.setattr(runner, "_execute_stacked", refuse)
        assert sweeps.run_sweep(spec) == first

    def test_force_recomputes_through_refresh_mode(self, tmp_path, monkeypatch):
        artifacts.configure(tmp_path / "store")
        spec = tiny_spec(n_replicas=1)
        sweeps.run_sweep(spec)
        from repro.sweeps import executor

        seen = []
        real = executor.point_metrics
        def spy(scenario, energy):
            seen.append(artifacts.refresh_mode())
            return real(scenario, energy)

        monkeypatch.setattr(executor, "point_metrics", spy)
        sweeps.run_sweep(spec, force=True)
        assert seen and all(seen)
        assert artifacts.refresh_mode() is False

    def test_replica_spread_is_real(self):
        """Reseeded replicas must actually differ — the whole point."""
        result = sweeps.run_sweep(tiny_spec())
        stds = [cell.stats["savings_pct"].std for cell in result.cells]
        assert max(stds) > 0.0


class TestParallelEquivalence:
    """Acceptance pin: a 3-axis x 8-replica grid, serial vs --jobs 2."""

    def test_smoke_grid_parallel_matches_serial_byte_for_byte(self, tmp_path):
        spec = sweeps.get("smoke-grid")
        assert len(spec.axes) == 3
        assert spec.n_replicas == 8

        artifacts.configure(tmp_path / "serial")
        scenarios.clear_caches()  # cold start: serial must simulate every point
        serial = sweeps.run_sweep(spec, jobs=1)
        scenarios.clear_caches()
        artifacts.configure(tmp_path / "parallel")
        parallel = sweeps.run_sweep(spec, jobs=2)
        artifacts.reset()

        assert serial == parallel

        def files(root, kind):
            return {p.name: p.read_bytes() for p in (tmp_path / root / kind).glob("*")}

        serial_sweeps = files("serial", artifacts.KIND_SWEEP)
        assert serial_sweeps  # non-vacuous
        assert serial_sweeps == files("parallel", artifacts.KIND_SWEEP)
        # Campaign simulations stay in memory: neither store holds one.
        assert files("serial", artifacts.KIND_SIMULATION) == {}
        assert files("parallel", artifacts.KIND_SIMULATION) == {}

    def test_smoke_grid_reports_intervals(self, tmp_path):
        artifacts.configure(tmp_path / "serial")
        result = sweeps.run_sweep(sweeps.get("smoke-grid"))
        artifacts.reset()
        assert len(result.cells) == 12
        for cell in result.cells:
            for metric in ("savings_pct", "mean_distance_km"):
                stats = cell.stats[metric]
                assert stats.ci_lo <= stats.mean <= stats.ci_hi


class TestRegistry:
    def test_builtin_names(self):
        assert set(sweeps.names()) >= {"fig15-ensemble", "fig18-ensemble", "smoke-grid"}

    def test_get_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown sweep"):
            sweeps.get("nope")

    def test_register_rejects_duplicates(self):
        spec = sweeps.get("smoke-grid")
        with pytest.raises(ConfigurationError, match="already registered"):
            sweeps.register(spec)

    def test_builtin_sweeps_expand(self):
        for name in sweeps.names():
            spec = sweeps.get(name)
            points = expand(spec)
            assert len(points) == spec.n_points

    def test_fig15_ensemble_mirrors_driver_grid(self):
        from repro.energy.params import FIG15_MODELS

        spec = sweeps.get("fig15-ensemble")
        assert spec.n_cells == len(FIG15_MODELS) * 2
        assert spec.metrics == ("savings_pct",)

    def test_fig18_ensemble_mirrors_driver_grid(self):
        from repro.experiments.fig18_longrun_cost import THRESHOLDS_KM

        spec = sweeps.get("fig18-ensemble")
        assert spec.n_cells == len(THRESHOLDS_KM) * 2
        assert spec.metrics == ("normalized_cost",)


class TestMetrics:
    def test_baseline_scenario_has_zero_savings(self):
        from repro.sweeps.metrics import point_metrics

        scenario = TINY_BASE.derive(router=RouterSpec.of("baseline"), name="", description="")
        metrics = point_metrics(scenario, EnergyModelParams(0.0, 1.1))
        assert metrics["savings_pct"] == pytest.approx(0.0)
        assert metrics["normalized_cost"] == pytest.approx(1.0)
        assert metrics["total_cost_usd"] == pytest.approx(metrics["baseline_cost_usd"])

    def test_metric_dict_is_complete(self):
        from repro.sweeps.metrics import METRIC_NAMES, point_metrics

        scenario = TINY_BASE.derive(name="", description="")
        metrics = point_metrics(scenario, EnergyModelParams(0.0, 1.1))
        assert set(metrics) == set(METRIC_NAMES)
        assert all(np.isfinite(v) for v in metrics.values())
