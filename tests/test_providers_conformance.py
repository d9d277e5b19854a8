"""Provider conformance: every registered price source, end to end.

Three guarantees ride here:

1. **Hash stability.** Default-provider scenarios and figure specs keep
   the content addresses they had before the provider layer existed
   (pinned literal digests), so no golden or artifact cache is
   invalidated by the refactor.
2. **Conformance.** Every provider preset drives the full pipeline —
   scenario run, sweep point metrics, aggregation — and produces
   finite, sane numbers (the CI provider-conformance job runs this
   file).
3. **Round trips.** A replayed simulation published to the artifact
   store reloads bit-identical, and a parallel sweep is byte-identical
   to a serial one.
"""

import json

import numpy as np
import pytest

from repro import artifacts, scenarios, sweeps
from repro.artifacts.codec import spec_key
from repro.experiments.orchestrator import FigureSpec
from repro.markets.providers import (
    SYNTHETIC,
    ProviderSpec,
    materialise_dataset,
    preset,
    preset_names,
)
from repro.sweeps.metrics import point_metrics
from repro.energy.params import OPTIMISTIC_FUTURE


def smoke_scenario(provider_name: str):
    base = sweeps.get("provider-grid").base
    return base.derive(provider=preset(provider_name).spec)


class TestHashStability:
    """Pre-provider digests, recorded before this layer was added."""

    PAPER_DEFAULT = "766c992fbd34c91a8233bfb4dd34450087be4a4f37cc14ad7db24999c04522b4"
    PAPER_RUN_KEY = "deb48763a8a151fb46da85f00d6b1c4d20796e521f1126a54d829a738c7ac34c"
    FIG06 = "2db4a75353eb7155b807b1d7f9a24488dcf183bbbfd29c05e151d97b3f11310e"
    FIG15_SEED3 = "a370b5b646068320181dff7c6f6e78421f502b323043f05e6be950bb4e286392"
    SMOKE_GRID = "07b60839d965ab464725ce20f5d3e6bf3dce99a12994093ad7306dda466a5bea"

    def test_scenario_keys_unchanged(self):
        assert spec_key(scenarios.get("paper-default")) == self.PAPER_DEFAULT
        anonymous = scenarios.get("paper-default").derive(name="", description="")
        assert spec_key(anonymous) == self.PAPER_RUN_KEY

    def test_figure_spec_keys_unchanged(self):
        assert spec_key(FigureSpec("fig06")) == self.FIG06
        assert spec_key(FigureSpec("fig15", 3)) == self.FIG15_SEED3

    def test_sweep_keys_unchanged(self):
        assert spec_key(sweeps.get("smoke-grid")) == self.SMOKE_GRID

    def test_explicit_default_provider_hashes_like_omitted(self):
        scenario = scenarios.get("paper-default")
        assert spec_key(scenario.derive(provider=SYNTHETIC)) == spec_key(scenario)
        assert spec_key(FigureSpec("fig06", None, None)) == spec_key(FigureSpec("fig06"))

    def test_non_default_provider_changes_the_key(self):
        scenario = scenarios.get("paper-default")
        spiky = scenario.derive(provider=preset("spiky-markets").spec)
        assert spec_key(spiky) != spec_key(scenario)
        assert spec_key(
            FigureSpec("fig06", None, preset("spiky-markets").spec)
        ) != spec_key(FigureSpec("fig06"))


class TestConformance:
    @pytest.mark.parametrize("name", sorted(preset_names()))
    def test_preset_runs_end_to_end(self, name):
        scenario = smoke_scenario(name)
        result = scenarios.run(scenario)
        assert result.n_steps == scenario.trace.n_steps
        assert np.isfinite(result.loads).all()
        assert np.isfinite(result.paid_prices).all()
        metrics = point_metrics(scenario, OPTIMISTIC_FUTURE)
        assert all(np.isfinite(v) for v in metrics.values())
        assert metrics["baseline_cost_usd"] > 0

    @pytest.mark.parametrize("name", sorted(preset_names()))
    def test_preset_prices_are_finite(self, name):
        """Routers refuse NaN prices, so no preset may produce one."""
        dataset = materialise_dataset(smoke_scenario(name).market, preset(name).spec)
        assert np.isfinite(dataset.price_matrix).all()
        assert np.isfinite(dataset.day_ahead_matrix).all()

    @pytest.mark.parametrize(
        "perturbation",
        (
            {"scale": 0.05},
            {"scale": 40.0},
            {"decorrelate": 0.5, "seed": 3},
            {"decorrelate": 1.0, "seed": 5},
            {"spike_rate": 0.49, "spike_magnitude": 500.0, "seed": 7},
            {"scale": 8.0, "decorrelate": 1.0, "spike_rate": 0.2, "seed": 9},
        ),
        ids=("shrink", "inflate", "half-decorrelated", "decorrelated", "spikes", "combined"),
    )
    @pytest.mark.parametrize("base", ("synthetic", "replay-smoke"))
    def test_perturbations_keep_prices_finite(self, base, perturbation):
        spec = ProviderSpec.of("perturbed", base=preset(base).spec, **perturbation)
        dataset = materialise_dataset(smoke_scenario(base).market, spec)
        assert np.isfinite(dataset.price_matrix).all()
        assert np.isfinite(dataset.day_ahead_matrix).all()

    def test_provider_families_registered(self):
        for name in ("replay-smoke", "replay-stress", "spiky-markets", "decorrelated-rtos"):
            scenario = scenarios.get(name)
            assert scenario.provider != SYNTHETIC
        assert "provider-grid" in sweeps.names()

    def test_replay_family_runs(self):
        result = scenarios.run(scenarios.get("replay-smoke"))
        assert result.n_steps == 3 * 288
        assert np.isfinite(result.loads).all()

    def test_providers_change_the_prices_paid(self):
        from repro.markets.model import PRICE_FLOOR

        base = scenarios.run(smoke_scenario("synthetic"))
        scaled = scenarios.run(
            smoke_scenario("synthetic").derive(
                provider=ProviderSpec.of("perturbed", scale=2.0)
            )
        )
        # Doubling can push deeply negative hours into the price floor;
        # everywhere the floor cannot bind, the paid price doubles.
        unclamped = base.paid_prices >= PRICE_FLOOR / 2.0
        assert unclamped.any()
        assert np.allclose(
            scaled.paid_prices[unclamped], 2.0 * base.paid_prices[unclamped]
        )


class TestProviderOverride:
    def test_override_rewrites_default_provider_only(self):
        spiky = preset("spiky-markets").spec
        explicit = scenarios.get("replay-smoke")
        with scenarios.provider_override(spiky):
            assert scenarios.active_provider() == spiky
            # Explicit providers win over the override.
            assert scenarios.run(explicit).paid_prices.shape[0] == 3 * 288
        assert scenarios.active_provider() == SYNTHETIC

    def test_override_results_match_explicit_derivation(self):
        spiky = preset("spiky-markets").spec
        base = smoke_scenario("synthetic")
        with scenarios.provider_override(spiky):
            overridden = scenarios.run(base)
        explicit = scenarios.run(base.derive(provider=spiky))
        assert overridden.paid_prices.tobytes() == explicit.paid_prices.tobytes()

    def test_none_override_is_a_noop(self):
        with scenarios.provider_override(None):
            assert scenarios.active_provider() == SYNTHETIC


class TestExecutorBucketing:
    def test_provider_axis_fans_out_across_buckets(self):
        # One market under five providers is five data sets: the pool
        # must see five buckets, not one silently-serial group.
        from repro.sweeps.executor import group_points
        from repro.sweeps.spec import expand

        points = expand(sweeps.get("provider-grid"))
        groups = group_points(points)
        assert len(groups) == 5
        for group in groups:
            providers = {p.scenario.provider for p in group}
            assert len(providers) == 1


class TestSpecNormalisation:
    def test_explicit_defaults_hash_like_sparse_form(self):
        sparse = ProviderSpec.of("csv-replay", path="x.csv")
        dense = ProviderSpec.of(
            "csv-replay", path="x.csv", gap_policy="interpolate", utc_offset_hours=0
        )
        assert sparse == dense
        assert spec_key(sparse) == spec_key(dense)

    def test_provider_instance_spec_matches_preset(self):
        from repro.markets.providers import build_provider

        for name in preset_names():
            assert build_provider(preset(name).spec).spec == preset(name).spec


class TestRoundTrips:
    def test_replay_simulation_store_round_trip_is_bit_identical(self, tmp_path):
        scenario = scenarios.get("replay-smoke").derive(name="", description="")
        artifacts.configure(tmp_path / "store")
        scenarios.clear_caches()
        try:
            first = scenarios.run(scenario)
            scenarios.clear_caches()  # force the disk path
            second = scenarios.run(scenario)
        finally:
            artifacts.reset()
            scenarios.clear_caches()
        for attr in ("loads", "paid_prices", "capacities", "server_counts"):
            assert getattr(first, attr).tobytes() == getattr(second, attr).tobytes()
        assert (
            first.distance_profile.histogram.tobytes()
            == second.distance_profile.histogram.tobytes()
        )

    def test_provider_grid_parallel_matches_serial(self, tmp_path):
        spec = sweeps.get("provider-grid").derive(n_replicas=2)
        serial_store = tmp_path / "serial"
        parallel_store = tmp_path / "parallel"

        artifacts.configure(serial_store)
        scenarios.clear_caches()
        try:
            serial = sweeps.run_sweep(spec, jobs=1)
        finally:
            artifacts.reset()
            scenarios.clear_caches()

        artifacts.configure(parallel_store)
        try:
            parallel = sweeps.run_sweep(spec, jobs=2)
        finally:
            artifacts.reset()
            scenarios.clear_caches()

        assert json.dumps(serial.to_json_dict(), sort_keys=True) == json.dumps(
            parallel.to_json_dict(), sort_keys=True
        )
