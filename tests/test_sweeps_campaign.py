"""Tests for the campaign pipeline: planner, reducers, resume, shards."""

from __future__ import annotations

from datetime import datetime
from pathlib import Path

import pytest

from repro import artifacts, scenarios, sweeps
from repro.errors import ConfigurationError
from repro.scenarios.spec import MarketSpec, RouterSpec, Scenario, TraceSpec
from repro.sweeps import executor, streaming
from repro.sweeps.aggregate import aggregate
from repro.sweeps.checkpoint import CampaignCheckpoint, campaign_status
from repro.sweeps.planner import plan_groups, resolve_group_target
from repro.sweeps.shards import merge_sweep, parse_shard, shard_owns
from repro.sweeps.spec import SweepAxis, SweepSpec, expand, iter_points
from repro.sweeps.metrics import point_metrics


def _base(name: str, n_steps: int = 12) -> Scenario:
    return Scenario(
        name=name,
        market=MarketSpec(start=datetime(2008, 11, 1), months=2, seed=7),
        trace=TraceSpec(kind="five-minute", start=datetime(2008, 12, 1), n_steps=n_steps, seed=7),
        router=RouterSpec.of("price", distance_threshold_km=1500.0),
    )


#: Four cells x two trace-seeded replicas on one shared market: with a
#: group target of 2 the planner flushes one group per cell, giving the
#: multi-group campaign shape the resume and shard tests need while
#: each point stays a 12-step simulation.
QUAD = SweepSpec(
    name="quad-campaign",
    description="four-cell campaign micro sweep",
    base=_base("quad-base"),
    axes=(
        SweepAxis(name="distance_threshold_km", values=(0.0, 1500.0), target="router"),
        SweepAxis(name="follow_95_5", values=(False, True)),
    ),
    n_replicas=2,
    reseed=("trace",),
    metrics=("savings_pct",),
)


def _fresh(tmp_path, name="store"):
    store = artifacts.configure(tmp_path / name)
    scenarios.clear_caches()
    return store


def _sweep_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(root, "sweeps").glob("*.json"))}


class TestPlanner:
    def test_partition_is_deterministic_and_covers_every_point(self):
        for name in ("smoke-grid", "joint-penalty-grid", "provider-grid"):
            spec = sweeps.get(name)
            first = list(plan_groups(spec))
            second = list(plan_groups(spec))
            assert [g.point_indices for g in first] == [g.point_indices for g in second]
            assert [g.index for g in first] == list(range(len(first)))
            covered = sorted(i for g in first for i in g.point_indices)
            assert covered == list(range(spec.n_points))

    def test_small_buckets_reproduce_the_eager_grouping(self):
        spec = sweeps.get("smoke-grid")
        planned = [list(g.point_indices) for g in plan_groups(spec)]
        eager = [
            [p.index for p in bucket] for bucket in sweeps.group_points(expand(spec))
        ]
        assert planned == eager

    def test_cells_never_split_across_groups(self):
        spec = sweeps.get("joint-penalty-grid")
        for target in (1, 2, 4, 16):
            for group in plan_groups(spec, target):
                cells = {}
                for point in group.points:
                    cells.setdefault(point.cell_index, []).append(point.replica)
                for replicas in cells.values():
                    assert replicas == list(range(spec.n_replicas))

    def test_group_target_bounds_group_size(self):
        spec = QUAD
        sizes = [len(g.points) for g in plan_groups(spec, 2)]
        assert sizes == [2, 2, 2, 2]
        assert sweeps.count_groups(spec, 2) == 4

    def test_lazy_expansion_matches_eager(self):
        spec = sweeps.get("joint-penalty-grid")
        assert list(iter_points(spec)) == expand(spec)

    def test_group_target_validation(self):
        assert resolve_group_target(None) == sweeps.DEFAULT_GROUP_POINTS
        with pytest.raises(ConfigurationError):
            resolve_group_target(0)


class TestStreamingReducers:
    @staticmethod
    def _fake_metrics(spec):
        return {
            p.index: {m: float(p.index * 10 + i) for i, m in enumerate(spec.metrics)}
            for p in iter_points(spec)
        }

    def test_finalize_matches_aggregate_bitwise(self):
        spec = sweeps.get("smoke-grid")
        metrics = self._fake_metrics(spec)
        points = expand(spec)
        reference = aggregate(spec, points, metrics)
        states = streaming.reduce_points(points, metrics, spec.metrics)
        assert streaming.finalize(spec, states).to_json_dict() == reference.to_json_dict()

    def test_merge_is_independent_of_group_completion_order(self):
        spec = QUAD
        metrics = self._fake_metrics(spec)
        groups = list(plan_groups(spec, 2))
        per_group = [
            streaming.reduce_points(g.points, metrics, spec.metrics) for g in groups
        ]
        forward: dict[int, streaming.CellState] = {}
        for states in per_group:
            streaming.merge_cell_states(forward, states)
        backward: dict[int, streaming.CellState] = {}
        for states in reversed(per_group):
            streaming.merge_cell_states(backward, states)
        fwd = streaming.finalize(spec, forward).to_json_dict()
        assert fwd == streaming.finalize(spec, backward).to_json_dict()

    def test_checkpoint_codec_round_trips_exactly(self):
        spec = QUAD
        metrics = self._fake_metrics(spec)
        states = streaming.reduce_points(expand(spec), metrics, spec.metrics)
        decoded = streaming.decode_states(streaming.encode_states(states))
        assert streaming.finalize(spec, states).to_json_dict() == (
            streaming.finalize(spec, decoded).to_json_dict()
        )

    def test_duplicate_replica_slots_are_rejected(self):
        state = streaming.MetricState()
        state.update(0, 1.0)
        with pytest.raises(ConfigurationError):
            state.update(0, 2.0)
        other = streaming.MetricState()
        other.update(0, 3.0)
        with pytest.raises(ConfigurationError):
            state.merge(other)

    def test_finalize_rejects_incomplete_state(self):
        spec = QUAD
        metrics = self._fake_metrics(spec)
        states = streaming.reduce_points(expand(spec), metrics, spec.metrics)
        del states[0]
        with pytest.raises(ConfigurationError):
            streaming.finalize(spec, states)


class TestRefreshStatePreserved:
    def test_forced_group_restores_prior_refresh_flag(self, tmp_path):
        """A forced group must not clobber a caller's refresh mode."""
        _fresh(tmp_path)
        try:
            point = next(iter_points(QUAD))
            group = [(point.index, point.scenario, point.energy)]
            artifacts.set_refresh(True)
            executor._run_group(group, force=True)
            assert artifacts.refresh_mode() is True
            artifacts.set_refresh(False)
            executor._run_group(group, force=True)
            assert artifacts.refresh_mode() is False
        finally:
            artifacts.reset()
            scenarios.clear_caches()


class TestCrashResume:
    def test_resume_after_kill_is_byte_identical(self, tmp_path):
        uninterrupted = _fresh(tmp_path, "reference")
        try:
            sweeps.run_sweep(QUAD, jobs=1, group_target=2)
            reference = _sweep_bytes(uninterrupted.root)

            store = _fresh(tmp_path, "resumed")
            calls = {"n": 0}
            real = executor._run_group

            def dies_mid_campaign(group, force):
                calls["n"] += 1
                if calls["n"] == 3:
                    raise KeyboardInterrupt("killed mid-run")
                return real(group, force)

            executor._run_group = dies_mid_campaign
            try:
                with pytest.raises(KeyboardInterrupt):
                    sweeps.run_sweep(QUAD, jobs=1, group_target=2)
            finally:
                executor._run_group = real

            banked = list(store.root.glob("campaigns/*/group-*.json"))
            assert len(banked) == 2, "two groups should be banked before the kill"
            status = campaign_status(store, QUAD)
            assert status == (2, 4, 2)

            # Resume: only the two missing groups are recomputed.
            scenarios.clear_caches()
            recomputed = {"n": 0}

            def counting(group, force):
                recomputed["n"] += 1
                return real(group, force)

            executor._run_group = counting
            try:
                sweeps.run_sweep(QUAD, jobs=1, group_target=2)
            finally:
                executor._run_group = real
            assert recomputed["n"] == 2
            assert _sweep_bytes(store.root) == reference
            assert campaign_status(store, QUAD) is None, "checkpoint discarded"
        finally:
            artifacts.reset()
            scenarios.clear_caches()

    def test_force_discards_banked_groups(self, tmp_path):
        store = _fresh(tmp_path)
        try:
            checkpoint = CampaignCheckpoint(store, QUAD, 2)
            checkpoint.write_manifest(4)
            group = next(iter(plan_groups(QUAD, 2)))
            checkpoint.bank(group, {})
            recomputed = {"n": 0}
            real = executor._run_group

            def counting(g, force):
                recomputed["n"] += 1
                return real(g, force)

            executor._run_group = counting
            try:
                sweeps.run_sweep(QUAD, jobs=1, group_target=2, force=True)
            finally:
                executor._run_group = real
            assert recomputed["n"] == 4, "force must recompute every group"
        finally:
            artifacts.reset()
            scenarios.clear_caches()


    def test_discard_removes_orphaned_temp_files(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path / "store")
        checkpoint = CampaignCheckpoint(store, QUAD, 2)
        checkpoint.write_manifest(4)
        checkpoint.bank(next(iter(plan_groups(QUAD, 2))), {})
        # A worker killed while banking group 1 leaves its temp file.
        (checkpoint.directory / "group-1k3j9x.tmp").write_bytes(b'{"cells"')
        checkpoint.discard()
        assert not checkpoint.directory.exists()


class TestShards:
    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard(" 3/8 ") == (3, 8)
        for bad in ("2/2", "a/2", "1", "-1/2", "1/0"):
            with pytest.raises(ConfigurationError):
                parse_shard(bad)
        assert shard_owns(None, 5)
        assert shard_owns((1, 2), 3)
        assert not shard_owns((1, 2), 2)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_two_shards_merge_bitwise_equal_to_whole_run(self, tmp_path, jobs):
        single = _fresh(tmp_path, f"single-{jobs}")
        try:
            sweeps.run_sweep(QUAD, jobs=jobs, group_target=2)
            reference = _sweep_bytes(single.root)

            sharded = _fresh(tmp_path, f"sharded-{jobs}")
            assert sweeps.run_sweep(QUAD, jobs=jobs, group_target=2, shard=(0, 2)) is None
            scenarios.clear_caches()
            assert sweeps.run_sweep(QUAD, jobs=jobs, group_target=2, shard=(1, 2)) is None
            scenarios.clear_caches()
            merge_sweep(QUAD, group_target=2)
            assert _sweep_bytes(sharded.root) == reference
        finally:
            artifacts.reset()
            scenarios.clear_caches()

    def test_merge_from_separate_shard_stores(self, tmp_path):
        single = _fresh(tmp_path, "single")
        try:
            sweeps.run_sweep(QUAD, jobs=1, group_target=2)
            reference = _sweep_bytes(single.root)

            other = _fresh(tmp_path, "machine-b")
            assert sweeps.run_sweep(QUAD, jobs=1, group_target=2, shard=(1, 2)) is None

            mine = _fresh(tmp_path, "machine-a")
            assert sweeps.run_sweep(QUAD, jobs=1, group_target=2, shard=(0, 2)) is None
            merge_sweep(QUAD, group_target=2, extra_roots=(other.root,))
            assert _sweep_bytes(mine.root) == reference
        finally:
            artifacts.reset()
            scenarios.clear_caches()

    def test_merge_of_incomplete_campaign_is_an_error(self, tmp_path):
        _fresh(tmp_path)
        try:
            assert sweeps.run_sweep(QUAD, jobs=1, group_target=2, shard=(0, 2)) is None
            with pytest.raises(ConfigurationError, match="incomplete"):
                merge_sweep(QUAD, group_target=2)
        finally:
            artifacts.reset()
            scenarios.clear_caches()

    def test_shard_without_store_is_an_error(self):
        artifacts.configure(None)
        try:
            with pytest.raises(ConfigurationError, match="store"):
                sweeps.run_sweep(QUAD, jobs=1, shard=(0, 2))
        finally:
            artifacts.reset()


class TestCampaignCli:
    @pytest.fixture
    def quad_registered(self, monkeypatch):
        monkeypatch.setitem(sweeps.REGISTRY, QUAD.name, QUAD)
        return QUAD

    def test_shard_run_then_merge_round_trip(self, tmp_path, capsys, quad_registered):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        base = ["--artifacts", store_dir, "--group-size", "2", "quad-campaign"]
        assert main(["sweep", "run", "--quiet", "--shard", "0/2", *base]) == 0
        assert "banked" in capsys.readouterr().err
        assert main(["sweep", "run", "--quiet", "--shard", "1/2", *base]) == 0
        capsys.readouterr()
        assert main(["sweep", "merge", "--quiet", *base]) == 0
        assert "merged" in capsys.readouterr().err
        store = artifacts.ArtifactStore(tmp_path / "store")
        assert store.has(artifacts.KIND_SWEEP, QUAD)

    def test_merge_incomplete_exits_nonzero(self, tmp_path, capsys, quad_registered):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        base = ["--artifacts", store_dir, "--group-size", "2", "quad-campaign"]
        assert main(["sweep", "run", "--quiet", "--shard", "0/2", *base]) == 0
        capsys.readouterr()
        assert main(["sweep", "merge", "--quiet", *base]) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_bad_shard_spec_is_usage_error(self, capsys, quad_registered):
        from repro.cli import main

        rc = main(["sweep", "run", "--no-store", "--shard", "2/2", "quad-campaign"])
        assert rc == 2
        assert "shard" in capsys.readouterr().err

    def test_list_reports_resumable_checkpoint(self, tmp_path, capsys, quad_registered):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        args = ["--artifacts", store_dir, "--group-size", "2", "quad-campaign"]
        assert main(["sweep", "run", "--quiet", "--shard", "0/2", *args]) == 0
        capsys.readouterr()
        assert main(["sweep", "list", "--artifacts", store_dir]) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if ln.startswith("quad-campaign"))
        assert "checkpoint: 2/4 groups" in line
        assert "resumable" in line


class TestDatasetKindHousekeeping:
    def test_clean_covers_datasets_and_campaigns(self, tmp_path):
        store = _fresh(tmp_path)
        try:
            assert sweeps.run_sweep(QUAD, jobs=1, group_target=2, shard=(0, 2)) is None
            assert list(store.root.glob("datasets/*.json"))
            assert list(store.root.glob("campaigns/*/group-*.json"))
            kinds = {e.kind for e in store.entries()}
            assert artifacts.KIND_DATASET in kinds
            assert artifacts.KIND_CAMPAIGN in kinds
            assert store.clear() > 0
            assert list(store.entries()) == []
            assert not list(store.root.glob("campaigns/*"))
        finally:
            artifacts.reset()
            scenarios.clear_caches()
