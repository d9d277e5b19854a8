"""Regression pins for the stacked sweep executor.

Three guarantees the executor rework must not break:

* a ``joint`` sweep over the penalty axes is **byte-identical**
  between ``--jobs 1`` and ``--jobs 4`` through the new stacked path,
* the stacked replica path produces artifacts byte-identical to the
  pre-refactor execution (every point through its own ``run``), and
* sweep/simulation artifact *hashes* are unchanged — pinned as
  literal digests, so an accidental spec- or codec-shape change shows
  up as a loud diff instead of a silently cold store.
"""

from __future__ import annotations

from repro import artifacts, scenarios, sweeps
from repro.scenarios import runner
from repro.sweeps.spec import SweepAxis, expand


def _store_bytes(root):
    out = {}
    for kind in (artifacts.KIND_SIMULATION, artifacts.KIND_SWEEP):
        out[kind] = {p.name: p.read_bytes() for p in (root / kind).glob("*.json")}
    return out


class TestJointSweepParallelEquivalence:
    """ISSUE-5 acceptance: joint penalty sweep, serial vs --jobs 4."""

    def test_serial_and_jobs4_are_byte_identical(self, tmp_path):
        spec = sweeps.get("joint-penalty-grid")
        assert {a.name for a in spec.axes} == {
            "distance_penalty_per_1000km",
            "congestion_penalty",
        }

        artifacts.configure(tmp_path / "serial")
        scenarios.clear_caches()
        serial = sweeps.run_sweep(spec, jobs=1)
        scenarios.clear_caches()
        artifacts.configure(tmp_path / "parallel")
        parallel = sweeps.run_sweep(spec, jobs=4)
        artifacts.reset()

        assert serial == parallel
        serial_bytes = _store_bytes(tmp_path / "serial")
        parallel_bytes = _store_bytes(tmp_path / "parallel")
        assert serial_bytes == parallel_bytes
        assert serial_bytes[artifacts.KIND_SIMULATION]  # non-vacuous

    def test_serial_run_actually_stacks(self, monkeypatch):
        """The fused path must fire for the joint sweep — every cell's
        replica group (and the shared baselines) stack."""
        stacked_groups = []
        real = runner._execute_stacked

        def spy(group, *args):
            stacked_groups.append(len(group))
            return real(group, *args)

        monkeypatch.setattr(runner, "_execute_stacked", spy)
        scenarios.clear_caches()
        spec = sweeps.get("joint-penalty-grid")
        sweeps.run_sweep(spec)
        # 6 penalty cells + 1 baseline group, each n_replicas wide.
        assert stacked_groups == [spec.n_replicas] * (spec.n_cells + 1)


class TestStackedMatchesPreRefactorExecution:
    def test_stacking_disabled_produces_identical_artifacts(self, tmp_path, monkeypatch):
        """With stacking neutered, every point falls back to its own
        ``run`` pipeline — exactly the pre-refactor executor. Results
        and artifact bytes must not depend on which path ran."""
        spec = sweeps.get("joint-penalty-grid")

        artifacts.configure(tmp_path / "stacked")
        scenarios.clear_caches()
        stacked = sweeps.run_sweep(spec)

        monkeypatch.setattr(runner, "_execute_stacked", lambda group, *args: None)
        artifacts.configure(tmp_path / "plain")
        scenarios.clear_caches()
        plain = sweeps.run_sweep(spec)
        artifacts.reset()

        assert stacked == plain
        assert _store_bytes(tmp_path / "stacked") == _store_bytes(tmp_path / "plain")


def _campaign_slice(n_cells: int):
    """``campaign-grid`` cut to ``n_cells`` price cells, all its replicas."""
    grid = sweeps.get("campaign-grid")
    distance, price = grid.axes
    return grid.derive(
        name="campaign-grid-trace-count",
        axes=(
            SweepAxis(distance.name, distance.values[:1], distance.target),
            SweepAxis(price.name, price.values[:n_cells], price.target),
        ),
    )


def _count_trace_builds(monkeypatch) -> list[int]:
    builds = [0]
    real = runner.make_trace

    def counting(*args, **kwargs):
        builds[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "make_trace", counting)
    return builds


class TestTraceBuildsPerWorkGroup:
    """A cell's replicas and their baselines replay the same trace seeds.
    Each work group builds each of them once, even when there are more
    replicas than the trace memo has slots."""

    def test_one_run_many_builds_each_replica_trace_once(self, monkeypatch):
        spec = _campaign_slice(1)
        assert spec.n_replicas > runner.trace.cache_info().maxsize
        cell = [point.scenario for point in expand(spec)]
        baselines = [scenarios.baseline_scenario(s.market, s.trace, s.provider) for s in cell]
        scenarios.clear_caches()
        builds = _count_trace_builds(monkeypatch)
        scenarios.run_many(cell + baselines)
        assert builds[0] == spec.n_replicas

    def test_two_cell_campaign_builds_each_trace_once_per_group(self, monkeypatch):
        spec = _campaign_slice(2)
        scenarios.clear_caches()
        builds = _count_trace_builds(monkeypatch)
        sweeps.run_sweep(spec)
        # Two work groups (one per cell), each building every replica
        # seed once; the second group's baselines are already memoised.
        assert builds[0] == 2 * spec.n_replicas


class TestArtifactHashPins:
    """Literal digests: the executor rework must not move any key."""

    def test_pre_refactor_sweep_key_is_stable(self):
        # smoke-grid predates the stacked executor; its artifact key is
        # the contract that old stores stay warm across this refactor.
        assert (
            artifacts.spec_key(sweeps.get("smoke-grid"))
            == "07b60839d965ab464725ce20f5d3e6bf3dce99a12994093ad7306dda466a5bea"
        )

    def test_joint_sweep_keys_are_stable(self):
        spec = sweeps.get("joint-penalty-grid")
        assert (
            artifacts.spec_key(spec)
            == "d26ce01a2f7ad2596f7a2303a624c179c23bfae61e674807cc5cff1b09722570"
        )
        points = expand(spec)
        assert len(points) == 24
        assert (
            artifacts.spec_key(points[0].scenario)
            == "3c1b3932fa70958818ad73cd24827eaf514fcd977229ed0e5df6e1bbe953d5d6"
        )
