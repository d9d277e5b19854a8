"""What a campaign writes to the artifact store, and what it keeps in memory.

A campaign stores only what it reads back: the market data set, its
checkpoint (manifest and banked groups) and the final ``sweeps/``
record. Point and baseline simulations stay in the runner's bounded
in-process memo. These tests pin the ``sweeps/`` record bytes, check
that no simulation record is read or written, serially or across a
pool, and that the runner's bookkeeping stays within its memo's bound
however large the campaign is.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import artifacts, scenarios, sweeps
from repro.scenarios import runner
from repro.sweeps.spec import SweepAxis

#: sha256 of ``sweeps/<key>.json`` after a cold run, by replica count
#: (``None`` is the registered count); serial and pooled runs agree.
SWEEP_RECORD_DIGESTS = {
    None: (
        "07b60839d965ab464725ce20f5d3e6bf3dce99a12994093ad7306dda466a5bea",
        "cd6ca7fb1de41525319024149451d53a725b071639de644592581785662448eb",
    ),
    2: (
        "29b86507f0a0c7b9f014e6577b6b87cb477f4d6965bf456c7e8319869005c949",
        "5c24e6ecac734e49db9fa44a5947e7caac4fefa4a01fb96172d377346632de32",
    ),
}


def _smoke_grid(replicas: int | None):
    spec = sweeps.get("smoke-grid")
    return spec if replicas is None else spec.derive(n_replicas=replicas)


def _record_digests(root) -> dict[str, str]:
    return {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (root / artifacts.KIND_SWEEP).glob("*.json")
    }


def _simulation_records(root) -> list:
    return sorted((root / artifacts.KIND_SIMULATION).glob("*"))


def _cold_sweep(root, spec, jobs: int):
    artifacts.configure(root)
    scenarios.clear_caches()
    try:
        return sweeps.run_sweep(spec, jobs=jobs)
    finally:
        artifacts.reset()
        scenarios.clear_caches()


class TestSweepRecordDigests:
    @pytest.mark.parametrize("replicas", [None, 2], ids=["registered", "replicas-2"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_record_bytes_are_pinned(self, tmp_path, replicas, jobs):
        spec = _smoke_grid(replicas)
        key, digest = SWEEP_RECORD_DIGESTS[replicas]
        assert artifacts.spec_key(spec) == key
        _cold_sweep(tmp_path / "store", spec, jobs)
        assert _record_digests(tmp_path / "store") == {key: digest}


def _capped_first():
    """A grid whose groups open with a ``follow_95_5`` point: its
    baseline is a singleton run that must be memoised before the
    capped point asks for its 95/5 caps."""
    spec = _smoke_grid(2)
    distance, price, _ = spec.axes
    return spec.derive(
        name="smoke-grid-capped-first",
        axes=(distance, price, SweepAxis("follow_95_5", (True, False))),
    )


class TestCampaignsStoreNoSimulations:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("spec", [_smoke_grid(2), _capped_first()], ids=["smoke", "capped"])
    def test_cold_campaign_makes_no_simulation_store_call(self, tmp_path, monkeypatch, jobs, spec):
        """Pool workers are forked from this process, so the patched
        store methods reach them; a call raises there and the future
        re-raises it here."""

        def refuse(name, real):
            def guarded(self, kind, *args, **kwargs):
                if kind == artifacts.KIND_SIMULATION:
                    raise AssertionError(f"campaign called store.{name} for a simulation")
                return real(self, kind, *args, **kwargs)

            return guarded

        # load_simulation and save_simulation go through load and save.
        for name in ("has", "load", "save"):
            real = getattr(artifacts.ArtifactStore, name)
            monkeypatch.setattr(artifacts.ArtifactStore, name, refuse(name, real))

        result = _cold_sweep(tmp_path / "store", spec, jobs)
        assert result is not None
        assert _simulation_records(tmp_path / "store") == []
        assert _record_digests(tmp_path / "store")  # the sweep record was published


def _campaign_slice(n_cells: int):
    """``campaign-grid`` cut to ``n_cells`` price cells, all its replicas."""
    grid = sweeps.get("campaign-grid")
    distance, price = grid.axes
    return grid.derive(
        name="campaign-grid-memo-bound",
        axes=(
            SweepAxis(distance.name, distance.values[:1], distance.target),
            SweepAxis(price.name, price.values[:n_cells], price.target),
        ),
    )


class TestRunMemoBound:
    def test_campaign_larger_than_the_memo_stays_within_its_bound(self, tmp_path):
        """Every scenario the runner tracks is one its memo holds: a
        campaign with more points than the memo has slots leaves no
        bookkeeping beyond the memo's bound."""
        spec = _campaign_slice(8)
        bound = runner._runs.limit
        assert spec.n_points > bound
        artifacts.configure(tmp_path / "store")
        scenarios.clear_caches()
        try:
            sweeps.run_sweep(spec)
            assert 0 < len(runner._runs) <= bound
            tracked = [
                name
                for name, value in vars(runner).items()
                if isinstance(value, (set, dict)) and len(value) > bound
            ]
            assert tracked == []
        finally:
            artifacts.reset()
            scenarios.clear_caches()
        assert len(runner._runs) == 0
