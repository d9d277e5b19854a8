"""Artifact subsystem tests: codecs, the store, and runner layering."""

from __future__ import annotations

import json
import tempfile
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import artifacts, scenarios
from repro.artifacts import codec
from repro.artifacts.codec import (
    canonical_json,
    decode_array,
    decode_simulation_result,
    encode_array,
    encode_simulation_result,
    spec_key,
)
from repro.artifacts.diffing import compare_figure_payloads
from repro.errors import ConfigurationError
from repro.experiments.common import FigureResult
from repro.scenarios import MarketSpec, RouterSpec, Scenario, TraceSpec
from repro.sim.results import SimulationResult


def _tiny_result(n_steps: int = 7, n_clusters: int = 3) -> SimulationResult:
    rng = np.random.default_rng(42)
    return SimulationResult(
        start=datetime(2008, 12, 16, 5, 30),
        step_seconds=300,
        cluster_labels=tuple(f"C{i}" for i in range(n_clusters)),
        capacities=rng.uniform(1e5, 2e5, n_clusters),
        server_counts=rng.uniform(1e3, 2e3, n_clusters),
        loads=rng.uniform(0, 1e5, (n_steps, n_clusters)),
        paid_prices=rng.uniform(10, 200, (n_steps, n_clusters)),
        distance_histogram=rng.uniform(0, 1e6, 240),
    )


class TestSpecKeys:
    def test_key_is_stable_and_hex(self):
        scenario = Scenario(name="x")
        key = spec_key(scenario)
        assert key == spec_key(Scenario(name="x"))
        assert len(key) == 64
        int(key, 16)

    def test_key_ignores_nothing_but_reflects_fields(self):
        base = Scenario(name="a")
        assert spec_key(base) != spec_key(base.derive(follow_95_5=True))
        assert spec_key(base) != spec_key(base.with_router(distance_threshold_km=1.0))
        assert spec_key(base.market) != spec_key(base.trace)

    def test_distinct_spec_types_never_collide(self):
        # Same field values, different frozen types -> different keys.
        assert spec_key(MarketSpec()) != spec_key(TraceSpec(kind="turn-of-year", seed=2009))

    def test_canonical_json_rejects_unencodable(self):
        with pytest.raises(ConfigurationError):
            canonical_json(object())


class TestArrayCodec:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_])
    def test_bit_identical_round_trip(self, dtype):
        rng = np.random.default_rng(7)
        arr = (rng.uniform(-1e9, 1e9, (5, 4)) * 1.0).astype(dtype)
        out = decode_array(encode_array(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)
        assert out.tobytes() == arr.tobytes()

    def test_non_contiguous_input(self):
        arr = np.arange(24.0).reshape(4, 6)[:, ::2]
        out = decode_array(encode_array(arr))
        assert np.array_equal(out, arr)


class TestSimulationResultCodec:
    def test_bit_identical_round_trip(self):
        result = _tiny_result()
        out = decode_simulation_result(encode_simulation_result(result))
        assert out.start == result.start
        assert out.step_seconds == result.step_seconds
        assert out.cluster_labels == result.cluster_labels
        for name in ("capacities", "server_counts", "loads", "paid_prices"):
            assert getattr(out, name).tobytes() == getattr(result, name).tobytes()
        assert (
            out.distance_profile.histogram.tobytes()
            == result.distance_profile.histogram.tobytes()
        )

    def test_derived_quantities_survive(self):
        from repro.energy.params import OPTIMISTIC_FUTURE

        result = _tiny_result()
        out = decode_simulation_result(encode_simulation_result(result))
        assert out.total_cost(OPTIMISTIC_FUTURE) == result.total_cost(OPTIMISTIC_FUTURE)
        assert np.array_equal(out.percentiles_95(), result.percentiles_95())


class TestStore:
    def test_simulation_round_trip(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        scenario = Scenario(name="t")
        result = _tiny_result()
        assert store.load_simulation(scenario) is None
        path = store.save_simulation(scenario, result)
        assert path.exists()
        out = store.load_simulation(scenario)
        assert out is not None
        assert out.loads.tobytes() == result.loads.tobytes()

    def test_figure_round_trip(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        from repro.experiments.orchestrator import FigureSpec

        spec = FigureSpec("fig01")
        fig = FigureResult(
            figure_id="fig01",
            title="t",
            headers=("a", "b"),
            rows=(("x", 1.5),),
            series={"s": np.array([1.0, 2.0])},
            summary={"k": 3.0},
        )
        store.save_figure(spec, fig.to_json_dict())
        out = FigureResult.from_json_dict(store.load_figure(spec))
        assert out.figure_id == fig.figure_id
        assert out.headers == fig.headers
        assert out.rows == fig.rows
        assert out.summary == fig.summary
        assert out.notes == fig.notes
        assert np.array_equal(out.series["s"], fig.series["s"])

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        scenario = Scenario(name="t")
        path = store.save_simulation(scenario, _tiny_result())
        path.write_text("{not json")
        assert store.load_simulation(scenario) is None

    def test_entries_and_clear(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        store.save_simulation(Scenario(name="a"), _tiny_result())
        store.save_simulation(Scenario(name="b", reaction_delay_hours=2), _tiny_result())
        entries = list(store.entries())
        assert len(entries) == 2
        assert all(e.kind == artifacts.KIND_SIMULATION for e in entries)
        assert store.clear() == 2
        assert list(store.entries()) == []


_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.dtype("<f8"), np.dtype("<i8"), np.dtype("?")]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)


def _assert_same(out, expected) -> None:
    """Structural equality, arrays compared bit for bit."""
    if isinstance(expected, np.ndarray):
        assert isinstance(out, np.ndarray)
        assert out.dtype == expected.dtype.newbyteorder("<")
        assert out.shape == expected.shape
        assert out.tobytes() == expected.astype(out.dtype).tobytes()
    elif isinstance(expected, dict):
        assert isinstance(out, dict) and list(out) == list(expected)
        for key in expected:
            _assert_same(out[key], expected[key])
    elif isinstance(expected, list):
        assert isinstance(out, list) and len(out) == len(expected)
        for a, b in zip(out, expected):
            _assert_same(a, b)
    else:
        assert out == expected


class TestRecordFormat:
    """The on-disk framing: a JSON header line, then the raw array bytes."""

    @settings(max_examples=60, deadline=None)
    @given(arrays=st.lists(_ARRAYS, min_size=1, max_size=4))
    def test_arrays_round_trip_bit_identically(self, arrays):
        payload = {
            "first": arrays[0],
            "nested": {"items": list(arrays), "pair": [arrays[-1], {"deep": arrays[0]}]},
            "count": len(arrays),
            "label": "x",
            "nothing": None,
        }
        with tempfile.TemporaryDirectory() as root:
            store = artifacts.ArtifactStore(root)
            store.save(artifacts.KIND_SESSION, Scenario(name="t"), payload)
            _assert_same(store.load(artifacts.KIND_SESSION, Scenario(name="t")), payload)

    def test_arrays_are_little_endian_and_aligned_on_disk(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        odd = np.array([True, False, True])  # 3 bytes: the next array needs padding
        big = np.arange(5.0).astype(">f8")
        path = store.save(artifacts.KIND_SESSION, "spec", {"odd": odd, "big": big})
        header, tail = path.read_bytes().split(b"\n", 1)
        arrays = json.loads(header)["payload"]
        assert arrays["odd"]["__array__"]["offset"] == 0
        assert arrays["big"]["__array__"] == {
            "dtype": "<f8",
            "shape": [5],
            "offset": 8,
            "nbytes": 40,
        }
        assert tail == odd.tobytes() + bytes(5) + big.astype("<f8").tobytes()
        out = store.load(artifacts.KIND_SESSION, "spec")
        assert out["big"].dtype == np.dtype("<f8") and out["big"].flags.aligned
        assert np.array_equal(out["big"], big)

    def test_two_saves_write_identical_bytes(self, tmp_path):
        first = artifacts.ArtifactStore(tmp_path / "a")
        second = artifacts.ArtifactStore(tmp_path / "b")
        scenario = Scenario(name="t")
        a = first.save_simulation(scenario, _tiny_result())
        b = second.save_simulation(scenario, _tiny_result())
        assert a.read_bytes() == b.read_bytes()
        assert first.save_simulation(scenario, _tiny_result()).read_bytes() == a.read_bytes()

    def test_header_holds_format_kind_spec_and_payload(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        scenario = Scenario(name="t")
        path = store.save_simulation(scenario, _tiny_result())
        line = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(line)
        assert list(header) == ["format", "kind", "spec", "payload"]
        assert header["format"] == codec.FORMAT_VERSION
        assert header["kind"] == artifacts.KIND_SIMULATION
        assert b'"spec":' + canonical_json(scenario).encode() + b',"payload"' in line
        descriptor = header["payload"]["loads"]["__array__"]
        assert set(descriptor) == {"dtype", "shape", "offset", "nbytes"}

    def test_truncated_tail_is_a_miss(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        scenario = Scenario(name="t")
        path = store.save_simulation(scenario, _tiny_result())
        path.write_bytes(path.read_bytes()[:-8])
        assert store.load_simulation(scenario) is None

    @pytest.mark.parametrize(
        "header",
        [b"{not json", b"[1, 2]", b'{"format": 3, "kind": "simulations", "payload": '],
        ids=["garbage", "not-an-object", "cut-short"],
    )
    def test_corrupt_header_is_a_miss(self, tmp_path, header):
        store = artifacts.ArtifactStore(tmp_path)
        scenario = Scenario(name="t")
        path = store.save_simulation(scenario, _tiny_result())
        tail = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(header + b"\n" + tail)
        assert store.load_simulation(scenario) is None

    def test_version_2_json_record_is_a_miss(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        scenario = Scenario(name="t")
        result = _tiny_result()
        path = store.path_for(artifacts.KIND_SIMULATION, scenario)
        path.parent.mkdir(parents=True)
        payload = {
            "start": result.start.isoformat(),
            "step_seconds": result.step_seconds,
            "cluster_labels": list(result.cluster_labels),
            **{
                name: encode_array(getattr(result, name))
                for name in ("capacities", "server_counts", "loads", "paid_prices")
            },
            "distance_histogram": encode_array(result.distance_profile.histogram),
        }
        record = {
            "format": 2,
            "kind": artifacts.KIND_SIMULATION,
            "spec": json.loads(canonical_json(scenario)),
            "payload": payload,
        }
        path.write_text(json.dumps(record))
        assert store.load_simulation(scenario) is None
        store.save_simulation(scenario, result)  # rebuilt over it
        assert store.load_simulation(scenario).loads.tobytes() == result.loads.tobytes()

    def test_loaded_arrays_are_read_only(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        store.save(artifacts.KIND_SESSION, "spec", {"a": np.arange(4.0), "b": [np.zeros((2, 2))]})
        out = store.load(artifacts.KIND_SESSION, "spec")
        for arr in (out["a"], out["b"][0]):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        sim = Scenario(name="t")
        store.save_simulation(sim, _tiny_result())
        assert not store.load_simulation(sim).loads.flags.writeable

    def test_save_canonicalises_the_spec_once(self, tmp_path, monkeypatch):
        calls = []
        real = codec.canonical_json
        monkeypatch.setattr(codec, "canonical_json", lambda obj: calls.append(obj) or real(obj))
        store = artifacts.ArtifactStore(tmp_path)
        scenario = Scenario(name="t")
        store.save_simulation(scenario, _tiny_result())
        assert calls == [scenario]
        # A key from a load miss serves the following save as well.
        calls.clear()
        key = artifacts.keyed(Scenario(name="u"))
        assert store.load_simulation(key) is None
        store.save_simulation(key, _tiny_result())
        assert len(calls) == 1

    def test_object_arrays_are_refused(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.save(artifacts.KIND_SESSION, "spec", {"a": np.array([object()])})

    def test_entries_read_only_the_header(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        scenario = Scenario(name="t")
        path = store.save_simulation(scenario, _tiny_result())
        header = path.read_bytes().split(b"\n", 1)[0]
        path.write_bytes(header + b"\n" + b"\xff" * 7)  # a tail nobody should parse
        (entry,) = store.entries()
        assert entry.key == path.stem
        assert entry.spec == json.loads(canonical_json(scenario))
        assert entry.size_bytes == path.stat().st_size
        assert entry.mtime == path.stat().st_mtime

    def test_clear_removes_orphaned_temp_files(self, tmp_path):
        store = artifacts.ArtifactStore(tmp_path)
        path = store.save_simulation(Scenario(name="t"), _tiny_result())
        orphan = path.with_name(f"{path.stem}abc123.tmp")
        orphan.write_bytes(b'{"format":3')  # a writer killed mid-record
        campaign = store.campaign_dir("k")
        campaign.mkdir(parents=True)
        (campaign / "group-0xyz.tmp").write_bytes(b"")
        assert store.clear() == 3
        assert not orphan.exists()
        assert not campaign.exists()


class TestRunnerLayering:
    """scenarios.run consults the on-disk store when one is active."""

    SCENARIO = Scenario(
        name="tiny",
        market=MarketSpec(start=datetime(2008, 10, 1), months=3, seed=7),
        trace=TraceSpec(kind="five-minute", start=datetime(2008, 10, 5), n_steps=288, seed=7),
        router=RouterSpec.of("baseline"),
    )

    def test_run_persists_and_reloads(self, tmp_path, monkeypatch):
        from repro.scenarios import runner

        store = artifacts.configure(tmp_path / "store")
        try:
            scenarios.clear_caches()
            first = scenarios.run(self.SCENARIO)
            entries = list(store.entries())
            sims = [e for e in entries if e.kind == artifacts.KIND_SIMULATION]
            assert len(sims) == 1
            # The materialised market data set is published alongside it.
            assert [e.kind for e in entries if e.kind != artifacts.KIND_SIMULATION] == [
                artifacts.KIND_DATASET
            ]
            # A cold in-process cache must hit the disk layer, not re-simulate.
            scenarios.clear_caches()
            monkeypatch.setattr(
                runner,
                "_execute",
                lambda s: pytest.fail("re-simulated despite a warm disk store"),
            )
            second = scenarios.run(self.SCENARIO)
            assert second.loads.tobytes() == first.loads.tobytes()
            assert second.start == first.start
        finally:
            artifacts.reset()
            scenarios.clear_caches()

    def test_a_miss_then_publish_keys_the_scenario_once(self, tmp_path, monkeypatch):
        from repro.scenarios import runner

        artifacts.configure(tmp_path / "store")
        calls = []
        real = codec.canonical_json
        monkeypatch.setattr(codec, "canonical_json", lambda obj: calls.append(obj) or real(obj))
        try:
            scenarios.clear_caches()
            scenarios.run(self.SCENARIO)
            assert sum(isinstance(obj, Scenario) for obj in calls) == 1
            assert runner._store_key.cache_info().currsize == 1
        finally:
            artifacts.reset()
            scenarios.clear_caches()

    def test_stacked_replicas_skip_the_certain_miss(self, tmp_path, monkeypatch):
        from dataclasses import replace

        store = artifacts.configure(tmp_path / "store")
        replicas = [
            self.SCENARIO.derive(trace=replace(self.SCENARIO.trace, seed=seed))
            for seed in (7, 8)
        ]
        calls = []

        def recording(name, real):
            def recorded(self, kind, *args):
                calls.append((name, kind))
                return real(self, kind, *args)

            return recorded

        for name in ("has", "load", "save"):
            real = getattr(artifacts.ArtifactStore, name)
            monkeypatch.setattr(artifacts.ArtifactStore, name, recording(name, real))
        try:
            scenarios.clear_caches()
            results = scenarios.run_many(replicas)
            assert [c for c in calls if c[1] == artifacts.KIND_SIMULATION] == []
            assert [e for e in store.entries() if e.kind == artifacts.KIND_SIMULATION] == []
            # Both replicas are memoised: run() returns them without the store.
            assert [scenarios.run(r) for r in replicas] == list(results)
            assert [c for c in calls if c[1] == artifacts.KIND_SIMULATION] == []
        finally:
            artifacts.reset()
            scenarios.clear_caches()

    def test_refresh_mode_bypasses_store_reads(self, tmp_path, monkeypatch):
        """refresh mode must re-simulate even with a warm disk store."""
        from repro.scenarios import runner

        store = artifacts.configure(tmp_path / "store")
        try:
            scenarios.clear_caches()
            first = scenarios.run(self.SCENARIO)
            scenarios.clear_caches()
            executed = []
            real_execute = runner._execute
            monkeypatch.setattr(runner, "_execute", lambda s: executed.append(s) or real_execute(s))
            artifacts.set_refresh(True)
            second = scenarios.run(self.SCENARIO)
            assert executed, "stored simulation was served despite refresh mode"
            # The fresh result overwrites (identically) rather than reads.
            sims = [e for e in store.entries() if e.kind == artifacts.KIND_SIMULATION]
            assert len(sims) == 1
            assert second.loads.tobytes() == first.loads.tobytes()
        finally:
            artifacts.reset()
            scenarios.clear_caches()

    def test_no_store_means_no_files(self, tmp_path):
        artifacts.configure(None)
        scenarios.clear_caches()
        try:
            scenarios.run(self.SCENARIO)
            assert not (tmp_path / "store").exists()
        finally:
            artifacts.reset()
            scenarios.clear_caches()

    def test_clear_caches_exposed(self):
        from repro.scenarios import runner

        assert callable(scenarios.clear_caches)
        scenarios.clear_caches()
        assert runner._dataset_cached.cache_info().currsize == 0


class TestDiffing:
    BASE = {
        "figure_id": "figXX",
        "title": "t",
        "headers": ["a", "b"],
        "rows": [["x", 1.0], ["y", 2.0]],
        "series": {"s": encode_array(np.array([1.0, 2.0]))},
        "summary": {"k": 3.0},
        "notes": ["n"],
    }

    def test_identical_payloads_match(self):
        assert compare_figure_payloads(self.BASE, self.BASE) == []

    def test_within_tolerance_matches(self):
        fresh = {**self.BASE, "summary": {"k": 3.0 + 1e-12}}
        assert compare_figure_payloads(self.BASE, fresh) == []

    def test_numeric_drift_detected(self):
        fresh = {**self.BASE, "summary": {"k": 3.5}}
        drifts = compare_figure_payloads(self.BASE, fresh)
        assert any("summary k" in d for d in drifts)

    def test_series_drift_detected(self):
        fresh = {**self.BASE, "series": {"s": encode_array(np.array([1.0, 2.5]))}}
        drifts = compare_figure_payloads(self.BASE, fresh)
        assert any("series s" in d for d in drifts)

    def test_row_string_change_detected(self):
        fresh = {**self.BASE, "rows": [["x", 1.0], ["z", 2.0]]}
        drifts = compare_figure_payloads(self.BASE, fresh)
        assert any("row 1" in d for d in drifts)

    def test_missing_series_detected(self):
        fresh = {**self.BASE, "series": {}}
        drifts = compare_figure_payloads(self.BASE, fresh)
        assert any("missing" in d for d in drifts)

    def test_notes_excluded_from_comparison(self):
        fresh = {**self.BASE, "notes": ["different prose"]}
        assert compare_figure_payloads(self.BASE, fresh) == []
