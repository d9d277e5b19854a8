"""Tests for the unified ``repro`` CLI and the figure orchestrator."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import artifacts
from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.orchestrator import (
    FigureSpec,
    resolve_figure_ids,
    run_figures,
)

#: Cheap, simulation-free figures for CLI round-trips.
CHEAP = ["fig01", "fig06"]

SRC = Path(__file__).resolve().parents[1] / "src"


class TestArgParsing:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "repro" in capsys.readouterr().out

    def test_run_without_figures_is_usage_error(self, capsys):
        assert main(["run", "--no-store"]) == 2
        assert "no figures" in capsys.readouterr().err

    def test_run_unknown_figure(self, capsys):
        assert main(["run", "--no-store", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err
        assert "fig99" in err

    def test_diff_unknown_figure(self, capsys):
        assert main(["diff", "--no-store", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_artifacts_and_no_store_conflict(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig01", "--artifacts", "x", "--no-store"])

    def test_run_unknown_provider(self, capsys):
        assert main(["run", "--no-store", "fig01", "--provider", "bloomberg"]) == 2
        err = capsys.readouterr().err
        assert "unknown provider" in err
        assert "replay-smoke" in err

    def test_run_provider_data_error_is_a_clean_exit(self, capsys):
        # fig06 reports hubs the nine-hub replay tape cannot supply; the
        # resulting DataError must surface as a usage error, not a
        # traceback.
        assert main(["run", "--no-store", "fig06", "--provider", "replay-smoke"]) == 2
        assert "unknown market hub" in capsys.readouterr().err


class TestServeFlags:
    """Serve flags that cannot take effect are usage errors, not ignored.

    Each case runs in its own process with a timeout, because a server
    that accepts the flags serves until it is killed.
    """

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--steps", "5", "--rolling-window", "4"], "--steps"),
            (["--rolling-window", "4", "--resume", "--no-store"], "--resume"),
            (["--rolling-window", "4", "--resume", "--no-store", "--workers", "2"], "--resume"),
            (["--max-queue", "-3"], "--max-queue"),
            (["--max-batch", "0"], "--max-batch"),
            (["--batch-window-ms", "-1"], "--batch-window-ms"),
            (["--workers", "2", "--max-batch", "0"], "--max-batch"),
        ],
    )
    def test_refused_with_usage_error(self, tmp_path, flags, named):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr


class TestProvidersCommand:
    def test_providers_list(self, capsys):
        assert main(["providers", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("synthetic", "replay-smoke", "spiky-markets", "decorrelated-rtos"):
            assert name in out

    def test_providers_without_subcommand(self, capsys):
        assert main(["providers"]) == 2

    def test_run_with_provider_uses_a_distinct_artifact_key(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", "--quiet", "fig01", "--artifacts", store]) == 0
        assert (
            main(
                ["run", "--quiet", "fig01", "--artifacts", store,
                 "--provider", "spiky-markets"]
            )
            == 0
        )
        figures = list((tmp_path / "store" / "figures").glob("*.json"))
        assert len(figures) == 2


class TestRunCommand:
    def test_run_prints_figure_text(self, capsys):
        assert main(["run", "--no-store", "fig01"]) == 0
        out = capsys.readouterr().out
        assert "Google" in out

    def test_quiet_suppresses_stdout(self, capsys):
        assert main(["run", "--no-store", "--quiet", "fig01"]) == 0
        captured = capsys.readouterr()
        assert "Google" not in captured.out
        assert "1 figure(s)" in captured.err

    def test_run_populates_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["run", "--quiet", "--artifacts", str(store_dir), "fig01"]) == 0
        store = artifacts.ArtifactStore(store_dir)
        assert store.has(artifacts.KIND_FIGURE, FigureSpec("fig01"))

    def test_warm_run_reuses_figure_artifact(self, tmp_path, capsys, monkeypatch):
        store_dir = str(tmp_path / "store")
        assert main(["run", "--quiet", "--artifacts", store_dir, "fig01"]) == 0
        # Poison the driver: a warm run must not call it.
        from repro.experiments import orchestrator

        monkeypatch.setattr(
            orchestrator,
            "_call_driver",
            lambda spec: pytest.fail("driver re-ran despite cached artifact"),
        )
        assert main(["run", "--quiet", "--artifacts", store_dir, "fig01"]) == 0

    def test_force_reruns_driver_in_refresh_mode(self, tmp_path, capsys, monkeypatch):
        store_dir = str(tmp_path / "store")
        assert main(["run", "--quiet", "--artifacts", store_dir, "fig01"]) == 0
        from repro.experiments import orchestrator

        seen = []
        real = orchestrator._call_driver
        monkeypatch.setattr(
            orchestrator,
            "_call_driver",
            lambda spec: seen.append(artifacts.refresh_mode()) or real(spec),
        )
        assert main(["run", "--quiet", "--force", "--artifacts", store_dir, "fig01"]) == 0
        # The driver ran again, with simulation-store reads suspended.
        assert seen == [True]
        assert artifacts.refresh_mode() is False


class TestListCommand:
    def test_list_names_all_figures(self, capsys):
        assert main(["list", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out
        assert "fig20" in out
        assert "fig02" not in out

    def test_list_marks_cached_figures(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        main(["run", "--quiet", "--artifacts", store_dir, "fig01"])
        capsys.readouterr()
        assert main(["list", "--artifacts", store_dir]) == 0
        out = capsys.readouterr().out
        fig01_line = next(line for line in out.splitlines() if line.startswith("fig01"))
        assert "*" in fig01_line


class TestDiffCommand:
    def test_update_then_match(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        goldens = str(tmp_path / "goldens")
        args = ["--artifacts", store, "--goldens", goldens]
        assert main(["diff", *CHEAP, *args, "--update"]) == 0
        assert main(["diff", *CHEAP, *args]) == 0
        out = capsys.readouterr().out
        assert "fig01: ok" in out

    def test_default_figure_set_comes_from_goldens_dir(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        goldens = str(tmp_path / "goldens")
        args = ["--artifacts", store, "--goldens", goldens]
        main(["diff", "fig01", *args, "--update"])
        capsys.readouterr()
        assert main(["diff", *args]) == 0
        out = capsys.readouterr().out
        assert "fig01: ok" in out
        assert "fig06" not in out

    def test_drift_fails(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        goldens_dir = tmp_path / "goldens"
        args = ["--artifacts", store, "--goldens", str(goldens_dir)]
        assert main(["diff", "fig01", *args, "--update"]) == 0
        golden_path = goldens_dir / "fig01.json"
        payload = json.loads(golden_path.read_text())
        key = next(iter(payload["summary"]))
        payload["summary"][key] += 1.0
        golden_path.write_text(json.dumps(payload))
        assert main(["diff", "fig01", *args]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out

    def test_missing_golden_fails(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        goldens = str(tmp_path / "empty")
        assert (main(["diff", "fig01", "--artifacts", store, "--goldens", goldens]) == 1)
        assert "no golden" in capsys.readouterr().out

    def test_no_goldens_no_figures_is_usage_error(self, tmp_path, capsys):
        rc = main(["diff", "--no-store", "--goldens", str(tmp_path / "nowhere")])
        assert rc == 2


class TestCleanCommand:
    def test_clean_empties_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(["run", "--quiet", "--artifacts", str(store_dir), "fig01"])
        store = artifacts.ArtifactStore(store_dir)
        assert len(list(store.entries())) == 1
        assert main(["clean", "--artifacts", str(store_dir)]) == 0
        assert list(store.entries()) == []


class TestStoreStatus:
    def test_status_reports_kinds_and_resumable_campaigns(self, tmp_path, capsys):
        from repro import sweeps
        from repro.sweeps.checkpoint import CampaignCheckpoint
        from repro.sweeps.planner import plan_groups

        store_dir = tmp_path / "store"
        main(["run", "--quiet", "--artifacts", str(store_dir), "fig01", "fig06"])
        store = artifacts.ArtifactStore(store_dir)
        spec = sweeps.get("smoke-grid")
        checkpoint = CampaignCheckpoint(store, spec, 2)
        checkpoint.write_manifest(4)
        checkpoint.bank(next(iter(plan_groups(spec, 2))), {})
        capsys.readouterr()

        assert main(["store", "status", "--artifacts", str(store_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"store {store_dir}"
        rows = {line.split()[0]: line.split() for line in lines[2:]}
        figure_bytes = sum(p.stat().st_size for p in (store_dir / "figures").glob("*.json"))
        assert rows["figures"][1:3] == ["2", f"{figure_bytes:,d}"]
        assert "campaigns" in rows
        assert "campaign smoke-grid: 1/4 groups banked (group target 2), resumable" in lines

    def test_status_of_an_empty_store(self, tmp_path, capsys):
        assert main(["store", "status", "--artifacts", str(tmp_path / "none")]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "(empty)"

    def test_store_without_subcommand_is_usage_error(self, capsys):
        assert main(["store"]) == 2
        assert "status" in capsys.readouterr().err


class TestOrchestrator:
    def test_resolve_all_is_sorted_registry(self):
        ids = resolve_figure_ids(None, True)
        assert ids == sorted(ids)
        assert "fig01" in ids and "fig20" in ids

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="fig99"):
            resolve_figure_ids(["fig01", "fig99"], False)

    def test_figure_spec_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            FigureSpec("fig02")

    def test_parallel_matches_serial(self, tmp_path):
        """--jobs N must produce numerically identical artifacts."""
        artifacts.configure(tmp_path / "serial")
        serial = run_figures(CHEAP, jobs=1)
        artifacts.configure(tmp_path / "parallel")
        parallel = run_figures(CHEAP, jobs=2)
        artifacts.reset()

        for s, p in zip(serial, parallel):
            assert s.figure_id == p.figure_id
            assert s.rows == p.rows
            assert s.summary == p.summary
            assert set(s.series) == set(p.series)
            for name in s.series:
                assert np.array_equal(s.series[name], p.series[name])

        # The on-disk artifacts must be byte-identical too.
        serial_files = {
            p.name: p.read_bytes()
            for p in (tmp_path / "serial" / "figures").glob("*.json")
        }
        parallel_files = {
            p.name: p.read_bytes()
            for p in (tmp_path / "parallel" / "figures").glob("*.json")
        }
        assert serial_files == parallel_files

    def test_seedless_driver_tolerates_seed(self):
        artifacts.configure(None)
        (result,) = run_figures(["fig01"], seed=2009)
        assert result.figure_id == "fig01"
