"""The unified ``repro`` command line.

Subcommands over one artifact store::

    repro run fig06 fig16 --jobs 4   # regenerate figures (parallel)
    repro run --all                  # the paper's whole figure set
    repro run fig06 --provider spiky-markets  # swap the price source
    repro list                       # figure ids + artifact status
    repro providers list             # named market-data providers
    repro diff                       # fresh artifacts vs committed goldens
    repro diff --update              # refresh the goldens from fresh runs
    repro sweep run fig15-ensemble --jobs 4   # Monte-Carlo ensembles
    repro sweep run campaign-grid --shard 0/4 # one machine's campaign slice
    repro sweep merge campaign-grid           # merge banked shard results
    repro sweep list                 # sweep names + artifact/checkpoint status
    repro sweep summarize smoke-grid # print a cached sweep's statistics
    repro serve --scenario serve-smoke --port 8351  # online routing server
    repro serve --smoke              # serving self-test (CI)
    repro store status               # what the artifact store holds
    repro clean                      # drop the on-disk artifact store

The store lives at ``--artifacts DIR`` (default ``.repro-artifacts``,
or ``REPRO_ARTIFACT_DIR`` from the environment); ``--no-store``
disables persistence for one invocation. Exit codes: 0 success,
1 golden drift, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import artifacts
from repro.artifacts.diffing import DEFAULT_ATOL, DEFAULT_RTOL, compare_figure_payloads
from repro.errors import ConfigurationError, DataError
from repro.experiments import REGISTRY
from repro.experiments.orchestrator import (
    FigureSpec,
    resolve_figure_ids,
    run_figures,
)

__all__ = ["main"]

#: Where `repro diff` looks for committed goldens.
DEFAULT_GOLDENS_DIR = Path("tests") / "goldens"


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--artifacts",
        metavar="DIR",
        help=f"artifact store directory (default {artifacts.DEFAULT_STORE_DIR})",
    )
    group.add_argument(
        "--no-store",
        action="store_true",
        help="run without persisting artifacts to disk",
    )


def _add_figure_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("figures", nargs="*", help="figure ids, e.g. fig06 fig16")
    parser.add_argument("--all", action="store_true", help="every registered figure")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="process-pool width (1 = serial, in-process)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="market seed override for every driver",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute figures and simulations even when artifacts exist",
    )


def _activate_store(args: argparse.Namespace) -> None:
    if getattr(args, "no_store", False):
        artifacts.configure(None)
    elif args.artifacts:
        artifacts.configure(args.artifacts)
    elif artifacts.get_store() is None:
        # No explicit flag, no environment: the CLI defaults to a
        # local store so warm re-invocations skip the simulations.
        artifacts.configure(artifacts.DEFAULT_STORE_DIR)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate, cache, and regression-check the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="regenerate figures into the artifact store")
    _add_figure_options(run_p)
    _add_store_options(run_p)
    run_p.add_argument("--quiet", action="store_true", help="suppress figure text on stdout")
    run_p.add_argument(
        "--provider",
        metavar="NAME",
        default=None,
        help="market-data provider preset for every driver (see `repro providers list`)",
    )

    list_p = sub.add_parser("list", help="list figure ids and artifact status")
    _add_store_options(list_p)

    diff_p = sub.add_parser("diff", help="compare fresh figures against goldens")
    _add_figure_options(diff_p)
    _add_store_options(diff_p)
    diff_p.add_argument(
        "--goldens",
        metavar="DIR",
        default=str(DEFAULT_GOLDENS_DIR),
        help="directory of golden figure artifacts",
    )
    diff_p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    diff_p.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    diff_p.add_argument(
        "--update",
        action="store_true",
        help="rewrite the goldens from the fresh results instead of comparing",
    )

    sweep_p = sub.add_parser("sweep", help="run and summarize Monte-Carlo scenario sweeps")
    sweep_sub = sweep_p.add_subparsers(dest="sweep_command")

    sweep_run_p = sweep_sub.add_parser("run", help="execute sweeps into the artifact store")
    sweep_run_p.add_argument("sweeps", nargs="*", help="sweep names, e.g. fig15-ensemble")
    sweep_run_p.add_argument("--all", action="store_true", help="every registered sweep")
    sweep_run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="process-pool width (1 = serial, in-process)",
    )
    sweep_run_p.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="override the sweep's replica count",
    )
    sweep_run_p.add_argument(
        "--force",
        action="store_true",
        help="recompute sweeps and simulations even when artifacts exist",
    )
    sweep_run_p.add_argument(
        "--shard",
        metavar="I/N",
        default=None,
        help="run only this machine's slice of the campaign's work groups "
        "(group index mod N == I) and bank it for `repro sweep merge`",
    )
    sweep_run_p.add_argument(
        "--group-size",
        type=int,
        default=None,
        metavar="N",
        help="target points per work group (default: sweeps.DEFAULT_GROUP_POINTS); "
        "must match across shards of one campaign",
    )
    sweep_run_p.add_argument("--quiet", action="store_true", help="suppress sweep tables")
    _add_store_options(sweep_run_p)

    sweep_list_p = sweep_sub.add_parser("list", help="list sweep names and artifact status")
    _add_store_options(sweep_list_p)

    sweep_merge_p = sweep_sub.add_parser(
        "merge", help="merge banked shard checkpoints into the final sweep artifact"
    )
    sweep_merge_p.add_argument("sweeps", nargs="+", help="sweep names")
    sweep_merge_p.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="replica-count override the shards were run with",
    )
    sweep_merge_p.add_argument(
        "--group-size",
        type=int,
        default=None,
        metavar="N",
        help="group size the shards were run with (must match)",
    )
    sweep_merge_p.add_argument(
        "--from",
        dest="extra_roots",
        action="append",
        default=[],
        metavar="DIR",
        help="additional artifact-store root(s) holding other shards' "
        "checkpoints (repeatable)",
    )
    sweep_merge_p.add_argument("--quiet", action="store_true", help="suppress sweep tables")
    _add_store_options(sweep_merge_p)

    sweep_sum_p = sweep_sub.add_parser(
        "summarize", help="print cached sweep statistics without re-running"
    )
    sweep_sum_p.add_argument("sweeps", nargs="+", help="sweep names")
    sweep_sum_p.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="replica-count override the sweep was run with",
    )
    _add_store_options(sweep_sum_p)

    bench_p = sub.add_parser("bench", help="engine performance tooling")
    bench_sub = bench_p.add_subparsers(dest="bench_command")
    bench_profile_p = bench_sub.add_parser(
        "profile", help="per-phase wall-clock breakdown of the engine pipeline"
    )
    bench_profile_p.add_argument(
        "--days",
        type=int,
        default=60,
        metavar="N",
        help="trace length in days for the profiled cases (default 60)",
    )
    bench_profile_p.add_argument(
        "--repeats",
        type=int,
        default=1,
        metavar="N",
        help="simulate calls accumulated per case (default 1)",
    )

    serve_p = sub.add_parser("serve", help="run the online routing server")
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve_p.add_argument(
        "--port", type=int, default=8351, help="bind port (default 8351, 0 = ephemeral)"
    )
    serve_p.add_argument(
        "--scenario",
        default="serve-smoke",
        metavar="NAME",
        help="registered scenario supplying market, router, and step grid "
        "(default serve-smoke)",
    )
    serve_p.add_argument(
        "--provider",
        metavar="NAME",
        default=None,
        help="market-data provider preset override (see `repro providers list`)",
    )
    serve_p.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help="micro-batch collection window after the first request (default 5)",
    )
    serve_p.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="maximum requests coalesced into one engine call (default 64)",
    )
    serve_p.add_argument(
        "--steps",
        type=int,
        default=None,
        metavar="N",
        help="serve only the first N steps of the scenario horizon",
    )
    serve_p.add_argument(
        "--rolling-window",
        type=int,
        default=None,
        metavar="STEPS",
        help="chain billing windows of STEPS steps (rolling horizon) instead of "
        "one fixed scenario horizon",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard the port across N worker processes via SO_REUSEPORT (default 1)",
    )
    serve_p.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="admission bound on queued requests before 429s (default 256; 0 = unbounded)",
    )
    serve_p.add_argument(
        "--drain-deadline",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="graceful-drain deadline on SIGTERM before in-flight requests are "
        "failed (default 5)",
    )
    serve_p.add_argument(
        "--resume",
        action="store_true",
        help="rolling sessions only: resume from the last drain checkpoint in the "
        "artifact store (bit-identical from the last banked window boundary)",
    )
    serve_p.add_argument(
        "--faults",
        metavar="JSON",
        default=None,
        help="arm a deterministic fault plan (JSON, see repro.faults) via "
        "REPRO_FAULTS for this server and its workers",
    )
    serve_p.add_argument(
        "--smoke",
        action="store_true",
        help="boot on an ephemeral port, fire a concurrent self-test burst, and exit",
    )
    serve_p.add_argument(
        "--chaos",
        action="store_true",
        help="with --smoke: run the deterministic fault-injection matrix instead",
    )
    _add_store_options(serve_p)

    providers_p = sub.add_parser("providers", help="inspect market-data providers")
    providers_sub = providers_p.add_subparsers(dest="providers_command")
    providers_sub.add_parser("list", help="list provider presets and the scenarios using them")

    store_p = sub.add_parser("store", help="inspect the artifact store")
    store_sub = store_p.add_subparsers(dest="store_command")
    status_p = store_sub.add_parser(
        "status", help="per-kind counts, sizes and ages, and resumable campaigns"
    )
    status_p.add_argument(
        "--artifacts",
        metavar="DIR",
        help=f"artifact store directory (default {artifacts.DEFAULT_STORE_DIR})",
    )

    clean_p = sub.add_parser("clean", help="delete the on-disk artifact store")
    _add_store_options(clean_p)

    return parser


# -- subcommands --------------------------------------------------------------


def _resolve_provider(args: argparse.Namespace):
    """The ProviderSpec named by ``--provider``, or None for the default."""
    name = getattr(args, "provider", None)
    if name is None:
        return None
    from repro.markets.providers import preset

    return preset(name).spec


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        figure_ids = resolve_figure_ids(args.figures, args.all)
        provider = _resolve_provider(args)
    except ConfigurationError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    if not figure_ids:
        print("repro run: no figures requested (try --all)", file=sys.stderr)
        return 2
    _activate_store(args)

    t0 = time.perf_counter()
    try:
        results = run_figures(
            figure_ids, jobs=args.jobs, seed=args.seed, force=args.force, provider=provider
        )
    except DataError as exc:
        # Typically a replay tape that cannot supply a driver's hubs or
        # coverage floor; a usage problem, not an internal failure.
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0

    if not args.quiet:
        for result in results:
            print(result.to_text())
            print()
    root = artifacts.active_root()
    store_note = str(root) if root is not None else "disabled"
    print(
        f"repro run: {len(results)} figure(s) in {elapsed:.1f}s "
        f"(jobs={args.jobs}, store={store_note})",
        file=sys.stderr,
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    _activate_store(args)
    store = artifacts.get_store()
    for figure_id, module in sorted(REGISTRY.items()):
        doc = (module.__doc__ or "").strip().splitlines()[0]
        cached = store is not None and store.has(artifacts.KIND_FIGURE, FigureSpec(figure_id))
        marker = "*" if cached else " "
        print(f"{figure_id} {marker} {doc}")
    if store is not None:
        entries = list(store.entries())
        total = sum(e.size_bytes for e in entries)
        print(
            f"store {store.root}: {len(entries)} artifact(s), {total / 1e6:.1f} MB "
            "(* = figure artifact present)",
            file=sys.stderr,
        )
    return 0


def _golden_path(goldens_dir: Path, figure_id: str) -> Path:
    return goldens_dir / f"{figure_id}.json"


def _cmd_diff(args: argparse.Namespace) -> int:
    goldens_dir = Path(args.goldens)
    if args.all or args.figures:
        try:
            figure_ids = resolve_figure_ids(args.figures, args.all)
        except ConfigurationError as exc:
            print(f"repro diff: {exc}", file=sys.stderr)
            return 2
    else:
        figure_ids = sorted(
            path.stem
            for path in goldens_dir.glob("fig*.json")
            if path.stem in REGISTRY
        )
        if not figure_ids:
            print(
                f"repro diff: no goldens under {goldens_dir} "
                "(generate with `repro diff --all --update`)",
                file=sys.stderr,
            )
            return 2
    _activate_store(args)

    # --update must publish truly fresh numbers: regenerating goldens
    # through warm artifacts would freeze pre-change results in place.
    results = run_figures(
        figure_ids,
        jobs=args.jobs,
        seed=args.seed,
        force=args.force or args.update,
    )
    payloads = {r.figure_id: r.to_json_dict() for r in results}

    if args.update:
        goldens_dir.mkdir(parents=True, exist_ok=True)
        for figure_id in figure_ids:
            path = _golden_path(goldens_dir, figure_id)
            with open(path, "w") as fh:
                json.dump(payloads[figure_id], fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"updated {path}", file=sys.stderr)
        return 0

    failed = []
    for figure_id in figure_ids:
        path = _golden_path(goldens_dir, figure_id)
        if not path.exists():
            failed.append(figure_id)
            print(f"{figure_id}: FAIL (no golden at {path})")
            continue
        with open(path) as fh:
            golden = json.load(fh)
        drifts = compare_figure_payloads(
            golden,
            payloads[figure_id],
            rtol=args.rtol,
            atol=args.atol,
        )
        if drifts:
            failed.append(figure_id)
            print(f"{figure_id}: FAIL ({len(drifts)} drift(s))")
            for drift in drifts[:10]:
                print(f"  {drift}")
            if len(drifts) > 10:
                print(f"  ... and {len(drifts) - 10} more")
        else:
            print(f"{figure_id}: ok")
    if failed:
        print(
            f"repro diff: {len(failed)}/{len(figure_ids)} figure(s) drifted "
            f"beyond rtol={args.rtol:g} atol={args.atol:g}: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    print(f"repro diff: {len(figure_ids)} figure(s) match the goldens", file=sys.stderr)
    return 0


def _resolve_sweep_specs(names: list[str], all_sweeps: bool, replicas: int | None):
    from repro import sweeps

    if all_sweeps:
        chosen = list(sweeps.names())
    else:
        chosen = list(names)
        unknown = [n for n in chosen if n not in sweeps.REGISTRY]
        if unknown:
            raise ConfigurationError(
                f"unknown sweeps: {', '.join(unknown)}; "
                f"available: {', '.join(sweeps.names())}"
            )
    specs = [sweeps.get(name) for name in chosen]
    if replicas is not None:
        specs = [spec.derive(n_replicas=replicas) for spec in specs]
    return specs


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro import sweeps

    try:
        specs = _resolve_sweep_specs(args.sweeps, args.all, args.replicas)
        shard = sweeps.parse_shard(args.shard) if args.shard is not None else None
    except ConfigurationError as exc:
        print(f"repro sweep run: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("repro sweep run: no sweeps requested (try --all)", file=sys.stderr)
        return 2
    _activate_store(args)

    t0 = time.perf_counter()
    try:
        for spec in specs:
            result = sweeps.run_sweep(
                spec,
                jobs=args.jobs,
                force=args.force,
                group_target=args.group_size,
                shard=shard,
            )
            if result is None:
                store = artifacts.get_store()
                status = sweeps.campaign_status(store, spec) if store is not None else None
                done, total = (status[0], status[1]) if status is not None else (0, 0)
                print(
                    f"repro sweep run: {spec.name} shard {args.shard} banked "
                    f"({done}/{total} groups checkpointed); merge with "
                    "`repro sweep merge` once every shard has run",
                    file=sys.stderr,
                )
            elif not args.quiet:
                print(result.to_text())
                print()
    except ConfigurationError as exc:
        print(f"repro sweep run: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    root = artifacts.active_root()
    store_note = str(root) if root is not None else "disabled"
    print(
        f"repro sweep run: {len(specs)} sweep(s) in {elapsed:.1f}s "
        f"(jobs={args.jobs}, store={store_note})",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep_merge(args: argparse.Namespace) -> int:
    from repro import sweeps

    try:
        specs = _resolve_sweep_specs(args.sweeps, False, args.replicas)
    except ConfigurationError as exc:
        print(f"repro sweep merge: {exc}", file=sys.stderr)
        return 2
    _activate_store(args)
    try:
        for spec in specs:
            result = sweeps.merge_sweep(
                spec,
                group_target=args.group_size,
                extra_roots=tuple(args.extra_roots),
            )
            if not args.quiet:
                print(result.to_text())
                print()
    except ConfigurationError as exc:
        print(f"repro sweep merge: {exc}", file=sys.stderr)
        return 1
    root = artifacts.active_root()
    print(
        f"repro sweep merge: {len(specs)} sweep(s) merged (store={root})",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep_list(args: argparse.Namespace) -> int:
    from repro import sweeps

    _activate_store(args)
    store = artifacts.get_store()
    for name in sweeps.names():
        spec = sweeps.get(name)
        cached = store is not None and store.has(artifacts.KIND_SWEEP, spec)
        marker = "*" if cached else " "
        grid = " x ".join(str(len(axis.values)) for axis in spec.axes) or "1"
        line = (
            f"{name} {marker} {grid} grid x {spec.n_replicas} replicas "
            f"({spec.n_points} points) - {spec.description}"
        )
        if store is not None and not cached:
            status = sweeps.campaign_status(store, spec)
            if status is not None:
                done, total, _ = status
                line += f" [checkpoint: {done}/{total} groups, resumable]"
        print(line)
    if store is not None:
        print(f"store {store.root} (* = sweep artifact present)", file=sys.stderr)
    return 0


def _cmd_sweep_summarize(args: argparse.Namespace) -> int:
    from repro import sweeps
    from repro.sweeps.aggregate import SweepResult

    try:
        specs = _resolve_sweep_specs(args.sweeps, False, args.replicas)
    except ConfigurationError as exc:
        print(f"repro sweep summarize: {exc}", file=sys.stderr)
        return 2
    _activate_store(args)
    store = artifacts.get_store()
    missing = []
    for spec in specs:
        payload = store.load(artifacts.KIND_SWEEP, spec) if store is not None else None
        if payload is None:
            missing.append(spec.name)
            continue
        print(SweepResult.from_json_dict(payload).to_text())
        print()
    if missing:
        print(
            f"repro sweep summarize: no cached artifact for {', '.join(missing)} "
            "(run `repro sweep run` first)",
            file=sys.stderr,
        )
        return 1
    return 0


_SWEEP_COMMANDS = {
    "run": _cmd_sweep_run,
    "merge": _cmd_sweep_merge,
    "list": _cmd_sweep_list,
    "summarize": _cmd_sweep_summarize,
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.sweep_command is None:
        print(
            "repro sweep: choose a subcommand (run, merge, list, summarize)",
            file=sys.stderr,
        )
        return 2
    return _SWEEP_COMMANDS[args.sweep_command](args)


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.bench_command != "profile":
        print("repro bench: choose a subcommand (profile)", file=sys.stderr)
        return 2
    from repro.sim.profiling import PHASES, profile_cases

    if args.days <= 0 or args.repeats <= 0:
        print("repro bench profile: --days and --repeats must be positive", file=sys.stderr)
        return 2
    report = profile_cases(days=args.days, repeats=args.repeats)
    columns = [p for p in PHASES] + ["total"]
    header = "case".ljust(24) + "".join(c.rjust(14) for c in columns)
    print(header)
    for case, phases in report.items():
        row = case.ljust(24)
        for c in columns:
            row += f"{phases.get(c, 0.0):14.4f}"
        print(row)
    print(
        "(seconds; greedy_repair is nested inside routing, so phases "
        "overlap there by design)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan
    from repro.scenarios.runner import provider_override
    from repro.serve import ServerConfig, ServeSpec, run_chaos, run_smoke, serve
    from repro.serve.batcher import DEFAULT_MAX_QUEUE
    from repro.serve.shard import ShardedServer

    try:
        provider = _resolve_provider(args)
    except ConfigurationError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2

    if args.workers < 1:
        print("repro serve: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.chaos and not args.smoke:
        print("repro serve: --chaos needs --smoke", file=sys.stderr)
        return 2
    if args.faults:
        try:
            FaultPlan.from_json(args.faults).to_env()
        except ConfigurationError as exc:
            print(f"repro serve: {exc}", file=sys.stderr)
            return 2

    with provider_override(provider):
        if args.smoke and args.chaos:
            try:
                summary = run_chaos(args.scenario, workers=max(args.workers, 2))
            except (ConfigurationError, RuntimeError) as exc:
                print(f"repro serve --smoke --chaos: FAIL: {exc}", file=sys.stderr)
                return 1
            for leg, detail in summary["legs"].items():
                print(f"repro serve --chaos: {leg}: ok {detail}")
            print(
                f"repro serve --smoke --chaos: ok "
                f"(scenario={summary['scenario']}, seed={summary['seed']}, "
                f"legs={len(summary['legs'])})"
            )
            return 0
        if args.smoke:
            try:
                summary = run_smoke(
                    args.scenario,
                    window_ms=args.batch_window_ms,
                    max_batch=args.max_batch,
                    workers=args.workers,
                )
            except (ConfigurationError, RuntimeError) as exc:
                print(f"repro serve --smoke: FAIL: {exc}", file=sys.stderr)
                return 1
            print(
                "repro serve --smoke: ok "
                f"(scenario={summary['scenario']}, requests={summary['requests']}, "
                f"batches={summary['batches_total']}, "
                f"batch_mean={summary['batch_size_mean']:.1f}, "
                f"identical={summary['allocations_identical']}, "
                f"workers={summary['workers']})"
            )
            return 0

    # The artifact store backs drain checkpoints and --resume for
    # rolling sessions; a fixed-horizon serve never touches it.
    store_dir = None
    if args.rolling_window is not None:
        _activate_store(args)
        root = artifacts.active_root()
        store_dir = str(root) if root is not None else None
    # Unset keeps the default admission bound; 0 unbounds the queue.
    max_queue = DEFAULT_MAX_QUEUE if args.max_queue is None else (args.max_queue or None)
    try:
        if args.workers > 1:
            sharded = ShardedServer(
                args.scenario,
                workers=args.workers,
                host=args.host,
                port=args.port,
                window_ms=args.batch_window_ms,
                max_batch=args.max_batch,
                session_steps=args.steps,
                rolling_window=args.rolling_window,
                provider=args.provider,
                max_queue=max_queue,
                drain_deadline_s=args.drain_deadline,
                resume=args.resume,
                store_dir=store_dir,
            )
        else:
            spec = ServeSpec(
                args.scenario,
                steps=args.steps,
                rolling_window=args.rolling_window,
                provider=args.provider,
                store_dir=store_dir,
                resume=args.resume,
            )
            config = ServerConfig(
                host=args.host,
                port=args.port,
                window_ms=args.batch_window_ms,
                max_batch=args.max_batch,
                scenario=args.scenario,
                max_queue=max_queue,
                drain_deadline_s=args.drain_deadline,
            )
    except ConfigurationError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    if args.workers > 1:
        return _serve_sharded(sharded)
    return serve(spec, config)


def _serve_sharded(sharded) -> int:
    """Run ``sharded`` until SIGTERM or Ctrl-C; each worker drains itself."""
    import signal
    import threading

    # Installed before the workers spawn, so a SIGTERM during startup
    # still stops them instead of orphaning them.
    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        try:
            sharded.start()
            sharded.wait_ready()
        except (RuntimeError, TimeoutError, OSError) as exc:
            print(f"repro serve: {exc}", file=sys.stderr)
            return 2
        print(
            f"repro serve: scenario={sharded.spec.scenario} sharded across "
            f"{sharded.workers} workers on http://{sharded.config.host}:{sharded.port}",
            file=sys.stderr,
        )
        while not stop.wait(timeout=1.0):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        sharded.stop()
    print("repro serve: stopped", file=sys.stderr)
    return 0


def _cmd_providers(args: argparse.Namespace) -> int:
    if args.providers_command != "list":
        print("repro providers: choose a subcommand (list)", file=sys.stderr)
        return 2
    from repro import scenarios
    from repro.markets.providers import preset, preset_names

    users: dict[str, list[str]] = {}
    for scenario_name in scenarios.names():
        spec = scenarios.get(scenario_name).provider
        for name in preset_names():
            if preset(name).spec == spec:
                users.setdefault(name, []).append(scenario_name)
    for name in preset_names():
        p = preset(name)
        scenario_note = ", ".join(users.get(name, [])) or "-"
        print(f"{name:20s} {p.spec.kind:12s} {p.description}")
        print(f"{'':20s} {'scenarios:':12s} {scenario_note}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command != "status":
        print("repro store: choose a subcommand (status)", file=sys.stderr)
        return 2
    from repro import sweeps

    _activate_store(args)
    store = artifacts.get_store()
    inventory: dict[str, list[artifacts.StoreEntry]] = {}
    for entry in store.entries():
        inventory.setdefault(entry.kind, []).append(entry)
    print(f"store {store.root}")
    if not inventory:
        print("(empty)")
    else:
        print(f"{'kind':12s} {'count':>6s} {'bytes':>14s}  {'oldest':19s}  newest")
    for kind, entries in inventory.items():
        mtimes = [e.mtime for e in entries]
        print(
            f"{kind:12s} {len(entries):6d} {sum(e.size_bytes for e in entries):14,d}  "
            f"{_timestamp(min(mtimes))}  {_timestamp(max(mtimes))}"
        )
    for record, done in sweeps.campaigns(store):
        total = int(record["n_groups"])
        state = "resumable" if done < total else "complete, ready to merge"
        print(
            f"campaign {record['sweep']}: {done}/{total} groups banked "
            f"(group target {record['group_target']}), {state}"
        )
    return 0


def _timestamp(mtime: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(mtime))


def _cmd_clean(args: argparse.Namespace) -> int:
    if getattr(args, "no_store", False):
        print("repro clean: nothing to do with --no-store", file=sys.stderr)
        return 0
    _activate_store(args)
    store = artifacts.get_store()
    removed = store.clear() if store is not None else 0
    root = store.root if store is not None else "-"
    print(f"repro clean: removed {removed} artifact(s) from {root}", file=sys.stderr)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "list": _cmd_list,
    "diff": _cmd_diff,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "providers": _cmd_providers,
    "store": _cmd_store,
    "clean": _cmd_clean,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
