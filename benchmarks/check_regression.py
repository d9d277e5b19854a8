#!/usr/bin/env python3
"""Benchmark regression gate: fresh engine timings vs the committed record.

Compares a fresh ``bench_engine.py`` run against the committed
``BENCH_engine.json``. Absolute wall-clock is machine-dependent (the
committed record is a full 365-day run; CI does ``--quick`` 60-day
runs on shared runners), so the gate is on each case's *speedup* —
batched pipeline vs per-step reference on the same machine and trace —
which is a scale- and machine-robust proxy for the batched engine's
health. A case fails when its fresh speedup falls more than
``--max-regression`` (default 25%) below the committed speedup.

Also re-asserts the correctness invariant recorded in the fresh run:
the batched pipeline must not have diverged from the reference.

Run:  python benchmarks/check_regression.py \
          --baseline BENCH_engine.json --fresh BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys


#: Allowed provider-indirection slowdown on dataset materialisation.
#: The indirection is one constructor and one method call on top of
#: seconds of numpy work, so anything beyond timing noise is a bug.
MAX_PROVIDER_OVERHEAD = 1.25

#: Absolute speedup floors for the committed full-run record (the
#: 365-day single-threaded numpy measurement on the reference box).
#: These gate the *committed* numbers: a re-benchmark that lands below
#: a floor must not be committed as the new baseline. Fresh CI runs
#: are quick runs on shared runners and are gated relatively instead.
#: The issue's 12x target for the joint cases was not reached on the
#: single-core reference box (7-8x measured full-run; ~10.7x on quick
#: runs where the per-step reference pays proportionally more
#: overhead); the floors pin the realised full-run numbers with a
#: ~15% noise margin.
COMMITTED_SPEEDUP_FLOORS = {
    "price_unconstrained": 9.5,
    "price_followed_95_5": 10.5,
    "baseline_proximity": 9.0,
    "joint_soft_objective": 6.5,
    "joint_followed_95_5": 6.0,
}

#: The streaming campaign path re-walks the expansion and folds every
#: metric through a reducer instead of one dict insert; that must stay
#: within noise of the eager path on a simulation-free 10^4-point run.
MAX_CAMPAIGN_OVERHEAD = 1.15

#: Peak parent memory of the streaming path relative to the eager
#: path on the same campaign. The eager path holds the full expansion
#: and a per-point metrics dict; the campaign path holds open groups
#: and per-cell reducer states, so it must land well under half.
MAX_CAMPAIGN_PEAK_RATIO = 0.5

#: Absolute QPS floors for the committed serving benchmark (full-run
#: records only, like COMMITTED_SPEEDUP_FLOORS). Calibrated ~35-40%
#: below the reference box's sustained rates (~930 / ~830 / ~1640 qps
#: at concurrency 1 / 8 / 32; the lone client skips the 2 ms
#: micro-batch window entirely, hence the c1 jump over c8).
COMMITTED_SERVE_QPS_FLOORS = {"c1": 550.0, "c8": 500.0, "c32": 1000.0}

#: The lone-client median must stay below the pre-fast-path 6.3 ms
#: (the c1 p50 when every singleton request paid the batch window and
#: the batched-allocator setup; committed record, full runs only).
COMMITTED_SERVE_C1_P50_MS = 6.3

#: Sharded serving vs the single-worker c32 record: with at least
#: 2x workers cores the kernel runs the shards genuinely in parallel
#: and the group must at least double the single-worker throughput.
#: With fewer cores (the 1-core reference box, most CI runners) the
#: shards time-slice one core and the gate is a no-collapse floor —
#: process sharding may cost scheduling overhead, but must keep at
#: least half the single-worker rate.
SHARDED_PARALLEL_SPEEDUP = 2.0
SHARDED_NO_COLLAPSE_RATIO = 0.5

#: Router fixed cost: one ``batch_allocate`` call of T spilling rows
#: must cost no more than T scalar ``allocate`` calls on the same rows,
#: so coalescing requests never slows the server down. The gate is on
#: the host-independent ratio (both sides timed interleaved on one
#: host) at the batch sizes below; T=2 is recorded but not gated (see
#: docs/performance.md, "Router per-call cost").
MAX_ROUTER_BATCH_RATIO = 1.0
ROUTER_RATIO_SIZES = ("8",)

#: Fresh serving runs on shared CI runners keep a generous margin:
#: a level fails only below this fraction of the committed QPS.
MIN_SERVE_QPS_RATIO = 0.4

#: At the widest concurrency level the micro-batcher must actually
#: coalesce; a mean batch size at ~1 means serving has silently
#: degraded to one engine call per request.
MIN_SERVE_BATCH_MEAN = 4.0


def check_profile(fresh: dict) -> list[str]:
    """Gates on the fresh record's per-phase profile section."""
    section = fresh.get("profile")
    if section is None:
        return []  # records from before the profiling harness
    failures = []
    for case, phases in section.get("cases", {}).items():
        missing = [p for p in ("precompute", "routing", "reduce", "finalize") if p not in phases]
        total = float(phases.get("total", 0.0))
        status = "ok" if not missing and total > 0.0 else "FAIL"
        print(
            f"{'profile:' + case:24s} total {total:9.3f}s  "
            f"routing {float(phases.get('routing', 0.0)):7.3f}s  {status}"
        )
        if missing:
            failures.append(f"profile section for {case} lacks phases: {', '.join(missing)}")
        if total <= 0.0:
            failures.append(f"profile section for {case} recorded a non-positive total")
    return failures


def check_committed_floors(baseline: dict) -> list[str]:
    """Absolute speedup floors on the committed full-run record."""
    if int(baseline.get("trace", {}).get("days", 0)) < 365:
        return []  # floors are calibrated for the full-run record only
    failures = []
    runs = baseline.get("runs", {})
    for name, floor in COMMITTED_SPEEDUP_FLOORS.items():
        if name not in runs:
            continue
        speedup = float(runs[name]["speedup"])
        status = "ok" if speedup >= floor else "FAIL"
        print(f"{'floor:' + name:24s} committed {speedup:6.2f}x  floor {floor:6.2f}x  {status}")
        if speedup < floor:
            failures.append(
                f"{name}: committed speedup {speedup:.2f}x is below the "
                f"absolute floor {floor:.2f}x"
            )
    return failures


def check_provider(fresh: dict) -> list[str]:
    """Gates on the fresh record's provider-indirection section."""
    section = fresh.get("provider")
    if section is None:
        return []  # records from before the provider layer
    failures = []
    ratio = float(section["overhead_ratio"])
    status = "ok" if ratio <= MAX_PROVIDER_OVERHEAD else "FAIL"
    print(
        f"{'provider_indirection':24s} overhead {ratio:10.2f}x  "
        f"ceiling {MAX_PROVIDER_OVERHEAD:6.2f}x  {status}"
    )
    if ratio > MAX_PROVIDER_OVERHEAD:
        failures.append(
            f"provider indirection adds {ratio:.2f}x to dataset materialisation "
            f"(ceiling {MAX_PROVIDER_OVERHEAD:.2f}x)"
        )
    if not section.get("bit_identical", False):
        failures.append("provider-materialised dataset diverged from direct generation")
    return failures


def check_sweep(fresh: dict) -> list[str]:
    """Gates on the fresh record's sweep-throughput section."""
    section = fresh.get("sweep")
    if section is None:
        return []  # records from before the stacked executor
    identical = bool(section.get("serial_equals_parallel", False))
    status = "ok" if identical else "FAIL"
    print(
        f"{'sweep_fanout':24s} {section.get('points', 0):4d} points  "
        f"serial {float(section.get('serial_seconds', 0.0)):7.3f}s  "
        f"stacked speedup {float(section.get('stacked_speedup', 0.0)):5.2f}x  "
        f"identical {identical}  {status}"
    )
    if not identical:
        return ["sweep results differ across serial / parallel / stacked paths"]
    return []


def check_campaign(fresh: dict) -> list[str]:
    """Gates on the fresh record's streaming-campaign section."""
    section = fresh.get("campaign")
    if section is None:
        return []  # records from before the campaign pipeline
    failures = []
    identical = bool(section.get("identical", False))
    ratio = float(section.get("overhead_ratio", 0.0))
    legacy_peak = float(section.get("legacy_peak_mb", 0.0))
    stream_peak = float(section.get("streaming_peak_mb", 0.0))
    if not identical:
        failures.append("streaming campaign pipeline diverged from the eager aggregate path")
    if ratio > MAX_CAMPAIGN_OVERHEAD:
        failures.append(
            f"streaming campaign overhead {ratio:.2f}x exceeds the "
            f"{MAX_CAMPAIGN_OVERHEAD:.2f}x ceiling over the eager path"
        )
    if stream_peak > legacy_peak * MAX_CAMPAIGN_PEAK_RATIO:
        failures.append(
            f"streaming campaign peak memory {stream_peak:.1f} MiB is not bounded: "
            f"it exceeds {MAX_CAMPAIGN_PEAK_RATIO:.0%} of the eager path's "
            f"{legacy_peak:.1f} MiB on a {section.get('points', 0)}-point campaign"
        )
    print(
        f"{'campaign_pipeline':24s} {section.get('points', 0):5d} points  "
        f"overhead {ratio:5.2f}x  peak {legacy_peak:6.1f} -> {stream_peak:6.1f} MiB  "
        f"identical {identical}  {'ok' if not failures else 'FAIL'}"
    )
    return failures


def check_router_cost(fresh: dict) -> list[str]:
    """Gates on the fresh record's router per-call cost section."""
    section = fresh.get("router_cost")
    if section is None:
        return []  # records from before the router-cost section
    failures = []
    for name, entry in section.get("routers", {}).items():
        problems = []
        if not entry.get("identical", False):
            problems.append(f"router_cost {name}: batch_allocate diverged from scalar allocate")
        for size in ROUTER_RATIO_SIZES:
            ratio = float(entry["calls"][size]["ratio"])
            if ratio > MAX_ROUTER_BATCH_RATIO:
                problems.append(
                    f"router_cost {name}: batch_allocate of {size} rows costs {ratio:.2f}x "
                    f"{size} scalar calls (ceiling {MAX_ROUTER_BATCH_RATIO:.2f}x)"
                )
        ratios = "  ".join(
            f"T={size} {float(call['ratio']):.2f}x"
            for size, call in entry["calls"].items()
            if "ratio" in call
        )
        print(
            f"{'router_cost:' + name:24s} scalar {float(entry['scalar_ms']):6.3f}ms  "
            f"{ratios}  {'ok' if not problems else 'FAIL'}"
        )
        failures.extend(problems)
    return failures


def check_serve(baseline: dict, fresh: dict) -> list[str]:
    """Gates on the serving benchmark: identity, batching, and QPS."""
    section = fresh.get("serve")
    if section is None:
        return []  # records from before the serving layer
    failures = []
    levels = section.get("levels", {})
    base_levels = baseline.get("serve", {}).get("levels", {})
    widest = max(levels, key=lambda key: levels[key]["concurrency"], default=None)
    for key, level in sorted(levels.items(), key=lambda item: item[1]["concurrency"]):
        problems = []
        if not level.get("allocations_identical", False):
            problems.append(f"serve {key}: served allocations diverged from the offline replay")
        qps = float(level["qps"])
        if key in base_levels:
            floor = float(base_levels[key]["qps"]) * MIN_SERVE_QPS_RATIO
            if qps < floor:
                problems.append(
                    f"serve {key}: fresh {qps:.0f} qps is below "
                    f"{MIN_SERVE_QPS_RATIO:.0%} of the committed "
                    f"{float(base_levels[key]['qps']):.0f} qps"
                )
        if key == widest and float(level["batch_size_mean"]) < MIN_SERVE_BATCH_MEAN:
            problems.append(
                f"serve {key}: mean batch size {level['batch_size_mean']:.2f} shows "
                f"the micro-batcher is not coalescing (floor {MIN_SERVE_BATCH_MEAN:.1f})"
            )
        print(
            f"{'serve:' + key:24s} qps {qps:8.1f}  p99 {float(level['p99_ms']):7.2f}ms  "
            f"batch mean {float(level['batch_size_mean']):5.2f}  "
            f"identical {bool(level.get('allocations_identical', False))}  "
            f"{'ok' if not problems else 'FAIL'}"
        )
        failures.extend(problems)
    failures.extend(_check_sharded(baseline, section))
    # Absolute floors pin the committed record, full runs only.
    if int(baseline.get("trace", {}).get("days", 0)) >= 365:
        for key, floor in COMMITTED_SERVE_QPS_FLOORS.items():
            if key not in base_levels:
                continue
            qps = float(base_levels[key]["qps"])
            status = "ok" if qps >= floor else "FAIL"
            print(
                f"{'floor:serve:' + key:24s} committed {qps:8.1f} qps  "
                f"floor {floor:6.0f}  {status}"
            )
            if qps < floor:
                failures.append(
                    f"serve {key}: committed {qps:.0f} qps is below the "
                    f"absolute floor {floor:.0f}"
                )
        if "c1" in base_levels and "p50_ms" in base_levels["c1"]:
            p50 = float(base_levels["c1"]["p50_ms"])
            status = "ok" if p50 <= COMMITTED_SERVE_C1_P50_MS else "FAIL"
            print(
                f"{'floor:serve:c1:p50':24s} committed {p50:8.2f} ms   "
                f"ceil  {COMMITTED_SERVE_C1_P50_MS:6.1f}  {status}"
            )
            if p50 > COMMITTED_SERVE_C1_P50_MS:
                failures.append(
                    f"serve c1: committed p50 {p50:.2f} ms exceeds the "
                    f"{COMMITTED_SERVE_C1_P50_MS:.1f} ms ceiling — the lone-client "
                    "fast path has regressed"
                )
        for key, level in base_levels.items():
            if not level.get("allocations_identical", False):
                failures.append(
                    f"serve {key}: committed record shows served allocations "
                    "diverged from the offline replay"
                )
    return failures


def _check_sharded(baseline: dict, fresh_section: dict) -> list[str]:
    """Gates on the sharded serving leg (fresh identity + committed scaling)."""
    failures = []
    sharded = fresh_section.get("sharded")
    if sharded and "skipped" not in sharded:
        if not sharded.get("allocations_identical", False):
            failures.append(
                "serve sharded: a shard's served allocations diverged from its "
                "offline replay"
            )
        base_sharded = baseline.get("serve", {}).get("sharded", {})
        qps = float(sharded["qps"])
        if base_sharded.get("qps"):
            floor = float(base_sharded["qps"]) * MIN_SERVE_QPS_RATIO
            if qps < floor:
                failures.append(
                    f"serve sharded: fresh {qps:.0f} qps is below "
                    f"{MIN_SERVE_QPS_RATIO:.0%} of the committed "
                    f"{float(base_sharded['qps']):.0f} qps"
                )
        print(
            f"{'serve:sharded':24s} qps {qps:8.1f}  "
            f"p99 {float(sharded['p99_ms']):7.2f}ms  "
            f"workers {sharded['workers']}  "
            f"identical {bool(sharded.get('allocations_identical', False))}  "
            f"{'ok' if not failures else 'FAIL'}"
        )

    # Committed scaling gate, full runs only: the recorded cpu count
    # decides whether sharding must win (parallel cores) or merely
    # must not collapse (time-sliced cores).
    if int(baseline.get("trace", {}).get("days", 0)) >= 365:
        base_serve = baseline.get("serve", {})
        base_sharded = base_serve.get("sharded", {})
        base_c32 = base_serve.get("levels", {}).get("c32", {})
        if base_sharded.get("qps") and base_c32.get("qps"):
            cpu_count = int(base_serve.get("cpu_count") or 1)
            workers = int(base_sharded.get("workers", 2))
            parallel = cpu_count >= 2 * workers
            ratio = SHARDED_PARALLEL_SPEEDUP if parallel else SHARDED_NO_COLLAPSE_RATIO
            mode = "parallel" if parallel else "no-collapse"
            floor = float(base_c32["qps"]) * ratio
            qps = float(base_sharded["qps"])
            status = "ok" if qps >= floor else "FAIL"
            print(
                f"{'floor:serve:sharded':24s} committed {qps:8.1f} qps  "
                f"floor {floor:6.0f} ({mode}, {cpu_count} cpus)  {status}"
            )
            if qps < floor:
                failures.append(
                    f"serve sharded: committed {qps:.0f} qps is below the {mode} "
                    f"floor {floor:.0f} ({ratio:.1f}x of the single-worker c32 "
                    f"record on a {cpu_count}-cpu box)"
                )
    return failures


def check(baseline: dict, fresh: dict, max_regression: float) -> list[str]:
    """Every violated gate, as human-readable failure messages."""
    failures = (
        check_committed_floors(baseline)
        + check_provider(fresh)
        + check_sweep(fresh)
        + check_campaign(fresh)
        + check_profile(fresh)
        + check_router_cost(fresh)
        + check_serve(baseline, fresh)
    )
    base_runs = baseline.get("runs", {})
    fresh_runs = fresh.get("runs", {})
    shared = sorted(set(base_runs) & set(fresh_runs))
    if not shared:
        return failures + ["no benchmark cases shared between baseline and fresh record"]
    for name in shared:
        base_speedup = float(base_runs[name]["speedup"])
        fresh_speedup = float(fresh_runs[name]["speedup"])
        floor = base_speedup * (1.0 - max_regression)
        status = "ok" if fresh_speedup >= floor else "FAIL"
        print(
            f"{name:24s} committed {base_speedup:6.2f}x  fresh {fresh_speedup:6.2f}x  "
            f"floor {floor:6.2f}x  {status}"
        )
        if fresh_speedup < floor:
            failures.append(
                f"{name}: speedup {fresh_speedup:.2f}x is more than "
                f"{max_regression:.0%} below the committed {base_speedup:.2f}x"
            )
        max_err = float(fresh_runs[name].get("max_load_abs_err", 0.0))
        if max_err > 1e-6:
            failures.append(
                f"{name}: batched pipeline diverged from reference "
                f"(max abs err {max_err:.2e})"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_engine.json")
    parser.add_argument("--fresh", required=True)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional speedup loss vs the committed record",
    )
    args = parser.parse_args()

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    failures = check(baseline, fresh, args.max_regression)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("benchmark gate passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
