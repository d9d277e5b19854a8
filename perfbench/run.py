#!/usr/bin/env python3
"""The repository's benchmark: one workload, one run, one JSON line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

Workloads (see each module's docstring):

``figures``   cold ``repro run`` figure regeneration (fresh store each);
``campaign``  a cold, real ``campaign-grid`` slice through ``run_sweep``;
``route``     open-loop Poisson load on ``/route`` from another process.

``--trace 0`` reports the end-to-end metrics (latency per unit of
work, set-up time); ``--trace 1`` reruns with
every layer boundary spanned and reports the layer map instead. The
last line of standard output is the result object; anything before it
is a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread, set before anything imports numpy (children inherit
# it). The workloads drive numpy from one Python thread each; on a
# two-CPU box OpenBLAS's spinning helper threads only add run-to-run
# noise (campaign wall-clock spread 12% with them, 5% without).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from common import SRC  # noqa: E402

WORKLOADS = ("figures", "campaign", "route")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "figures":
        import figures as workload
    elif args.workload == "campaign":
        import campaign as workload
    else:
        import route as workload

    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    if args.trace and outcome.layers is None:
        raise RuntimeError("traced run produced no layer map")
    metrics = outcome.layers if args.trace else outcome.end_to_end()

    for name, metric in metrics.items():
        print(f"{args.workload:9s} {name:24s} {metric['value']:14.4f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
