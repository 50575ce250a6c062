"""Repository benchmark: cold and warm TLR solve requests, layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_sparse --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics with no timers installed;
``--trace 1`` is a separate run that wraps public layer functions and
prints the per-layer metrics.  ``--smoke`` shrinks every size for the
benchmark's own tests.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the environment.  The exit code is 1 on a correctness breach
or a leaked helper process or ``/dev/shm`` segment, 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from harness import environment_record, pin_environment, stop_resource_tracker


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit for this mode, as ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes (benchmark tests)")
    args = p.parse_args(argv)
    # before numpy, and so BLAS, is loaded (by the workloads import below)
    cleared = pin_environment()

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
            file=sys.stderr,
        )
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, attempted, failures, info = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, workdir
        )
    finally:
        stop_resource_tracker()
        try:
            workdir.parent.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
    declared = _declared(bool(args.trace))
    missing = sorted(set(declared) - set(metrics))
    if missing:
        failures.append(f"metrics not measured: {missing}")
    info["other_metrics"] = {k: v for k, v in metrics.items() if k not in declared}
    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(json.dumps({"environment": environment_record(cleared), "info": info}))
    result = {
        "correct": not failures,
        "attempted": max(int(attempted), 1),
        "failed": len(failures),
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
