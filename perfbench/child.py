"""One benchmark pass of one workload, in a process of its own.

    python3 perfbench/child.py --workload NAME --seed N --scale K \
        --mode timed|traced --out-dir DIR [--perturb]

The process imports winosim from the checkout's `src/`, sets up the
workload (the end of set-up is reported as a `time.monotonic` reading, so
the parent can time set-up from the moment it started this process), runs
one pass, checks the outputs, and prints one JSON object as the last line
of standard output.  `--perturb` adds 1 to one output value before the
checks; it is the checker's negative control.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "traced"), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--perturb", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import winosim
    except ImportError as exc:
        print(f"cannot import winosim from {src}: {exc}", file=sys.stderr)
        return 3
    if src.resolve() not in Path(winosim.__file__).resolve().parents:
        print(f"winosim imported from {winosim.__file__}, not from {src}", file=sys.stderr)
        return 3

    import workloads

    wl = workloads.make_workload(args.workload, args.seed, args.scale, args.out_dir)
    ready = time.monotonic()

    if args.mode == "timed":
        t0 = time.perf_counter()
        wl.run()
        wall = time.perf_counter() - t0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wl.collect()
        result = wl.check(args.perturb)
        out = {
            "wall_s": wall,
            "rss_kb": rss_kb,
            "macs": workloads.macs_per_pass(args.workload, args.scale),
            "ops": [[op.name, op.ok, op.detail, op.digest] for op in result.ops],
            "digests": result.digests,
        }
    else:
        import tracing

        res = tracing.run_traced(wl, args.perturb)
        out = {
            "wall_s": res["wall_s"],
            "metrics": res["metrics"],
            "sim_digest": res["sim_digest"],
            "self_s": res["self_s"],
            "spans": res["spans"],
            "ops": [[op.name, op.ok, op.detail, op.digest] for op in res["ops"]],
        }
    out["ready"] = ready
    out["facts"] = _machine_facts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
