#!/usr/bin/env python3
"""Per-m timing of the three Winograd transforms, and the page faults of a cold pass.

For m in 2, 3, 4, 6 (r = 3) it prints the median in-process time of the
input (Bt), filter (G) and inverse (At) transforms on two reference
layers, 64x28x28 and 128x14x14 with K = C and pad 1, beside the einsum
forms the tests keep as tolerance references.  einsum sums in its own
order, so its bytes differ from the kernel's in the last bits.

It then runs one cold scale-4 VGG16 `winograd_conv_dense` pass at m = 2
in a fresh process with one BLAS thread and prints its minor page faults
(`resource.getrusage`) and its split: filter, input and inverse
transform, GEMM, and the rest (tile extraction, checks, output clip).

    python3 scripts/transform_timing.py [--repeats 15] [--shrink 1] [--scale 4]

--shrink divides the reference layers' channels and extents, --scale the
VGG16 preset's, for a quick look.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from winosim.layout import _filter_stack, _output_extent, assemble_output, extract_tiles, transform_tiles
from winosim.plans import make_plan

LAYERS = ((64, 28), (128, 14))  # (C = K, H = W)
M_VALUES = (2, 3, 4, 6)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs in a fresh process: one dense pass over every scaled VGG16 conv layer,
# each stage timed through a wrapper on the engine's module globals.
COLD_PASS = """
import json, resource, sys, time
import numpy as np
from winosim import engine, model
from winosim.plans import make_plan

spent = dict.fromkeys(("filter", "extract", "input", "inverse", "conv"), 0.0)

def timed(key, fn):
    def run(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[key] += time.perf_counter() - t0
    return run

for key, name in (("filter", "_filter_stack"), ("extract", "extract_tiles"), ("input", "transform_tiles"),
                  ("inverse", "assemble_output"), ("conv", "_winograd_conv")):
    setattr(engine, name, timed(key, getattr(engine, name)))
plan = make_plan(2, 3)
rng = np.random.default_rng(1)
layers = model.scale_network(model.vgg16_spec(), int(sys.argv[1])).conv_layers()
inputs = [(rng.uniform(-1, 1, (ly.C, ly.H, ly.W)), rng.uniform(-1, 1, (ly.K, ly.C, 3, 3))) for ly in layers]
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
for ly, (fm, flt) in zip(layers, inputs):
    engine.winograd_conv_dense(fm, flt, plan, pad=ly.pad)
wall = time.perf_counter() - t0
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps({"wall": wall, "faults": faults, **spent}))
"""


def median_ms(fn, repeats: int) -> float:
    fn()  # warm: memos, scratch pages
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def stages(plan, C: int, H: int, rng):
    """(name, kernel call, einsum call) for the three transforms of one C-by-H-by-H layer, K = C."""
    l = plan.l
    tiles = extract_tiles(rng.uniform(-1, 1, (C, H, H)), plan, pad=1)
    filters = rng.uniform(-1, 1, (C, C, 3, 3))
    position_major = np.ascontiguousarray(filters.transpose(2, 3, 0, 1))
    out_h, out_w = _output_extent(H, H, plan.r, pad=1)
    mats = rng.uniform(-1, 1, (l, l, C, tiles.shape[3] * tiles.shape[4]))
    return (
        ("input", lambda: transform_tiles(plan, tiles),
         lambda: np.einsum("ab,bd...,ed->ae...", plan.Bt, tiles, plan.Bt)),
        ("filter", lambda: _filter_stack(filters, plan),
         lambda: np.einsum("ab,bd...,ed->ae...", plan.G, position_major, plan.G)),
        ("inverse", lambda: assemble_output(mats, plan, C, out_h, out_w),
         lambda: np.einsum("ab,bd...,ed->ae...", plan.At, mats, plan.At)),
    )


def fresh(script: str, arg: int) -> dict:
    """The JSON line `script` prints, run with `arg` in a fresh process with one BLAS thread."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", script, str(arg)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--shrink", type=int, default=1)
    ap.add_argument("--scale", type=int, default=4)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    print(f"{'m':>2}  {'layer':<11} {'stage':<8} {'kernel ms':>10} {'einsum ms':>10}")
    for m in M_VALUES:
        plan = make_plan(m, 3)
        for C, H in LAYERS:
            C, H = max(1, C // args.shrink), max(1, H // args.shrink)
            for name, kernel, einsum in stages(plan, C, H, rng):
                print(f"{m:>2}  {f'{C}x{H}x{H}':<11} {name:<8} "
                      f"{median_ms(kernel, args.repeats):>10.3f} {median_ms(einsum, args.repeats):>10.3f}")

    res = fresh(COLD_PASS, args.scale)
    gemm = res["conv"] - res["extract"] - res["input"] - res["inverse"]
    rest = res["wall"] - res["filter"] - res["input"] - res["inverse"] - gemm
    print(f"\ncold scale-{args.scale} VGG16 winograd_conv_dense pass, m = 2: "
          f"{1e3 * res['wall']:.1f} ms, {res['faults']} minor page faults")
    print("  " + ", ".join(f"{k} {1e3 * v:.1f} ms" for k, v in (
        ("filter", res["filter"]), ("input", res["input"]), ("inverse", res["inverse"]),
        ("GEMM", gemm), ("rest", rest))))


if __name__ == "__main__":
    main()
