#!/usr/bin/env python3
"""Energy/latency design-space sweep over m and sparsity on the VGG16 preset.

Writes the combined analytical + simulated CSV and prints which m
minimises total modelled energy under both transform-add variants.
Use --scale for a quick look: each sparse point simulates all l^2
positions, so the full-size sweep (--scale 1, the five default
sparsities) takes 11-14 s where a full-size dense `winosim simulate`
takes 0.14-0.17 s (wall time on a 2-vCPU VM).
"""

import argparse

from winosim.model import (
    EnergyParams,
    dse_csv_header,
    dse_csv_rows,
    dse_sweep,
    energy,
    scale_network,
    vgg16_spec,
    vgg16_table_layers,
)
from winosim.plans import make_plan
from winosim.sim import ArchConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=int, default=8)
    ap.add_argument("--sparsities", default="0,0.6,0.7,0.8,0.9")
    ap.add_argument("--out", default="dse.csv")
    args = ap.parse_args()

    net = scale_network(vgg16_spec(), args.scale)
    sparsities = [float(s) for s in args.sparsities.split(",")]
    rows = dse_sweep(net, [2], sparsities, cfg=ArchConfig())
    with open(args.out, "w", newline="\n") as fh:
        fh.write(dse_csv_header() + "\n")
        fh.write("\n".join(dse_csv_rows(rows)) + "\n")
    print(f"wrote {args.out} ({len(rows)} rows)")

    ep = EnergyParams()
    for corrected, label in ((False, "as-modelled transform adds"),
                             (True, "corrected transform adds")):
        totals = {}
        for m in (2, 3, 4):
            plan = make_plan(m, 3)
            totals[m] = sum(energy(l, plan, ep, corrected) for l in vgg16_table_layers())
        best = min(totals, key=totals.get)
        pretty = ", ".join(f"m={m}: {v:.3e}" for m, v in totals.items())
        print(f"{label}: {pretty} -> optimum m={best}")


if __name__ == "__main__":
    main()
