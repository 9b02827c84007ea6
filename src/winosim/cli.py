"""Command-line front door.

Subcommands: verify (oracle-equivalence and format suites), convolve
(single layer, any mode), compress (transform + prune + BCOO), dse
(analytical + simulated sweep, CSV), and simulate (one point of that
sweep, its per-layer systolic-model columns only).  Synthetic tensors are seeded uniform values in [-1, 1], so a fixed
seed reproduces every run byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import struct
import sys

import numpy as np

from . import bcoo as bcoo_mod
from . import engine, model, sim
from .layout import _block_extent, from_zmorton, morton_decode, morton_encode, to_zmorton
from .plans import OpCounters, make_plan

_DEF_SHAPES = [
    # (C, H, W, K, pad): single-tile case, odd extents, and VGG-like scaled shapes
    (1, 2, 2, 1, 1),
    (2, 8, 8, 3, 1),
    (3, 7, 9, 4, 0),
    (4, 14, 14, 8, 1),
    (8, 28, 28, 8, 1),
]


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}; expected like 3x32x32")
    if len(parts) != 3 or min(parts) < 1:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}; expected like 3x32x32")
    return parts


def _parse_list(text: str, kind, example: str) -> list:
    try:
        return [kind(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list {text!r}; expected like {example}")


def _parse_float_list(text: str) -> list[float]:
    return _parse_list(text, float, "0.6,0.9")


def _parse_int_list(text: str) -> list[int]:
    return _parse_list(text, int, "2,4")


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}; expected a non-negative integer")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}; expected a non-negative integer")
    return seed


def _load_spec(arg: str, scale: int) -> engine.NetworkSpec:
    if arg == "vgg16":
        net = model.vgg16_spec()
    else:
        with open(arg, "r", encoding="utf-8") as fh:
            net = model.parse_network_config(fh.read())
    return model.scale_network(net, scale)


def _arch_config(args) -> sim.ArchConfig:
    """ArchConfig from the architecture flags; l follows the plan in use, so callers set it."""
    return sim.ArchConfig(
        clusters=args.clusters,
        transform_arrays=args.transform_arrays,
        fifo_depth=args.fifo_depth,
    )


def _synthetic(rng, shape):
    return rng.uniform(-1.0, 1.0, shape)


def _write_lines(path, lines) -> None:
    data = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(data)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)


# ---------------------------------------------------------------------------
# verify


def _check(name: str, ok: bool, detail: str = "") -> bool:
    tag = "ok" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    return ok


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    plan = make_plan(args.m, args.r)
    ok = True

    ok &= _check("morton known values", morton_encode(0, 1) == 1 and morton_encode(1, 0) == 2
                 and morton_encode(2, 1) == 9 and morton_decode(6) == (1, 2))
    bij = all(morton_decode(morton_encode(i, j)) == (i, j) for i in range(16) for j in range(16))
    ok &= _check("morton bijection 16x16", bij)

    for rows, cols in ((5, 6), (8, 8), (16, 3)):
        mat = _synthetic(rng, (rows, cols))
        ok &= _check(
            f"zmorton round trip {rows}x{cols}",
            np.array_equal(from_zmorton(to_zmorton(mat, plan.l)), mat),
        )

    for s in (0.0, 0.5, 0.9):
        mat = _synthetic(rng, (12, 20))
        mat[rng.uniform(0, 1, mat.shape) < s] = 0.0
        enc = bcoo_mod.bcoo_encode(to_zmorton(mat, plan.l))
        dec = from_zmorton(bcoo_mod.bcoo_decode(enc))
        ok &= _check(f"bcoo round trip at sparsity {s}", np.array_equal(dec, mat))

    shapes = list(_DEF_SHAPES)
    for extra in args.shape or []:
        C, H, W = extra
        shapes.append((C, H, W, max(1, C), 1))
    for C, H, W, K, pad in shapes:
        fm = _synthetic(rng, (C, H, W))
        flt = _synthetic(rng, (K, C, args.r, args.r))
        want = engine.direct_conv(fm, flt, pad=pad)
        if args.inject_corruption:
            # flip one transformed weight between transform and multiply
            _, enc, _ = engine.compress_filters(flt, plan, 0.0)
            an = enc[0].an.copy()
            an[0] += 1.0
            enc[0] = dataclasses.replace(enc[0], an=an)
            got = engine.winograd_conv_sparse(fm, enc, plan, pad=pad)
        else:
            got = engine.winograd_conv_dense(fm, flt, plan, pad=pad)
        err = float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))
        ok &= _check(f"winograd == direct on {C}x{H}x{W} k={K} pad={pad}", err <= 1e-10, f"rel err {err:.2e}")

        _, enc, _ = engine.compress_filters(flt, plan, 0.6)
        got_s = engine.winograd_conv_sparse(fm, enc, plan, pad=pad)
        want_s = engine.winograd_conv_blocks(fm, enc, plan, pad=pad)
        err_s = float(np.max(np.abs(got_s - want_s)) / max(1.0, float(np.max(np.abs(want_s)))))
        ok &= _check(f"sparse == block engine on {C}x{H}x{W}", err_s <= 1e-10, f"rel err {err_s:.2e}")

    print("verify:", "all checks passed" if ok else "FAILURES detected")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# convolve


def cmd_convolve(args) -> int:
    rng = np.random.default_rng(args.seed)
    plan = make_plan(args.m, args.r)
    if args.input:
        fm = engine.load_tensor(args.input)
    else:
        C, H, W = args.shape or (3, 16, 16)
        fm = _synthetic(rng, (C, H, W))
    if args.filters:
        flt = engine.load_tensor(args.filters)
    else:
        flt = _synthetic(rng, (args.k, fm.shape[0], args.r, args.r))
    counters = OpCounters()
    if args.mode == "direct":
        out = engine.direct_conv(fm, flt, pad=args.pad, counters=counters)
    elif args.mode == "dense":
        out = engine.winograd_conv_dense(fm, flt, plan, pad=args.pad, counters=counters)
    else:
        _, enc, achieved = engine.compress_filters(flt, plan, args.sparsity)
        out = engine.winograd_conv_sparse(fm, enc, plan, pad=args.pad, counters=counters)
        print(f"achieved weight sparsity: {achieved:.4f}")
    engine.save_tensor(args.out, out)
    print(
        f"mode={args.mode} out={args.out} shape={'x'.join(map(str, out.shape))} "
        f"multiplies={counters.multiplies} matmul_additions={counters.matmul_additions} "
        f"inverse_transforms={counters.inverse_transforms}"
    )
    return 0


# ---------------------------------------------------------------------------
# compress


def cmd_compress(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.filters:
        flt = engine.load_tensor(args.filters)
    else:
        flt = _synthetic(rng, (args.k, args.c, args.r, args.r))
    plan = make_plan(args.m, args.r)
    _, encoded, achieved = engine.compress_filters(flt, plan, args.sparsity)
    with open(args.out, "wb") as fh:
        fh.write(struct.pack("<2q", plan.l, len(encoded)))
        for enc in encoded:
            fh.write(bcoo_mod.bcoo_to_bytes(enc))
    blocks_stored = sum(len(e.bn) for e in encoded)
    e0 = encoded[0]
    grid_blocks = _block_extent(e0.rows, e0.l) * _block_extent(e0.cols, e0.l)
    total_blocks = grid_blocks * len(encoded)
    nnz = sum(e.nnz for e in encoded)
    print(
        f"wrote {args.out}: {len(encoded)} matrices, achieved sparsity {achieved:.4f}, "
        f"{blocks_stored}/{total_blocks} blocks stored, {nnz} nonzeros"
    )
    return 0


# ---------------------------------------------------------------------------
# simulate


# simulate's CSV: the key and simulator columns of a dse row
_SIM_COLUMNS = ("layer", "m", "sparsity", "cycles", "ext_fetches", "local_fetches",
                "block_matmuls", "bw_reduction")


def cmd_simulate(args) -> int:
    """One point of the dse sweep: a single m and sparsity."""
    net = _load_spec(args.spec, args.scale)
    rows = model.dse_sweep(net, [args.m], [args.sparsity], cfg=_arch_config(args), seed=args.seed)
    lines = [model.dse_csv_header(_SIM_COLUMNS)] + model.dse_csv_rows(rows, _SIM_COLUMNS)
    _write_lines(args.out, lines)
    return 0


# ---------------------------------------------------------------------------
# dse


def cmd_dse(args) -> int:
    net = _load_spec(args.spec, args.scale)
    ep = model.EnergyParams(
        e_external=args.e_me, e_local=args.e_ml, e_multiply=args.e_mul, e_add=args.e_add
    )
    rows = model.dse_sweep(
        net,
        args.m_values,
        args.sparsities,
        ep,
        _arch_config(args),
        seed=args.seed,
        corrected_transform_adds=args.corrected_transform_adds,
        simulate=not args.no_sim,
    )
    lines = [model.dse_csv_header()] + model.dse_csv_rows(rows)
    _write_lines(args.out, lines)
    return 0


# ---------------------------------------------------------------------------


def _common_args(p, m=True, r=True):
    if m:
        p.add_argument("--m", type=int, default=2, help="outputs per tile edge (default 2)")
    if r:
        p.add_argument("--r", type=int, default=3, help="filter width (default 3)")
    p.add_argument("--seed", type=_parse_seed, default=0, help="seed for synthetic data")


def _verify_args(p):
    _common_args(p)
    p.add_argument("--shape", type=_parse_shape, action="append",
                   help="extra CxHxW input shape to check (repeatable)")
    p.add_argument("--inject-corruption", action="store_true",
                   help="corrupt one transformed weight; the run must then fail")


def _convolve_args(p):
    _common_args(p)
    p.add_argument("--mode", choices=["direct", "dense", "sparse"], default="dense")
    p.add_argument("--shape", type=_parse_shape, help="synthetic input CxHxW (default 3x16x16)")
    p.add_argument("--k", type=int, default=4, help="synthetic filter count")
    p.add_argument("--pad", type=int, default=1)
    p.add_argument("--sparsity", type=float, default=0.0)
    p.add_argument("--input", help="input tensor container (CxHxW)")
    p.add_argument("--filters", help="filter tensor container (KxCxrxr)")
    p.add_argument("--out", default="out.tensor")


def _compress_args(p):
    _common_args(p)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--sparsity", type=float, default=0.7)
    p.add_argument("--filters", help="filter tensor container (KxCxrxr)")
    p.add_argument("--out", default="weights.bcoo")


def _sim_args(p):
    p.add_argument("--spec", default="vgg16", help="network config path or 'vgg16'")
    p.add_argument("--scale", type=int, default=1,
                   help="divide extents/channels for a quick look")
    p.add_argument("--clusters", type=int, default=sim.ArchConfig.clusters)
    p.add_argument("--transform-arrays", type=int, default=sim.ArchConfig.transform_arrays)
    p.add_argument("--fifo-depth", type=int, default=sim.ArchConfig.fifo_depth)
    p.add_argument("--out", default="-", help="CSV path ('-' for stdout)")


def _simulate_args(p):
    _common_args(p, r=False)  # r from each layer
    _sim_args(p)
    p.add_argument("--sparsity", type=float, default=0.0)


def _dse_args(p):
    _common_args(p, m=False, r=False)  # m comes from --m-values, r from each layer
    _sim_args(p)
    p.add_argument("--m-values", type=_parse_int_list, default=[2], dest="m_values")
    p.add_argument("--sparsities", type=_parse_float_list, default=[0.0])
    ep = model.EnergyParams
    p.add_argument("--e-me", type=float, default=ep.e_external, help="external-memory unit energy")
    p.add_argument("--e-ml", type=float, default=ep.e_local, help="local-memory unit energy")
    p.add_argument("--e-mul", type=float, default=ep.e_multiply, help="multiply unit energy")
    p.add_argument("--e-add", type=float, default=ep.e_add, help="add unit energy")
    p.add_argument("--corrected-transform-adds", action="store_true",
                   help="use the C-only/K-only transform-add variant")
    p.add_argument("--no-sim", action="store_true", help="skip the simulator columns")


# name: (handler, one-line summary, adds the command's arguments to its parser)
_COMMANDS = {
    "verify": (cmd_verify, "run oracle-equivalence and format checks", _verify_args),
    "convolve": (cmd_convolve, "run one convolution layer", _convolve_args),
    "compress": (cmd_compress, "transform, prune, and BCOO-encode filters", _compress_args),
    "simulate": (cmd_simulate, "simulate layers on the systolic model, emit CSV", _simulate_args),
    "dse": (cmd_dse, "analytical + simulated design-space sweep, emit CSV", _dse_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The winosim parser: every subcommand, or only `command`'s when it names one.

    An invocation parses with one subcommand, so main builds only that
    one; the command list in the usage line stays whole, so help text
    and errors read the same either way.
    """
    # No abbreviations anywhere: a flag added later must not change what an
    # old command line means, as `dse --m 4` once meant `--m-values 4`.
    ap = argparse.ArgumentParser(prog="winosim", description=__doc__, allow_abbrev=False)
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # argparse names the built commands in the usage line; name them all
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        func, summary, add_args = _COMMANDS[name]
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        add_args(p)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
