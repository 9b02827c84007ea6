"""The four benchmark workloads: set-up, one timed pass, and output checks.

Every function here runs inside a child process started fresh for one
pass (see child.py), so `lru_cache` and any other memo start cold, as
they do for a command-line user.  The seed only generates inputs.

An operation is one layer call: one CSV row for the simulator workloads,
one convolution for the numeric ones.  An operation fails when it raises
or when its output check fails.  Checks run after the timed section.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from winosim import bcoo, cli, engine, model
from winosim.layout import assemble_output
from winosim.plans import make_plan

from spec import WORKLOADS


R = 3
SIM_M = 2
DSE_M_VALUES = (2, 4)
DSE_SPARSITIES = (0.6, 0.9)
NET_M = 2
NET_SPARSITY = 0.9
# The relative tolerance `winosim verify` applies against the oracle.
REL_TOL = 1e-10


def pow2_ceil(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def cdiv(a: int, b: int) -> int:
    return -(-a // b)


def conv_macs(layer) -> int:
    """Dense-equivalent direct-convolution MACs of one layer, from geometry."""
    return layer.K * layer.C * layer.r * layer.r * layer.out_h * layer.out_w


def block_grid(layer, m: int, l: int) -> tuple[int, int, int, int]:
    """(K blocks, C blocks, P blocks, P tiles) of the logical, unpadded grid."""
    th, tw = cdiv(layer.out_h, m), cdiv(layer.out_w, m)
    P = th * tw
    return cdiv(layer.K, l), cdiv(layer.C, l), cdiv(P, l), P


def logical_and_padded_block_matmuls(layer, m: int, l: int) -> tuple[int, int]:
    """Block multiplies of one layer without and with power-of-two padding."""
    kb, cb, pb, _ = block_grid(layer, m, l)
    logical = l * l * kb * cb * pb
    padded = l * l * pow2_ceil(kb) * pow2_ceil(cb) * pow2_ceil(pb)
    return logical, padded


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tensor_digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return sha256(repr(arr.shape).encode() + arr.tobytes())


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


@dataclass
class Op:
    """Outcome of one layer call."""

    name: str
    ok: bool = True
    detail: str = ""
    digest: str = ""


@dataclass
class PassResult:
    ops: list
    digests: dict = field(default_factory=dict)


def vgg16(scale: int):
    return model.scale_network(model.vgg16_spec(), scale)


def macs_per_pass(workload: str, scale: int) -> int:
    layers = vgg16(scale).conv_layers()
    total = sum(conv_macs(layer) for layer in layers)
    if workload.startswith("dse-"):
        total *= len(DSE_M_VALUES) * len(DSE_SPARSITIES)
    return total


# ---------------------------------------------------------------------------
# simulator workloads, driven through the command line entry point


class CliWorkload:
    """`winosim simulate` or `winosim dse` over scaled VGG16 via `cli.main`."""

    def __init__(self, name: str, seed: int, scale: int, out_dir: str):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.layers = vgg16(scale).conv_layers()
        self.csv_path = os.path.join(out_dir, f"{name}-{os.getpid()}.csv")
        common = ["--spec", "vgg16", "--scale", str(scale), "--seed", str(seed),
                  "--out", self.csv_path]
        if name == "sim-vgg16-dense":
            self.argv = ["simulate", "--m", str(SIM_M), "--sparsity", "0"] + common
        else:
            self.argv = ["dse", "--m-values", ",".join(map(str, DSE_M_VALUES)),
                         "--sparsities", ",".join(map(str, DSE_SPARSITIES))] + common
        self.rc = None
        self.error = ""
        self.csv = b""

    @property
    def m_values(self):
        return (SIM_M,) if self.name == "sim-vgg16-dense" else DSE_M_VALUES

    @property
    def sparsities(self):
        return (0.0,) if self.name == "sim-vgg16-dense" else DSE_SPARSITIES

    def points(self):
        """(layer, m, sparsity) in the order the CSV lists them."""
        return [(layer, m, s) for m in self.m_values for layer in self.layers
                for s in self.sparsities]

    def run(self) -> None:
        try:
            self.rc = cli.main(self.argv)
        except Exception as exc:  # a raising pass fails every operation
            self.rc, self.error = -1, f"{type(exc).__name__}: {exc}"

    def collect(self) -> None:
        """Read the CSV back and remove the file; outside the timed section."""
        if os.path.exists(self.csv_path):
            with open(self.csv_path, "rb") as fh:
                self.csv = fh.read()
            os.remove(self.csv_path)

    def check(self, perturb: bool) -> PassResult:
        points = self.points()
        ops = [Op(f"{layer.name}/m{m}/s{s}") for layer, m, s in points]
        if self.rc != 0:
            for op in ops:
                op.ok, op.detail = False, f"cli exit {self.rc} {self.error}".strip()
            return PassResult(ops)
        lines = self.csv.decode().splitlines() or [""]
        header, rows = lines[0].split(","), lines[1:]
        if len(rows) != len(points):
            for op in ops:
                op.ok, op.detail = False, f"{len(rows)} CSV rows for {len(points)} points"
            return PassResult(ops, {"csv": sha256(self.csv)})
        parsed = [dict(zip(header, row.split(","))) for row in rows]
        for op, row in zip(ops, rows):
            op.digest = sha256(row.encode())
        if perturb:
            parsed[0]["local_fetches"] = str(int(parsed[0]["local_fetches"]) + 1)
        by_point = {}
        for op, rec, (layer, m, s) in zip(ops, parsed, points):
            by_point[(layer.name, m, s)] = rec
            problem = self._row_problem(rec, layer, m, s)
            if problem:
                op.ok, op.detail = False, problem
        if len(self.sparsities) > 1:
            # Pruning more blocks never adds work or traffic.
            for op, (layer, m, s) in zip(ops, points):
                if s == self.sparsities[0]:
                    continue
                lo = by_point[(layer.name, m, self.sparsities[0])]
                hi = by_point[(layer.name, m, s)]
                for col in ("cycles", "ext_fetches"):
                    try:
                        rose = int(hi[col]) > int(lo[col])
                    except (KeyError, ValueError):
                        rose = True
                    if rose:
                        op.ok = False
                        op.detail = f"{col} rose from {lo.get(col)} to {hi.get(col)} as sparsity grew"
        return PassResult(ops, {"csv": sha256(self.csv)})

    def _row_problem(self, rec: dict, layer, m: int, s: float) -> str:
        try:
            if rec["layer"] != layer.name or int(rec["m"]) != m or float(rec["sparsity"]) != s:
                return f"row names {rec['layer']},{rec['m']},{rec['sparsity']}"
            ext, loc = int(rec["ext_fetches"]), int(rec["local_fetches"])
            bw, macs = float(rec["bw_reduction"]), int(rec["block_matmuls"])
            cycles = int(rec["cycles"])
        except (KeyError, ValueError) as exc:
            return f"unparsable row: {exc}"
        # Both sides equal the operand slots: each slot is served either by
        # an external fetch or locally, and bw_reduction = slots / ext.
        slots = ext + loc
        if ext == 0:
            if slots != 0:
                return f"local fetches {loc} without any external fetch"
        elif abs(slots - ext * bw) > 1e-9 * slots:
            return f"ext + local = {slots} but ext * bw_reduction = {ext * bw!r}"
        if cycles <= 0:
            return f"cycles {cycles}"
        if s == 0.0:
            logical, padded = logical_and_padded_block_matmuls(layer, m, m + R - 1)
            if not logical <= macs <= padded:
                return f"block_matmuls {macs} outside [{logical}, {padded}]"
        return ""


# ---------------------------------------------------------------------------
# numeric workloads, driven through the public convolution functions


class NetWorkload:
    """Winograd convolution of every scaled VGG16 conv layer on seeded tensors."""

    def __init__(self, name: str, seed: int, scale: int, out_dir: str):
        self.name = name
        self.sparse = name == "net-vgg16-sparse"
        self.layers = vgg16(scale).conv_layers()
        self.plan = make_plan(NET_M, R)
        rng = np.random.default_rng(seed)
        self.inputs = [
            (rng.uniform(-1.0, 1.0, (ly.C, ly.H, ly.W)), rng.uniform(-1.0, 1.0, (ly.K, ly.C, R, R)))
            for ly in self.layers
        ]
        self.outputs = [None] * len(self.layers)
        self.weights = [None] * len(self.layers)
        self.errors = [""] * len(self.layers)

    def run(self) -> None:
        plan = self.plan
        for n, (layer, (fm, flt)) in enumerate(zip(self.layers, self.inputs)):
            try:
                if self.sparse:
                    _, enc, _ = engine.compress_filters(flt, plan, NET_SPARSITY)
                    parsed = []
                    for mat in enc:
                        blob = bcoo.bcoo_to_bytes(mat)
                        back, end = bcoo.bcoo_from_bytes(blob)
                        if end != len(blob):
                            raise ValueError(f"parsed {end} of {len(blob)} BCOO bytes")
                        parsed.append(back)
                    self.weights[n] = parsed
                    self.outputs[n] = engine.winograd_conv_sparse(fm, parsed, plan, pad=layer.pad)
                else:
                    self.outputs[n] = engine.winograd_conv_dense(fm, flt, plan, pad=layer.pad)
            except Exception as exc:  # one failing layer must not hide the others
                self.errors[n] = f"{type(exc).__name__}: {exc}"

    def collect(self) -> None:
        pass

    def check(self, perturb: bool) -> PassResult:
        ops = []
        digests = {}
        for n, layer in enumerate(self.layers):
            op = Op(layer.name)
            ops.append(op)
            out = self.outputs[n]
            if out is None:
                op.ok, op.detail = False, self.errors[n] or "no output"
                continue
            op.digest = digests[layer.name] = tensor_digest(out)
            if perturb and n == 0:
                out = out.copy()
                out.flat[0] += 1.0
            fm, flt = self.inputs[n]
            try:
                if self.sparse:
                    want = sparse_reference(fm, self.weights[n], self.plan, layer)
                else:
                    want = engine.direct_conv(fm, flt, pad=layer.pad)
            except (IndexError, ValueError) as exc:
                op.ok, op.detail = False, f"reference failed: {exc}"
                continue
            err = rel_err(out, want)
            if not err <= REL_TOL:
                op.ok, op.detail = False, f"relative error {err:.3e} > {REL_TOL:g}"
        return PassResult(ops, digests)


def _compact_bits(v: np.ndarray) -> np.ndarray:
    """Every second bit of v, starting at bit 0, packed together."""
    out = np.zeros_like(v)
    for bit in range(31):
        out |= ((v >> (2 * bit)) & 1) << bit
    return out


def bcoo_to_dense(u) -> np.ndarray:
    """Dense matrix of a BCOO record, read straight from its five vectors.

    Block numbers interleave the block row (odd bits) and column (even
    bits).  A nonzero outside the logical matrix raises IndexError.
    """
    owner = np.repeat(np.arange(len(u.bn)), np.diff(u.bi))
    rows = _compact_bits(u.bn >> 1)[owner] * u.l + u.ai
    cols = _compact_bits(u.bn)[owner] * u.l + u.aj
    if len(rows) and (rows.max() >= u.rows or cols.max() >= u.cols):
        raise IndexError("BCOO nonzero outside the logical matrix")
    dense = np.zeros((u.rows, u.cols))
    dense[rows, cols] = u.an
    return dense


def sparse_reference(fm: np.ndarray, weights, plan, layer) -> np.ndarray:
    """Independent Winograd result from parsed BCOO weights.

    The weights are decoded to dense K-by-C matrices without the package's
    decoder, the input transform is plain numpy, and all l*l positions
    multiply in one batched matmul.
    """
    l, m = plan.l, plan.m
    U = np.stack([bcoo_to_dense(u) for u in weights])
    C, H, W = fm.shape
    th, tw = cdiv(layer.out_h, m), cdiv(layer.out_w, m)
    padded = np.zeros((C, (th - 1) * m + l, (tw - 1) * m + l))
    padded[:, layer.pad : layer.pad + H, layer.pad : layer.pad + W] = fm
    win = np.lib.stride_tricks.sliding_window_view(padded, (l, l), axis=(1, 2))
    tiles = win[:, ::m, ::m][:, :th, :tw]
    V = np.einsum("ab,cxybd,ed->aecxy", plan.Bt, tiles, plan.Bt).reshape(l * l, C, th * tw)
    mats = np.matmul(U, V).reshape(l, l, layer.K, th * tw)
    return assemble_output(mats, plan, layer.K, layer.out_h, layer.out_w)


def make_workload(name: str, seed: int, scale: int, out_dir: str):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    cls = NetWorkload if name.startswith("net-") else CliWorkload
    return cls(name, seed, scale, out_dir)
