"""Traced pass: spans around the calls into each winosim module.

The traced pass repeats the timed pass's computation by calling the public
stage functions of `plans`, `layout`, `bcoo`, `engine`, `sim`, `model` and
`cli` in the order the product code calls them, with a span around each
call.  Nothing inside the package is instrumented.  The composed results
are then checked against the public entry points (`winograd_conv_dense`,
`winograd_conv_sparse`, the `simulate`/`dse` CSV), so the breakdown
measures the same computation the timed pass does.

Every span records its name, start, end, parent span and the operation
(layer call) it belongs to.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager

import numpy as np

from winosim import bcoo, engine, layout, model, sim
from winosim.plans import OpCounters, make_plan

from spec import PER_LAYER_UNITS, RUN_LEVEL
from workloads import (
    NET_M,
    NET_SPARSITY,
    R,
    REL_TOL,
    NetWorkload,
    Op,
    block_grid,
    cdiv,
    logical_and_padded_block_matmuls,
    pow2_ceil,
    rel_err,
    sparse_reference,
    tensor_digest,
)

class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        # [name, start, end, parent index or None, operation id or None]
        self.spans: list = []
        self._open: list = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def operation(self, op_id: int, name: str):
        self.op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self.op = None

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_times(self) -> dict:
        """Per span name: its summed duration minus the part its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict = {}
        for (name, *_), t in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + t
        return out


def _zero_metrics() -> dict:
    return {name: 0 for name in PER_LAYER_UNITS if name not in RUN_LEVEL}


def _span_times(tr: Tracer, metrics: dict) -> None:
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s" and name not in RUN_LEVEL + ("sim.replay_s", "cli.overhead_s"):
            metrics[name] = tr.total(name[: -len("_s")])


# ---------------------------------------------------------------------------
# simulator workloads


def _trace_cli(wl, tr: Tracer, perturb: bool):
    metrics = _zero_metrics()
    reports = []
    seen: set = set()
    with tr.span("pass"):
        plans = {m: tr.call("plans.make_plan", make_plan, m, R) for m in wl.m_values}
        for op_id, (layer, m, s) in enumerate(wl.points()):
            plan = plans[m]
            l = plan.l
            cfg = sim.ArchConfig(l=l)
            kb, cb, pb, P = block_grid(layer, m, l)
            geo = (pow2_ceil(kb), pow2_ceil(cb), pow2_ceil(pb))
            with tr.operation(op_id, f"op.{layer.name}"):
                # Built cold here, so the simulate_layer span below holds
                # the replay and the transform stages but not the schedule.
                streams = tr.call("engine.schedule", engine.matmul_streams, *geo)
                rep = tr.call("sim.simulate_layer", sim.simulate_layer, layer, plan, cfg, s, wl.seed)
                tr.call("sim.simulate_transform", sim.simulate_transform, layer.C * P, cfg)
                tr.call("sim.simulate_transform", sim.simulate_transform, layer.K * P, cfg)
            if geo not in seen:
                seen.add(geo)
                metrics["engine.schedule_ops"] += sum(len(st.c) for st in streams)
            reports.append(rep)
        analytic = None
        if len(wl.sparsities) > 1:
            analytic = tr.call(
                "model.analytical", model.dse_sweep, model.scale_network(model.vgg16_spec(), wl.scale),
                wl.m_values, wl.sparsities, model.EnergyParams(), sim.ArchConfig(l=wl.m_values[0] + R - 1),
                seed=wl.seed, simulate=False,
            )
    wall = tr.total("pass")
    with tr.span("cli.main"):
        wl.run()
    wl.collect()
    result = wl.check(perturb)

    _span_times(tr, metrics)
    metrics["sim.replay_s"] = metrics["sim.simulate_layer_s"] - metrics["sim.simulate_transform_s"]
    metrics["cli.overhead_s"] = tr.total("cli.main") - metrics["sim.simulate_layer_s"]
    sim_digest = _sim_counts(wl, reports, metrics)
    if analytic is not None:
        metrics["model.e_tot"] = sum(row.e_tot for row in analytic)

    # The composed calls must reproduce the CSV the command wrote.
    lines = wl.csv.decode().splitlines()
    if len(lines) == len(reports) + 1:
        header = lines[0].split(",")
        for n, (op, line, rep) in enumerate(zip(result.ops, lines[1:], reports)):
            rec = dict(zip(header, line.split(",")))
            mismatch = _report_mismatch(rec, rep)
            if not mismatch and analytic is not None and rec.get("e_tot") != repr(analytic[n].e_tot):
                mismatch = f"e_tot {rec.get('e_tot')} != analytical {analytic[n].e_tot!r}"
            if mismatch and op.ok:
                op.ok, op.detail = False, f"composed simulate_layer differs from CSV: {mismatch}"
    return metrics, sim_digest, result.ops, wall


def _report_mismatch(rec: dict, rep) -> str:
    pairs = (
        ("cycles", rep.total_cycles),
        ("ext_fetches", rep.external_block_fetches),
        ("local_fetches", rep.local_block_fetches),
        ("block_matmuls", rep.block_matmuls_executed),
        ("bw_reduction", rep.bandwidth_reduction_factor),
    )
    for col, want in pairs:
        try:
            same = float(rec[col]) == want
        except (KeyError, ValueError):
            same = False
        if not same:
            return f"{col} {rec.get(col)} != {want!r}"
    return ""


def _sim_counts(wl, reports, metrics: dict) -> str:
    """Fill the sim.* counts; returns a digest over every point's counters."""
    busy = capacity = padding = 0
    rows = []
    for (layer, m, s), rep in zip(wl.points(), reports):
        metrics["sim.steps"] += rep.steps_executed
        metrics["sim.operand_slots"] += rep.operand_slots
        metrics["sim.ext_fetches"] += rep.external_block_fetches
        metrics["sim.local_fetches"] += rep.local_block_fetches
        metrics["sim.block_matmuls"] += rep.block_matmuls_executed
        metrics["sim.total_cycles"] += rep.total_cycles
        metrics["sim.transform_cycles"] += rep.transform_cycles
        metrics["sim.matmul_cycles"] += rep.matmul_cycles
        metrics["sim.inverse_cycles"] += rep.inverse_cycles
        metrics["sim.decompress_stall_cycles"] += rep.decompress_stall_cycles
        busy += sum(rep.busy_cycles)
        capacity += len(rep.busy_cycles) * rep.total_cycles
        if s == 0.0:
            logical, _ = logical_and_padded_block_matmuls(layer, m, m + R - 1)
            padding += rep.block_matmuls_executed - logical
        rows.append((layer.name, m, s, rep.total_cycles, rep.transform_cycles, rep.matmul_cycles,
                     rep.inverse_cycles, rep.external_block_fetches, rep.local_block_fetches,
                     rep.block_matmuls_executed, rep.operand_slots, rep.steps_executed,
                     rep.decompress_stall_cycles, tuple(rep.busy_cycles)))
    metrics["sim.padding_block_matmuls"] = padding
    slots = metrics["sim.operand_slots"]
    metrics["sim.fifo_hit_ratio"] = metrics["sim.local_fetches"] / slots if slots else 0.0
    metrics["sim.utilization"] = busy / capacity if capacity else 0.0
    steps = metrics["sim.steps"]
    metrics["sim.host_us_per_step"] = 1e6 * metrics["sim.simulate_layer_s"] / steps if steps else 0.0
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# ---------------------------------------------------------------------------
# numeric workloads


def _trace_net(wl, tr: Tracer, perturb: bool):
    metrics = _zero_metrics()
    counters = OpCounters()
    seen: set = set()
    stored = grid = 0
    outputs, weights = [], []
    with tr.span("pass"):
        plan = tr.call("plans.make_plan", make_plan, NET_M, R)
        l = plan.l
        for op_id, (layer, (fm, flt)) in enumerate(zip(wl.layers, wl.inputs)):
            with tr.operation(op_id, f"op.{layer.name}"):
                if wl.sparse:
                    ub = tr.call("layout.gather_filters", layout.gather_filters, flt, plan)
                    pruned = tr.call("bcoo.prune", bcoo.prune, ub, NET_SPARSITY)
                    enc = [tr.call("bcoo.encode", bcoo.bcoo_encode, mat) for mat in pruned]
                    blobs = [tr.call("bcoo.to_bytes", bcoo.bcoo_to_bytes, e) for e in enc]
                    parsed = [tr.call("bcoo.from_bytes", bcoo.bcoo_from_bytes, b)[0] for b in blobs]
                    metrics["bcoo.bytes"] += sum(len(b) for b in blobs)
                tiles = tr.call("layout.extract_tiles", layout.extract_tiles, fm, plan, layer.pad)
                tt = tr.call("layout.transform_tiles", layout.transform_tiles, plan, tiles)
                vb = tr.call("layout.scatter_to_matrices", layout.scatter_to_matrices, tt)
                if not wl.sparse:
                    ub = tr.call("layout.gather_filters", layout.gather_filters, flt, plan)
                P = vb.at(0, 0).cols
                mats = np.empty((l, l, layer.K, P))
                for i in range(l):
                    for j in range(l):
                        V = vb.at(i, j)
                        if wl.sparse:
                            U = parsed[i * l + j]
                            geo = (pow2_ceil(cdiv(U.rows, l)), pow2_ceil(cdiv(U.cols, l)), V.block_cols)
                        else:
                            U = ub.at(i, j)
                            geo = (U.block_rows, U.block_cols, V.block_cols)
                        cc, aa, _ = tr.call("engine.schedule", engine.matmul_trace, *geo)
                        if wl.sparse:
                            prod = tr.call("engine.block_matmul_sparse", engine.block_matmul_sparse,
                                           U, V, counters)
                        else:
                            prod = tr.call("engine.recursive_matmul", engine.recursive_matmul,
                                           U, V, counters)
                        mats[i, j] = tr.call("layout.from_zmorton", layout.from_zmorton, prod)
                        if geo not in seen:
                            seen.add(geo)
                            metrics["engine.schedule_ops"] += len(cc)
                        if wl.sparse:
                            metrics["engine.block_matmuls_sparse"] += int(np.count_nonzero(np.isin(aa, U.bn)))
                            stored += len(U.bn)
                            grid += geo[0] * geo[1]
                        else:
                            metrics["engine.block_matmuls_dense"] += len(cc)
                out = tr.call("layout.assemble_output", layout.assemble_output, mats, plan,
                              layer.K, layer.out_h, layer.out_w, counters)
            outputs.append(out)
            weights.append(parsed if wl.sparse else None)
    wall = tr.total("pass")

    ops = []
    for n, (layer, (fm, flt), out) in enumerate(zip(wl.layers, wl.inputs, outputs)):
        op = Op(layer.name)
        ops.append(op)
        if perturb and n == 0:
            out = out.copy()
            out.flat[0] += 1.0
        if wl.sparse:
            public = engine.winograd_conv_sparse(fm, weights[n], plan, pad=layer.pad)
            want = sparse_reference(fm, weights[n], plan, layer)
        else:
            public = engine.winograd_conv_dense(fm, flt, plan, pad=layer.pad)
            want = tr.call("engine.direct_conv", engine.direct_conv, fm, flt, pad=layer.pad)
        # Compared with the untraced passes' digests of the same public call.
        op.digest = tensor_digest(public)
        for label, ref in (("public path", public), ("reference", want)):
            err = rel_err(out, ref)
            if not err <= REL_TOL and op.ok:
                op.ok, op.detail = False, f"composed result vs {label}: relative error {err:.3e}"

    _span_times(tr, metrics)
    metrics["engine.logical_multiplies"] = counters.multiplies
    metrics["bcoo.block_density"] = stored / grid if grid else 0.0
    return metrics, "", ops, wall


def run_traced(wl, perturb: bool) -> dict:
    """One traced pass over an already set-up workload."""
    tr = Tracer()
    if isinstance(wl, NetWorkload):
        metrics, sim_digest, ops, wall = _trace_net(wl, tr, perturb)
    else:
        metrics, sim_digest, ops, wall = _trace_cli(wl, tr, perturb)
    return {
        "metrics": metrics,
        "sim_digest": sim_digest,
        "ops": ops,
        "wall_s": wall,
        "self_s": tr.self_times(),
        "spans": tr.spans,
    }
