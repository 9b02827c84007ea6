"""Names and units of the benchmark's workloads and metrics.

Standard library only: run.py imports it before it knows whether winosim
and numpy can be imported at all.
"""

# Divisor applied to VGG16 extents and channel counts.  At 4 one pass of
# the slowest workload stays near 3 s on a 2-core x86 host, so a 20 s run
# holds several fresh-process passes.
DEFAULT_SCALE = 4

WORKLOADS = ("sim-vgg16-dense", "dse-vgg16-sparse", "net-vgg16-dense", "net-vgg16-sparse")

# Reported with tracing off.  The failure ratio travels as the `failed` and
# `attempted` fields of the result line rather than as a metric, because it
# is 0 on correct code.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "gmac_per_s": "GMAC/s",
    "peak_rss_mb": "MB",
}

# Reported by the traced run, in report order.  A metric whose layer does
# no work on a workload reads 0 there.
PER_LAYER_UNITS = {
    "plans.make_plan_s": "s",
    "engine.schedule_s": "s",
    "engine.schedule_ops": "count",
    "sim.simulate_layer_s": "s",
    "sim.simulate_transform_s": "s",
    "sim.replay_s": "s",
    "sim.host_us_per_step": "us",
    "sim.steps": "count",
    "sim.operand_slots": "count",
    "sim.ext_fetches": "count",
    "sim.local_fetches": "count",
    "sim.fifo_hit_ratio": "ratio",
    "sim.block_matmuls": "count",
    "sim.padding_block_matmuls": "count",
    "sim.total_cycles": "cycles",
    "sim.transform_cycles": "cycles",
    "sim.matmul_cycles": "cycles",
    "sim.inverse_cycles": "cycles",
    "sim.decompress_stall_cycles": "cycles",
    "sim.utilization": "ratio",
    "layout.extract_tiles_s": "s",
    "layout.transform_tiles_s": "s",
    "layout.scatter_to_matrices_s": "s",
    "layout.gather_filters_s": "s",
    "layout.from_zmorton_s": "s",
    "layout.assemble_output_s": "s",
    "engine.recursive_matmul_s": "s",
    "engine.block_matmuls_dense": "count",
    "engine.block_matmul_sparse_s": "s",
    "engine.block_matmuls_sparse": "count",
    "engine.logical_multiplies": "count",
    "bcoo.prune_s": "s",
    "bcoo.encode_s": "s",
    "bcoo.to_bytes_s": "s",
    "bcoo.from_bytes_s": "s",
    "bcoo.bytes": "bytes",
    "bcoo.block_density": "ratio",
    "model.analytical_s": "s",
    "model.e_tot": "energy",
    "cli.overhead_s": "s",
    "engine.direct_conv_s": "s",
    "trace.overhead_s": "s",
    "trace.repeated_counts": "count",
}

# Host times.  Every other per-layer metric is derived from counts and
# must repeat exactly between runs of one commit.
TIME_UNITS = ("s", "us")

# Computed by run.py across several passes rather than inside one.
RUN_LEVEL = ("trace.overhead_s", "trace.repeated_counts")
