"""Sparse Winograd convolution over Z-Morton block layouts.

Library layout:

    plans   -- F(m, r) transform matrices and tile-level transforms
    layout  -- tile extraction, transformed-matrix batches, Z-Morton blocks
    bcoo    -- magnitude pruning and the block-compressed sparse format
    engine  -- direct/dense/sparse convolution, block matmul schedule, layer specs
    sim     -- deterministic systolic-array cluster model
    model   -- analytical volume/arithmetic/energy model and sweeps
    cli     -- command-line front door (`winosim`)
"""

from .plans import OpCounters, WinogradPlan, make_plan, winograd_1d
from .layout import (
    ZMortonMatrix,
    from_zmorton,
    morton_decode,
    morton_encode,
    to_zmorton,
)
from .bcoo import BcooMatrix, bcoo_decode, bcoo_encode, prune
from .engine import (
    LayerSpec,
    NetworkSpec,
    block_matmul_sparse,
    direct_conv,
    recursive_matmul,
    winograd_conv_dense,
    winograd_conv_sparse,
)
from .sim import ArchConfig, SimReport, simulate_cluster_dense, simulate_cluster_sparse, simulate_layer
from .model import EnergyParams, dse_sweep, vgg16_spec

__version__ = "0.1.0"
