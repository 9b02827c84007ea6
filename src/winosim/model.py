"""Analytical volume, arithmetic, and energy model for Winograd layers.

Per layer, with t = ceil(H_out/m) * ceil(W_out/m) transformed tile
positions (LayerSpec.tile_counts) and l = m + r - 1:

    data volumes      D_wi = t * C * l^2      (transformed feature map)
                      D_wo = t * K * l^2      (products before inverse)
                      D_wk = C * K * l^2      (transformed weights)
    multiplies        M_W  = t * C * K * l^2
    matmul adds       S_W  = t * (C - 1) * K * l^2
    transform adds    S_B  = 2 * t * C * K * l * (nnz(B) - l)
                      S_A  = 2 * t * C * K * l * (nnz(A) - m)
    energy            E    = E_ml * (D_wi + D_wo) + E_me * D_wk
                             + E_mul * M_W + E_add * (S_W + S_B + S_A)

All counts are exact ceiling forms.  The tile count is taken over the
output extent, the tiles the engine convolves, so M_W and S_W equal the
engine's instrumented counters at any padding; nnz(A)/nnz(B) count the
nonzero entries of the plan's transform matrices (6 and 8 for F(2, 3)).

The transform-add formulas above carry a C*K product as stated; the input
transform actually scales only with C and the inverse only with K, so a
corrected variant (S_B with C, S_A with K) is available behind the
`corrected_transform_adds` flag.  Weight sparsity scales multiplies and
weight volume by the surviving fraction; feature maps stay dense.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .engine import FcSpec, LayerSpec, NetworkSpec, PoolSpec
from .plans import WinogradPlan, make_plan
from .sim import ArchConfig, SimReport, _csv_line, simulate_layer

__all__ = [
    "EnergyParams",
    "SweepRow",
    "tile_count",
    "volumes",
    "mult_count",
    "add_counts",
    "energy",
    "weight_dilation",
    "fm_dilation",
    "vgg16_spec",
    "vgg16_table_layers",
    "dse_sweep",
    "dse_csv_header",
    "dse_csv_rows",
    "parse_network_config",
    "format_network_config",
    "scale_network",
]


@dataclass(frozen=True)
class EnergyParams:
    """Unit energies, in arbitrary consistent units.

    Defaults encode the usual hierarchy: an external-memory access costs
    orders of magnitude more than a local-buffer access, which costs more
    than arithmetic.  The ordering e_external > e_local > e_multiply >=
    e_add > 0 is enforced.
    """

    e_external: float = 200.0
    e_local: float = 6.0
    e_multiply: float = 2.0
    e_add: float = 1.0

    def __post_init__(self):
        if not (self.e_external > self.e_local > self.e_multiply >= self.e_add > 0):
            raise ValueError(
                "unit energies must satisfy e_external > e_local > e_multiply >= e_add > 0"
            )


def tile_count(layer: LayerSpec, m: int) -> int:
    th, tw = layer.tile_counts(m)
    return th * tw


def volumes(layer: LayerSpec, m: int) -> tuple[int, int, int]:
    """Exact (D_wi, D_wo, D_wk) for one layer."""
    l = m + layer.r - 1
    t = tile_count(layer, m)
    return t * layer.C * l * l, t * layer.K * l * l, layer.C * layer.K * l * l


def mult_count(layer: LayerSpec, m: int) -> int:
    """M_W: every transformed input entry meets each of the K filters once."""
    return volumes(layer, m)[0] * layer.K


def add_counts(
    layer: LayerSpec, plan: WinogradPlan, corrected_transform_adds: bool = False
) -> tuple[int, int, int]:
    """(S_W, S_B, S_A); set the flag for the C-only / K-only transform variant."""
    if plan.r != layer.r:
        raise ValueError(f"{layer.name}: filter width {layer.r} != plan r={plan.r}")
    l, m = plan.l, plan.m
    t = tile_count(layer, m)
    nnz_b = int(np.count_nonzero(plan.Bt))
    nnz_a = int(np.count_nonzero(plan.At))
    s_w = t * (layer.C - 1) * layer.K * l * l
    if corrected_transform_adds:
        s_b = 2 * t * layer.C * l * (nnz_b - l)
        s_a = 2 * t * layer.K * l * (nnz_a - m)
    else:
        s_b = 2 * t * layer.C * layer.K * l * (nnz_b - l)
        s_a = 2 * t * layer.C * layer.K * l * (nnz_a - m)
    return s_w, s_b, s_a


def energy(
    layer: LayerSpec,
    plan: WinogradPlan,
    ep: EnergyParams,
    corrected_transform_adds: bool = False,
) -> float:
    adds = sum(add_counts(layer, plan, corrected_transform_adds))
    return _energy(ep, *volumes(layer, plan.m), mult_count(layer, plan.m), adds)


def _energy(ep: EnergyParams, d_wi, d_wo, d_wk, m_w, adds) -> float:
    """E from the counts; `adds` is S_W + S_B + S_A."""
    return (
        ep.e_local * (d_wi + d_wo)
        + ep.e_external * d_wk
        + ep.e_multiply * m_w
        + ep.e_add * adds
    )


def weight_dilation(m: int, r: int) -> float:
    """Storage growth of transformed weights: l^2 / r^2 (16/9 ~ 1.78 at m=2, r=3)."""
    l = m + r - 1
    return (l * l) / (r * r)


def fm_dilation(m: int, r: int) -> float:
    """Storage growth of transformed feature maps: (l/m)^2."""
    l = m + r - 1
    return (l / m) ** 2


# ---------------------------------------------------------------------------
# VGG16 preset

_VGG16_STAGES = (
    # (stage name, channel width, input extent, conv layers in stage)
    ("conv1", 64, 224, 2),
    ("conv2", 128, 112, 3),
    ("conv3", 256, 56, 4),
    ("conv4", 512, 28, 4),
    ("conv5", 512, 14, 4),
    ("conv6", 512, 7, 1),
)


def vgg16_spec() -> NetworkSpec:
    """The VGG16-style stage structure used throughout the analysis.

    Spatial extents chain 224 -> 112 -> 56 -> 28 -> 14 -> 7 via pooling;
    the first layer of each stage takes the previous stage's width (input
    is 3 channels) and the remaining layers run at the stage width.
    """
    items = []
    c_in = 3
    for si, (name, width, extent, count) in enumerate(_VGG16_STAGES):
        for i in range(count):
            items.append(
                LayerSpec(f"{name}_{i + 1}", H=extent, W=extent, C=c_in, K=width, r=3, pad=1)
            )
            c_in = width
        if si < len(_VGG16_STAGES) - 1:
            items.append(PoolSpec())
    return NetworkSpec(items=tuple(items))


def vgg16_table_layers() -> list[LayerSpec]:
    """One representative layer per stage (the stage-width ones)."""
    return [
        LayerSpec(name, H=extent, W=extent, C=width, K=width, r=3, pad=1)
        for name, width, extent, _ in _VGG16_STAGES
    ]


def scale_network(net: NetworkSpec, divisor: int) -> NetworkSpec:
    """Shrink extents and channel counts by an integer divisor (quick looks)."""
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    if divisor == 1:
        return net
    items = []
    for it in net.items:
        if isinstance(it, LayerSpec):
            items.append(
                replace(
                    it,
                    H=-(-it.H // divisor),
                    W=-(-it.W // divisor),
                    C=max(-(-it.C // divisor), 1),
                    K=max(-(-it.K // divisor), 1),
                )
            )
        else:
            items.append(it)
    return NetworkSpec(items=tuple(items))


# ---------------------------------------------------------------------------
# design-space sweep


@dataclass(frozen=True)
class SweepRow:
    """One (layer, m, sparsity) grid point: analytical counts plus simulation."""

    layer: str
    m: int
    sparsity: float
    d_wi: int
    d_wo: int
    d_wk: int
    m_w: int
    s_w: int
    s_b: int
    s_a: int
    e_tot: float
    weight_dilation: float
    fm_dilation: float
    cycles: int
    ext_fetches: int
    local_fetches: int
    block_matmuls: int
    bw_reduction: float


def dse_sweep(
    net: NetworkSpec,
    m_values,
    sparsities,
    ep: EnergyParams | None = None,
    cfg: ArchConfig | None = None,
    seed: int = 0,
    corrected_transform_adds: bool = False,
    simulate: bool = True,
) -> list[SweepRow]:
    """Sweep m and sparsity over every conv layer of the network.

    Sparsity scales the multiply count and weight volume by the surviving
    fraction (block granularity, rounded to integers); feature-map volumes
    are unchanged.  With `simulate`, each point also carries the simulated
    latency and fetch counters.
    """
    m_values = list(m_values)
    sparsities = list(sparsities)
    if not m_values or not sparsities:
        raise ValueError("sweeps must be non-empty")
    for s in sparsities:
        if not 0.0 <= s <= 1.0:  # NaN fails too
            raise ValueError(f"sparsity {s!r} must lie in [0, 1]")
    ep = ep or EnergyParams()
    cfg = cfg or ArchConfig()
    plans: dict = {}
    rows = []
    for m in m_values:
        for layer in net.conv_layers():
            key = (m, layer.r)
            if key not in plans:
                plans[key] = make_plan(*key)
            lplan = plans[key]
            lcfg = replace(cfg, l=lplan.l)
            d_wi, d_wo, d_wk = volumes(layer, m)
            m_w = mult_count(layer, m)
            s_w, s_b, s_a = add_counts(layer, lplan, corrected_transform_adds)
            for s in sparsities:
                surviving = 1.0 - s
                m_w_eff = int(round(m_w * surviving))
                d_wk_eff = int(round(d_wk * surviving))
                e_tot = _energy(ep, d_wi, d_wo, d_wk_eff, m_w_eff, s_w + s_b + s_a)
                if simulate:
                    rep = simulate_layer(layer, lplan, lcfg, s, seed)
                else:
                    rep = SimReport()
                rows.append(
                    SweepRow(
                        layer=layer.name,
                        m=m,
                        sparsity=float(s),
                        d_wi=d_wi,
                        d_wo=d_wo,
                        d_wk=d_wk_eff,
                        m_w=m_w_eff,
                        s_w=s_w,
                        s_b=s_b,
                        s_a=s_a,
                        e_tot=e_tot,
                        weight_dilation=weight_dilation(m, layer.r),
                        fm_dilation=fm_dilation(m, layer.r),
                        cycles=rep.total_cycles,
                        ext_fetches=rep.external_block_fetches,
                        local_fetches=rep.local_block_fetches,
                        block_matmuls=rep.block_matmuls_executed,
                        bw_reduction=rep.bandwidth_reduction_factor,
                    )
                )
    return rows


def dse_csv_header() -> str:
    return ",".join(f.name for f in fields(SweepRow))


def dse_csv_rows(rows) -> list[str]:
    return [_csv_line(astuple(r)) for r in rows]


# ---------------------------------------------------------------------------
# network spec text config
#
# Line format (whitespace separated, '#' comments):
#   conv <name> <H> <W> <C> <K> <r> <pad>
#   pool
#   fc <name> <in_features> <out_features>


def parse_network_config(text: str) -> NetworkSpec:
    items = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "conv":
                name = parts[1]
                H, W, C, K, r, pad = (int(v) for v in parts[2:8])
                items.append(LayerSpec(name, H=H, W=W, C=C, K=K, r=r, pad=pad))
            elif kind == "pool":
                items.append(PoolSpec())
            elif kind == "fc":
                items.append(FcSpec(parts[1], int(parts[2]), int(parts[3])))
            else:
                raise ValueError(f"unknown item kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"network config line {ln}: {exc}") from exc
    return NetworkSpec(items=tuple(items))


def format_network_config(net: NetworkSpec) -> str:
    lines = ["# layers: conv <name> <H> <W> <C> <K> <r> <pad> | pool | fc <name> <in> <out>"]
    for it in net.items:
        if isinstance(it, LayerSpec):
            lines.append(f"conv {it.name} {it.H} {it.W} {it.C} {it.K} {it.r} {it.pad}")
        elif isinstance(it, PoolSpec):
            lines.append("pool")
        elif isinstance(it, FcSpec):
            lines.append(f"fc {it.name} {it.in_features} {it.out_features}")
    return "\n".join(lines) + "\n"
