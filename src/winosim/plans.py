"""Winograd convolution plans.

A plan F(m, r) computes m outputs of an r-tap correlation per tile with
l = m + r - 1 element-wise multiplications instead of m * r.  It carries
three transform matrices:

    At : (m, l)   output (inverse) transform
    G  : (l, r)   filter transform
    Bt : (l, l)   input transform

and satisfies the tile identities

    1-D:  y = At @ ((G @ g) * (Bt @ d))
    2-D:  Y = At @ ((G @ g @ G.T) * (Bt @ d @ Bt.T)) @ At.T

where d is an input tile of side l, g a filter tile of side r, and y/Y the
m valid correlation outputs.  All arithmetic is double precision and uses
the correlation convention (no kernel flip).  `winosim.layout` applies the
2-D transforms to whole tile and filter stacks.

The (2, 3) plan is the classic hand-derived one with entries in
{0, +-1, +-1/2}.  Other plans are built by Toom-Cook interpolation at the
fixed point sequence 0, 1, -1, 2, -2, ... so results are deterministic.
Interpolation loses accuracy as l grows, so `make_plan` checks the 1-D
identity exactly on the plan's (m, l, r) bilinear tensor and rejects a
plan whose residual exceeds 1e-8; at double precision that keeps exactly
the plans with l <= 14.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OpCounters",
    "WinogradPlan",
    "make_plan",
    "winograd_1d",
    "direct_correlate_1d",
]


@dataclass
class OpCounters:
    """Tallies of logical scalar work performed by the numeric kernels.

    Counts refer to the unpadded problem: zero-padding added for the block
    layout is never counted.
    """

    multiplies: int = 0
    matmul_additions: int = 0
    inverse_transforms: int = 0


def _charge(counters: OpCounters | None, entries: int, rows_hit: int, P: int) -> None:
    """Charge a product whose left operand stores `entries` entries in `rows_hit` rows.

    The right operand has P columns.  Each entry costs P multiplies, and
    each entry beyond the first in its row costs P additions.
    """
    if counters is not None:
        counters.multiplies += entries * P
        counters.matmul_additions += (entries - rows_hit) * P


@dataclass
class WinogradPlan:
    """F(m, r) transform matrices.  Treat instances as immutable."""

    m: int
    r: int
    l: int
    At: np.ndarray
    G: np.ndarray
    Bt: np.ndarray

    def __post_init__(self):
        if self.l != self.m + self.r - 1:
            raise ValueError(f"l={self.l} != m + r - 1 = {self.m + self.r - 1}")
        for name, want in (
            ("At", (self.m, self.l)),
            ("G", (self.l, self.r)),
            ("Bt", (self.l, self.l)),
        ):
            got = np.shape(getattr(self, name))
            if got != want:
                raise ValueError(f"{name} has shape {got}, F({self.m}, {self.r}) needs {want}")


# Largest entry of the identity residual tensor (`_verify_plan`) that
# `make_plan` accepts.
_MAX_IDENTITY_RESIDUAL = 1e-8

# F(2, 3): the standard minimal 1-D algorithm written out as matrices.
_AT_23 = np.array(
    [
        [1.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, -1.0],
    ]
)
_G_23 = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.5],
        [0.5, -0.5, 0.5],
        [0.0, 0.0, 1.0],
    ]
)
_BT_23 = np.array(
    [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ]
)


def _interpolation_points(n: int) -> np.ndarray:
    """Deterministic point sequence 0, 1, -1, 2, -2, 3, -3, ..."""
    return np.array([0.0, *(sign * k for k in range(1, n) for sign in (1.0, -1.0))][:n])


def _toom_cook_matrices(m: int, r: int):
    # Evaluation at l-1 finite points plus the point at infinity; the
    # correlation form is the transpose of the polynomial-product algorithm,
    # which lands the Lagrange interpolation weights in Bt.
    l = m + r - 1
    pts = _interpolation_points(l - 1)

    def vand(width):
        v = np.zeros((l, width))
        v[: l - 1] = pts[:, None] ** np.arange(width)[None, :]
        v[l - 1, width - 1] = 1.0
        return v

    return vand(m).T.copy(), vand(r), np.linalg.inv(vand(l).T)


def _verify_plan(plan: WinogradPlan) -> float:
    """Max absolute entry of the plan's identity residual tensor.

    F(m, r) is the bilinear map y_i = sum_{j,k} T[i, j, k] d[j] g[k] with
    T[i, j, k] = sum_p At[i, p] Bt[p, j] G[p, k].  Direct correlation
    y_i = sum_q d[i+q] g[q] is the tensor with ones at (i, i + k, k) and
    zeros elsewhere; the residual is the difference of the two, so the check
    is exact for every d and g and draws no samples.
    """
    T = np.einsum("ip,pj,pk->ijk", plan.At, plan.Bt, plan.G)
    i = np.arange(plan.m)[:, None]
    k = np.arange(plan.r)[None, :]
    T[i, i + k, k] -= 1.0
    return float(np.max(np.abs(T)))


def make_plan(m: int, r: int) -> WinogradPlan:
    """Build an F(m, r) plan.

    Raises ValueError for m or r below 2, and for plans whose interpolation
    system is too ill-conditioned to satisfy the correlation identity in
    double precision: those whose identity residual tensor has an entry
    above 1e-8, which today means l = m + r - 1 > 14.
    """
    if m < 2 or r < 2:
        raise ValueError(f"F({m}, {r}) needs m >= 2 and r >= 2")
    l = m + r - 1
    if (m, r) == (2, 3):
        at, g, bt = _AT_23.copy(), _G_23.copy(), _BT_23.copy()
    else:
        try:
            at, g, bt = _toom_cook_matrices(m, r)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"F({m}, {r}) interpolation system is singular") from exc
    for a in (at, g, bt):
        a.setflags(write=False)
    plan = WinogradPlan(m=m, r=r, l=l, At=at, G=g, Bt=bt)
    residual = _verify_plan(plan)
    if residual > _MAX_IDENTITY_RESIDUAL:
        raise ValueError(
            f"F({m}, {r}) is numerically unusable at double precision "
            f"(identity residual {residual:.2e})"
        )
    return plan


def direct_correlate_1d(d, g, counters: OpCounters | None = None) -> np.ndarray:
    """Valid 1-D correlation oracle: y_i = sum_q d[i+q] * g[q]."""
    d = np.asarray(d, dtype=float)
    g = np.asarray(g, dtype=float)
    r = g.shape[0]
    m = d.shape[0] - r + 1
    if m < 1:
        raise ValueError("input shorter than filter")
    y = np.array([np.dot(d[i : i + r], g) for i in range(m)])
    _charge(counters, r, 1, m)
    return y


def winograd_1d(plan: WinogradPlan, d, g, counters: OpCounters | None = None) -> np.ndarray:
    """1-D Winograd correlation; uses exactly plan.l element-wise multiplies."""
    d = np.asarray(d, dtype=float)
    g = np.asarray(g, dtype=float)
    if d.shape != (plan.l,):
        raise ValueError(f"input length {d.shape} != l={plan.l}")
    if g.shape != (plan.r,):
        raise ValueError(f"filter length {g.shape} != r={plan.r}")
    prod = (plan.G @ g) * (plan.Bt @ d)
    if counters is not None:
        counters.multiplies += plan.l
    return plan.At @ prod
