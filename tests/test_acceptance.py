"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import time

import numpy as np
import pytest

from winosim import cli
from winosim.bcoo import bcoo_decode, bcoo_encode
from winosim.engine import (
    LayerSpec,
    compress_filters,
    direct_conv,
    matmul_trace,
    recursive_matmul,
    winograd_conv_dense,
    winograd_conv_sparse,
)
from winosim.layout import from_zmorton, to_zmorton
from winosim.model import (
    EnergyParams,
    add_counts,
    energy,
    mult_count,
    vgg16_table_layers,
    volumes,
    weight_dilation,
)
from winosim.plans import OpCounters, direct_correlate_1d, make_plan, winograd_1d
from winosim.sim import ArchConfig, simulate_cluster_dense, simulate_layer

PLAN = make_plan(2, 3)


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def _report(num, text):
    print(f"[criterion {num:2d}] PASS - {text}")


def test_c01_oracle_equivalence_random_geometries():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    cases = 0
    worst = 0.0
    while cases < 55:
        H = int(rng.integers(2, 33))
        W = int(rng.integers(2, 33))
        C = int(rng.integers(1, 17))
        K = int(rng.integers(1, 17))
        pad = int(rng.integers(0, 2))
        if H + 2 * pad - 3 + 1 < 1 or W + 2 * pad - 3 + 1 < 1:
            continue
        fm = rng.uniform(-1, 1, (C, H, W))
        flt = rng.uniform(-1, 1, (K, C, 3, 3))
        err = _rel_err(
            winograd_conv_dense(fm, flt, PLAN, pad=pad),
            direct_conv(fm, flt, pad=pad),
        )
        worst = max(worst, err)
        assert err <= 1e-10, (H, W, C, K, pad, err)
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, f"{cases} random geometries, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_multiplication_reduction():
    fast, slow = OpCounters(), OpCounters()
    winograd_1d(PLAN, [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0], counters=fast)
    direct_correlate_1d([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0], counters=slow)
    assert fast.multiplies == 4
    assert slow.multiplies == 6

    rng = np.random.default_rng(1)
    fast2, slow2 = OpCounters(), OpCounters()
    fm = rng.uniform(-1, 1, (1, 4, 4))
    flt = rng.uniform(-1, 1, (1, 1, 3, 3))
    winograd_conv_dense(fm, flt, PLAN, pad=0, counters=fast2)
    direct_conv(fm, flt, pad=0, counters=slow2)
    assert fast2.multiplies == 16
    assert slow2.multiplies == 36
    _report(2, "1-D multiplies 4 vs 6; 2-D per-tile 16 vs 36 (exact)")


def test_c03_vgg16_parameter_table():
    table = {
        "conv1": (12_845_056, 65_536),
        "conv2": (6_422_528, 262_144),
        "conv3": (3_211_264, 1_048_576),
        "conv4": (1_605_632, 4_194_304),
        "conv5": (401_408, 4_194_304),
        "conv6": (131_072, 4_194_304),
    }
    for layer in vgg16_table_layers():
        d_wi, _, d_wk = volumes(layer, 2)
        assert (d_wi, d_wk) == table[layer.name], layer.name
    _report(3, "all 12 table cells integer-exact")


def test_c04_weight_dilation_ratio():
    ratio = weight_dilation(2, 3)
    assert ratio == 16 / 9
    assert round(ratio, 2) == 1.78
    _report(4, f"transformed-weight dilation {ratio:.6f} (rounds to 1.78)")


def test_c05_block_schedule_golden_trace():
    cc, aa, bb = matmul_trace(4, 4, 4)
    got = list(zip(cc[:8].tolist(), aa[:8].tolist(), bb[:8].tolist()))
    want = [
        (0, 0, 0), (0, 1, 2),   # C_0  += A_0*B_0 + A_1*B_2
        (4, 0, 4), (4, 1, 6),   # C_4  += A_0*B_4 + A_1*B_6
        (8, 8, 0), (8, 9, 2),   # C_8  += A_8*B_0 + A_9*B_2
        (12, 8, 4), (12, 9, 6), # C_12 += A_8*B_4 + A_9*B_6
    ]
    assert got == want
    # the trace drives the actual multiply in this order
    rng = np.random.default_rng(2)
    A = to_zmorton(rng.uniform(-1, 1, (16, 16)), 4)
    B = to_zmorton(rng.uniform(-1, 1, (16, 16)), 4)
    trace = []
    recursive_matmul(A, B, trace=trace)
    assert trace[:8] == want
    _report(5, "16x16 unrolled schedule opens with the four reference statements")


def test_c06_bcoo_round_trips():
    rng = np.random.default_rng(3)
    count = 0
    for sparsity in (0.0, 0.3, 0.7, 0.95, 1.0):
        for _ in range(200):
            rows = int(rng.integers(1, 21))
            cols = int(rng.integers(1, 21))
            mat = rng.uniform(-1, 1, (rows, cols))
            mat[rng.uniform(0, 1, mat.shape) < sparsity] = 0.0
            enc = bcoo_encode(to_zmorton(mat, 4))
            assert np.array_equal(from_zmorton(bcoo_decode(enc)), mat)
            count += 1

    block5 = np.zeros((4, 16))
    block5[0, 12], block5[1, 14], block5[3, 13] = 1.0, 2.0, 3.0
    enc = bcoo_encode(to_zmorton(block5, 4))
    assert enc.bn.tolist() == [5]
    assert enc.ai.tolist() == [0, 1, 3]
    assert enc.aj.tolist() == [0, 2, 1]
    _report(6, f"{count} bit-exact round trips; reference block lists AI=[0,1,3], AJ=[0,2,1]")


def test_c07_sparse_dense_consistency():
    rng = np.random.default_rng(4)
    worst = 0.0
    for case in range(20):
        H = int(rng.integers(2, 17))
        W = int(rng.integers(2, 17))
        C = int(rng.integers(1, 9))
        K = int(rng.integers(1, 9))
        sparsity = float(rng.uniform(0.2, 0.9))
        fm = rng.uniform(-1, 1, (C, H, W))
        flt = rng.uniform(-1, 1, (K, C, 3, 3))
        _, enc, _ = compress_filters(flt, PLAN, sparsity)
        got = winograd_conv_sparse(fm, enc, PLAN, pad=1)

        from winosim.layout import assemble_output, extract_tiles, scatter_to_matrices, transform_tiles

        vb = scatter_to_matrices(transform_tiles(PLAN, extract_tiles(fm, PLAN, 1)))
        P = vb.at(0, 0).cols
        mats = np.empty((4, 4, K, P))
        for i in range(4):
            for j in range(4):
                mats[i, j] = from_zmorton(
                    recursive_matmul(bcoo_decode(enc[i * 4 + j]), vb.at(i, j))
                )
        want = assemble_output(mats, PLAN, K, H, W)
        err = _rel_err(got, want)
        worst = max(worst, err)
        assert err <= 1e-10, (case, err)
    _report(7, f"20 sparse-vs-decoded-dense cases, worst rel err {worst:.2e}")


def test_c08_cluster_fetch_sharing():
    rng = np.random.default_rng(5)
    A = to_zmorton(rng.uniform(-1, 1, (16, 16)), 4)
    B = to_zmorton(rng.uniform(-1, 1, (16, 16)), 4)
    rep = simulate_cluster_dense(A, B, ArchConfig(), collect_steps=True)
    # per step: four arrays need eight operand blocks, four distinct (2x)
    assert all(s == 8 for s in rep.step_slots)
    assert all(d == 4 for d in rep.step_distinct)
    assert rep.bandwidth_reduction_factor >= 2.0
    assert rep.bandwidth_reduction_factor == 4.0  # measured end-to-end factor
    _report(
        8,
        f"per-step 8 slots / 4 distinct; end-to-end factor {rep.bandwidth_reduction_factor}",
    )


def test_c09_sparsity_speedup_trend():
    layer = LayerSpec("conv5_like", H=14, W=14, C=256, K=256, r=3, pad=1)
    cfg = ArchConfig()
    dense = simulate_layer(layer, PLAN, cfg, 0.0).total_cycles
    cycles = [simulate_layer(layer, PLAN, cfg, s).total_cycles for s in (0.6, 0.7, 0.8, 0.9)]
    assert all(a > b for a, b in zip(cycles, cycles[1:]))
    speedup = dense / cycles[-1]
    assert speedup >= 3.0
    _report(9, f"cycles strictly decreasing over sparsity; {speedup:.2f}x at 90%")


def test_c10_energy_linearity_and_counter_match():
    import dataclasses

    ep = EnergyParams()
    layer = vgg16_table_layers()[3]
    base = energy(layer, PLAN, ep)
    d_wi, d_wo, d_wk = volumes(layer, 2)
    s_w, s_b, s_a = add_counts(layer, PLAN)
    coeffs = {
        "e_external": d_wk,
        "e_local": d_wi + d_wo,
        "e_multiply": mult_count(layer, 2),
        "e_add": s_w + s_b + s_a,
    }
    for name, want in coeffs.items():
        bumped = dataclasses.replace(ep, **{name: getattr(ep, name) + 1.0})
        assert energy(layer, PLAN, bumped) - base == want

    rng = np.random.default_rng(6)
    for i in range(20):
        H = int(rng.integers(2, 11))
        W = int(rng.integers(2, 11))
        C = int(rng.integers(1, 6))
        K = int(rng.integers(1, 6))
        spec = LayerSpec(f"g{i}", H=H, W=W, C=C, K=K, r=3, pad=1)
        counters = OpCounters()
        winograd_conv_dense(
            rng.uniform(-1, 1, (C, H, W)),
            rng.uniform(-1, 1, (K, C, 3, 3)),
            PLAN,
            pad=1,
            counters=counters,
        )
        assert counters.multiplies == mult_count(spec, 2)
        assert counters.matmul_additions == add_counts(spec, PLAN)[0]
    _report(10, "finite-difference energy coefficients and engine counters integer-exact")


def test_c11_dse_determinism(tmp_path):
    spec = tmp_path / "net.cfg"
    spec.write_text("conv a 14 14 16 16 3 1\nconv b 14 14 16 16 3 1\n")
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = cli.main(
            ["dse", "--spec", str(spec), "--sparsities", "0,0.5,0.9",
             "--m-values", "2", "--seed", "42", "--out", str(path)]
        )
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    _report(11, "byte-identical dse CSV across reruns")
