import dataclasses

import numpy as np
import pytest

from winosim.engine import LayerSpec, NetworkSpec, winograd_conv_dense
from winosim.model import (
    EnergyParams,
    add_counts,
    dse_csv_header,
    dse_csv_rows,
    dse_sweep,
    energy,
    fm_dilation,
    format_network_config,
    mult_count,
    parse_network_config,
    scale_network,
    tile_count,
    vgg16_spec,
    vgg16_table_layers,
    volumes,
    weight_dilation,
)
from winosim.plans import OpCounters, make_plan


@pytest.fixture(scope="module")
def plan():
    return make_plan(2, 3)


TABLE = {
    "conv1": (12_845_056, 65_536),
    "conv2": (6_422_528, 262_144),
    "conv3": (3_211_264, 1_048_576),
    "conv4": (1_605_632, 4_194_304),
    "conv5": (401_408, 4_194_304),
    "conv6": (131_072, 4_194_304),
}


def test_vgg16_parameter_table_exact():
    layers = vgg16_table_layers()
    assert [l.name for l in layers] == list(TABLE)
    for layer in layers:
        d_wi, d_wo, d_wk = volumes(layer, 2)
        assert (d_wi, d_wk) == TABLE[layer.name]


def test_volumes_examples():
    conv5 = LayerSpec("conv5", H=14, W=14, C=512, K=512)
    assert volumes(conv5, 2) == (401_408, 401_408, 4_194_304)
    tiny = LayerSpec("t", H=2, W=2, C=1, K=1)
    assert volumes(tiny, 2) == (16, 16, 16)


def test_mult_count_examples():
    assert mult_count(LayerSpec("t", H=4, W=4, C=1, K=1), 2) == 64
    assert mult_count(LayerSpec("t", H=2, W=2, C=3, K=5), 2) == 3 * 5 * 16
    conv5 = LayerSpec("conv5", H=14, W=14, C=512, K=512)
    assert mult_count(conv5, 2) == 49 * 512 * 512 * 16 == 205_520_896


def test_add_counts_f23(plan):
    assert int(np.count_nonzero(plan.Bt)) - plan.l == 4  # the four input additions
    layer = LayerSpec("t", H=4, W=4, C=1, K=1)
    s_w, s_b, s_a = add_counts(layer, plan)
    assert s_b == 2 * 4 * 1 * 1 * 4 * 4 == 128
    assert s_a == 2 * 4 * 1 * 1 * 4 * (6 - 2)
    assert s_w == 0  # (C - 1) factor


def test_add_counts_corrected_variant(plan):
    layer = LayerSpec("t", H=8, W=8, C=4, K=6)
    _, s_b, s_a = add_counts(layer, plan)
    _, s_b_c, s_a_c = add_counts(layer, plan, corrected_transform_adds=True)
    assert s_b == s_b_c * layer.K
    assert s_a == s_a_c * layer.C


def test_model_rejects_plan_for_other_filter_width():
    # F(2, 5) has l = 6, which does not go with the r = 3 layer's tile count
    layer = LayerSpec("conv_t", H=8, W=8, C=4, K=4, r=3, pad=1)
    plan5 = make_plan(2, 5)
    with pytest.raises(ValueError, match="conv_t: filter width"):
        add_counts(layer, plan5)
    with pytest.raises(ValueError, match="conv_t: filter width"):
        energy(layer, plan5, EnergyParams())


def test_counters_match_formulas_many_geometries(plan):
    rng = np.random.default_rng(0)
    for i in range(20):
        H = int(rng.integers(2, 13))
        W = int(rng.integers(2, 13))
        C = int(rng.integers(1, 7))
        K = int(rng.integers(1, 7))
        layer = LayerSpec(f"g{i}", H=H, W=W, C=C, K=K, r=3, pad=1)
        counters = OpCounters()
        fm = rng.uniform(-1, 1, (C, H, W))
        flt = rng.uniform(-1, 1, (K, C, 3, 3))
        winograd_conv_dense(fm, flt, plan, pad=1, counters=counters)
        assert counters.multiplies == mult_count(layer, 2)
        assert counters.matmul_additions == add_counts(layer, plan)[0]


def test_counters_match_formulas_without_padding(plan):
    # pad = 0 shrinks the output: an 8x8 input has 3x3 output tiles, not 4x4
    rng = np.random.default_rng(1)
    for H, W in ((8, 8), (7, 10)):
        layer = LayerSpec("p0", H=H, W=W, C=3, K=2, r=3, pad=0)
        counters = OpCounters()
        fm = rng.uniform(-1, 1, (3, H, W))
        winograd_conv_dense(fm, rng.uniform(-1, 1, (2, 3, 3, 3)), plan, pad=0, counters=counters)
        assert counters.multiplies == mult_count(layer, 2)
        assert counters.matmul_additions == add_counts(layer, plan)[0]
    assert tile_count(LayerSpec("p0", H=8, W=8, C=1, K=1, pad=0), 2) == 9


def test_energy_linearity(plan):
    layer = vgg16_table_layers()[2]
    ep = EnergyParams()
    base = energy(layer, plan, ep)
    d_wi, d_wo, d_wk = volumes(layer, 2)
    m_w = mult_count(layer, 2)
    s_w, s_b, s_a = add_counts(layer, plan)
    for field, coeff in (
        ("e_external", d_wk),
        ("e_local", d_wi + d_wo),
        ("e_multiply", m_w),
        ("e_add", s_w + s_b + s_a),
    ):
        bumped = dataclasses.replace(ep, **{field: getattr(ep, field) + 1.0})
        assert energy(layer, plan, bumped) - base == coeff


def test_energy_unit_params_sum(plan):
    layer = LayerSpec("t", H=2, W=2, C=1, K=1)
    ep = EnergyParams(e_external=1.0 + 2e-9, e_local=1.0 + 1e-9, e_multiply=1.0, e_add=1.0)
    d = volumes(layer, 2)
    counts = sum(d) + mult_count(layer, 2) + sum(add_counts(layer, plan))
    assert energy(layer, plan, ep) == pytest.approx(counts, rel=1e-6)


def test_energy_params_ordering_enforced():
    with pytest.raises(ValueError):
        EnergyParams(e_external=1.0, e_local=2.0, e_multiply=0.5, e_add=0.1)


def test_dilation_ratios():
    assert weight_dilation(2, 3) == 16 / 9
    assert round(weight_dilation(2, 3), 2) == 1.78
    assert fm_dilation(2, 3) == 4.0


def test_volume_monotonicity_in_m():
    # greater m shrinks the transformed feature map and grows the weights;
    # exact ceilings can break the feature-map trend once m nears H (e.g.
    # m = 6 on the 7-wide stage), so check the regime where tiles dominate
    for layer in vgg16_table_layers():
        wi = [volumes(layer, m)[0] for m in (2, 3, 4)]
        wk = [volumes(layer, m)[2] for m in (2, 3, 4, 6)]
        assert all(a >= b for a, b in zip(wi, wi[1:]))
        assert all(a <= b for a, b in zip(wk, wk[1:]))


def _conv_chain_end(net, channels):
    """(K, out_h, out_w) of the last conv, asserting each conv takes the previous one's output.

    A pool marker between two convs halves the extents, rounding up.
    """
    extents = None
    for it in net.items:
        if isinstance(it, LayerSpec):
            assert it.C == channels
            assert extents is None or (it.H, it.W) == extents
            channels, extents = it.K, (it.out_h, it.out_w)
        else:
            extents = tuple(-(-v // 2) for v in extents)
    return (channels, *extents)


def test_vgg16_chain():
    net = vgg16_spec()
    first = net.conv_layers()[0]
    assert (first.C, first.H, first.W) == (3, 224, 224)
    assert _conv_chain_end(net, 3) == (512, 7, 7)
    assert len(net.conv_layers()) == 18


def test_energy_argmin_over_m():
    # under the as-printed transform-add formulas the C*K factor favours
    # m = 2; the corrected variant flips the optimum to m = 4
    ep = EnergyParams()
    layers = vgg16_table_layers()

    def total(m, corrected):
        plan = make_plan(m, 3)
        return sum(energy(l, plan, ep, corrected) for l in layers)

    assert total(2, False) < total(4, False)
    assert total(4, True) < total(2, True)


def test_dse_sweep_single_point(plan):
    layer = LayerSpec("t", H=4, W=4, C=2, K=2, r=3, pad=1)
    rows = dse_sweep(NetworkSpec(items=(layer,)), [2], [0.0], simulate=False)
    assert len(rows) == 1
    r = rows[0]
    assert (r.d_wi, r.d_wo, r.d_wk) == volumes(layer, 2)
    assert r.m_w == mult_count(layer, 2)
    assert r.e_tot == energy(layer, plan, EnergyParams())
    assert r.weight_dilation == 16 / 9


def test_dse_sparsity_scaling(plan):
    layer = LayerSpec("t", H=8, W=8, C=8, K=8, r=3, pad=1)
    rows = dse_sweep(NetworkSpec(items=(layer,)), [2], [0.0, 0.5], simulate=False)
    dense, half = rows
    assert half.m_w == dense.m_w // 2
    assert half.d_wk == dense.d_wk // 2
    assert half.d_wi == dense.d_wi  # feature maps stay dense
    assert half.e_tot < dense.e_tot


def test_dse_latency_decreases_with_sparsity():
    layer = LayerSpec("t", H=14, W=14, C=64, K=64, r=3, pad=1)
    rows = dse_sweep(NetworkSpec(items=(layer,)), [2], [0.6, 0.9])
    assert rows[1].cycles < rows[0].cycles


def test_dse_rejects_empty_sweep():
    with pytest.raises(ValueError):
        dse_sweep(NetworkSpec(items=()), [], [0.0])


@pytest.mark.parametrize("sparsity", [1.5, -0.2, float("nan")])
def test_dse_rejects_sparsity_outside_unit_interval(sparsity):
    # without the simulator, nothing else would check the sparsity
    layer = LayerSpec("t", H=4, W=4, C=2, K=2, r=3, pad=1)
    with pytest.raises(ValueError, match="sparsity"):
        dse_sweep(NetworkSpec(items=(layer,)), [2], [0.0, sparsity], simulate=False)


def test_dse_csv_roundtrip_field_count():
    layer = LayerSpec("t", H=4, W=4, C=2, K=2, r=3, pad=1)
    rows = dse_sweep(NetworkSpec(items=(layer,)), [2], [0.0], simulate=False)
    header = dse_csv_header().split(",")
    line = dse_csv_rows(rows)[0].split(",")
    assert len(header) == len(line)


def test_network_config_round_trip():
    net = vgg16_spec()
    text = format_network_config(net)
    back = parse_network_config(text)
    assert back == net


def test_network_config_rejects_garbage():
    with pytest.raises(ValueError):
        parse_network_config("conv incomplete 1 2\n")
    with pytest.raises(ValueError):
        parse_network_config("warble\n")


def test_scale_network():
    net = scale_network(vgg16_spec(), 16)
    first = net.conv_layers()[0]
    assert first.H == 14 and first.K == 4
    # the chain still connects after uniform scaling
    _conv_chain_end(net, 1)
