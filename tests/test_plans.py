import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from winosim.layout import _filter_stack, assemble_output, transform_tiles
from winosim.plans import (
    OpCounters,
    WinogradPlan,
    _verify_plan,
    direct_correlate_1d,
    make_plan,
    winograd_1d,
)


# Per-tile forms of the 2-D transforms that winosim.layout applies to whole stacks.


def transform_input_tile(plan, d):
    """Bt @ d @ Bt.T for a single l-by-l input tile."""
    return plan.Bt @ d @ plan.Bt.T


def transform_filter(plan, g):
    """G @ g @ G.T for a single r-by-r filter tile."""
    return plan.G @ g @ plan.G.T


def inverse_transform(plan, M):
    """At @ M @ At.T, reducing an l-by-l product tile to the m-by-m output."""
    return plan.At @ M @ plan.At.T


@pytest.fixture(scope="module")
def plan23():
    return make_plan(2, 3)


def test_f23_matrices_verbatim(plan23):
    assert np.array_equal(plan23.At, [[1, 1, 1, 0], [0, 1, -1, -1]])
    assert np.array_equal(
        plan23.G, [[1, 0, 0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0, 0, 1]]
    )
    assert np.array_equal(
        plan23.Bt,
        [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]],
    )


def test_f23_geometry(plan23):
    assert plan23.l == 4
    assert np.array_equal(plan23.Bt[0], [1, 0, -1, 0])
    # filter transform of the unit impulse picks out G's first column
    assert np.array_equal(plan23.G @ np.array([1.0, 0.0, 0.0]), [1.0, 0.5, 0.5, 0.0])


def test_make_plan_rejects_small():
    with pytest.raises(ValueError):
        make_plan(1, 3)
    with pytest.raises(ValueError):
        make_plan(2, 1)


def test_make_plan_rejects_ill_conditioned():
    with pytest.raises(ValueError, match=r"identity residual 4\.47e-08"):
        make_plan(14, 3)


def test_make_plan_accepts_exactly_the_plans_up_to_l_14():
    for r in range(2, 11):
        for m in range(2, 24):
            if m + r - 1 <= 14:
                assert make_plan(m, r).l == m + r - 1
            else:
                with pytest.raises(ValueError, match="identity residual"):
                    make_plan(m, r)


# F(4, 3) of Lavin & Gray, written out: points 0, 1, -1, 2, -2 and infinity.
_AT_43 = np.array(
    [
        [1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 2.0, -2.0, 0.0],
        [0.0, 1.0, 1.0, 4.0, 4.0, 0.0],
        [0.0, 1.0, -1.0, 8.0, -8.0, 1.0],
    ]
)
_G_43 = np.array(
    [
        [1 / 4, 0.0, 0.0],
        [-1 / 6, -1 / 6, -1 / 6],
        [-1 / 6, 1 / 6, -1 / 6],
        [1 / 24, 1 / 12, 1 / 6],
        [1 / 24, -1 / 12, 1 / 6],
        [0.0, 0.0, 1.0],
    ]
)
_BT_43 = np.array(
    [
        [4.0, 0.0, -5.0, 0.0, 1.0, 0.0],
        [0.0, -4.0, -4.0, 1.0, 1.0, 0.0],
        [0.0, 4.0, -4.0, -1.0, 1.0, 0.0],
        [0.0, -2.0, -1.0, 2.0, 1.0, 0.0],
        [0.0, 2.0, -1.0, -2.0, 1.0, 0.0],
        [0.0, 4.0, 0.0, -5.0, 0.0, 1.0],
    ]
)
_F23 = dict(
    m=2,
    r=3,
    At=[[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]],
    G=[[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.0, 0.0, 1.0]],
    Bt=[[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, -1.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]],
)
_F43 = dict(m=4, r=3, At=_AT_43, G=_G_43, Bt=_BT_43)


def _hand_plan(spec, **replace):
    mats = {name: np.array(spec[name], dtype=float) for name in ("At", "G", "Bt")}
    mats.update(replace)
    return WinogradPlan(m=spec["m"], r=spec["r"], l=spec["m"] + spec["r"] - 1, **mats)


@pytest.mark.parametrize("spec", [_F23, _F43], ids=["F(2,3)", "F(4,3)"])
def test_verify_plan_catches_every_single_entry_perturbation(spec):
    assert _verify_plan(_hand_plan(spec)) <= 1e-15
    for name in ("At", "G", "Bt"):
        base = np.array(spec[name], dtype=float)
        for idx in np.ndindex(base.shape):
            bad = base.copy()
            bad[idx] += 1e-6
            assert _verify_plan(_hand_plan(spec, **{name: bad})) > 1e-8, (name, idx)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("l", 5, r"l=5 != m \+ r - 1 = 4"),
        ("At", np.zeros((1, 1)), r"At has shape \(1, 1\), F\(2, 3\) needs \(2, 4\)"),
        ("G", np.zeros((4, 4)), r"G has shape \(4, 4\), F\(2, 3\) needs \(4, 3\)"),
        ("Bt", np.zeros((4, 3)), r"Bt has shape \(4, 3\), F\(2, 3\) needs \(4, 4\)"),
    ],
)
def test_plan_rejects_inconsistent_fields(field, value, message):
    fields = dict(m=2, r=3, l=4, At=np.zeros((2, 4)), G=np.zeros((4, 3)), Bt=np.zeros((4, 4)))
    fields[field] = value
    with pytest.raises(ValueError, match=message):
        WinogradPlan(**fields)


def test_winograd_1d_known_values(plan23):
    got = winograd_1d(plan23, [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
    assert np.array_equal(got, [6.0, 9.0])
    assert np.array_equal(winograd_1d(plan23, np.zeros(4), [5.0, -1.0, 2.0]), [0.0, 0.0])


def test_winograd_1d_length_mismatch(plan23):
    with pytest.raises(ValueError):
        winograd_1d(plan23, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        winograd_1d(plan23, [1.0, 2.0, 3.0, 4.0], [1.0, 1.0])


def test_multiplication_counts(plan23):
    fast, slow = OpCounters(), OpCounters()
    d, g = np.arange(4.0), np.array([1.0, 2.0, 3.0])
    winograd_1d(plan23, d, g, counters=fast)
    direct_correlate_1d(d, g, counters=slow)
    assert fast.multiplies == 4
    assert slow.multiplies == 6


@settings(max_examples=200, deadline=None)
@given(
    d=st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4),
    g=st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
)
def test_f23_matches_direct_correlation(d, g):
    plan = make_plan(2, 3)
    got = winograd_1d(plan, d, g)
    want = direct_correlate_1d(d, g)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) / scale <= 1e-12


@pytest.mark.parametrize("m,r", [(3, 3), (4, 3), (2, 5), (4, 5)])
def test_general_plans_match_oracle(m, r):
    plan = make_plan(m, r)
    rng = np.random.default_rng(m * 100 + r)
    for _ in range(10):
        d = rng.uniform(-1, 1, plan.l)
        g = rng.uniform(-1, 1, plan.r)
        want = direct_correlate_1d(d, g)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(winograd_1d(plan, d, g) - want)) / scale <= 1e-10


def test_input_transform_examples(plan23):
    assert np.array_equal(transform_input_tile(plan23, np.zeros((4, 4))), np.zeros((4, 4)))
    e00 = np.zeros((4, 4))
    e00[0, 0] = 1.0
    assert np.array_equal(transform_input_tile(plan23, e00), e00)


def test_nesting_identity(plan23):
    # 2-D transform == row-wise 1-D transform then column-wise 1-D transform
    rng = np.random.default_rng(5)
    d = rng.uniform(-1, 1, (4, 4))
    rows_first = (plan23.Bt @ d.T).T  # transform along rows
    nested = plan23.Bt @ rows_first  # then along columns
    assert np.allclose(transform_input_tile(plan23, d), nested, rtol=0, atol=1e-14)


def test_filter_transform_impulse(plan23):
    g = np.zeros((3, 3))
    g[0, 0] = 1.0
    col0 = np.array([1.0, 0.5, 0.5, 0.0])
    assert np.array_equal(transform_filter(plan23, g), np.outer(col0, col0))


def test_inverse_transform_examples(plan23):
    assert np.array_equal(inverse_transform(plan23, np.zeros((4, 4))), np.zeros((2, 2)))
    # nested 1-D oracle applied to the all-ones tile
    ones = np.ones((4, 4))
    want = plan23.At @ ones @ plan23.At.T
    assert np.array_equal(inverse_transform(plan23, ones), want)
    assert np.array_equal(want, [[9.0, -3.0], [-3.0, 1.0]])


def test_single_tile_pipeline_matches_direct_2d(plan23):
    rng = np.random.default_rng(6)
    d = rng.uniform(-1, 1, (4, 4))
    g = rng.uniform(-1, 1, (3, 3))
    M = transform_filter(plan23, g) * transform_input_tile(plan23, d)
    got = inverse_transform(plan23, M)
    want = np.array(
        [[np.sum(d[i : i + 3, j : j + 3] * g) for j in range(2)] for i in range(2)]
    )
    assert np.max(np.abs(got - want)) <= 1e-12


def test_shape_errors(plan23):
    # the batch transforms refuse tiles of the wrong side
    with pytest.raises(ValueError):
        transform_tiles(plan23, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        _filter_stack(np.zeros((1, 1, 4, 4)), plan23)
    with pytest.raises(ValueError):
        assemble_output(np.zeros((2, 2, 1, 1)), plan23, 1, 2, 2)
