import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from winosim.layout import _filter_stack, assemble_output, transform_tiles
from winosim.plans import OpCounters, direct_correlate_1d, make_plan, winograd_1d


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
    with pytest.raises(ValueError):
        make_plan(14, 3)


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
