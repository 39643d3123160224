import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from monosync import (
    Box,
    BoxCmp,
    DimensionMismatchError,
    JOrder,
    PointCmp,
    cmp_boxes,
    cmp_points,
    projections_disjoint,
)

J1 = JOrder(1, frozenset([1]))
J21 = JOrder(2, frozenset([1]))
J2ALL = JOrder(2, frozenset([1, 2]))


def test_cmp_points_examples():
    assert cmp_points([0, 1], [1, 0], J21) is PointCmp.LESS
    assert cmp_points([0, 0], [1, 1], J21) is PointCmp.INCOMPARABLE
    assert cmp_points([0.3], [0.7], J1) is PointCmp.LESS


def test_cmp_points_equal_and_tolerance():
    tol_order = JOrder(1, frozenset([1]), strict_tol=1e-6)
    assert cmp_points([0.0], [5e-7], tol_order) is PointCmp.EQUAL
    wide = JOrder(2, frozenset([1]), strict_tol=1e-6)
    # a coordinate gap at tolerance scale must never count as strict
    assert cmp_points([0.0, 0.0], [1.0, -5e-7], wide) is PointCmp.INCOMPARABLE


def test_cmp_points_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cmp_points([0.0], [0.0, 1.0], J1)


def test_cmp_boxes_examples():
    b1 = Box([0.0], [1 / 3])
    b2 = Box([2 / 3], [1.0])
    assert cmp_boxes(b1, b2, J1) is BoxCmp.LESS
    assert oracles.box_less_by_corners(b1, b2, J1)

    c1 = Box([0.0, 0.0], [1 / 3, 1 / 3])
    c2 = Box([2 / 3, -2 / 3], [1.0, -1 / 3])
    assert cmp_boxes(c1, c2, J21) is BoxCmp.LESS
    assert oracles.box_less_by_corners(c1, c2, J21)

    assert cmp_boxes(Box([0.0], [0.5]), Box([0.4], [1.0]), J1) is BoxCmp.INCONCLUSIVE


def test_cmp_boxes_greater_is_symmetric():
    b1 = Box([0.0], [1 / 3])
    b2 = Box([2 / 3], [1.0])
    assert cmp_boxes(b2, b1, J1) is BoxCmp.GREATER


@pytest.mark.parametrize("gap_inc, gap_dec, verdict", [
    (2e-6, 2e-6, BoxCmp.LESS),
    # a gap of strict_tol is not strict, in the increasing coordinate 1 and
    # in the decreasing coordinate 2 alike
    (1e-6, 2e-6, BoxCmp.INCONCLUSIVE),
    (2e-6, 1e-6, BoxCmp.INCONCLUSIVE),
])
def test_cmp_boxes_strict_margin(gap_inc, gap_dec, verdict):
    wide = JOrder(2, frozenset([1]), strict_tol=1e-6)
    b1 = Box([0.0, 1.0], [1.0, 2.0])
    b2 = Box([1.0 + gap_inc, -1.0], [2.0, 1.0 - gap_dec])
    assert cmp_boxes(b1, b2, wide) is verdict
    swapped = BoxCmp.GREATER if verdict is BoxCmp.LESS else verdict
    assert cmp_boxes(b2, b1, wide) is swapped


def test_projections_disjoint_examples():
    assert projections_disjoint(Box([0.0], [1 / 3]), Box([2 / 3], [1.0]))
    assert not projections_disjoint(Box([0, 0], [1, 1]), Box([2, 0], [3, 1]))
    b = Box([0.2, -1.0], [0.4, 2.0])
    assert not projections_disjoint(b, b)


def test_box_less_implies_disjoint_projections():
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(300):
        lo1 = rng.uniform(-2, 2, size=2)
        lo2 = rng.uniform(-2, 2, size=2)
        b1 = Box(lo1, lo1 + rng.uniform(0, 1, size=2))
        b2 = Box(lo2, lo2 + rng.uniform(0, 1, size=2))
        if cmp_boxes(b1, b2, J21) is BoxCmp.LESS:
            found += 1
            assert projections_disjoint(b1, b2)
    assert found > 0


def test_box_less_sound_for_sampled_point_pairs():
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(400):
        lo1 = rng.uniform(-2, 2, size=2)
        lo2 = rng.uniform(-2, 2, size=2)
        b1 = Box(lo1, lo1 + rng.uniform(0, 1.5, size=2))
        b2 = Box(lo2, lo2 + rng.uniform(0, 1.5, size=2))
        if cmp_boxes(b1, b2, J21) is BoxCmp.LESS:
            checked += 1
            assert oracles.box_less_by_sampling(b1, b2, J21, n_pairs=100, seed=trial)
    assert checked > 0


points = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=2
)


@settings(max_examples=300, deadline=None)
@given(x=points, y=points)
def test_antisymmetry(x, y):
    fwd = cmp_points(x, y, J21)
    bwd = cmp_points(y, x, J21)
    if fwd is PointCmp.LESS:
        assert bwd is PointCmp.GREATER
    if fwd is PointCmp.GREATER:
        assert bwd is PointCmp.LESS
    if fwd is PointCmp.EQUAL:
        assert bwd is PointCmp.EQUAL
    if fwd is PointCmp.INCOMPARABLE:
        assert bwd is PointCmp.INCOMPARABLE


@settings(max_examples=300, deadline=None)
@given(x=points, y=points, z=points)
def test_transitivity(x, y, z):
    if (
        cmp_points(x, y, J21) is PointCmp.LESS
        and cmp_points(y, z, J21) is PointCmp.LESS
    ):
        assert cmp_points(x, z, J21) is PointCmp.LESS


def test_order_validation():
    with pytest.raises(ValueError):
        JOrder(0, frozenset())
    with pytest.raises(ValueError):
        JOrder(2, frozenset([3]))
    with pytest.raises(ValueError):
        JOrder(1, frozenset([1]), strict_tol=-1e-9)


def test_box_validation():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(DimensionMismatchError):
        Box([0.0, 0.0], [1.0])


def test_box_taxicab_diameter():
    assert Box([0.0, -1.0], [0.5, 1.0]).diameter == pytest.approx(2.5)
    assert Box([0.3], [0.3]).diameter == 0.0


def test_box_corners_and_hull():
    b = Box([0.0, 0.0], [1.0, 2.0])
    corners = b.corners()
    assert corners.shape == (4, 2)
    assert Box.hull(corners).contains_box(b) and b.contains_box(Box.hull(corners))
