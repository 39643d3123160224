import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from monosync import (
    Box,
    DegenerateProbeError,
    JOrder,
    Monotonicity,
    UnknownFamilyError,
    UsageError,
    apply_map,
    classify_monotonicity,
    family_from_config,
    family_to_config,
    image_box,
    make_family,
    probe_cloud,
)
from monosync.families import FiniteNoise, _clamp_points

from oracles import clamp_two_branch


def test_apply_examples(cantor1d, exp1d):
    assert apply_map(cantor1d, 2, [0.0])[0] == pytest.approx(2 / 3, abs=1e-15)
    assert apply_map(exp1d, 1, [0.0])[0] == pytest.approx(1.0, abs=1e-15)
    fig = make_family("arctanexp2d")
    out = apply_map(fig, 1, [0.0, 0.0])
    assert out == pytest.approx([0.0, 1.0], abs=1e-15)


def test_lip_pair_slopes_about_zero():
    fam = make_family("lip-pair")
    assert apply_map(fam, 1, [1.0])[0] == pytest.approx(2.0)
    assert apply_map(fam, 2, [1.0])[0] == pytest.approx(0.5)


def test_lip_pair_disjoint_images():
    fam = make_family("lip-pair", params={"mode": "disjoint"})
    xs = np.linspace(-50, 50, 201)[:, None]
    img1, _ = fam.apply_batch(1, xs)
    img2, _ = fam.apply_batch(2, xs)
    # tanh saturates to +-1.0 at float precision, so the closures are attained
    assert img1.min() >= 1.0 and img1.max() <= 5.0
    assert img2.min() >= -2.5 and img2.max() <= -1.5
    assert img2.max() < img1.min()


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        make_family("no-such-family")


def test_finite_noise_validation():
    with pytest.raises(UsageError):
        FiniteNoise((0.5, 0.6))
    with pytest.raises(UsageError):
        FiniteNoise((-0.1, 1.1))
    assert FiniteNoise((0.3, 0.7)).q == 2


def test_classify_monotonicity_examples(cantor1d, order1):
    fig = make_family("arctanexp2d")
    ordf = JOrder(2, frozenset([1]))
    v = classify_monotonicity(fig, 1, ordf, fig.probe_box(), n_pairs=200, seed=0)
    assert v.kind is Monotonicity.DECREASING
    assert v.witness is None

    v1 = classify_monotonicity(cantor1d, 1, order1, cantor1d.probe_box(), n_pairs=100, seed=0)
    assert v1.kind is Monotonicity.INCREASING


def test_classify_neither_with_witness():
    fam = make_family(
        "custom",
        params={"dim": 2, "fn": lambda a, p: np.stack([p[:, 0] ** 2, p[:, 1]], axis=1)},
    )
    ordr = JOrder(2, frozenset([1, 2]))
    v = classify_monotonicity(fam, 1, ordr, Box([-1, -1], [1, 1]), n_pairs=400, seed=1)
    assert v.kind is Monotonicity.NEITHER
    assert v.witness is not None
    x, y = v.witness
    # the witness pre-image pair is comparable by construction
    from monosync import PointCmp, cmp_points

    assert cmp_points(x, y, ordr) is PointCmp.LESS


def test_classify_stability_under_resampling(cantor1d, order1):
    for seed in range(10):
        v = classify_monotonicity(cantor1d, 1, order1, cantor1d.probe_box(), 50, seed=seed)
        assert v.kind is Monotonicity.INCREASING


def test_classify_degenerate_probe(cantor1d, order1):
    flat = Box([0.5], [0.5])
    with pytest.raises(DegenerateProbeError):
        classify_monotonicity(cantor1d, 1, order1, flat, n_pairs=10, seed=0)


def test_diagonal_affine_increasing_for_every_direction_set():
    for k in (1, 2, 3):
        diag = np.diag(np.arange(1, k + 1, dtype=float) / 2.0)
        fam = make_family(
            "affine-general",
            params={"mats": [diag.tolist()] * 2, "offs": [[0.0] * k, [0.5] * k]},
            domain=Box([-2.0] * k, [2.0] * k),
        )
        for r in range(k + 1):
            for inc in itertools.combinations(range(1, k + 1), r):
                ordr = JOrder(k, frozenset(inc))
                v = classify_monotonicity(fam, 2, ordr, fam.probe_box(), 60, seed=3)
                assert v.kind is Monotonicity.INCREASING, (k, inc)


def test_image_box_examples(cantor1d, exp1d):
    pts01 = np.array([[0.0], [1.0]])
    b = image_box(cantor1d, [1], pts01)
    assert (b.lo[0], b.hi[0]) == pytest.approx((0.0, 1 / 3), abs=1e-15)
    b2 = image_box(cantor1d, [1, 2], pts01)
    assert (b2.lo[0], b2.hi[0]) == pytest.approx((2 / 9, 1 / 3), abs=1e-15)
    b3 = image_box(exp1d, [2], pts01)
    assert (b3.lo[0], b3.hi[0]) == pytest.approx((-math.e, -1.0), abs=1e-12)


def test_image_box_composition_consistency(cantor1d):
    probe = probe_cloud(cantor1d.probe_box())
    joint = image_box(cantor1d, [1, 2], probe)
    inner, _ = cantor1d.apply_batch(2, probe)
    stepwise = image_box(cantor1d, [1], inner)
    assert stepwise.contains_box(joint, tol=1e-12)
    assert joint.contains_box(stepwise, tol=1e-12)


def test_probe_cloud_includes_corners():
    box = Box([0.0, -1.0], [1.0, 0.0])
    cloud = probe_cloud(box)
    for corner in box.corners():
        assert np.any(np.all(np.isclose(cloud, corner), axis=1))
    assert np.all(box.contains(cloud))


def test_saturation_flag_on_overflow(exp1d):
    pts = np.array([[700.0]])
    out, sat = exp1d.apply_batch(1, pts)
    assert sat
    assert np.isfinite(out).all()
    assert out[0, 0] == exp1d.clamp_bound


def test_config_roundtrip():
    cfg = {
        "family": "cantor1d",
        "probs": [0.25, 0.75],
        "J": [1],
        "domain": {"lo": [0.0], "hi": [1.0]},
        "clamp": 1e300,
    }
    fam, ordr = family_from_config(cfg)
    assert fam.noise.probs == (0.25, 0.75)
    assert ordr.increasing == frozenset([1])
    back = family_to_config(fam, ordr)
    fam2, ordr2 = family_from_config(back)
    assert fam2.noise.probs == fam.noise.probs
    assert ordr2 == ordr


def test_config_rejects_custom_and_unknown():
    with pytest.raises(UnknownFamilyError):
        family_from_config({"family": "custom", "params": {"dim": 1, "fn": abs}})
    with pytest.raises(UsageError):
        family_from_config({})


def test_bounded_domains_closed_under_iteration():
    rng = np.random.default_rng(12)
    for fid in ("cantor1d", "cantor2d", "slide1d"):
        fam, _ = family_from_config({"family": fid})
        box = fam.domain
        pts = box.lo + rng.random((256, fam.dim)) * (box.hi - box.lo)
        if isinstance(fam.noise, FiniteNoise):
            alphas = range(1, fam.noise.q + 1)
        else:
            alphas = [np.array([0.0]), np.array([0.5]), np.array([1.0])]
        for a in alphas:
            img, sat = fam.apply_batch(a, pts)
            assert not sat
            assert np.all(box.contains(img, tol=1e-12)), (fid, a)


def test_default_orders_make_builtins_monotone():
    # every configurable builtin except the rotation control is monotone
    # under its default direction set
    for fid in ("cantor1d", "cantor2d", "exp1d", "arctanexp2d", "lip-pair", "slide1d"):
        fam, ordr = family_from_config({"family": fid})
        if isinstance(fam.noise, FiniteNoise):
            alphas = range(1, fam.noise.q + 1)
        else:
            alphas = [np.array([0.3])]
        for a in alphas:
            v = classify_monotonicity(fam, a, ordr, fam.probe_box(), 50, seed=2)
            assert v.kind is not Monotonicity.NEITHER, (fid, a)


_clamp_blocks = hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 6), st.integers(1, 3)),
    elements=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 2.0, -2.0, 1e300, -1e300, 1e308, -1e308]),
    ),
)


@settings(max_examples=400, deadline=None)
@given(raw=_clamp_blocks, bound=st.sampled_from([1.0, 1e300, math.inf]))
def test_clamp_matches_two_branch_reference(raw, bound):
    got, got_sat = _clamp_points(raw.copy(), bound)
    want, want_sat = clamp_two_branch(raw.copy(), bound)
    assert got.shape == want.shape and got_sat.shape == want_sat.shape == raw.shape[:1]
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got_sat, want_sat)
