import ast
import inspect
import itertools
import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from monosync import (
    Box,
    DegenerateProbeError,
    JOrder,
    MapFamily,
    Monotonicity,
    UnknownFamilyError,
    UsageError,
    builtin_family_ids,
    classify_monotonicity,
    family_from_config,
    family_to_config,
    image_box,
    make_family,
    probe_cloud,
    sample_block,
)
from monosync.engine import _BlockTable, image_points_at_depths
from monosync.families import (
    BoxNoise,
    FiniteNoise,
    MonotonicityVerdict,
    _REGISTRY,
    _clamp_points,
    _default_probe,
    _jsonable,
    _sample_comparable_pairs,
)
from monosync.streams import stream_generator

from oracles import clamp_two_branch, halton_radical_inverse, sandwich_signs_bruteforce


def test_apply_examples(cantor1d, exp1d):
    img, _ = cantor1d.apply_batch(2, np.array([[0.0]]))
    assert img[0, 0] == pytest.approx(2 / 3, abs=1e-15)
    img, _ = exp1d.apply_batch(1, np.array([[0.0]]))
    assert img[0, 0] == pytest.approx(1.0, abs=1e-15)
    fig = make_family("arctanexp2d")
    img, _ = fig.apply_batch(1, np.array([[0.0, 0.0]]))
    assert img[0] == pytest.approx([0.0, 1.0], abs=1e-15)


def test_lip_pair_slopes_about_zero():
    fam = make_family("lip-pair")
    img1, _ = fam.apply_batch(1, np.array([[1.0]]))
    img2, _ = fam.apply_batch(2, np.array([[1.0]]))
    assert img1[0, 0] == pytest.approx(2.0)
    assert img2[0, 0] == pytest.approx(0.5)


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


@pytest.mark.parametrize(
    "seed, witness_pair", [(0, (0, 0)), (1, (1, 0)), (2, (2, 2)), (3, (3, 0)), (4, (0, 0))]
)
def test_classify_rot2d_witness_is_frozen(seed, witness_pair):
    # The rot2d verdict's witness, as an index into the sampled pairs, per symbol
    # 1 and 2: the first pair after which neither direction survives.
    fam, ordr = family_from_config({"family": "rot2d"})
    xs, ys = _sample_comparable_pairs(stream_generator(seed, "monotone"), fam.probe_box(), ordr, 200)
    for a, i in zip((1, 2), witness_pair):
        v = classify_monotonicity(fam, a, ordr, fam.probe_box(), n_pairs=200, seed=seed)
        assert v.kind is Monotonicity.NEITHER
        assert np.array_equal(v.witness[0], xs[i]) and np.array_equal(v.witness[1], ys[i]), (seed, a)


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
    lo, hi, _ = image_box(cantor1d, [[1, 2]], 1, pts01)
    assert (lo[0, 0], hi[0, 0]) == pytest.approx((0.0, 1 / 3), abs=1e-15)
    lo, hi, _ = image_box(cantor1d, [[1, 2]], 2, pts01)
    assert (lo[0, 0], hi[0, 0]) == pytest.approx((2 / 9, 1 / 3), abs=1e-15)
    lo, hi, _ = image_box(exp1d, [[2]], 1, pts01)
    assert (lo[0, 0], hi[0, 0]) == pytest.approx((-math.e, -1.0), abs=1e-12)


def test_image_box_composition_consistency(cantor1d):
    probe = probe_cloud(cantor1d.probe_box())
    joint = Box(*image_box(cantor1d, [[1, 2]], 2, probe)[:2])
    inner, _ = cantor1d.apply_batch(2, probe)
    stepwise = Box(*image_box(cantor1d, [[1]], 1, inner)[:2])
    assert stepwise.contains_box(joint, tol=1e-12)
    assert joint.contains_box(stepwise, tol=1e-12)


def test_probe_cloud_includes_corners():
    box = Box([0.0, -1.0], [1.0, 0.0])
    cloud = probe_cloud(box)
    for corner in box.corners():
        assert np.any(np.all(np.isclose(cloud, corner), axis=1))
    assert np.all(box.contains(cloud))


def test_probe_cloud_interior_is_the_halton_sequence():
    # against the digit-by-digit oracle, and bitwise against scipy's
    # unscrambled Halton sampler, whose float order the numpy radical inverse keeps
    from scipy.stats import qmc

    for dim in range(1, 21):
        box = Box(np.arange(dim) - 1.0, 2.0 * np.arange(dim) + 0.5)
        corners = box.corners() if dim <= 10 else np.vstack([box.lo, box.hi])
        sampler = qmc.Halton(dim, scramble=False)
        sampler.fast_forward(1)  # skip the origin, a corner already
        for unit in (halton_radical_inverse(32, dim), sampler.random(32)):
            interior = box.lo + unit * (box.hi - box.lo)
            want = np.unique(np.vstack([corners, interior]), axis=0)
            assert np.array_equal(probe_cloud(box), want), dim


def test_jsonable_writes_an_enum_as_its_value():
    verdict = MonotonicityVerdict(Monotonicity.NEITHER, (np.array([0.5]), np.array([np.inf])), 3, 1)
    want = {"kind": "neither", "witness": [[0.5], [None]], "pairs_tested": 3, "n_saturated": 1}
    assert _jsonable(verdict, True) == want


def test_saturation_flag_on_overflow(exp1d):
    pts = np.array([[700.0]])
    out, sat = exp1d.apply_batch(1, pts)
    assert sat.tolist() == [True]
    assert np.isfinite(out).all()
    assert out[0, 0] == exp1d.clamp_bound


def test_apply_batch_flags_each_row():
    # exp(5) is past the bound 10, exp(0) and exp(1) are not
    fam = make_family("exp1d", clamp_bound=10.0)
    img, sat = fam.apply_batch(1, np.array([[0.0], [5.0], [1.0]]))
    assert sat.tolist() == [False, True, False]
    assert img[:, 0].tolist() == [1.0, 10.0, np.exp(1.0)]


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
            assert not sat.any()
            assert np.all(box.contains(img, tol=1e-12)), (fid, a)


def test_default_orders_make_builtins_monotone():
    # every configurable builtin except the rotation control is monotone
    # under its default direction set, coordinate 1 increasing, which its
    # declared order gives
    for fid in ("cantor1d", "cantor2d", "exp1d", "arctanexp2d", "lip-pair", "slide1d"):
        fam, ordr = family_from_config({"family": fid})
        assert ordr.increasing == {1}, fid
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
    inp = raw.copy()
    got, got_sat = _clamp_points(inp, bound)
    want, want_sat = clamp_two_branch(raw.copy(), bound)
    assert inp.tobytes() == raw.tobytes()  # the block a body returned is never written
    assert got.shape == want.shape and got_sat.shape == want_sat.shape == raw.shape[:1]
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got_sat, want_sat)


def test_clamp_leaves_a_custom_body_input_alone():
    # a custom body may return its input; clamping its images must not write into it
    fam = make_family("custom", params={"dim": 2, "fn": lambda a, pts: pts}, clamp_bound=1.0)
    pts = np.array([[0.5, 3.0], [np.nan, -np.inf]])
    before = pts.copy()
    img, sat = fam.apply_batch(1, pts)
    assert sat.tolist() == [True, True]
    assert np.array_equal(img, [[0.5, 1.0], [0.0, -1.0]])
    assert pts.tobytes() == before.tobytes()


# Every built-in that declares a monotonicity order, with non-default
# parameters where the declaration covers them, and the declared signs.
_MONOTONE_AFFINE = {
    "mats": [[[0.5, -0.2], [-0.1, 0.4]], [[-0.3, 0.1], [0.2, -0.3]]],
    "offs": [[0.1, 0.2], [-0.4, 0.3]],
}
_DECLARED = {
    "cantor1d": ("cantor1d", {}, [1.0]),
    "cantor2d": ("cantor2d", {}, [1.0, -1.0]),
    "cantor2d-offsets": ("cantor2d", {"offsets": [[0.5, -0.1], [-0.3, 0.7]]}, [1.0, -1.0]),
    "exp1d": ("exp1d", {}, [1.0]),
    "arctanexp2d": ("arctanexp2d", {}, [1.0, -1.0]),
    "slide1d": ("slide1d", {}, [1.0]),
    "lip-pair": ("lip-pair", {}, [1.0]),
    "lip-pair-signed": ("lip-pair", {"slopes": [-1.5, 0.5]}, [1.0]),
    "lip-pair-disjoint": ("lip-pair", {"mode": "disjoint", "slopes": [2.0, -0.5]}, [1.0]),
    "affine-general": ("affine-general", _MONOTONE_AFFINE, [1.0, -1.0]),
}


def _declared(name):
    fid, params, _ = _DECLARED[name]
    return make_family(fid, params=params)


def test_undeclared_families_keep_the_probe_cloud():
    mixed = {"mats": [[[0.4, 0.1], [0.1, 0.3]], [[0.3, -0.1], [-0.1, 0.4]]], "offs": [[0.1, 0.2], [0.5, -0.3]]}
    for fam in (
        make_family("rot2d"),
        make_family("custom", params={"dim": 2, "fn": lambda a, pts: pts / 2}),
        make_family("affine-general", params=mixed),
    ):
        assert fam.monotone_signs() is None, fam.family
        assert np.array_equal(_default_probe(fam), probe_cloud(fam.probe_box()))


def test_sandwich_probe_is_the_two_extremal_corners():
    fam = make_family("cantor2d")  # probe box [0, 1] x [-1, 0], order (+, -)
    assert np.array_equal(_default_probe(fam), [[0.0, 0.0], [1.0, -1.0]])
    fam = make_family("exp1d")
    assert np.array_equal(_default_probe(fam), [[-3.0], [3.0]])


def test_classify_agrees_with_every_declared_direction():
    for name, (_, _, signs) in _DECLARED.items():
        fam = _declared(name)
        assert fam.monotone_signs().tolist() == signs, name
        ordr = JOrder(fam.dim, frozenset(i + 1 for i, v in enumerate(signs) if v > 0))
        alphas = range(1, fam.noise.q + 1) if fam.finite else [np.array([v]) for v in (0.0, 0.3, 1.0)]
        for a in alphas:
            v = classify_monotonicity(fam, a, ordr, fam.probe_box(), 200, seed=5)
            assert v.kind is not Monotonicity.NEITHER, (name, a)
    kinds = [classify_monotonicity(_declared("affine-general"), a, JOrder(2, frozenset([1])),
                                   Box([-1, -1], [1, 1])).kind for a in (1, 2)]
    assert kinds == [Monotonicity.INCREASING, Monotonicity.DECREASING]


def _affine_params(signs, rng, d, q, mixed):
    mats = []
    for _ in range(q):
        m = np.abs(rng.normal(size=(d, d)))
        m *= signs[:, None] * signs[None, :] * (1.0 if rng.random() < 0.5 else -1.0)
        m[rng.random((d, d)) < 0.3] = 0.0
        mats.append(m)
    if mixed:  # flip one off-diagonal entry of one matrix: most such sets admit no order
        i, j = rng.choice(d, 2, replace=False)
        mats[0][i, j] = -mats[0][i, j] if mats[0][i, j] else 1.0
    return {"mats": [m.tolist() for m in mats], "offs": rng.normal(size=(q, d)).tolist()}


def test_affine_declaration_matches_bruteforce_search():
    rng = np.random.default_rng(17)
    seen = {True: 0, False: 0}
    for trial in range(300):
        d = int(rng.integers(1, 6))
        params = _affine_params(rng.choice([-1.0, 1.0], d), rng, d, int(rng.integers(1, 4)),
                                mixed=d > 1 and trial % 2 == 1)
        want = sandwich_signs_bruteforce(params["mats"])
        got = make_family("affine-general", params=params).monotone_signs()
        seen[got is None] += 1
        if not want:
            assert got is None, params
        else:
            assert got is not None and got[0] == 1.0 and tuple(got.tolist()) in want, params
    assert seen[True] > 20 and seen[False] > 100  # both outcomes were exercised
    eleven = {"mats": [np.eye(11).tolist()], "offs": [[0.0] * 11]}
    assert make_family("affine-general", params=eleven).monotone_signs() is None


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_DECLARED)),
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 24),
    depth=st.integers(0, 40),
)
def test_cloud_images_lie_in_the_sandwich(name, seed, n_rows, depth):
    fam = _declared(name)
    table = _BlockTable(fam.noise, seed, "sandwich", range(n_rows))
    table.ensure(depth)
    depths = np.random.default_rng(seed).integers(0, depth + 1, n_rows)
    cloud, _ = image_points_at_depths(fam, table.values, depths, probe_cloud(fam.probe_box()))
    corners, _ = image_points_at_depths(fam, table.values, depths, _default_probe(fam))
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    assert (cloud >= lo[:, None]).all() and (cloud <= hi[:, None]).all()
    assert np.array_equal(cloud.min(axis=1), lo) and np.array_equal(cloud.max(axis=1), hi)


# Every built-in that declares an affine form, with non-default parameters
# where the form depends on them; slide1d also on a 2-d noise box, whose
# second parameter coordinate its body ignores.
_AFFINE = {
    "cantor1d": lambda: make_family("cantor1d"),
    "cantor1d-one-symbol": lambda: make_family("cantor1d", probs=[1.0]),
    "cantor1d-offsets": lambda: make_family("cantor1d", params={"offsets": [0.1, -0.4, 0.3]},
                                            probs=[0.2, 0.3, 0.5]),
    "cantor2d": lambda: make_family("cantor2d"),
    "cantor2d-offsets": lambda: make_family("cantor2d", params={"offsets": [[0.5, -0.1], [-0.3, 0.7]]}),
    "lip-pair": lambda: make_family("lip-pair"),
    "lip-pair-signed": lambda: make_family("lip-pair", params={"mode": "linear", "slopes": [-1.5, 0.5]}),
    "affine-general": lambda: make_family("affine-general", params=_MONOTONE_AFFINE),
    "affine-general-3d": lambda: make_family("affine-general", params={
        "mats": np.arange(27.0).reshape(3, 3, 3).tolist(), "offs": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]}),
    "slide1d": lambda: make_family("slide1d"),
    "slide1d-2d-box": lambda: make_family("slide1d", noise=BoxNoise(Box([-1.0, 0.0], [2.0, 5.0]))),
    "rot2d": lambda: make_family("rot2d"),
}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_AFFINE)), seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 40))
def test_affine_form_reproduces_the_body(name, seed, n_rows):
    fam = _AFFINE[name]()
    mats, offs, gain = fam.affine_form()
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=3.0, size=(n_rows, fam.dim))
    if fam.finite:
        alphas = rng.integers(1, fam.noise.q + 1, n_rows)
        want = np.einsum("nij,nj->ni", mats[alphas - 1], pts) + offs[alphas - 1]
    else:
        box = fam.noise.box
        alphas = box.lo + rng.random((n_rows, box.dim)) * (box.hi - box.lo)
        want = pts @ mats[0].T + alphas @ gain.T + offs[0]
    got = fam.raw_batch(alphas, pts)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * (1.0 + np.abs(want).max()))


def test_nonaffine_families_declare_no_affine_form():
    for fam in (
        make_family("exp1d"),
        make_family("arctanexp2d"),
        make_family("lip-pair", params={"mode": "disjoint"}),
        make_family("custom", params={"dim": 1, "fn": lambda a, pts: pts / 2}),
    ):
        assert fam.affine_form() is None, fam.family


def test_family_code_names_no_registry_key():
    # what sets a family apart lives in its registry entry, so the code that
    # builds and checks families never tests a family's name
    for obj in (MapFamily, make_family, family_from_config):
        tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        assert strings.isdisjoint(_REGISTRY), obj.__name__


@pytest.mark.parametrize("fid", builtin_family_ids())
def test_noise_of_the_other_kind_is_a_usage_error(fid):
    fam = make_family(fid, params=_MONOTONE_AFFINE if fid == "affine-general" else None)
    other = BoxNoise(Box([0.0], [1.0])) if fam.finite else FiniteNoise((0.5, 0.5))
    with pytest.raises(UsageError, match=f"family {fid!r} takes {type(fam.noise).__name__} only"):
        MapFamily(fid, other, fam.params)


def test_custom_takes_either_noise_kind():
    for noise in (FiniteNoise((0.5, 0.5)), BoxNoise(Box([0.0], [1.0]))):
        fam = make_family("custom", params={"dim": 1, "fn": lambda a, pts: pts / 2}, noise=noise)
        assert fam.noise == noise


def _form_bytes(form):
    return None if form is None else [None if x is None else np.asarray(x).tobytes() for x in form]


@pytest.mark.parametrize("fid", sorted(k for k, v in _REGISTRY.items() if v.defaults))
def test_spelled_out_defaults_change_nothing(fid):
    implicit = make_family(fid)
    explicit = make_family(fid, params=dict(_REGISTRY[fid].defaults))
    assert implicit.params == {}
    pts = np.random.default_rng(3).normal(scale=2.0, size=(64, implicit.dim))
    alphas = sample_block(implicit.noise, 3, 0, 64)
    assert explicit.raw_batch(alphas, pts).tobytes() == implicit.raw_batch(alphas, pts).tobytes()
    assert _form_bytes(explicit.affine_form()) == _form_bytes(implicit.affine_form())
    assert _form_bytes([explicit.monotone_signs()]) == _form_bytes([implicit.monotone_signs()])
