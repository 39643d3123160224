import tracemalloc

import numpy as np
import pytest

from monosync import (
    Box,
    EmpiricalMeasure,
    NoiseBlock,
    NotConvergedError,
    forward_orbit,
    make_family,
    noise_at,
    probe_cloud,
    pullback_point,
    reverse_orbit,
    sample_block,
    wasserstein1,
)
from monosync.engine import (
    _BlockTable,
    _chain,
    _draw_noise,
    _noise_values,
    image_points_at_depths,
    pullback_batch,
)
from monosync.errors import UsageError
from monosync.families import BoxNoise, FiniteNoise, _default_probe
from monosync.streams import stream_generator
from oracles import (
    finite_symbol,
    per_stream_table,
    pullback_linear_scan,
    reverse_rowwise,
    step_rowwise,
)


def test_degenerate_law_block():
    noise = FiniteNoise((1.0, 0.0))
    block = sample_block(noise, 123, 0, 5)
    assert np.array_equal(block.values, [1, 1, 1, 1, 1])


def test_block_determinism(cantor1d):
    b1 = sample_block(cantor1d.noise, 99, 4, 64)
    b2 = sample_block(cantor1d.noise, 99, 4, 64)
    assert np.array_equal(b1.values, b2.values)
    b3 = sample_block(cantor1d.noise, 99, 5, 64)
    assert not np.array_equal(b1.values, b3.values)


def test_block_prefix_extension(cantor1d):
    short = sample_block(cantor1d.noise, 7, 0, 10)
    long = sample_block(cantor1d.noise, 7, 0, 50)
    assert np.array_equal(long.values[:10], short.values)


def test_counter_addressing_matches_sequential(cantor1d):
    block = sample_block(cantor1d.noise, 31, 2, 20)
    direct = [noise_at(cantor1d.noise, 31, 2, j) for j in range(20)]
    assert np.array_equal(block.values, direct)


def test_counter_addressing_box_noise():
    fam = make_family("slide1d")
    block = sample_block(fam.noise, 8, 1, 12)
    for j in (0, 3, 11):
        assert np.allclose(noise_at(fam.noise, 8, 1, j), block.values[j])


def test_symbol_frequency(cantor1d):
    block = sample_block(cantor1d.noise, 2024, 0, 100_000)
    freq = float((block.values == 1).mean())
    assert abs(freq - 0.5) < 0.01


def test_forward_orbit_examples(cantor1d):
    tr = forward_orbit(cantor1d, NoiseBlock(np.array([1, 1]), 0, 0), [1.0])
    assert np.allclose(tr.positions.ravel(), [1.0, 1 / 3, 1 / 9])
    x0 = np.array([0.0])
    tr2 = forward_orbit(cantor1d, NoiseBlock(np.array([2, 1]), 0, 0), x0)
    assert np.allclose(tr2.positions.ravel(), [0.0, 2 / 3, 2 / 9])
    assert x0[0] == 0.0  # the start point is not advanced in place
    lip = make_family("lip-pair")
    tr3 = forward_orbit(lip, NoiseBlock(np.array([1]), 0, 0), [1.0])
    assert tr3.positions[-1, 0] == pytest.approx(2.0)


def test_reverse_orbit_examples(cantor1d):
    tr = reverse_orbit(cantor1d, NoiseBlock(np.array([1, 2]), 0, 0), [0.0])
    assert np.allclose(tr.positions.ravel(), [0.0, 0.0, 2 / 9])
    # single-step reverse equals forward
    blk = NoiseBlock(np.array([2]), 0, 0)
    f = forward_orbit(cantor1d, blk, [0.25]).positions[-1]
    r = reverse_orbit(cantor1d, blk, [0.25]).positions[-1]
    assert np.allclose(f, r)


def test_reverse_boxes_nested(cantor1d):
    probe = probe_cloud(cantor1d.probe_box())
    block = sample_block(cantor1d.noise, 17, 0, 15)
    tr = reverse_orbit(cantor1d, block, [0.5], probe_points=probe)
    assert tr.boxes is not None and len(tr.boxes) == 16
    for j in range(15):
        assert tr.boxes[j].contains_box(tr.boxes[j + 1], tol=1e-12)


def test_pullback_depth_matches_contraction(cantor1d):
    probe = probe_cloud(cantor1d.probe_box())
    pt, n_used = pullback_point(cantor1d, 7, 0, probe, tol=1e-9)
    assert n_used == 19  # smallest n with 3^-n <= 1e-9
    assert 0.0 <= pt[0] <= 1.0


def test_pullback_const_family(const_family):
    probe = probe_cloud(const_family.probe_box())
    pt, n_used = pullback_point(const_family, 5, 0, probe, tol=1e-9)
    assert n_used == 1
    assert pt[0] == pytest.approx(0.7, abs=1e-12)


def test_pullback_exp_sign(exp1d):
    probe = probe_cloud(exp1d.probe_box())
    # the outermost map decides the sign of the limit
    for sid in range(20):
        first = noise_at(exp1d.noise, 41, sid, 0)
        pt, _ = pullback_point(exp1d, 41, sid, probe, tol=1e-9, n_max=512)
        assert (pt[0] > 0) == (first == 1)


def test_pullback_probe_independence(cantor1d):
    p1 = np.array([[0.0], [1.0], [0.25]])
    p2 = np.array([[0.4], [0.6]])
    tol = 1e-10
    a, _ = pullback_point(cantor1d, 9, 3, p1, tol=tol)
    b, _ = pullback_point(cantor1d, 9, 3, p2, tol=tol)
    assert abs(a[0] - b[0]) <= 2 * tol


def test_pullback_not_converged(rot2d):
    probe = probe_cloud(rot2d.probe_box())
    with pytest.raises(NotConvergedError):
        pullback_point(rot2d, 3, 0, probe, tol=1e-6, n_max=64)


def test_pullback_batch_bit_reproducible(cantor1d):
    probe = probe_cloud(cantor1d.probe_box())
    a = pullback_batch(cantor1d, 5, range(200), probe, 1e-9, 256)
    b = pullback_batch(cantor1d, 5, range(200), probe, 1e-9, 256)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.n_used, b.n_used)
    # stream addressing is positional, so sub-ranges agree entry by entry
    c = pullback_batch(cantor1d, 5, range(50, 100), probe, 1e-9, 256)
    assert np.array_equal(c.points, a.points[50:100])


@pytest.mark.parametrize("fid, tol, n_max", [
    ("cantor1d", 1e-9, 64),
    ("cantor2d", 1e-9, 64),
    ("slide1d", 1e-9, 64),
    ("const", 1e-9, 64),
    ("cantor1d", 1e-4, 10),  # n_max under the first depth (16): the answer, 9, is found under the cap
    ("rot2d", 1e-6, 64),  # no row converges
])
def test_pullback_batch_matches_linear_scan(fid, tol, n_max, const_family):
    fam = const_family if fid == "const" else make_family(fid)
    probe = probe_cloud(fam.probe_box())
    ids = [0, 3, 17, 2**32 + 1]
    blocks = per_stream_table(fam.noise, 21, "noise", ids, [n_max])
    want_n, want_pts, want_diam = pullback_linear_scan(fam, blocks, probe, tol, n_max)
    got = pullback_batch(fam, 21, ids, probe, tol, n_max)
    assert np.array_equal(got.n_used, want_n)
    conv = want_n >= 0
    assert np.array_equal(got.converged, conv)
    assert np.allclose(got.points[conv], want_pts[conv], rtol=0, atol=1e-12)
    assert np.allclose(got.diam, want_diam, rtol=0, atol=1e-12)
    if fid == "rot2d":
        assert not conv.any()
    if fid == "cantor1d" and n_max == 10:
        assert (want_n == 9).all()


@pytest.mark.parametrize("fid, params, tol, n_max", [
    ("cantor1d", {}, 1e-9, 64),
    ("cantor2d", {}, 1e-9, 64),
    ("slide1d", {}, 1e-9, 64),
    ("exp1d", {}, 1e-9, 64),
    ("lip-pair", {}, 1e-6, 64),
    ("lip-pair", {"mode": "disjoint", "slopes": [2.0, -0.5]}, 1e-9, 64),
    ("arctanexp2d", {}, 1e-6, 24),  # no row converges
])
def test_sandwich_matches_the_cloud_linear_scan(fid, params, tol, n_max):
    # the two corners find the cloud's depths and diameters, and the engine agrees
    fam = make_family(fid, params=params)
    corners = _default_probe(fam)
    assert corners.shape[0] == 2
    ids = [0, 3, 17, 2**32 + 1]
    blocks = per_stream_table(fam.noise, 21, "noise", ids, [n_max])
    want_n, want_pts, want_diam = pullback_linear_scan(fam, blocks, probe_cloud(fam.probe_box()), tol, n_max)
    n, pts, diam = pullback_linear_scan(fam, blocks, corners, tol, n_max)
    assert np.array_equal(n, want_n)
    assert np.array_equal(diam, want_diam)
    got = pullback_batch(fam, 21, ids, corners, tol, n_max)
    assert np.array_equal(got.n_used, want_n)
    conv = want_n >= 0
    assert np.array_equal(got.points[conv], pts[conv])
    if fid == "arctanexp2d":
        assert not conv.any()
    elif fid != "exp1d":  # exp1d's saturated centroids differ by the rounding of a 34-point mean
        # the midpoint and the cloud centroid lie in one order interval of diameter <= tol
        assert (np.abs(pts - want_pts).sum(axis=1)[conv] <= tol).all()


def test_pullback_batch_evaluates_each_depth_once(cantor1d, monkeypatch):
    calls = []

    def counting(fam, blocks, depths, base_pts):
        calls.append(sorted(set(np.asarray(depths).tolist())))
        return image_points_at_depths(fam, blocks, depths, base_pts)

    monkeypatch.setattr("monosync.engine.image_points_at_depths", counting)
    probe = probe_cloud(cantor1d.probe_box())
    batch = pullback_batch(cantor1d, 5, range(64), probe, 1e-9, 4096)
    assert (batch.n_used == 19).all()
    # doubling to 32, then bisecting (16, 32] down to 19, with no depth repeated
    assert calls == [[16], [32], [24], [20], [18], [19]]


def test_forward_reverse_distributional_duality(cantor1d):
    n, replicas = 6, 2000
    fwd = np.empty(replicas)
    rev = np.empty(replicas)
    for r in range(replicas):
        block = sample_block(cantor1d.noise, 55, r, n)
        fwd[r] = forward_orbit(cantor1d, block, [0.3]).positions[-1, 0]
        rev[r] = reverse_orbit(cantor1d, block, [0.3]).positions[-1, 0]
    w = wasserstein1(
        EmpiricalMeasure.uniform(fwd[:, None]), EmpiricalMeasure.uniform(rev[:, None])
    ).distance
    assert w <= 3.0 / np.sqrt(replicas)


def test_orbit_csv(tmp_path, cantor1d):
    block = sample_block(cantor1d.noise, 1, 0, 5)
    tr = reverse_orbit(cantor1d, block, [0.5], probe_points=probe_cloud(cantor1d.probe_box()))
    path = tmp_path / "orbit.csv"
    tr.write_csv(path, seed=1)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# seed=1"
    assert lines[1].startswith("step,x_1,box_lo_1,box_hi_1")
    assert len(lines) == 2 + 6


# four maps of which two are never drawn, so every column lacks symbols 1 and 3
_SPARSE_AFFINE = {
    "probs": (0.0, 0.5, 0.0, 0.5),
    "params": {"mats": [[[0.5]], [[-0.5]], [[0.25]], [[-0.25]]],
               "offs": [[0.1], [0.2], [0.3], [0.4]]},
}


def _box_fn(alphas, pts):
    # both parameter columns act, so a parameter row paired with another row's points shows
    return np.stack([pts[:, 0] / 2 + alphas[:, 0], pts[:, 1] / 3 - alphas[:, 1] * pts[:, 0]], axis=1)


def _finite_fn(a, pts):
    assert isinstance(a, int)  # one int symbol per call, however the rows are batched
    return pts[:, ::-1] * [0.5, -0.25] + a


# 2-d custom families: box noise with a 2-d parameter, and three symbols
_CUSTOM_BOX = {"params": {"dim": 2, "fn": _box_fn}, "noise": BoxNoise(Box([0.0, -1.0], [1.0, 2.0]))}
_CUSTOM_FINITE = {"params": {"dim": 2, "fn": _finite_fn}, "probs": (0.2, 0.3, 0.5)}
_STEP_FAMILIES = {
    "affine-general": ("affine-general", _SPARSE_AFFINE),
    "custom-box": ("custom", _CUSTOM_BOX),
    "custom-finite": ("custom", _CUSTOM_FINITE),
}


@pytest.mark.parametrize(
    "fid", ["cantor2d", "slide1d", "exp1d", "affine-general", "custom-box", "custom-finite"]
)
@pytest.mark.parametrize("n_probe", [None, 5])
def test_step_matches_rowwise_apply_batch(fid, n_probe):
    name, kwargs = _STEP_FAMILIES.get(fid, (fid, {}))
    fam = make_family(name, **kwargs)
    gen = np.random.default_rng(11)
    n = 40
    shape = (n, fam.dim) if n_probe is None else (n, n_probe, fam.dim)
    # exp1d overflows past ~709, so the wide spread exercises saturation
    scale = 800.0 if fid == "exp1d" else 1.0
    pts = scale * gen.uniform(-1.0, 1.0, size=shape)
    alphas = _draw_noise(fam.noise, gen, (n,))
    want, want_sat = step_rowwise(fam, alphas, pts)
    got, got_sat = next(_chain(fam, alphas[:, None], pts.copy()))
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got_sat, want_sat)
    if fid == "exp1d":
        assert want_sat.any() and not want_sat.all()
    # the forward chain: one step per column of a table, advanced in place
    table = _draw_noise(fam.noise, gen, (n, 67))
    chained = pts.copy()
    want = pts
    for j, (got, got_sat) in enumerate(_chain(fam, table, chained)):
        want, want_sat = step_rowwise(fam, table[:, j], want)
        assert got is chained
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_sat, want_sat)
    assert j == table.shape[1] - 1


@pytest.mark.parametrize("fid, kwargs", [
    ("cantor2d", {}),
    ("slide1d", {}),
    ("exp1d", {}),
    ("affine-general", _SPARSE_AFFINE),
    # start points beyond the clamp: a row that has not started keeps its point
    ("cantor1d", {"clamp_bound": 0.5}),
    pytest.param("custom", _CUSTOM_BOX, id="custom-box"),
    pytest.param("custom", _CUSTOM_FINITE, id="custom-finite"),
    # 2-d matrices: each symbol's rows, taken deepest first, are one matrix product
    pytest.param("affine-general", {"params": {
        "mats": [[[0.4, 0.1], [0.1, 0.3]], [[0.3, -0.1], [-0.1, 0.4]], [[0.2, 0.3], [-0.5, 0.1]]],
        "offs": [[0.1, 0.2], [0.5, -0.3], [0.0, 0.7]],
    }}, id="affine-2d"),
])
@pytest.mark.parametrize("per_row_base", [False, True])
def test_image_points_match_reverse_rowwise(fid, kwargs, per_row_base):
    fam = make_family(fid, **kwargs)
    gen = np.random.default_rng(12)
    n, n_probe, length = 24, 5, 41
    blocks = _draw_noise(fam.noise, gen, (n, length))
    # ragged depths, with 0 and the full length
    depths = gen.integers(0, length + 1, n)
    depths[:3] = [0, length, length // 2]
    scale = 800.0 if fid == "exp1d" else 1.0
    shape = (n, n_probe, fam.dim) if per_row_base else (n_probe, fam.dim)
    base = scale * gen.uniform(-1.0, 1.0, size=shape)
    want, want_sat = reverse_rowwise(fam, blocks, depths, base)
    got, got_sat = image_points_at_depths(fam, blocks, depths, base)
    assert got.tobytes() == want.tobytes()
    assert got_sat.tobytes() == want_sat.tobytes()
    if fid in ("exp1d", "cantor1d"):
        assert want_sat.any() and not want_sat.all()


def test_image_points_reject_depth_beyond_block(cantor1d):
    blocks = sample_block(cantor1d.noise, 1, 0, 5).values[None]
    with pytest.raises(UsageError):
        image_points_at_depths(cantor1d, blocks, np.array([6]), np.zeros((2, 1)))


@pytest.mark.parametrize(
    "probs", [(0.5, 0.5), (0.2, 0.3, 0.5), (0.5, 0.5 - 5e-13), (1.0,), (0.0, 0.5, 0.0, 0.5)]
)
def test_finite_draw_matches_cumulative_oracle(probs):
    noise = FiniteNoise(probs)
    vals = _draw_noise(noise, stream_generator(3, "draw"), (50, 40))
    u = stream_generator(3, "draw").random((50, 40))
    want = np.vectorize(lambda x: finite_symbol(x, noise.probs))(u)
    assert vals.dtype == np.int64 and np.array_equal(vals, want)


def test_finite_draw_short_mass_never_exceeds_q():
    noise = FiniteNoise((0.5, 0.5 - 5e-13))  # accepted: within the sum tolerance
    u = np.array([0.0, 0.5, 1.0 - 5e-13, 1.0 - 1e-13, np.nextafter(1.0, 0.0)])
    assert _noise_values(noise, u).tolist() == [1, 2, 2, 2, 2]


def test_box_draw_matches_affine_oracle():
    fam = make_family("slide1d")
    vals = _draw_noise(fam.noise, stream_generator(4, "draw"), (7, 3))
    u = stream_generator(4, "draw").random((7, 3, 1))
    box = fam.noise.box
    assert vals.shape == (7, 3, 1)
    assert vals.tobytes() == (box.lo + u * (box.hi - box.lo)).tobytes()


def test_block_table_first_fill_does_not_copy(cantor1d):
    table = _BlockTable(cantor1d.noise, 0, "mem", range(64))
    tracemalloc.start()
    try:
        table.ensure(20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.values.nbytes
    deeper = _BlockTable(cantor1d.noise, 0, "mem", range(64))
    deeper.ensure(7_000)
    deeper.ensure(20_000)
    assert np.array_equal(deeper.values, table.values)
