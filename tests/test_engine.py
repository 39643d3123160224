import tracemalloc

import numpy as np
import pytest

from monosync import (
    Box,
    EmpiricalMeasure,
    forward_orbit,
    image_box,
    make_family,
    noise_at,
    probe_cloud,
    reverse_orbit,
    sample_block,
    wasserstein1,
)
from monosync.engine import (
    _FILL_WORDS,
    _PILOT,
    _BlockTable,
    _chain,
    _noise_values,
    _probe_nests,
    _stream_values,
    image_points_at_depths,
    pullback_batch,
)
from monosync.errors import UsageError
from monosync.families import BoxNoise, FiniteNoise, _default_probe
from oracles import (
    per_stream_table,
    pullback_linear_scan,
    reverse_rowwise,
    single_stream,
    step_rowwise,
)


def _draw(noise, gen, shape):
    """i.i.d. noise values of ``shape`` from ``gen``: box parameters carry a trailing axis of the box dimension."""
    width = () if isinstance(noise, FiniteNoise) else (noise.dim,)
    return _noise_values(noise, gen.random(shape + width))


def test_degenerate_law_block():
    noise = FiniteNoise((1.0, 0.0))
    block = sample_block(noise, 123, 0, 5)
    assert np.array_equal(block, [1, 1, 1, 1, 1])


def test_block_determinism(cantor1d):
    b1 = sample_block(cantor1d.noise, 99, 4, 64)
    b2 = sample_block(cantor1d.noise, 99, 4, 64)
    assert np.array_equal(b1, b2)
    b3 = sample_block(cantor1d.noise, 99, 5, 64)
    assert not np.array_equal(b1, b3)


def test_block_prefix_extension(cantor1d):
    short = sample_block(cantor1d.noise, 7, 0, 10)
    long = sample_block(cantor1d.noise, 7, 0, 50)
    assert np.array_equal(long[:10], short)


def test_counter_addressing_matches_sequential(cantor1d):
    block = sample_block(cantor1d.noise, 31, 2, 20)
    direct = [noise_at(cantor1d.noise, 31, 2, j) for j in range(20)]
    assert np.array_equal(block, direct)


def test_counter_addressing_box_noise():
    fam = make_family("slide1d")
    block = sample_block(fam.noise, 8, 1, 12)
    for j in (0, 3, 11):
        assert np.allclose(noise_at(fam.noise, 8, 1, j), block[j])


def test_symbol_frequency(cantor1d):
    block = sample_block(cantor1d.noise, 2024, 0, 100_000)
    freq = float((block == 1).mean())
    assert abs(freq - 0.5) < 0.01


def test_forward_orbit_examples(cantor1d):
    tr = forward_orbit(cantor1d, np.array([1, 1]), [1.0])
    assert np.allclose(tr.positions.ravel(), [1.0, 1 / 3, 1 / 9])
    x0 = np.array([0.0])
    tr2 = forward_orbit(cantor1d, np.array([2, 1]), x0)
    assert np.allclose(tr2.positions.ravel(), [0.0, 2 / 3, 2 / 9])
    assert x0[0] == 0.0  # the start point is not advanced in place
    lip = make_family("lip-pair")
    tr3 = forward_orbit(lip, np.array([1]), [1.0])
    assert tr3.positions[-1, 0] == pytest.approx(2.0)


def test_reverse_orbit_examples(cantor1d):
    tr = reverse_orbit(cantor1d, np.array([1, 2]), [0.0])
    assert np.allclose(tr.positions.ravel(), [0.0, 0.0, 2 / 9])
    # single-step reverse equals forward
    blk = np.array([2])
    f = forward_orbit(cantor1d, blk, [0.25]).positions[-1]
    r = reverse_orbit(cantor1d, blk, [0.25]).positions[-1]
    assert np.allclose(f, r)


def test_reverse_boxes_nested(cantor1d):
    probe = probe_cloud(cantor1d.probe_box())
    block = sample_block(cantor1d.noise, 17, 0, 15)
    tr = reverse_orbit(cantor1d, block, [0.5], probe_points=probe)
    assert tr.box_lo.shape == tr.box_hi.shape == (16, 1)
    assert (tr.box_lo[1:] >= tr.box_lo[:-1] - 1e-12).all()
    assert (tr.box_hi[1:] <= tr.box_hi[:-1] + 1e-12).all()


def test_reverse_orbit_holds_its_block_once(cantor1d):
    # every prefix reads one broadcast view of the reversed block, not n + 1 copies of it
    block = sample_block(cantor1d.noise, 17, 0, 4000)
    tracemalloc.start()
    try:
        tr = reverse_orbit(cantor1d, block, [0.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.positions.shape == (4001, 1)
    assert peak < 2 * 2**20


def test_pullback_depth_matches_contraction(cantor1d):
    probe = probe_cloud(cantor1d.probe_box())
    batch = pullback_batch(cantor1d, 7, [0], probe, 1e-9, 4096)
    assert batch.converged[0]
    assert batch.n_used[0] == 19  # smallest n with 3^-n <= 1e-9
    assert 0.0 <= batch.points[0, 0] <= 1.0


def test_pullback_probe_already_within_tol(cantor1d):
    # a probe of diameter 0 needs no map: depth 0, the probe's mean, for every stream
    batch = pullback_batch(cantor1d, 3, range(4), np.array([[0.3], [0.3]]), 1e-9, 64)
    assert batch.n_used.tolist() == [0] * 4
    assert batch.points.tolist() == [[0.3]] * 4
    assert batch.diam.tolist() == [0.0] * 4
    assert batch.converged.all() and not batch.saturated.any()


def test_pullback_const_family(const_family):
    probe = probe_cloud(const_family.probe_box())
    batch = pullback_batch(const_family, 5, [0], probe, 1e-9, 4096)
    assert batch.converged[0]
    assert batch.n_used[0] == 1
    assert batch.points[0, 0] == pytest.approx(0.7, abs=1e-12)


def test_pullback_exp_sign(exp1d):
    probe = probe_cloud(exp1d.probe_box())
    batch = pullback_batch(exp1d, 41, range(20), probe, 1e-9, 512)
    assert batch.converged.all()
    # the outermost map decides the sign of the limit
    for sid in range(20):
        first = noise_at(exp1d.noise, 41, sid, 0)
        assert (batch.points[sid, 0] > 0) == (first == 1)


def test_pullback_probe_independence(cantor1d):
    p1 = np.array([[0.0], [1.0], [0.25]])
    p2 = np.array([[0.4], [0.6]])
    tol = 1e-10
    a = pullback_batch(cantor1d, 9, [3], p1, tol, 4096)
    b = pullback_batch(cantor1d, 9, [3], p2, tol, 4096)
    assert a.converged[0] and b.converged[0]
    assert abs(a.points[0, 0] - b.points[0, 0]) <= 2 * tol


def test_pullback_not_converged(rot2d):
    probe = probe_cloud(rot2d.probe_box())
    batch = pullback_batch(rot2d, 3, [0], probe, 1e-6, 64)
    assert not batch.converged[0]
    assert batch.n_used[0] == -1
    assert batch.diam[0] > 1e-6


def test_pullback_saturated_is_the_flag_at_the_returned_depth(exp1d):
    # a row's flag describes the image it returns, not every depth its search visited
    probe = _default_probe(exp1d)
    batch = pullback_batch(exp1d, 90210, range(512), probe, 1e-9, 4096)
    depths = np.where(batch.converged, batch.n_used, 4096)
    table = _BlockTable(exp1d.noise, 90210, "noise", range(512))
    table.ensure(int(depths.max()))
    _, sat = image_points_at_depths(exp1d, table.values, depths, probe)
    assert sat.any() and not sat.all()
    assert np.array_equal(batch.saturated, sat)


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
    blocks = per_stream_table(fam.noise, 21, "noise", ids, n_max)
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
    blocks = per_stream_table(fam.noise, 21, "noise", ids, n_max)
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


def _record_image_calls(monkeypatch):
    """Patch the engine's kernel to record each call's (row count, sorted distinct depths)."""
    calls = []

    def counting(fam, blocks, depths, base_pts):
        calls.append((len(depths), sorted(set(np.asarray(depths).tolist()))))
        return image_points_at_depths(fam, blocks, depths, base_pts)

    monkeypatch.setattr("monosync.engine.image_points_at_depths", counting)
    return calls


def test_pullback_batch_rest_starts_at_the_pilot_depth(cantor1d, monkeypatch):
    calls = _record_image_calls(monkeypatch)
    batch = pullback_batch(cantor1d, 5, range(_PILOT + 64), _default_probe(cantor1d), 1e-9, 4096)
    assert (batch.n_used == 19).all()
    # _probe_nests images the corners under each of the q = 2 maps; the pilot
    # searches as a batch of its own would, then the other 64 rows are imaged
    # at 18 and 19 (stacked, 128 rows) and all close there
    pilot = [(_PILOT, [16]), (_PILOT, [32]), (_PILOT, [24]), (_PILOT, [20]), (_PILOT, [18]), (_PILOT, [19])]
    assert calls == [(2, [1])] + pilot + [(128, [18, 19])]


# Maps x -> A x + c with contraction 0.6 and 0.15 (sup norm): nested in the
# probe box [-1, 1]^2, with depths from 11 to 26 at tol 1e-9 (4096 rows,
# seed 21), so rows after the pilot miss the guess both ways.
_NESTED_AFFINE = {
    "mats": [[[0.5, 0.1], [0.1, 0.4]], [[0.1, 0.0], [0.05, 0.1]]],
    "offs": [[0.2, -0.1], [-0.3, 0.4]],
}


@pytest.mark.parametrize("fid, params", [
    ("cantor1d", {}),
    ("cantor2d", {}),
    ("affine-general", _NESTED_AFFINE),
])
def test_pullback_batch_guess_matches_linear_scan(fid, params, monkeypatch):
    fam = make_family(fid, params=params)
    probe = _default_probe(fam)
    assert _probe_nests(fam, probe)
    tol, n_max = 1e-9, 64
    ids = list(range(_PILOT + 40)) + [2**32 + 1, 2**63 + 5]
    blocks = per_stream_table(fam.noise, 21, "noise", ids, n_max)
    want_n, want_pts, want_diam = pullback_linear_scan(fam, blocks, probe, tol, n_max)
    got = pullback_batch(fam, 21, ids, probe, tol, n_max)
    assert np.array_equal(got.n_used, want_n)
    assert np.array_equal(got.diam, want_diam)
    assert np.array_equal(got.converged, want_n >= 0)
    assert not got.saturated.any()  # nested images never saturate
    conv = want_n >= 0
    assert np.allclose(got.points[conv], want_pts[conv], rtol=0, atol=1e-12)
    if fid == "affine-general":  # rows bisect below the guess (g - 1, g] and double above it
        g = int(np.median(want_n[:_PILOT]))
        assert (want_n[_PILOT:] < g - 1).any() and (want_n[_PILOT:] > g).any()
    # and bit for bit what the search from depth 16 on every row gives
    monkeypatch.setattr("monosync.engine._PILOT", len(ids))
    plain = pullback_batch(fam, 21, ids, probe, tol, n_max)
    for field in ("points", "n_used", "diam", "converged", "saturated"):
        assert np.array_equal(getattr(got, field), getattr(plain, field)), field


def _off_order_corners(fam):
    # the box's lo and hi corners, ordered neither way in cantor2d's order (+, -)
    box = fam.probe_box()
    return np.array([box.lo, box.hi])


@pytest.mark.parametrize("fid, probe_of", [
    ("exp1d", _default_probe),  # the maps leave the stand-in probe box
    ("lip-pair", _default_probe),  # slope 2 leaves it too
    ("cantor1d", lambda fam: probe_cloud(fam.probe_box())),  # not a two-corner sandwich
    ("cantor2d", _off_order_corners),
    ("slide1d", _default_probe),  # box noise
])
def test_pullback_batch_without_nesting_starts_every_row_at_16(fid, probe_of, monkeypatch):
    fam = make_family(fid)
    probe = probe_of(fam)
    assert not _probe_nests(fam, probe)
    calls = _record_image_calls(monkeypatch)
    pullback_batch(fam, 3, range(_PILOT + 64), probe, 1e-6, 64)
    # a declared sandwich of finite noise is imaged under the q maps before _probe_nests says no
    checks = [(fam.noise.q, [1])] if fid in ("exp1d", "lip-pair") else []
    assert calls[:len(checks) + 1] == checks + [(_PILOT + 64, [16])]
    assert all(rows <= _PILOT + 64 for rows, _ in calls)


def test_probe_nests_needs_unsaturated_images(cantor1d):
    probe = _default_probe(cantor1d)
    assert _probe_nests(cantor1d, probe)
    assert _probe_nests(cantor1d, probe[::-1])  # the corners in either order
    assert not _probe_nests(make_family("cantor1d", clamp_bound=0.5), probe)


def test_nan_thresholds_are_usage_errors(cantor1d):
    probe = _default_probe(cantor1d)
    with pytest.raises(UsageError):
        pullback_batch(cantor1d, 1, range(4), probe, float("nan"), 64)
    with pytest.raises(UsageError):
        make_family("cantor1d", clamp_bound=float("nan"))


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
    alphas = _draw(fam.noise, gen, (n,))
    want, want_sat = step_rowwise(fam, alphas, pts)
    got_sat = np.zeros(n, dtype=bool)
    got = next(_chain(fam, alphas[:, None], pts.copy(), got_sat))
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got_sat, want_sat)
    if fid == "exp1d":
        assert want_sat.any() and not want_sat.all()
    # the forward chain: one step per column of a table, advanced in place; after step j
    # the caller's flags are its initial flags OR the rowwise flags of steps 1..j
    table = _draw(fam.noise, gen, (n, 67))
    chained = pts.copy()
    want = pts
    want_acc = np.arange(n) % 5 == 0
    got_sat = want_acc.copy()
    for j, got in enumerate(_chain(fam, table, chained, got_sat)):
        want, want_sat = step_rowwise(fam, table[:, j], want)
        want_acc |= want_sat
        assert got is chained
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_sat, want_acc)
    assert j == table.shape[1] - 1


@pytest.mark.parametrize("start", [None, np.array([0, 1, 3])])
def test_chain_keeps_the_flags_it_is_given(cantor1d, start):
    # no image leaves [0, 1], so only the flags set before the chain are set after each step,
    # also on a row that never joins the chain
    pts = np.array([[0.2], [0.7], [0.4]])
    sat = np.array([True, False, True])
    steps = 0
    for _ in _chain(cantor1d, np.array([[1, 2, 1]] * 3, dtype=np.uint8), pts, sat, start=start):
        assert sat.tolist() == [True, False, True]
        steps += 1
    assert steps == 3


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
def test_image_points_match_reverse_rowwise(fid, kwargs):
    fam = make_family(fid, **kwargs)
    gen = np.random.default_rng(12)
    n, n_probe, length = 24, 5, 41
    blocks = _draw(fam.noise, gen, (n, length))
    # ragged depths, with 0 and the full length
    depths = gen.integers(0, length + 1, n)
    depths[:3] = [0, length, length // 2]
    scale = 800.0 if fid == "exp1d" else 1.0
    base = scale * gen.uniform(-1.0, 1.0, size=(n_probe, fam.dim))
    want, want_sat = reverse_rowwise(fam, blocks, depths, base)
    got, got_sat = image_points_at_depths(fam, blocks, depths, base)
    assert got.tobytes() == want.tobytes()
    assert got_sat.tobytes() == want_sat.tobytes()
    if fid in ("exp1d", "cantor1d"):
        assert want_sat.any() and not want_sat.all()


@pytest.mark.parametrize("fid", ["cantor2d", "slide1d", "exp1d", "rot2d"])
def test_image_box_is_the_hull_of_the_apply_batch_loop(fid):
    # one image_points_at_depths call per depth, bitwise the hulls and flags of the per-map loop
    fam = make_family(fid)
    blocks = np.stack([sample_block(fam.noise, 4, r, 9) for r in range(6)])
    probe = probe_cloud(fam.probe_box())
    for depth in (0, 1, 5):
        want, want_sat = reverse_rowwise(fam, blocks, [depth] * len(blocks), probe)
        for given in (blocks, blocks.tolist()):
            lo, hi, sat = image_box(fam, given, depth, probe)
            assert lo.tobytes() == want.min(axis=1).tobytes()
            assert hi.tobytes() == want.max(axis=1).tobytes()
            assert sat.tobytes() == want_sat.tobytes()


def test_image_box_flags_exactly_the_saturated_rows():
    # map 2 sends [0, 1] onto [2/3, 1], past the clamp at 0.5; map 1 onto [0, 1/3]
    fam = make_family("cantor1d", clamp_bound=0.5)
    lo, hi, sat = image_box(fam, [[1], [2]], 1, _default_probe(fam))
    assert sat.tolist() == [False, True]
    assert lo.shape == hi.shape == (2, 1)


def test_image_box_rejects_bad_probes_and_depths(cantor1d):
    blocks = sample_block(cantor1d.noise, 1, 0, 5)[None]
    with pytest.raises(UsageError):
        image_box(cantor1d, blocks, 1, np.empty((0, 1)))
    with pytest.raises(UsageError):
        image_box(cantor1d, blocks, -1, np.zeros((2, 1)))
    with pytest.raises(UsageError):
        image_box(cantor1d, blocks, 6, np.zeros((2, 1)))


def test_image_points_reject_depth_beyond_block(cantor1d):
    blocks = sample_block(cantor1d.noise, 1, 0, 5)[None]
    with pytest.raises(UsageError):
        image_points_at_depths(cantor1d, blocks, np.array([6]), np.zeros((2, 1)))


@pytest.mark.parametrize("n_rows", [2, 5])
def test_image_points_take_one_block_row_or_one_per_depth(cantor1d, n_rows):
    blocks = np.stack([sample_block(cantor1d.noise, 1, i, 4) for i in range(n_rows)])
    depths = np.array([1, 2, 3])
    with pytest.raises(UsageError, match="one row or one per depth"):
        image_points_at_depths(cantor1d, blocks, depths, np.zeros((2, 1)))
    shared, _ = image_points_at_depths(cantor1d, blocks[:1], depths, np.zeros((2, 1)))
    each, _ = image_points_at_depths(cantor1d, blocks[[0, 0, 0]], depths, np.zeros((2, 1)))
    assert shared.tobytes() == each.tobytes()


@pytest.mark.parametrize(
    "probs", [(0.5, 0.5), (0.2, 0.3, 0.5), (0.5, 0.5 - 5e-13), (1.0,), (0.0, 0.5, 0.0, 0.5)]
)
def test_finite_draw_matches_cumulative_oracle(probs):
    noise = FiniteNoise(probs)
    vals = _stream_values(noise, (50, 40), 3, "draw")
    want = single_stream(noise, 3, ["draw"], 50 * 40).reshape(50, 40)
    assert vals.dtype == np.uint8 and np.array_equal(vals, want)


def test_finite_draw_short_mass_never_exceeds_q():
    noise = FiniteNoise((0.5, 0.5 - 5e-13))  # accepted: within the sum tolerance
    u = np.array([0.0, 0.5, 1.0 - 5e-13, 1.0 - 1e-13, np.nextafter(1.0, 0.0)])
    assert _noise_values(noise, u).tolist() == [1, 2, 2, 2, 2]


def test_box_draw_matches_affine_oracle():
    fam = make_family("slide1d")
    vals = _stream_values(fam.noise, (7, 3), 4, "draw")
    assert vals.shape == (7, 3, 1)
    assert vals.tobytes() == single_stream(fam.noise, 4, ["draw"], 21).reshape(7, 3, 1).tobytes()


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


def test_block_table_short_fill_peak_does_not_grow_with_rows(cantor1d):
    # The fill draws about _FILL_WORDS uniforms per chunk, so beyond the
    # table its peak is one chunk's temporaries, a few words per uniform.
    # Drawing all 8192 x 16 uniforms at once would take 1 MB of them.
    table = _BlockTable(cantor1d.noise, 0, "mem", range(8192))
    tracemalloc.start()
    try:
        table.ensure(16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= table.values.nbytes + 32 * 8 * _FILL_WORDS
