import warnings

import numpy as np
import pytest
from scipy.stats import wasserstein_distance as scipy_w1

import oracles
from monosync import (
    EmpiricalMeasure,
    UsageError,
    make_family,
    markov_step,
    pullback_sample,
    push_forward,
    w1_decay_curve,
    wasserstein1,
)
from monosync.streams import derive_seed
from monosync.transport import (
    _calibrate_floor,
    _sliced_directions,
    _w1_exact_matching,
    _w1_quantile_coupling,
)


def u(points):
    return EmpiricalMeasure.uniform(np.asarray(points, dtype=float).reshape(len(points), -1))


def test_w1_identity_and_diracs():
    a = u([0.1, 0.5, 0.9])
    assert wasserstein1(a, a).distance == 0.0
    assert wasserstein1(u([0.0]), u([1.0])).distance == pytest.approx(1.0)


def test_w1_shift_example():
    a = u([0.0, 0.5, 1.0])
    b = u([0.1, 0.6, 1.1])
    rep = wasserstein1(a, b)
    assert rep.method == "sorted-1d"
    assert rep.distance == pytest.approx(0.1, abs=1e-15)
    assert rep.distance == pytest.approx(oracles.w1_bruteforce_1d([0, 0.5, 1], [0.1, 0.6, 1.1]))


def test_w1_sorted_matches_bruteforce():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        got = wasserstein1(u(x), u(y)).distance
        assert got == pytest.approx(oracles.w1_bruteforce_1d(x, y), abs=1e-12)


def test_w1_weighted_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n1, n2 = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        x = rng.normal(size=n1)
        y = rng.normal(size=n2)
        w1 = rng.random(n1) + 0.01
        w2 = rng.random(n2) + 0.01
        m1 = EmpiricalMeasure(x[:, None], w1 / w1.sum())
        m2 = EmpiricalMeasure(y[:, None], w2 / w2.sum())
        got = wasserstein1(m1, m2).distance
        assert got == pytest.approx(scipy_w1(x, y, w1, w2), abs=1e-10)


def test_w1_sorted_equals_exact_matching_in_1d():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        a = EmpiricalMeasure.uniform(rng.normal(size=(n, 1)))
        b = EmpiricalMeasure.uniform(rng.normal(size=(n, 1)))
        assert wasserstein1(a, b).distance == pytest.approx(
            _w1_exact_matching(a, b), abs=1e-12
        )


def test_w1_matching_matches_bruteforce_2d():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(n, 2))
        rep = wasserstein1(EmpiricalMeasure.uniform(a), EmpiricalMeasure.uniform(b))
        assert rep.method == "exact-matching"
        assert rep.distance == pytest.approx(oracles.w1_bruteforce_matching(a, b), abs=1e-12)


def test_w1_metric_axioms():
    rng = np.random.default_rng(6)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        a = EmpiricalMeasure.uniform(rng.normal(size=(n, 1)))
        b = EmpiricalMeasure.uniform(rng.normal(size=(n, 1)))
        c = EmpiricalMeasure.uniform(rng.normal(size=(n, 1)))
        dab = wasserstein1(a, b).distance
        dba = wasserstein1(b, a).distance
        dac = wasserstein1(a, c).distance
        dcb = wasserstein1(c, b).distance
        assert dab == dba
        assert dab <= dac + dcb + 1e-9
        assert wasserstein1(a, a).distance == 0.0


def test_w1_method_selection_and_mismatch():
    rng = np.random.default_rng(7)
    big = EmpiricalMeasure.uniform(rng.normal(size=(600, 2)))
    big2 = EmpiricalMeasure.uniform(rng.normal(size=(600, 2)))
    rep = wasserstein1(big, big2)
    assert rep.method == "sliced" and rep.n_projections == 128
    small = EmpiricalMeasure.uniform(rng.normal(size=(10, 2)))
    other = EmpiricalMeasure.uniform(rng.normal(size=(12, 2)))
    with pytest.raises(UsageError):
        wasserstein1(small, other)
    with pytest.raises(UsageError):
        wasserstein1(small, EmpiricalMeasure.uniform(rng.normal(size=(10, 1))))


def test_sliced_w1_reasonable_on_shift():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(900, 2))
    shift = pts + np.array([1.0, 0.0])
    rep = wasserstein1(EmpiricalMeasure.uniform(pts), EmpiricalMeasure.uniform(shift))
    # sliced W1 of a pure shift is E|<e1, theta>| = 2/pi times the shift
    assert rep.distance == pytest.approx(2 / np.pi, rel=0.1)


def _sliced_matches_loop(a, b):
    rep = wasserstein1(a, b)
    assert rep.method == "sliced"
    dirs = _sliced_directions(a.dim, rep.n_projections)
    loop = oracles.w1_sliced_loop(a.points, a.weights, b.points, b.weights, dirs)
    assert rep.distance == loop  # bit for bit, no tolerance


@pytest.mark.parametrize("n1, n2, dim", [(600, 600, 2), (700, 700, 3), (600, 1000, 2)])
def test_sliced_w1_equals_per_direction_loop(n1, n2, dim):
    # far from the origin, a projection rounded differently from the
    # per-direction ``points @ d`` (a batched matmul, say) shows in the total
    rng = np.random.default_rng(n1 + n2 + dim)
    a = EmpiricalMeasure.uniform(rng.normal(size=(n1, dim)) + 1000.0)
    b = EmpiricalMeasure.uniform(rng.normal(size=(n2, dim)) + 1000.3)
    _sliced_matches_loop(a, b)


def test_sliced_w1_equals_loop_with_ties_and_signed_zeros():
    # repeated points tie in every projection, so a stable argsort and an
    # in-place sort may order them differently; points with -0.0 and 0.0
    # coordinates project to zeros of either sign where the dot product
    # keeps the sign of an all-(-0.0) sum (a gemv that starts from +0.0, as
    # OpenBLAS does, makes all of them +0.0)
    rng = np.random.default_rng(41)
    grid = rng.integers(-2, 3, size=(700, 2)).astype(float)
    grid[:50] = [-0.0, -0.0]
    grid[50:100] = [0.0, -0.0]
    grid[100:150] = [-0.0, 0.0]
    other = np.concatenate([grid[::2], rng.integers(-2, 3, size=(300, 2)).astype(float)])
    a, b = EmpiricalMeasure.uniform(grid), EmpiricalMeasure.uniform(other)
    assert np.unique(a.points, axis=0).shape[0] < a.n
    _sliced_matches_loop(a, b)
    _sliced_matches_loop(b, a)


def test_sliced_w1_unequal_weights_keep_general_path():
    fam = make_family("cantor2d", probs=(0.3, 0.7))
    rng = np.random.default_rng(43)
    mu = markov_step(fam, EmpiricalMeasure.uniform(rng.random((300, 2))))
    assert mu.n == 600 and not np.all(mu.weights == mu.weights[0])
    ref = EmpiricalMeasure.uniform(rng.random((800, 2)))
    _sliced_matches_loop(mu, ref)
    _sliced_matches_loop(ref, mu)


@pytest.mark.parametrize("n1, n2", [(600, 600), (513, 900)])
def test_sliced_w1_metric_axioms(n1, n2):
    rng = np.random.default_rng(n1 * n2)
    a = EmpiricalMeasure.uniform(rng.normal(size=(n1, 2)))
    b = EmpiricalMeasure.uniform(rng.normal(size=(n2, 2)))
    assert wasserstein1(a, b).method == "sliced"
    assert wasserstein1(a, b).distance == wasserstein1(b, a).distance
    assert wasserstein1(a, a).distance == 0.0
    assert wasserstein1(b, b).distance == 0.0


def test_empirical_measure_validation():
    with pytest.raises(UsageError):
        EmpiricalMeasure(np.zeros((3, 1)), np.array([0.5, 0.5]))
    with pytest.raises(UsageError):
        EmpiricalMeasure(np.zeros((2, 1)), np.array([0.7, 0.7]))
    with pytest.raises(UsageError):
        EmpiricalMeasure(np.array([[np.inf]]), np.array([1.0]))


def test_measure_csv_roundtrip(tmp_path):
    m = EmpiricalMeasure(np.array([[0.1, -0.2], [0.3, 0.4]]), np.array([0.25, 0.75]))
    path = tmp_path / "m.csv"
    m.write_csv(path, seed=5)
    back = EmpiricalMeasure.read_csv(path)
    assert np.allclose(back.points, m.points)
    assert np.allclose(back.weights, m.weights)


def test_push_forward_identity_and_const(cantor1d, const_family):
    mu = u([0.1, 0.2, 0.9])
    same = push_forward(cantor1d, mu, 0, seed=1)
    assert np.array_equal(same.points, mu.points)
    out = push_forward(const_family, mu, 1, seed=1)
    assert np.allclose(out.points, 0.7)


def test_push_forward_one_step_law(cantor1d):
    mu = EmpiricalMeasure.dirac([0.0], n_points=20_000)
    out = push_forward(cantor1d, mu, 1, seed=42)
    vals = out.points[:, 0]
    assert set(np.round(np.unique(vals), 12)) <= {0.0, round(2 / 3, 12)}
    frac = float((vals == 0.0).mean())
    assert abs(frac - 0.5) <= 3 * 0.5 / np.sqrt(len(vals))


def test_pullback_sample_moments(cantor1d, cantor2d):
    mu = pullback_sample(cantor1d, 21, 20_000, tol=1e-9)
    se_mean = np.sqrt(oracles.CANTOR_VAR / mu.n)
    assert abs(mu.mean()[0] - oracles.CANTOR_MEAN) <= 4 * se_mean
    assert abs(mu.var()[0] - oracles.CANTOR_VAR) <= 0.005

    mu2 = pullback_sample(cantor2d, 22, 10_000, tol=1e-9)
    assert np.allclose(mu2.mean(), [0.5, -0.5], atol=0.01)


def test_var_of_saturated_points_is_inf_without_warning():
    # the true variance, about 1e600, is beyond float64
    mu = u([1e300, -1e300, 1e300, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        var = mu.var()
    assert var.tolist() == [np.inf]


def test_pullback_sample_fails_on_nonconvergent_family():
    from monosync import NotConvergedError

    rot = make_family("rot2d")  # isometries: probe images never shrink
    with pytest.raises(NotConvergedError):
        pullback_sample(rot, 1, 64, tol=1e-6, n_max=64)


def test_pullback_sample_exp_sign_frequency(exp1d):
    mu = pullback_sample(exp1d, 23, 4000, tol=1e-9, n_max=512)
    frac_neg = float((mu.points[:, 0] < 0).mean())
    assert abs(frac_neg - 0.5) <= 3 * 0.5 / np.sqrt(mu.n)


def test_pullback_sample_counts_saturated_samples(cantor1d, exp1d):
    assert pullback_sample(cantor1d, 5, 256).meta["n_saturated"] == 0
    mu = pullback_sample(exp1d, 90210, 256)
    # every kept sample pinned at the clamp bound saturated on its way there
    pinned = int(np.count_nonzero(np.abs(mu.points[:, 0]) >= exp1d.clamp_bound))
    assert 0 < pinned <= mu.meta["n_saturated"] <= mu.n
    assert mu.meta["saturated"]


def test_stationarity_fixed_point(cantor1d):
    n = 2048
    mu = pullback_sample(cantor1d, 31, n, tol=1e-9)
    floors = []
    for k in range(3):
        a = pullback_sample(cantor1d, derive_seed(31, f"fa{k}"), n, tol=1e-9)
        b = pullback_sample(cantor1d, derive_seed(31, f"fb{k}"), n, tol=1e-9)
        floors.append(wasserstein1(a, b).distance)
    floor = float(np.mean(floors))
    moved = push_forward(cantor1d, mu, 1, seed=77)
    assert wasserstein1(moved, mu).distance <= 2 * floor


def test_w1_decay_from_dirac(cantor1d):
    curve = w1_decay_curve(
        cantor1d, EmpiricalMeasure.dirac([0.0]), n_max=8, n_particles=8192, seed=13, ref_size=8192
    )
    assert curve.fit is not None
    assert 0.28 <= curve.fit.r_hat <= 0.40
    assert curve.fit.r_squared >= 0.9
    # W1(T^n delta_0, stationary) = 0.5 * 3^-n; check the first points closely
    assert curve.w1[0] == pytest.approx(0.5, abs=0.02)
    assert curve.w1[1] == pytest.approx(1 / 6, abs=0.02)


def test_w1_decay_from_stationarity_stays_at_floor(cantor1d):
    mu = pullback_sample(cantor1d, 41, 4096, tol=1e-9)
    curve = w1_decay_curve(cantor1d, mu, n_max=6, n_particles=4096, seed=41, ref_size=4096)
    # starting at stationarity there is no decay to fit, just noise
    assert np.all(curve.w1 <= 5 * curve.floor)


def test_w1_decay_constant_family(const_family):
    curve = w1_decay_curve(
        const_family, EmpiricalMeasure.dirac([0.0]), n_max=4, n_particles=512, seed=2, ref_size=512
    )
    assert np.all(curve.w1[1:] <= 1e-12)


def test_floor_calibration_tracks_sample_size(cantor1d):
    ref = pullback_sample(cantor1d, 51, 8192, tol=1e-9)
    f_small = _calibrate_floor(ref, 1024, seed=1)
    f_big = _calibrate_floor(ref, 8192, seed=1)
    assert f_small > f_big > 0


def test_quantile_coupling_handles_duplicate_weights():
    x = np.array([0.0, 0.0, 1.0])
    w = np.array([0.25, 0.25, 0.5])
    y = np.array([0.5])
    wy = np.array([1.0])
    # mass 1/2 at 0 moves by 1/2, mass 1/2 at 1 moves by 1/2
    assert _w1_quantile_coupling(x, w, y, wy) == pytest.approx(0.5)
