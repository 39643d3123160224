import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from monosync import (
    Box,
    EmpiricalMeasure,
    NoDecayError,
    NonPositiveSigmaError,
    UsageError,
    fclt_tests,
    make_family,
    make_observable,
    partial_sum_paths,
    poisson_solve,
    pullback_sample,
    run_clt_analysis,
    sigma_estimate,
    transfer_apply,
)
from monosync import clt, engine
from monosync.clt import Observable, affine_moments, stationary_mean
from monosync.families import _jsonable


@pytest.fixture(scope="module")
def cantor_mu():
    return pullback_sample(make_family("cantor1d"), 101, 4096, tol=1e-9)


def _first_coordinate(pts):
    return np.atleast_2d(pts)[:, 0]


def centered_coord(center=0.5):
    return Observable(_first_coordinate, (np.ones(1), 0.0), center)


def test_transfer_exact_enumeration_affine(cantor1d, cantor_mu):
    # P phi = phi / 3 exactly for phi(x) = x - 1/2 under the two-map average
    grid = cantor_mu.points[:256]
    phi = centered_coord(0.5)
    out, n_saturated = transfer_apply(cantor1d, phi, grid)
    assert np.allclose(out, phi(grid) / 3.0, atol=1e-15)
    assert n_saturated == 0


def test_transfer_fixes_constants(cantor1d, cantor_mu):
    grid = cantor_mu.points[:64]
    out, _ = transfer_apply(cantor1d, lambda p: np.full(p.shape[0], 3.14), grid)
    assert np.allclose(out, 3.14, atol=1e-15)


def test_transfer_monte_carlo_confidence():
    fam = make_family("slide1d")
    grid = np.linspace(0, 1, 32)[:, None]
    phi = centered_coord(0.0)
    n_inner = 4000
    est, _ = transfer_apply(fam, phi, grid, n_inner=n_inner, seed=3)
    # E f_a(x) = x/3 + 1/3 with noise sd = (2/3) * sd(U)/sqrt(M)
    truth = grid[:, 0] / 3.0 + 1.0 / 3.0
    se = (2.0 / 3.0) * np.sqrt(1.0 / 12.0 / n_inner)
    assert np.all(np.abs(est - truth) <= 4 * se)


def test_transfer_counts_saturated_draws():
    # slide1d clamped at 0.9: f_a(x) = x/3 + 2a/3 passes the clamp for large a and x
    fam = make_family("slide1d", clamp_bound=0.9)
    grid = np.linspace(0.0, 0.9, 8)[:, None]
    _, n_saturated = transfer_apply(fam, centered_coord(0.0), grid, n_inner=1000, seed=0)
    draws = engine._stream_values(fam.noise, (1, 1000), 0, "transfer")[0]
    want = sum(int(fam.apply_batch(a, grid)[1].any()) for a in draws)
    assert n_saturated == want > 0


def test_transfer_preconditions():
    fam = make_family("slide1d")
    with pytest.raises(UsageError):
        transfer_apply(fam, centered_coord(), np.zeros((4, 1)), n_inner=10)


def test_poisson_closed_form(cantor1d, cantor_mu):
    phi = centered_coord(0.5)
    sol = poisson_solve(cantor1d, phi, cantor_mu, grid_size=512, tol=1e-5, seed=7)
    assert sol.method == "exact"
    assert sol.converged
    j = sol.truncation_j
    # psi = sum_{i<=J} 3^-i (phi - grid mean) exactly, by affine enumeration
    factor = 1.5 * (1.0 - 3.0 ** -(j + 1))
    raw = phi(sol.grid)
    expected = factor * (raw - raw.mean())
    assert np.allclose(sol.psi, expected, atol=1e-12)
    assert sol.residual_norm <= 3e-5
    # exact mode: the residual is literally the first dropped centered term
    assert sol.residual_norm <= sol.term_norms[-1] / 3.0 * 1.01


def test_poisson_term_norm_decay(cantor1d, cantor_mu):
    phi = centered_coord(0.5)
    sol = poisson_solve(cantor1d, phi, cantor_mu, grid_size=512, tol=1e-5, seed=7)
    ratios = sol.term_norms[1:] / sol.term_norms[:-1]
    assert np.all(ratios <= 0.95)


def test_poisson_constant_family(const_family):
    # evaluation nodes deliberately off the one-point stationary support,
    # otherwise every observable is constant on the grid
    mu = EmpiricalMeasure.uniform(np.linspace(0.0, 1.0, 128)[:, None])
    phi = centered_coord(0.5)
    sol = poisson_solve(const_family, phi, mu, grid_size=128, tol=1e-9, seed=1)
    assert sol.truncation_j == 1
    assert np.allclose(sol.psi, sol.phi_values, atol=1e-15)
    # P psi vanishes, so both variance forms reduce to the plain second moment
    est = sigma_estimate(sol)
    assert est.sigma2_mg == pytest.approx(est.sigma2_resid, rel=1e-12)
    assert est.sigma2_mg == pytest.approx(float(np.mean(sol.phi_values**2)), rel=1e-12)


def test_poisson_one_symbol_family_is_exact():
    # q = 1 keeps q^j at 1, so only the series' deepest term ends the exact range
    fam = make_family("cantor1d", probs=[1.0])
    mu = EmpiricalMeasure.uniform(np.linspace(0.0, 1.0, 64)[:, None])
    sol = poisson_solve(fam, centered_coord(0.5), mu, grid_size=64, tol=1e-4, seed=1)
    assert sol.method == "exact"
    # P^j phi(x) = x / 3^j - 1/2, which centers to (x - mean) / 3^j
    x = sol.grid[:, 0]
    expected = sum(3.0**-i for i in range(sol.truncation_j + 1)) * (x - x.mean())
    assert np.allclose(sol.psi, expected, atol=1e-12)


def test_poisson_stop_at_the_last_term_is_flagged():
    # x -> 0.9x: term j is 0.9^j (x - mean x), so the norms fall by 0.9 per term
    # and the stall check never fires, but tol 1e-4 needs term 88 and the series
    # stops at term 60
    fam = make_family("affine-general", params={"mats": [[[0.9]]], "offs": [[0.0]]}, domain=Box([-1.0], [1.0]))
    mu = EmpiricalMeasure.uniform(np.linspace(-1.0, 1.0, 64)[:, None])
    sol = poisson_solve(fam, centered_coord(0.0), mu, grid_size=64, tol=1e-4, seed=1)
    assert sol.truncation_j == 60
    assert not sol.converged
    assert np.allclose(sol.term_norms[1:] / sol.term_norms[:-1], 0.9, rtol=1e-12, atol=0.0)


def test_poisson_monte_carlo_terms():
    # q = 2: terms past j = 12 are means over common chains.  Both maps have
    # slope 0.8, so a chain shifts every grid point alike and centering on the
    # grid cancels the chain noise: each term is 0.8^j (x - mean) again.
    fam = make_family(
        "affine-general",
        params={"mats": [[[0.8]], [[0.8]]], "offs": [[0.0], [0.2]]},
        domain=Box([0.0], [1.0]),
    )
    mu = EmpiricalMeasure.uniform(np.linspace(0.0, 1.0, 256)[:, None])
    sol = poisson_solve(fam, centered_coord(0.5), mu, grid_size=256, tol=1e-4, seed=3)
    assert sol.method == "mixed"
    x = sol.grid[:, 0]
    expected = sum(0.8**i for i in range(sol.truncation_j + 1)) * (x - x.mean())
    assert np.max(np.abs(sol.psi - expected)) <= 1e-12


@pytest.mark.parametrize("name", ["cantor1d", "cantor2d"])
def test_poisson_p_psi_matches_reexpansion(name):
    # P psi is the series' next term; the oracle re-expands psi at every image
    fam = make_family(name)
    mu = pullback_sample(fam, 17, 512)
    phi = make_observable("coord:1", mu)
    sol = poisson_solve(fam, phi, mu, grid_size=256, tol=1e-4, seed=5)
    assert sol.method == "exact"
    ref = oracles.p_psi_reexpansion(fam, phi, sol.grid, sol.term_means)
    assert np.allclose(sol.p_psi, ref, rtol=0.0, atol=1e-15)
    # the telescoping leaves minus the centered term J + 1
    nxt = oracles.transfer_power_enum(fam, phi, sol.grid, sol.truncation_j + 1)
    nxt = nxt - nxt.mean()
    assert np.allclose(sol.residual, -nxt, rtol=0.0, atol=1e-15)
    assert sol.residual_norm == pytest.approx(float(np.max(np.abs(nxt))), rel=0.0, abs=1e-15)


def test_poisson_box_noise_terms():
    # slide1d: every map has slope 1/3, so centering on the grid cancels the
    # chains' noise and term j is 3^-j (x - mean x) for every chain alike
    fam = make_family("slide1d")
    mu = pullback_sample(fam, 4, 1024)
    sol = poisson_solve(fam, make_observable("coord:1", mu), mu, grid_size=512, tol=1e-4, seed=2)
    assert sol.method == "monte-carlo"
    assert sol.converged
    x = sol.grid[:, 0] - sol.grid[:, 0].mean()
    j = sol.truncation_j
    psi = sum(3.0**-i for i in range(j + 1)) * x
    p_psi = sum(3.0**-i for i in range(1, j + 2)) * x
    assert np.max(np.abs(sol.psi - psi)) <= 1e-12
    assert np.max(np.abs(sol.p_psi - p_psi)) <= 1e-12


def test_poisson_no_decay_on_identity(identity_family, cantor_mu):
    phi = centered_coord(0.5)
    with pytest.raises(NoDecayError):
        poisson_solve(identity_family, phi, cantor_mu, grid_size=256, tol=1e-10, seed=1)


def test_sigma_estimates_and_scaling(cantor1d, cantor_mu):
    phi1 = make_observable({"kind": "affine", "coeffs": [1.0], "offset": 0.0}, cantor_mu)
    phi2 = make_observable({"kind": "affine", "coeffs": [2.0], "offset": 0.0}, cantor_mu)
    s1 = sigma_estimate(poisson_solve(cantor1d, phi1, cantor_mu, grid_size=1024, tol=1e-6, seed=2))
    s2 = sigma_estimate(poisson_solve(cantor1d, phi2, cantor_mu, grid_size=1024, tol=2e-6, seed=2))
    assert s2.sigma2_mg == pytest.approx(4 * s1.sigma2_mg, rel=1e-6)
    assert s2.sigma2_resid == pytest.approx(4 * s1.sigma2_resid, rel=1e-6)
    assert s1.sigma2_mg == pytest.approx(0.25, rel=0.1)
    assert s1.sigma2_resid == pytest.approx(0.125, rel=0.1)


@pytest.mark.parametrize("case", ["constant-maps", "one-symbol-cantor"])
def test_sigma_nonpositive_on_degenerate_support(const_family, case):
    if case == "constant-maps":
        mu = EmpiricalMeasure.uniform(np.full((64, 1), 0.7))
        phi = make_observable("coord:1", mu)  # centered at 0.7, so phi == 0 on the support
        sol = poisson_solve(const_family, phi, mu, grid_size=64, tol=1e-12, seed=1)
    else:
        # the stationary law is a point mass near 0 (the pullback limit, 4.2e-10);
        # the variance left over is float rounding, about 1e-50
        fam = make_family("cantor1d", probs=[1.0])
        mu = pullback_sample(fam, 1, 512)
        phi = make_observable("coord:1", mu, center=0.0)
        sol = poisson_solve(fam, phi, mu, grid_size=512, seed=1)
    with pytest.raises(NonPositiveSigmaError):
        sigma_estimate(sol)


def test_sigma_nonfinite_raises(cantor1d):
    mu = pullback_sample(cantor1d, 3, 512)
    sol = poisson_solve(cantor1d, make_observable("coord:1", mu), mu, grid_size=128, seed=1)
    huge = np.full_like(sol.psi, 1e300)  # squares overflow, so the martingale form is inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonPositiveSigmaError, match="non-finite"):
            sigma_estimate(dataclasses.replace(sol, psi=huge, p_psi=huge))


@pytest.mark.parametrize("sigma2", [float("nan"), float("inf")])
def test_partial_sum_paths_rejects_nonfinite_sigma2(cantor1d, cantor_mu, sigma2):
    phi = make_observable("coord:1", cantor_mu)
    with pytest.raises(UsageError, match="non-finite"):
        partial_sum_paths(cantor1d, phi, sigma2, n=10, replicas=4, seed=1)


@pytest.mark.parametrize(
    "start", [[0.2, 0.3], [], [float("nan")], [float("inf")]], ids=["size2", "size0", "nan", "inf"]
)
def test_partial_sum_paths_rejects_bad_start(cantor1d, cantor_mu, start):
    # a wrong-size start used to fail in reshape, a NaN one ran to all-NaN
    # paths with every replica flagged saturated
    phi = make_observable("coord:1", cantor_mu)
    with pytest.raises(UsageError, match="1 finite coordinates"):
        partial_sum_paths(cantor1d, phi, 0.25, n=10, replicas=4, seed=1, start=start)


def test_make_observable_centering(cantor_mu):
    phi = make_observable("coord:1", cantor_mu)
    assert abs(float(cantor_mu.weights @ phi(cantor_mu.points))) <= 1e-3
    tab = make_observable(
        {
            "kind": "table",
            "points": [[0.0], [1.0]],
            "values": [0.0, 1.0],
            "lipschitz": 1.0,
        },
        cantor_mu,
    )
    # nearest-neighbor table lookup, which has no linear form
    assert tab.raw(np.array([[0.1], [0.9]])) == pytest.approx([0.0, 1.0])
    assert tab.linear is None
    with pytest.raises(UsageError):
        make_observable("coord:3", cantor_mu)
    with pytest.raises(UsageError):
        make_observable({"kind": "affine", "coeffs": [0.0]}, cantor_mu)


_COORDINATE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _linear_specs(draw):
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        s = draw(st.integers(1, dim))
        spec = draw(st.sampled_from([f"coord:{s}", {"kind": "coordinate", "s": s}]))
    else:
        coeffs = draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim).filter(any))
        spec = {"kind": "affine", "coeffs": coeffs, "offset": draw(st.floats(-1e3, 1e3))}
    x = np.asarray(draw(st.lists(_COORDINATE, min_size=dim, max_size=8 * dim)))
    return dim, spec, x[: x.size - x.size % dim].reshape(-1, dim)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=_linear_specs())
def test_make_observable_linear_describes_raw(case):
    # the linear form feeds the exact center and sigma^2, so it must be the raw observable
    dim, spec, x = case
    mu = EmpiricalMeasure.uniform(np.linspace(0.0, 1.0, 3 * dim).reshape(3, dim))
    obs = make_observable(spec, mu)
    v, b = obs.linear
    assert v.shape == (dim,)
    np.testing.assert_array_equal(obs.raw(x), x @ v + b)


def test_stationary_mean_precision(cantor1d):
    obs = centered_coord(0.0)
    est, _ = stationary_mean(cantor1d, obs, seed=3, replicas=256, steps=4000)
    # error scale sqrt(sigma2_asym / total) with sigma2_asym = 1/4
    assert abs(est - 0.5) <= 4 * np.sqrt(0.25 / (256 * 4000))


_WINDOW_CHAINS = [
    pytest.param("cantor2d", {}, {"kind": "affine", "coeffs": [0.7, -1.3], "offset": 0.25}, id="cantor2d-affine"),
    pytest.param("slide1d", {}, "coord:1", id="slide1d"),  # box noise
    pytest.param("cantor1d", {"clamp_bound": 0.5}, "coord:1", id="cantor1d-clamped"),  # rows saturate
]
# at 1000 replicas a window is 64 steps: n below it, past it by a part, on its edges, and a single step
_WINDOW_RUNS = [
    pytest.param(40, id="n40"),
    pytest.param(150, id="n150"),
    pytest.param(256, id="n256-edges"),  # checkpoints 64, 128 and 192 fall on window edges
    pytest.param(1, id="n1"),
]


def _whole_table(fam, seed, label, replicas, n):
    table = engine._BlockTable(fam.noise, seed, label, range(replicas))
    table.ensure(n)
    return table.values


@pytest.mark.parametrize("n", _WINDOW_RUNS)
@pytest.mark.parametrize("name, kwargs, spec", _WINDOW_CHAINS)
def test_partial_sum_paths_match_the_whole_table_chain(name, kwargs, spec, n):
    fam = make_family(name, **kwargs)
    phi = make_observable(spec, EmpiricalMeasure.uniform(np.full((1, fam.dim), 0.5)), center=0.5)
    replicas, seed = 1000, 17
    ens = partial_sum_paths(fam, phi, 0.3, n, replicas, seed)
    start, start_sat = clt._stationary_start(fam, seed, replicas, "clt-start")
    checkpoints = np.floor(n * np.linspace(0.0, 1.0, 21) + 1e-9).astype(np.int64)
    scale = 1.0 / (np.sqrt(0.3) * np.sqrt(n))
    values = _whole_table(fam, seed, "clt-chain", replicas, n)
    paths, sums, sat = oracles.partial_sums_whole_table(fam, phi, values, start, checkpoints, scale)
    assert ens.paths.tobytes() == paths.tobytes()
    assert ens.final_sums.tobytes() == sums.tobytes()
    assert ens.n_saturated == int((start_sat | sat).sum())
    if fam.clamp_bound == 0.5:
        assert ens.n_saturated > 0


@pytest.mark.parametrize("steps", [40, 150, 256, 1])
@pytest.mark.parametrize("name, kwargs, spec", _WINDOW_CHAINS)
def test_stationary_mean_matches_the_whole_table_chain(name, kwargs, spec, steps):
    fam = make_family(name, **kwargs)
    obs = make_observable(spec, EmpiricalMeasure.uniform(np.full((1, fam.dim), 0.5)), center=0.0)
    replicas, seed = 1000, 23
    mean, n_saturated = stationary_mean(fam, obs, seed, replicas=replicas, steps=steps)
    start, start_sat = clt._stationary_start(fam, seed, replicas, "ergodic-start")
    values = _whole_table(fam, seed, "ergodic-chain", replicas, steps)
    total, sat = oracles.ergodic_total_whole_table(fam, obs.raw, values, start)
    assert mean == total / (replicas * (steps + 1))
    assert n_saturated == int((start_sat | sat).sum())
    if fam.clamp_bound == 0.5:
        assert n_saturated > 0


def test_window_floor_of_four_steps(cantor1d, monkeypatch):
    # a budget below 4 values per row still steps 4 columns per window
    monkeypatch.setattr(engine, "_WINDOW_VALUES", 8)
    phi = centered_coord(0.5)
    ens = partial_sum_paths(cantor1d, phi, 0.25, 11, 5, seed=3)
    start, _ = clt._stationary_start(cantor1d, 3, 5, "clt-start")
    checkpoints = np.floor(11 * ens.grid_t + 1e-9).astype(np.int64)
    values = _whole_table(cantor1d, 3, "clt-chain", 5, 11)
    paths, sums, _ = oracles.partial_sums_whole_table(cantor1d, phi, values, start, checkpoints, 1 / (0.5 * np.sqrt(11)))
    assert ens.paths.tobytes() == paths.tobytes() and ens.final_sums.tobytes() == sums.tobytes()


def _traced_peak(call) -> int:
    """Bytes ``call()`` allocates at its peak, over what was allocated before it, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_chain_memory_does_not_grow_with_steps(cantor1d):
    # the whole uint8 table of 1000 x 40,000 steps alone is 38 MiB; windows of 64 steps hold 64 KiB
    phi = centered_coord(0.5)
    partial_sum_paths(cantor1d, phi, 0.25, 4, 1000, seed=2)  # what the first call builds lazily is not counted
    peaks = {}
    for n in (10_000, 40_000):
        peaks["paths", n] = _traced_peak(lambda: partial_sum_paths(cantor1d, phi, 0.25, n, 1000, seed=2))
        peaks["mean", n] = _traced_peak(lambda: stationary_mean(cantor1d, phi, 2, replicas=1000, steps=n))
    for kind in ("paths", "mean"):
        assert peaks[kind, 10_000] < 3 * 2**20, peaks
        assert peaks[kind, 40_000] <= peaks[kind, 10_000] + 2**16, peaks  # 64 KiB of slack, not the table's 28.6 MiB


def test_partial_sum_paths_time_zero(cantor1d, cantor_mu):
    phi = make_observable("coord:1", cantor_mu)
    ens = partial_sum_paths(cantor1d, phi, 0.25, n=400, replicas=50, seed=5)
    assert np.all(np.abs(ens.paths[:, 0]) <= 0.75 / (0.5 * np.sqrt(400)) + 1e-12)


def test_fclt_on_iid_family():
    # f_a(x) = +-1: the chain is literally an i.i.d. sign sequence
    fam = make_family(
        "affine-general",
        params={"mats": [[[0.0]], [[0.0]]], "offs": [[-1.0], [1.0]]},
        domain=Box([-1.0], [1.0]),
    )
    mu = pullback_sample(fam, 61, 2000, tol=1e-9)
    phi = make_observable("coord:1", mu, center=0.0)
    sigma2 = oracles.iid_partial_sum_var([-1.0, 1.0], [0.5, 0.5], 1.0)
    ens = partial_sum_paths(fam, phi, sigma2, n=2000, replicas=600, seed=6)
    stats = fclt_tests(ens)
    assert stats.ks_pvalue > 0.01
    assert 0.85 <= stats.var_slope <= 1.15
    assert abs(stats.increment_corr) <= 0.12
    assert stats.sigma2_direct == pytest.approx(1.0, rel=0.15)


def test_fclt_from_arbitrary_start(cantor1d, cantor_mu):
    # the Brownian limit does not depend on the initial distribution; a
    # point start converges to stationarity within a few dozen steps
    phi = make_observable("coord:1", cantor_mu, center=0.5)
    ens = partial_sum_paths(
        cantor1d, phi, 0.25, n=4000, replicas=600, seed=8, start=np.array([0.0])
    )
    stats = fclt_tests(ens)
    assert stats.ks_pvalue > 0.01
    assert 0.85 <= stats.var_slope <= 1.15


def test_fclt_requires_replicas(cantor1d, cantor_mu):
    phi = make_observable("coord:1", cantor_mu)
    ens = partial_sum_paths(cantor1d, phi, 0.25, n=100, replicas=20, seed=1)
    with pytest.raises(UsageError):
        fclt_tests(ens)


def test_partial_sum_paths_rejects_negative_sigma2(cantor1d, cantor_mu):
    phi = make_observable("coord:1", cantor_mu)
    with pytest.raises(UsageError):
        partial_sum_paths(cantor1d, phi, -1.0, 100, 50, seed=1)


def test_run_clt_analysis_quick(cantor1d):
    report, ens = run_clt_analysis(
        cantor1d,
        "coord:1",
        seed=9,
        n=2000,
        replicas=500,
        mu_size=2048,
        grid_size=1024,
        tol=1e-4,
        center_replicas=128,
        center_steps=8000,
    )
    assert report.sigma2_mg == pytest.approx(0.25, rel=0.12)
    assert report.ks_pvalue > 0.001
    assert ens.paths.shape == (500, 21)
    doc = _jsonable(report, True)
    assert doc["observable"] == "coord:1"
    # cantor1d is affine: the center and sigma^2 are the closed forms
    assert doc["center_method"] == "exact"
    assert abs(doc["center"] - 0.5) <= 1e-12 and abs(doc["sigma2_exact"] - 0.25) <= 1e-12
    assert doc["n_saturated"] == 0


def test_run_clt_analysis_box_noise_slide1d():
    # slide1d: X' = X/3 + 2a/3 with a ~ U[0, 1]; for phi(x) = x - m the corrector
    # is psi = 3 phi / 2, so sigma^2 = (3/2)^2 Var(2a/3) = 1/12
    report, _ = run_clt_analysis(
        make_family("slide1d"), "coord:1", seed=5, n=10_000, replicas=1000, tol=1e-4
    )
    assert abs(report.sigma2_mg - 1 / 12) <= 0.1 / 12
    assert report.residual_norm <= 3 * 1e-4


# Finite families declared affine, each with the start point of its branch
# oracle; the 3-d case has three symbols and unequal weights.  Every
# ||A||_inf is at most 1/3, so k = 10 or 12 steps pin the moments to ~1e-5.
_AFFINE_3D = {
    "mats": [
        [[0.1, -0.1, 0.05], [0.0, 0.2, 0.1], [0.1, 0.0, -0.2]],
        [[-0.2, 0.1, 0.0], [0.05, 0.2, -0.05], [0.0, 0.15, 0.1]],
        [[0.1, 0.1, 0.1], [-0.1, 0.1, 0.0], [0.2, 0.0, 0.1]],
    ],
    "offs": [[0.5, -0.2, 0.1], [-0.4, 0.3, 0.0], [0.1, 0.1, -0.6]],
}
_ORACLE_CASES = {
    "cantor1d": (lambda: make_family("cantor1d"), [0.0]),
    "cantor1d-skewed": (lambda: make_family("cantor1d", probs=[0.3, 0.7]), [1.0]),
    "cantor2d-offsets": (
        lambda: make_family("cantor2d", params={"offsets": [[0.5, -0.1], [-0.3, 0.7]]}), [0.0, 0.0]
    ),
    "affine-general-2d": (
        lambda: make_family("affine-general", params={
            "mats": [[[0.2, 0.1], [0.1, 0.15]], [[0.15, -0.1], [-0.1, 0.2]]],
            "offs": [[0.1, 0.2], [0.5, -0.3]],
        }),
        [1.0, -1.0],
    ),
    "affine-general-3d": (
        lambda: make_family("affine-general", probs=[0.5, 0.2, 0.3], params=_AFFINE_3D),
        [0.0, 0.0, 0.0],
    ),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_affine_moments_match_branch_enumeration(name):
    make, x0 = _ORACLE_CASES[name]
    fam = make()
    mom = affine_moments(fam)
    assert mom is not None
    mats, offs, _ = fam.affine_form()
    x0 = np.asarray(x0, dtype=float)
    k = 12 if fam.noise.q == 2 else 10
    mean_k, second_k = oracles.branch_moments(fam, x0, k)
    # E X_k - m = Ab^k (x0 - m) exactly, so the mean is within ||Ab||^k ||x0 - m||
    abar_norm = np.abs(mom.mean_matrix).sum(axis=1).max()
    mean_bound = abar_norm**k * np.abs(x0 - mom.mean).max() + 1e-13
    assert np.abs(mean_k - mom.mean).max() <= mean_bound
    # coupling with a stationary start: |X_k - Y| <= a^k (|x0| + R) with a = max ||A||,
    # and x_i x_j is 2 rho-Lipschitz on the sup ball of radius rho that holds both
    a = np.abs(mats).sum(axis=2).max()
    r = np.abs(offs).max() / (1 - a)
    rho = max(np.abs(x0).max(), r)
    second_bound = 2 * rho * a**k * (np.abs(x0).max() + r) + 1e-13
    second = mom.cov + np.outer(mom.mean, mom.mean)
    assert np.abs(second_k - second).max() <= second_bound
    assert second_bound < 1e-3 * max(np.abs(second).max(), 1e-3)  # the oracle has a say


def test_affine_moments_exact_values():
    mom = affine_moments(make_family("cantor1d"))
    assert abs(mom.mean[0] - 0.5) <= 1e-12 and abs(mom.cov[0, 0] - 1 / 8) <= 1e-12
    assert abs(mom.sigma2(np.array([1.0])) - 1 / 4) <= 1e-12
    # slide1d: X = X/3 + 2U/3 with U uniform on [0, 1]
    mom = affine_moments(make_family("slide1d"))
    assert abs(mom.mean[0] - 0.5) <= 1e-12 and abs(mom.cov[0, 0] - 1 / 24) <= 1e-12
    assert abs(mom.sigma2(np.array([1.0])) - 1 / 12) <= 1e-12
    mom = affine_moments(make_family("cantor2d"))
    assert np.abs(mom.mean - [0.5, -0.5]).max() <= 1e-12


def test_affine_moments_fall_back_outside_their_conditions():
    # an expanding member (slope 2), a rotation (||A||_inf = cos + sin > 1), a clamp
    # that acts on the stationary law (R = 1 > 0.5), and families with no affine form
    assert affine_moments(make_family("lip-pair", params={"slopes": [2.0, 0.5]})) is None
    assert affine_moments(make_family("lip-pair", params={"slopes": [1.0, 0.5]})) is None
    assert affine_moments(make_family("rot2d")) is None
    assert affine_moments(make_family("cantor1d", clamp_bound=0.5)) is None
    # R = 0.5 / (1 - 0.5) = 1 exactly: a law that reaches the bound is not clamped
    edge = {"mats": [[[0.5]]], "offs": [[0.5]]}
    assert affine_moments(make_family("affine-general", params=edge, clamp_bound=1.0)) is not None
    assert affine_moments(make_family("affine-general", params=edge, clamp_bound=0.99)) is None
    for name in ("exp1d", "arctanexp2d"):
        assert affine_moments(make_family(name)) is None
    disjoint = make_family("lip-pair", params={"mode": "disjoint", "slopes": [0.5, 0.5]})
    assert affine_moments(disjoint) is None
    # a zero-mass symbol is never drawn, so its expanding map does not count
    skip = make_family("lip-pair", probs=[0.0, 1.0], params={"slopes": [2.0, 0.5]})
    assert affine_moments(skip) is not None
    # past d = 32 the d^2 x d^2 covariance system is not built
    for d, covered in ((32, True), (33, False)):
        wide = make_family("affine-general", params={"mats": [(np.eye(d) / 2).tolist()], "offs": [[1.0] * d]})
        assert (affine_moments(wide) is not None) == covered, d


def test_exact_center_skips_the_ergodic_pass(cantor1d, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the ergodic centering pass ran")

    monkeypatch.setattr(clt, "stationary_mean", unreachable)
    report, _ = run_clt_analysis(
        cantor1d, {"kind": "affine", "coeffs": [2.0], "offset": 1.0}, seed=4,
        n=200, replicas=100, mu_size=512, grid_size=256,
    )
    assert report.center_method == "exact"
    assert abs(report.center - 2.0) <= 1e-12 and abs(report.sigma2_exact - 1.0) <= 1e-12


_TABLE = {"kind": "table", "points": [[0.0], [1.0]], "values": [0.0, 1.0]}


@pytest.mark.parametrize("family, spec", [
    (make_family("cantor1d"), _TABLE),  # no closed form for a table observable
    (make_family("cantor1d", clamp_bound=0.5), "coord:1"),  # the clamp acts on the law
])
def test_center_falls_back_to_the_ergodic_pass(family, spec, monkeypatch):
    center_counts = []
    real = clt.stationary_mean

    def counted(*args, **kwargs):
        mean, n_saturated = real(*args, **kwargs)
        center_counts.append(n_saturated)
        return mean, n_saturated

    monkeypatch.setattr(clt, "stationary_mean", counted)
    report, ens = run_clt_analysis(
        family, spec, seed=4, n=200, replicas=100, mu_size=512, grid_size=256,
        center_replicas=32, center_steps=500,
    )
    assert report.center_method == "ergodic" and report.sigma2_exact is None
    doc = _jsonable(report, True)
    assert doc["sigma2_exact"] is None and doc["center"] == report.center
    # the clamped second map sends everything to 0.5: every row that takes it saturates,
    # the 32 centering chains included, and the report counts them
    clamped = family.clamp_bound == 0.5
    assert (report.n_saturated > 0) == clamped
    assert center_counts == [32 if clamped else 0]
    assert report.n_saturated >= center_counts[0] + ens.n_saturated


def test_saturated_rows_are_counted():
    # x -> 2x or x / 2 under clamp 1: from 0.3 only the second doubling saturates,
    # so the flag must come up from the deeper branch
    fam = make_family(
        "affine-general", params={"mats": [[[2.0]], [[0.5]]], "offs": [[0.0], [0.0]]}, clamp_bound=1.0
    )
    _, sat = clt._pj_exact(fam, centered_coord(0.0), np.array([[0.3], [0.1]]), 2)
    assert sat.tolist() == [True, False]
    # one symbol, x -> 2x: every replica started at 0.3 saturates at its second step
    double = make_family(
        "affine-general", probs=[1.0], params={"mats": [[[2.0]]], "offs": [[0.0]]}, clamp_bound=1.0
    )
    for n, want in ((1, 0), (2, 50)):
        ens = partial_sum_paths(double, centered_coord(0.0), 1.0, n, 50, seed=1, start=np.array([0.3]))
        assert ens.n_saturated == want, n
    # Monte Carlo terms: slide1d's images pass 0.9 for parameters near 1
    fam = make_family("slide1d", clamp_bound=0.9)
    mu = pullback_sample(fam, 3, 512, tol=1e-9)
    sol = poisson_solve(fam, centered_coord(0.5), mu, grid_size=64, tol=1e-4, seed=3)
    assert 0 < sol.n_saturated <= 2000  # chains, not grid points: box noise has no exact term


def test_clt_rejects_a_single_replica(cantor1d):
    with pytest.raises(UsageError):
        run_clt_analysis(cantor1d, "coord:1", seed=1, n=10, replicas=1, mu_size=64, grid_size=16)


def test_nan_tol_is_a_usage_error(cantor1d, cantor_mu, monkeypatch):
    for tol in (float("nan"), 0.0, -1e-4):
        with pytest.raises(UsageError):
            poisson_solve(cantor1d, centered_coord(), cantor_mu, grid_size=16, tol=tol)

    def no_sample(*args, **kwargs):
        raise AssertionError("the tolerance is checked before the pullback sample")

    monkeypatch.setattr(clt, "pullback_sample", no_sample)
    with pytest.raises(UsageError):
        run_clt_analysis(cantor1d, "coord:1", seed=1, n=10, replicas=2, mu_size=64, grid_size=16,
                         tol=float("nan"))
