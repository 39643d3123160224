import dataclasses

import numpy as np
import pytest

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
from monosync.clt import Observable, stationary_mean


@pytest.fixture(scope="module")
def cantor_mu():
    return pullback_sample(make_family("cantor1d"), 101, 4096, tol=1e-9)


def centered_coord(center=0.5):
    return Observable(kind="coordinate", lipschitz_const=1.0, center=center, coord=1)


def test_transfer_exact_enumeration_affine(cantor1d, cantor_mu):
    # P phi = phi / 3 exactly for phi(x) = x - 1/2 under the two-map average
    grid = cantor_mu.points[:256]
    phi = centered_coord(0.5)
    out = transfer_apply(cantor1d, phi, grid)
    assert np.allclose(out, phi(grid) / 3.0, atol=1e-15)


def test_transfer_fixes_constants(cantor1d, cantor_mu):
    grid = cantor_mu.points[:64]
    out = transfer_apply(cantor1d, lambda p: np.full(p.shape[0], 3.14), grid)
    assert np.allclose(out, 3.14, atol=1e-15)


def test_transfer_monte_carlo_confidence():
    fam = make_family("slide1d")
    grid = np.linspace(0, 1, 32)[:, None]
    phi = centered_coord(0.0)
    n_inner = 4000
    est = transfer_apply(fam, phi, grid, n_inner=n_inner, seed=3)
    # E f_a(x) = x/3 + 1/3 with noise sd = (2/3) * sd(U)/sqrt(M)
    truth = grid[:, 0] / 3.0 + 1.0 / 3.0
    se = (2.0 / 3.0) * np.sqrt(1.0 / 12.0 / n_inner)
    assert np.all(np.abs(est - truth) <= 4 * se)


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
        partial_sum_paths(cantor1d, phi, sigma2, n=10, grid_t=None, replicas=4, seed=1)


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
    # nearest-neighbor table lookup
    assert tab.raw(np.array([[0.1], [0.9]])) == pytest.approx([0.0, 1.0])
    with pytest.raises(UsageError):
        make_observable("coord:3", cantor_mu)
    with pytest.raises(UsageError):
        make_observable({"kind": "affine", "coeffs": [0.0]}, cantor_mu)


def test_stationary_mean_precision(cantor1d):
    obs = Observable(kind="coordinate", lipschitz_const=1.0, center=0.0, coord=1)
    est = stationary_mean(cantor1d, obs, seed=3, replicas=256, steps=4000)
    # error scale sqrt(sigma2_asym / total) with sigma2_asym = 1/4
    assert abs(est - 0.5) <= 4 * np.sqrt(0.25 / (256 * 4000))


def test_partial_sum_paths_time_zero(cantor1d, cantor_mu):
    phi = make_observable("coord:1", cantor_mu)
    ens = partial_sum_paths(cantor1d, phi, 0.25, n=400, grid_t=None, replicas=50, seed=5)
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
    ens = partial_sum_paths(fam, phi, sigma2, n=2000, grid_t=None, replicas=600, seed=6)
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
        cantor1d, phi, 0.25, n=4000, grid_t=None, replicas=600, seed=8, start=np.array([0.0])
    )
    stats = fclt_tests(ens)
    assert stats.ks_pvalue > 0.01
    assert 0.85 <= stats.var_slope <= 1.15


def test_fclt_requires_replicas(cantor1d, cantor_mu):
    phi = make_observable("coord:1", cantor_mu)
    ens = partial_sum_paths(cantor1d, phi, 0.25, n=100, grid_t=None, replicas=20, seed=1)
    with pytest.raises(UsageError):
        fclt_tests(ens)


def test_partial_sum_grid_validation(cantor1d, cantor_mu):
    phi = make_observable("coord:1", cantor_mu)
    with pytest.raises(UsageError):
        partial_sum_paths(cantor1d, phi, 0.25, 100, np.array([0.0, 0.5]), 50, seed=1)
    with pytest.raises(UsageError):
        partial_sum_paths(cantor1d, phi, -1.0, 100, None, 50, seed=1)


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
    doc = report.to_dict()
    assert doc["observable"] == "coord:1"


def test_run_clt_analysis_box_noise_slide1d():
    # slide1d: X' = X/3 + 2a/3 with a ~ U[0, 1]; for phi(x) = x - m the corrector
    # is psi = 3 phi / 2, so sigma^2 = (3/2)^2 Var(2a/3) = 1/12
    report, _ = run_clt_analysis(
        make_family("slide1d"), "coord:1", seed=5, n=10_000, replicas=1000, tol=1e-4
    )
    assert abs(report.sigma2_mg - 1 / 12) <= 0.1 / 12
    assert report.residual_norm <= 3 * 1e-4
