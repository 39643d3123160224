"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single [PASS] line (visible with ``pytest -v -s`` or in
the captured output of a failing run) including its wall-clock time, which
is itself asserted against the criterion's runtime budget.
"""

import time

import numpy as np

import oracles
from monosync import (
    EmpiricalMeasure,
    JOrder,
    diameter_series,
    exact_splitting_scan,
    find_splitting_witness,
    fit_rate,
    forward_attractor_gap,
    make_family,
    markov_step,
    pullback_sample,
    run_clt_analysis,
    sigma_decay,
    w1_decay_curve,
    wasserstein1,
)
from monosync.cli import main as cli_main
from monosync.streams import derive_seed

ORD1 = JOrder(1, frozenset([1]))
ORD2 = JOrder(2, frozenset([1]))


class _Timer:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"[PASS] {self.label} ({self.elapsed:.2f}s / budget {self.budget}s)")
            assert self.elapsed < self.budget, f"{self.label}: runtime budget exceeded"
        else:
            print(f"[FAIL] {self.label} ({self.elapsed:.2f}s)")
        return False


def test_criterion_1_splitting_verification():
    with _Timer("criterion 1: splitting verification (exact + Monte Carlo)", 1.0):
        cantor = make_family("cantor1d")
        rep = exact_splitting_scan(cantor, ORD1, m=1)
        assert rep.verified and rep.m == 1
        assert abs(rep.mass_a - 0.5) <= 1e-12
        assert abs(rep.mass_b - 0.5) <= 1e-12

        expf = make_family("exp1d", probs=(0.3, 0.7))
        repe = exact_splitting_scan(expf, ORD1, m=1)
        assert repe.verified and repe.m == 1
        assert abs(repe.mass_a - 0.7) <= 1e-12  # negative-image map, prob 0.7
        assert abs(repe.mass_b - 0.3) <= 1e-12

        mc = find_splitting_witness(cantor, ORD1, m_max=1, n_blocks=64, seed=20240817)
        assert mc.verified
        assert abs(mc.mass_a - rep.mass_a) <= 3 * mc.stderr_a
        assert abs(mc.mass_b - rep.mass_b) <= 3 * mc.stderr_b

        mce = find_splitting_witness(expf, ORD1, m_max=1, n_blocks=64, seed=20240817)
        assert mce.verified
        assert abs(mce.mass_a - repe.mass_a) <= 3 * max(mce.stderr_a, 1e-6)
        assert abs(mce.mass_b - repe.mass_b) <= 3 * max(mce.stderr_b, 1e-6)


def test_criterion_2_sigma_decay_bound():
    with _Timer("criterion 2: membership decay bound and enumeration oracle", 10.0):
        cantor = make_family("cantor1d")
        rep = exact_splitting_scan(cantor, ORD1, m=1)
        lam = 1.0 - rep.rho
        replicas = 10_000
        series = sigma_decay(
            cantor, ORD1, m=1, x=0.1, s=1, j_max=8, replicas=replicas, seed=71
        )
        assert len(series.j) == 8
        for j, p, se in zip(series.j, series.p_hat, series.stderr):
            assert p <= lam ** int(j) + 3 * max(se, 1e-9), f"bound fails at j={j}"
            exact = oracles.cantor_membership_prob(0.1, int(j))
            tol = 3 * max(se, np.sqrt(exact * (1 - exact) / replicas))
            assert abs(p - exact) <= tol, f"oracle mismatch at j={j}"


def test_criterion_3_synchronization_rate():
    with _Timer("criterion 3: synchronization rate fits", 5.0):
        cantor = make_family("cantor1d")
        s1 = diameter_series(cantor, n_max=20, replicas=64, seed=5)
        f1 = fit_rate(s1)
        assert 0.32 <= f1.r_hat <= 0.35

        cantor2 = make_family("cantor2d")
        s2 = diameter_series(cantor2, n_max=20, replicas=64, seed=5)
        f2 = fit_rate(s2)
        assert 0.32 <= f2.r_hat <= 0.35
        expected = 2.0 * 3.0 ** -np.arange(21)
        assert np.abs(s2.diam - expected[None, :]).max() <= 1e-12

        for s in (s1, s2):
            diffs = np.diff(s.diam[:, 1:], axis=1)
            assert np.all(diffs <= 1e-12)


def test_criterion_4_pullback_stationary_moments():
    with _Timer("criterion 4: pullback stationary moments", 30.0):
        cantor = make_family("cantor1d")
        mu = pullback_sample(cantor, 777, 100_000, tol=1e-9)
        assert abs(mu.mean()[0] - 0.5) <= 0.01
        assert abs(mu.var()[0] - 0.125) <= 0.005

        cantor2 = make_family("cantor2d")
        mu2 = pullback_sample(cantor2, 778, 30_000, tol=1e-9)
        assert abs(mu2.mean()[0] - 0.5) <= 0.01
        assert abs(mu2.mean()[1] + 0.5) <= 0.01


def test_criterion_5_stationarity_fixed_point():
    with _Timer("criterion 5: stationarity fixed point under one push", 30.0):
        cantor = make_family("cantor1d")
        n = 4096
        mu = pullback_sample(cantor, 31, n, tol=1e-9)
        floors = []
        for k in range(3):
            a = pullback_sample(cantor, derive_seed(31, f"fa{k}"), n, tol=1e-9)
            b = pullback_sample(cantor, derive_seed(31, f"fb{k}"), n, tol=1e-9)
            floors.append(wasserstein1(a, b).distance)
        floor = float(np.mean(floors))
        # one exact operator step: the q*N-atom mixture, no sampling noise
        moved = markov_step(cantor, mu)
        gap = wasserstein1(moved, mu).distance
        assert gap <= 2 * floor, f"gap {gap} vs floor {floor}"


def test_criterion_6_w1_geometric_decay():
    with _Timer("criterion 6: geometric W1 decay from a point mass", 60.0):
        cantor = make_family("cantor1d")
        curve = w1_decay_curve(
            cantor,
            EmpiricalMeasure.dirac([0.0]),
            n_max=12,
            n_particles=16_384,
            seed=20240817,
            ref_size=32_768,
        )
        assert curve.fit is not None
        assert 0.30 <= curve.fit.r_hat <= 0.37, curve.fit
        assert curve.fit.r_squared >= 0.9
        assert curve.ns[-1] == 12 and len(curve.w1) == 13


def test_criterion_7_forward_attractor_gap():
    with _Timer("criterion 7: forward attractor gap", 10.0):
        cantor = make_family("cantor1d")
        gaps = forward_attractor_gap(
            cantor, seed=7, x0=[0.5], n_checkpoints=15, tail_tol=1e-10
        )
        bound = 3.0 ** -gaps.checkpoints.astype(float)
        assert np.all(gaps.gap <= bound), (gaps.gap / bound).max()


def test_criterion_8_poisson_clt_pipeline():
    with _Timer("criterion 8: Poisson equation and FCLT pipeline", 300.0):
        cantor = make_family("cantor1d")
        tol = 1e-4
        report, _ = run_clt_analysis(
            cantor, "coord:1", seed=5, n=10_000, replicas=1000, tol=tol
        )
        assert abs(report.sigma2_mg - 0.25) <= 0.025, report.sigma2_mg
        assert abs(report.sigma2_resid - 0.125) <= 0.0125, report.sigma2_resid
        assert report.residual_norm <= 3 * tol
        rel = abs(report.sigma2_mg - report.sigma2_direct) / report.sigma2_direct
        assert rel <= 0.15, rel
        assert report.ks_pvalue > 0.01, report.ks_pvalue
        assert 0.9 <= report.var_slope <= 1.1, report.var_slope
        assert -0.1 <= report.increment_corr <= 0.1, report.increment_corr


def test_criterion_9_w1_oracle_equivalence():
    with _Timer("criterion 9: W1 oracle equivalence and metric axioms", 10.0):
        rng = np.random.default_rng(909)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            got = wasserstein1(
                EmpiricalMeasure.uniform(x[:, None]), EmpiricalMeasure.uniform(y[:, None])
            ).distance
            assert abs(got - oracles.w1_bruteforce_1d(x, y)) <= 1e-12

        for trial in range(1000):
            n = int(rng.integers(2, 10))
            if trial % 2 == 0:
                mk = lambda: EmpiricalMeasure.uniform(rng.normal(size=(n, 1)))
            else:
                mk = lambda: EmpiricalMeasure.uniform(rng.normal(size=(n, 2)))
            a, b, c = mk(), mk(), mk()
            dab = wasserstein1(a, b).distance
            assert dab == wasserstein1(b, a).distance
            assert dab <= wasserstein1(a, c).distance + wasserstein1(c, b).distance + 1e-9
            assert wasserstein1(a, a).distance <= 1e-15


def test_criterion_10_manifest_determinism(tmp_path):
    with _Timer("criterion 10: byte-identical artifacts across thread counts", 60.0):
        outs = {}
        for threads in (1, 8):
            out = tmp_path / f"threads{threads}"
            code = cli_main(
                [
                    "stationary",
                    "--family",
                    "cantor1d",
                    "--n-samples",
                    "20000",
                    "--seed",
                    "4242",
                    "--threads",
                    str(threads),
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs[threads] = out
        for name in ("manifest.json", "stationary.csv", "stationary.json"):
            a = (outs[1] / name).read_bytes()
            b = (outs[8] / name).read_bytes()
            assert a == b, f"{name} differs across thread counts"
        # and a manifest re-run reproduces artifacts byte for byte
        redo = tmp_path / "redo"
        code = cli_main(
            ["stationary", "--config", str(outs[1] / "manifest.json"), "--out", str(redo)]
        )
        assert code == 0
        for name in ("manifest.json", "stationary.csv", "stationary.json"):
            assert (redo / name).read_bytes() == (outs[1] / name).read_bytes()
