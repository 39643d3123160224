import numpy as np
import pytest

from monosync import (
    Box,
    assumption2_check,
    diameter_series,
    fit_rate,
    forward_attractor_gap,
    make_family,
)
from monosync import sync
from monosync.errors import DegenerateSeriesError, UsageError


def test_cantor_diameters_exact(cantor1d):
    series = diameter_series(cantor1d, n_max=15, replicas=16, seed=1)
    expected = 3.0 ** -np.arange(16)
    assert np.allclose(series.diam, expected[None, :], atol=1e-12, rtol=0)
    assert series.m0 == 1


def test_cantor2d_diameters_exact(cantor2d):
    series = diameter_series(cantor2d, n_max=12, replicas=16, seed=1)
    expected = 2.0 * 3.0 ** -np.arange(13)
    assert np.abs(series.diam - expected[None, :]).max() <= 1e-12


def test_reverse_monotonicity(cantor1d, cantor2d, const_family):
    # nesting needs a forward-invariant probe region; bounded domains qualify
    for fam, n_max in ((cantor1d, 20), (cantor2d, 15), (const_family, 10)):
        series = diameter_series(fam, n_max=n_max, replicas=32, seed=5)
        diffs = np.diff(series.diam[:, 1:], axis=1)
        assert np.all(diffs <= 1e-12)


def test_fit_rate_cantor(cantor1d):
    series = diameter_series(cantor1d, n_max=20, replicas=64, seed=3)
    fit = fit_rate(series)
    assert 0.32 <= fit.r_hat <= 0.35
    assert fit.r_squared >= 0.9
    assert fit.r_ci[0] <= fit.r_hat <= fit.r_ci[1]
    assert fit.warning is None
    # fitted envelope bounds the mean decay on the window
    mean = series.mean_diam()
    ns = np.arange(series.n_max + 1)
    window = slice(fit.n_range[0], fit.n_range[1] + 1)
    assert np.all(mean[window] <= fit.c_hat * fit.r_hat ** ns[window] * (1 + 1e-6))


def _hand_series(diam):
    diam = np.asarray(diam, dtype=float)
    boxes = np.zeros((diam.shape[1], diam.shape[0], 1))
    return sync.DiamSeries(diam, boxes, boxes, m0=1, seed=4, saturated=np.zeros(diam.shape[0], dtype=bool))


def test_fit_rate_bootstrap_keeps_the_fit_for_a_resample_without_steps():
    # a resample of only the all-zero replica has no usable step: it takes the full fit's slope
    series = _hand_series([0.5 ** np.arange(11), np.zeros(11)])
    fit = fit_rate(series)
    assert fit.r_hat == pytest.approx(0.5, rel=1e-12)
    assert not fit.degenerate
    assert fit.r_ci == pytest.approx((0.5, 0.5), rel=1e-12)


def test_fit_rate_too_few_usable_steps_raises():
    with pytest.raises(DegenerateSeriesError, match="only 4 usable steps"):
        fit_rate(_hand_series([0.5 ** np.arange(5)]))


def test_fit_rate_constant_family(const_family):
    series = diameter_series(const_family, n_max=10, replicas=8, seed=0)
    assert np.all(series.diam[:, 1:] == 0.0)
    fit = fit_rate(series)
    assert fit.degenerate
    assert fit.r_hat == 0.0


def test_fit_rate_expanding_family_warns():
    fam = make_family("lip-pair")  # linear slopes 2 and 1/2, images overlap
    series = diameter_series(fam, n_max=18, replicas=64, seed=11)
    fit = fit_rate(series)
    assert fit.r_hat > 1.0
    assert fit.warning is not None


def test_fit_rate_contracting_disjoint_pair():
    fam = make_family("lip-pair", params={"mode": "disjoint"})
    series = diameter_series(fam, n_max=18, replicas=64, seed=11)
    fit = fit_rate(series)
    assert fit.r_hat < 1.0
    assert fit.warning is None


def test_boundedness_flags():
    assert assumption2_check(make_family("cantor1d"), seed=5).bounded
    assert assumption2_check(make_family("cantor2d"), seed=5).bounded
    assert not assumption2_check(make_family("exp1d"), seed=5).bounded
    rep = assumption2_check(make_family("arctanexp2d"), seed=5)
    assert rep.bounded and rep.m0 >= 2
    assert assumption2_check(
        make_family("lip-pair", params={"mode": "disjoint"}), seed=5
    ).bounded
    assert not assumption2_check(make_family("lip-pair"), seed=5).bounded


def test_forward_gap_cantor(cantor1d):
    gaps = forward_attractor_gap(cantor1d, seed=7, x0=[0.5], n_checkpoints=15, tail_tol=1e-10)
    bound = 3.0 ** -gaps.checkpoints.astype(float)
    assert np.all(gaps.gap <= bound)
    assert np.all(gaps.gap <= gaps.bound + 1e-15)
    # the gap trends to zero
    assert gaps.gap[-1] < 1e-6


def test_forward_gap_follows_one_realization(cantor1d, cantor2d):
    # every cantor map contracts every coordinate by exactly 1/3, so along one
    # realization the orbit-to-attractor distance shrinks by 1/3 per step
    for fam, x0 in ((cantor1d, [0.5]), (cantor2d, [0.5, -0.5])):
        for seed in range(50):
            gaps = forward_attractor_gap(fam, seed=seed, x0=x0, n_checkpoints=20)
            assert np.all(np.abs(gaps.gap[1:] - gaps.gap[:-1] / 3) <= 1e-15), (fam.family, seed)


def test_forward_gap_cantor2d(cantor2d):
    gaps = forward_attractor_gap(cantor2d, seed=7, x0=[0.5, -0.5], n_checkpoints=12)
    assert np.all(gaps.gap <= 2.0 * 3.0 ** -gaps.checkpoints.astype(float))


def test_forward_gap_constant_family(const_family):
    gaps = forward_attractor_gap(const_family, seed=1, x0=[0.2], n_checkpoints=5)
    # zero up to one ulp of centroid accumulation
    assert np.all(gaps.gap <= 1e-15)


def test_forward_gap_reports_saturation(cantor1d, monkeypatch, tmp_path):
    assert not forward_attractor_gap(cantor1d, seed=7, x0=[0.5], n_checkpoints=8).saturated
    # under clamp 0.5 the second map (x / 3 + 2/3) saturates on every point
    clamped = make_family("cantor1d", clamp_bound=0.5)
    gaps = forward_attractor_gap(clamped, seed=7, x0=[0.3], n_checkpoints=8)
    assert gaps.saturated
    gaps.write_csv(tmp_path / "gap.csv")
    rows = (tmp_path / "gap.csv").read_text().splitlines()
    assert rows[0].split(",")[-1] == "saturated" and all(r.endswith(",1") for r in rows[1:])
    # the forward chain's flags count on their own, without the pullback's
    real = sync.pullback_batch

    def unflagged(*args, **kwargs):
        batch = real(*args, **kwargs)
        assert batch.saturated.any()
        batch.saturated[:] = False
        return batch

    monkeypatch.setattr(sync, "pullback_batch", unflagged)
    assert forward_attractor_gap(clamped, seed=7, x0=[0.3], n_checkpoints=8).saturated


def test_diam_series_csv(tmp_path, cantor1d):
    series = diameter_series(cantor1d, n_max=5, replicas=4, seed=1)
    fit = None
    path = tmp_path / "d.csv"
    series.write_csv(path, fit=fit, seed=9)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# seed=9"
    assert lines[1] == "n,mean_diam,q05,q95,bound_c_rn"
    assert len(lines) == 2 + 6
    # no fit: the bound is a blank last cell on every data row
    assert all(line.endswith(",") for line in lines[2:])
    # no seed: no comment line, the header comes first
    series.write_csv(path, fit=fit)
    assert path.read_text().split("\n")[0] == "n,mean_diam,q05,q95,bound_c_rn"


def test_m0_detection_spread_boxes():
    # two translated copies of the same contraction: per-replica boxes are
    # tiny but land far apart, so no early common box exists
    fam = make_family(
        "affine-general",
        params={"mats": [[[0.02]], [[0.02]]], "offs": [[0.0], [100.0]]},
        domain=Box([-200.0], [200.0]),
    )
    series = diameter_series(fam, n_max=6, replicas=32, seed=2)
    # hull spans ~100 while replica boxes shrink to ~0: rule never fires, fallback 1
    assert series.m0 == 1


@pytest.mark.parametrize("fid", ["exp1d", "cantor1d"])
def test_assumption2_check_needs_a_replica(fid):
    # like diameter_series: no replica is no evidence, for a bounded domain too
    with pytest.raises(UsageError, match="replicas must be >= 1"):
        assumption2_check(make_family(fid), seed=5, replicas=0)
