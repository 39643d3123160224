"""The KS test on scipy.special against scipy.stats.kstest, bit for bit."""

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest, kstwo

from monosync.kolmogorov import ks_sf, kstest_norm

SIZES = [*range(1, 161), 500, 1000, 1001, 100001]


def thresholds(n):
    """Each D at which the survival path can switch method, for n points."""
    return [
        0.5 / n, 1.0 / n, (n - 1) / n,  # n D at 0.5, 1 and n - 1 (Ruben-Gambino)
        0.5,  # 2 * smirnov is exact from here
        *(np.sqrt(c / n) for c in (0.754693, 4.0, 2.2, 370.0)),  # n D^2
        (1.4 / n) ** (2 / 3),  # n D^1.5: Durbin's matrix or Pelz-Good
    ]


def bits(value):
    return np.float64(value).tobytes()


def sample_with_statistic(d, n):
    """n points whose KS distance to N(0, 1) is D+ = d, up to ndtr's rounding."""
    u = np.clip(np.arange(1, n + 1) / n - d, 0.0, 1.0)
    return ndtri(u)


@pytest.mark.parametrize("n", SIZES)
def test_kstest_norm_matches_scipy_at_each_threshold(n):
    for thr in thresholds(n):
        for rel, below in ((1 - 1e-7, True), (1 + 1e-7, False)):
            target = thr * rel
            if not 0.5 / n < target < 1:  # no sample of n points has D < 0.5/n
                continue
            x = sample_with_statistic(target, n)
            want = kstest(x, "norm")
            d, p = kstest_norm(x)
            assert (d < thr) == below, (n, thr, d)  # on the intended side
            assert (bits(d), bits(p)) == (bits(want.statistic), bits(want.pvalue)), (n, target)


@pytest.mark.parametrize("n", SIZES)
def test_ks_sf_matches_kstwo_at_each_threshold(n):
    for thr in thresholds(n):
        near = [np.nextafter(thr, -np.inf), thr, np.nextafter(thr, np.inf), thr * (1 - 1e-7), thr * (1 + 1e-7)]
        for d in near:
            assert bits(ks_sf(d, n)) == bits(kstwo.sf(d, n)), (n, d)


@pytest.mark.parametrize("x", [
    [0.3, float("nan"), -1.0],
    [float("nan")] * 4,
    [float("inf"), 0.0, float("-inf")],
    [float("inf")] * 3,
    [float("-inf"), 1.0],
    [2.0] * 7,
    [0.0] * 600,
    [0.7],
    [0.0],
], ids=["nan", "all-nan", "both-infs", "all-inf", "minus-inf", "constant", "constant-zero", "one-point", "one-zero"])
def test_kstest_norm_matches_scipy_on_special_samples(x):
    # as kstest's default nan_policy, a NaN anywhere gives (nan, nan), not p = 1
    want = kstest(x, "norm")
    got = kstest_norm(x)
    assert (bits(got[0]), bits(got[1])) == (bits(want.statistic), bits(want.pvalue))


def test_random_samples_match_scipy():
    rng = np.random.default_rng(7)
    for n in (3, 17, 140, 141, 999, 5000):
        for scale, shift in ((1.0, 0.0), (0.6, 0.0), (1.0, 0.4), (1.8, -0.2)):
            x = rng.standard_normal(n) * scale + shift
            want = kstest(x, "norm")
            d, p = kstest_norm(x)
            assert (bits(d), bits(p)) == (bits(want.statistic), bits(want.pvalue)), (n, scale, shift)
