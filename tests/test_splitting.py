import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import oracles
from monosync import (
    Box,
    BoxCmp,
    JOrder,
    UsageError,
    cmp_boxes,
    exact_splitting_scan,
    find_splitting_witness,
    image_box,
    make_family,
    probe_cloud,
    projections_disjoint,
    sigma_decay,
)
from monosync.families import _jsonable


def _image_boxes(fam, blocks, probe):
    """One ``Box`` per block: the hull of the probe's image under the whole block."""
    blocks = np.asarray(blocks)
    lo, hi, _ = image_box(fam, blocks, blocks.shape[1], probe)
    return [Box(row_lo, row_hi) for row_lo, row_hi in zip(lo, hi)]


def test_exact_scan_cantor(cantor1d, order1):
    report = exact_splitting_scan(cantor1d, order1, m=1)
    assert report.verified
    assert report.method == "exact-scan"
    assert list(report.witness_a) == [1]
    assert list(report.witness_b) == [2]
    assert report.mass_a == pytest.approx(0.5, abs=1e-15)
    assert report.mass_b == pytest.approx(0.5, abs=1e-15)


def test_exact_scan_exp_unequal_probs(order1):
    fam = make_family("exp1d", probs=(0.3, 0.7))
    report = exact_splitting_scan(fam, order1, m=1)
    assert report.verified
    # the negative-image map comes first in the order
    assert list(report.witness_a) == [2]
    assert list(report.witness_b) == [1]
    assert report.mass_a == pytest.approx(0.7, abs=1e-15)
    assert report.mass_b == pytest.approx(0.3, abs=1e-15)


def test_exact_scan_identity_family_unverified(identity_family, order1):
    for m in (1, 2, 3):
        report = exact_splitting_scan(identity_family, order1, m=m)
        assert not report.verified


def test_exact_scan_m2_keeps_all_mass(cantor1d, order1):
    report = exact_splitting_scan(cantor1d, order1, m=2)
    assert report.verified
    assert report.mass_a > 0 and report.mass_b > 0
    assert report.mass_a + report.mass_b <= 1.0 + 1e-12


def test_witness_boxes_have_disjoint_projections(cantor1d, cantor2d, order1, order2_first):
    for fam, ordr in ((cantor1d, order1), (cantor2d, order2_first)):
        report = exact_splitting_scan(fam, ordr, m=1)
        assert report.verified
        probe = probe_cloud(fam.probe_box())
        box_a, box_b = _image_boxes(fam, [report.witness_a, report.witness_b], probe)
        assert projections_disjoint(box_a, box_b)


def test_monte_carlo_matches_exact_masses(cantor1d, order1):
    exact = exact_splitting_scan(cantor1d, order1, m=1)
    mc = find_splitting_witness(cantor1d, order1, m_max=1, n_blocks=64, seed=4)
    assert mc.verified and mc.method == "monte-carlo"
    assert abs(mc.mass_a - exact.mass_a) <= 3 * mc.stderr_a
    assert abs(mc.mass_b - exact.mass_b) <= 3 * mc.stderr_b


def test_monte_carlo_cantor2d(cantor2d, order2_first):
    report = find_splitting_witness(cantor2d, order2_first, m_max=1, n_blocks=16, seed=0)
    assert report.verified


def test_monte_carlo_rotations_unverified(rot2d):
    ordr = JOrder(2, frozenset([1]))
    report = find_splitting_witness(rot2d, ordr, m_max=3, n_blocks=32, seed=0)
    assert not report.verified


def test_monte_carlo_continuous_noise(order1):
    fam = make_family("slide1d")
    report = find_splitting_witness(fam, order1, m_max=2, n_blocks=64, seed=1)
    assert report.verified
    # witnesses are parameter blocks whose images are strictly ordered
    probe = probe_cloud(fam.probe_box())
    box_a, box_b = _image_boxes(fam, [report.witness_a, report.witness_b], probe)
    assert box_a.hi[0] < box_b.lo[0]


def test_monte_carlo_sides_are_an_ordered_pair(order1):
    # slide1d at m = 1 maps [0, 1] onto [2a/3, 2a/3 + 1/3], so a block a lies
    # strictly below a block b iff b - a > 1/2; the two kept sets must be an
    # ordered pair, whose parameter ranges [0, max A] and [min B, 1] then have
    # population masses summing below 1/2
    fam = make_family("slide1d")
    for seed in range(200):
        report = find_splitting_witness(fam, order1, m_max=1, n_blocks=32, seed=seed)
        assert report.verified and report.m == 1, seed
        a_max, b_min = report.blocks_a.max(), report.blocks_b.min()
        assert b_min - a_max > 0.5, seed
        assert a_max + (1.0 - b_min) < 0.5, seed
        assert report.n_blocks_a == len(report.blocks_a) and report.n_blocks_b == len(report.blocks_b)
        assert report.mass_a == report.n_blocks_a / 32 and report.mass_b == report.n_blocks_b / 32
        assert report.witness_a in report.blocks_a and report.witness_b in report.blocks_b


def test_monte_carlo_sides_have_ordered_image_boxes(cantor2d, order2_first):
    cases = [(make_family("slide1d"), JOrder(1, frozenset([1]))), (cantor2d, order2_first)]
    for (fam, ordr), seed in itertools.product(cases, range(5)):
        report = find_splitting_witness(fam, ordr, m_max=2, n_blocks=64, seed=seed)
        assert report.verified
        probe = probe_cloud(fam.probe_box())
        boxes_b = _image_boxes(fam, report.blocks_b, probe)
        for box_a in _image_boxes(fam, report.blocks_a, probe):
            assert all(cmp_boxes(box_a, box_b, ordr) is BoxCmp.LESS for box_b in boxes_b)


def test_sigma_decay_midpoint_never_hit(cantor1d, order1):
    series = sigma_decay(cantor1d, order1, m=1, x=0.5, s=1, j_max=8, replicas=500, seed=2)
    assert series.truncated_at == 1
    assert series.p_hat[0] == 0.0
    assert series.lambda_bound == 0.0


def test_sigma_decay_single_positive_estimate(cantor1d, order1):
    # 0.15 lies in [0, 1/3] but in no depth-2 interval: one positive estimate fixes lambda as p^(1/j)
    series = sigma_decay(cantor1d, order1, m=1, x=0.15, s=1, j_max=4, replicas=200, seed=1)
    assert series.p_hat.tolist() == [0.45, 0.0]
    assert series.lambda_bound == 0.45
    assert series.truncated_at == 2


def test_sigma_decay_first_level(cantor1d, order1):
    series = sigma_decay(cantor1d, order1, m=1, x=0.1, s=1, j_max=4, replicas=4000, seed=2)
    se = max(series.stderr[0], 1e-6)
    assert abs(series.p_hat[0] - 0.5) <= 3 * se


def test_sigma_decay_matches_enumeration_oracle(cantor1d, order1):
    series = sigma_decay(cantor1d, order1, m=1, x=0.1, s=1, j_max=8, replicas=8000, seed=7)
    for j, p, se in zip(series.j, series.p_hat, series.stderr):
        exact = oracles.cantor_membership_prob(0.1, int(j))
        assert abs(p - exact) <= 3 * max(se, np.sqrt(exact * (1 - exact) / 8000), 1e-6)


def test_sigma_decay_lambda_fit(cantor1d, order1):
    series = sigma_decay(cantor1d, order1, m=1, x=1 / 3, s=1, j_max=8, replicas=8000, seed=3)
    assert series.truncated_at is None
    assert abs(series.lambda_bound - 0.5) < 0.05


def test_sigma_decay_bounded_by_mass_rate(cantor1d, order1):
    report = exact_splitting_scan(cantor1d, order1, m=1)
    lam = 1.0 - report.rho
    series = sigma_decay(cantor1d, order1, m=1, x=0.1, s=1, j_max=8, replicas=8000, seed=9)
    for j, p, se in zip(series.j, series.p_hat, series.stderr):
        assert p <= lam ** int(j) + 3 * max(se, 1e-6)


def test_sigma_decay_degenerate_law(order1):
    fam = make_family("cantor1d", probs=(1.0, 0.0))
    series = sigma_decay(fam, order1, m=1, x=0.0, s=1, j_max=5, replicas=200, seed=0)
    # x = 0 stays in every image [0, 3^-j]
    assert np.all(series.p_hat == 1.0)


def test_sigma_decay_preconditions(cantor1d, order1):
    with pytest.raises(UsageError):
        sigma_decay(cantor1d, order1, m=1, x=0.5, s=1, j_max=4, replicas=50, seed=0)
    with pytest.raises(UsageError):
        sigma_decay(cantor1d, order1, m=1, x=0.5, s=2, j_max=4, replicas=200, seed=0)
    for x in (float("nan"), float("inf")):
        with pytest.raises(UsageError):
            sigma_decay(cantor1d, order1, m=1, x=x, s=1, j_max=4, replicas=200, seed=0)


def test_sigma_decay_csv(tmp_path, cantor1d, order1):
    series = sigma_decay(cantor1d, order1, m=1, x=1 / 3, s=1, j_max=4, replicas=500, seed=1)
    path = tmp_path / "sigma.csv"
    series.write_csv(path, seed=1)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# seed=1"
    assert lines[1] == "j,p_hat,stderr,lambda_pow_j"
    assert len(lines) == 2 + len(series.j)


def test_mean_clipped_projection_length_decays_geometrically(exp1d):
    # the windowed projection length of the domain image decays like the
    # membership-probability bound, even when raw images are unbounded
    from monosync import diameter_series
    from monosync.fitting import loglinear_fit

    series = diameter_series(exp1d, n_max=14, replicas=400, seed=3)
    ell = 3.0
    lo = np.clip(series.box_lo[:, :, 0], -ell, ell)
    hi = np.clip(series.box_hi[:, :, 0], -ell, ell)
    mean_len = (hi - lo).mean(axis=1)
    ns = np.arange(1, series.n_max + 1)
    pos = mean_len[1:] > 1e-12
    fit = loglinear_fit(ns[pos], mean_len[1:][pos])
    assert np.exp(fit.slope) < 1.0
    assert fit.r_squared >= 0.9


def test_report_serialization(cantor1d, order1):
    # a report is the dict of its fields, less those declared repr=False
    report = exact_splitting_scan(cantor1d, order1, m=1)
    assert report.blocks_a is not None
    doc = _jsonable(report, True)
    assert doc["verified"] is True
    assert type(doc["witness_a"]) is list and doc["witness_a"] == [1]
    assert doc["mass_a"] == 0.5
    assert "blocks_a" not in doc and "blocks_b" not in doc
    json.dumps(doc, allow_nan=False)
    # strict mode writes a field that is not finite as null
    assert _jsonable(dataclasses.replace(report, stderr_a=math.inf), True)["stderr_a"] is None
