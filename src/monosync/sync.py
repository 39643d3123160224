"""Synchronization diagnostics: image-diameter decay and the forward gap.

Diameters are measured on reverse-order compositions, whose probe images
are nested, so every replica's series is monotone and the mean series has
the same law as the forward one.  The decay rate is fitted log-linearly on
the window past the detected burn-in depth, excluding steps already at the
floating-point noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    _BlockTable,
    _chain,
    _taxicab_diams,
    _write_csv,
    image_box,
    pullback_batch,
    sample_block,
)
from .errors import DegenerateSeriesError, NotConvergedError, UsageError
from .families import MapFamily, _default_probe
from .fitting import _ls_slopes, loglinear_fit
from .order import Box
from .streams import stream_generator

__all__ = [
    "DiamSeries",
    "RateFit",
    "BoundednessReport",
    "GapSeries",
    "diameter_series",
    "fit_rate",
    "assumption2_check",
    "forward_attractor_gap",
]

# Steps with diameters under this floor carry only rounding noise and are
# excluded from log-linear fits.
DIAM_FIT_FLOOR = 1e3 * np.finfo(float).eps

_N_BOOT = 200  # replica bootstrap resamples behind a rate's confidence interval
_M0_MAX = 4  # deepest composition tried by the boundedness check
_TAIL_MAX = 4096  # deepest pullback of the forward gap's attractor point


@dataclass
class DiamSeries:
    """Per-replica taxicab diameters of reverse-composition probe images.

    Each replica's series is non-increasing whenever the probe region is
    forward-invariant under every member map (bounded invariant domains
    qualify; the stand-in probe of an unbounded domain may grow for a few
    steps before the contraction regime is reached).
    """

    diam: np.ndarray      # (replicas, n_max+1)
    box_lo: np.ndarray    # (n_max+1, replicas, dim)
    box_hi: np.ndarray    # (n_max+1, replicas, dim)
    m0: int
    seed: int
    saturated: np.ndarray  # (replicas,) bool

    @property
    def replicas(self) -> int:
        return self.diam.shape[0]

    @property
    def n_max(self) -> int:
        return self.diam.shape[1] - 1

    def mean_diam(self) -> np.ndarray:
        return self.diam.mean(axis=0)

    def write_csv(self, path, fit: "RateFit | None" = None, seed: int | None = None) -> None:
        ns = range(self.n_max + 1)
        q05, q95 = np.quantile(self.diam, 0.05, axis=0), np.quantile(self.diam, 0.95, axis=0)
        bound = [""] * len(ns) if fit is None else fit.bound(ns)
        _write_csv(path, seed, {
            "n": ns, "mean_diam": self.mean_diam(), "q05": q05, "q95": q95, "bound_c_rn": bound,
        })


@dataclass(frozen=True)
class RateFit:
    """Fitted exponential decay ``c * r^n`` with bootstrap uncertainty."""

    r_hat: float
    c_hat: float
    r_ci: tuple[float, float]
    n_range: tuple[int, int]
    r_squared: float
    warning: str | None = None
    degenerate: bool = False

    def bound(self, ns) -> list[float]:
        """The bound ``c * r^n`` at each depth of ``ns``, and ``inf`` where ``r^n`` overflows.

        Computed in Python floats, so every finite cell keeps its bits.
        """
        out = []
        for n in ns:
            try:
                out.append(self.c_hat * self.r_hat ** n)
            except OverflowError:  # r_hat > 1 and n past the largest float
                out.append(math.inf)
        return out


def _detect_m0(box_lo: np.ndarray, box_hi: np.ndarray) -> int:
    """First depth at which all replica boxes fit one common box of modest volume.

    "Modest" means the hull over replicas has volume at most 10x the median
    replica-box volume; depth 1 is the fallback when no step qualifies.
    """
    n_steps = box_lo.shape[0]
    for n in range(1, n_steps):
        spans = box_hi[n] - box_lo[n]
        vols = np.prod(spans, axis=1)
        hull_span = box_hi[n].max(axis=0) - box_lo[n].min(axis=0)
        hull_vol = float(np.prod(hull_span))
        if hull_vol <= 10.0 * float(np.median(vols)):
            return n
    return 1


def diameter_series(fam: MapFamily, n_max: int, replicas: int, seed: int) -> DiamSeries:
    """Reverse-composition probe-image diameters for every replica and depth."""
    if replicas < 1:
        raise UsageError("replicas must be >= 1")
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    probe = _default_probe(fam)
    table = _BlockTable(fam.noise, seed, "sync", range(replicas))
    table.ensure(n_max)
    diam = np.empty((replicas, n_max + 1))
    box_lo = np.empty((n_max + 1, replicas, fam.dim))
    box_hi = np.empty((n_max + 1, replicas, fam.dim))
    saturated = np.zeros(replicas, dtype=bool)
    for n in range(n_max + 1):
        box_lo[n], box_hi[n], sat = image_box(fam, table.values, n, probe)
        saturated |= sat
        diam[:, n] = (box_hi[n] - box_lo[n]).sum(axis=1)
    m0 = _detect_m0(box_lo, box_hi)
    return DiamSeries(diam=diam, box_lo=box_lo, box_hi=box_hi, m0=m0, seed=seed, saturated=saturated)


def fit_rate(series: DiamSeries) -> RateFit:
    """Log-linear decay fit of the mean diameter past the burn-in depth.

    Replica-mean diameters that hit exact zero early make the series
    degenerate and the rate is reported as 0 by convention.  Otherwise at
    least five usable steps past the burn-in are required.  The confidence
    interval is a replica bootstrap of 200 resamples: their replica indices
    are drawn in one block, each resample's mean diameter sums its replicas
    in draw order, and its slope is that of the per-resample fit, bit for
    bit.
    """
    mean = series.mean_diam()
    ns = np.arange(series.n_max + 1)
    window = (ns >= max(series.m0, 1)) & (mean > DIAM_FIT_FLOOR)
    usable = ns[window]
    if (mean[1:] == 0.0).any() and usable.size < 5:
        return RateFit(
            r_hat=0.0,
            c_hat=0.0,
            r_ci=(0.0, 0.0),
            n_range=(int(series.m0), int(series.n_max)),
            r_squared=1.0,
            degenerate=True,
        )
    if usable.size < 5:
        raise DegenerateSeriesError(
            f"only {usable.size} usable steps past m0={series.m0}; need 5"
        )
    fit = loglinear_fit(usable, mean[window])
    r_hat = float(np.exp(fit.slope))
    c_hat = float(np.exp(fit.intercept))

    # each row of the one draw is what integers(0, R, size=R) draws, and each
    # mean adds its replicas in draw order, as mean(axis=0) does
    rng = stream_generator(series.seed, "rate-bootstrap")
    idx = rng.integers(0, series.replicas, size=(_N_BOOT, series.replicas))
    bmean = series.diam[idx[:, 0]]
    for col in idx.T[1:]:
        bmean += series.diam[col]
    bmean /= series.replicas
    bwin = window & (bmean > DIAM_FIT_FLOOR)
    # resamples of one fit mask are fitted as one block of rows; a resample
    # with fewer than two usable steps keeps the full fit's slope
    slopes = np.full(_N_BOOT, fit.slope)
    masks, group = np.unique(bwin, axis=0, return_inverse=True)
    for g, mask in enumerate(masks):
        if mask.sum() >= 2:
            rows = group == g
            x = ns[mask].astype(float)
            slopes[rows] = _ls_slopes(x, np.log(bmean[np.ix_(rows, mask)]), np.ones_like(x))[0]
    ci = (float(np.exp(np.quantile(slopes, 0.025))), float(np.exp(np.quantile(slopes, 0.975))))
    warning = None
    if r_hat >= 1.0:
        warning = "no contraction detected (r_hat >= 1); splitting may not hold"
    return RateFit(
        r_hat=r_hat,
        c_hat=c_hat,
        r_ci=ci,
        n_range=(int(usable[0]), int(usable[-1])),
        r_squared=fit.r_squared,
        warning=warning,
    )


@dataclass(frozen=True)
class BoundednessReport:
    """Empirical check that some composition depth maps everything into one bounded set.

    Bounded domains pass trivially.  For unbounded domains the probe box is
    inflated by growing scale factors; boundedness at depth m0 requires the
    image magnitudes to stabilize instead of tracking the probe scale.
    """

    bounded: bool
    m0: int
    bound_box: Box | None
    magnitudes: dict


def assumption2_check(fam: MapFamily, seed: int, replicas: int = 64) -> BoundednessReport:
    """Detect whether depth-m0 images land in a common bounded set.

    Cannot prove boundedness over the true domain.  It images the probe box
    scaled by 1, 4 and 16 at depths m0 = 1..4 and reports the smallest depth
    at which, across all sampled replicas, nothing saturates and the max
    image magnitude at scale 16 is at most 1.5 times that at scale 1; else
    an unbounded verdict.  Each scaled box is probed as every high-level
    function probes (``families._default_probe``): for a family with a
    monotonicity declaration its two sandwich corners, whose image hull
    holds the image of the whole box, so the magnitudes and the bound box
    are those of the whole scaled box.
    """
    if replicas < 1:
        raise UsageError("replicas must be >= 1")
    if fam.domain is not None:
        return BoundednessReport(True, 1, fam.domain, {})
    table = _BlockTable(fam.noise, seed, "bounded", range(replicas))
    table.ensure(_M0_MAX)
    base = fam.probe_box()
    mags: dict = {}
    for m0 in range(1, _M0_MAX + 1):
        per_scale = []
        sat_any = False
        lo_u = None
        hi_u = None
        for sc in (1.0, 4.0, 16.0):
            probe = _default_probe(fam, base.scaled(sc))
            lo, hi, sat = image_box(fam, table.values, m0, probe)
            sat_any = sat_any or bool(sat.any())
            per_scale.append(float(max(abs(lo.min()), abs(hi.max()))))
            lo_u = lo.min(axis=0) if lo_u is None else np.minimum(lo_u, lo.min(axis=0))
            hi_u = hi.max(axis=0) if hi_u is None else np.maximum(hi_u, hi.max(axis=0))
        mags[m0] = per_scale
        small, big = per_scale[0], per_scale[-1]
        ratio = 1.0 if big <= 1e-12 else big / max(small, 1e-12)
        if not sat_any and ratio <= 1.5:
            return BoundednessReport(True, m0, Box(lo_u, hi_u), mags)
    return BoundednessReport(False, _M0_MAX, None, mags)


@dataclass
class GapSeries:
    """Distance between the forward orbit and the attractor along the same noise.

    ``depth`` is the minimal depth of the one pullback behind the attractor
    point; ``write_csv`` repeats it on every row.  ``saturated`` is whether
    that pullback or any forward step of the chain saturated the clamp,
    repeated on every row as the last column.
    """

    checkpoints: np.ndarray
    gap: np.ndarray
    bound: np.ndarray      # forward probe-image diameter at each checkpoint
    depth: int             # minimal backward depth of the attractor point's pullback
    saturated: bool

    def write_csv(self, path, seed: int | None = None) -> None:
        columns = {"n": self.checkpoints, "gap": self.gap, "image_diam_bound": self.bound}
        columns["pullback_depth"] = np.full(len(self.checkpoints), self.depth)
        columns["saturated"] = np.full(len(self.checkpoints), int(self.saturated))
        _write_csv(path, seed, columns)


def forward_attractor_gap(
    fam: MapFamily,
    seed: int,
    x0,
    n_checkpoints: int,
    tail_tol: float = 1e-10,
) -> GapSeries:
    """Gap between the forward orbit and the pullback attractor along one realization.

    The attractor point at time 0 is the pullback limit over the
    ``gap-tail`` stream: its probe image is ``tail_tol``-small, as
    ``stationary --tol`` bounds its samples, and ``depth`` is its minimal
    depth.  The attractor is invariant, so its point at checkpoint n is
    that pullback carried n steps forward along the forward noise: it
    rides the forward chain as one more row, after the probe images and
    the orbit point, and the gap is the taxicab distance between the last
    two rows.  Both points lie in the forward image of the probe hull,
    whose diameter is reported as the per-checkpoint bound.  Raises
    :class:`NotConvergedError` when the pullback does not reach
    ``tail_tol`` within depth 4096.
    """
    if n_checkpoints < 1:
        raise UsageError("need at least one checkpoint")
    x = np.asarray(x0, dtype=float).reshape(1, fam.dim)
    probe = np.unique(np.vstack([_default_probe(fam), x]), axis=0)
    limit = pullback_batch(fam, seed, [0], probe, tail_tol, _TAIL_MAX, label="gap-tail")
    if not limit.converged[0]:
        raise NotConvergedError(_TAIL_MAX, float(limit.diam[0]))

    fwd_block = sample_block(fam.noise, seed, 0, n_checkpoints, label="gap-fwd")
    gap = np.empty(n_checkpoints)
    bound = np.empty(n_checkpoints)
    # one forward chain: the probe images, then the orbit point, then the attractor point
    img = np.vstack([probe, x, limit.points])[None]
    sat = limit.saturated.copy()
    for j, img in enumerate(_chain(fam, fwd_block[None], img, sat)):
        gap[j] = float(np.abs(img[0, -2] - img[0, -1]).sum())
        bound[j] = float(_taxicab_diams(img[:, :-2])[0])
    return GapSeries(
        checkpoints=np.arange(1, n_checkpoints + 1),
        gap=gap,
        bound=bound,
        depth=int(limit.n_used[0]),
        saturated=bool(sat[0]),
    )
