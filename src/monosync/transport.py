"""Stationary sampling by pullback, measure push-forward, and Wasserstein-1.

The 1-D distance is the exact quantile coupling; small multivariate
problems use an exact min-cost matching under the taxicab metric; larger
ones fall back to a sliced approximation over fixed seeded directions and
say so in the report (Rabin et al. 2011; Bonneel et al. 2015).  When each
measure's weights are all the same float, the sliced path builds one
coupling plan for every direction and sorts a block of projections at a
time; its result is bit-identical to a quantile coupling per direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .engine import _chain, _draw_noise, _write_csv, pullback_batch
from .errors import NotConvergedError, UsageError
from .families import FiniteNoise, MapFamily, _default_probe
from .fitting import loglinear_fit
from .streams import derive_seed, stream_generator
from .sync import RateFit, assumption2_check

__all__ = [
    "EmpiricalMeasure",
    "TransportReport",
    "W1DecayCurve",
    "wasserstein1",
    "pullback_sample",
    "push_forward",
    "w1_decay_curve",
]

EXACT_MATCH_CAP = 512
SLICED_PROJECTIONS = 128
_SLICE_STREAM_SEED = 0x5731  # fixed so repeated calls share directions
_SLICE_BLOCK = 16  # directions sorted together by the equal-weight sliced kernel

_WEIGHT_TOL = 1e-12
_PULLBACK_CHUNK = 8192


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point cloud standing in for a probability measure on R^k."""

    points: np.ndarray
    weights: np.ndarray
    provenance: str = "user"
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if pts.shape[0] != w.shape[0]:
            raise UsageError("points and weights length mismatch")
        if pts.shape[0] < 1:
            raise UsageError("measure needs at least one point")
        if np.any(w < 0):
            raise UsageError("weights must be non-negative")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise UsageError(f"weights sum to {w.sum()!r}, not 1")
        if not np.isfinite(pts).all() and not self.meta.get("saturated"):
            raise UsageError("non-finite support points without a saturation flag")
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def is_uniform(self) -> bool:
        return bool(np.allclose(self.weights, 1.0 / self.n, rtol=1e-9, atol=0.0))

    def mean(self) -> np.ndarray:
        return self.weights @ self.points

    def var(self) -> np.ndarray:
        """Per-coordinate variance, computed with overflow ignored.

        Saturated points (at +-1e300 by default) have a variance of about
        1e600, beyond float64, so ``inf`` is the honest value and comes
        without a warning.
        """
        m = self.mean()
        with np.errstate(over="ignore"):
            return self.weights @ (self.points - m) ** 2

    @classmethod
    def uniform(cls, points, provenance: str = "user", meta: dict | None = None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        return cls(pts, w, provenance, meta or {})

    @classmethod
    def dirac(cls, x, n_points: int = 1):
        pt = np.asarray(x, dtype=float).reshape(1, -1)
        return cls.uniform(np.repeat(pt, n_points, axis=0))

    def resampled(self, n: int, rng: np.random.Generator) -> "EmpiricalMeasure":
        """Uniform n-point measure drawn from self (exact copy when already so)."""
        if n == self.n and self.is_uniform:
            return EmpiricalMeasure.uniform(self.points, self.provenance, dict(self.meta))
        idx = rng.choice(self.n, size=n, replace=True, p=self.weights)
        return EmpiricalMeasure.uniform(self.points[idx], self.provenance, dict(self.meta))

    def write_csv(self, path, seed: int | None = None) -> None:
        header = ",".join([f"x_{i + 1}" for i in range(self.dim)] + ["weight"])
        rows = (
            ",".join(f"{v:.17g}" for v in p) + f",{w:.17g}"
            for p, w in zip(self.points, self.weights)
        )
        _write_csv(path, seed, header, rows)

    @classmethod
    def read_csv(cls, path) -> "EmpiricalMeasure":
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("x_1"):
                    continue
                rows.append([float(v) for v in line.split(",")])
        arr = np.asarray(rows)
        w = arr[:, -1]
        return cls(arr[:, :-1], w / w.sum(), provenance="user")


@dataclass(frozen=True)
class TransportReport:
    distance: float
    method: str  # "sorted-1d" | "exact-matching" | "sliced"
    n_projections: int | None = None

    def to_dict(self) -> dict:
        return {
            "distance": self.distance,
            "method": self.method,
            "n_projections": self.n_projections,
        }


def _coupling_plan(cw1, cw2):
    """Quantile-coupling cells from two cumulative weight vectors.

    Returns each cell's width and the index, into either side's sorted
    support, of the atom that covers the cell.
    """
    edges = np.concatenate([[0.0], np.sort(np.concatenate([cw1[:-1], cw2[:-1]])), [1.0]])
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    i1 = np.minimum(np.searchsorted(cw1, mids, side="left"), cw1.size - 1)
    i2 = np.minimum(np.searchsorted(cw2, mids, side="left"), cw2.size - 1)
    return widths, i1, i2


def _w1_quantile_coupling(x1, w1, x2, w2) -> float:
    """Exact 1-D W1 through the quantile coupling; supports general weights."""
    o1 = np.argsort(x1, kind="stable")
    o2 = np.argsort(x2, kind="stable")
    widths, i1, i2 = _coupling_plan(np.cumsum(w1[o1]), np.cumsum(w2[o2]))
    return float(np.sum(widths * np.abs(x1[o1][i1] - x2[o2][i2])))


def _w1_1d(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> float:
    if mu1.n == mu2.n and mu1.is_uniform and mu2.is_uniform:
        return float(np.mean(np.abs(np.sort(mu1.points[:, 0]) - np.sort(mu2.points[:, 0]))))
    return _w1_quantile_coupling(mu1.points[:, 0], mu1.weights, mu2.points[:, 0], mu2.weights)


def _w1_exact_matching(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> float:
    # canonical orientation: the assignment solver may pick different
    # equal-cost matchings (ulp-level total differences) depending on which
    # side indexes the rows, so symmetry is enforced by construction
    if mu1.points.tobytes() > mu2.points.tobytes():
        mu1, mu2 = mu2, mu1
    cost = cdist(mu1.points, mu2.points, metric="cityblock")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sort(cost[rows, cols]).sum() / cost.shape[0])


def _sliced_directions(dim: int, n_projections: int) -> np.ndarray:
    gen = stream_generator(_SLICE_STREAM_SEED, "sliced", dim)
    vecs = gen.standard_normal((n_projections, dim))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs / np.maximum(norms, 1e-300)


def _w1_sliced(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure, n_projections: int) -> float:
    """Mean over fixed directions of the exact 1-D W1 between the projections.

    When every weight of each measure is the same float, the cumulative
    weights ``cumsum(w[argsort(x)])`` do not depend on the sort order, so
    one coupling plan serves every direction: a block of projections is
    sorted at a time and gathered through the shared plan.  Each projection
    is still the per-direction ``points @ d`` and each direction's cost
    still one 1-D ``np.sum`` added in direction order (a batched matmul
    rounds some projections differently, and numpy does not promise that
    a sum along an axis adds in the same order), so the result is
    bit-identical to running the quantile coupling per direction: the
    sorted values agree except for the order of -0.0 and 0.0, which
    ``abs`` of the gap erases.  Other weights take the per-direction
    coupling.
    """
    dirs = _sliced_directions(mu1.dim, n_projections)
    w1, w2 = mu1.weights, mu2.weights
    total = 0.0
    if not (np.all(w1 == w1[0]) and np.all(w2 == w2[0])):
        for d in dirs:
            total += _w1_quantile_coupling(mu1.points @ d, w1, mu2.points @ d, w2)
        return total / n_projections
    widths, i1, i2 = _coupling_plan(np.cumsum(w1), np.cumsum(w2))
    for start in range(0, n_projections, _SLICE_BLOCK):
        rows = dirs[start : start + _SLICE_BLOCK]
        proj1 = np.stack([mu1.points @ d for d in rows])
        proj2 = np.stack([mu2.points @ d for d in rows])
        proj1.sort(axis=1)
        proj2.sort(axis=1)
        gap = proj1[:, i1]
        gap -= proj2[:, i2]
        np.abs(gap, out=gap)
        gap *= widths
        for row in gap:
            total += float(np.sum(row))
    return total / n_projections


def wasserstein1(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> TransportReport:
    """W1 distance between empirical measures.

    One dimension is always exact (quantile coupling).  In higher dimension
    uniform equal-size inputs up to 512 points get an exact taxicab
    min-cost matching; anything larger is sliced over 128 fixed seeded
    projection directions and labeled accordingly.  When each measure's
    weights are one repeated float, the directions share one coupling plan
    and their projections are sorted a block at a time; the distance is
    bit-identical to one weighted quantile coupling per direction, which
    other weights still run.
    """
    if mu1.dim != mu2.dim:
        raise UsageError("measures live in different dimensions")
    if mu1.dim == 1:
        return TransportReport(_w1_1d(mu1, mu2), "sorted-1d")
    if max(mu1.n, mu2.n) <= EXACT_MATCH_CAP:
        if mu1.n != mu2.n or not (mu1.is_uniform and mu2.is_uniform):
            raise UsageError(
                "exact matching requires uniform weights and equal sizes; "
                "resample the measures or use larger N for the sliced path"
            )
        return TransportReport(_w1_exact_matching(mu1, mu2), "exact-matching")
    return TransportReport(
        _w1_sliced(mu1, mu2, SLICED_PROJECTIONS), "sliced", SLICED_PROJECTIONS
    )


def pullback_sample(
    fam: MapFamily,
    seed: int,
    n_samples: int,
    tol: float = 1e-9,
    n_max: int = 4096,
) -> EmpiricalMeasure:
    """Sample the stationary law: one pullback limit per stream id 0..N-1.

    Individual streams that fail to reach tolerance are dropped and
    counted; more than 1% failures aborts with the worst diameter.  The
    kept samples whose pullback saturated the clamp are counted in
    ``meta["n_saturated"]``.
    """
    if n_samples < 1:
        raise UsageError("n_samples must be >= 1")
    probe = _default_probe(fam)
    results = []
    for start in range(0, n_samples, _PULLBACK_CHUNK):
        chunk = range(start, min(start + _PULLBACK_CHUNK, n_samples))
        results.append(pullback_batch(fam, seed, chunk, probe, tol, n_max))
    points = np.concatenate([r.points for r in results], axis=0)
    converged = np.concatenate([r.converged for r in results])
    saturated = np.concatenate([r.saturated for r in results])
    n_failed = int((~converged).sum())
    if n_failed > 0.01 * n_samples:
        worst = max(float(r.diam[~r.converged].max()) for r in results if (~r.converged).any())
        raise NotConvergedError(n_max, worst)
    meta = {
        "n_failed": n_failed,
        "n_saturated": int((saturated & converged).sum()),
        "tol": tol,
        "saturated": bool(saturated.any()),
        "seed": int(seed),
    }
    return EmpiricalMeasure.uniform(points[converged], provenance="pullback", meta=meta)


def push_forward(fam: MapFamily, mu: EmpiricalMeasure, steps: int, seed: int) -> EmpiricalMeasure:
    """Advance every particle ``steps`` iterations with independent noise.

    Weights are preserved; particle i's noise comes from row i of a block
    matrix drawn in one shot, so results do not depend on chunking.
    """
    if steps < 0:
        raise UsageError("steps must be >= 0")
    if mu.dim != fam.dim:
        raise UsageError("measure dimension does not match family")
    if steps == 0:
        return EmpiricalMeasure(mu.points, mu.weights, "pushforward", dict(mu.meta))
    blocks = _draw_noise(fam.noise, stream_generator(seed, "push"), (mu.n, steps))
    pts = np.array(mu.points)  # a copy: _chain advances it in place
    meta = dict(mu.meta)
    saturated = bool(meta.get("saturated", False))
    for _, sat in _chain(fam, blocks, pts):
        saturated = saturated or bool(sat.any())
    meta["saturated"] = saturated
    return EmpiricalMeasure(pts, mu.weights, "pushforward", meta)


def markov_step(fam: MapFamily, mu: EmpiricalMeasure) -> EmpiricalMeasure:
    """Exact one-step Markov operator on an empirical measure (finite noise).

    The pushed measure is the mixture ``sum_a p_a (f_a)_# mu`` with q*N
    atoms, so unlike :func:`push_forward` it carries no per-particle
    sampling noise.
    """
    if not isinstance(fam.noise, FiniteNoise):
        raise UsageError("the exact operator step needs finite noise; use push_forward")
    pts = []
    wts = []
    saturated = bool(mu.meta.get("saturated", False))
    for a, p in enumerate(fam.noise.probs, start=1):
        if p == 0.0:
            continue
        img, sat = fam.apply_batch(a, mu.points)
        saturated = saturated or sat
        pts.append(img)
        wts.append(p * mu.weights)
    meta = dict(mu.meta)
    meta["saturated"] = saturated
    return EmpiricalMeasure(np.vstack(pts), np.concatenate(wts), "pushforward", meta)


@dataclass
class W1DecayCurve:
    """W1(T^n initial, stationary reference) for n = 0..n_max, with a rate fit."""

    ns: np.ndarray
    w1: np.ndarray
    floor: float
    fit: RateFit | None
    warnings: list[str]
    method: str

    def write_csv(self, path, seed: int | None = None) -> None:
        rows = []
        for n, v in zip(self.ns, self.w1):
            bound = "" if self.fit is None else f"{self.fit.c_hat * self.fit.r_hat ** int(n):.17g}"
            rows.append(f"{n},{v:.17g},{bound}")
        _write_csv(path, seed, "n,w1,c_rn_bound", rows)


def _calibrate_floor(ref: EmpiricalMeasure, n_other: int, seed: int) -> float:
    """Sampling-noise level of W1(sample of size n_other, ref).

    Half-splits of the reference measure the noise of two size-R/2 samples
    of the same law; the W1 noise of independent empirical samples scales
    like sqrt(1/N1 + 1/N2), which rescales the split value to the actual
    sample sizes.  Averaging over five splits tames the half-normal
    variability of any single draw.
    """
    r = ref.n
    rng = stream_generator(seed, "w1-floor")
    half = r // 2
    vals = []
    for _ in range(5):
        perm = rng.permutation(r)
        a = EmpiricalMeasure.uniform(ref.points[perm[:half]])
        b = EmpiricalMeasure.uniform(ref.points[perm[half : 2 * half]])
        vals.append(wasserstein1(a, b).distance)
    scale = float(np.mean(vals)) / math.sqrt(2.0 / half)
    return scale * math.sqrt(1.0 / n_other + 1.0 / r)


def w1_decay_curve(
    fam: MapFamily,
    initial: EmpiricalMeasure,
    n_max: int,
    n_particles: int,
    seed: int,
    ref_size: int = 4096,
) -> W1DecayCurve:
    """Track W1 between the pushed-forward initial measure and a fixed pullback sample.

    The reference is a ``ref_size``-point :func:`pullback_sample` at its
    default tolerance and depth cap.  The sampling-noise floor is
    calibrated by half-splitting it.  The rate fit uses the contiguous
    initial stretch of steps still above three times that floor and
    subtracts the floor before the log-linear regression: finite-sample W1
    values sit roughly floor-above the true distance, and fitting the raw
    values flattens the tail of the window and biases the rate upward.
    """
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    ref = pullback_sample(fam, seed, ref_size)
    floor = _calibrate_floor(ref, n_particles, derive_seed(seed, "w1-floor"))

    warnings: list[str] = []
    bounded = assumption2_check(fam, seed, replicas=32)
    if not bounded.bounded:
        warnings.append(
            "no bounded absorbing set detected; pushed-forward supports may stay "
            "unbounded and the geometric W1 decay is not guaranteed"
        )

    cur = initial.resampled(n_particles, stream_generator(seed, "w1-init"))
    ns = np.arange(n_max + 1)
    vals = np.empty(n_max + 1)
    first = wasserstein1(cur, ref)
    method = first.method
    vals[0] = first.distance
    for n in range(1, n_max + 1):
        cur = push_forward(fam, cur, 1, derive_seed(seed, f"w1-push-{n}"))
        vals[n] = wasserstein1(cur, ref).distance

    cutoff = 3.0 * floor
    usable = []
    for n in range(1, n_max + 1):
        if vals[n] <= cutoff:
            break
        usable.append(n)
    fit = None
    if len(usable) >= 2:
        idx = np.array(usable)
        lf = loglinear_fit(idx, vals[idx] - floor)
        half = 1.96 * lf.slope_se
        fit = RateFit(
            r_hat=float(np.exp(lf.slope)),
            c_hat=float(np.exp(lf.intercept)),
            r_ci=(float(np.exp(lf.slope - half)), float(np.exp(lf.slope + half))),
            n_range=(int(idx[0]), int(idx[-1])),
            r_squared=lf.r_squared,
        )
    else:
        warnings.append(
            "fewer than two steps above the sampling noise floor; no rate fitted"
        )
    return W1DecayCurve(ns=ns, w1=vals, floor=floor, fit=fit, warnings=warnings, method=method)
