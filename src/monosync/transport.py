"""Stationary sampling by pullback, measure push-forward, and Wasserstein-1.

The 1-D distance is the exact quantile coupling; small multivariate
problems use an exact min-cost matching under the taxicab metric; larger
ones fall back to a sliced approximation over fixed seeded directions and
say so in the report (Rabin et al. 2011; Bonneel et al. 2015).  When both
measures are uniform (``EmpiricalMeasure.is_uniform``: every weight the
same float), the sliced path builds one coupling plan for every direction
and sorts a block of projections at a time; its result is bit-identical
to a quantile coupling per direction.

Two savings keep those bits.  :func:`w1_decay_curve` compares every step
with one fixed reference, so it sorts the reference's projections once and
keeps them on the reference measure; every sliced call against it reads
them instead of projecting and sorting again.  And two equal-size measures
of equal weights pair the k-th sorted projection of one with the k-th of
the other: their coupling plan alternates those cells with zero-width
ones, which are left as zeros in a buffer of the plan's length, so each
direction's cost is the same ``np.sum`` over the same array without a
gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import _chain, _stream_values, _write_csv, pullback_batch
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
    "markov_step",
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
    meta: dict = field(default_factory=dict, compare=False)
    # the points' sliced projections, each row sorted, when kept by _keep_sorted_projections
    _sorted_projections: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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
        """Whether every weight is the same float: the one uniform-weights rule of this module."""
        return bool(np.all(self.weights == self.weights[0]))

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
    def uniform(cls, points, meta: dict | None = None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        return cls(pts, w, meta or {})

    @classmethod
    def dirac(cls, x):
        return cls.uniform(np.array(x, dtype=float).reshape(1, -1))

    def resampled(self, n: int, rng: np.random.Generator) -> "EmpiricalMeasure":
        """Uniform n-point measure drawn from self (exact copy when already so)."""
        if n == self.n and self.is_uniform:
            return EmpiricalMeasure.uniform(self.points, dict(self.meta))
        idx = rng.choice(self.n, size=n, replace=True, p=self.weights)
        return EmpiricalMeasure.uniform(self.points[idx], dict(self.meta))

    def write_csv(self, path, seed: int | None = None) -> None:
        columns = {f"x_{i + 1}": self.points[:, i] for i in range(self.dim)}
        columns["weight"] = self.weights
        _write_csv(path, seed, columns)

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
        return cls(arr[:, :-1], w / w.sum())


@dataclass(frozen=True)
class TransportReport:
    distance: float
    method: str  # "sorted-1d" | "exact-matching" | "sliced"
    n_projections: int | None = None


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
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

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


def _sorted_projections(points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """One row per direction: the per-direction ``points @ d``, sorted.

    A batched matmul would round some projections differently, so each
    row is its own matrix-vector product, written into place so that only
    one row's temporary is live.
    """
    proj = np.empty((len(dirs), points.shape[0]))
    for row, d in zip(proj, dirs):
        row[:] = points @ d
    proj.sort(axis=1)
    return proj


def _keep_sorted_projections(mu: EmpiricalMeasure) -> None:
    """Sort ``mu``'s projections along every sliced direction once, for later sliced calls.

    Holds one (SLICED_PROJECTIONS, n) float64 array for as long as ``mu``
    lives; its points are read-only, so the rows stay valid.
    """
    dirs = _sliced_directions(mu.dim, SLICED_PROJECTIONS)
    object.__setattr__(mu, "_sorted_projections", _sorted_projections(mu.points, dirs))


def _sorted_block(mu: EmpiricalMeasure, dirs: np.ndarray, start: int) -> np.ndarray:
    rows = slice(start, start + _SLICE_BLOCK)
    if mu._sorted_projections is not None:
        return mu._sorted_projections[rows]
    return _sorted_projections(mu.points, dirs[rows])


def _block_costs(s1, s2, widths, i1, i2, paired_buffer) -> list[float]:
    """Each row's quantile-coupling cost between the sorted projections ``s1`` and ``s2``.

    ``paired_buffer`` is the zero-filled buffer of a paired plan (see
    :func:`_w1_sliced`).  A block whose total is not finite, and a plan
    without a buffer, go through the plan's gather.
    """
    if paired_buffer is not None:
        even = paired_buffer[:, ::2]
        np.subtract(s1, s2, out=even)
        np.abs(even, out=even)
        even *= widths[::2]
        costs = [float(np.sum(row)) for row in paired_buffer]
        if math.isfinite(sum(costs)):
            return costs
    gap = s1[:, i1]
    gap -= s2[:, i2]
    np.abs(gap, out=gap)
    gap *= widths
    return [float(np.sum(row)) for row in gap]


def _w1_sliced(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> float:
    """Mean over fixed directions of the exact 1-D W1 between the projections.

    When both measures are uniform (:attr:`EmpiricalMeasure.is_uniform`:
    every weight of each measure is the same float), the cumulative
    weights ``cumsum(w[argsort(x)])`` do not depend on the sort order, so
    one coupling plan serves every direction: a block of sorted projections
    is taken at a time, from the measure's kept sorted projections when
    :func:`_keep_sorted_projections` made them and sorted afresh otherwise.
    Each projection is still the per-direction ``points @ d`` and each
    direction's cost still one 1-D ``np.sum`` added in direction order (numpy
    does not promise that a sum along an axis adds in the same order), so
    the result is bit-identical to running the quantile coupling per
    direction: the sorted values agree except for the order of -0.0 and 0.0,
    which ``abs`` of the gap erases.

    With equal sizes the plan usually pairs sorted index k with sorted
    index k in cell 2k and gives every odd cell zero width.  Then the even
    columns of a zero-filled buffer of the plan's length take
    ``|s1 - s2| * widths[::2]`` without a gather; the odd cells, whose
    product is +0.0 for a finite gap, keep the buffer's zeros, and each row
    sums the same values in the same layout as the gathered plan.  A block
    whose total is not finite holds an infinite or NaN gap, where an odd
    cell's product is NaN, so it is summed through the gather instead.
    Other plans (unequal sizes) take the gather; other weights take the
    per-direction coupling.
    """
    dirs = _sliced_directions(mu1.dim, SLICED_PROJECTIONS)
    w1, w2 = mu1.weights, mu2.weights
    total = 0.0
    if not (mu1.is_uniform and mu2.is_uniform):
        for d in dirs:
            total += _w1_quantile_coupling(mu1.points @ d, w1, mu2.points @ d, w2)
        return total / SLICED_PROJECTIONS
    widths, i1, i2 = _coupling_plan(np.cumsum(w1), np.cumsum(w2))
    k = np.arange(mu1.n)
    paired = (
        mu1.n == mu2.n
        and np.array_equal(i1[::2], k)
        and np.array_equal(i2[::2], k)
        and not widths[1::2].any()
    )
    buffer = np.zeros((_SLICE_BLOCK, widths.size)) if paired else None
    for start in range(0, SLICED_PROJECTIONS, _SLICE_BLOCK):
        # the blocks are arguments, so each is freed before the next is sorted
        costs = _block_costs(
            _sorted_block(mu1, dirs, start), _sorted_block(mu2, dirs, start), widths, i1, i2, buffer
        )
        for c in costs:
            total += c
    return total / SLICED_PROJECTIONS


def _w1_method(dim: int, n1: int, n2: int) -> str:
    """The W1 method for measures of ``n1`` and ``n2`` points in dimension ``dim``."""
    if dim == 1:
        return "sorted-1d"
    return "exact-matching" if max(n1, n2) <= EXACT_MATCH_CAP else "sliced"


def wasserstein1(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> TransportReport:
    """W1 distance between empirical measures.

    Every path reads one uniform-weights rule,
    :attr:`EmpiricalMeasure.is_uniform`: every weight of a measure is the
    same float.  Weights that differ by any amount, however small, are
    coupled as they are.  One dimension is always exact: two uniform
    measures of equal size pair their sorted points, any other pair takes
    the weighted quantile coupling.  In higher dimension uniform
    equal-size inputs up to 512 points get an exact taxicab min-cost
    matching; anything larger is sliced over 128 fixed seeded projection
    directions and labeled accordingly.  When both measures are uniform,
    the directions share one coupling plan and their projections are
    sorted a block at a time, or read from the sorted projections a
    measure keeps (:func:`w1_decay_curve` keeps its reference's); equal
    sizes fill a zero-filled buffer without a gather.  The distance is
    bit-identical to one weighted quantile coupling per direction, which
    other weights still run.
    """
    if mu1.dim != mu2.dim:
        raise UsageError("measures live in different dimensions")
    method = _w1_method(mu1.dim, mu1.n, mu2.n)
    if method == "sorted-1d":
        return TransportReport(_w1_1d(mu1, mu2), method)
    if method == "exact-matching":
        if mu1.n != mu2.n or not (mu1.is_uniform and mu2.is_uniform):
            raise UsageError(
                "exact matching requires uniform weights and equal sizes; "
                "resample the measures or use larger N for the sliced path"
            )
        return TransportReport(_w1_exact_matching(mu1, mu2), method)
    return TransportReport(_w1_sliced(mu1, mu2), method, SLICED_PROJECTIONS)


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
    n_saturated = int((saturated & converged).sum())
    meta = {"n_failed": n_failed, "n_saturated": n_saturated, "saturated": n_saturated > 0}
    return EmpiricalMeasure.uniform(points[converged], meta)


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
        return EmpiricalMeasure(mu.points, mu.weights, dict(mu.meta))
    blocks = _stream_values(fam.noise, (mu.n, steps), seed, "push")
    pts = np.array(mu.points)  # a copy: _chain advances it in place
    sat = np.zeros(mu.n, dtype=bool)
    for _ in _chain(fam, blocks, pts, sat):
        pass
    meta = dict(mu.meta)
    meta["saturated"] = bool(meta.get("saturated", False)) or bool(sat.any())
    return EmpiricalMeasure(pts, mu.weights, meta)


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
        saturated = saturated or bool(sat.any())
        pts.append(img)
        wts.append(p * mu.weights)
    meta = dict(mu.meta)
    meta["saturated"] = saturated
    return EmpiricalMeasure(np.vstack(pts), np.concatenate(wts), meta)


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
        fit, ns = self.fit, self.ns.tolist()
        bound = [""] * len(ns) if fit is None else fit.bound(ns)
        _write_csv(path, seed, {"n": self.ns, "w1": self.w1, "c_rn_bound": bound})


def _calibrate_floor(ref: EmpiricalMeasure, n_other: int, seed: int) -> float:
    """Sampling-noise level of W1(sample of size n_other, ref).

    Half-splits of the reference measure the noise of two size-R/2 samples
    of the same law; the W1 noise of independent empirical samples scales
    like sqrt(1/N1 + 1/N2), which rescales the split value to the actual
    sample sizes.  Averaging over five splits tames the half-normal
    variability of any single draw.  The splits are measured with the
    distance the curve uses: sliced whenever the curve is, even when the
    halves are few enough for exact matching, which measures another
    distance.
    """
    r = ref.n
    sliced = _w1_method(ref.dim, n_other, r) == "sliced"
    rng = stream_generator(seed, "w1-floor")
    half = r // 2
    vals = []
    for _ in range(5):
        perm = rng.permutation(r)
        a = EmpiricalMeasure.uniform(ref.points[perm[:half]])
        b = EmpiricalMeasure.uniform(ref.points[perm[half : 2 * half]])
        vals.append(_w1_sliced(a, b) if sliced else wasserstein1(a, b).distance)
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

    A multivariate curve that compares by sliced W1 sorts the reference's
    projections once (:func:`_keep_sorted_projections`); each of its
    ``n_max + 1`` distances reads them.  Sizes that exact matching cannot
    pair are rejected before the reference is sampled.
    """
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    if n_particles < 1 or ref_size < 2:
        raise UsageError("n_particles must be >= 1 and ref_size >= 2")
    if _w1_method(fam.dim, n_particles, ref_size) == "exact-matching" and n_particles != ref_size:
        raise UsageError(
            f"n_particles and ref_size must be equal when both are <= {EXACT_MATCH_CAP} "
            "(exact matching pairs the points one to one)"
        )
    ref = pullback_sample(fam, seed, ref_size)
    floor = _calibrate_floor(ref, n_particles, derive_seed(seed, "w1-floor"))

    warnings: list[str] = []
    bounded = assumption2_check(fam, seed, replicas=32)
    if not bounded.bounded:
        warnings.append(
            "no bounded absorbing set detected; pushed-forward supports may stay "
            "unbounded and the geometric W1 decay is not guaranteed"
        )

    if _w1_method(ref.dim, n_particles, ref.n) == "sliced":
        _keep_sorted_projections(ref)  # every step is a sliced call against ref
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
