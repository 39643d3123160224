"""Poisson equation for the transfer operator and functional-CLT diagnostics.

The transfer operator ``P`` averages an observable over one noise step.
Its iterated action on a centered observable decays geometrically once
orbit synchronization holds, so the fluctuation corrector can be built as
the truncated series ``psi = sum_{j<=J} P^j phi``.  ``P psi`` is the same
series shifted by one term, ``sum_{1<=j<=J+1} P^j phi``, so the telescoping
identity leaves ``psi - P psi - phi`` equal to minus the first dropped term.
Two variance estimators are reported side by side:

* martingale form   ``int psi^2 - int (P psi)^2``  (used for normalization)
* residual form     ``int (psi - P psi)^2``        (equals ``int phi^2`` at
  an exact solution)

and both are cross-checked against the direct simulation ``Var(S_n)/n``.
Partial-sum paths normalized by the martingale variance are tested against
Brownian behavior: normality at t=1, linear variance growth, and
uncorrelated increments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .engine import _BlockTable, _chain, _chain_windows, _stream_values, _write_csv, pullback_batch
from .errors import (
    NoDecayError,
    NonPositiveSigmaError,
    NotConvergedError,
    UsageError,
    _parse_errors,
)
from .families import FiniteNoise, MapFamily, _default_probe
from .transport import EmpiricalMeasure, pullback_sample
from .streams import derive_seed, stream_generator

__all__ = [
    "Observable",
    "make_observable",
    "AffineMoments",
    "affine_moments",
    "transfer_apply",
    "PoissonSolution",
    "poisson_solve",
    "SigmaEstimates",
    "sigma_estimate",
    "PathEnsemble",
    "partial_sum_paths",
    "FcltStats",
    "fclt_tests",
    "CltReport",
    "run_clt_analysis",
]

_START_N_MAX = 4096  # depth cap of the pullbacks that start stationary chains
_N_CHAINS = 2000  # Monte Carlo chains per P^j phi term
_J_MAX = 60  # the deepest term of the Poisson series
_EXACT_CAP = 4096  # terms are enumerated exactly while q^j stays at most this
# sigma below this many float64 rounding units of the observable's magnitude
# on the grid is rounding noise, not a fluctuation variance
_SIGMA_ROUNDING_ULPS = 64
_MOMENT_DIM_CAP = 32  # the covariance system is d^2 x d^2: at most 1024 x 1024 (8 MiB)


@dataclass(frozen=True)
class Observable:
    """Scalar observable of the chain's state: ``raw`` minus ``center``.

    ``raw`` maps an (n, dim) point block to its n values; ``linear`` is
    ``(v, b)`` when ``raw(x) = v . x + b``, else None.  :func:`run_clt_analysis`
    centers at the stationary mean: exact (v . m + b) for a linear observable
    of a family that :func:`affine_moments` covers, an ergodic estimate otherwise.
    """

    raw: Callable[[np.ndarray], np.ndarray]
    linear: tuple[np.ndarray, float] | None = None
    center: float = 0.0

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.raw(pts) - self.center


def _block(pts) -> np.ndarray:
    return np.atleast_2d(np.asarray(pts, dtype=float))


def make_observable(spec, mu: EmpiricalMeasure, center: float | None = None) -> Observable:
    """Build an observable from a spec string/dict and center it.

    The only code that knows the kinds.  ``"coord:s"`` or ``{"kind":
    "coordinate", "s": s}`` is x_s, linear with v = e_s and b = 0;
    ``{"kind": "affine", "coeffs": v, "offset": b}`` is v . x + b; and
    ``{"kind": "table", "points": ..., "values": ...}`` is the value at the
    nearest table point (one kd-tree, built here), not linear.
    The default centering constant is the weighted mean of the raw
    observable over ``mu``; pass the stationary mean when higher precision
    is needed (partial sums amplify a centering bias delta into a drift of
    order delta * sqrt(n)): the exact one from :func:`affine_moments` for a
    linear observable of an affine family, else :func:`stationary_mean`'s.
    """
    if not isinstance(spec, (str, dict)):
        raise UsageError(f"observable spec must be a string or an object, got {spec!r}")
    with _parse_errors(f"observable spec {spec!r}"):
        if isinstance(spec, str):
            if not spec.startswith("coord:"):
                raise UsageError(f"unknown observable spec {spec!r}")
            spec = {"kind": "coordinate", "s": int(spec.split(":", 1)[1])}
        kind = spec.get("kind")
        if kind == "coordinate":
            s = int(spec.get("s", 1))
            if not (1 <= s <= mu.dim):
                raise UsageError(f"coordinate {s} outside 1..{mu.dim}")
            # its own closure: the product with a unit vector is slower
            obs = Observable(lambda pts: _block(pts)[:, s - 1], (np.eye(mu.dim)[s - 1], 0.0))
        elif kind == "affine":
            coeffs = np.asarray(spec["coeffs"], dtype=float)
            if coeffs.shape != (mu.dim,):
                raise UsageError("affine coefficients must match the dimension")
            if not coeffs.any():
                raise UsageError("affine observable must be non-constant")
            offset = float(spec.get("offset", 0.0))
            obs = Observable(lambda pts: _block(pts) @ coeffs + offset, (coeffs, offset))
        elif kind == "table":
            from scipy.spatial import cKDTree

            points = np.atleast_2d(np.asarray(spec["points"], dtype=float))
            values = np.asarray(spec["values"], dtype=float)
            if values.ndim != 1 or not values.size or points.shape != (values.size, mu.dim):
                raise UsageError(f"table needs n >= 1 values and n points of dimension {mu.dim}")
            if not (np.isfinite(points).all() and np.isfinite(values).all()):
                raise UsageError("table points and values must be finite")
            tree = cKDTree(points)
            obs = Observable(lambda pts: values[tree.query(_block(pts))[1]])
        else:
            raise UsageError(f"unknown observable kind {kind!r}")
    if center is None:
        center = float(mu.weights @ obs.raw(mu.points))
    return replace(obs, center=float(center))


@dataclass(frozen=True)
class AffineMoments:
    """Exact stationary moments of an affine family x -> A x + c.

    ``mean`` is m = (I - Ab)^-1 cb, ``cov`` the stationary covariance and
    ``mean_matrix`` Ab = E[A], where Ab and cb are the noise means of A
    and c.
    """

    mean: np.ndarray
    cov: np.ndarray
    mean_matrix: np.ndarray

    def sigma2(self, v: np.ndarray) -> float:
        """Asymptotic variance of the partial sums of the observable x -> v . x.

        psi(x) = w . (x - m) with w = (I - Ab)^-T v solves the Poisson
        equation psi - P psi = v . (x - m), since P psi(x) = w . Ab (x - m).
        So sigma^2 = int psi^2 - int (P psi)^2 = w'Cw - (Ab'w)'C(Ab'w).
        """
        w = np.linalg.solve((np.eye(v.size) - self.mean_matrix).T, v)
        u = self.mean_matrix.T @ w
        return float(w @ self.cov @ w - u @ self.cov @ u)


def affine_moments(fam: MapFamily) -> AffineMoments | None:
    """Exact stationary mean and covariance of a family that declares an affine form, or None.

    The stationary X satisfies X = A X + c in law, with (A, c) drawn
    independently of X.  Taking means, m = (I - Ab)^-1 cb.  With the
    mean-zero innovation e = A m + c - m, the covariance solves
    C = E[A C A'] + E[e e'], one d^2 x d^2 linear system (Diaconis and
    Freedman, "Iterated random functions", SIAM Review 41, 1999).  Box
    noise has one A and c(u) = G u + c0, so e = G (u - mean u) and
    E[e e'] = G diag(width^2 / 12) G'.

    None unless both hold, so that the moments are those of the clamped
    chain the package runs:

    * every member map that can be drawn (p > 0; every parameter of a noise
      box) has ``||A||_inf < 1``;
    * R = max ||c||_inf / (1 - max ||A||_inf) <= ``clamp_bound``.  The
      stationary law lives in the sup-norm ball of radius R, so the clamp
      never acts on it.

    None too for a family of dimension above 32, whose covariance system
    would pass 1024 unknowns.
    """
    form = fam.affine_form()
    if form is None or fam.dim > _MOMENT_DIM_CAP:
        return None
    mats, offs, gain = form
    d = fam.dim
    if gain is None:
        p = np.asarray(fam.noise.probs)
        keep = p > 0
        p, mats, offs = p[keep], mats[keep], offs[keep]
        c_max = float(np.abs(offs).max())
    else:
        lo, hi = fam.noise.box.lo, fam.noise.box.hi
        p = np.ones(1)
        offs = offs + gain @ ((lo + hi) / 2.0)  # the mean offset
        c_max = float(np.max(np.abs(offs[0]) + np.abs(gain) @ ((hi - lo) / 2.0)))
    a_max = float(np.abs(mats).sum(axis=2).max())  # the largest row-sum norm
    if not a_max < 1.0 or c_max / (1.0 - a_max) > fam.clamp_bound:
        return None
    abar = np.tensordot(p, mats, axes=1)
    mean = np.linalg.solve(np.eye(d) - abar, p @ offs)
    innov = mats @ mean + offs - mean  # (q, d), the innovations e; mean zero under p
    rhs = (p[:, None] * innov).T @ innov
    if gain is not None:
        rhs += (gain * ((hi - lo) ** 2 / 12.0)) @ gain.T
    kron = np.einsum("a,aik,ajl->ijkl", p, mats, mats).reshape(d * d, d * d)
    cov = np.linalg.solve(np.eye(d * d) - kron, rhs.ravel()).reshape(d, d)
    return AffineMoments(mean=mean, cov=(cov + cov.T) / 2.0, mean_matrix=abar)


def _stationary_start(fam: MapFamily, seed: int, replicas: int, label: str):
    """Per-replica pullback limits (tol 1e-9) of the default probe: a stationary start for chains.

    Returns the (replicas, dim) points and their per-replica saturation
    flags.  Raises :class:`NotConvergedError` when any replica's pullback
    fails.
    """
    probe = _default_probe(fam)
    batch = pullback_batch(fam, seed, range(replicas), probe, 1e-9, _START_N_MAX, label=label)
    if not batch.converged.all():
        raise NotConvergedError(_START_N_MAX, float(batch.diam.max()))
    return batch.points, batch.saturated


def stationary_mean(
    fam: MapFamily,
    obs: Observable,
    seed: int,
    replicas: int = 512,
    steps: int = 40_000,
) -> tuple[float, int]:
    """High-precision stationary mean of the raw observable by ergodic averaging.

    Chains start from per-replica pullback limits (stationary, so no
    burn-in bias) and the raw observable is averaged over all replicas and
    steps; the error scales like sqrt(var / (replicas * steps)).  Returns
    the mean and the number of replicas whose start pullback or some chain
    step saturated the clamp.  Each step's values are summed over the
    replicas, and the step sums are added in step order.
    """
    cur, sat = _stationary_start(fam, seed, replicas, "ergodic-start")
    table = _BlockTable(fam.noise, seed, "ergodic-chain", range(replicas))
    total = float(np.sum(obs.raw(cur)))
    for states in _chain_windows(fam, table, cur, steps, sat):
        raw = obs.raw(states.reshape(-1, fam.dim)).reshape(states.shape[0], replicas)
        for step_sum in np.ascontiguousarray(raw).sum(axis=1).tolist():
            total += step_sum
    return total / (replicas * (steps + 1)), int(sat.sum())


def transfer_apply(
    fam: MapFamily,
    phi,
    grid: np.ndarray,
    n_inner: int = 1000,
    seed: int = 0,
) -> tuple[np.ndarray, int]:
    """One application of the transfer operator to ``phi`` on the grid.

    Finite noise is enumerated exactly over the symbols (zero Monte Carlo
    error); box noise averages ``n_inner`` i.i.d. parameter draws, the same
    draws for every grid point.  Returns ``P phi`` on the grid and the
    number of rows that saturated the clamp: grid points with a saturated
    branch for finite noise, draws with a saturated image for box noise.
    """
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if not isinstance(fam.noise, FiniteNoise) and n_inner < 100:
        raise UsageError("need at least 100 inner samples")
    terms = _terms(fam, phi, pts, 2, seed, "transfer", n_inner)
    _, out, n_saturated = next(itertools.islice(terms, 1, None))  # term 1: P phi
    return out, n_saturated


def _pj_exact(fam: MapFamily, phi, pts: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact P^j phi by depth-first enumeration of the q^j one-step branches.

    Also returns per-point flags: whether any branch image of the point
    saturated the clamp.
    """
    if j == 0:
        return np.asarray(phi(pts), dtype=float), np.zeros(pts.shape[0], dtype=bool)
    acc = np.zeros(pts.shape[0])
    sat = np.zeros(pts.shape[0], dtype=bool)
    for a, p in enumerate(fam.noise.probs, start=1):
        if p == 0.0:
            continue
        img, hit = fam.apply_batch(a, pts)
        term, deeper = _pj_exact(fam, phi, img, j - 1)
        acc += p * term
        sat |= hit | deeper
    return acc, sat


def _terms(fam: MapFamily, phi, pts: np.ndarray, n_terms: int, seed: int, label: str, n_chains: int):
    """Yield ``(method, P^j phi on pts, n_saturated)`` for j = 0, ..., n_terms - 1.

    A generator, so a caller may stop early.  Finite noise enumerates term
    j exactly while q^j stays at most ``_EXACT_CAP`` (or q, so P phi always
    is).  Later terms, and every term past phi itself for box noise, are
    means over ``n_chains`` common chains started at ``pts``, all driven by
    one noise table drawn from the ``label`` stream; term j is the chains'
    depth j.  Box noise labels every term "monte-carlo".  ``n_saturated``
    counts the rows that saturated the clamp in this term or an earlier
    one: points of ``pts`` with a saturated branch in an exact term, plus
    chains with a saturated step.
    """
    n_exact = 1  # P^0 phi = phi
    if isinstance(fam.noise, FiniteNoise):
        q = fam.noise.q
        method = "exact"
        while n_exact < n_terms and q**n_exact <= max(_EXACT_CAP, q):
            n_exact += 1
    else:
        method = "monte-carlo"
    sat = np.zeros(pts.shape[0], dtype=bool)
    for j in range(n_exact):
        term, hit = _pj_exact(fam, phi, pts, j)
        sat |= hit
        yield method, term, int(sat.sum())
    if n_terms == n_exact:
        return
    noise = _stream_values(fam.noise, (n_terms - 1, n_chains), seed, label)  # one row per step
    states = np.repeat(pts[None, :, :], n_chains, axis=0)
    chain_sat = np.zeros(n_chains, dtype=bool)
    for depth, states in enumerate(_chain(fam, np.swapaxes(noise, 0, 1), states, chain_sat), start=1):
        if depth >= n_exact:
            term = phi(states.reshape(-1, fam.dim)).reshape(n_chains, -1).mean(axis=0)
            yield "monte-carlo", term, int(sat.sum() + chain_sat.sum())


@dataclass
class PoissonSolution:
    """Truncated-series solution of ``(I - P) psi = phi`` on a sample grid.

    The solution is the mean-zero representative: constants are invariant
    under the operator, the corrector is only defined modulo constants, and
    an empirically centered observable carries a residual constant mode of
    the order of the sampling error.  Every series term is therefore
    centered on the grid (``term_means`` records the removed constants) and
    ``phi_values``, ``psi``, ``p_psi``, and the residual all live in that
    quotient.  Both variance estimators are invariant under the projection.
    """

    grid: np.ndarray
    psi: np.ndarray
    p_psi: np.ndarray
    phi_values: np.ndarray
    truncation_j: int
    term_norms: np.ndarray
    term_means: np.ndarray
    residual: np.ndarray
    residual_norm: float
    method: str
    converged: bool
    n_saturated: int  # rows whose terms 0 to J + 1 saturated the clamp (see ``_terms``)


def poisson_solve(
    fam: MapFamily,
    phi: Observable,
    mu_sample: EmpiricalMeasure,
    grid_size: int = 2048,
    tol: float = 1e-4,
    seed: int = 0,
) -> PoissonSolution:
    """Build ``psi = sum_{j<=J} P^j phi`` on a grid of stationary sample points.

    Every term is centered on the grid before use: the iterated operator
    drives any observable toward its stationary mean, and with empirical
    centering that mean is a nonzero constant of the order of the sampling
    error, which constants the operator then preserves forever.  Projecting
    it out keeps the terms decaying, keeps the truncated telescoping exact,
    and changes nothing that the variance estimators can see.

    Truncates at the first centered term whose sup norm drops to ``tol``,
    and at term 60 at the latest; raises :class:`NoDecayError` when ten
    consecutive terms fail to decay by a factor 0.95, which signals a
    family outside the synchronization regime.  Terms are exact while q^j
    stays at most 4096, else means over 2000 common chains.  ``P psi`` is
    the sum of the centered terms 1 to J + 1, term J + 1 taken one step
    further along the same enumeration or chains, so the residual
    ``psi - P psi - phi`` is minus the centered term J + 1 up to rounding.
    ``term_norms`` and ``term_means`` cover terms 0 to J; ``method`` covers
    J + 1 as well.
    """
    if mu_sample.dim != fam.dim:
        raise UsageError("sample dimension does not match family")
    if grid_size < 1:
        raise UsageError("grid_size must be >= 1")
    if not tol > 0:  # a NaN tolerance fails here too
        raise UsageError("tol must be positive")
    if mu_sample.n <= grid_size:
        grid = mu_sample.points.copy()
    else:
        idx = stream_generator(seed, "poisson-grid").choice(
            mu_sample.n, size=grid_size, replace=False
        )
        grid = mu_sample.points[np.sort(idx)]

    stream = _terms(fam, phi, grid, _J_MAX + 2, seed, "poisson-chain", _N_CHAINS)
    terms: list[np.ndarray] = []
    means: list[float] = []
    norms: list[float] = []
    methods: set[str] = set()
    streak = 0
    converged = False
    for j, (how, raw, _) in enumerate(itertools.islice(stream, _J_MAX + 1)):
        m = float(raw.mean())
        t = raw - m
        terms.append(t)
        means.append(m)
        norms.append(float(np.max(np.abs(t))))
        methods.add(how)
        if j >= 1:
            prev = norms[j - 1]
            ratio = np.inf if prev == 0 else norms[j] / prev
            streak = streak + 1 if ratio >= 0.95 else 0
            if streak >= 10:
                raise NoDecayError(
                    f"term sup norms stalled near {norms[j]:.3e} for 10 consecutive steps"
                )
        if norms[j] <= tol:
            converged = True
            break
    truncation_j = len(terms) - 1
    psi = np.sum(terms, axis=0)
    how, raw, n_saturated = next(stream)  # term J + 1: P psi is the series shifted by one term
    methods.add(how)
    p_psi = np.sum(terms[1:] + [raw - float(raw.mean())], axis=0)
    phi_vals = terms[0]
    residual = psi - p_psi - phi_vals
    method = methods.pop() if len(methods) == 1 else "mixed"
    return PoissonSolution(
        grid=grid,
        psi=psi,
        p_psi=p_psi,
        phi_values=phi_vals,
        truncation_j=truncation_j,
        term_norms=np.asarray(norms),
        term_means=np.asarray(means),
        residual=residual,
        residual_norm=float(np.max(np.abs(residual))),
        method=method,
        converged=converged,
        n_saturated=n_saturated,
    )


@dataclass(frozen=True)
class SigmaEstimates:
    sigma2_mg: float
    sigma2_resid: float


def sigma_estimate(sol: PoissonSolution) -> SigmaEstimates:
    """Both variance estimators over the solution grid.

    The martingale form is the primary normalizer; the residual form equals
    ``int phi^2`` whenever the Poisson equation holds exactly and is
    reported alongside for comparison.

    Raises :class:`NonPositiveSigmaError` when the martingale variance is
    non-finite or non-positive, or when its square root is at most 64
    float64 rounding units of the observable's magnitude on the grid
    (``max |phi_values| + |term_means[0]|``): a law concentrated on one
    point leaves only rounding noise there.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mg raises below
        mg = float(np.mean(sol.psi**2) - np.mean(sol.p_psi**2))
        resid = float(np.mean((sol.psi - sol.p_psi) ** 2))
    if not (math.isfinite(mg) and mg > 0):
        raise NonPositiveSigmaError(
            f"martingale variance {mg:.3e} is non-finite or non-positive; "
            "observable too close to constant or too large on the grid"
        )
    scale = float(np.max(np.abs(sol.phi_values))) + abs(float(sol.term_means[0]))
    floor = _SIGMA_ROUNDING_ULPS * np.finfo(float).eps * scale
    if math.sqrt(mg) <= floor:
        raise NonPositiveSigmaError(
            f"martingale variance {mg:.3e} is float rounding of an observable of "
            f"magnitude {scale:.3e} on the grid; the observable is constant there"
        )
    return SigmaEstimates(sigma2_mg=mg, sigma2_resid=resid)


@dataclass
class PathEnsemble:
    """Normalized partial-sum paths, one row per replica chain."""

    paths: np.ndarray      # (replicas, len(grid_t))
    grid_t: np.ndarray
    n: int
    final_sums: np.ndarray  # (replicas,) un-normalized S_n
    n_saturated: int  # replicas whose start pullback or some chain step saturated the clamp

    def write_csv(self, path, seed: int | None = None) -> None:
        reps, steps = self.paths.shape
        t, y = np.tile(self.grid_t, reps), self.paths.ravel()
        _write_csv(path, seed, {"replica": np.repeat(np.arange(reps), steps), "t": t, "y": y})


def partial_sum_paths(
    fam: MapFamily,
    phi: Observable,
    sigma2: float,
    n: int,
    replicas: int,
    seed: int,
    start: str | np.ndarray = "stationary",
) -> PathEnsemble:
    """Normalized partial sums ``sum_{j<=nt} phi(Z_j) / (sigma sqrt(n))``.

    The paths hold the sums at the 21 times ``grid_t`` = 0, 0.05, ..., 1.
    Chains start from per-replica pullback limits by default (a stationary
    start); pass a point to exercise an arbitrary initial condition.
    """
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise UsageError(f"sigma2 {sigma2!r} is non-finite or non-positive")
    if n < 1 or replicas < 1:
        raise UsageError("n and replicas must be >= 1")
    grid_t = np.linspace(0.0, 1.0, 21)

    if isinstance(start, str):
        if start != "stationary":
            raise UsageError("start must be 'stationary' or a point")
        cur, sat = _stationary_start(fam, seed, replicas, "clt-start")
    else:
        point = np.asarray(start, dtype=float)
        if point.size != fam.dim or not np.isfinite(point).all():
            raise UsageError(f"start must be 'stationary' or {fam.dim} finite coordinates, got {start!r}")
        cur = np.tile(point.reshape(1, fam.dim), (replicas, 1))
        sat = np.zeros(replicas, dtype=bool)

    table = _BlockTable(fam.noise, seed, "clt-chain", range(replicas))
    checkpoints = np.floor(n * grid_t + 1e-9).astype(np.int64)
    paths = np.empty((replicas, grid_t.size))
    sums = np.asarray(phi(cur), dtype=float).copy()
    scale = 1.0 / (math.sqrt(sigma2) * math.sqrt(n))
    for i in np.nonzero(checkpoints == 0)[0]:
        paths[:, i] = sums * scale
    done = 0  # steps taken before the window
    for states in _chain_windows(fam, table, cur, n, sat):
        k = states.shape[0]
        # row 0 carries the sums so far, and each step's row is added in step order, as
        # np.cumsum along axis 0 would add them; its strided loop is 3-4x slower at 1000 replicas
        acc = np.empty((k + 1, replicas))
        acc[0] = sums
        acc[1:] = np.reshape(phi(states.reshape(-1, fam.dim)), (k, replicas))
        for j in range(k):
            acc[j + 1] += acc[j]
        for i in np.nonzero((checkpoints > done) & (checkpoints <= done + k))[0]:
            paths[:, i] = acc[checkpoints[i] - done] * scale
        sums = acc[k]
        done += k
    return PathEnsemble(
        paths=paths, grid_t=grid_t, n=n, final_sums=sums.copy(),
        n_saturated=int(sat.sum()),
    )


@dataclass(frozen=True)
class FcltStats:
    ks_stat: float
    ks_pvalue: float
    var_slope: float
    increment_corr: float
    sigma2_direct: float


def fclt_tests(ensemble: PathEnsemble, min_replicas: int = 500) -> FcltStats:
    """Brownian-limit diagnostics on a path ensemble.

    Reports the one-sample Kolmogorov-Smirnov test of the endpoint values
    against the standard normal, the regression slope of Var(Y(t)) on t
    (Brownian scaling gives slope 1), and the mean correlation between the
    quarter increments (independent increments give 0).
    """
    paths = ensemble.paths
    if paths.shape[0] < min_replicas:
        raise UsageError(f"need >= {min_replicas} replicas, got {paths.shape[0]}")
    from .kolmogorov import kstest_norm

    ks_stat, ks_p = kstest_norm(paths[:, -1])
    var_t = paths.var(axis=0, ddof=1)
    slope = float(np.polyfit(ensemble.grid_t, var_t, 1)[0])
    targets = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    idx = np.unique([int(np.argmin(np.abs(ensemble.grid_t - t))) for t in targets])
    increments = np.diff(paths[:, idx], axis=1)
    corr = np.corrcoef(increments.T)
    iu = np.triu_indices(corr.shape[0], k=1)
    mean_corr = float(corr[iu].mean())
    sigma2_direct = float(ensemble.final_sums.var(ddof=1) / ensemble.n)
    return FcltStats(
        ks_stat=ks_stat,
        ks_pvalue=ks_p,
        var_slope=slope,
        increment_corr=mean_corr,
        sigma2_direct=sigma2_direct,
    )


@dataclass
class CltReport:
    """End-to-end CLT pipeline summary.

    ``center`` is the stationary mean subtracted from the observable:
    ``center_method`` "exact" from :func:`affine_moments`, or "ergodic"
    from :func:`stationary_mean`.  ``sigma2_exact`` is the closed-form
    sigma^2 where the center is exact, else None.  ``n_saturated`` counts
    the rows that saturated the clamp, summed over the pullback sample, the
    ergodic centering replicas (when the center is ergodic), the Poisson
    terms (grid points and chains) and the path replicas.
    ``poisson_converged`` is False when the Poisson series stopped at its
    last term (60) without a term reaching ``tol``.
    """

    sigma2_mg: float
    sigma2_resid: float
    sigma2_direct: float
    ks_stat: float
    ks_pvalue: float
    var_slope: float
    increment_corr: float
    truncation_j: int
    residual_norm: float
    poisson_method: str
    poisson_converged: bool
    n: int
    replicas: int
    observable: object
    center: float
    center_method: str
    sigma2_exact: float | None
    n_saturated: int


def run_clt_analysis(
    fam: MapFamily,
    observable_spec,
    seed: int,
    n: int = 10_000,
    replicas: int = 1000,
    mu_size: int = 4096,
    grid_size: int = 2048,
    tol: float = 1e-4,
    center_replicas: int = 512,
    center_steps: int = 40_000,
) -> tuple[CltReport, PathEnsemble]:
    """Full pipeline: stationary sample, corrector, variance, paths, diagnostics.

    The observable is centered at its stationary mean, not at its mean over
    the pullback sample: a centering bias delta drifts the n-step partial
    sums by delta * sqrt(n) / sigma, so testing normality at n = 10^4 needs
    the mean a couple of orders of magnitude tighter than a 4096-point
    sample provides.  A coordinate or affine observable of a family that
    :func:`affine_moments` covers is centered at the exact v . m + b, and
    the report carries the exact sigma^2 too.  Any other observable or
    family is centered by :func:`stationary_mean`, an ergodic pass of
    ``center_replicas`` chains of ``center_steps`` steps.  Raises
    :class:`UsageError` for fewer than 2 replicas, which leave the path
    diagnostics without a sample variance.
    """
    if replicas < 2:
        raise UsageError("replicas must be >= 2: the path diagnostics need a sample variance")
    if not tol > 0:  # checked before the pullback sample, as poisson_solve checks it
        raise UsageError("tol must be positive")
    mu = pullback_sample(fam, seed, mu_size)
    phi0 = make_observable(observable_spec, mu)
    moments = None if phi0.linear is None else affine_moments(fam)
    if moments is None:
        center_method, sigma2_exact = "ergodic", None
        center, center_saturated = stationary_mean(
            fam, phi0, derive_seed(seed, "center"), replicas=center_replicas, steps=center_steps
        )
    else:
        v, b = phi0.linear
        center_method, sigma2_exact = "exact", moments.sigma2(v)
        center, center_saturated = float(v @ moments.mean + b), 0
    phi = replace(phi0, center=center)
    sol = poisson_solve(
        fam, phi, mu, grid_size=grid_size, tol=tol, seed=derive_seed(seed, "poisson")
    )
    est = sigma_estimate(sol)
    ensemble = partial_sum_paths(
        fam, phi, est.sigma2_mg, n, replicas, derive_seed(seed, "paths")
    )
    stats = fclt_tests(ensemble, min_replicas=min(500, replicas))
    report = CltReport(
        sigma2_mg=est.sigma2_mg,
        sigma2_resid=est.sigma2_resid,
        sigma2_direct=stats.sigma2_direct,
        ks_stat=stats.ks_stat,
        ks_pvalue=stats.ks_pvalue,
        var_slope=stats.var_slope,
        increment_corr=stats.increment_corr,
        truncation_j=sol.truncation_j,
        residual_norm=sol.residual_norm,
        poisson_method=sol.method,
        poisson_converged=sol.converged,
        n=n,
        replicas=replicas,
        observable=observable_spec,
        center=center,
        center_method=center_method,
        sigma2_exact=sigma2_exact,
        n_saturated=mu.meta["n_saturated"] + center_saturated + sol.n_saturated + ensemble.n_saturated,
    )
    return report, ensemble
