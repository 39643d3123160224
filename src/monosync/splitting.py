"""Verification of the order-splitting condition and membership-decay estimates.

The splitting condition asks for two positive-mass sets of length-m noise
blocks whose block compositions map the whole domain to strictly ordered
sets.  Verification here is certificate-style: image boxes of the family's
default probe (see ``families._default_probe``) are compared
conservatively, so a positive verdict is sound while a negative one is
never a disproof.  For a family that declares a monotonicity order the
probe is the two extremal corners of its probe box, whose image box holds
the image of the whole box, so a verdict certifies the whole probe box;
otherwise the probe is a sampled cloud and the verdict covers its points.
Both searches reach their verdict through one body, ``_split``, which
grows the two block sets by one greedy rule that keeps every cross-side
comparison strict, so the reported masses belong to one ordered pair of
sets.  The searches differ only in how they make their blocks and how
they weigh the two sets.

``sigma_decay`` estimates, per composition depth, the probability that a
reference value stays inside the projected image of the domain.  Under a
verified splitting with block-set masses at least rho, that probability is
bounded by (1 - rho)^j, which the fitted decay constant can be checked
against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import _BlockTable, _stream_values, _write_csv, image_box
from .errors import UsageError
from .families import FiniteNoise, MapFamily, _default_probe
from .fitting import loglinear_fit
from .order import JOrder, _signed_box_coords, _strictly_below

__all__ = [
    "SplittingReport",
    "SigmaDecaySeries",
    "exact_splitting_scan",
    "find_splitting_witness",
    "sigma_decay",
]

_EXACT_SCAN_CAP = 10**6
_STORE_BLOCKS_CAP = 1024
_PAIR_CHUNK = 512  # box rows compared against all boxes per pass of the pair search


@dataclass(frozen=True)
class SplittingReport:
    """Outcome of a splitting search at block length ``m``.

    ``verified`` certifies that every A-block image box compares strictly
    below every B-block image box (in the transformed order).  The boxes
    are those of the family's default probe: for a declared-monotone
    family they hold the image of the whole probe box, for any other
    family only the image of its sampled cloud.  Masses are exact for the
    scan and frequency estimates (with binomial standard errors) for the
    Monte Carlo search; in both, the A and B sets are mutually ordered.
    ``blocks_a`` and ``blocks_b`` hold those sets when they have at most
    1024 blocks; they are declared ``repr=False``, so a serialized report
    leaves them out.  An unverified report is an absence of witness, never
    a disproof.  ``n_saturated`` counts the blocks whose probe image
    saturated the clamp.
    """

    m: int
    verified: bool
    method: str  # "exact-scan" | "monte-carlo"
    witness_a: np.ndarray | None = None
    witness_b: np.ndarray | None = None
    mass_a: float = 0.0
    mass_b: float = 0.0
    stderr_a: float | None = None
    stderr_b: float | None = None
    n_blocks_a: int = 0
    n_blocks_b: int = 0
    n_saturated: int = 0
    blocks_a: np.ndarray | None = field(default=None, repr=False)
    blocks_b: np.ndarray | None = field(default=None, repr=False)

    @property
    def rho(self) -> float:
        """min of the two block-set masses; 1 - rho bounds the membership decay."""
        return min(self.mass_a, self.mass_b)


def _find_ordered_pair(t_lo, t_hi, tol):
    """First (i, j) with box_i strictly below box_j componentwise, or None."""
    n = t_lo.shape[0]
    for start in range(0, n, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, n)
        below = _strictly_below(t_hi[start:stop, None, :], t_lo[None, :, :], tol)  # box i below box j
        if below.any():
            i_rel, j = np.unravel_index(np.argmax(below), below.shape)
            return start + int(i_rel), int(j)
    return None


def _grow_ordered_sides(t_lo, t_hi, ia, ib, candidates, tol):
    """Grow A = {ia} and B = {ib} greedily over ``candidates``, in their order.

    A candidate joins A when its box lies strictly below every B box, else
    B when it lies strictly above every A box, so every cross-side pair is
    strictly ordered.  Returns the sorted indices of A and of B.
    """
    a_set, b_set = [ia], [ib]
    a_top, b_bottom = t_hi[ia].copy(), t_lo[ib].copy()  # max over A of t_hi, min over B of t_lo
    for c in candidates:
        if c == ia or c == ib:
            continue
        if _strictly_below(t_hi[c], b_bottom, tol):
            a_set.append(int(c))
            np.maximum(a_top, t_hi[c], out=a_top)
        elif _strictly_below(a_top, t_lo[c], tol):
            b_set.append(int(c))
            np.minimum(b_bottom, t_lo[c], out=b_bottom)
    return np.array(sorted(a_set)), np.array(sorted(b_set))


def _split(fam: MapFamily, order: JOrder, blocks: np.ndarray, m: int, method: str, rank, weigh):
    """The splitting verdict on ``blocks``, composed at depth ``m``.

    Images the default probe under every block, takes the first strictly
    ordered pair of image boxes and grows it into two mutually ordered
    sides over the candidate order ``rank()``, called only once a pair is
    found (the exact scan's order needs every block's mass).
    ``weigh(a_idx, b_idx)`` gives the report's mass (and standard error)
    fields of the two sides.  Without an ordered pair the report is
    unverified.
    """
    lo, hi, sat = image_box(fam, blocks, m, _default_probe(fam))
    n_saturated = int(sat.sum())
    t_lo, t_hi = _signed_box_coords(lo, hi, order)
    pair = _find_ordered_pair(t_lo, t_hi, order.strict_tol)
    if pair is None:
        return SplittingReport(m=m, verified=False, method=method, n_saturated=n_saturated)
    ia, ib = pair
    a_idx, b_idx = _grow_ordered_sides(t_lo, t_hi, ia, ib, rank(), order.strict_tol)
    return SplittingReport(
        m=m,
        verified=True,
        method=method,
        witness_a=blocks[ia].copy(),
        witness_b=blocks[ib].copy(),
        n_blocks_a=len(a_idx),
        n_blocks_b=len(b_idx),
        n_saturated=n_saturated,
        blocks_a=blocks[a_idx] if len(a_idx) <= _STORE_BLOCKS_CAP else None,
        blocks_b=blocks[b_idx] if len(b_idx) <= _STORE_BLOCKS_CAP else None,
        **weigh(a_idx, b_idx),
    )


def exact_splitting_scan(fam: MapFamily, order: JOrder, m: int) -> SplittingReport:
    """Enumerate all q^m blocks of a finite-noise family and search for a split.

    After a first ordered pair is found, both sides are grown greedily by
    block mass while every cross-side comparison stays strict, and the
    masses are computed exactly from the probability vector.
    """
    if not isinstance(fam.noise, FiniteNoise):
        raise UsageError("exact scan requires finite noise; use find_splitting_witness")
    q = fam.noise.q
    if m < 1:
        raise UsageError("block length m must be >= 1")
    if q**m > _EXACT_SCAN_CAP:
        raise UsageError(f"q^m = {q ** m} exceeds the exact-scan cap {_EXACT_SCAN_CAP}")
    blocks = np.array(list(itertools.product(range(1, q + 1), repeat=m)), dtype=np.int64)
    probs = np.asarray(fam.noise.probs)

    def masses(idx):
        return np.prod(probs[blocks[idx] - 1], axis=1)

    def exact(a, b):
        return {"mass_a": float(masses(a).sum()), "mass_b": float(masses(b).sum())}

    return _split(fam, order, blocks, m, "exact-scan", lambda: np.argsort(-masses(slice(None))), exact)


def find_splitting_witness(
    fam: MapFamily,
    order: JOrder,
    m_max: int,
    n_blocks: int = 32,
    seed: int = 0,
) -> SplittingReport:
    """Monte Carlo witness search over sampled blocks of increasing length.

    Works for finite and continuous noise alike.  From the first ordered
    pair, the sampled blocks are grown into two mutually ordered sets by
    the exact scan's greedy rule, in sampling order; masses are the sample
    frequencies of the two sets, with binomial standard errors.
    """
    if n_blocks < 2:
        raise UsageError("need at least 2 sampled blocks")
    if m_max < 1:
        raise UsageError("m_max must be >= 1")

    def frequencies(a, b):
        p_a, p_b = len(a) / n_blocks, len(b) / n_blocks
        return {
            "mass_a": p_a,
            "mass_b": p_b,
            "stderr_a": math.sqrt(p_a * (1 - p_a) / n_blocks),
            "stderr_b": math.sqrt(p_b * (1 - p_b) / n_blocks),
        }

    for m in range(1, m_max + 1):
        blocks = _stream_values(fam.noise, (n_blocks, m), seed, "witness", m)
        report = _split(fam, order, blocks, m, "monte-carlo", lambda: range(n_blocks), frequencies)
        if report.verified:
            break
    return report


@dataclass(frozen=True)
class SigmaDecaySeries:
    """Estimated membership probabilities p_j at depths j*m, with a decay fit.

    ``truncated_at`` records the first depth index whose estimate hit zero;
    the series stops there because deeper images are nested inside shallower
    ones and the estimate can only stay zero.  ``n_saturated`` counts the
    replicas whose image saturated the clamp at any depth imaged.
    """

    j: np.ndarray
    p_hat: np.ndarray
    stderr: np.ndarray
    lambda_bound: float
    n_saturated: int
    truncated_at: int | None = None

    def write_csv(self, path, seed: int | None = None) -> None:
        columns = {"j": self.j, "p_hat": self.p_hat, "stderr": self.stderr}
        columns["lambda_pow_j"] = [self.lambda_bound ** j for j in self.j]
        _write_csv(path, seed, columns)


def sigma_decay(
    fam: MapFamily,
    order: JOrder,
    m: int,
    x: float,
    s: int,
    j_max: int,
    replicas: int,
    seed: int = 0,
) -> SigmaDecaySeries:
    """Monte Carlo estimate of P(x lies in the s-projection of the depth j*m image).

    Each replica owns one noise stream; the image of the default probe is
    recomputed from scratch at every depth (reverse-order prefixes do not
    extend incrementally).  The decay constant is fitted by weighted least
    squares on the log of the positive estimates.
    """
    if replicas < 100:
        raise UsageError("sigma decay needs at least 100 replicas for usable errors")
    if not (1 <= s <= fam.dim):
        raise UsageError(f"coordinate s={s} outside 1..{fam.dim}")
    if j_max < 1 or m < 1:
        raise UsageError("m and j_max must be >= 1")
    xval = float(x)
    if not math.isfinite(xval):  # a NaN x is in no projection and would read as perfect decay
        raise UsageError(f"x must be finite, got {x}")
    probe = _default_probe(fam)
    table = _BlockTable(fam.noise, seed, "sigma", range(replicas))
    table.ensure(j_max * m)

    js, ps, ses = [], [], []
    truncated = None
    saturated = np.zeros(replicas, dtype=bool)
    for j in range(1, j_max + 1):
        lo, hi, sat = image_box(fam, table.values, j * m, probe)
        saturated |= sat
        member = (lo[:, s - 1] <= xval) & (xval <= hi[:, s - 1])
        p = float(member.mean())
        js.append(j)
        ps.append(p)
        ses.append(math.sqrt(p * (1 - p) / replicas))
        if p == 0.0:
            truncated = j
            break

    j_arr = np.array(js, dtype=np.int64)
    p_arr = np.array(ps)
    se_arr = np.array(ses)
    pos = p_arr > 0
    if pos.sum() >= 2:
        w = replicas * p_arr[pos] / np.maximum(1.0 - p_arr[pos], 1.0 / replicas)
        fit = loglinear_fit(j_arr[pos], p_arr[pos], weights=w)
        lam = float(np.exp(fit.slope))
    elif pos.sum() == 1:
        jj = int(j_arr[pos][0])
        lam = float(p_arr[pos][0] ** (1.0 / jj))
    else:
        lam = 0.0
    return SigmaDecaySeries(
        j=j_arr,
        p_hat=p_arr,
        stderr=se_arr,
        lambda_bound=lam,
        n_saturated=int(saturated.sum()),
        truncated_at=truncated,
    )
