"""Seeded noise blocks, forward/reverse orbits, and pullback limits.

Composition conventions, fixed once for the whole package:

* forward orbit:  ``Z_{j+1} = f_{b[j]}(Z_j)``, so the last symbol drawn is
  applied outermost;
* reverse orbit:  ``R_j = f_{b[0]} o ... o f_{b[j-1]}(x0)``, so extending the
  block appends maps innermost and the probe images are nested.

``_chain`` is the one step-and-clamp kernel: every orbit, chain and
pullback runs through it.  Each step is one map-body call on all the rows
that have started, each row's noise value (a symbol or a parameter vector)
repeated over its points, then one clamp; finite and box noise take the
same loop.  The reverse loop ``image_points_at_depths`` is a forward chain
over the reversed blocks with the rows right-aligned, each joining the
chain at the step that leaves it exactly its own depth.
(``families.image_box`` composes a single hand-given block through
``apply_batch`` on its own.)

The pullback limit deepens the reverse composition on a fixed stream until
the taxicab diameter of the probe's image drops below tolerance.  The
high-level callers probe with the monotone sandwich (see
``families._default_probe``): for a family whose maps are all monotone in
one orthant order, the images of the probe box's two extremal corners span
an order interval holding the image of the whole box, so "converged" means
the whole box is mapped within ``tol``, and the returned point, the
interval's midpoint, is within ``tol`` of the image of every point of the
box.  A family without that order is probed with a sampled cloud, for
which both hold only at the sampled points.

All noise comes from labeled counter-based streams (see
:mod:`monosync.streams`); replica ``r`` of any operation owns stream id
``r`` of its label, which makes results independent of chunking and
worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotConvergedError, UsageError
from .families import FiniteNoise, MapFamily, NoiseSpec, _clamp_points
from .order import Box
from .streams import stream_generator, stream_keys, uniforms_at

__all__ = [
    "NoiseBlock",
    "OrbitTrace",
    "sample_block",
    "noise_at",
    "forward_orbit",
    "reverse_orbit",
    "pullback_point",
]

DEFAULT_STREAM_LABEL = "noise"
_FILL_CHUNK = 4096  # noise values mapped from uniforms per call when filling a table


def _noise_values(noise: NoiseSpec, u: np.ndarray) -> np.ndarray:
    """Noise values from uniforms: one uniform per symbol, ``dim`` per box draw.

    A symbol is one plus the number of the first q-1 cumulative masses at
    or below its uniform.  Probabilities may sum to slightly less than 1,
    so a uniform past the last cumulative mass still selects symbol q.
    """
    if isinstance(noise, FiniteNoise):
        cum = np.cumsum(noise.probs)
        return np.searchsorted(cum[:-1], u, side="right") + 1
    box = noise.box
    return box.lo + u * (box.hi - box.lo)


def _draw_noise(noise: NoiseSpec, gen: np.random.Generator, shape: tuple) -> np.ndarray:
    """An array of ``shape`` i.i.d. noise values, drawn with one ``gen.random`` call.

    Symbols come back with exactly ``shape``; box parameters carry a
    trailing axis of the box dimension.
    """
    if isinstance(noise, FiniteNoise):
        return _noise_values(noise, gen.random(shape))
    return _noise_values(noise, gen.random((*shape, noise.dim)))


def _write_csv(path, seed: int | None, header: str, rows) -> None:
    """Write an artifact: a seed comment line when the seed is known, the header, the rows."""
    lines = [] if seed is None else [f"# seed={seed}"]
    lines.append(header)
    lines.extend(rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class NoiseBlock:
    """A finite stretch of one noise stream, reproducible from its address.

    ``values`` has shape (n,) of symbols for finite noise or (n, d) of
    parameter vectors for box noise.  Regenerating with the same
    (seed, stream_id, n) is bit-exact.
    """

    values: np.ndarray
    seed: int
    stream_id: int

    def __len__(self) -> int:
        return self.values.shape[0]


def sample_block(
    noise: NoiseSpec,
    seed: int,
    stream_id: int,
    n: int,
    label: str = DEFAULT_STREAM_LABEL,
) -> NoiseBlock:
    """Draw the first ``n`` i.i.d. noise values of the addressed stream."""
    if n < 0:
        raise UsageError("block length must be >= 0")
    gen = stream_generator(seed, label, int(stream_id))
    vals = _draw_noise(noise, gen, (n,))
    return NoiseBlock(values=vals, seed=int(seed), stream_id=int(stream_id))


def noise_at(noise: NoiseSpec, seed: int, stream_id: int, j: int):
    """Value ``j`` of a default-label stream, addressed directly through the Philox counter."""
    if j < 0:
        raise UsageError("index must be >= 0")
    address = (DEFAULT_STREAM_LABEL, int(stream_id))
    if isinstance(noise, FiniteNoise):
        return int(_noise_values(noise, uniforms_at(seed, address, j, 1))[0])
    d = noise.dim
    return _noise_values(noise, uniforms_at(seed, address, j * d, d))


@dataclass
class OrbitTrace:
    """Positions (and optional probe-image boxes) along one noise block."""

    direction: str  # "forward" | "reverse"
    block: NoiseBlock
    positions: np.ndarray  # (n+1, dim)
    boxes: list[Box] | None
    saturated: bool

    def write_csv(self, path, seed: int | None = None) -> None:
        dim = self.positions.shape[1]
        cols = ["step"] + [f"x_{i + 1}" for i in range(dim)]
        if self.boxes is not None:
            cols += [f"box_lo_{i + 1}" for i in range(dim)]
            cols += [f"box_hi_{i + 1}" for i in range(dim)]
        cols.append("saturated")
        rows = []
        for j in range(self.positions.shape[0]):
            row = [str(j)] + [f"{v:.17g}" for v in self.positions[j]]
            if self.boxes is not None:
                row += [f"{v:.17g}" for v in self.boxes[j].lo]
                row += [f"{v:.17g}" for v in self.boxes[j].hi]
            row.append(str(int(self.saturated)))
            rows.append(",".join(row))
        _write_csv(path, seed, ",".join(cols), rows)


def _chain(fam: MapFamily, values: np.ndarray, pts: np.ndarray, start: np.ndarray | None = None):
    """Advance ``pts`` in place along the forward chain ``Z_{j+1} = f_{values[:, j]}(Z_j)``.

    ``values`` is (N, L) of symbols or (N, L, d) of parameters, one row per
    row of ``pts`` ((N, dim) or (N, P, dim)).  Yields ``pts`` and the
    per-row saturation flags of each of the L steps, after the step.

    ``start`` (N,), non-decreasing and passed only by the reverse loop, is
    the step at which each row joins the chain; until then the row keeps
    its point, neither clamped nor flagged.  The rows that have started
    are therefore a prefix ``pts[:k]``.  Each step makes one ``raw_batch``
    call on the prefix's points, each row's noise value repeated over its
    P points, and clamps the images once: the map body maps every point
    under its own row's map, and the clamp acts point by point.
    """
    n, dim, bound = pts.shape[0], fam.dim, fam.clamp_bound
    per_row = math.prod(pts.shape[1:-1])  # the P points that share a row's noise value
    steps = np.arange(values.shape[1])
    started = np.full(steps.size, n) if start is None else np.searchsorted(start, steps, side="right")
    for j, k in enumerate(started.tolist()):
        block = pts[:k]
        alphas = values[:k, j] if per_row == 1 else np.repeat(values[:k, j], per_row, axis=0)
        img, psat = _clamp_points(fam.raw_batch(alphas, block.reshape(-1, dim)), bound)
        block[...] = img.reshape(block.shape)
        sat = np.zeros(n, dtype=bool)
        if psat.any():
            sat[:k] = psat.reshape(k, per_row).any(axis=1)
        yield pts, sat


def forward_orbit(fam: MapFamily, block: NoiseBlock, x0) -> OrbitTrace:
    """Iterate ``Z_{j+1} = f_{b[j]}(Z_j)`` from ``x0`` along the whole block."""
    x = np.array(x0, dtype=float).reshape(1, fam.dim)  # a copy: _chain advances it in place
    positions = np.empty((len(block) + 1, fam.dim))
    positions[0] = x[0]
    saturated = False
    for j, (x, sat) in enumerate(_chain(fam, block.values[None], x), start=1):
        saturated = saturated or bool(sat[0])
        positions[j] = x[0]
    return OrbitTrace("forward", block, positions, None, saturated)


def image_points_at_depths(
    fam: MapFamily,
    blocks: np.ndarray,
    depths: np.ndarray,
    base_pts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-order composition images, one row per block prefix.

    Row ``i`` maps ``base_pts`` through
    ``f_{blocks[i,0]} o ... o f_{blocks[i, depths[i]-1]}`` (innermost last
    symbol first).  ``blocks`` is (N, L) of symbols or (N, L, d) of
    parameters with ``L >= max(depths)``; ``base_pts`` is (P, dim) shared or
    (N, P, dim) per row.  Returns the image clouds (N, P, dim) and a
    per-row saturation flag.

    The reverse composition is a forward chain over the reversed block, so
    this is one ``_chain`` over the columns ``D-1, ..., 0`` with ``D =
    max(depths)``, each row right-aligned: row ``i`` joins at step ``D -
    depths[i]``.  The rows are ordered by depth, deepest first, so the rows
    that have started are a prefix, and put back in place at the end.  The
    cost is ``sum(depths) * P`` map evaluations however ragged the depths
    are.
    """
    depths = np.asarray(depths, dtype=np.int64)
    n_rows = depths.shape[0]
    depth = int(depths.max(initial=0))
    if depth > blocks.shape[1]:
        raise UsageError(f"depth {depth} exceeds the block length {blocks.shape[1]}")
    order = np.argsort(-depths, kind="stable")
    base = np.asarray(base_pts, dtype=float)
    if base.ndim == 2:
        pts = np.broadcast_to(base, (n_rows,) + base.shape).copy()
    else:
        pts = base[order]
    sat = np.zeros(n_rows, dtype=bool)
    for _, psat in _chain(fam, blocks[:, :depth][order, ::-1], pts, start=depth - depths[order]):
        sat |= psat
    out = np.empty_like(pts)
    out[order] = pts
    out_sat = np.empty_like(sat)
    out_sat[order] = sat
    return out, out_sat


def reverse_orbit(
    fam: MapFamily,
    block: NoiseBlock,
    x0,
    probe_points: np.ndarray | None = None,
) -> OrbitTrace:
    """All reverse-order iterates of ``x0`` along the block.

    Position ``j`` is the image of ``x0`` under the depth-``j`` prefix
    composition.  When a probe cloud is given, the trace also carries its
    image boxes; these are nested whenever the probe region is mapped into
    itself by every member map (always true for a bounded invariant
    domain, not necessarily for the bounded stand-in probe of an unbounded
    domain).
    """
    n = len(block)
    x = np.asarray(x0, dtype=float).reshape(1, fam.dim)
    cloud = x if probe_points is None else np.vstack([np.atleast_2d(probe_points), x])
    blocks = np.broadcast_to(block.values, (n + 1,) + block.values.shape)
    img, sat = image_points_at_depths(fam, blocks, np.arange(n + 1), cloud)
    positions = img[:, -1, :]
    boxes = None if probe_points is None else [Box.hull(img[j, :-1]) for j in range(n + 1)]
    saturated = bool(sat.any())
    return OrbitTrace("reverse", block, positions, boxes, saturated)


class _BlockTable:
    """Per-stream noise blocks that can be deepened without replaying prefixes.

    Row ``i`` holds the first draws of stream ``(seed, label, stream_ids[i])``,
    bit for bit the values ``sample_block`` gives.  The keys of all rows are
    derived at once and one Philox serves every row: ``ensure`` re-keys it
    per row and points its counter at the row's next draw.  Finite-noise
    symbols are stored in the smallest unsigned type that holds q.
    """

    def __init__(self, noise: NoiseSpec, seed: int, label: str, stream_ids: Sequence[int]):
        self.noise = noise
        self._keys = stream_keys(seed, label, stream_ids).tolist()
        self._gen = np.random.Generator(np.random.Philox(0))  # re-keyed before every row
        n = len(self._keys)
        if isinstance(noise, FiniteNoise):
            self.values = np.empty((n, 0), dtype=np.min_scalar_type(noise.q))
        else:
            self.values = np.empty((n, 0, noise.dim), dtype=float)

    def ensure(self, depth: int) -> None:
        have = self.values.shape[1]
        if depth <= have:
            return
        extra = depth - have
        tail = self.values.shape[2:]
        block = np.empty((len(self._keys), extra) + tail, dtype=self.values.dtype)
        out = block.reshape((-1,) + tail)  # a view: one noise value per entry, row after row
        width = math.prod(tail)  # uniforms per noise value
        start = have * width  # every row's next uniform
        dropped = np.empty(start % 4)  # the draws of start's counter block before start
        # Uniforms are mapped to noise values a chunk at a time, so the
        # temporaries stay small whatever the table's size.
        u = np.empty(_FILL_CHUNK * width)
        filled = written = 0
        bitgen = self._gen.bit_generator
        state = {"bit_generator": "Philox", "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        last = len(self._keys) - 1
        for row, key in enumerate(self._keys):
            state["state"] = {"counter": [start // 4, 0, 0, 0], "key": key}
            bitgen.state = state
            self._gen.random(out=dropped)
            left = extra * width
            while left:
                take = min(left, u.size - filled)
                self._gen.random(out=u[filled : filled + take])
                filled += take
                left -= take
                if filled == u.size or (row == last and left == 0):
                    k = filled // width
                    vals = _noise_values(self.noise, u[:filled].reshape((k,) + tail))
                    out[written : written + k] = vals
                    written += k
                    filled = 0
        # concatenating onto the empty table would copy the whole first fill
        self.values = block if have == 0 else np.concatenate([self.values, block], axis=1)


def _taxicab_diams(pts: np.ndarray) -> np.ndarray:
    """Per-row taxicab diameter of the probe-image clouds (N, P, dim)."""
    return (pts.max(axis=1) - pts.min(axis=1)).sum(axis=1)


@dataclass
class PullbackBatch:
    """Result of a batched pullback: one limit candidate per stream."""

    points: np.ndarray      # (N, dim) probe-image centroids: sandwich midpoints for two corners
    n_used: np.ndarray      # (N,) minimal depth reaching tolerance (-1 on failure)
    diam: np.ndarray        # (N,) diameter at the returned depth
    converged: np.ndarray   # (N,) bool
    saturated: np.ndarray   # (N,) bool


def pullback_batch(
    fam: MapFamily,
    seed: int,
    stream_ids: Sequence[int],
    probe_pts: np.ndarray,
    tol: float,
    n_max: int,
    label: str = DEFAULT_STREAM_LABEL,
) -> PullbackBatch:
    """Pullback limits for many streams at once.

    Finds, per stream, the minimal depth at which the probe image's taxicab
    diameter is ``<= tol``.  Each row keeps a bracket ``(lo, hi]``: ``lo``
    the deepest depth known to be above tolerance, ``hi`` the shallowest
    known to be within it.  Every pass of one loop evaluates each open row
    at its next depth in a single ragged kernel call: 16, then twice ``lo``
    (both capped at ``n_max``) while the row has no ``hi``, then the
    bisection midpoint.  A row's centroid and diameter are kept when it
    gets a new ``hi``, so no depth is evaluated twice.  A row closes at
    ``lo + 1 == hi``, or unconverged when it is still above tolerance at
    ``n_max`` (``n_used`` is -1 and ``diam`` the diameter there).
    """
    if tol <= 0:
        raise UsageError("tol must be positive")
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    probe = np.atleast_2d(np.asarray(probe_pts, dtype=float))
    if probe.shape[0] < 2:
        raise UsageError("probe cloud needs at least 2 points")
    n = len(stream_ids)
    table = _BlockTable(fam.noise, seed, label, stream_ids)

    points = np.zeros((n, fam.dim))
    diam = np.full(n, np.inf)
    saturated = np.zeros(n, dtype=bool)

    base_diam = float(_taxicab_diams(probe[None])[0])
    if base_diam <= tol:
        points[:] = probe.mean(axis=0)
        diam[:] = base_diam
        n_used = np.zeros(n, dtype=np.int64)
        return PullbackBatch(points, n_used, diam, np.ones(n, dtype=bool), saturated)

    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, -1, dtype=np.int64)  # -1: no depth within tol found yet
    rows = np.arange(n)
    while rows.size:
        r_lo, r_hi = lo[rows], hi[rows]
        doubling = r_hi < 0
        deeper = np.minimum(np.maximum(2 * r_lo, 16), n_max)
        depth = np.where(doubling, deeper, (r_lo + r_hi) // 2)
        table.ensure(int(depth.max()))
        pts, sat = image_points_at_depths(fam, table.values[rows], depth, probe)
        saturated[rows] |= sat
        dms = _taxicab_diams(pts)
        ok = dms <= tol
        lo[rows[~ok]] = depth[~ok]
        hi[rows[ok]] = depth[ok]
        points[rows[ok]] = pts[ok].mean(axis=1)
        keep = ok | doubling  # a row's diameter is at its hi, or at its deepest depth
        diam[rows[keep]] = dms[keep]
        r_lo, r_hi = lo[rows], hi[rows]
        rows = rows[np.where(r_hi < 0, r_lo < n_max, r_lo + 1 < r_hi)]
    return PullbackBatch(points, hi, diam, hi >= 0, saturated)


def pullback_point(
    fam: MapFamily,
    seed: int,
    stream_id: int,
    probe_pts: np.ndarray,
    tol: float,
    n_max: int = 4096,
) -> tuple[np.ndarray, int]:
    """Pullback limit along one default-label stream: (probe-image centroid, minimal depth used).

    With the two sandwich corners of ``families._default_probe`` as the
    probe, the centroid is the midpoint of an order interval that holds
    the image of the whole probe box, so it is within ``tol`` of the image
    of every point of the box; with a sampled cloud, that holds for the
    cloud's points only.

    Raises :class:`NotConvergedError` when the probe image is still wider
    than ``tol`` at depth ``n_max``, which signals either a family without
    verified splitting or a tolerance below the attainable resolution.
    """
    batch = pullback_batch(fam, seed, [stream_id], probe_pts, tol, n_max)
    if not batch.converged[0]:
        raise NotConvergedError(n_max, float(batch.diam[0]))
    return batch.points[0], int(batch.n_used[0])
