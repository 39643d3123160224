"""Seeded noise blocks, forward/reverse orbits, and pullback limits.

Composition conventions, fixed once for the whole package:

* forward orbit:  ``Z_{j+1} = f_{b[j]}(Z_j)``, so the last symbol drawn is
  applied outermost;
* reverse orbit:  ``R_j = f_{b[0]} o ... o f_{b[j-1]}(x0)``, so extending the
  block appends maps innermost and the probe images are nested.

``_chain`` is the one loop: every orbit, chain and pullback runs through
it.  Each step is one ``MapFamily.apply_batch`` call, the one
apply-and-clamp, on all the rows that have started, each row's noise
value (a symbol or a parameter vector) repeated over its points; finite
and box noise take the same loop.  The kernel ORs each row's saturation
into a flag array that its caller owns and yields only the points, so no
step allocates flags.
The reverse loop ``image_points_at_depths`` is a forward chain over the
reversed blocks with the rows right-aligned, each joining the chain at
the step that leaves it exactly its own depth.  ``image_box`` is the one
image-box kernel on top of it: each row's hull of the probe's images at
one depth, as ``lo`` and ``hi`` arrays with the row's saturation flag.
Splitting, synchronization and the pilot's nesting check read boxes
from it; only the pullback search and ``reverse_orbit`` read the points.

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

A batch finds each row's minimal depth by doubling from 16, then
bisecting.  When the probe images are provably nested (the sandwich of a
family with finite noise whose every map sends both corners into their
box, unsaturated), each row's diameter series is non-increasing and its
minimal depth does not depend on the search's path.  Rows are i.i.d., so
in a batch of more than ``_PILOT`` such rows only the first ``_PILOT``
search from 16; the rest are imaged at the pilot's median depth and the
one before it, and only the rows that miss that bracket search further.

All noise is read through ``_BlockTable`` from labeled counter-based
streams (see :mod:`monosync.streams`): replica ``r`` of any operation owns
stream id ``r`` of its label, which makes results independent of chunking
and worker counts.  A label is keyed once and the Philox counter addresses
the replica and the depth, so a table is filled by one loop over depth
blocks, each one C call for a run of contiguous ids; a single stream is a
one-row table.  A search keeps the table it deepens with ``ensure``; a long
forward chain (the CLT's partial sums and ergodic mean) reads its noise
with ``values_at`` one fixed window of steps at a time and never fills the
whole table (``_chain_windows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UsageError
from .families import FiniteNoise, MapFamily, NoiseSpec
from .streams import _MASK64, hash64, stream_generator

__all__ = [
    "OrbitTrace",
    "sample_block",
    "noise_at",
    "forward_orbit",
    "reverse_orbit",
    "image_box",
]

DEFAULT_STREAM_LABEL = "noise"
_FILL_WORDS = 4096  # uniforms drawn per chunk of a table fill, which bounds the fill's temporaries
_WINDOW_VALUES = 1 << 16  # noise values per window of a long chain: 64 steps at 1000 rows (see _chain_windows)
_PILOT = 256  # rows searched from depth 16 before the rest start at their median depth (see pullback_batch)


def _noise_values(noise: NoiseSpec, u: np.ndarray) -> np.ndarray:
    """Noise values from uniforms: one uniform per symbol, ``dim`` per box draw.

    A symbol is one plus the number of the first q-1 cumulative masses at
    or below its uniform, counted in the smallest unsigned type that holds
    q.  Probabilities may sum to slightly less than 1, so a uniform past
    the last cumulative mass still selects symbol q.
    """
    if isinstance(noise, FiniteNoise):
        symbols = np.ones(u.shape, dtype=np.min_scalar_type(noise.q))
        for mass in np.cumsum(noise.probs)[:-1].tolist():
            symbols += u >= mass
        return symbols
    box = noise.box
    return box.lo + u * (box.hi - box.lo)


def _write_csv(path, seed: int | None, columns: dict) -> None:
    """Write an artifact: a seed comment line when the seed is known, the header, one row per index.

    ``columns`` maps each header to its values.  Float columns are written to
    17 significant digits, which read back bit for bit; int and string
    columns with ``str``, so ``""`` is a blank cell.
    """
    cols = [np.asarray(c) for c in columns.values()]
    row = ",".join("{:.17g}" if c.dtype.kind == "f" else "{}" for c in cols) + "\n"
    with open(path, "w") as fh:
        fh.write(("" if seed is None else f"# seed={seed}\n") + ",".join(columns) + "\n")
        fh.writelines(row.format(*cells) for cells in zip(*(c.tolist() for c in cols)))


def sample_block(
    noise: NoiseSpec,
    seed: int,
    stream_id: int,
    n: int,
    label: str = DEFAULT_STREAM_LABEL,
) -> np.ndarray:
    """The first ``n`` i.i.d. noise values of the addressed stream: row ``stream_id`` of its label's table.

    The values are (n,) symbols for finite noise, in the smallest unsigned
    type that holds q, or (n, d) parameter vectors for box noise.
    Regenerating with the same (seed, stream_id, n) is bit-exact.
    """
    if n < 0:
        raise UsageError("block length must be >= 0")
    return _stream_values(noise, (n,), seed, label, [hash64(stream_id)])  # the id mod 2**64


def noise_at(noise: NoiseSpec, seed: int, stream_id: int, j: int):
    """Value ``j`` of a default-label stream, read from its counter block, not its prefix."""
    if j < 0:
        raise UsageError("index must be >= 0")
    value = _BlockTable(noise, seed, DEFAULT_STREAM_LABEL, [hash64(stream_id)]).values_at(j, 1)[0, 0]
    return int(value) if isinstance(noise, FiniteNoise) else value


@dataclass
class OrbitTrace:
    """Positions (and optional probe-image boxes) along one noise block."""

    positions: np.ndarray  # (n+1, dim)
    box_lo: np.ndarray | None  # (n+1, dim)
    box_hi: np.ndarray | None  # (n+1, dim)
    saturated: bool

    def write_csv(self, path, seed: int | None = None) -> None:
        n, dim = self.positions.shape
        columns = {"step": np.arange(n)}
        columns.update((f"x_{i + 1}", self.positions[:, i]) for i in range(dim))
        if self.box_lo is not None:
            columns.update((f"box_lo_{i + 1}", self.box_lo[:, i]) for i in range(dim))
            columns.update((f"box_hi_{i + 1}", self.box_hi[:, i]) for i in range(dim))
        columns["saturated"] = np.full(n, int(self.saturated))
        _write_csv(path, seed, columns)


def _chain(
    fam: MapFamily,
    values: np.ndarray,
    pts: np.ndarray,
    sat: np.ndarray,
    start: np.ndarray | None = None,
):
    """Advance ``pts`` in place along the forward chain ``Z_{j+1} = f_{values[:, j]}(Z_j)``.

    ``values`` is (N, L) of symbols or (N, L, d) of parameters, one row per
    row of ``pts`` ((N, dim) or (N, P, dim)).  Yields ``pts`` after each of
    the L steps.  ``sat`` (N,) bool is the caller's: each step ORs in the
    rows whose image saturated the clamp, so a row flagged before the
    chain stays flagged.

    ``start`` (N,), non-decreasing and passed only by the reverse loop, is
    the step at which each row joins the chain; until then the row keeps
    its point, neither clamped nor flagged.  The rows that have started
    are therefore a prefix ``pts[:k]``.  Each step makes one
    ``apply_batch`` call on the prefix's points, each row's noise value
    repeated over its P points: the map body maps every point under its
    own row's map, and the clamp acts point by point.
    """
    n, dim = pts.shape[0], fam.dim
    per_row = math.prod(pts.shape[1:-1])  # the P points that share a row's noise value
    steps = np.arange(values.shape[1])
    started = np.full(steps.size, n) if start is None else np.searchsorted(start, steps, side="right")
    for j, k in enumerate(started.tolist()):
        block = pts[:k]
        alphas = values[:k, j] if per_row == 1 else np.repeat(values[:k, j], per_row, axis=0)
        img, psat = fam.apply_batch(alphas, block.reshape(-1, dim))
        block[...] = img.reshape(block.shape)
        if psat.any():
            sat[:k] |= psat.reshape(k, per_row).any(axis=1)
        yield pts


def _chain_windows(fam: MapFamily, table: _BlockTable, pts: np.ndarray, steps: int, sat: np.ndarray):
    """Advance ``pts`` (N, dim) ``steps`` steps along the rows of ``table``, one noise window at a time.

    A window is the largest multiple of 4 steps whose noise holds at most
    ``_WINDOW_VALUES`` values, and at least 4 steps.  4 steps of a row
    take whole Philox counter blocks of 4 uniforms, so each window starts
    on a block boundary and no block is enciphered twice.
    Each window's noise is read with ``values_at`` and the table is never
    deepened, so memory is O(N x window) however long the chain.  The
    steps run through ``_chain``, which ORs each row's saturation into the
    caller's ``sat`` (N,).  Yields per window the (k, N, dim) points after
    each of its k steps, a view of one buffer that the next window
    overwrites.
    """
    width = max(4, _WINDOW_VALUES // pts.shape[0] // 4 * 4)
    states = np.empty((min(width, steps),) + pts.shape)
    for c0 in range(0, steps, width):
        k = min(width, steps - c0)
        for j, cur in enumerate(_chain(fam, table.values_at(c0, k), pts, sat)):
            states[j] = cur
        yield states[:k]


def forward_orbit(fam: MapFamily, block: np.ndarray, x0) -> OrbitTrace:
    """Iterate ``Z_{j+1} = f_{b[j]}(Z_j)`` from ``x0`` along the whole block (a ``sample_block`` array)."""
    x = np.array(x0, dtype=float).reshape(1, fam.dim)  # a copy: _chain advances it in place
    positions = np.empty((len(block) + 1, fam.dim))
    positions[0] = x[0]
    sat = np.zeros(1, dtype=bool)
    for j, x in enumerate(_chain(fam, block[None], x, sat), start=1):
        positions[j] = x[0]
    return OrbitTrace(positions, None, None, bool(sat[0]))


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
    parameters with ``L >= max(depths)``, or one such row that every row
    shares; ``base_pts`` is the (P, dim) probe that every row shares.
    Returns the image clouds (N, P, dim) and a per-row saturation flag.

    The reverse composition is a forward chain over the reversed block, so
    this is one ``_chain`` over the columns ``D-1, ..., 0`` with ``D =
    max(depths)``, each row right-aligned: row ``i`` joins at step ``D -
    depths[i]``.  The rows are ordered by depth, deepest first, so the rows
    that have started are a prefix, and put back in place at the end.  The
    cost is ``sum(depths) * P`` map evaluations however ragged the depths
    are.  A shared row is read as a broadcast view of its reversed prefix,
    so it is never copied per row.
    """
    depths = np.asarray(depths, dtype=np.int64)
    n_rows = depths.shape[0]
    depth = int(depths.max(initial=0))
    if blocks.shape[0] not in (1, n_rows):
        raise UsageError(f"{blocks.shape[0]} block rows for {n_rows} depths; give one row or one per depth")
    if depth > blocks.shape[1]:
        raise UsageError(f"depth {depth} exceeds the block length {blocks.shape[1]}")
    order = np.argsort(-depths, kind="stable")
    values = blocks[:, :depth][:, ::-1]
    values = np.broadcast_to(values, (n_rows,) + values.shape[1:]) if blocks.shape[0] == 1 else values[order]
    base = np.asarray(base_pts, dtype=float)
    pts = np.broadcast_to(base, (n_rows,) + base.shape).copy()
    sat = np.zeros(n_rows, dtype=bool)
    for _ in _chain(fam, values, pts, sat, start=depth - depths[order]):
        pass
    out = np.empty_like(pts)
    out[order] = pts
    out_sat = np.empty_like(sat)
    out_sat[order] = sat
    return out, out_sat


def reverse_orbit(
    fam: MapFamily,
    block: np.ndarray,
    x0,
    probe_points: np.ndarray | None = None,
) -> OrbitTrace:
    """All reverse-order iterates of ``x0`` along the block (a ``sample_block`` array).

    Position ``j`` is the image of ``x0`` under the depth-``j`` prefix
    composition.  When a probe cloud is given, the trace also carries its
    image boxes; these are nested whenever the probe region is mapped into
    itself by every member map (always true for a bounded invariant
    domain, not necessarily for the bounded stand-in probe of an unbounded
    domain).
    """
    x = np.asarray(x0, dtype=float).reshape(1, fam.dim)
    cloud = x if probe_points is None else np.vstack([np.atleast_2d(probe_points), x])
    img, sat = image_points_at_depths(fam, block[None], np.arange(len(block) + 1), cloud)
    lo = hi = None
    if probe_points is not None:
        lo, hi = img[:, :-1].min(axis=1), img[:, :-1].max(axis=1)
    return OrbitTrace(img[:, -1, :], lo, hi, bool(sat.any()))


def image_box(
    fam: MapFamily,
    blocks,
    depth: int,
    probe_points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounding boxes of the probe cloud under each row's depth-``depth`` block prefix.

    Row ``i`` composes ``blocks[i, :depth]`` as ``image_points_at_depths``
    does, ``blocks[i, 0]`` outermost; depth 0 is the probe's own hull.
    Returns the corners ``lo`` and ``hi``, each (N, dim), and the per-row
    saturation flags.
    """
    pts = np.atleast_2d(np.asarray(probe_points, dtype=float))
    if pts.shape[0] < 1:
        raise UsageError("probe cloud must be nonempty")
    if depth < 0:
        raise UsageError("depth must be >= 0")
    blocks = np.asarray(blocks)
    img, sat = image_points_at_depths(fam, blocks, np.full(blocks.shape[0], depth), pts)
    return img.min(axis=1), img.max(axis=1), sat


class _BlockTable:
    """Per-stream noise blocks that can be deepened without replaying prefixes.

    The one source of noise values.  Row ``i`` of ``(seed, *address,
    ids)`` holds the first values of replica ``ids[i]`` (reduced mod
    2**64) of the address.  The table has one Philox key, that of
    ``stream_generator(seed, *address)``, and uniform ``j`` of replica
    ``r`` is word ``j % 4`` of the block enciphered from counter ``r +
    2**128 (j // 4)``.  An address with no trailing sequence of ids, such as
    ``(seed, "push")``, is one row: the draws of its own
    ``stream_generator``, uniform ``j`` from counter ``j // 4 + 1``.
    Finite-noise symbols are stored in the smallest unsigned type that
    holds q.

    ``ensure`` fills only the new columns.  It takes the rows a run of
    contiguous ids at a time, at most ``_FILL_WORDS // 4`` of them, and
    each run a chunk of about ``_FILL_WORDS`` uniforms at a time.  The
    counters of one depth block of a run are consecutive, so the block is
    one ``Generator.random`` call of four uniforms per row, and each chunk
    is transposed into the run's rows; a row with no ids takes a chunk's
    blocks in one call.  A long chain calls ``values_at`` directly, one
    window at a time, without ``ensure``, so its noise is never held whole.
    """

    def __init__(self, noise: NoiseSpec, seed: int, *address):
        self.noise = noise
        if address and np.ndim(address[-1]):
            *address, ids = address
            ids = np.asarray(ids, dtype=np.uint64).reshape(-1)
            # a run of ids ends where the next id is not one more, or where the counter's low word wraps
            cut = (ids[1:] != ids[:-1] + np.uint64(1)) | (ids[:-1] == np.uint64(_MASK64))
            ends = [0, *(np.flatnonzero(cut) + 1).tolist(), ids.size]
            step = _FILL_WORDS // 4
            self._runs = [
                (lo, min(lo + step, hi), int(ids[lo]))
                for a, hi in zip(ends[:-1], ends[1:])
                for lo in range(a, hi, step)
            ]
            n = ids.size
        else:
            self._runs = [(0, 1, None)]
            n = 1
        self._gen = stream_generator(seed, *address)
        self._state = self._gen.bit_generator.state
        if isinstance(noise, FiniteNoise):
            self.values = np.empty((n, 0), dtype=np.min_scalar_type(noise.q))
        else:
            self.values = np.empty((n, 0, noise.dim), dtype=float)

    def ensure(self, depth: int) -> None:
        have = self.values.shape[1]
        if depth > have:
            block = self.values_at(have, depth - have)
            # concatenating onto the empty table would copy the whole first fill
            self.values = block if have == 0 else np.concatenate([self.values, block], axis=1)

    def values_at(self, start: int, count: int) -> np.ndarray:
        """Every row's values ``start .. start+count-1``, without drawing the blocks of their prefix.

        Chunks start at counter blocks that are multiples of the uniforms
        per value, so each chunk holds whole values; a ``d``-dimensional
        box draw may read up to ``d - 1`` blocks before its own.
        """
        tail = self.values.shape[2:]
        width = math.prod(tail)  # uniforms per noise value
        out = np.empty((self.values.shape[0], count) + tail, dtype=self.values.dtype)
        first = start * width // 4 // width * width
        stop = -(-(start + count) * width // 4)
        for lo, hi, r0 in self._runs:
            rows = hi - lo
            per = width * max(1, _FILL_WORDS // (4 * width * rows))  # blocks per chunk
            u = np.empty((per, rows, 4))
            for b0 in range(first, stop, per):
                k = min(per, stop - b0)
                if r0 is None:  # one row whose blocks are consecutive counters
                    self._seek(b0 + 1)
                    self._gen.random(out=u[:k].reshape(-1))
                else:
                    for i in range(k):
                        self._seek(r0 + ((b0 + i) << 128))
                        self._gen.random(out=u[i].reshape(-1))
                words = u[:k].transpose(1, 0, 2).reshape(rows, 4 * k)
                v0, v1 = max(4 * b0 // width, start), min(4 * (b0 + k) // width, start + count)
                chunk = words[:, v0 * width - 4 * b0 : v1 * width - 4 * b0].reshape((rows, v1 - v0) + tail)
                out[lo:hi, v0 - start : v1 - start] = _noise_values(self.noise, chunk)
        return out

    def _seek(self, counter: int) -> None:
        """Make the next uniform word 0 of the block enciphered from ``counter``.

        numpy bumps the 256-bit counter before each block, so it is set one
        below.
        """
        c = (counter - 1) % 2**256
        self._state["state"]["counter"] = [(c >> s) & _MASK64 for s in (0, 64, 128, 192)]
        self._gen.bit_generator.state = self._state


def _stream_values(noise: NoiseSpec, shape: tuple, seed: int, *labels) -> np.ndarray:
    """The first values of the one stream ``(seed, *labels)`` in row-major ``shape``, plus a box axis."""
    table = _BlockTable(noise, seed, *labels)
    table.ensure(math.prod(shape))
    return table.values.reshape(shape + table.values.shape[2:])


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
    saturated: np.ndarray   # (N,) bool: the image at the returned depth saturated the clamp


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
    ``n_max`` (``n_used`` is -1 and ``diam`` the diameter there).  A row's
    ``saturated`` flag, like its point and diameter, is that of its image
    at the depth it returns: ``n_used``, or ``n_max`` when unconverged.

    Rows are i.i.d., so when the probe images are provably nested (see
    ``_probe_nests``: the monotone sandwich of a declared family with
    finite noise whose maps keep the probe box) and there are more than
    ``_PILOT`` rows, only the first ``_PILOT`` rows start at depth 16.  The
    others are imaged at ``g - 1`` and ``g``, ``g`` the median depth of the
    converged pilot rows, in one ragged call: a row within tolerance at
    ``g`` but not at ``g - 1`` closes there, and any other row continues
    the loop from the bracket it got, bisecting ``(0, g - 1]`` or doubling
    from ``g``.  Nesting makes every row's diameter series non-increasing,
    so its minimal depth, and the image there, do not depend on the
    search's path.  Any other probe, and any batch of at most ``_PILOT``
    rows, takes the loop from depth 16 on every row.
    """
    if not tol > 0:  # a NaN tolerance fails here too
        raise UsageError("tol must be positive")
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    probe = np.atleast_2d(np.asarray(probe_pts, dtype=float))
    if probe.shape[0] < 2:
        raise UsageError("probe cloud needs at least 2 points")
    n = len(stream_ids)

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
    state = (lo, hi, points, diam, saturated)
    pilot = _PILOT if n > _PILOT and _probe_nests(fam, probe) else n
    table = _BlockTable(fam.noise, seed, label, stream_ids[:pilot])
    _search(fam, table, probe, tol, n_max, *(a[:pilot] for a in state))
    if pilot < n:
        # the rest get their own table, filled only as deep as their search goes
        table = _BlockTable(fam.noise, seed, label, stream_ids[pilot:])
        used = hi[:pilot][hi[:pilot] >= 0]
        if used.size:  # medians of depths <= n_max, so g <= n_max
            _guess(fam, table, probe, tol, int(np.median(used)), *(a[pilot:] for a in state))
        _search(fam, table, probe, tol, n_max, *(a[pilot:] for a in state))
    return PullbackBatch(points, hi, diam, hi >= 0, saturated)


def _probe_nests(fam: MapFamily, probe: np.ndarray) -> bool:
    """Whether the probe's images are nested, checked on the q member maps at depth 1.

    True when ``probe`` is the monotone sandwich of a declared family with
    finite noise (two points, the lowest and highest corners of their hull
    box in the declared order) and every member map sends both corners
    into that box, unsaturated.  A monotone map then sends the whole box
    into it, so each deeper composition maps the two corners into the
    order interval of their images at the depth before: the images are
    nested, their diameters non-increasing, and none saturates.
    """
    signs = fam.monotone_signs()
    if signs is None or not fam.finite or probe.shape[0] != 2:
        return False
    step = (probe[1] - probe[0]) * signs
    if not ((step >= 0).all() or (step <= 0).all()):
        return False
    lo, hi, sat = image_box(fam, np.arange(1, fam.noise.q + 1)[:, None], 1, probe)
    inside = (probe.min(axis=0) <= lo) & (hi <= probe.max(axis=0))
    return bool(inside.all()) and not sat.any()


def _guess(fam, table, probe, tol, g, lo, hi, points, diam, saturated) -> None:
    """Image every row at depths ``g - 1`` and ``g`` in one call and bracket it by the two diameters.

    A row within ``tol`` at ``g - 1`` gets ``(0, g - 1]``, one within it at
    ``g`` only ``(g - 1, g]`` (closed), and any other ``lo = g`` and no
    ``hi``; its centroid, diameter and saturation flag are kept as the
    search loop keeps them.
    """
    k = lo.size
    table.ensure(g)
    blocks = np.concatenate([table.values] * 2)  # every row twice: first at g - 1, then at g
    pts, sat = image_points_at_depths(fam, blocks, np.repeat([g - 1, g], k), probe)
    dms = _taxicab_diams(pts).reshape(2, k)
    ok = dms <= tol
    lo[:] = np.where(ok[0], 0, np.where(ok[1], g - 1, g))
    hi[:] = np.where(ok[0], g - 1, np.where(ok[1], g, -1))
    at = (np.where(ok[0], 0, 1), np.arange(k))  # the depth kept: the shallower one within tol, else g
    diam[:] = dms[at]
    conv = ok.any(axis=0)
    points[conv] = pts.mean(axis=1).reshape(2, k, -1)[at][conv]
    saturated[:] = sat.reshape(2, k)[at]


def _search(fam, table, probe, tol, n_max, lo, hi, points, diam, saturated) -> None:
    """Run the depth search of ``pullback_batch`` on every open row, in place.

    A row is open while it has no ``hi`` and ``lo < n_max``, or while
    ``lo + 1 < hi``; ``lo`` 0 and ``hi`` -1 start it at depth 16.
    """
    rows = np.arange(lo.size)
    while True:
        r_lo, r_hi = lo[rows], hi[rows]
        rows = rows[np.where(r_hi < 0, r_lo < n_max, r_lo + 1 < r_hi)]
        if not rows.size:
            return
        r_lo, r_hi = lo[rows], hi[rows]
        doubling = r_hi < 0
        deeper = np.minimum(np.maximum(2 * r_lo, 16), n_max)
        depth = np.where(doubling, deeper, (r_lo + r_hi) // 2)
        table.ensure(int(depth.max()))
        pts, sat = image_points_at_depths(fam, table.values[rows], depth, probe)
        dms = _taxicab_diams(pts)
        ok = dms <= tol
        lo[rows[~ok]] = depth[~ok]
        hi[rows[ok]] = depth[ok]
        points[rows[ok]] = pts[ok].mean(axis=1)
        keep = ok | doubling  # a row's diameter and flag are at its hi, or at its deepest depth
        diam[rows[keep]] = dms[keep]
        saturated[rows[keep]] = sat[keep]

