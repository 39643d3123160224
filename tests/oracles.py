"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (enumeration, permutations, direct
sampling) and shares no code with the package paths it checks.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

CANTOR_MEAN = 0.5
CANTOR_VAR = 0.125  # sum_i Var(2 c_i 3^-i) = sum 4 * (1/4) * 9^-i = 1/8


def box_less_by_sampling(b1, b2, order, n_pairs: int = 100, seed: int = 0) -> bool:
    """Check p < q for sampled point pairs, strictly per coordinate direction."""
    rng = np.random.default_rng(seed)
    p = b1.lo + rng.random((n_pairs, b1.dim)) * (b1.hi - b1.lo)
    q = b2.lo + rng.random((n_pairs, b2.dim)) * (b2.hi - b2.lo)
    signs = order.signs
    return bool(np.all((q - p) * signs > 0))


def box_less_by_corners(b1, b2, order) -> bool:
    """Strict order over every corner pair (exact for boxes)."""
    signs = order.signs
    for p in b1.corners():
        for q in b2.corners():
            if not np.all((q - p) * signs > 0):
                return False
    return True


def cantor_level_intervals(block):
    """[lo, hi] of the image of [0,1] under the reverse composition of the block."""
    lo, hi = 0.0, 1.0
    offsets = {1: 0.0, 2: 2.0 / 3.0}
    for a in reversed(list(block)):
        lo, hi = lo / 3.0 + offsets[a], hi / 3.0 + offsets[a]
    return lo, hi


def cantor_membership_prob(x: float, j: int, probs=(0.5, 0.5)) -> float:
    """Exact P(x in depth-j image of [0,1]) by enumerating all 2^j blocks."""
    total = 0.0
    for block in itertools.product((1, 2), repeat=j):
        lo, hi = cantor_level_intervals(block)
        if lo <= x <= hi:
            w = 1.0
            for a in block:
                w *= probs[a - 1]
            total += w
    return total


def w1_bruteforce_1d(x1, x2) -> float:
    """Minimum over all pairings of the mean absolute difference (uniform, equal N)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    assert x1.size == x2.size <= 9
    # every permutation as one row of indices: exhaustive, without a Python loop per pairing
    perms = np.array(list(itertools.permutations(range(x2.size))), dtype=np.intp)
    return float(np.abs(x1 - x2[perms]).mean(axis=1).min())


def w1_bruteforce_matching(p1, p2) -> float:
    """Minimum-cost perfect matching under the taxicab metric, by enumeration."""
    p1 = np.atleast_2d(np.asarray(p1, dtype=float))
    p2 = np.atleast_2d(np.asarray(p2, dtype=float))
    n = p1.shape[0]
    assert p2.shape[0] == n <= 8
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = float(np.abs(p1 - p2[list(perm)]).sum(axis=1).mean())
        best = min(best, cost)
    return best


def w1_sliced_loop(p1, w1, p2, w2, dirs) -> float:
    """Sliced W1 with one weighted quantile coupling per direction, in order.

    Each direction sorts both projections with their own stable argsort,
    builds its own cumulative weights and coupling cells, and adds its cost
    to a running total; the mean over directions is returned.
    """
    p1, p2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    w1, w2 = np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
    total = 0.0
    for d in dirs:
        x1, x2 = p1 @ d, p2 @ d
        o1 = np.argsort(x1, kind="stable")
        o2 = np.argsort(x2, kind="stable")
        xs1, cw1 = x1[o1], np.cumsum(w1[o1])
        xs2, cw2 = x2[o2], np.cumsum(w2[o2])
        edges = np.concatenate([[0.0], np.sort(np.concatenate([cw1[:-1], cw2[:-1]])), [1.0]])
        widths = np.diff(edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        i1 = np.minimum(np.searchsorted(cw1, mids, side="left"), xs1.size - 1)
        i2 = np.minimum(np.searchsorted(cw2, mids, side="left"), xs2.size - 1)
        total += float(np.sum(widths * np.abs(xs1[i1] - xs2[i2])))
    return total / len(dirs)


def iid_partial_sum_var(values, probs, t: float) -> float:
    """Var of the normalized Donsker sum at time t for an i.i.d. sequence."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    mean = probs @ values
    var = probs @ (values - mean) ** 2
    return var * t


def transfer_power_enum(fam, phi, pts, j):
    """P^j phi at ``pts`` for finite noise, by recursion over every symbol word.

    Each branch maps the points through the public ``apply_batch`` and is
    weighted by its symbol's probability; zero-mass symbols are skipped.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if j == 0:
        return np.asarray(phi(pts), dtype=float)
    out = np.zeros(pts.shape[0])
    for a, p in enumerate(fam.noise.probs, start=1):
        if p > 0:
            img, _ = fam.apply_batch(a, pts)
            out = out + p * transfer_power_enum(fam, phi, img, j - 1)
    return out


def branch_moments(fam, x0, k):
    """Mean and second moment E[X X'] of T^k delta_x0, over all q^k branches of a finite family.

    Every branch maps its point through the public ``raw_batch`` (the map
    bodies, not any affine declaration) and carries the product of its
    symbols' probabilities; zero-mass symbols are skipped.
    """
    pts = np.atleast_2d(np.asarray(x0, dtype=float))
    weights = np.ones(1)
    for _ in range(k):
        images, masses = [], []
        for a, p in enumerate(fam.noise.probs, start=1):
            if p > 0:
                images.append(fam.raw_batch(a, pts))
                masses.append(p * weights)
        pts, weights = np.vstack(images), np.concatenate(masses)
    return weights @ pts, (weights[:, None] * pts).T @ pts


def p_psi_reexpansion(fam, phi, grid, term_means):
    """``P psi`` on the grid by re-expanding the series at every one-step image.

    ``psi(x) = sum_j (P^j phi(x) - term_means[j])`` is evaluated afresh at
    the images of the grid under each symbol, the images are averaged with
    the symbols' probabilities, and the result is centered on the grid.
    """
    def psi_at(pts):
        return sum(transfer_power_enum(fam, phi, pts, j) - m for j, m in enumerate(term_means))

    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    out = np.zeros(grid.shape[0])
    for a, p in enumerate(fam.noise.probs, start=1):
        if p > 0:
            img, _ = fam.apply_batch(a, grid)
            out = out + p * psi_at(img)
    return out - out.mean()


def clamp_two_branch(raw, bound: float):
    """Clamp into [-bound, bound] with per-point flags: non-finite first, then over-bound."""
    finite = np.isfinite(raw)
    sat = ~finite.all(axis=-1)
    if sat.any():
        raw = np.nan_to_num(raw, nan=0.0, posinf=bound, neginf=-bound)
    over = np.abs(raw) > bound
    if over.any():
        sat = sat | over.any(axis=-1)
        raw = np.clip(raw, -bound, bound)
    return raw, sat


def chain_whole_table(fam, values, start):
    """Yield ``(j, points, per-row flags)`` after each step of the forward chain along a whole noise table.

    ``values`` is (N, n) symbols or (N, n, d) parameters, read one column
    per step; ``start`` (N, dim) is copied.  Each step maps every row
    through ``raw_batch`` and clamps with ``clamp_two_branch``: the chain
    loop as it ran over a table filled to its full depth, before chains
    read their noise in windows.
    """
    pts = np.array(start, dtype=float, copy=True)
    for j in range(values.shape[1]):
        pts, sat = clamp_two_branch(fam.raw_batch(values[:, j], pts), fam.clamp_bound)
        yield j + 1, pts, sat


def partial_sums_whole_table(fam, phi, values, start, checkpoints, scale):
    """Partial sums of ``phi`` along ``chain_whole_table``: one ``sums += phi(points)`` per step.

    Returns the (N, len(checkpoints)) scaled sums at the checkpoint steps,
    the final sums and the rows that saturated at some step.
    """
    checkpoints = np.asarray(checkpoints)
    sums = np.asarray(phi(start), dtype=float).copy()
    paths = np.empty((sums.size, checkpoints.size))
    sat = np.zeros(sums.size, dtype=bool)
    for i in np.nonzero(checkpoints == 0)[0]:
        paths[:, i] = sums * scale
    for j, pts, hit in chain_whole_table(fam, values, start):
        sat |= hit
        sums += phi(pts)
        for i in np.nonzero(checkpoints == j)[0]:
            paths[:, i] = sums * scale
    return paths, sums, sat


def ergodic_total_whole_table(fam, raw, values, start):
    """Sum of ``raw`` over the start and every step of ``chain_whole_table``, and the saturated rows.

    Each step's values are summed by ``np.sum`` and added to a Python float
    in step order.
    """
    total = float(np.sum(raw(start)))
    sat = np.zeros(len(start), dtype=bool)
    for _, pts, hit in chain_whole_table(fam, values, start):
        sat |= hit
        total += float(np.sum(raw(pts)))
    return total, sat


def step_rowwise(fam, alphas, pts):
    """One map per row through the public ``apply_batch``, one call per row."""
    out = np.array(pts, dtype=float, copy=True)
    sat = np.zeros(out.shape[0], dtype=bool)
    for i in range(out.shape[0]):
        a = int(alphas[i]) if fam.finite else alphas[i]
        img, s = fam.apply_batch(a, out[i].reshape(-1, fam.dim))
        out[i] = img.reshape(out.shape[1:])
        sat[i] = s.any()
    return out, sat


def reverse_rowwise(fam, blocks, depths, base):
    """Row ``i`` maps ``base`` through ``f_{blocks[i,0]} o ... o f_{blocks[i,depths[i]-1]}``.

    Composed innermost first, one public ``apply_batch`` call per map and
    row; the row's flag is the OR of its calls' saturation flags.  ``base``
    is the (P, dim) probe that every row shares.
    """
    base = np.asarray(base, dtype=float)
    out = np.empty((len(depths),) + base.shape)
    sat = np.zeros(len(depths), dtype=bool)
    for i, depth in enumerate(depths):
        img = base
        for j in range(depth - 1, -1, -1):
            alpha = int(blocks[i][j]) if fam.finite else blocks[i][j]
            img, s = fam.apply_batch(alpha, img)
            sat[i] |= s.any()
        out[i] = img
    return out, sat


def finite_symbol(u: float, probs) -> int:
    """Symbol 1..q of one uniform: the first k whose cumulative mass exceeds u, else q."""
    acc = 0.0
    for k, p in enumerate(probs, start=1):
        acc += p
        if u < acc:
            return k
    return len(probs)


def _label_word(label) -> int:
    """An int label is its own word mod 2**64; a string label the little-endian 8-byte blake2b digest of its UTF-8."""
    if isinstance(label, int):
        return label % 2**64
    digest = hashlib.blake2b(str(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _value(noise, u):
    """One noise value from its uniforms: a symbol from one, or a box parameter from ``dim``."""
    if hasattr(noise, "probs"):
        return finite_symbol(u[0], noise.probs)
    return noise.box.lo + np.asarray(u) * (noise.box.hi - noise.box.lo)


def _as_table(noise, rows, n_rows, depth):
    """Noise values as an (n_rows, depth) int64 symbol table or an (n_rows, depth, dim) parameter table."""
    if hasattr(noise, "probs"):
        return np.array(rows, dtype=np.int64).reshape(n_rows, depth)
    return np.array(rows, dtype=float).reshape(n_rows, depth, noise.dim)


def layout_uniforms(seed, label, stream_id, count):
    """The first ``count`` uniforms of replica ``stream_id`` of ``(seed, label)``, one Philox per counter block.

    The address is keyed once, ``SeedSequence([seed mod 2**64, label
    word]).generate_state(2, uint64)``, and uniform ``j`` of replica ``r``
    is word ``j % 4`` of the block enciphered from the 256-bit counter
    ``r mod 2**64 + 2**128 (j // 4)``.  numpy bumps the counter before it
    enciphers, so each block's Philox starts one below.
    """
    k0, k1 = np.random.SeedSequence([seed % 2**64, _label_word(label)]).generate_state(2, np.uint64)
    key = int(k0) + (int(k1) << 64)
    out = []
    for block in range((count + 3) // 4):
        counter = (stream_id % 2**64 + (block << 128) - 1) % 2**256
        out.extend(np.random.Generator(np.random.Philox(key=key, counter=counter)).random(4))
    return out[:count]


def per_stream_table(noise, seed, label, ids, depth):
    """The first ``depth`` noise values of every replica in ``ids``, row by row (see ``layout_uniforms``).

    Returns (len(ids), depth) int64 symbols or (len(ids), depth, dim) box
    parameters: a symbol takes one uniform, a box parameter ``dim``.
    """
    width = 1 if hasattr(noise, "probs") else noise.dim
    rows = []
    for i in ids:
        u = layout_uniforms(seed, label, i, depth * width)
        rows += [_value(noise, u[v * width : (v + 1) * width]) for v in range(depth)]
    return _as_table(noise, rows, len(ids), depth)


def single_stream(noise, seed, labels, n):
    """The first ``n`` noise values of the one stream ``(seed, *labels)``, drawn one at a time.

    The stream has no id: it is ``Generator(Philox(SeedSequence([seed mod
    2**64, word of each label])))``.  Returns (n,) int64 symbols or (n,
    dim) box parameters.
    """
    entropy = [seed % 2**64] + [_label_word(lab) for lab in labels]
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
    width = 1 if hasattr(noise, "probs") else noise.dim
    return _as_table(noise, [_value(noise, gen.random(width)) for _ in range(n)], 1, n)[0]


def pullback_linear_scan(fam, blocks, probe, tol, n_max):
    """Minimal pullback depth per row by trying d = 1, 2, ..., n_max in turn.

    Row ``i`` at depth ``d`` maps the probe through ``f_{blocks[i,0]} o ...
    o f_{blocks[i,d-1]}``, applied innermost first and recomposed from
    scratch for every d.  Returns (depths, centroids, diameters): the first
    d whose taxicab diameter is <= tol, with that image's centroid and
    diameter, or -1 and the diameter at ``n_max`` when no d qualifies.
    """
    probe = np.asarray(probe, dtype=float)
    depths, cents, diams = [], [], []
    for row in blocks:
        for d in range(1, n_max + 1):
            img = probe
            for j in range(d - 1, -1, -1):
                alpha = int(row[j]) if fam.finite else row[j]
                img, _ = fam.apply_batch(alpha, img)
            diam = float(sum(img[:, k].max() - img[:, k].min() for k in range(img.shape[1])))
            if diam <= tol:
                break
        depths.append(d if diam <= tol else -1)
        cents.append(img.mean(axis=0))
        diams.append(diam)
    return np.array(depths), np.array(cents), np.array(diams)


def sandwich_signs_bruteforce(mats):
    """Every sign vector s in {-1, +1}^d for which each S A S (S = diag(s)) is >= 0 or <= 0.

    Enumerates all 2^d sign vectors, both s and -s; returns them as tuples.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    d = mats[0].shape[0]
    found = set()
    for signs in itertools.product((1.0, -1.0), repeat=d):
        s = np.array(signs)
        if all((np.outer(s, s) * m >= 0).all() or (np.outer(s, s) * m <= 0).all() for m in mats):
            found.add(signs)
    return found


def halton_radical_inverse(n: int, dim: int) -> np.ndarray:
    """Points 1..n of the unscrambled Halton sequence in [0,1)^dim (dim <= 20).

    Coordinate d of point i is the base-p_d radical inverse of i, summed
    digit by digit in Python floats.
    """
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    out = np.empty((n, dim))
    for d in range(dim):
        b = primes[d]
        for i in range(n):
            f, r, idx = 1.0, 0.0, i + 1
            while idx > 0:
                f /= b
                r += f * (idx % b)
                idx //= b
            out[i, d] = r
    return out


def _slope_unweighted(x, ly):
    """Least-squares slope of ``ly`` against ``x``, as a unit-weight fit sums it."""
    w = np.ones_like(x)
    wsum = w.sum()
    xbar = (w * x).sum() / wsum
    ybar = (w * ly).sum() / wsum
    sxx = (w * (x - xbar) ** 2).sum()
    sxy = (w * (x - xbar) * (ly - ybar)).sum()
    return sxy / sxx


def rate_bootstrap_loop(diam, m0, seed, floor, n_boot=200):
    """A rate fit's bootstrap interval, one replica resample at a time.

    ``diam`` is the (replicas, n_max + 1) diameter table.  The fit window
    is the depths from max(m0, 1) whose mean diameter exceeds ``floor``.
    Resample b draws ``integers(0, R, size=R)`` from the ``(seed,
    "rate-bootstrap")`` stream, averages those replicas with ``mean(axis=0)``
    and fits the log of its window steps over ``floor``; one with fewer than
    two such steps keeps the full fit's slope.  Returns ((exp q2.5%, exp
    q97.5%) of the slopes, the number of distinct resample fit masks).
    """
    diam = np.asarray(diam, dtype=float)
    reps = diam.shape[0]
    ns = np.arange(diam.shape[1], dtype=float)
    mean = diam.mean(axis=0)
    window = (ns >= max(m0, 1)) & (mean > floor)
    full = _slope_unweighted(ns[window], np.log(mean[window]))
    entropy = [seed % 2**64, _label_word("rate-bootstrap")]
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
    slopes, masks = [], set()
    for _ in range(n_boot):
        bmean = diam[gen.integers(0, reps, size=reps)].mean(axis=0)
        bwin = window & (bmean > floor)
        masks.add(bwin.tobytes())
        slopes.append(full if bwin.sum() < 2 else _slope_unweighted(ns[bwin], np.log(bmean[bwin])))
    lo, hi = np.quantile(slopes, 0.025), np.quantile(slopes, 0.975)
    return (float(np.exp(lo)), float(np.exp(hi))), len(masks)
