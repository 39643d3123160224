"""Map families driven by i.i.d. noise, plus empirical monotonicity checks.

A family bundles a parametrized map, the noise law selecting the parameter,
the iteration domain, and a saturation bound.  Built-ins cover the standard
test systems used throughout the package:

``cantor1d``      two affine contractions of [0,1] with slope 1/3
``cantor2d``      the planar version with a mirrored second coordinate
``exp1d``         exp(x) and -exp(x) on the whole line
``arctanexp2d``   the order-reversing planar map (arctan(y-x), exp(x-y))
``lip-pair``      two maps with Lipschitz constants 2 and 1/2; the
                  ``disjoint`` mode bounds and separates their images
``affine-general``user-supplied matrices and offsets, one per noise symbol
``slide1d``       x/3 + 2a/3 with a drawn uniformly from [0,1]
``rot2d``         two plane rotations (never order-monotone; negative control)
``custom``        in-code callable families, not constructible from configs

A ``custom`` family's ``params["fn"]`` maps an (n, dim) point block.  On
finite noise it is called as ``fn(symbol, pts)`` with one int symbol for
the whole block; on box noise as ``fn(alphas, pts)`` with an (n, d) array
holding each point row's parameter vector.

Every family except ``rot2d`` and ``custom`` declares an orthant order
under which each of its clamped member maps is increasing or decreasing
(affine-general only when its matrices admit one; see
:meth:`MapFamily.monotone_signs`).  Such a declaration is exact, and it
lets every high-level function probe the family with two box corners (see
``_default_probe``).  ``classify_monotonicity`` is the empirical check on
sampled comparable pairs; its verdict is a certificate only up to the
sampled evidence and carries a violating witness whenever the family is
neither increasing nor decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import (
    DegenerateProbeError,
    DimensionMismatchError,
    UnknownFamilyError,
    UsageError,
)
from .order import Box, JOrder
from .streams import stream_generator

__all__ = [
    "FiniteNoise",
    "BoxNoise",
    "NoiseSpec",
    "MapFamily",
    "Monotonicity",
    "MonotonicityVerdict",
    "make_family",
    "family_from_config",
    "family_to_config",
    "builtin_family_ids",
    "apply_map",
    "image_box",
    "classify_monotonicity",
    "probe_cloud",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class FiniteNoise:
    """Noise on symbols 1..q with an explicit probability vector."""

    probs: tuple[float, ...]

    def __post_init__(self):
        p = tuple(float(v) for v in self.probs)
        if len(p) < 1:
            raise UsageError("finite noise needs at least one symbol")
        if any(v < 0 for v in p):
            raise UsageError("noise probabilities must be non-negative")
        if abs(sum(p) - 1.0) > _PROB_TOL:
            raise UsageError(f"noise probabilities sum to {sum(p)!r}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def q(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class BoxNoise:
    """Noise drawn uniformly from a parameter box."""

    box: Box

    @property
    def dim(self) -> int:
        return self.box.dim


NoiseSpec = Union[FiniteNoise, BoxNoise]


class Monotonicity(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NEITHER = "neither"


@dataclass(frozen=True)
class MonotonicityVerdict:
    kind: Monotonicity
    witness: tuple[np.ndarray, np.ndarray] | None
    pairs_tested: int


# Registry entry: dimension, default noise, default domain/probe constructors,
# the vectorized map body and the monotonicity declaration.  The body receives
# a point block of shape (n, dim) and one parameter per point row: an (n,)
# array of symbols for finite noise, or an (n, d) array of parameter vectors
# for box noise; it returns the unclamped images, row i under row i's map.
# ``monotone`` gives the signs (+1 increasing, -1 decreasing coordinate) of an
# orthant order under which every clamped member map is increasing or
# decreasing, or None when the family declares no such order.
@dataclass(frozen=True)
class _FamilyDef:
    dim: Callable[[dict], int]
    default_noise: Callable[[dict], NoiseSpec]
    default_domain: Callable[[dict], Box | None]
    default_probe: Callable[[dict], Box]
    body: Callable[[dict, np.ndarray, np.ndarray], np.ndarray]
    monotone: Callable[[dict], tuple[float, ...] | None] = lambda p: None
    config_ok: bool = True


def _unit_box(dim: int) -> Box:
    return Box(np.zeros(dim), np.ones(dim))


def _sym_box(dim: int, r: float) -> Box:
    return Box(-r * np.ones(dim), r * np.ones(dim))


def _per_row(consts, a):
    """``consts[a - 1]`` for each row's symbol, as (n, k) rows (a scalar constant has k = 1)."""
    c = np.asarray(consts, dtype=float)
    return c.reshape(len(c), -1).take(a - 1, axis=0)


def _by_symbol(a, pts, fn):
    """``fn(symbol, rows)`` applied to each symbol's rows of ``pts``, in increasing symbol order.

    A symbol's rows keep their order, so a matrix product sees the same row
    block as when those rows are mapped on their own, and rounds the same.
    """
    lo, hi = (int(a.min()), int(a.max())) if a.size else (1, 1)
    if lo == hi:
        return fn(lo, pts)
    images, rows = [], []
    for s in range(lo, hi + 1):
        idx = np.flatnonzero(a == s)
        if idx.size:
            images.append(fn(s, pts.take(idx, axis=0)))
            rows.append(idx)
    at = np.empty(a.size, dtype=np.intp)  # where each point's image sits in the stacked images
    at[np.concatenate(rows)] = np.arange(a.size)
    return np.concatenate(images).take(at, axis=0)


def _cantor1d_body(params, a, pts):
    return pts / 3.0 + _per_row(params.get("offsets", (0.0, 2.0 / 3.0)), a)


def _cantor2d_body(params, a, pts):
    offs = params.get("offsets", ((0.0, 0.0), (2.0 / 3.0, -2.0 / 3.0)))
    return pts / 3.0 + _per_row(offs, a)


def _exp1d_body(params, a, pts):
    with np.errstate(over="ignore"):
        img = np.exp(pts)
    return np.where(a[:, None] == 1, img, -img)


def _arctanexp2d_body(params, a, pts):
    d = pts[:, 1] - pts[:, 0]
    with np.errstate(over="ignore"):
        return np.stack([np.arctan(d), np.exp(-d)], axis=1)


def _lip_pair_body(params, a, pts):
    slopes = _per_row(params.get("slopes", (2.0, 0.5)), a)
    mode = params.get("mode", "linear")
    if mode == "linear":
        return slopes * pts
    if mode == "disjoint":
        return _per_row(params.get("offsets", (3.0, -2.0)), a) + slopes * np.tanh(pts)
    raise UsageError(f"lip-pair mode must be 'linear' or 'disjoint', got {mode!r}")


def _affine_body(params, a, pts):
    def affine(sym, rows):
        A = np.asarray(params["mats"][sym - 1], dtype=float)
        b = np.asarray(params["offs"][sym - 1], dtype=float)
        return rows @ A.T + b

    return _by_symbol(a, pts, affine)


def _slide1d_body(params, a, pts):
    return pts / 3.0 + (2.0 / 3.0) * a[:, :1]


def _rot2d_body(params, a, pts):
    angles = params.get("angles", (math.pi / 6.0, math.sqrt(2.0)))

    def rotate(sym, rows):
        t = angles[sym - 1]
        c, s = math.cos(t), math.sin(t)
        return rows @ np.array([[c, -s], [s, c]]).T

    return _by_symbol(a, pts, rotate)


def _custom_body(params, a, pts):
    def call(alpha, rows):
        return np.asarray(params["fn"](alpha, rows), dtype=float).reshape(rows.shape)

    return call(a, pts) if a.ndim == 2 else _by_symbol(a, pts, call)


def _affine_dim(params) -> int:
    if "mats" not in params or "offs" not in params:
        raise UsageError("affine-general requires 'mats' and 'offs' params")
    return len(np.atleast_1d(np.asarray(params["offs"][0], dtype=float)))


def _affine_monotone(params) -> tuple[float, ...] | None:
    """The first signs s, s_1 = +1, with every S A S entrywise >= 0 or <= 0 (S = diag(s)).

    x -> A x + c is increasing in the order of s iff S A S >= 0 entrywise,
    and decreasing iff S A S <= 0; s and -s give the same S A S, so
    2^(d-1) patterns cover every order.  None beyond d = 10.  Overflow is
    the one exception: a row whose products overflow to opposite
    infinities gives NaN, which the clamp sets to 0 and flags.
    """
    d = _affine_dim(params)
    if d > 10:
        return None
    mats = [np.asarray(m, dtype=float).reshape(d, d) for m in params["mats"]]
    for bits in range(2 ** (d - 1)):
        s = np.array([1.0] + [-1.0 if bits >> k & 1 else 1.0 for k in range(d - 1)])
        sas = [s[:, None] * A * s[None, :] for A in mats]
        if all((m >= 0).all() or (m <= 0).all() for m in sas):
            return tuple(s.tolist())
    return None


# Every built-in but affine-general declares the order of its default J = {1}.
_REGISTRY: dict[str, _FamilyDef] = {
    "cantor1d": _FamilyDef(
        dim=lambda p: 1,
        default_noise=lambda p: FiniteNoise((0.5, 0.5)),
        default_domain=lambda p: _unit_box(1),
        default_probe=lambda p: _unit_box(1),
        body=_cantor1d_body,
        monotone=lambda p: (1.0,),
    ),
    "cantor2d": _FamilyDef(
        dim=lambda p: 2,
        default_noise=lambda p: FiniteNoise((0.5, 0.5)),
        default_domain=lambda p: Box([0.0, -1.0], [1.0, 0.0]),
        default_probe=lambda p: Box([0.0, -1.0], [1.0, 0.0]),
        body=_cantor2d_body,
        monotone=lambda p: (1.0, -1.0),
    ),
    "exp1d": _FamilyDef(
        dim=lambda p: 1,
        default_noise=lambda p: FiniteNoise((0.5, 0.5)),
        default_domain=lambda p: None,
        default_probe=lambda p: _sym_box(1, 3.0),
        body=_exp1d_body,
        monotone=lambda p: (1.0,),
    ),
    "arctanexp2d": _FamilyDef(
        dim=lambda p: 2,
        default_noise=lambda p: FiniteNoise((0.5, 0.5)),
        default_domain=lambda p: None,
        default_probe=lambda p: _sym_box(2, 1.0),
        body=_arctanexp2d_body,
        monotone=lambda p: (1.0, -1.0),
    ),
    "lip-pair": _FamilyDef(
        dim=lambda p: 1,
        default_noise=lambda p: FiniteNoise((0.5, 0.5)),
        default_domain=lambda p: None,
        default_probe=lambda p: _sym_box(1, 3.0),
        body=_lip_pair_body,
        monotone=lambda p: (1.0,),
    ),
    "affine-general": _FamilyDef(
        dim=_affine_dim,
        default_noise=lambda p: FiniteNoise(
            tuple([1.0 / len(p["mats"])] * len(p["mats"]))
        ),
        default_domain=lambda p: None,
        default_probe=lambda p: _sym_box(_affine_dim(p), 1.0),
        body=_affine_body,
        monotone=_affine_monotone,
    ),
    "slide1d": _FamilyDef(
        dim=lambda p: 1,
        default_noise=lambda p: BoxNoise(_unit_box(1)),
        default_domain=lambda p: _unit_box(1),
        default_probe=lambda p: _unit_box(1),
        body=_slide1d_body,
        monotone=lambda p: (1.0,),
    ),
    "rot2d": _FamilyDef(
        dim=lambda p: 2,
        default_noise=lambda p: FiniteNoise((0.5, 0.5)),
        default_domain=lambda p: None,
        default_probe=lambda p: _sym_box(2, 1.0),
        body=_rot2d_body,
    ),
    "custom": _FamilyDef(
        dim=lambda p: int(p["dim"]),
        default_noise=lambda p: FiniteNoise((0.5, 0.5)),
        default_domain=lambda p: None,
        default_probe=lambda p: _sym_box(int(p["dim"]), 1.0),
        body=_custom_body,
        config_ok=False,
    ),
}


def builtin_family_ids() -> tuple[str, ...]:
    return tuple(sorted(k for k, v in _REGISTRY.items() if v.config_ok))


@dataclass(frozen=True)
class MapFamily:
    """A measurable family of self-maps of the domain, with its noise law.

    ``params`` selects/configures the concrete maps inside the named
    built-in family.  Outputs are clamped componentwise to
    [-clamp_bound, clamp_bound]; clamping never happens silently, callers
    receive a saturation flag through the batched application helpers.
    """

    family: str
    dim: int
    noise: NoiseSpec
    params: dict = field(default_factory=dict)
    domain: Box | None = None
    clamp_bound: float = 1e300

    def __post_init__(self):
        if self.family not in _REGISTRY:
            raise UnknownFamilyError(
                f"unknown family {self.family!r}; known: {builtin_family_ids()}"
            )
        if self.clamp_bound <= 0:
            raise UsageError("clamp_bound must be positive")
        if self.family == "slide1d":
            if not isinstance(self.noise, BoxNoise):
                raise UsageError("slide1d draws its parameter from a box; use BoxNoise")
        elif self.family != "custom" and not isinstance(self.noise, FiniteNoise):
            raise UsageError(f"family {self.family!r} requires finite noise")

    @property
    def finite(self) -> bool:
        return isinstance(self.noise, FiniteNoise)

    def probe_box(self) -> Box:
        """Bounded region standing in for the domain when sampling images."""
        if self.domain is not None:
            return self.domain
        return _REGISTRY[self.family].default_probe(self.params)

    def monotone_signs(self) -> np.ndarray | None:
        """Signs of an orthant order in which every clamped member map is monotone, or None.

        +1 marks an increasing coordinate and -1 a decreasing one.  Under
        this order each map is increasing or decreasing, so every
        composition is too, and it maps the probe box into the order
        interval spanned by the images of the box's two signed-extremal
        corners.  The declaration is exact, not sampled: it comes from the
        family's formulas (for affine-general, from the signs of S A S).
        """
        signs = _REGISTRY[self.family].monotone(self.params)
        return None if signs is None else np.array(signs, dtype=float)

    def raw_batch(self, alpha, points: np.ndarray) -> np.ndarray:
        """Unclamped images of a validated point block under the maps ``alpha`` selects.

        ``alpha`` is one noise value for the whole block (a symbol, or a
        (d,) parameter vector) or one per point row ((n,) symbols, or (n, d)
        parameters); the body always gets one per row.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"points of dimension {pts.shape[1]} fed to family of dimension {self.dim}"
            )
        rows = (pts.shape[0],) if self.finite else (pts.shape[0], self.noise.dim)
        a = np.asarray(alpha)
        if a.shape != rows:
            a = np.broadcast_to(a, rows)
        return _REGISTRY[self.family].body(self.params, a, pts)

    def apply_batch(self, alpha, points: np.ndarray) -> tuple[np.ndarray, bool]:
        """Apply the map selected by ``alpha`` (one value, or one per row) to a block of points.

        Returns the clamped images and whether any component saturated
        (non-finite or beyond the clamp bound).
        """
        pts, sat = _clamp_points(self.raw_batch(alpha, points), self.clamp_bound)
        return pts, bool(sat.any())


def _clamp_points(raw: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Clamp a point block into [-bound, bound], with per-point saturation flags.

    Non-finite components become 0 (NaN) or +-bound (infinities) and are
    flagged like components beyond the bound.  A block already inside a
    finite bound is returned as is, checked by two reductions that allocate
    nothing; NaN fails that test and takes the full path, and so does every
    block under an infinite bound, whose infinities must still be flagged.
    The full path flags through boolean masks and returns ``raw`` itself
    when nothing saturated; otherwise it clamps one copy, so the block a
    body returned (possibly its own input) is never written.
    """
    if -bound <= raw.min(initial=0.0) and raw.max(initial=0.0) <= bound < math.inf:
        return raw, np.zeros(raw.shape[:-1], dtype=bool)
    inside = np.isfinite(raw)
    inside &= raw <= bound
    inside &= raw >= -bound
    sat = ~inside.all(axis=-1)
    if not sat.any():
        return raw, sat
    out = np.clip(raw, -bound, bound)  # NaN stays NaN; an infinity meets a finite bound
    return np.nan_to_num(out, copy=False, nan=0.0, posinf=bound, neginf=-bound), sat


def make_family(
    family: str,
    probs=None,
    params: dict | None = None,
    domain: Box | None = None,
    clamp_bound: float = 1e300,
    noise: NoiseSpec | None = None,
) -> MapFamily:
    """Build a family from registry defaults, overriding selectively."""
    if family not in _REGISTRY:
        raise UnknownFamilyError(
            f"unknown family {family!r}; known: {builtin_family_ids()}"
        )
    fdef = _REGISTRY[family]
    params = dict(params or {})
    dim = fdef.dim(params)  # validates required params before anything else
    if noise is None:
        noise = FiniteNoise(tuple(probs)) if probs is not None else fdef.default_noise(params)
    elif probs is not None:
        raise UsageError("pass either probs or noise, not both")
    if domain is None:
        domain = fdef.default_domain(params)
    return MapFamily(
        family=family,
        dim=dim,
        noise=noise,
        params=params,
        domain=domain,
        clamp_bound=clamp_bound,
    )


def family_from_config(cfg: dict) -> tuple[MapFamily, JOrder]:
    """Parse a JSON-shaped config into a family and its order.

    Recognized keys: ``family`` (required), ``probs``, ``params``,
    ``domain`` ({"lo": [...], "hi": [...]}), ``J`` (1-based increasing
    coordinates), ``clamp``, ``strict_tol``.
    """
    if "family" not in cfg:
        raise UsageError("config must name a 'family'")
    family = cfg["family"]
    if family not in _REGISTRY or not _REGISTRY[family].config_ok:
        raise UnknownFamilyError(
            f"unknown or non-configurable family {family!r}; known: {builtin_family_ids()}"
        )
    domain = None
    if cfg.get("domain") is not None:
        domain = Box(cfg["domain"]["lo"], cfg["domain"]["hi"])
    noise = None
    if cfg.get("noise_box") is not None:
        if cfg.get("probs") is not None:
            raise UsageError("give either probs or noise_box, not both")
        noise = BoxNoise(Box(cfg["noise_box"]["lo"], cfg["noise_box"]["hi"]))
    fam = make_family(
        family,
        probs=cfg.get("probs"),
        params=cfg.get("params"),
        domain=domain,
        clamp_bound=float(cfg.get("clamp", 1e300)),
        noise=noise,
    )
    j = cfg.get("J", _DEFAULT_INCREASING.get(family))
    if j is None:
        j = list(range(1, fam.dim + 1))
    ordr = JOrder(
        dim=fam.dim,
        increasing=frozenset(int(i) for i in j),
        strict_tol=float(cfg.get("strict_tol", 1e-12)),
    )
    return fam, ordr


_DEFAULT_INCREASING = {
    "cantor1d": [1],
    "cantor2d": [1],
    "exp1d": [1],
    "arctanexp2d": [1],
    "lip-pair": [1],
    "slide1d": [1],
    "rot2d": [1],
}


def family_to_config(fam: MapFamily, ordr: JOrder) -> dict:
    """Inverse of :func:`family_from_config` for manifest echoing."""
    cfg: dict = {"family": fam.family, "J": sorted(ordr.increasing)}
    if isinstance(fam.noise, FiniteNoise):
        cfg["probs"] = list(fam.noise.probs)
    else:
        cfg["noise_box"] = {"lo": fam.noise.box.lo.tolist(), "hi": fam.noise.box.hi.tolist()}
    if fam.params:
        cfg["params"] = _jsonable(fam.params, False)
    if fam.domain is not None:
        cfg["domain"] = {"lo": fam.domain.lo.tolist(), "hi": fam.domain.hi.tolist()}
    cfg["clamp"] = fam.clamp_bound
    cfg["strict_tol"] = ordr.strict_tol
    return cfg


def _jsonable(obj, strict: bool):
    """``obj`` with arrays, tuples and numpy scalars as plain JSON values.

    With ``strict`` every float that is not finite becomes None (JSON null).
    """
    if isinstance(obj, dict):
        return {k: _jsonable(v, strict) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, strict) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if strict and isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def apply_map(fam: MapFamily, alpha, x) -> np.ndarray:
    """Image of a single point under the map selected by ``alpha``."""
    pts, _ = fam.apply_batch(alpha, np.asarray(x, dtype=float).reshape(1, -1))
    return pts[0]


def image_box(fam: MapFamily, block, probe_points: np.ndarray) -> Box:
    """Bounding box of the probe cloud under a block composition.

    The block ``(a_0, ..., a_{m-1})`` composes with ``a_0`` applied last
    (outermost), matching reverse-order iteration.
    """
    pts = np.atleast_2d(np.asarray(probe_points, dtype=float))
    if pts.shape[0] < 1:
        raise UsageError("probe cloud must be nonempty")
    values = list(block)
    if len(values) < 1:
        raise UsageError("block must have length >= 1")
    for a in reversed(values):
        pts, _ = fam.apply_batch(a, pts)
    return Box.hull(pts)


def _halton(n: int, dim: int) -> np.ndarray:
    """Unscrambled Halton points in [0,1)^dim; deterministic by construction."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    if dim > len(primes):
        raise ValueError("halton cloud limited to dimension 20")
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


def probe_cloud(box: Box) -> np.ndarray:
    """Corner-inclusive probe cloud: all corners plus 32 low-discrepancy interior points.

    The default probe of a family that declares no monotonicity order
    (rot2d, custom, affine-general with mixed-sign matrices).  Its image
    hull is sampled evidence: it bounds the image of the box from inside,
    so a small image diameter holds for these points, not for the whole
    box.
    """
    corners = box.corners() if box.dim <= 10 else np.vstack([box.lo, box.hi])
    interior = box.lo + _halton(32, box.dim) * (box.hi - box.lo)
    return np.unique(np.vstack([corners, interior]), axis=0)


def _default_probe(fam: MapFamily) -> np.ndarray:
    """The probe of the family's probe box, used by every high-level function.

    For a family with a monotonicity declaration it is the monotone
    sandwich: the box's lowest and highest corners in the declared order.
    Any composition maps the whole box into the order interval between
    their images, and that interval is the hull of the two image points, so
    an image diameter or image box of the two corners holds for the whole
    box.  Every point of ``probe_cloud`` maps into that interval, and its
    corners include these two, so both probes give the same image hull (up
    to the rounding of batched matrix products).  A family without a
    declaration gets ``probe_cloud``.
    """
    box = fam.probe_box()
    signs = fam.monotone_signs()
    if signs is None:
        return probe_cloud(box)
    up = signs > 0
    return np.vstack([np.where(up, box.lo, box.hi), np.where(up, box.hi, box.lo)])


def _sample_comparable_pairs(
    rng: np.random.Generator,
    probe: Box,
    order: JOrder,
    n_pairs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample pairs x < y from the probe box; raises if too degenerate."""
    xs, ys = [], []
    found = 0
    draws = 0
    max_draws = 100 * n_pairs
    signs = order.signs
    tol = order.strict_tol
    while found < n_pairs and draws < max_draws:
        batch = min(max(4 * (n_pairs - found), 64), max_draws - draws)
        draws += batch
        a = probe.lo + rng.random((batch, order.dim)) * (probe.hi - probe.lo)
        b = probe.lo + rng.random((batch, order.dim)) * (probe.hi - probe.lo)
        signed = (b - a) * signs
        less = np.all(signed > tol, axis=1)
        greater = np.all(signed < -tol, axis=1)
        keep_x = np.vstack([a[less], b[greater]])
        keep_y = np.vstack([b[less], a[greater]])
        take = min(len(keep_x), n_pairs - found)
        if take:
            xs.append(keep_x[:take])
            ys.append(keep_y[:take])
            found += take
    if found < n_pairs:
        raise DegenerateProbeError(
            f"found only {found}/{n_pairs} comparable pairs in {max_draws} draws"
        )
    return np.vstack(xs), np.vstack(ys)


def classify_monotonicity(
    fam: MapFamily,
    alpha,
    order: JOrder,
    probe: Box,
    n_pairs: int = 200,
    seed: int = 0,
) -> MonotonicityVerdict:
    """Classify one member map as increasing, decreasing, or neither.

    Samples ``n_pairs`` comparable pairs from ``probe`` and compares their
    images.  NEITHER comes with the first pair that ruled out the last
    surviving direction; by construction the witness pair itself satisfies
    ``cmp_points(x, y) = LESS``.
    """
    if n_pairs < 1:
        raise UsageError("n_pairs must be >= 1")
    rng = stream_generator(seed, "monotone")
    xs, ys = _sample_comparable_pairs(rng, probe, order, n_pairs)
    fx, _ = fam.apply_batch(alpha, xs)
    fy, _ = fam.apply_batch(alpha, ys)
    signed = (fy - fx) * order.signs
    tol = order.strict_tol
    less = np.all(signed > tol, axis=1)
    greater = np.all(signed < -tol, axis=1)
    if bool(less.all()):
        return MonotonicityVerdict(Monotonicity.INCREASING, None, n_pairs)
    if bool(greater.all()):
        return MonotonicityVerdict(Monotonicity.DECREASING, None, n_pairs)
    # Find the pair that killed the last surviving hypothesis.
    inc_alive = True
    dec_alive = True
    for i in range(n_pairs):
        inc_next = inc_alive and bool(less[i])
        dec_next = dec_alive and bool(greater[i])
        if not inc_next and not dec_next:
            return MonotonicityVerdict(
                Monotonicity.NEITHER, (xs[i].copy(), ys[i].copy()), n_pairs
            )
        inc_alive, dec_alive = inc_next, dec_next
    raise AssertionError("unreachable: some pair must break a non-monotone family")
