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

The affine built-ins (cantor1d, cantor2d, lip-pair's linear mode,
affine-general, slide1d and rot2d) also declare their maps as
x -> A x + c (see :meth:`MapFamily.affine_form`); ``clt.affine_moments``
turns that declaration into exact stationary moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import (
    DegenerateProbeError,
    DimensionMismatchError,
    UnknownFamilyError,
    UsageError,
    _parse_errors,
)
from .order import Box, JOrder, _strictly_less
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
    n_saturated: int  # pairs with a saturated image of x or y (see classify_monotonicity)


# Registry entry: the one declaration of a family.  ``box`` is its probe box,
# and with ``bounded`` also its domain, which every member map sends into
# itself; the box's dimension is the family's.  ``default_noise`` gives the
# noise of a family built without one, and its kind (finite or box) is the
# kind the family takes, unless ``either_noise``.  ``defaults`` holds the
# params a caller may leave out: every callable of the entry gets the
# caller's params over them.  The vectorized map body receives a point block
# of shape (n, dim) and one parameter per point row: an (n,) array of
# symbols for finite noise, or an (n, d) array of parameter vectors for box
# noise; it returns the unclamped images, row i under row i's map.
# ``monotone`` gives the signs (+1 increasing, -1 decreasing coordinate) of an
# orthant order under which every clamped member map is increasing or
# decreasing, or None when the family declares no such order; ``default_j``
# then gives the increasing coordinates of a config without ``J`` (None:
# every coordinate).  ``affine`` gives the unclamped maps as x -> A x + c, or
# None: per-symbol ``(mats, offs)`` of shapes (q, d, d) and (q, d) for finite
# noise; for box noise ``(mats, offs, gain)``, one A as (1, d, d), c0 as
# (1, d) and a gain G, with c(u) = G u + c0 for the parameter u.  It
# describes the body and never replaces it: ``pts / 3.0`` and ``pts @ (I /
# 3).T`` round differently, so the body stays the source of every point.
@dataclass(frozen=True)
class _FamilyDef:
    box: Callable[[dict], Box]
    body: Callable[[dict, np.ndarray, np.ndarray], np.ndarray]
    bounded: bool = False
    default_noise: Callable[[dict], NoiseSpec] = lambda p: FiniteNoise((0.5, 0.5))
    either_noise: bool = False
    defaults: dict = field(default_factory=dict)
    monotone: Callable[[dict], tuple[float, ...] | None] = lambda p: None
    default_j: tuple[int, ...] | None = None
    affine: Callable[[dict], tuple | None] = lambda p: None
    config_ok: bool = True

    def resolve(self, params: dict) -> dict:
        """The caller's ``params`` over the defaults: what every callable of the entry gets."""
        return {**self.defaults, **params}


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


def _cantor_body(params, a, pts):
    # built in the gathered constants: one fewer per-point temporary than
    # ``pts / 3.0 + offsets``, with the same bits since addition commutes
    img = _per_row(params["offsets"], a)
    img += pts / 3.0
    return img


def _exp1d_body(params, a, pts):
    with np.errstate(over="ignore"):
        img = np.exp(pts)
    return np.negative(img, out=img, where=a[:, None] != 1)


def _arctanexp2d_body(params, a, pts):
    d = pts[:, 1] - pts[:, 0]
    with np.errstate(over="ignore"):
        return np.stack([np.arctan(d), np.exp(-d)], axis=1)


def _lip_pair_body(params, a, pts):
    slopes = _per_row(params["slopes"], a)
    mode = params["mode"]
    if mode == "linear":
        return slopes * pts
    if mode == "disjoint":
        return _per_row(params["offsets"], a) + slopes * np.tanh(pts)
    raise UsageError(f"lip-pair mode must be 'linear' or 'disjoint', got {mode!r}")


def _affine_body(params, a, pts):
    def affine(sym, rows):
        A = np.asarray(params["mats"][sym - 1], dtype=float)
        b = np.asarray(params["offs"][sym - 1], dtype=float)
        return rows @ A.T + b

    return _by_symbol(a, pts, affine)


def _slide1d_body(params, a, pts):
    return pts / 3.0 + (2.0 / 3.0) * a[:, :1]


def _rotation(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def _rot2d_body(params, a, pts):
    angles = params["angles"]
    return _by_symbol(a, pts, lambda sym, rows: rows @ _rotation(angles[sym - 1]).T)


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


def _third_plus_offsets(params):
    """Declaration of the cantor body: x -> x / 3 + offsets[a - 1]."""
    offs = np.asarray(params["offsets"], dtype=float)
    offs = offs.reshape(len(offs), -1)
    q, d = offs.shape
    return np.broadcast_to(np.eye(d) / 3.0, (q, d, d)), offs


def _lip_pair_affine(params):
    if params["mode"] != "linear":
        return None  # disjoint: offsets plus slopes times tanh
    slopes = np.asarray(params["slopes"], dtype=float).reshape(-1, 1, 1)
    return slopes, np.zeros((len(slopes), 1))


def _affine_general_affine(params):
    d = _affine_dim(params)
    mats = np.asarray(params["mats"], dtype=float).reshape(-1, d, d)
    return mats, np.asarray(params["offs"], dtype=float).reshape(-1, d)


def _slide1d_affine(params):
    # A = 1/3 and c(u) = (2/3) u_1 + 0: the body reads the first parameter coordinate only
    return np.full((1, 1, 1), 1.0 / 3.0), np.zeros((1, 1)), np.full((1, 1), 2.0 / 3.0)


def _rot2d_affine(params):
    angles = params["angles"]
    return np.array([_rotation(t) for t in angles]), np.zeros((len(angles), 2))


_REGISTRY: dict[str, _FamilyDef] = {
    "cantor1d": _FamilyDef(
        box=lambda p: _unit_box(1),
        bounded=True,
        body=_cantor_body,
        defaults={"offsets": (0.0, 2.0 / 3.0)},
        monotone=lambda p: (1.0,),
        affine=_third_plus_offsets,
    ),
    "cantor2d": _FamilyDef(
        box=lambda p: Box([0.0, -1.0], [1.0, 0.0]),
        bounded=True,
        body=_cantor_body,
        defaults={"offsets": ((0.0, 0.0), (2.0 / 3.0, -2.0 / 3.0))},
        monotone=lambda p: (1.0, -1.0),
        affine=_third_plus_offsets,
    ),
    "exp1d": _FamilyDef(
        box=lambda p: _sym_box(1, 3.0),
        body=_exp1d_body,
        monotone=lambda p: (1.0,),
    ),
    "arctanexp2d": _FamilyDef(
        box=lambda p: _sym_box(2, 1.0),
        body=_arctanexp2d_body,
        monotone=lambda p: (1.0, -1.0),
    ),
    "lip-pair": _FamilyDef(
        box=lambda p: _sym_box(1, 3.0),
        body=_lip_pair_body,
        defaults={"slopes": (2.0, 0.5), "mode": "linear", "offsets": (3.0, -2.0)},
        monotone=lambda p: (1.0,),
        affine=_lip_pair_affine,
    ),
    "affine-general": _FamilyDef(
        box=lambda p: _sym_box(_affine_dim(p), 1.0),
        body=_affine_body,
        default_noise=lambda p: FiniteNoise(tuple([1.0 / len(p["mats"])] * len(p["mats"]))),
        monotone=_affine_monotone,
        affine=_affine_general_affine,
    ),
    "slide1d": _FamilyDef(
        box=lambda p: _unit_box(1),
        bounded=True,
        body=_slide1d_body,
        default_noise=lambda p: BoxNoise(_unit_box(1)),
        monotone=lambda p: (1.0,),
        affine=_slide1d_affine,
    ),
    "rot2d": _FamilyDef(
        box=lambda p: _sym_box(2, 1.0),
        body=_rot2d_body,
        defaults={"angles": (math.pi / 6.0, math.sqrt(2.0))},
        default_j=(1,),
        affine=_rot2d_affine,
    ),
    "custom": _FamilyDef(
        box=lambda p: _sym_box(int(p["dim"]), 1.0),
        body=_custom_body,
        either_noise=True,
        config_ok=False,
    ),
}


def _family_def(family: str, config: bool = False) -> _FamilyDef:
    """The registry entry of ``family``; with ``config``, only one a config may name."""
    fdef = _REGISTRY.get(family)
    if fdef is None or (config and not fdef.config_ok):
        qualifier = "or non-configurable " if config else ""
        raise UnknownFamilyError(
            f"unknown {qualifier}family {family!r}; known: {builtin_family_ids()}"
        )
    return fdef


def builtin_family_ids() -> tuple[str, ...]:
    return tuple(sorted(k for k, v in _REGISTRY.items() if v.config_ok))


@dataclass(frozen=True)
class MapFamily:
    """A measurable family of self-maps of the domain, with its noise law.

    ``params`` selects/configures the concrete maps inside the named
    built-in family, and with it ``dim``; a param it leaves out takes the
    registry's default.  Outputs are clamped
    componentwise to [-clamp_bound, clamp_bound]; clamping never happens
    silently: :meth:`apply_batch` returns a saturation flag per row.
    """

    family: str
    noise: NoiseSpec
    params: dict = field(default_factory=dict)
    domain: Box | None = None
    clamp_bound: float = 1e300
    dim: int = field(init=False)  # the dimension of the registry's box for ``params``
    _params: dict = field(init=False, repr=False, compare=False)  # ``params`` over the defaults

    def __post_init__(self):
        fdef = _family_def(self.family)
        merged = fdef.resolve(self.params)
        object.__setattr__(self, "_params", merged)
        object.__setattr__(self, "dim", fdef.box(merged).dim)
        if not self.clamp_bound > 0:  # a NaN bound fails here too
            raise UsageError("clamp_bound must be positive")
        kind = type(fdef.default_noise(merged))
        if not fdef.either_noise and not isinstance(self.noise, kind):
            raise UsageError(f"family {self.family!r} takes {kind.__name__} only")

    @property
    def finite(self) -> bool:
        return isinstance(self.noise, FiniteNoise)

    def probe_box(self) -> Box:
        """Bounded region standing in for the domain when sampling images."""
        if self.domain is not None:
            return self.domain
        return _REGISTRY[self.family].box(self._params)

    def monotone_signs(self) -> np.ndarray | None:
        """Signs of an orthant order in which every clamped member map is monotone, or None.

        +1 marks an increasing coordinate and -1 a decreasing one.  Under
        this order each map is increasing or decreasing, so every
        composition is too, and it maps the probe box into the order
        interval spanned by the images of the box's two signed-extremal
        corners.  The declaration is exact, not sampled: it comes from the
        family's formulas (for affine-general, from the signs of S A S).
        """
        signs = _REGISTRY[self.family].monotone(self._params)
        return None if signs is None else np.array(signs, dtype=float)

    def affine_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
        """The unclamped member maps as x -> A x + c, or None for a family that is not affine.

        Finite noise gives ``(mats, offs, None)``: symbol a maps by
        ``mats[a - 1]`` (q, d, d) and ``offs[a - 1]`` (q, d), one entry per
        symbol of the noise.  Box noise gives ``(mats, offs, gain)``: one A
        (``mats`` is (1, d, d)) and c(u) = gain @ u + offs[0] for the drawn
        parameter u, ``gain`` (d, noise dim).  Like ``monotone_signs`` this
        is exact, from the family's formulas; the clamp is not part of it.
        """
        form = _REGISTRY[self.family].affine(self._params)
        if form is None:
            return None
        if self.finite:
            mats, offs = form
            return mats[: self.noise.q], offs[: self.noise.q], None
        mats, offs, gain = form
        full = np.zeros((self.dim, self.noise.dim))  # zero for parameter coordinates the body ignores
        full[:, : gain.shape[1]] = gain
        return mats, offs, full

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
        return _REGISTRY[self.family].body(self._params, a, pts)

    def apply_batch(self, alpha, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply the map selected by ``alpha`` (one value, or one per row) to a block of points.

        The one apply-and-clamp: returns the clamped images and per-row
        flags, True where a component of the row's image saturated
        (non-finite or beyond the clamp bound).
        """
        return _clamp_points(self.raw_batch(alpha, points), self.clamp_bound)


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
    fdef = _family_def(family)
    params = dict(params or {})
    full = fdef.resolve(params)
    box = fdef.box(full)  # validates required params before anything else
    if noise is None:
        noise = FiniteNoise(tuple(probs)) if probs is not None else fdef.default_noise(full)
    elif probs is not None:
        raise UsageError("pass either probs or noise, not both")
    if domain is None and fdef.bounded:
        domain = box
    return MapFamily(
        family=family,
        noise=noise,
        params=params,
        domain=domain,
        clamp_bound=clamp_bound,
    )


def family_from_config(cfg: dict) -> tuple[MapFamily, JOrder]:
    """Parse a JSON-shaped config into a family and its order.

    Recognized keys: ``family`` (required), ``probs``, ``params``,
    ``domain`` ({"lo": [...], "hi": [...]}), ``J`` (1-based increasing
    coordinates), ``clamp``, ``strict_tol``.  Without ``J`` the increasing
    coordinates are those the family's declared order
    (:meth:`MapFamily.monotone_signs`) marks +1; an undeclared family
    takes its registry entry's ``default_j``, or every coordinate.
    """
    if "family" not in cfg:
        raise UsageError("config must name a 'family'")
    family = cfg["family"]
    if not isinstance(family, str):
        raise UsageError(f"config 'family' must be a family id, got {family!r}")
    params = cfg.get("params")
    if params is not None and not isinstance(params, dict):
        raise UsageError(f"config 'params' must be an object, got {params!r}")
    fdef = _family_def(family, config=True)
    with _parse_errors("config"):
        domain = None
        if cfg.get("domain") is not None:
            domain = Box(cfg["domain"]["lo"], cfg["domain"]["hi"])
        noise = None
        if cfg.get("noise_box") is not None:
            if cfg.get("probs") is not None:
                raise UsageError("give either probs or noise_box, not both")
            noise = BoxNoise(Box(cfg["noise_box"]["lo"], cfg["noise_box"]["hi"]))
        clamp_bound = float(cfg.get("clamp", 1e300))
    fam = make_family(
        family,
        probs=cfg.get("probs"),
        params=params,
        domain=domain,
        clamp_bound=clamp_bound,
        noise=noise,
    )
    j = cfg.get("J")
    if j is None:
        signs = fam.monotone_signs()
        if signs is not None:
            j = [i + 1 for i in np.flatnonzero(signs > 0)]
        else:
            j = fdef.default_j or range(1, fam.dim + 1)
    with _parse_errors("config"):
        ordr = JOrder(
            dim=fam.dim,
            increasing=frozenset(int(i) for i in j),
            strict_tol=float(cfg.get("strict_tol", 1e-12)),
        )
    return fam, ordr


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
    """``obj`` with dataclasses, enums, arrays, tuples and numpy scalars as plain JSON values.

    A dataclass instance (every report object, and a nested ``Box``) becomes
    the dict of its fields; a field declared ``repr=False`` is left out.  An
    ``Enum`` member becomes its ``.value``.  With ``strict`` every float that
    is not finite becomes None (JSON null).
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj) if f.repr}
    if isinstance(obj, Enum):
        obj = obj.value
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


def _halton(n: int, dim: int) -> np.ndarray:
    """Points 1..n of the unscrambled Halton sequence in [0,1)^dim; point 0 is the origin, a corner.

    Coordinate j of point i is the radical inverse of i in the j-th prime
    base, summed digit by digit in the float order of
    ``scipy.stats.qmc.Halton(dim, scramble=False)``: ``b2r = 1/base``, then
    ``sample += digit * b2r; b2r /= base``; so the points are bitwise scipy's.
    """
    bases = np.array(_first_primes(dim))
    idx = np.repeat(np.arange(1, n + 1)[:, None], dim, axis=1)
    out = np.zeros((n, dim))
    b2r = 1.0 / bases
    while idx.any():
        out += (idx % bases) * b2r
        b2r /= bases
        idx //= bases
    return out


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _default_probe(fam: MapFamily, box: Box | None = None) -> np.ndarray:
    """The probe of ``box`` (default: the family's probe box), used by every high-level function.

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
    box = fam.probe_box() if box is None else box
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
    while found < n_pairs and draws < max_draws:
        batch = min(max(4 * (n_pairs - found), 64), max_draws - draws)
        draws += batch
        a = probe.lo + rng.random((batch, order.dim)) * (probe.hi - probe.lo)
        b = probe.lo + rng.random((batch, order.dim)) * (probe.hi - probe.lo)
        less = _strictly_less(a, b, order)
        greater = _strictly_less(b, a, order)
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
    ``cmp_points(x, y) = LESS``.  The images are clamped, so the verdict is
    that of the clamped map; ``n_saturated`` counts the pairs whose image
    of x or of y saturated the clamp.
    """
    if n_pairs < 1:
        raise UsageError("n_pairs must be >= 1")
    rng = stream_generator(seed, "monotone")
    xs, ys = _sample_comparable_pairs(rng, probe, order, n_pairs)
    fx, sat_x = fam.apply_batch(alpha, xs)
    fy, sat_y = fam.apply_batch(alpha, ys)
    n_saturated = int(np.count_nonzero(sat_x | sat_y))
    less = _strictly_less(fx, fy, order)
    greater = _strictly_less(fy, fx, order)
    if bool(less.all()):
        return MonotonicityVerdict(Monotonicity.INCREASING, None, n_pairs, n_saturated)
    if bool(greater.all()):
        return MonotonicityVerdict(Monotonicity.DECREASING, None, n_pairs, n_saturated)
    # argmin finds each direction's first violating pair; the later one ends the last survivor
    i = max(int(np.argmin(less)), int(np.argmin(greater)))
    return MonotonicityVerdict(Monotonicity.NEITHER, (xs[i].copy(), ys[i].copy()), n_pairs, n_saturated)
