"""Signed-coordinate partial order on points and boxes in R^k.

The order is parametrized by a set of coordinates compared increasingly;
all remaining coordinates are compared decreasingly.  ``x < y`` therefore
means every increasing coordinate of ``x`` is strictly below the one of
``y`` and every decreasing coordinate strictly above.  Box comparisons are
conservative: a ``LESS``/``GREATER`` verdict is sound for every point pair
drawn from the two boxes, while ``INCONCLUSIVE`` claims nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "PointCmp",
    "BoxCmp",
    "JOrder",
    "Box",
    "cmp_points",
    "cmp_boxes",
    "projections_disjoint",
]


class PointCmp(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class BoxCmp(Enum):
    LESS = "less"
    GREATER = "greater"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class JOrder:
    """Strict partial order on R^dim with a per-coordinate direction.

    Coordinates listed in ``increasing`` (1-based indices) are compared
    with ``<``, all others with ``>``.  ``strict_tol`` is the margin below
    which a coordinate difference counts as order-ambiguous rather than
    strict; it must never be negative.
    """

    dim: int
    increasing: frozenset[int]
    strict_tol: float = 1e-12

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        inc = frozenset(int(i) for i in self.increasing)
        if not inc <= set(range(1, self.dim + 1)):
            raise ValueError(
                f"increasing coordinates {sorted(inc)} not a subset of 1..{self.dim}"
            )
        if not (self.strict_tol >= 0.0):
            raise ValueError("strict_tol must be non-negative")
        object.__setattr__(self, "increasing", inc)
        signs = np.where(
            np.isin(np.arange(1, self.dim + 1), sorted(inc)), 1.0, -1.0
        )
        signs.flags.writeable = False
        object.__setattr__(self, "_signs", signs)

    @property
    def signs(self) -> np.ndarray:
        """+1 for increasing coordinates, -1 for decreasing ones."""
        return self._signs  # type: ignore[attr-defined]


def _as_point(x, dim: int) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.shape != (dim,):
        raise DimensionMismatchError(f"expected a point of dimension {dim}, got shape {p.shape}")
    return p


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_1,hi_1] x ... x [lo_k,hi_k]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float).reshape(-1)
        hi = np.array(self.hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape:
            raise DimensionMismatchError("box corners have different dimensions")
        if lo.size < 1:
            raise ValueError("box must have dimension >= 1")
        if np.any(lo > hi):
            raise ValueError("box lower corner exceeds upper corner")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def diameter(self) -> float:
        """Taxicab diameter: the sum of the coordinate spans."""
        return float(np.sum(self.hi - self.lo))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def corners(self) -> np.ndarray:
        """All 2^dim corner points, shape (2^dim, dim).  Guarded for dim <= 20."""
        if self.dim > 20:
            raise ValueError("corner enumeration limited to dimension 20")
        grid = np.stack(
            np.meshgrid(*[(self.lo[i], self.hi[i]) for i in range(self.dim)], indexing="ij"),
            axis=-1,
        )
        return grid.reshape(-1, self.dim)

    def contains(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError("point dimension does not match box")
        return np.all((pts >= self.lo - tol) & (pts <= self.hi + tol), axis=1)

    def contains_box(self, other: "Box", tol: float = 0.0) -> bool:
        if other.dim != self.dim:
            raise DimensionMismatchError("box dimensions differ")
        return bool(np.all(other.lo >= self.lo - tol) and np.all(other.hi <= self.hi + tol))

    def scaled(self, factor: float) -> "Box":
        """Box scaled about its center by ``factor`` >= 0."""
        c = self.center
        half = 0.5 * factor * (self.hi - self.lo)
        return Box(c - half, c + half)

    @staticmethod
    def hull(points: np.ndarray) -> "Box":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return Box(pts.min(axis=0), pts.max(axis=0))


def cmp_points(x, y, order: JOrder) -> PointCmp:
    """Compare two points under the signed-coordinate order.

    LESS means x precedes y with every coordinate margin strictly above
    ``strict_tol``; EQUAL means all coordinates agree within the margin;
    coordinate patterns that fit neither direction are INCOMPARABLE.
    """
    px = _as_point(x, order.dim)
    py = _as_point(y, order.dim)
    if np.all(np.abs(py - px) <= order.strict_tol):
        return PointCmp.EQUAL
    if _strictly_less(px, py, order):
        return PointCmp.LESS
    if _strictly_less(py, px, order):
        return PointCmp.GREATER
    return PointCmp.INCOMPARABLE


def _strictly_less(x: np.ndarray, y: np.ndarray, order: JOrder) -> np.ndarray:
    """The strict point test ``x < y``: every signed margin above ``strict_tol``, over the last axis."""
    return np.all((y - x) * order.signs > order.strict_tol, axis=-1)


def _strictly_below(t_hi: np.ndarray, t_lo: np.ndarray, tol: float) -> np.ndarray:
    """The strict box test in signed box coordinates: ``t_hi + tol < t_lo`` everywhere, over the last axis."""
    return np.all(t_hi + tol < t_lo, axis=-1)


def _signed_box_coords(lo: np.ndarray, hi: np.ndarray, order: JOrder):
    """Flip decreasing coordinates so the order becomes componentwise."""
    signs = order.signs
    t_lo = np.where(signs > 0, lo, -hi)
    t_hi = np.where(signs > 0, hi, -lo)
    return t_lo, t_hi


def cmp_boxes(b1: Box, b2: Box, order: JOrder) -> BoxCmp:
    """Conservative set-order test on boxes.

    LESS certifies that every point of ``b1`` compares LESS against every
    point of ``b2``; the symmetric claim holds for GREATER.  Anything else
    is INCONCLUSIVE, which is never a disproof.
    """
    if b1.dim != order.dim or b2.dim != order.dim:
        raise DimensionMismatchError("box dimension does not match order dimension")
    lo1, hi1 = _signed_box_coords(b1.lo, b1.hi, order)
    lo2, hi2 = _signed_box_coords(b2.lo, b2.hi, order)
    if _strictly_below(hi1, lo2, order.strict_tol):
        return BoxCmp.LESS
    if _strictly_below(hi2, lo1, order.strict_tol):
        return BoxCmp.GREATER
    return BoxCmp.INCONCLUSIVE


def projections_disjoint(b1: Box, b2: Box) -> bool:
    """True iff the coordinate projections of the boxes are disjoint in every axis."""
    if b1.dim != b2.dim:
        raise DimensionMismatchError("box dimensions differ")
    return bool(np.all((b1.hi < b2.lo) | (b2.hi < b1.lo)))
