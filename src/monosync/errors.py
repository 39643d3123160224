"""Exception hierarchy shared across the package."""

from __future__ import annotations

from contextlib import contextmanager

__all__ = [
    "MonosyncError",
    "UsageError",
    "DimensionMismatchError",
    "UnknownFamilyError",
    "DegenerateProbeError",
    "NotConvergedError",
    "DegenerateSeriesError",
    "NoDecayError",
    "NonPositiveSigmaError",
]


class MonosyncError(Exception):
    """Base class for all package errors."""


class UsageError(MonosyncError):
    """Invalid arguments, configs, or preconditions the caller controls."""


class DimensionMismatchError(UsageError):
    """Operands live in spaces of different dimension."""


class UnknownFamilyError(UsageError):
    """Family identifier not present in the registry."""


class DegenerateProbeError(MonosyncError):
    """No comparable pair could be sampled from the probe region."""


class NotConvergedError(MonosyncError):
    """A reverse-composition limit did not reach the requested tolerance.

    Carries the depth reached and the last observed diameter so callers can
    distinguish "tolerance too tight" from "no contraction at all".
    """

    def __init__(self, n_max: int, last_diameter: float):
        self.n_max = n_max
        self.last_diameter = last_diameter
        super().__init__(
            f"no convergence after {n_max} steps (last diameter {last_diameter:.3e})"
        )


class DegenerateSeriesError(MonosyncError):
    """Too few usable positive-diameter steps to fit a decay rate."""


class NoDecayError(MonosyncError):
    """Iterated transfer-operator terms stopped decaying; the series cannot be truncated."""


class NonPositiveSigmaError(MonosyncError):
    """The fluctuation variance estimate came out non-positive (degenerate observable)."""


@contextmanager
def _parse_errors(what: str):
    """Re-raise the KeyError, TypeError or ValueError of parsing outside input as a UsageError."""
    try:
        yield
    except KeyError as exc:
        raise UsageError(f"{what}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{what}: {exc}") from None
