"""Weighted log-linear fits for exponential-decay series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

__all__ = ["LogLinearFit", "loglinear_fit"]


@dataclass(frozen=True)
class LogLinearFit:
    slope: float
    intercept: float
    r_squared: float
    slope_se: float


def _ls_slopes(x: np.ndarray, ly: np.ndarray, w: np.ndarray):
    """Weighted least-squares slope of each row of ``ly`` against ``x``.

    ``ly`` is one series (shape (k,)) or a block of series sharing ``x``
    and ``w`` (shape (g, k)); each sum runs along a row, so a row's slope
    has the bits of the same row fitted alone.  Returns the slopes with
    ``x``'s weighted mean, the rows' weighted means and ``x``'s weighted
    sum of squares.
    """
    wsum = w.sum()
    xbar = (w * x).sum() / wsum
    ybar = (w * ly).sum(axis=-1) / wsum
    sxx = (w * (x - xbar) ** 2).sum()
    if sxx <= 0:
        raise UsageError("degenerate abscissae")
    sxy = (w * (x - xbar) * (ly - ybar[..., None])).sum(axis=-1)
    return sxy / sxx, xbar, ybar, sxx


def loglinear_fit(xs, ys, weights=None) -> LogLinearFit:
    """Fit ``log y = intercept + slope * x`` by (weighted) least squares.

    ``weights`` are inverse variances of ``log y``; the default is an
    unweighted fit.  With exactly two points the fit interpolates and the
    diagnostics degenerate to r^2 = 1, se = 0.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise UsageError("xs and ys must be 1-d arrays of equal length")
    if x.size < 2:
        raise UsageError("need at least two points to fit a slope")
    if np.any(y <= 0):
        raise UsageError("log-linear fit requires positive values")
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise UsageError("weights must be positive")
    ly = np.log(y)
    slope, xbar, ybar, sxx = _ls_slopes(x, ly, w)
    intercept = ybar - slope * xbar
    resid = ly - (intercept + slope * x)
    ss_res = (w * resid**2).sum()
    ss_tot = (w * (ly - ybar) ** 2).sum()
    r2 = 1.0 if ss_tot <= 0 else 1.0 - ss_res / ss_tot
    dof = x.size - 2
    if dof > 0:
        sigma2 = ss_res / dof
        se = float(np.sqrt(sigma2 / sxx))
    else:
        r2, se = 1.0, 0.0
    return LogLinearFit(float(slope), float(intercept), float(r2), se)
