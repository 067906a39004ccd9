"""Spread statistics, the walk-dimension extrapolation fit, and phase classification.

Transport is quantified by the RMS displacement sigma(t) ~ A t^(1/d_w). Writing
Y = log sigma / log t against X = 1/log t turns that law into the straight line
Y = 1/d_w + X log A, so an ordinary least-squares intercept at X = 0 estimates
1/d_w: 1 is ballistic, 1/2 diffusive, and 0 signals localization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coins import require_epsilon

LOCALIZED = "localized"
TRANSPORTING = "transporting"
INCONCLUSIVE = "inconclusive"

DEFAULT_THRESHOLD = 0.05


def _integer_times(name: str, values) -> np.ndarray:
    """values as an int64 array, refused by name unless each is an integer, not a bool; [] is taken."""
    ts = np.asarray(values)
    # a cast would truncate 1.9 to 1, and an integer array takes True as 1
    if ts.size and (ts.dtype.kind not in "iu" or ts.ndim and not isinstance(values, np.ndarray)
                    and any(isinstance(t, (bool, np.bool_)) for t in values)):
        raise ValueError(f"{name} must be integers, got {values!r}")
    return ts.astype(np.int64)


@dataclass(frozen=True, eq=False)
class SigmaSeries:
    """Sampled RMS displacement sigma(t) of one walk at integer times t; compared by identity."""

    t: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        t = _integer_times("t", self.t)
        sigma = np.asarray(self.sigma, dtype=float)
        if t.shape != sigma.shape or t.ndim != 1:
            raise ValueError("t and sigma must be 1d arrays of equal length")
        if t.size and t[0] < 1:
            raise ValueError("sample times must be >= 1")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if not np.isfinite(sigma).all():
            raise ValueError("sigma must be finite")
        if np.any(sigma < 0):
            raise ValueError("sigma must be non-negative")
        if np.any(sigma > t + 1e-9):
            raise ValueError("sigma cannot exceed t (light cone)")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "sigma", sigma)


def sigma(state) -> float:
    """RMS displacement sqrt(<x^2> - <x>^2) of a WaveState's site density."""
    x = state.occupied_sites().astype(float)
    rho = state.density()
    mean = float(x @ rho)
    second = float((x * x) @ rho)
    return math.sqrt(max(second - mean * mean, 0.0))


def extrapolation_points(series: SigmaSeries) -> np.ndarray:
    """Rows (t, X, Y) with X = 1/log t and Y = log sigma / log t (natural log).

    Samples with t < 2 (log t = 0) or sigma = 0 carry no information for the
    intercept and are dropped.
    """
    keep = (series.t >= 2) & (series.sigma > 0)
    t = series.t[keep].astype(float)
    log_t = np.log(t)
    return np.column_stack([t, 1.0 / log_t, np.log(series.sigma[keep]) / log_t])


@dataclass(frozen=True)
class FitResult:
    """Intercept/slope of the extrapolation line over a time window.

    inv_dw is the intercept (the 1/d_w estimate), log_amplitude the slope
    (log of the power-law prefactor), stderr the standard error of the
    intercept.
    """

    inv_dw: float
    log_amplitude: float
    stderr: float
    window: tuple[float, float]
    n_points: int


def select_fit_window(t: np.ndarray, window: tuple[float, float] | None = None):
    """The fit window and the mask of the times t inside it, refused below 3 points.

    The default window keeps the last four octaves, t in [t_max/16, t_max]:
    the extrapolation law is asymptotic and early times are transient-dominated.
    """
    t = np.asarray(t, dtype=float)
    if window is None:
        t_hi = float(t.max(initial=0.0))
        window = (t_hi / 16.0, t_hi)
    lo, hi = float(window[0]), float(window[1])
    sel = (t >= lo) & (t <= hi)
    n = int(np.count_nonzero(sel))
    if n < 3:
        raise ValueError(f"need at least 3 points in window [{lo}, {hi}], have {n}")
    return (lo, hi), sel


def fit_inv_dw(points: np.ndarray, window: tuple[float, float] | None = None) -> FitResult:
    """Least squares of Y on X over the points whose t lies in the window (see select_fit_window)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty array of (t, X, Y) rows")
    (lo, hi), sel = select_fit_window(pts[:, 0], window)
    X = pts[sel, 1]
    Y = pts[sel, 2]
    n = int(X.size)
    x_bar = float(X.mean())
    y_bar = float(Y.mean())
    dx = X - x_bar
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError("degenerate fit window: all X values identical")
    slope = float(dx @ (Y - y_bar)) / sxx
    intercept = y_bar - slope * x_bar
    resid = Y - intercept - slope * X
    s2 = float(resid @ resid) / (n - 2)
    stderr = math.sqrt(s2 * (1.0 / n + x_bar * x_bar / sxx))
    return FitResult(
        inv_dw=intercept,
        log_amplitude=slope,
        stderr=stderr,
        window=(lo, hi),
        n_points=n,
    )


def predicted_inv_dw(epsilon: float) -> float:
    """Transport exponent 1/d_w of the pure barrier hierarchy (no randomness).

    1/(1/2 + (1/2) log2(1 + epsilon^-2)): 1 at epsilon = 1 (ballistic), falling
    to 0 as epsilon -> 0.
    """
    epsilon = require_epsilon(epsilon)
    return 1.0 / (0.5 + 0.5 * math.log2(1.0 + epsilon ** -2))


def require_threshold(threshold) -> float:
    """threshold as a float, refused unless it is a finite int or float (not a bool)."""
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise ValueError(f"threshold must be a number, got {threshold!r}")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    return float(threshold)


def classify_estimate(inv_dw: float, stderr: float, threshold: float = DEFAULT_THRESHOLD) -> str:
    """Two-sigma decision of an intercept estimate against the localization threshold."""
    if inv_dw + 2.0 * stderr < threshold:
        return LOCALIZED
    if inv_dw - 2.0 * stderr > threshold:
        return TRANSPORTING
    return INCONCLUSIVE
