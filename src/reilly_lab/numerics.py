"""Finite differences, quadrature and convergence-order utilities.

Uniform-grid stencils only.  Interior stencils are 4th order; the two
nodes adjacent to each end use one-sided stencils of the same order so
that differentiating sampled data never degrades the targeted accuracy
of the identity under test.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# one-sided first-derivative stencils (4th order, 5 points)
_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
# one-sided second-derivative stencils (4th order, 6 points)
_D2_EDGE0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0
_D2_EDGE1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0


def _freeze(arr) -> np.ndarray:
    """Contiguous float array of arr, made read-only."""
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


def diff1(y: np.ndarray, h: float) -> np.ndarray:
    """First derivative of samples on a uniform grid (4th order)."""
    y = np.asarray(y, dtype=float)
    if y.size < 6:
        raise ValueError("diff1 needs at least 6 samples")
    d = np.empty_like(y)
    d[2:-2] = (8.0 * (y[3:-1] - y[1:-3]) - (y[4:] - y[:-4])) / (12.0 * h)
    d[0] = _D1_EDGE0 @ y[:5] / h
    d[1] = _D1_EDGE1 @ y[:5] / h
    d[-1] = -(_D1_EDGE0 @ y[::-1][:5]) / h
    d[-2] = -(_D1_EDGE1 @ y[::-1][:5]) / h
    return d


def diff2(y: np.ndarray, h: float) -> np.ndarray:
    """Second derivative of samples on a uniform grid (4th order)."""
    y = np.asarray(y, dtype=float)
    if y.size < 7:
        raise ValueError("diff2 needs at least 7 samples")
    h2 = h * h
    d = np.empty_like(y)
    d[2:-2] = (-(y[4:] + y[:-4]) + 16.0 * (y[3:-1] + y[1:-3]) - 30.0 * y[2:-2]) / (
        12.0 * h2
    )
    d[0] = _D2_EDGE0 @ y[:6] / h2
    d[1] = _D2_EDGE1 @ y[:6] / h2
    d[-1] = _D2_EDGE0 @ y[::-1][:6] / h2
    d[-2] = _D2_EDGE1 @ y[::-1][:6] / h2
    return d


@functools.lru_cache(maxsize=None)
def _wrap_index(m: int) -> np.ndarray:
    return np.arange(-2, m + 2) % m


def _wrap_pad(y: np.ndarray) -> np.ndarray:
    """y extended by two periodic samples at each end along axis 0.

    p[k] = y[(k - 2) mod m], so p[4:], p[3:m+3], p[1:m+1] and p[:m] are
    np.roll(y, s, 0) for s = -2, -1, 1, 2 (for every m >= 1).  take with
    a cached index beats y[ix], which is slow on (m, 2) and (m, 3) arrays.
    """
    return y.take(_wrap_index(y.shape[0]), axis=0)


def _diff1(p: np.ndarray, m: int, h: float) -> np.ndarray:
    return (8.0 * (p[3:m + 3] - p[1:m + 1]) - (p[4:] - p[:m])) / (12.0 * h)


def periodic_diff1(y: np.ndarray, h: float) -> np.ndarray:
    """First derivative of periodic samples (4th-order central).

    Works on arrays of shape (m,) or (m, k); differentiates along axis 0.
    """
    y = np.asarray(y, dtype=float)
    return _diff1(_wrap_pad(y), y.shape[0], h)


def periodic_diff2(y: np.ndarray, h: float) -> np.ndarray:
    """Second derivative of periodic samples (4th-order central)."""
    return periodic_diff12(y, h)[1]


def periodic_diff12(y: np.ndarray, h: float):
    """(periodic_diff1(y, h), periodic_diff2(y, h)) from one pad of y."""
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    p = _wrap_pad(y)
    d2 = (-(p[4:] + p[:m]) + 16.0 * (p[3:m + 3] + p[1:m + 1])
          - 30.0 * p[2:m + 2]) / (12.0 * h * h)
    return _diff1(p, m, h), d2


def fourier_diff_matrix(m: int) -> np.ndarray:
    """Trigonometric differentiation matrix on m uniform nodes of [0, 2pi).

    Antisymmetric; annihilates constants exactly.  Requires even m.
    """
    if m % 2 != 0 or m < 4:
        raise ValueError("fourier_diff_matrix requires even m >= 4")
    j = np.arange(m)
    col = np.zeros(m)
    col[1:] = 0.5 * (-1.0) ** j[1:] / np.tan(j[1:] * np.pi / m)
    # D[i, j] = col[(i - j) mod m] = ext[m - 1 + i - j]: column j is window
    # m - 1 - j of ext, and the transposed copy is F-ordered
    ext = np.concatenate([col[1:], col])
    windows = np.lib.stride_tricks.sliding_window_view(ext, m)
    return np.ascontiguousarray(windows[::-1]).T


@functools.lru_cache(maxsize=None)       # (1j k)^order, read-only
def _spectral_symbol(m: int, order: int) -> np.ndarray:
    symbol = (1j * np.fft.rfftfreq(m, d=1.0 / m)) ** order
    symbol.flags.writeable = False
    return symbol


def spectral_diff(values: np.ndarray, order: int = 1) -> np.ndarray:
    """FFT differentiation of real periodic samples on [0, 2pi) along
    axis 0 of (m,) or (m, k) arrays; each column as its own 1-D call."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    fk = np.fft.rfft(values, axis=0)
    if order % 2 == 1 and m % 2 == 0:
        fk[-1] = 0.0  # odd derivative of the Nyquist mode is not representable
    fk = (fk.T * _spectral_symbol(m, order)).T  # the symbol runs along axis 0
    return np.fft.irfft(fk, n=m, axis=0)


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid; 3/8 patch when intervals are odd.

    Deterministic left-to-right summation order.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 4:
        raise ValueError("simpson_uniform needs at least 4 samples")
    if n % 2 == 1:
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-2:2] = 2.0
        return float(np.dot(w, y)) * h / 3.0
    head = simpson_uniform(y[: n - 3], h)
    tail = (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1]) * 3.0 * h / 8.0
    return head + tail


def periodic_trapezoid(y: np.ndarray, h: float) -> float:
    """Trapezoid rule on a full period: spectrally accurate for smooth data."""
    return float(np.sum(np.asarray(y, dtype=float))) * h


# Relative residuals below this are considered converged to roundoff; the
# order estimate for such a pair is reported as +inf rather than noise.
ROUNDOFF_FLOOR = 1e-11


def observed_orders(values, floor: float = ROUNDOFF_FLOOR):
    """Per-refinement convergence orders of |values| under grid halving.

    values are residual magnitudes at successively finer grids.  Pairs in
    which either member sits at the roundoff floor carry no measurable
    order and yield +inf (converged beyond measurement), never noise.
    """
    vals = [abs(float(v)) for v in values]
    orders = []
    for a, b in zip(vals[:-1], vals[1:]):
        if b <= floor or a <= floor:
            orders.append(math.inf)
        else:
            orders.append(math.log(a / b) / math.log(2.0))
    return orders


def richardson(values, ratio: float = 2.0, order: int = 2) -> float:
    """One Richardson step: eliminate the O(h^order) term from two samples.

    values = (coarse, fine) where fine used a grid `ratio` times finer.
    """
    coarse, fine = float(values[0]), float(values[1])
    r = ratio ** order
    return (r * fine - coarse) / (r - 1.0)
