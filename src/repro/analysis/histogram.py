"""Fixed-bin histograms, HBOOK-flavoured.

Vectorized fills (numpy), explicit under/overflow bins, first/second
moments tracked from the filled values (not bin centers), and a text
renderer — the shape a 2005 physicist expects from HBOOK/JAS.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ReproError


class Histogram1D:
    """A 1-D histogram with ``nbins`` equal bins over [low, high)."""

    def __init__(self, nbins: int, low: float, high: float, title: str = ""):
        if nbins <= 0:
            raise ReproError("histogram needs at least one bin")
        if not (high > low):
            raise ReproError(f"bad histogram range [{low}, {high})")
        self.nbins = int(nbins)
        self.low = float(low)
        self.high = float(high)
        self.title = title
        self.counts = np.zeros(self.nbins, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self._sum = 0.0
        self._sum2 = 0.0
        self._n = 0

    # -- filling -----------------------------------------------------------------

    def fill(self, values, weights=None) -> None:
        """Fill with a scalar or an iterable of values (vectorized)."""
        arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
        arr = arr[~np.isnan(arr)]
        if arr.size == 0:
            return
        self.underflow += int((arr < self.low).sum())
        self.overflow += int((arr >= self.high).sum())
        inside = arr[(arr >= self.low) & (arr < self.high)]
        if inside.size:
            idx = ((inside - self.low) / self.bin_width).astype(np.int64)
            np.add.at(self.counts, idx, 1)
        self._sum += float(arr.sum())
        self._sum2 += float((arr * arr).sum())
        self._n += int(arr.size)

    # -- statistics ---------------------------------------------------------------

    @property
    def bin_width(self) -> float:
        """Width of one bin."""
        return (self.high - self.low) / self.nbins

    @property
    def entries(self) -> int:
        """Total values seen, including under/overflow."""
        return self._n

    @property
    def in_range(self) -> int:
        """Counts inside [low, high), excluding under/overflow."""
        return int(self.counts.sum())

    @property
    def mean(self) -> float:
        """Mean of every filled value (including out-of-range ones)."""
        return self._sum / self._n if self._n else math.nan

    @property
    def std(self) -> float:
        """Population standard deviation of the filled values."""
        if self._n < 2:
            return math.nan
        variance = self._sum2 / self._n - self.mean**2
        return math.sqrt(max(0.0, variance))

    def bin_index(self, value: float) -> int:
        """Bin index for ``value``; -1 underflow, nbins overflow."""
        if value < self.low:
            return -1
        if value >= self.high:
            return self.nbins
        return int((value - self.low) / self.bin_width)

    # -- combination ---------------------------------------------------------------

    def compatible_with(self, other: "Histogram1D") -> bool:
        """True when binning (nbins, low, high) matches exactly."""
        return (
            self.nbins == other.nbins
            and self.low == other.low
            and self.high == other.high
        )

    def __add__(self, other: "Histogram1D") -> "Histogram1D":
        """Merge two compatible histograms (e.g. the same cut run on two
        marts); counts, flows and moments all add exactly."""
        if not isinstance(other, Histogram1D):
            return NotImplemented
        if not self.compatible_with(other):
            raise ReproError("cannot add histograms with different binnings")
        out = Histogram1D(self.nbins, self.low, self.high, self.title or other.title)
        out.counts = self.counts + other.counts
        out.underflow = self.underflow + other.underflow
        out.overflow = self.overflow + other.overflow
        out._sum = self._sum + other._sum
        out._sum2 = self._sum2 + other._sum2
        out._n = self._n + other._n
        return out

    # -- rendering -----------------------------------------------------------------

    def render(self, width: int = 50) -> str:
        """ASCII rendering, one line per bin."""
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(
            f"entries={self.entries} mean={self.mean:.4g} std={self.std:.4g} "
            f"under={self.underflow} over={self.overflow}"
        )
        peak = max(1, int(self.counts.max()) if self.nbins else 1)
        for i in range(self.nbins):
            edge = self.low + i * self.bin_width
            bar = "#" * int(round(self.counts[i] / peak * width))
            lines.append(f"{edge:>12.4g} | {bar} {int(self.counts[i])}")
        return "\n".join(lines)


class Profile1D:
    """HBOOK-style profile histogram: per-x-bin mean and spread of y.

    Used for calibration-style plots (mean response vs channel); keeps
    per-bin count, sum and sum-of-squares so the mean and its error are
    exact regardless of fill order.
    """

    def __init__(self, nbins: int, low: float, high: float, title: str = ""):
        if nbins <= 0:
            raise ReproError("profile needs at least one bin")
        if not (high > low):
            raise ReproError(f"bad profile range [{low}, {high})")
        self.nbins = int(nbins)
        self.low = float(low)
        self.high = float(high)
        self.title = title
        self.counts = np.zeros(self.nbins, dtype=np.int64)
        self._sum = np.zeros(self.nbins, dtype=np.float64)
        self._sum2 = np.zeros(self.nbins, dtype=np.float64)
        self.out_of_range = 0

    @property
    def bin_width(self) -> float:
        """Width of one bin."""
        return (self.high - self.low) / self.nbins

    def fill(self, xs, ys) -> None:
        """Fill with paired x/y samples (vectorized)."""
        xa = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        ya = np.atleast_1d(np.asarray(ys, dtype=np.float64))
        if xa.shape != ya.shape:
            raise ReproError("x and y fills must have the same length")
        ok = (xa >= self.low) & (xa < self.high) & ~np.isnan(ya)
        self.out_of_range += int((~ok).sum())
        if not ok.any():
            return
        idx = ((xa[ok] - self.low) / self.bin_width).astype(np.int64)
        np.add.at(self.counts, idx, 1)
        np.add.at(self._sum, idx, ya[ok])
        np.add.at(self._sum2, idx, ya[ok] ** 2)

    def bin_mean(self, i: int) -> float:
        """Mean of y in bin ``i`` (NaN when empty)."""
        if self.counts[i] == 0:
            return math.nan
        return float(self._sum[i] / self.counts[i])

    def bin_error(self, i: int) -> float:
        """Standard error on the bin mean."""
        n = int(self.counts[i])
        if n < 2:
            return math.nan
        mean = self._sum[i] / n
        variance = max(0.0, self._sum2[i] / n - mean**2)
        return float(math.sqrt(variance / n))

    def means(self) -> np.ndarray:
        """Per-bin means as an array (NaN for empty bins)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.counts > 0, self._sum / self.counts, np.nan)

    @property
    def entries(self) -> int:
        """Total samples seen, including out-of-range ones."""
        return int(self.counts.sum()) + self.out_of_range

    def render(self, width: int = 40) -> str:
        """One line per bin: mean with a bar scaled to the mean range."""
        lines = []
        if self.title:
            lines.append(self.title)
        means = self.means()
        finite = means[~np.isnan(means)]
        lines.append(f"entries={self.entries} bins={self.nbins}")
        if finite.size == 0:
            return "\n".join(lines)
        lo, hi = float(finite.min()), float(finite.max())
        span = (hi - lo) or 1.0
        for i in range(self.nbins):
            edge = self.low + i * self.bin_width
            if np.isnan(means[i]):
                lines.append(f"{edge:>12.4g} | (empty)")
            else:
                bar = "#" * int(round((means[i] - lo) / span * width))
                err = self.bin_error(i)
                err_text = f" +- {err:.3g}" if not math.isnan(err) else ""
                lines.append(f"{edge:>12.4g} | {bar} {means[i]:.4g}{err_text}")
        return "\n".join(lines)


class Histogram2D:
    """A 2-D histogram over a rectangular range."""

    def __init__(
        self,
        nx: int,
        xlow: float,
        xhigh: float,
        ny: int,
        ylow: float,
        yhigh: float,
        title: str = "",
    ):
        if nx <= 0 or ny <= 0:
            raise ReproError("histogram needs at least one bin per axis")
        if not (xhigh > xlow and yhigh > ylow):
            raise ReproError("bad 2-D histogram range")
        self.nx, self.ny = int(nx), int(ny)
        self.xlow, self.xhigh = float(xlow), float(xhigh)
        self.ylow, self.yhigh = float(ylow), float(yhigh)
        self.title = title
        self.counts = np.zeros((self.nx, self.ny), dtype=np.int64)
        self.out_of_range = 0

    def fill(self, xs, ys) -> None:
        """Fill with paired x/y samples (vectorized)."""
        xa = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        ya = np.atleast_1d(np.asarray(ys, dtype=np.float64))
        if xa.shape != ya.shape:
            raise ReproError("x and y fills must have the same length")
        ok = (
            (xa >= self.xlow)
            & (xa < self.xhigh)
            & (ya >= self.ylow)
            & (ya < self.yhigh)
        )
        self.out_of_range += int((~ok).sum())
        if ok.any():
            xi = ((xa[ok] - self.xlow) / self.x_width).astype(np.int64)
            yi = ((ya[ok] - self.ylow) / self.y_width).astype(np.int64)
            np.add.at(self.counts, (xi, yi), 1)

    @property
    def x_width(self) -> float:
        """Width of one x bin."""
        return (self.xhigh - self.xlow) / self.nx

    @property
    def y_width(self) -> float:
        """Width of one y bin."""
        return (self.yhigh - self.ylow) / self.ny

    @property
    def entries(self) -> int:
        """Total samples seen, including out-of-range ones."""
        return int(self.counts.sum()) + self.out_of_range

    def render(self) -> str:
        """Density-character rendering, y down the page."""
        chars = " .:-=+*#%@"
        peak = max(1, int(self.counts.max()))
        lines = [self.title] if self.title else []
        for yi in range(self.ny - 1, -1, -1):
            row = "".join(
                chars[min(len(chars) - 1, int(self.counts[xi, yi] / peak * (len(chars) - 1)))]
                for xi in range(self.nx)
            )
            lines.append(row)
        return "\n".join(lines)
