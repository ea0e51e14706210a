"""Camera-plane joint distributions: chromatic skew and its correction.

A lens at focal distance maps transverse momentum to camera position,
Y = (f/k) q, with k = 2 pi / lambda the *vacuum* wavenumber of each
arm (the photons travel in free space between crystal and lens; this
also makes Y = f lambda q / (2 pi) — the two common forms coincide).
Non-degenerate pairs therefore land on different scales per arm: summing
spectral slices without compensation shears the ridge away from the
ideal -1 (to about -lambda_s/lambda_i when the signal coordinate is
plotted against the idler), and the walk-off carrier leaves a ridge
offset on the y axis.  The correction undoes both slice by slice — it
scales the idler axis by lambda_s/lambda_i onto the slice's signal
scale, then subtracts the ridge offset fitted to the slice's own
momentum distribution — and each slice is resampled onto the central
slice's grid with one banded, mass-conserving operator per axis (3 or 4
source knots per cell).

Each slice is built from the run's ``spectral.Problem`` in one way: its
axes are put on the camera, and its intensity is the square of the
amplitude band ``evaluate_grid`` returns, narrowed to a ``RowBand`` of
the idler columns the squared pump envelope leaves nonzero (8 % of the
grid at the default config).  No dense slice matrix is built, and the
resampler works on the band directly.  One moment-engine pass
(``spectral.moment_sums``) gives every slice its far-field raw sums: on
y its ridge intercept is fitted from them, and mapped onto the camera
they are the slice's camera-plane sums, which the JPDs add with the
filter weights.  ``camera_jpds`` streams the slices into both JPDs and
holds two slice bands at a time.  The JPDs are
``RowBand``s as well: each starts on the first resampled slice's windows
and widens, over +0.0, when a slice reaches outside them (140 and 114
of 1024 columns at the defaults), and its values are those of a dense
sum, bit for bit.  The memory budget is checked once, up front, for
the two JPDs and the two slice bands; it charges each JPD its dense
N x N bytes, an upper bound, since a band is never wider than the grid.

Slope reports quote the **display orientation**: the signal coordinate
plotted against the idler coordinate, which is how these joint
distributions are drawn, so ``slope_report`` fits a JPD's engine sums
with the idler in the first role.  The bands are the pictures the
files hold; no statistic is taken from them.  Both the principal-axis
and the regression estimator are always reported; they differ
systematically for ridges of finite width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from spdcsim.biphoton import RowBand, _windows, check_memory_budget, envelope_columns, evaluate_grid
from spdcsim.spectral import Problem, moment_sums, sample_spectrum
from spdcsim.stats import StatsSummary, ridge_fit

__all__ = ["RowBand", "CameraJPD", "camera_jpds", "slope_report", "resample_conserving"]


@dataclass(frozen=True)
class _CameraSlice:
    """One spectral slice on the camera: position axes, intensity, weight.

    ``intensity`` is a ``RowBand`` (signal rows, idler columns) holding
    the slice's pump-envelope band.  ``scale_signal`` is the signal arm's
    meters per rad/m.  ``ridge_intercept`` is the intercept (rad/m) of the
    ridge fitted to the slice's own momentum distribution, which the
    walk-off correction removes; ``None`` on x.  ``sums`` are the raw
    sums of {1, Y_s, Y_i, Y_s^2, Y_i^2, Y_s Y_i} over the slice's
    intensity in its camera coordinates, from the moment engine.
    """

    axis: str
    y_signal: np.ndarray
    y_idler: np.ndarray
    intensity: RowBand
    lambda_signal_nm: float
    lambda_idler_nm: float
    weight: float
    scale_signal: float
    ridge_intercept: float | None
    sums: tuple[float, ...]


@dataclass(frozen=True)
class CameraJPD:
    """Accumulated camera-plane joint probability distribution.

    ``intensity`` is a ``RowBand`` (signal rows, idler columns) whose
    windows cover every slice's resampled band; ``toarray()`` is the
    dense N x N matrix.  ``sums`` are the slices' camera-plane raw sums
    (``_CameraSlice.sums``) added with their weights in sampling order,
    the moments ``slope_report`` fits.
    """

    axis: str
    y_signal: np.ndarray
    y_idler: np.ndarray
    intensity: RowBand
    corrected: bool
    slices: tuple[tuple[float, float, float], ...]
    sums: tuple[float, ...]

    def __post_init__(self) -> None:
        if np.any(self.intensity.data < 0):
            raise ValueError("camera intensity contains negative entries")

    @property
    def d_signal(self) -> float:
        return float(self.y_signal[1] - self.y_signal[0])

    @property
    def d_idler(self) -> float:
        return float(self.y_idler[1] - self.y_idler[0])


def _scale(focal_length_m: float, lambda_nm: float, magnification: float) -> float:
    """Meters of camera coordinate per rad/m of momentum: M f / k, k = 2 pi / lambda."""
    return magnification * focal_length_m / (2.0 * math.pi / (lambda_nm * 1e-9))


def _mapped(sums, a_s: float, a_i: float, b_i: float = 0.0) -> tuple[float, ...]:
    """Raw sums of {1, Y_s, Y_i, Y_s^2, Y_i^2, Y_s Y_i} for Y_s = a_s u_s and
    Y_i = a_i u_i + b_i, from ``sums``, those of {1, u_s, u_i, u_s^2, u_i^2,
    u_s u_i}."""
    n, s, i, ss, ii, si = sums
    return (n, a_s * s, a_i * i + b_i * n, a_s * a_s * ss,
            a_i * a_i * ii + 2.0 * a_i * b_i * i + b_i * b_i * n, a_s * (a_i * si + b_i * s))


def _slice_builder(
    problem: Problem, axis: str, focal_length_m: float, magnification: float
) -> Callable[[int], _CameraSlice]:
    """Check the budget for the two JPDs (at their dense size, which
    bounds their bands) and two bands beside one evaluation, and return
    the function that evaluates slice k of ``sample_spectrum`` onto the
    camera.  Every band has the width ``envelope_columns`` gives for the
    grid and w0, so the check comes before any evaluation; a band that
    covers the grid costs its dense bytes plus the row offsets.  Then one
    ``moment_sums`` pass gives every slice its far-field sums, which are
    mapped onto the camera and, on y, give its ridge intercept."""
    for name, value in (("focal length", focal_length_m), ("magnification", magnification)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    n = problem.grid_n
    q = problem.square_grid()
    first, stop = envelope_columns(q, q, problem.waist_m, power=2)
    band_bytes = n * _windows(first, stop, n)[1] * 8 + n * np.dtype(np.intp).itemsize
    check_memory_budget(
        n, n, problem.memory_budget_bytes,
        held_bytes=2 * n * n * 8 + 2 * band_bytes,
        holding="2 camera JPDs and 2 slice bands",
    )
    spectrum = sample_spectrum(problem.filt, problem.wl.pump_nm, problem.n_slices)
    far_sums = moment_sums(problem, axis)[:, :6].tolist()
    intercepts = [None] * len(spectrum)
    if axis == "y":
        intercepts = [ridge_fit(StatsSummary.from_sums("far", axis, *sums)).intercept
                      for sums in far_sums]

    def build(k: int) -> _CameraSlice:
        lam_s, lam_i, weight = spectrum[k]
        band = evaluate_grid(q, q, problem, axis, (lam_s, lam_i))
        np.multiply(band.data, band.data, out=band.data)  # the slice intensity, in place
        scale_s = _scale(focal_length_m, lam_s, magnification)
        scale_i = _scale(focal_length_m, lam_i, magnification)
        return _CameraSlice(
            axis=axis,
            y_signal=scale_s * q,
            y_idler=scale_i * q,
            intensity=band.narrowed(first, stop),
            lambda_signal_nm=lam_s,
            lambda_idler_nm=lam_i,
            weight=weight,
            scale_signal=scale_s,
            ridge_intercept=intercepts[k],
            sums=_mapped(far_sums[k], scale_s, scale_i),
        )

    return build


def camera_jpds(
    problem: Problem, axis: str, focal_length_m: float, *, magnification: float = 1.0
) -> tuple[CameraJPD, CameraJPD]:
    """The uncorrected and the corrected camera JPD of ``axis``, from one
    pass over the spectral slices that holds two slice bands, not all.

    Each slice is evaluated and mapped onto the camera, Y = M (f/k) q per
    arm; its camera-plane sums, and on y its ridge intercept, come from
    the moment engine's far-field sums of the slice.  The central slice
    is evaluated first and kept: its axes fix both JPDs' grids (the
    corrected grid is the central slice's, corrected).  Then each slice,
    in sampling order, is resampled onto both grids and added with its
    weight, as it is and after ``_corrected``, with its sums, and
    dropped.  The focal length and the magnification must be finite and
    positive (``ValueError``); the budget is checked once, before any
    evaluation, for the two JPDs and two bands (``GridMemoryError``).
    """
    build = _slice_builder(problem, axis, focal_length_m, magnification)
    mid = problem.n_slices // 2
    central = build(mid)
    fixed_central = _corrected(central)
    raw, fixed = _Total(central), _Total(fixed_central)
    for k in range(problem.n_slices):
        cs = central if k == mid else build(k)
        raw.add(cs)
        fixed.add(fixed_central if k == mid else _corrected(cs))
        del cs  # drop this slice's band before the next one is built
    return raw.jpd(corrected=False), fixed.jpd(corrected=True)


def _corrected(cs: _CameraSlice) -> _CameraSlice:
    """``cs`` with its idler axis on the signal's scale and, on y, the
    walk-off ridge offset removed.

    The idler coordinate is multiplied by k_i/k_s = lambda_s/lambda_i,
    after which both arms share the scale M f/k_s and a slope -1
    momentum ridge maps to slope -1 on camera (a degenerate slice is
    untouched: the factor is exactly 1).  On y it is then translated by
    -(M f/k_s) b, where b is the intercept fitted to the slice's own
    momentum distribution (``ridge_intercept``): the offset the model
    actually produces.  (The pump's transverse carrier k_y never appears
    in full on the ridge: the pump envelope pins the sum coordinate near
    zero.)  The x axis carries no walk-off.  The sums follow the idler
    coordinate, Y_i = (M f/k_s)(q_i - b).
    """
    ratio = cs.lambda_signal_nm / cs.lambda_idler_nm
    y_idler = cs.y_idler * ratio
    shift = 0.0
    if cs.axis == "y":
        shift = cs.scale_signal * cs.ridge_intercept
        y_idler = y_idler - shift
    return replace(cs, y_idler=y_idler, sums=_mapped(cs.sums, 1.0, ratio, -shift))


def _cell_edges(axis: np.ndarray) -> np.ndarray:
    mid = 0.5 * (axis[1:] + axis[:-1])
    first = axis[0] - (axis[1] - axis[0]) / 2.0
    last = axis[-1] + (axis[-1] - axis[-2]) / 2.0
    return np.concatenate([[first], mid, [last]])


def resample_conserving(
    band: RowBand, src_axis: np.ndarray, dst_axis: np.ndarray, axis: int = 1
) -> RowBand:
    """Resample a density table held as a ``RowBand`` onto a new uniform
    axis, conserving mass; the result is a ``RowBand``.

    The rows (or columns) are treated as samples of a piecewise-linear
    density on ``src_axis``; the output value in each destination cell is
    the exact integral of that density over the cell divided by the cell
    width.  Mass inside the destination range is preserved exactly
    (up to roundoff); density outside the source support is zero.

    The map is a banded operator R (n_dst x n_src; R[k, m] is source
    knot m's hat function averaged over cell k), nonzero only on K
    consecutive knots first[k] ... first[k] + K - 1 per cell (K = 3 or 4
    at the camera's scale ratios).  It is applied as a K-tap kernel along
    ``axis``: taps t = 0 ... K - 1 are added in order into a zeroed
    output.  Its entries are products of nonnegative factors, so R >= 0.
    A dense matrix is a band of full width; a narrower band gives the
    dense result's entries bit for bit, because the source entries it
    skips are +0.0.
    """
    first, weights = _operator(src_axis, dst_axis)
    taps = weights.shape[0]
    # ``taps`` zero columns each side of the band: a read outside a row's
    # window is clipped onto them, and stays on them for every tap
    padded = np.zeros((band.data.shape[0], band.width + 2 * taps))
    padded[:, taps:-taps] = band.data
    flat = padded.reshape(-1)

    def index(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Index in ``flat`` of entry (rows[k], cols[k, c]) of the band."""
        at = cols - band.start[rows, None]
        np.clip(at, -taps, band.width, out=at)
        at += (rows * padded.shape[1] + taps)[:, None]
        return at

    if axis == 0:
        # output row k reads source rows first[k] + t, so its window is
        # the union of theirs
        starts = band.start[first[:, None] + np.arange(taps)]
        start, width = _windows(starts.min(axis=1), starts.max(axis=1) + band.width, band.n_cols)
        cols, n_cols = start[:, None] + np.arange(width), band.n_cols
        out = np.zeros((start.size, width))
        for t in range(taps):
            terms = flat.take(index(first + t, cols))
            terms *= weights[t, :, None]
            out += terms
    else:
        # output cell k of row r reads source columns first[k] + t
        start, width = _windows(
            np.searchsorted(first + taps - 1, band.start, side="left"),
            np.searchsorted(first, band.start + band.width - 1, side="right"),
            first.size,
        )
        cells, n_cols = start[:, None] + np.arange(width), first.size
        at = index(np.arange(start.size), first.take(cells))
        out = np.zeros((start.size, width))
        for t in range(taps):
            terms = flat[t:].take(at)
            terms *= weights[t].take(cells)
            out += terms
    return RowBand(out, start, n_cols)


def _operator(src_axis: np.ndarray, dst_axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First source knot per destination cell and the K x n_dst weight
    table of the conserving map (``resample_conserving``): tap t of cell
    k weighs knot first[k] + t."""
    src = np.asarray(src_axis, dtype=float)
    h = np.diff(src)
    dst_edges = _cell_edges(np.asarray(dst_axis, dtype=float))
    widths = np.diff(dst_edges)
    edges = np.clip(dst_edges, src[0], src[-1])
    j = np.clip(np.searchsorted(src, edges, side="right") - 1, 0, src.size - 2)
    t = edges - src[j]
    ja, jb, ta, tb = j[:-1], j[1:], t[:-1], t[1:]
    cells, spans = np.arange(widths.size), ja < jb
    # Cell k is made of pieces [u, v] of source segments s: part of segment
    # ja, part of segment jb, and the segments between that no edge falls in.
    inside = np.zeros(h.size, dtype=bool)
    inside[j[0]:j[-1]] = True
    inside[j] = False
    full = np.flatnonzero(inside)
    row = np.concatenate([cells, cells, np.searchsorted(j, full) - 1])
    s = np.concatenate([ja, jb, full])
    u = np.concatenate([ta, np.where(spans, 0.0, tb), np.zeros(full.size)])
    v = np.concatenate([np.where(spans, h[ja], tb), tb, h[full]])
    # the linear density's integral over [u, v], split between knots s, s + 1
    scale = (v - u) / (2.0 * h[s] * widths[row])
    weights = np.concatenate([scale * (2.0 * h[s] - u - v), scale * (u + v)])
    # cell k touches knots ja[k] ... jb[k] + 1; a piece's shares of one
    # knot add in the order the pieces are listed
    taps = int(np.max(jb - ja)) + 2
    first = np.minimum(ja, src.size - taps)
    rows = np.tile(row, 2)
    table = np.zeros((taps, widths.size))
    np.add.at(table, (np.concatenate([s, s + 1]) - first[rows], rows), weights)
    return first, table


class _Total:
    """A JPD being accumulated on one slice's camera axes, as a
    ``RowBand`` whose windows cover those of every slice added so far."""

    def __init__(self, central: _CameraSlice) -> None:
        self.axis, self.y_s, self.y_i = central.axis, central.y_signal, central.y_idler
        self.band: RowBand | None = None
        self.sums = (0.0,) * 6
        self.provenance: list[tuple[float, float, float]] = []

    def add(self, cs: _CameraSlice) -> None:
        """Resample ``cs`` onto the axes and add it with its weight.

        The first slice's windows start the total over +0.0; a later
        slice that reaches outside them widens every row to cover both,
        the new columns +0.0.  Each slice's entries are distinct cells,
        so the total's values are those of adding the slices, in order,
        into a zeroed dense matrix, bit for bit.
        """
        resampled = resample_conserving(cs.intensity, cs.y_idler, self.y_i, axis=1)
        resampled = resample_conserving(resampled, cs.y_signal, self.y_s, axis=0)
        band = self.band
        if band is None:
            band = RowBand(np.zeros_like(resampled.data), resampled.start, resampled.n_cols)
        first = np.minimum(band.start, resampled.start)
        stop = np.maximum(band.start + band.width, resampled.start + resampled.width)
        if np.any(first < band.start) or np.any(stop > band.start + band.width):
            start, width = _windows(first, stop, band.n_cols)
            grown = RowBand(np.zeros((start.size, width)), start, band.n_cols)
            grown.data.reshape(-1)[_offsets(grown, band)] = band.data
            band = grown
        band.data.reshape(-1)[_offsets(band, resampled)] += cs.weight * resampled.data
        self.band = band
        # the additions of certify_axis's weighted row sum, in Python floats:
        # a small NumPy buffer per slice moved the camera's peak RSS by ~1 MiB
        self.sums = tuple(t + cs.weight * s for t, s in zip(self.sums, cs.sums))
        self.provenance.append((cs.lambda_signal_nm, cs.lambda_idler_nm, cs.weight))

    def jpd(self, corrected: bool) -> CameraJPD:
        # Already >= 0: R >= 0 entrywise and the intensities are squares.
        np.clip(self.band.data, 0.0, None, out=self.band.data)
        return CameraJPD(
            axis=self.axis,
            y_signal=self.y_s,
            y_idler=self.y_i,
            intensity=self.band,
            corrected=corrected,
            slices=tuple(self.provenance),
            sums=self.sums,
        )


def _offsets(outer: RowBand, inner: RowBand) -> np.ndarray:
    """Index in ``outer.data.reshape(-1)`` of each entry of ``inner.data``;
    ``outer``'s windows cover ``inner``'s."""
    return RowBand(inner.data, inner.start - outer.start, outer.width).flat_index()


def slope_report(jpd: CameraJPD) -> dict:
    """Ridge slopes of a camera JPD in display orientation (signal
    against idler), both estimators, plus fit metadata, from its engine
    sums."""
    # The idler in the signal's role makes the fit return d(signal)/d(idler):
    # the orientation in which these distributions are displayed and quoted.
    n, s, i, ss, ii, si = jpd.sums
    fit = ridge_fit(StatsSummary.from_sums("camera", jpd.axis, n, i, s, ii, ss, si))
    return {
        "axis": jpd.axis,
        "corrected": jpd.corrected,
        "orientation": "signal_vs_idler",
        "slope_principal_axis": fit.slope_principal_axis,
        "slope_regression": fit.slope_regression,
        "intercept_m": fit.intercept,
        "fit_method": (
            "intensity-weighted principal axis (total least squares); "
            "regression slope = C/V of the idler coordinate"
        ),
        "isotropic": fit.isotropic,
        "n_slices": len(jpd.slices),
    }
