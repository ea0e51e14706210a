"""Camera-plane joint distributions: chromatic skew and its correction.

A lens at focal distance maps transverse momentum to camera position,
Y = (f/k) q, with k = 2 pi / lambda the *vacuum* wavenumber of each
arm (the photons travel in free space between crystal and lens; this
also makes Y = f lambda q / (2 pi) — the two common forms coincide).
Non-degenerate pairs therefore land on different scales per arm: summing
spectral slices without compensation shears the ridge away from the
ideal -1 (to about -lambda_s/lambda_i when the signal coordinate is
plotted against the idler), and the walk-off carrier leaves a ridge
offset on the y axis.  The correction pipeline undoes both slice by
slice — rescale the idler axis to the signal's scale, subtract the
ridge offset fitted to the slice's own momentum distribution — and
resamples each slice onto the common grid with one banded,
mass-conserving operator per axis (about 3 nonzeros per row).  The
operator is a ``scipy.sparse`` matrix, imported by
``resample_conserving`` itself, so no other command loads it.

``camera_slices`` takes the run's ``spectral.Problem``, puts each
slice's axes on the camera, and keeps every slice matrix until
accumulation, so it checks the memory budget for all of them before the
first amplitude is evaluated.

Slope reports quote the **display orientation**: the signal coordinate
plotted against the idler coordinate, which is how these joint
distributions are drawn.  Both the principal-axis and the regression
estimator are always reported; they differ systematically for ridges of
finite width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from spdcsim.biphoton import check_memory_budget
from spdcsim.spectral import JointDistribution, Problem, spectral_slices
from spdcsim.stats import ProbabilityTable, normalize, ridge_slope

__all__ = [
    "CameraSlice",
    "CameraJPD",
    "camera_slices",
    "rescale_idler",
    "walkoff_correct",
    "uncorrected_jpd",
    "corrected_jpd",
    "slope_report",
    "resample_conserving",
]


@dataclass(frozen=True)
class CameraSlice:
    """One spectral slice on the camera: position axes, intensity, weight.

    ``source`` keeps the originating momentum-space slice so that the
    walk-off correction can fit the ridge offset from the model's own
    momentum distribution.
    """

    axis: str
    y_signal: np.ndarray
    y_idler: np.ndarray
    intensity: np.ndarray
    lambda_signal_nm: float
    lambda_idler_nm: float
    weight: float
    scale_signal: float
    scale_idler: float
    source: JointDistribution


@dataclass(frozen=True)
class CameraJPD:
    """Accumulated camera-plane joint probability distribution."""

    axis: str
    y_signal: np.ndarray
    y_idler: np.ndarray
    intensity: np.ndarray
    corrected: bool
    slices: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if np.any(self.intensity < 0):
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


def camera_slices(
    problem: Problem, axis: str, focal_length_m: float, *, magnification: float = 1.0
) -> list[CameraSlice]:
    """Run the source model per spectral slice and map each slice onto
    the camera, Y = M (f/k) q per arm (no accumulation — feed the result
    to uncorrected_jpd or corrected_jpd).  The memory budget is checked
    up front for every held slice matrix plus one amplitude evaluation."""
    if focal_length_m <= 0:
        raise ValueError(f"focal length must be positive, got {focal_length_m}")
    if magnification <= 0:
        raise ValueError(f"magnification must be positive, got {magnification}")
    n = problem.grid_n
    check_memory_budget(n, n, problem.memory_budget_bytes, held_matrices=problem.n_slices)
    out = []
    for sl, weight, amp in spectral_slices(problem, axis):
        jid = JointDistribution(
            plane="far",
            axis=axis,
            axis_signal=sl.q_signal,
            axis_idler=sl.q_idler,
            intensity=amp * amp,
        )
        scale_s = _scale(focal_length_m, sl.lambda_signal_nm, magnification)
        scale_i = _scale(focal_length_m, sl.lambda_idler_nm, magnification)
        out.append(
            CameraSlice(
                axis=axis,
                y_signal=scale_s * jid.axis_signal,
                y_idler=scale_i * jid.axis_idler,
                intensity=jid.intensity,
                lambda_signal_nm=sl.lambda_signal_nm,
                lambda_idler_nm=sl.lambda_idler_nm,
                weight=weight,
                scale_signal=scale_s,
                scale_idler=scale_i,
                source=jid,
            )
        )
    return out


def rescale_idler(cs: CameraSlice) -> CameraSlice:
    """Bring the idler axis onto the signal's spatial-frequency scale.

    Multiplies the idler camera coordinate by k_i/k_s = lambda_s/lambda_i,
    after which both arms share scale f/k_s and a slope -1 momentum ridge
    maps to slope -1 on camera for this slice.  Degenerate slices are
    untouched (factor exactly 1).
    """
    factor = cs.lambda_signal_nm / cs.lambda_idler_nm
    return replace(
        cs,
        y_idler=cs.y_idler * factor,
        scale_idler=cs.scale_idler * factor,
    )


def walkoff_correct(cs: CameraSlice) -> CameraSlice:
    """Remove the y-axis ridge offset from a rescaled slice.

    Translates the idler axis by -(f/k_s) b, where b is the intercept of
    the stationary line fitted to this slice's own momentum distribution
    — the offset the model actually produces.  (The pump's transverse
    carrier k_y never appears in full on the ridge: the pump envelope
    pins the sum coordinate near zero.)
    """
    if cs.axis != "y":
        raise ValueError("walk-off correction applies to the y axis only")
    if not math.isclose(cs.scale_idler, cs.scale_signal, rel_tol=1e-12):
        raise ValueError("slice must be rescaled to the signal scale first")
    b = ridge_slope(normalize(cs.source)).intercept
    return replace(cs, y_idler=cs.y_idler - cs.scale_signal * b)


def _cell_edges(axis: np.ndarray) -> np.ndarray:
    mid = 0.5 * (axis[1:] + axis[:-1])
    first = axis[0] - (axis[1] - axis[0]) / 2.0
    last = axis[-1] + (axis[-1] - axis[-2]) / 2.0
    return np.concatenate([[first], mid, [last]])


def resample_conserving(
    values: np.ndarray, src_axis: np.ndarray, dst_axis: np.ndarray, axis: int = 1
) -> np.ndarray:
    """Resample a density table onto a new uniform axis, conserving mass.

    The rows (or columns) are treated as samples of a piecewise-linear
    density on ``src_axis``; the output value in each destination cell is
    the exact integral of that density over the cell divided by the cell
    width.  Mass inside the destination range is preserved exactly
    (up to roundoff); density outside the source support is zero.

    The map is a banded sparse operator R (n_dst x n_src, about 3 nonzeros
    per row; R[k, m] is source knot m's hat function averaged over cell k),
    applied in one pass: ``R @ values`` on axis 0, ``(R @ values.T).T`` on
    axis 1.  Its entries are products of nonnegative factors, so R >= 0.
    """
    from scipy import sparse  # here, so commands that never resample skip its import

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
    full = np.setdiff1d(np.arange(j[0], j[-1]), j)
    row = np.concatenate([cells, cells, np.searchsorted(j, full) - 1])
    s = np.concatenate([ja, jb, full])
    u = np.concatenate([ta, np.where(spans, 0.0, tb), np.zeros(full.size)])
    v = np.concatenate([np.where(spans, h[ja], tb), tb, h[full]])
    # the linear density's integral over [u, v], split between knots s, s + 1
    scale = (v - u) / (2.0 * h[s] * widths[row])
    weights = np.concatenate([scale * (2.0 * h[s] - u - v), scale * (u + v)])
    op = sparse.csr_matrix(
        (weights, (np.tile(row, 2), np.concatenate([s, s + 1]))), shape=(widths.size, src.size)
    )
    return op @ values if axis == 0 else (op @ values.T).T


def _accumulate(
    slices: Sequence[CameraSlice], corrected: bool
) -> CameraJPD:
    if not slices:
        raise ValueError("at least one camera slice is required")
    central = slices[len(slices) // 2]
    y_s, y_i = central.y_signal, central.y_idler
    total = np.zeros((y_s.size, y_i.size))
    provenance = []
    for cs in slices:
        resampled = resample_conserving(cs.intensity, cs.y_idler, y_i, axis=1)
        resampled = resample_conserving(resampled, cs.y_signal, y_s, axis=0)
        total += cs.weight * resampled
        provenance.append((cs.lambda_signal_nm, cs.lambda_idler_nm, cs.weight))
    # Already >= 0: R >= 0 entrywise and the intensities are squares.
    np.clip(total, 0.0, None, out=total)
    return CameraJPD(
        axis=central.axis,
        y_signal=y_s,
        y_idler=y_i,
        intensity=total,
        corrected=corrected,
        slices=tuple(provenance),
    )


def uncorrected_jpd(slices: Sequence[CameraSlice]) -> CameraJPD:
    """Accumulate slices as a camera would: each on its own chromatic
    scale, resampled onto the central slice's grid, weight-summed."""
    return _accumulate(slices, corrected=False)


def corrected_jpd(slices: Sequence[CameraSlice]) -> CameraJPD:
    """Accumulate slices after per-slice compensation: idler rescaled to
    the signal scale, then (y axis only) the walk-off ridge offset
    removed.  The x axis carries no walk-off, so only the rescale
    applies there."""
    fixed = []
    for cs in slices:
        cs = rescale_idler(cs)
        if cs.axis == "y":
            cs = walkoff_correct(cs)
        fixed.append(cs)
    return _accumulate(fixed, corrected=True)


def slope_report(jpd: CameraJPD) -> dict:
    """Ridge slopes of a camera JPD in display orientation (signal
    against idler), both estimators, plus fit metadata."""
    table = ProbabilityTable(
        plane="camera",
        axis=jpd.axis,
        axis_signal=jpd.y_signal,
        axis_idler=jpd.y_idler,
        p=jpd.intensity / (jpd.intensity.sum() * jpd.d_signal * jpd.d_idler),
    )
    # Transpose so the fit returns d(signal)/d(idler) — the orientation
    # in which these distributions are displayed and quoted.
    transposed = ProbabilityTable(
        plane=table.plane,
        axis=table.axis,
        axis_signal=table.axis_idler,
        axis_idler=table.axis_signal,
        p=np.ascontiguousarray(table.p.T),
    )
    fit = ridge_slope(transposed)
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
