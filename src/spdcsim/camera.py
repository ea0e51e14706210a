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
momentum distribution.

Both JPDs are sampled at the pixel centres of the central slice's
camera grid: the square momentum grid q of the run, mapped onto the
camera with the central slice's scales s = M f lambda / (2 pi) (and,
for the corrected JPD, its idler rescale and shift).  Slice k is
evaluated with ``evaluate_grid`` at the momenta that land on those
pixels: signal q s_s(mid)/s_s(k); idler q s_i(mid)/s_i(k) uncorrected
and (q - b_mid) s_s(mid)/s_s(k) + b_k corrected, b being the slice's
ridge intercept (0 on x).  Nothing is resampled, and no dense slice
matrix is built: the slice's amplitude is evaluated on the JPD's
windows, squared in place and added with the slice's quadrature weight.

One moment-engine pass (``spectral.moment_sums``) gives every slice of
``Problem.slices`` its far-field raw sums: on y its ridge intercept is
fitted from them, and mapped onto the camera they are the slice's
camera-plane sums, which the JPDs add with the quadrature weights
(``spectral._slice_total``, as ``certify_axis`` adds its rows).  They are
added first, so a collapsed distribution stops before any evaluation.
The slices are then evaluated and added by ``spectral._squared_bands``,
the pass that also builds the far-field JID, with the pixel momenta of
``_momenta``.
The JPDs are ``CameraJPD``s, ``JointDistribution``s of plane 'camera',
whose bands are allocated once, on the union of every slice's
``envelope_columns(power=2)`` windows, which the pixel grids give
before any evaluation (98 and 79 of 1024 columns at the defaults);
outside them every slice's square is +0.0.  The memory budget is
checked once, up front, for the two JPDs and the one slice band held
beside them.

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
from dataclasses import dataclass

import numpy as np

from spdcsim.spectral import JointDistribution, Problem, _slice_total, _squared_bands, moment_sums
from spdcsim.stats import StatsSummary, ridge_fit

__all__ = ["CameraJPD", "camera_jpds", "slope_report"]


@dataclass(frozen=True)
class _CameraSlice:
    """One spectral slice on the camera: its wavelengths and quadrature
    weight, and each arm's scale, meters of camera coordinate per rad/m.
    ``ridge_intercept`` is the intercept (rad/m) of the ridge fitted to
    the slice's own momentum distribution, which the walk-off correction
    removes; 0.0 on x, which carries no walk-off.  ``sums`` are the raw
    sums of {1, Y_s, Y_i, Y_s^2, Y_i^2, Y_s Y_i} over the slice's
    intensity in its camera coordinates, from the moment engine.
    """

    lambda_signal_nm: float
    lambda_idler_nm: float
    weight: float
    scale_signal: float
    scale_idler: float
    ridge_intercept: float
    sums: tuple[float, ...]

    def corrected_sums(self) -> tuple[float, ...]:
        """``sums`` with the idler coordinate corrected, Y_i = (M f/k_s)(q_i - b)."""
        shift = self.scale_signal * self.ridge_intercept
        return _mapped(self.sums, 1.0, self.lambda_signal_nm / self.lambda_idler_nm, -shift)


@dataclass(frozen=True)
class CameraJPD(JointDistribution):
    """Accumulated camera-plane joint probability distribution: a
    ``JointDistribution`` of plane 'camera' whose axes are the pixel
    centres' camera coordinates (meters) and whose ``intensity`` band
    covers every slice's windows.  ``slices`` are the run's
    ``Problem.slices``; ``sums`` are the slices' camera-plane raw sums
    (``_CameraSlice.sums``) added with their weights in that order, the
    moments ``slope_report`` fits.
    """

    corrected: bool
    slices: tuple[tuple[float, float, float], ...]
    sums: tuple[float, ...]


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


def _camera_slices(
    problem: Problem, axis: str, focal_length_m: float, magnification: float
) -> list[_CameraSlice]:
    """Every slice of ``problem.slices`` on the camera, from one
    ``moment_sums`` pass: its far-field sums, mapped onto the camera,
    and on y its ridge intercept.  Nothing is evaluated on a grid."""
    for name, value in (("focal length", focal_length_m), ("magnification", magnification)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    slices = []
    for (lam_s, lam_i, weight), sums in zip(problem.slices,
                                            moment_sums(problem, axis)[:, :6].tolist()):
        intercept = 0.0
        if axis == "y":
            intercept = ridge_fit(StatsSummary.from_sums("far", axis, *sums)).intercept
        scale_s = _scale(focal_length_m, lam_s, magnification)
        scale_i = _scale(focal_length_m, lam_i, magnification)
        slices.append(_CameraSlice(lam_s, lam_i, weight, scale_s, scale_i, intercept,
                                   _mapped(sums, scale_s, scale_i)))
    return slices


def _momenta(q: np.ndarray, central: _CameraSlice, cs: _CameraSlice) -> tuple[np.ndarray, ...]:
    """The momenta of slice ``cs`` that land on the JPDs' pixel centres:
    its signal momenta, and its uncorrected and corrected idler momenta.
    The pixels are the square grid ``q`` mapped with ``central``'s scales
    (and corrected with its intercept); all three grids are uniform and
    increasing."""
    to_signal = central.scale_signal / cs.scale_signal
    return (
        q * to_signal,
        q * (central.scale_idler / cs.scale_idler),
        (q - central.ridge_intercept) * to_signal + cs.ridge_intercept,
    )


def camera_jpds(
    problem: Problem, axis: str, focal_length_m: float, *, magnification: float = 1.0
) -> tuple[CameraJPD, CameraJPD]:
    """The uncorrected and the corrected camera JPD of ``axis``, from one
    pass over the spectral slices that holds one slice band at a time.

    Each JPD's pixels are the square grid mapped onto the camera with the
    central slice's scales, Y = M (f/k) q per arm (the corrected idler
    then rescaled and, on y, shifted by the central slice's intercept).
    The slices' camera-plane sums, from the moment engine, are added with
    their weights first: a total that is not finite and positive raises
    ``DegenerateDistributionError`` before any evaluation.  Then each
    slice, in sampling order, is evaluated at the momenta that land on
    the pixel centres, once per JPD (``_momenta``), on that JPD's
    windows, and added with its weight (``spectral._squared_bands``).
    The focal length and the magnification must be finite and positive
    (``ValueError``); the budget is checked once, before any evaluation,
    for the two JPDs and one slice band (``GridMemoryError``).
    """
    slices = _camera_slices(problem, axis, focal_length_m, magnification)
    raw_sums = tuple(_slice_total(problem, [cs.sums for cs in slices]).tolist())
    fixed_sums = tuple(_slice_total(problem, [cs.corrected_sums() for cs in slices]).tolist())
    StatsSummary.from_sums("camera", axis, *raw_sums)  # a collapsed distribution stops here

    q, central = problem.square_grid(), slices[problem.n_slices // 2]
    raw, fixed = _squared_bands(problem, axis, lambda k: _momenta(q, central, slices[k]),
                                "2 camera JPDs")

    y_signal, y_idler = central.scale_signal * q, central.scale_idler * q
    fixed_idler = (y_idler * (central.lambda_signal_nm / central.lambda_idler_nm)
                   - central.scale_signal * central.ridge_intercept)
    return (
        CameraJPD("camera", axis, y_signal, y_idler, raw, False, problem.slices, raw_sums),
        CameraJPD("camera", axis, y_signal, fixed_idler, fixed, True, problem.slices, fixed_sums),
    )


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
