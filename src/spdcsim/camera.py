"""Camera-plane joint distributions: chromatic skew and its correction.

A lens at focal distance maps transverse momentum to camera position,
Y = (f/k) q, with k = 2 pi / lambda the *vacuum* wavenumber of each
arm (the photons travel in free space between crystal and lens; this
also makes Y = f lambda q / (2 pi) — the two common forms coincide),
times the magnification M; f and M are the run config's
``focal_length_m`` and ``magnification``.
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
evaluated at the momenta that land on those pixels: signal
q s_s(mid)/s_s(k); idler q s_i(mid)/s_i(k) uncorrected and
(q - b_mid) s_s(mid)/s_s(k) + b_k corrected, b being the slice's ridge
intercept (0 on x).  Nothing is resampled, and no dense slice matrix is
built: the block kernel ``evaluate_grid`` evaluates the slice's
amplitude on the JPD's windows a block of rows at a time, with the
slice's ``SliceArms``, built once for both JPDs, and the block is
squared in place and added with the slice's quadrature weight.

Both steps are per-slice affine maps, held as arrays over
``RunConfig.slices``: the wavelengths, the scales s and the intercepts b.
One moment-engine pass (``spectral.moment_sums``) gives the slices'
far-field raw sums, k rows of six: on y each slice's b is fitted from
its row, and ``_mapped`` takes the rows onto the camera, then the
camera rows onto the corrected idler.  The JPDs add them with the
quadrature weights (``spectral._slice_total``, as ``certify_axis`` adds
its rows), first, so a collapsed distribution stops before any
evaluation.  The slices are then evaluated and added by
``spectral._squared_blocks``, the stream that also gives the far-field
JID, at the pixel momenta above.
The JPDs are ``CameraJPD``s, ``JointDistribution``s of plane 'camera',
whose row blocks lie on the union of every slice's
``envelope_columns(power=2)`` windows, which the pixel grids give
before any evaluation (98 and 79 of 1024 columns at the defaults);
outside them every slice's square is +0.0.  Neither JPD is held: each
block is built as it is written.

Slope reports quote the **display orientation**: the signal coordinate
plotted against the idler coordinate, which is how these joint
distributions are drawn, so ``slope_report`` fits a JPD's engine sums
with the idler in the first role.  The row blocks are the pictures
the files hold; no statistic is taken from them.  Both the principal-axis
and the regression estimator are always reported; they differ
systematically for ridges of finite width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spdcsim.config import RunConfig
from spdcsim.spectral import JointDistribution, _slice_total, _squared_blocks, moment_sums
from spdcsim.stats import StatsSummary, ridge_fit

__all__ = ["CameraJPD", "camera_jpds", "slope_report"]


@dataclass(frozen=True)
class CameraJPD(JointDistribution):
    """Accumulated camera-plane joint probability distribution: a
    ``JointDistribution`` of plane 'camera' whose axes are the pixel
    centres' camera coordinates (meters) and whose ``intensity`` row
    blocks cover every slice's windows.  ``slices`` are the run's
    ``RunConfig.slices``; ``sums`` are the slices' camera-plane raw sums
    (the engine's far-field sums through ``_mapped``) added with their
    weights in that order, the moments ``slope_report`` fits.
    """

    corrected: bool
    slices: tuple[tuple[float, float, float], ...]
    sums: tuple[float, ...]


def _scale(focal_length_m: float, lambda_nm, magnification: float):
    """Meters of camera coordinate per rad/m of momentum: M f / k, k = 2 pi / lambda."""
    return magnification * focal_length_m / (2.0 * math.pi / (lambda_nm * 1e-9))


def _mapped(sums: np.ndarray, a_s, a_i, b_i=0.0) -> np.ndarray:
    """Raw sums of {1, Y_s, Y_i, Y_s^2, Y_i^2, Y_s Y_i} for Y_s = a_s u_s and
    Y_i = a_i u_i + b_i, from the rows of ``sums``, those of {1, u_s, u_i,
    u_s^2, u_i^2, u_s u_i}; each map coefficient is one per row or shared."""
    n, s, i, ss, ii, si = sums.T
    return np.column_stack((n, a_s * s, a_i * i + b_i * n, a_s * a_s * ss,
                            a_i * a_i * ii + 2.0 * a_i * b_i * i + b_i * b_i * n,
                            a_s * (a_i * si + b_i * s)))


def camera_jpds(config: RunConfig, axis: str) -> tuple[CameraJPD, CameraJPD]:
    """The uncorrected and the corrected camera JPD of ``axis``, each a
    stream of row blocks over the spectral slices; neither is held.

    Each JPD's pixels are the square grid mapped onto the camera with the
    central slice's scales, Y = M (f/k) q per arm (the corrected idler
    then rescaled and, on y, shifted by the central slice's intercept).
    The slices' camera-plane sums, the engine's far-field sums mapped per
    slice (``_mapped``), are added with their weights first: a total that
    is not finite and positive raises ``DegenerateDistributionError``
    before any evaluation.  Then, as each JPD's blocks are drawn, each
    slice, in sampling order, is evaluated at the momenta that land on
    the pixel centres, on that JPD's windows, and added with its weight
    (``spectral._squared_blocks``, which charges the budget and checks
    the propagation cone first).  The focal length f and the
    magnification M are the config's.
    """
    far = moment_sums(config, axis)[:, :6]
    lam_s, lam_i, _ = np.array(config.slices).T
    s_s, s_i = (_scale(config.focal_length_m, lam, config.magnification) for lam in (lam_s, lam_i))
    b = np.zeros(len(far))  # each slice's ridge intercept (rad/m), which the correction removes
    if axis == "y":
        b = np.array([ridge_fit(StatsSummary.from_sums("far", axis, *row)).intercept
                      for row in far.tolist()])
    raw_rows = _mapped(far, s_s, s_i)
    # the corrected idler, Y_i = (M f / k_s)(q_i - b)
    fixed_rows = _mapped(raw_rows, 1.0, lam_s / lam_i, -(s_s * b))
    raw_sums = tuple(_slice_total(config, raw_rows).tolist())
    fixed_sums = tuple(_slice_total(config, fixed_rows).tolist())
    StatsSummary.from_sums("camera", axis, *raw_sums)  # a collapsed distribution stops here

    q, mid = config.square_grid(), config.n_slices // 2

    def momenta(k):  # the momenta of slice k that land on the pixel centres, per JPD
        to_signal = s_s[mid] / s_s[k]
        return q * to_signal, q * (s_i[mid] / s_i[k]), (q - b[mid]) * to_signal + b[k]

    raw, fixed = _squared_blocks(config, axis, momenta, "2 camera JPDs")
    y_signal, y_idler = s_s[mid] * q, s_i[mid] * q
    fixed_idler = y_idler * (lam_s[mid] / lam_i[mid]) - s_s[mid] * b[mid]
    return (
        CameraJPD("camera", axis, y_signal, y_idler, raw, False, config.slices, raw_sums),
        CameraJPD("camera", axis, y_signal, fixed_idler, fixed, True, config.slices, fixed_sums),
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
