"""Moments, Reid inference, and ridge fitting.

Every statistic here is a function of six intensity-weighted raw sums,
of {1, a_s, a_i, a_s^2, a_i^2, a_s a_i}: ``StatsSummary.from_sums``
turns them into means, variances and the covariance, from which the summary
derives its inference and a ``ReidReport`` its product.  The moment engine
(``spectral.moment_sums``) supplies them for every printed statistic:
through ``spectral.certify_axis`` for ``certify``, ``sweep``, ``stats`` and
``jid``, and through ``camera.camera_jpds`` for the camera slopes.

Slope convention: ridge fits report the idler coordinate as a function
of the signal coordinate, m = d(a_i)/d(a_s), with the intercept taken
through the centroid.  (Camera-plane reports, which quote the signal
plotted against the idler as the distributions are usually displayed,
swap the two axes' roles — see :mod:`spdcsim.camera`.)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StatsSummary",
    "ReidReport",
    "RidgeFit",
    "DegenerateDistributionError",
    "reid_product",
    "ridge_fit",
    "REID_BOUND",
]

#: Certification benchmark for the inferred width product (hbar = 1,
#: momentum measured as wavenumber).
REID_BOUND = 0.5

#: Principal-axis eigenvalue ratio below which a distribution is considered
#: isotropic (no meaningful ridge orientation).
ISOTROPY_RATIO = 1.01


class DegenerateDistributionError(RuntimeError):
    """A distribution without enough structure for the requested statistic."""


@dataclass(frozen=True)
class StatsSummary:
    """First and second moments of a distribution and the optimal linear
    inference of the idler coordinate from the signal's.

    ``G`` = C_si / V_s is the inference gain; the mean-square error of the
    estimate a_i ~ G a_s is the inferred variance

        Var(a_i | a_s) = V_i - C_si^2 / V_s,

    whose square root is the inferred (conditional) width.  Each raises
    DegenerateDistributionError when V_s is zero or the inferred variance
    is negative beyond roundoff.
    """

    plane: str
    axis: str
    mu_s: float
    mu_i: float
    V_s: float
    V_i: float
    C_si: float

    def __post_init__(self) -> None:
        if self.V_s < 0 or self.V_i < 0:
            raise ValueError("variances must be non-negative")
        limit = self.V_s * self.V_i
        if self.C_si * self.C_si > limit * (1.0 + 1e-9) + 1e-300:
            raise ValueError(
                f"covariance {self.C_si} violates Cauchy-Schwarz against "
                f"V_s={self.V_s}, V_i={self.V_i}"
            )

    @classmethod
    def from_sums(cls, plane: str, axis: str, norm: float, s: float, i: float,
                  ss: float, ii: float, si: float) -> StatsSummary:
        """Means, variances and covariance from raw sums of {a_s, a_i, a_s^2,
        a_i^2, a_s a_i} and their common normalisation ``norm``, the total
        intensity.

        Raises DegenerateDistributionError unless ``norm`` is finite and
        positive.  Rounding can leave the variance of a point-like marginal
        below 0, or the covariance past Cauchy-Schwarz; both are clipped to
        the bounds the exact values obey, which leaves any other value as is.
        """
        if not 0.0 < norm < math.inf:
            raise DegenerateDistributionError(
                f"intensity total {norm!r} is not finite and positive"
            )
        mu_s, mu_i = s / norm, i / norm
        v_s, v_i = max(ss / norm - mu_s * mu_s, 0.0), max(ii / norm - mu_i * mu_i, 0.0)
        bound = math.sqrt(v_s * v_i)
        return cls(
            plane=plane, axis=axis, mu_s=mu_s, mu_i=mu_i, V_s=v_s, V_i=v_i,
            C_si=min(max(si / norm - mu_s * mu_i, -bound), bound),
        )

    def _inference_v_s(self) -> float:  # V_s, which linear inference divides by
        if self.V_s <= 0.0:
            raise DegenerateDistributionError(
                "signal marginal variance is zero; linear inference is undefined"
            )
        return self.V_s

    @property
    def G(self) -> float:
        return self.C_si / self._inference_v_s()

    @property
    def var_inferred(self) -> float:
        var = self.V_i - self.C_si * self.C_si / self._inference_v_s()
        # Cauchy-Schwarz guarantees var >= 0; tiny negatives are roundoff, read as 0
        if var < -1e-12 * max(self.V_i, 1e-300):
            raise DegenerateDistributionError(f"inferred variance {var} is negative "
                                              "beyond roundoff")
        return max(var, 0.0)

    @property
    def width_inferred(self) -> float:
        return math.sqrt(self.var_inferred)

    def to_json_dict(self) -> dict:
        return {
            "mu_s": self.mu_s,
            "mu_i": self.mu_i,
            "V_s": self.V_s,
            "V_i": self.V_i,
            "C_si": self.C_si,
            "G": self.G,
            "var_inferred": self.var_inferred,
            "width_inferred": self.width_inferred,
        }


@dataclass(frozen=True)
class ReidReport:
    """Inferred position width x inferred momentum width vs ``REID_BOUND``."""

    axis: str
    dx_inferred_m: float
    dq_inferred_radm: float

    @property
    def product(self) -> float:
        return self.dx_inferred_m * self.dq_inferred_radm

    @property
    def certified(self) -> bool:
        return self.product < REID_BOUND

    def to_json_dict(self) -> dict:
        return {
            "axis": self.axis,
            "dx_inferred_m": self.dx_inferred_m,
            "dq_inferred_radm": self.dq_inferred_radm,
            "reid_product": self.product,
            "bound": REID_BOUND,
            "certified": self.certified,
        }


def reid_product(near: StatsSummary, far: StatsSummary) -> ReidReport:
    """Pair a position-plane and a momentum-plane inference into the
    EPR width product U = dx_inferred * dq_inferred (hbar = 1)."""
    if near.plane != "near" or far.plane != "far":
        raise ValueError(
            f"expected (near, far) summaries, got ({near.plane!r}, {far.plane!r})"
        )
    if near.axis != far.axis:
        raise ValueError(f"axis mismatch: {near.axis!r} vs {far.axis!r}")
    return ReidReport(near.axis, near.width_inferred, far.width_inferred)


@dataclass(frozen=True)
class RidgeFit:
    """Fitted ridge line a_i = slope_principal_axis * a_s + intercept.

    ``slope_regression`` carries the regression estimator for
    comparison.  ``isotropic`` flags distributions whose second-moment
    eigenvalues differ by less than 1%, where the principal direction is
    not meaningful.
    """

    intercept: float
    slope_principal_axis: float
    slope_regression: float
    isotropic: bool


def ridge_fit(s: StatsSummary) -> RidgeFit:
    """Fit a ridge line to the moments of a joint distribution.

    The line is the intensity-weighted principal axis (orthogonal / total
    least squares from the 2x2 second-moment matrix): unlike ordinary
    regression, it does not shrink toward zero with ridge width.  The
    regression slope C_si/V_s is always computed alongside.  The line
    passes through the centroid.  Distributions with near-equal
    eigenvalues get an isotropy warning instead of an error — both slopes
    are still reported, but neither orientation is trustworthy.
    """
    if s.V_s <= 0.0 or s.V_i <= 0.0:
        raise DegenerateDistributionError("ridge fit needs spread on both axes")
    cov = np.array([[s.V_s, s.C_si], [s.C_si, s.V_i]])
    evals, evecs = np.linalg.eigh(cov)
    ratio = evals[1] / evals[0] if evals[0] > 0 else math.inf
    isotropic = bool(ratio < ISOTROPY_RATIO)
    if isotropic:
        warnings.warn(
            "joint distribution is nearly isotropic; ridge orientation is undefined",
            stacklevel=2,
        )
    v = evecs[:, 1]  # eigenvector of the larger eigenvalue
    slope_pa = math.inf if v[0] == 0.0 else float(v[1] / v[0])
    slope_reg = s.C_si / s.V_s
    return RidgeFit(
        intercept=s.mu_i - slope_pa * s.mu_s,
        slope_principal_axis=slope_pa,
        slope_regression=slope_reg,
        isotropic=isotropic,
    )
