"""Probability tables, moments, Reid inference, and ridge fitting.

Slope convention: ridge fits report the idler coordinate as a function
of the signal coordinate, m = d(a_i)/d(a_s), with the intercept taken
through the centroid.  (Camera-plane reports, which quote the signal
plotted against the idler as the distributions are usually displayed,
fit the transposed table — see :mod:`spdcsim.camera`.)

All scalar reductions go through ``math.fsum`` so results are both
compensated and independent of summation batching.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from spdcsim.spectral import JointDistribution

__all__ = [
    "ProbabilityTable",
    "StatsSummary",
    "ReidReport",
    "RidgeFit",
    "DegenerateDistributionError",
    "normalize",
    "moments",
    "reid_inference",
    "reid_product",
    "ridge_slope",
    "ridge_fit",
    "REID_BOUND",
]

#: Certification benchmark for the inferred width product (hbar = 1,
#: momentum measured as wavenumber).
REID_BOUND = 0.5

#: Principal-axis eigenvalue ratio below which a table is considered
#: isotropic (no meaningful ridge orientation).
ISOTROPY_RATIO = 1.01


class DegenerateDistributionError(RuntimeError):
    """A distribution without enough structure for the requested statistic."""


@dataclass(frozen=True)
class ProbabilityTable:
    """Discrete probability density over signal x idler coordinates.

    Normalization convention: sum(P) * da_s * da_i = 1, i.e. entries are
    densities on the grid measure, not cell masses.
    """

    plane: str
    axis: str
    axis_signal: np.ndarray
    axis_idler: np.ndarray
    p: np.ndarray

    @property
    def d_signal(self) -> float:
        return float(self.axis_signal[1] - self.axis_signal[0])

    @property
    def d_idler(self) -> float:
        return float(self.axis_idler[1] - self.axis_idler[0])

    def __post_init__(self) -> None:
        if np.any(self.p < 0):
            raise ValueError("probability table contains negative entries")
        mass = float(self.p.sum() * self.d_signal * self.d_idler)
        if not math.isclose(mass, 1.0, rel_tol=1e-9):
            raise ValueError(f"table mass {mass!r} is not 1 within 1e-9")


def normalize(jid: JointDistribution) -> ProbabilityTable:
    """Normalize an intensity matrix to a probability density.

    P = I / (sum(I) * da_s * da_i), so that sum(P) da_s da_i = 1.
    """
    total = float(jid.intensity.sum())
    if total <= 0.0:
        raise DegenerateDistributionError("cannot normalize an all-zero intensity")
    return ProbabilityTable(
        plane=jid.plane,
        axis=jid.axis,
        axis_signal=jid.axis_signal,
        axis_idler=jid.axis_idler,
        p=jid.intensity / (total * jid.d_signal * jid.d_idler),
    )


@dataclass(frozen=True)
class StatsSummary:
    """First and second moments of a table, plus (optionally) the linear
    inference fields filled in by :func:`reid_inference`."""

    plane: str
    axis: str
    mu_s: float
    mu_i: float
    V_s: float
    V_i: float
    C_si: float
    G: float | None = None
    var_inferred: float | None = None
    width_inferred: float | None = None

    def __post_init__(self) -> None:
        if self.V_s < 0 or self.V_i < 0:
            raise ValueError("variances must be non-negative")
        limit = self.V_s * self.V_i
        if self.C_si * self.C_si > limit * (1.0 + 1e-9) + 1e-300:
            raise ValueError(
                f"covariance {self.C_si} violates Cauchy-Schwarz against "
                f"V_s={self.V_s}, V_i={self.V_i}"
            )

    def to_json_dict(self) -> dict:
        out = {
            "mu_s": self.mu_s,
            "mu_i": self.mu_i,
            "V_s": self.V_s,
            "V_i": self.V_i,
            "C_si": self.C_si,
        }
        if self.G is not None:
            out["G"] = self.G
            out["var_inferred"] = self.var_inferred
            out["width_inferred"] = self.width_inferred
        return out


def moments(table: ProbabilityTable) -> StatsSummary:
    """Means, marginal variances, and covariance of a probability table.

    Computed from the marginals (identical to the joint-based sums on a
    rectangular grid), with final reductions through math.fsum.
    """
    a_s = table.axis_signal
    a_i = table.axis_idler
    meas = table.d_signal * table.d_idler
    m_s = table.p.sum(axis=1)  # signal marginal (density * 1/d_idler scale)
    m_i = table.p.sum(axis=0)
    total = math.fsum(m_s) * meas
    mu_s = math.fsum(m_s * a_s) * meas / total
    mu_i = math.fsum(m_i * a_i) * meas / total
    ds = a_s - mu_s
    di = a_i - mu_i
    v_s = math.fsum(m_s * ds * ds) * meas / total
    v_i = math.fsum(m_i * di * di) * meas / total
    # covariance via a matrix-vector contraction, reduced with fsum
    row = table.p @ di
    c_si = math.fsum(ds * row) * meas / total
    return StatsSummary(
        plane=table.plane, axis=table.axis,
        mu_s=mu_s, mu_i=mu_i, V_s=v_s, V_i=v_i, C_si=c_si,
    )


def reid_inference(summary: StatsSummary) -> StatsSummary:
    """Complete a summary with the optimal-linear-estimator fields.

    G = C_si / V_s is the inference gain; the mean-square error of the
    estimate a_i ~ G a_s is the inferred variance

        Var(a_i | a_s) = V_i - C_si^2 / V_s,

    whose square root is the inferred (conditional) width.
    """
    if summary.V_s <= 0.0:
        raise DegenerateDistributionError(
            "signal marginal variance is zero; linear inference is undefined"
        )
    gain = summary.C_si / summary.V_s
    var = summary.V_i - summary.C_si * summary.C_si / summary.V_s
    if var < 0.0:
        # Cauchy-Schwarz guarantees var >= 0; tiny negatives are roundoff.
        if var < -1e-12 * max(summary.V_i, 1e-300):
            raise DegenerateDistributionError(
                f"inferred variance {var} is negative beyond roundoff"
            )
        var = 0.0
    return replace(summary, G=gain, var_inferred=var, width_inferred=math.sqrt(var))


@dataclass(frozen=True)
class ReidReport:
    """Inferred position width x inferred momentum width vs the 1/2 bound."""

    axis: str
    dx_inferred_m: float
    dq_inferred_radm: float
    product: float
    certified: bool
    bound: float = REID_BOUND

    def __post_init__(self) -> None:
        if self.product < 0:
            raise ValueError("width product cannot be negative")
        if self.certified != (self.product < self.bound):
            raise ValueError("certified flag inconsistent with the product")

    def to_json_dict(self) -> dict:
        return {
            "axis": self.axis,
            "dx_inferred_m": self.dx_inferred_m,
            "dq_inferred_radm": self.dq_inferred_radm,
            "reid_product": self.product,
            "bound": self.bound,
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
    if near.width_inferred is None or far.width_inferred is None:
        raise ValueError("summaries must carry inference fields; run reid_inference")
    product = near.width_inferred * far.width_inferred
    return ReidReport(
        axis=near.axis,
        dx_inferred_m=near.width_inferred,
        dq_inferred_radm=far.width_inferred,
        product=product,
        certified=bool(product < REID_BOUND),
    )


@dataclass(frozen=True)
class RidgeFit:
    """Fitted ridge line a_i = slope_principal_axis * a_s + intercept.

    ``slope_regression`` carries the regression estimator for
    comparison.  ``isotropic`` flags tables whose second-moment
    eigenvalues differ by less than 1%, where the principal direction is
    not meaningful.
    """

    intercept: float
    slope_principal_axis: float
    slope_regression: float
    isotropic: bool


def ridge_slope(table: ProbabilityTable) -> RidgeFit:
    """Fit the bright ridge of a joint table with a straight line:
    ``ridge_fit`` of the table's ``moments``."""
    return ridge_fit(moments(table))


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
            "joint table is nearly isotropic; ridge orientation is undefined",
            stacklevel=3,
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
