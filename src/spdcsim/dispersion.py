"""Refractive indices and phase-matching geometry for uniaxial crystals.

The index model is the three-term Sellmeier form

    n^2 = A + B / (lam^2 - C) - D * lam^2

with ``lam`` in micrometers and separate coefficient sets for the
ordinary and extraordinary rays.  Coefficient sets live in small YAML
files (see :mod:`spdcsim.data`) with the layout::

    name: BBO
    range_um: [0.22, 1.06]
    ordinary:      {A: ..., B: ..., C: ..., D: ...}
    extraordinary: {A: ..., B: ..., C: ..., D: ...}

Conventions used throughout the package: wavelengths cross API
boundaries in nanometers, lengths in meters, angles in radians (helpers
that speak degrees say so in their names).  The pump propagates as the
extraordinary ray at angle ``theta`` to the optic axis; signal and
idler are ordinary rays, so their indices carry no angle dependence.
That makes the collinear type-I angle a closed form: the pump must see
the index n_t = (k_s + k_i) lam_p / (2 pi), and the index ellipse is
inverted for sin^2(theta) exactly, so no numerical root find is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

__all__ = [
    "SellmeierSet",
    "SpdcWavelengths",
    "CrystalSetup",
    "WavelengthRangeError",
    "PhaseMatchingError",
    "sellmeier_index",
    "effective_index",
    "wavevector_magnitude",
    "idler_wavelength",
    "phase_matching_angle",
    "walkoff_angle",
]


class WavelengthRangeError(ValueError):
    """A wavelength fell outside the validity range of a Sellmeier fit."""


class PhaseMatchingError(RuntimeError):
    """No collinear phase-matching angle exists for the requested triple.

    Carries the sign of the mismatch at both bracket ends so callers can
    tell *which way* the condition fails (pump index everywhere too high
    or too low) instead of just "no root".
    """

    def __init__(self, message: str, residual_lo: float, residual_hi: float):
        super().__init__(message)
        self.residual_lo = residual_lo
        self.residual_hi = residual_hi


def sellmeier_index(wavelength_um: float, coeffs: tuple[float, float, float, float]) -> float:
    """Evaluate the three-term Sellmeier form at ``wavelength_um``."""
    a, b, c, d = coeffs
    lam2 = wavelength_um * wavelength_um
    n2 = a + b / (lam2 - c) - d * lam2
    if n2 <= 0.0:
        raise WavelengthRangeError(
            f"Sellmeier form is non-physical (n^2 = {n2:.6g}) at {wavelength_um} um"
        )
    return math.sqrt(n2)


def _coefficient(ray: dict, label: str, key: str) -> float:
    """Coefficient ``key`` of one ray's mapping: a finite int or float,
    not a bool.  Raises ValueError naming ``label.key`` and the value."""
    value = ray[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(float(value)):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{label}.{key}: must be a finite number, got {value!r}")


@dataclass(frozen=True)
class SellmeierSet:
    """Ordinary/extraordinary Sellmeier coefficients plus validity range.

    ``ordinary`` and ``extraordinary`` are ``(A, B, C, D)`` tuples;
    ``range_um`` is the inclusive wavelength validity window of the fit.
    """

    ordinary: tuple[float, float, float, float]
    extraordinary: tuple[float, float, float, float]
    range_um: tuple[float, float]
    name: str = ""

    def __post_init__(self) -> None:
        lo, hi = self.range_um
        if not (0.0 < lo < hi):
            raise ValueError(f"invalid validity range {self.range_um}")
        for label, coeffs in (("ordinary", self.ordinary), ("extraordinary", self.extraordinary)):
            if len(coeffs) != 4:
                raise ValueError(f"{label} coefficient set must have four entries")
            if coeffs[0] <= 1.0:
                raise ValueError(f"{label} A coefficient {coeffs[0]} is non-physical")

    @classmethod
    def from_mapping(cls, doc: dict, name: str = "") -> "SellmeierSet":
        try:
            o = doc["ordinary"]
            e = doc["extraordinary"]
            rng = doc["range_um"]
            if not (isinstance(rng, (list, tuple)) and len(rng) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in rng
            )):
                raise ValueError(f"range_um must be two numbers [lo, hi], got {rng!r}")
            ordinary = tuple(_coefficient(o, "ordinary", key) for key in "ABCD")
            extraordinary = tuple(_coefficient(e, "extraordinary", key) for key in "ABCD")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed Sellmeier document: missing {exc}") from exc
        return cls(
            ordinary=ordinary,
            extraordinary=extraordinary,
            range_um=(float(rng[0]), float(rng[1])),
            name=str(doc.get("name", name)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "SellmeierSet":
        """Load a coefficient set from a YAML file."""
        path = Path(path)
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: expected a mapping at top level")
        return cls.from_mapping(doc, name=path.stem)

    @classmethod
    def bbo(cls) -> "SellmeierSet":
        """The packaged BBO coefficient set."""
        text = resources.files("spdcsim.data").joinpath("bbo.yaml").read_text(encoding="utf-8")
        return cls.from_mapping(yaml.safe_load(text))

    # -- index evaluation ------------------------------------------------

    def _check_range(self, wavelength_nm: float) -> float:
        lam_um = wavelength_nm * 1e-3
        lo, hi = self.range_um
        if not (lo <= lam_um <= hi):
            raise WavelengthRangeError(
                f"{wavelength_nm} nm is outside the {self.name or 'Sellmeier'} "
                f"validity range [{lo * 1e3:.0f}, {hi * 1e3:.0f}] nm"
            )
        return lam_um

    def index_ordinary(self, wavelength_nm: float) -> float:
        """Ordinary-ray index at ``wavelength_nm``."""
        return sellmeier_index(self._check_range(wavelength_nm), self.ordinary)

    def index_extraordinary(self, wavelength_nm: float) -> float:
        """Principal extraordinary index (propagation at 90 deg to the axis)."""
        return sellmeier_index(self._check_range(wavelength_nm), self.extraordinary)


def effective_index(sell: SellmeierSet, theta: float, wavelength_nm: float) -> float:
    """Index seen by an extraordinary ray at angle ``theta`` to the optic axis.

    Uses the uniaxial index ellipse,

        1 / n_eff^2 = cos^2(theta) / n_o^2 + sin^2(theta) / n_e^2,

    which interpolates between the ordinary index at ``theta = 0`` and
    the principal extraordinary index at ``theta = pi/2``.
    """
    n_o = sell.index_ordinary(wavelength_nm)
    n_e = sell.index_extraordinary(wavelength_nm)
    c, s = math.cos(theta), math.sin(theta)
    return 1.0 / math.sqrt((c * c) / (n_o * n_o) + (s * s) / (n_e * n_e))


def wavevector_magnitude(index: float, wavelength_nm: float) -> float:
    """|k| in rad/m for a ray of the given refractive index."""
    return 2.0 * math.pi * index / (wavelength_nm * 1e-9)


def idler_wavelength(pump_nm: float, signal_nm: float) -> float:
    """Idler wavelength fixed by energy conservation, in nm.

    Solves 1/pump = 1/signal + 1/idler.  The signal must be strictly
    longer than the pump (and shorter than 2x pump would make the idler
    the shorter leg, which is allowed; only the degenerate point is
    self-paired).
    """
    if not signal_nm > pump_nm:  # NaN too
        raise ValueError(
            f"signal ({signal_nm} nm) must be longer than the pump ({pump_nm} nm)"
        )
    inv = 1.0 / pump_nm - 1.0 / signal_nm
    if inv <= 0.0:
        raise ValueError("down-conversion requires 1/pump > 1/signal")
    return 1.0 / inv


@dataclass(frozen=True)
class SpdcWavelengths:
    """Pump/signal/idler wavelength triple (nm), energy conserving."""

    pump_nm: float
    signal_nm: float
    idler_nm: float

    def __post_init__(self) -> None:
        if min(self.pump_nm, self.signal_nm, self.idler_nm) <= 0:
            raise ValueError("wavelengths must be positive")
        lhs = 1.0 / self.pump_nm
        rhs = 1.0 / self.signal_nm + 1.0 / self.idler_nm
        if not math.isclose(lhs, rhs, rel_tol=1e-12):
            raise ValueError(
                f"energy conservation violated: 1/{self.pump_nm} != "
                f"1/{self.signal_nm} + 1/{self.idler_nm}"
            )

    @classmethod
    def from_pump_signal(cls, pump_nm: float, signal_nm: float) -> "SpdcWavelengths":
        return cls(pump_nm, signal_nm, idler_wavelength(pump_nm, signal_nm))

    @property
    def degenerate(self) -> bool:
        return math.isclose(self.signal_nm, self.idler_nm, rel_tol=1e-9)


def _collinear_mismatch(theta: float, wl: SpdcWavelengths, sell: SellmeierSet) -> float:
    """k_p(theta) - k_s - k_i for collinear ordinary signal/idler (rad/m)."""
    k_p = wavevector_magnitude(effective_index(sell, theta, wl.pump_nm), wl.pump_nm)
    k_s = wavevector_magnitude(sell.index_ordinary(wl.signal_nm), wl.signal_nm)
    k_i = wavevector_magnitude(sell.index_ordinary(wl.idler_nm), wl.idler_nm)
    return k_p - k_s - k_i


def _phase_matching_angle_closed(wl: SpdcWavelengths, sell: SellmeierSet) -> float:
    # Target pump index: n_t such that k_p = k_s + k_i collinearly.
    k_sum = wavevector_magnitude(
        sell.index_ordinary(wl.signal_nm), wl.signal_nm
    ) + wavevector_magnitude(sell.index_ordinary(wl.idler_nm), wl.idler_nm)
    n_t = k_sum * (wl.pump_nm * 1e-9) / (2.0 * math.pi)
    n_o = sell.index_ordinary(wl.pump_nm)
    n_e = sell.index_extraordinary(wl.pump_nm)
    # Invert the index ellipse for sin^2(theta).
    num = 1.0 / (n_t * n_t) - 1.0 / (n_o * n_o)
    den = 1.0 / (n_e * n_e) - 1.0 / (n_o * n_o)
    s2 = num / den
    if not (0.0 <= s2 <= 1.0):
        raise PhaseMatchingError(
            f"target pump index {n_t:.6f} is outside [{min(n_o, n_e):.6f}, "
            f"{max(n_o, n_e):.6f}]; no collinear angle exists",
            residual_lo=_collinear_mismatch(1e-9, wl, sell),
            residual_hi=_collinear_mismatch(math.pi / 2 - 1e-9, wl, sell),
        )
    return math.asin(math.sqrt(s2))


def phase_matching_angle(
    wl: SpdcWavelengths,
    sell: SellmeierSet,
    *,
    agreement_tol_rad: float = 1e-6,
) -> float:
    """Collinear phase-matching angle (rad) for an e -> o + o process.

    The angle comes from the exact inversion of the index ellipse for the
    pump index that makes k_p(theta) = k_s + k_i.  It is then checked
    against the collinear mismatch k_p(theta) - k_s - k_i itself: the
    mismatch must change sign on (0, pi/2), and again within
    ``agreement_tol_rad`` of the returned angle, so a root lies that
    close to it.  A failed check indicates a broken coefficient set and
    raises :class:`PhaseMatchingError` rather than returning the angle.
    """
    theta = _phase_matching_angle_closed(wl, sell)
    lo, hi = 1e-9, math.pi / 2 - 1e-9
    f_lo = _collinear_mismatch(lo, wl, sell)
    f_hi = _collinear_mismatch(hi, wl, sell)
    if f_lo * f_hi > 0.0:
        raise PhaseMatchingError(
            "collinear mismatch does not change sign on (0, pi/2)",
            residual_lo=f_lo,
            residual_hi=f_hi,
        )
    below = _collinear_mismatch(max(lo, theta - agreement_tol_rad), wl, sell)
    above = _collinear_mismatch(min(hi, theta + agreement_tol_rad), wl, sell)
    if below * above > 0.0:
        raise PhaseMatchingError(
            f"closed-form phase-matching angle {theta!r} has no mismatch root "
            f"within {agreement_tol_rad:.3e} rad",
            residual_lo=f_lo,
            residual_hi=f_hi,
        )
    return theta


def walkoff_angle(sell: SellmeierSet, theta: float, wavelength_nm: float) -> float:
    """Poynting-vector walk-off of the extraordinary ray, in radians:

        rho = arctan[ (n_o^2 / n_e^2 - 1) * tan(theta) * cos(theta) ]

    with both indices evaluated at ``wavelength_nm`` and the arctangent
    taken of the full product.  For a crystal with n_e < n_o this is
    positive — energy walks away from the optic axis — and vanishes both
    along the axis and perpendicular to it.  Callers treat it as a tilt
    of the pump Poynting vector within the plane containing the optic
    axis (the y-z plane under this package's conventions).
    """
    n_o = sell.index_ordinary(wavelength_nm)
    n_e = sell.index_extraordinary(wavelength_nm)
    r = (n_o * n_o) / (n_e * n_e)
    return math.atan((r - 1.0) * math.tan(theta) * math.cos(theta))


@dataclass(frozen=True)
class CrystalSetup:
    """Geometry of the nonlinear crystal: cut angle, walk-off, length.

    ``theta_p`` is the pump propagation angle to the optic axis,
    ``rho`` the pump walk-off at that angle, and ``collinear_mismatch``
    the collinear phase mismatch k_p(theta_p) - k_s - k_i (rad/m) at the
    nominal wavelengths: exactly 0 for a crystal cut at the
    phase-matching angle.  The optic axis is taken to lie in the y-z
    plane, so walk-off tilts the pump envelope along y only; transverse
    x is walk-off free.
    """

    sellmeier: SellmeierSet
    length_m: float
    theta_p: float
    rho: float
    collinear_mismatch: float

    def __post_init__(self) -> None:
        if not self.length_m > 0:  # NaN too
            raise ValueError(f"crystal length must be positive, got {self.length_m}")
        if not (0.0 <= self.theta_p <= math.pi / 2):
            raise ValueError(f"theta_p must lie in [0, pi/2], got {self.theta_p}")
        if not (0.0 <= self.rho < 0.2):
            raise ValueError(f"walk-off angle {self.rho} rad is outside [0, 0.2)")

    @classmethod
    def collinear(
        cls, wl: SpdcWavelengths, sell: SellmeierSet, length_m: float
    ) -> "CrystalSetup":
        """Crystal cut at the collinear phase-matching angle for ``wl``."""
        theta = phase_matching_angle(wl, sell)
        return cls(
            sellmeier=sell,
            length_m=length_m,
            theta_p=theta,
            rho=walkoff_angle(sell, theta, wl.pump_nm),
            collinear_mismatch=0.0,
        )

    @classmethod
    def at_angle(
        cls, wl: SpdcWavelengths, sell: SellmeierSet, length_m: float, theta_p: float
    ) -> "CrystalSetup":
        """Crystal cut at an explicitly chosen pump angle."""
        return cls(
            sellmeier=sell,
            length_m=length_m,
            theta_p=theta_p,
            rho=walkoff_angle(sell, theta_p, wl.pump_nm),
            collinear_mismatch=_collinear_mismatch(theta_p, wl, sell),
        )
