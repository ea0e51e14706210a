"""Biphoton transverse amplitude on 2D momentum grids.

The full transverse problem is four-dimensional — (q_sx, q_sy) for the
signal and (q_ix, q_iy) for the idler.  Everything here works on 2D
slices of it: one transverse axis at a time, the orthogonal components
held at zero.  The x-plane slice sees no walk-off; the y-plane slice
carries the walk-off tilt of the pump, which lives in the y-z plane by
convention.

The phase mismatch is taken **relative to the aligned operating point**
(collinear emission at the nominal wavelengths): the constant transverse
carrier of the tilted pump and the collinear longitudinal offset are
subtracted out, mirroring how a real source is aligned before data is
taken.  Without that re-centering the constant walk-off offset would
extinguish collinear emission entirely for any realistic waist.  The
transverse mismatch is then -(q_s + q_i), and the longitudinal one

    dk_z = dk_0 + [k_s0 - k_zs + q_sy tan(rho)] + [k_i0 - k_zi + q_iy tan(rho)],

with k_z = sqrt(k^2 - |q|^2) exact (no paraxial expansion), k at the
slice wavelength, k0 at the nominal one, and dk_0 = k_p(theta_p) - k_s0
- k_i0 the collinear mismatch of the cut (``CrystalSetup.collinear_mismatch``,
exactly 0 at the phase-matching angle).  The bracketed terms are one
share per arm.  Everything but the momenta is a constant of the spectral
slice: ``slice_arms`` evaluates the four wavenumbers once, from the run's
``config.RunConfig`` (its crystal and nominal wavelengths), and keeps them,
with L/2, the tilt and (L/2) dk_0, in a ``SliceArms`` record, which gives
each arm's kernel argument on any momenta.  At the phase-matching cut the
aligned point sits at exactly zero mismatch, and off-nominal spectral
slices keep their genuine longitudinal detuning.

The pump envelope confines the sum coordinate q_s + q_i to ~2/w0, two
orders of magnitude inside the phase-matching width of the difference
coordinate, so on the square (q_s, q_i) grid the amplitude lives in a
thin anti-diagonal band: outside it the float64 envelope is exactly 0.
``envelope_columns`` gives the band's columns per row, and
``evaluate_grid``, the block kernel of the pictures' stream
(``spectral._squared_blocks``), evaluates one row block of a slice on
its windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from spdcsim.dispersion import CrystalSetup, SpdcWavelengths, wavevector_magnitude

if TYPE_CHECKING:
    from spdcsim.config import RunConfig

__all__ = [
    "EvanescentInputError",
    "GridMemoryError",
    "RowBand",
    "envelope_columns",
    "check_memory_budget",
    "default_diff_halfwidth",
    "DEFAULT_MEMORY_BUDGET_BYTES",
]

#: Default ceiling on what a run holds at its peak, as ``check_memory_budget`` charges it.
DEFAULT_MEMORY_BUDGET_BYTES = 2 * 1024**3


class EvanescentInputError(ValueError):
    """A transverse momentum at or beyond the free propagation cone |q| >= k."""


class GridMemoryError(RuntimeError):
    """A requested grid evaluation exceeds the configured memory budget."""


def default_diff_halfwidth(wl: SpdcWavelengths, crystal: CrystalSetup) -> float:
    """Default half-extent D of the difference coordinate q_s - q_i:
    5 phase-matching main-lobe widths, 5 sqrt(4 pi k_bar / L), with k_bar
    the mean ordinary wavenumber of the nominal pair."""
    k_bar = 0.5 * (_ordinary_k(crystal, wl.signal_nm) + _ordinary_k(crystal, wl.idler_nm))
    return 5.0 * math.sqrt(4.0 * math.pi * k_bar / crystal.length_m)


def _ordinary_k(crystal: CrystalSetup, wavelength_nm: float) -> float:
    return wavevector_magnitude(
        crystal.sellmeier.index_ordinary(wavelength_nm), wavelength_nm
    )


@dataclass(frozen=True)
class SliceArms:
    """One spectral slice's per-arm kernel arguments on one axis, from its
    constants: the ordinary wavenumbers k at the slice's (signal, idler)
    wavelengths and k0 at the nominal ones, L/2, the walk-off tilt
    tan(rho) (y; 0.0 on x) and the cut's (L/2) dk_0.

    Called on momenta (q_s, q_i), scalars or arrays, it gives elementwise
    a(q_s) and b(q_i) with a + b = dk_z L / 2, and their derivatives
    a' = (L/2)(q_s / k_z + tilt) and likewise b'; (L/2) dk_0 is added to
    a.  Each arm's share of dk_z is (k0 - k_z) + q tilt with
    k_z = sqrt(k^2 - q^2), the orthogonal momentum being zero.  Raises
    EvanescentInputError if any momentum reaches the propagation cone.
    Every field is a plain float.
    """

    k_signal: float
    k_idler: float
    k0_signal: float
    k0_idler: float
    half_length: float
    tilt: float
    offset: float

    def __call__(self, q_s, q_i):
        def arm(q, k, k0):
            q = np.asarray(q)
            q_sq = q**2
            if np.any(q_sq >= k * k):
                raise EvanescentInputError(
                    "transverse momentum at or beyond the propagation cone |q| >= k"
                )
            k_z = np.sqrt(k * k - q_sq)
            return (self.half_length * ((k0 - k_z) + q * self.tilt),
                    self.half_length * (q / k_z + self.tilt))

        a, da = arm(q_s, self.k_signal, self.k0_signal)
        b, db = arm(q_i, self.k_idler, self.k0_idler)
        return a + self.offset, b, da, db


def slice_arms(config: RunConfig, axis: str, pair: tuple[float, float]) -> SliceArms:
    """The ``SliceArms`` of the (signal, idler) wavelengths ``pair`` on
    ``axis`` against ``config``'s nominal pair: four Sellmeier
    evaluations.  Raises ValueError unless ``axis`` is "x" or "y"."""
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    crystal, wl = config.crystal, config.wl
    half_length = crystal.length_m / 2.0
    return SliceArms(
        _ordinary_k(crystal, pair[0]), _ordinary_k(crystal, pair[1]),
        _ordinary_k(crystal, wl.signal_nm), _ordinary_k(crystal, wl.idler_nm),
        half_length, math.tan(crystal.rho) if axis == "y" else 0.0,
        half_length * crystal.collinear_mismatch,
    )


def _kernel(u, kind: str):
    if kind == "sinc":
        # sin(u)/u to 2.2e-16 relative, next to the zeros u = k pi too,
        # where sin(pi x)/(pi x) at x = u/pi is off by up to 5.8 relative
        u = np.asarray(u, dtype=float)
        k = np.sin(u, out=np.empty_like(u))
        with np.errstate(divide="ignore", invalid="ignore"):
            k /= u
        k[u == 0] = 1.0
        return k
    if kind == "gauss":
        # Curvature-matched Gaussian stand-in: exp(-u^2/6) agrees with
        # sinc(u) through O(u^2), turning width computations analytic.
        return np.exp(-np.asarray(u) ** 2 / 6.0)
    raise ValueError(f"unknown phase-matching kernel {kind!r}")


#: below this |u| the sinc slope (cos u - sinc u) / u loses digits to
#: cancellation (about 1e-16/u^2 relative, 1e-12 here); its Taylor series
#: -u/3 + u^3/30 - u^5/840 is exact to float64 there
_SINC_SLOPE_SERIES_U = 1e-2


def _kernel_with_slope(u: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The kernel K(u) and its derivative K'(u) on an array ``u``."""
    k = _kernel(u, kind)
    if kind == "gauss":
        return k, -(u / 3.0) * k
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (np.cos(u) - k) / u
    small = np.abs(u) < _SINC_SLOPE_SERIES_U
    u_small = u[small]
    u2 = u_small * u_small
    slope[small] = u_small * (-1.0 / 3.0 + u2 * (1.0 / 30.0 - u2 / 840.0))
    return k, slope


def _envelope_times_kernel(a, q_s, idler, waist_m: float, kernel: str):
    """exp(-w0^2 (q_s + q_i)^2 / 4) * kernel(a + b), computed in place in
    ``idler`` = (q_i, b), both spread to the output's shape; ``a`` and
    ``q_s`` broadcast against them.  Returns ``idler[0]``.

    The first factor is the Gaussian pump's angular spectrum at the
    transverse mismatch q_s + q_i, whatever the axis: peak 1 at
    q_s + q_i = 0, 1/e at |q_s + q_i| = 2/w0.
    """
    out, u = idler
    out += q_s
    np.square(out, out=out)
    out *= -(waist_m * waist_m)
    out /= 4.0
    np.exp(out, out=out)
    u += a  # the kernel argument a + b
    out *= _kernel(u, kernel)
    return out


def check_memory_budget(needed_bytes: int, budget_bytes: int, grid: str) -> None:
    """Raise GridMemoryError if ``needed_bytes``, the arrays a path holds at
    its peak on ``grid`` (which the message names), exceed the budget."""
    if needed_bytes > budget_bytes:
        raise GridMemoryError(f"{grid} needs ~{math.ceil(needed_bytes / 2**20)} MiB "
                              f"(budget {budget_bytes / 2**20:.0f} MiB)")


#: float64 exp(-x) is exactly 0.0 for x >= 745.14, so the pump envelope
#: exp(-w0^2 (q_s + q_i)^2 / 4) vanishes wherever its exponent passes this
_ENVELOPE_ZERO_EXPONENT = 746.0


@dataclass(frozen=True)
class RowBand:
    """A matrix that is +0.0 outside one column window per row.

    Row k holds ``data[k]`` in columns ``start[k]`` ... ``start[k] +
    width - 1`` of ``n_cols``; every other entry is +0.0.  All rows share
    the width, so ``data`` is one n_rows x width float64 array.
    """

    data: np.ndarray
    start: np.ndarray
    n_cols: int

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.start.nbytes


#: Signal rows per block of the pictures' streams, one ``evaluate_grid`` gather each: the
#: temporaries of one block, not of all N rows, are held.  Of 32, 64 and 128, 64 ran
#: ``camera_jpds`` at N = 1024 fastest (one core), as fast as one gather of all rows.
_ROW_BLOCK = 64


def _row_blocks(n_rows: int):
    """Slices of ``_ROW_BLOCK`` consecutive rows covering 0 ... n_rows - 1."""
    return (slice(lo, lo + _ROW_BLOCK) for lo in range(0, n_rows, _ROW_BLOCK))


def _evaluation_bytes(n_rows: int, n_cols: int, width: int) -> int:
    """Bytes charged for one ``evaluate_grid`` call on ``n_rows`` signal rows, a span
    of at most ``n_cols`` idler columns and windows ``width`` wide: 4 block arrays (the
    gathered (q_i, b) tables, the first of which becomes the values it returns, beside
    either their column indices or the kernel's temporaries, two for the Gaussian
    kernel), the windows' row offsets, and the 1-D arm arguments and tables (2 per
    row, 4 per column)."""
    return 8 * (n_rows * (4 * width + 3) + 4 * n_cols)


def _windows(first: np.ndarray, stop: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The widest of the windows [first[k], stop[k]) in 0 ... n - 1 as one
    width, and per-row starts of windows that wide which cover each one
    and stay inside 0 ... n - 1."""
    width = int(np.max(stop - first, initial=0))
    return np.clip(first, 0, n - width), width


def evaluate_grid(q_s: np.ndarray, q_i: np.ndarray, config: RunConfig, arms: SliceArms,
                  windows: tuple[np.ndarray, int]) -> np.ndarray:
    """One row block of a slice's amplitude on its windows: entry (k, l) is
    exp(-w0^2 (q_s[k] + q_i[c])^2 / 4) * kernel(a(q_s[k]) + b(q_i[c])) at
    column c = start[k] + l, for ``windows`` = (start, width) inside
    ``q_i`` and a, b from the slice's ``arms``.  No propagation phase is
    attached: with the kernel real the amplitude is real, and only its
    square enters any result.

    The arms are taken on ``q_s`` and ``q_i``, the idler-side 1-D tables
    q_i and b are gathered along the windows, and the envelope x kernel is
    formed in place in the gathered q_i (``_envelope_times_kernel``), so
    each value is the same whatever rows and columns the block spans.
    """
    a, b = arms(q_s, q_i)[:2]
    start, width = windows
    idler = np.stack((q_i, b)).take(start[:, None] + np.arange(width), axis=1)
    return _envelope_times_kernel(a[:, None], q_s[:, None], idler, config.waist_m, config.kernel)


def envelope_columns(
    q_s: np.ndarray, q_i: np.ndarray, waist_m: float, power: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Per signal row k, the idler columns [first[k], stop[k]) inside the
    band |q_s[k] + q_i| <= 2 sqrt(746 / power) / w0 of the increasing
    grid ``q_i``.

    Outside it the pump envelope's exponent w0^2 (q_s + q_i)^2 / 4 passes
    746 / power, so in float64 the envelope is exactly 0 (power 1) and
    an amplitude's square underflows to exactly +0.0 (power 2: the kernel
    is at most 1 in magnitude, and exp(-746) is under half the smallest
    subnormal).
    """
    half_band = 2.0 * math.sqrt(_ENVELOPE_ZERO_EXPONENT / power) / waist_m
    return (
        np.searchsorted(q_i, -half_band - q_s, side="left"),
        np.searchsorted(q_i, half_band - q_s, side="right"),
    )
