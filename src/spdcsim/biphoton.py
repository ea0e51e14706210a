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
share per arm (``_arm_dk_z``); ``_arm_arguments`` adds dk_0 to the
signal's.  At the phase-matching cut the aligned point sits at exactly
zero mismatch, and off-nominal spectral slices keep their genuine
longitudinal detuning.

Every function here that evaluates the amplitude reads the run's one
``spectral.Problem`` (crystal, nominal wavelengths, pump waist, kernel,
memory budget) plus the transverse axis and the slice's (signal, idler)
wavelength pair; the momentum grids are plain 1-D arrays.

The pump envelope confines the sum coordinate q_s + q_i to ~2/w0, two
orders of magnitude inside the phase-matching width of the difference
coordinate, so on the square (q_s, q_i) grid the amplitude lives in a
thin anti-diagonal band.  ``evaluate_grid`` evaluates only that band and
returns it as a ``RowBand``: outside it the float64 envelope is exactly
0, so the matrix the band holds equals the dense evaluation of
``amplitude`` (up to the sign of zeros).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from spdcsim.dispersion import CrystalSetup, SpdcWavelengths, wavevector_magnitude

if TYPE_CHECKING:
    from spdcsim.spectral import Problem

__all__ = [
    "EvanescentInputError",
    "GridMemoryError",
    "RowBand",
    "amplitude",
    "evaluate_grid",
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


def _arm_dk_z(crystal: CrystalSetup, lam_nm: float, lam0_nm: float, q_x, q_y):
    """One arm's share of dk_z, [k0 - k_z] + q_y tan(rho), and k_z, with
    k_z = sqrt(k^2 - q_x^2 - q_y^2) at ``lam_nm`` and k0 at ``lam0_nm``.

    dk_z is the sum of the two arms' shares, so it separates additively
    into a signal term and an idler term.  The share's gradient in
    (q_x, q_y) is (q_x / k_z, q_y / k_z + tan(rho)).
    """
    k = _ordinary_k(crystal, lam_nm)
    q_y = np.asarray(q_y)
    q_sq = np.asarray(q_x) ** 2 + q_y**2
    if np.any(q_sq >= k * k):
        raise EvanescentInputError(
            "transverse momentum at or beyond the propagation cone |q| >= k"
        )
    k_z = np.sqrt(k * k - q_sq)
    return (_ordinary_k(crystal, lam0_nm) - k_z) + q_y * math.tan(crystal.rho), k_z


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


def _arm_arguments(q_signal, q_idler, axis: str, pair: tuple[float, float],
                   crystal: CrystalSetup, wl: SpdcWavelengths):
    """Per-arm kernel arguments a(q_signal), b(q_idler) with a + b = dk_z L / 2
    at the (signal, idler) wavelengths ``pair``, and their derivatives along
    ``axis``, a' = (L/2)(q_signal / k_z + tan(rho) on y) and likewise b'.
    The constant (L/2) dk_0 of the cut is added to a.

    Raises ValueError unless ``axis`` is "x" or "y", and
    EvanescentInputError if any momentum of either grid reaches the
    propagation cone.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    half_length = crystal.length_m / 2.0
    tilt = math.tan(crystal.rho) if axis == "y" else 0.0

    def arm(q, lam_nm, lam0_nm):  # the orthogonal momentum component is zero
        share, k_z = _arm_dk_z(crystal, lam_nm, lam0_nm, *((q, 0.0) if axis == "x" else (0.0, q)))
        return half_length * share, half_length * (q / k_z + tilt)

    (a, da), (b, db) = arm(q_signal, pair[0], wl.signal_nm), arm(q_idler, pair[1], wl.idler_nm)
    return a + half_length * crystal.collinear_mismatch, b, da, db


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


def amplitude(q_s, q_i, problem: Problem, axis: str, pair: tuple[float, float]):
    """Real biphoton amplitude at ``axis`` momenta (q_s, q_i).

    Psi = exp(-w0^2 (q_s + q_i)^2 / 4) * kernel(dk_z L / 2), evaluated at
    the (signal, idler) wavelengths ``pair`` against the nominal operating
    point ``problem.wl``.  The intensity |Psi|^2 is the per-slice far-field
    JID.  No propagation phase is attached: with the kernel real the
    amplitude is real, and only |Psi|^2 enters every downstream quantity.

    dk_z L / 2 = a(q_s) + b(q_i) is taken per arm, so on a column x row
    broadcast the mismatch costs O(N) square roots; the envelope and the
    kernel are evaluated per point.
    """
    q_s = np.asarray(q_s, dtype=float)
    q_i = np.asarray(q_i, dtype=float)
    a, b, _, _ = _arm_arguments(q_s, q_i, axis, pair, problem.crystal, problem.wl)
    *idler, _ = np.broadcast_arrays(q_i, b, q_s)
    idler = [table.copy() for table in idler]
    return _envelope_times_kernel(a, q_s, idler, problem.waist_m, problem.kernel)


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


#: Signal rows per gather in ``evaluate_grid`` and per block of the pictures' streams: the
#: temporaries of one block, not of all N rows, are held.  Of 32, 64 and 128, 64 ran
#: ``camera_jpds`` at N = 1024 fastest (one core), as fast as one gather of all rows.
_ROW_BLOCK = 64


def _row_blocks(n_rows: int):
    """Slices of ``_ROW_BLOCK`` consecutive rows covering 0 ... n_rows - 1."""
    return (slice(lo, lo + _ROW_BLOCK) for lo in range(0, n_rows, _ROW_BLOCK))


def _evaluation_bytes(n_rows: int, n_cols: int, width: int) -> int:
    """Bytes ``evaluate_grid`` holds at its peak: the band's values and row offsets,
    one row block's (q_i, b) gathers, column indices and kernel (4 block
    arrays), and the 1-D arm arguments and tables (2 per row, 4 per column)."""
    block = min(_ROW_BLOCK, n_rows) * width
    return 8 * (n_rows * (width + 1) + 4 * block + 2 * n_rows + 4 * n_cols)


def _windows(first: np.ndarray, stop: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The widest of the windows [first[k], stop[k]) in 0 ... n - 1 as one
    width, and per-row starts of windows that wide which cover each one
    and stay inside 0 ... n - 1."""
    width = int(np.max(stop - first, initial=0))
    return np.clip(first, 0, n - width), width


def evaluate_grid(
    q_s: np.ndarray, q_i: np.ndarray, problem: Problem, axis: str, pair: tuple[float, float],
    windows: tuple[np.ndarray, int] | None = None,
) -> RowBand:
    """Amplitude over two 1-D strictly increasing grids, signal-major, as
    the ``RowBand`` of its pump-envelope band, or of ``windows``.

    Its entry (k, l) is amplitude(q_s[k], q_i[l], problem, axis, pair).  In
    float64 the pump envelope is exactly 0 outside the anti-diagonal band
    |q_s + q_i| <= 2 sqrt(746) / w0, so each signal row keeps only the
    idler columns ``envelope_columns`` gives, widened to one shared width.
    They are evaluated with ``amplitude``'s envelope x kernel formula, on
    the idler-side 1-D tables q_i and b gathered along the windows of
    ``_ROW_BLOCK`` signal rows at a time, computed in place and stored into
    the band's ``data``, which is allocated once: beside the band only one
    block's gathers are held.
    Values equal a dense evaluation bit for bit; a skipped zero is +0.0
    where the dense product may give -0.0.  The kernel arguments, and with
    them the evanescent-input check, cover both full grids.  Once the windows
    are known, the band and one block (``_evaluation_bytes``) are charged.

    ``windows`` = (start, width), if given, are the columns to evaluate
    instead: start[k] ... start[k] + width - 1 of row k.  Where they cover
    the band's they give the same values, and exact zeros elsewhere.

    Raises ValueError unless both grids are 1-D and strictly increasing,
    which the column search of the band needs, and unless ``windows``
    has one start per row and lies inside the idler grid.
    """
    for name, q in (("signal", q_s), ("idler", q_i)):
        if q.ndim != 1 or not np.all(np.diff(q) > 0):
            raise ValueError(f"the {name} grid must be 1-D and strictly increasing")
    if windows is None:
        windows = _windows(*envelope_columns(q_s, q_i, problem.waist_m), q_i.size)
    start, width = windows
    if start.shape != q_s.shape or np.any(start < 0) or np.any(start + width > q_i.size):
        raise ValueError("windows must give one start per signal row, inside the idler grid")
    check_memory_budget(_evaluation_bytes(q_s.size, q_i.size, width), problem.memory_budget_bytes,
                        f"{q_s.size} x {q_i.size} grid holding 1 slice band")
    a, b = _arm_arguments(q_s, q_i, axis, pair, problem.crystal, problem.wl)[:2]
    tables = np.stack((q_i, b))
    offsets = np.arange(width)
    data = np.empty((q_s.size, width))
    for rows in _row_blocks(q_s.size):
        # unnamed, the block's gathered tables are freed before the next gather
        data[rows] = _envelope_times_kernel(
            a[rows, None], q_s[rows, None], tables.take(start[rows, None] + offsets, axis=1),
            problem.waist_m, problem.kernel,
        )
    return RowBand(data, start, q_i.size)


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
