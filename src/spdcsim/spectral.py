"""Spectral filtering, the moment engine, and the far-/near-field JID builders.

A filtered, frequency-insensitive detector cannot tell spectral slices
apart, so every quantity is built **coherently within** each
monochromatic slice and **incoherently across** slices: every sampled
wavelength pair contributes its own amplitude, squared on its own, then
added with its weight in the filter's Gauss rule, in sampling order.

Every slice loop takes one ``Problem`` -- the crystal, the nominal
wavelengths, the pump waist, the filter, the slice count, the grid
settings, the kernel and the memory budget -- and the transverse axis,
and passes it on down to the amplitude kernel; ``RunConfig.build()``
assembles it, so each knob reaches the amplitude the same way in every
command.  A spectral slice is its (lambda_s, lambda_i) pair, and every
loop -- here and in ``camera`` -- runs over ``Problem.slices``, the
filter's Gauss rule ``sample_spectrum`` derives once per run.

Moment engine (``moment_sums``, weighted by ``certify_axis``; every
printed statistic: ``certify``, ``sweep``, ``stats``, ``jid`` and the
``camera`` slopes).
Per slice it works in the sum and difference coordinates
q_+ = q_s + q_i and q_- = q_s - q_i.  The pump intensity
exp(-w0^2 q_+^2 / 2) is exactly the Gauss-Hermite weight, so q_+ is
sampled at ``_SUM_NODES`` Hermite nodes q_+ = sqrt(2) t / w0; q_- takes
``grid_n`` uniform points over [-D, D], D = ``diff_halfwidth``.  For a
real amplitude Psi = E(q_+) K(a(q_s) + b(q_i)) position is i d/dq, so
the near-field moments are gradient moments,

    <x_s^2> = int (d_s Psi)^2 / int Psi^2,
    <x_s x_i> = int d_s Psi d_i Psi / int Psi^2,   <x_s> = <x_i> = 0,

with d_s Psi = E (-(w0^2 q_+ / 2) K + K'(u) a'(q_s)) in closed form.
No N x N grid and no transform is built, and nothing is cut off at a
grid edge in position space.

JID builders (``far_field_jid``, ``near_field_jid``; ``jid``) evaluate
each slice's pump-envelope band on the square (q_s, q_i) grid with
``evaluate_grid``, because they write a picture, a ``JointDistribution``
whose intensity is a ``RowBand``.  The far field is the one slice pass
the camera JPDs also take (``_squared_bands``): each slice evaluated on
the union of the slices' ``envelope_columns(power=2)`` windows, squared
in place, weighted and added into the band; its momenta are the square
grid's for every slice.  The near field transforms ``toarray()``, the
one dense amplitude of the package, and holds its total as a band of
full width.  DFT convention
(fixed): the near field uses the centered, unitary inverse transform

    psi = (dq_s * dq_i * N * M / (2*pi)) * fftshift(ifft2(ifftshift(Psi)))

on conjugate position grids x = 2*pi * (index - N//2) / (N * dq), so
per-slice Parseval holds exactly up to roundoff:

    sum |Psi|^2 dq_s dq_i = sum |psi|^2 dx_s dx_i.

Only |psi|^2 is ever used, so the implementation takes a real FFT of the
real amplitude and omits the input ``ifftshift`` (a unit-modulus phase).
The weighted slices are summed on the (N, N//2 + 1) half-spectrum in FFT
order, in two buffers allocated once per axis; the other half is filled
by Hermitian symmetry once, on the sum, before one ``fftshift`` of the
total.  A mirrored entry is a copy, so this equals the per-slice
full-matrix sum bit for bit.  The transform is ``np.fft.rfft2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from spdcsim.biphoton import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    RowBand,
    _arm_arguments,
    _kernel_with_slope,
    _windows,
    check_memory_budget,
    default_diff_halfwidth,
    envelope_columns,
    evaluate_grid,
)
from spdcsim.dispersion import CrystalSetup, SpdcWavelengths, idler_wavelength
from spdcsim.stats import ReidReport, StatsSummary, reid_inference, reid_product

__all__ = [
    "FilterSpec",
    "JointDistribution",
    "Problem",
    "transmission",
    "sample_spectrum",
    "moment_sums",
    "certify_axis",
    "far_field_jid",
    "near_field_jid",
    "position_grid",
    "DEFAULT_GRID_N",
    "DEFAULT_SPECTRAL_SLICES",
    "MAX_SPECTRAL_SLICES",
]

DEFAULT_GRID_N = 1024

DEFAULT_SPECTRAL_SLICES = 7

#: Most nodes a filter rule may take: NumPy's Gauss-Hermite weights are NaN by 380
#: nodes, and at 256 the outermost sit at +-31 sigma with weight 3e-211.
MAX_SPECTRAL_SLICES = 256

_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class FilterSpec:
    """Bandpass filter on one arm: shape, center, FWHM."""

    shape: str
    center_nm: float
    fwhm_nm: float
    arm: str = "signal"

    def __post_init__(self) -> None:
        if self.shape not in ("gaussian", "tophat"):
            raise ValueError(f"filter shape must be 'gaussian' or 'tophat', got {self.shape!r}")
        if self.arm not in ("signal", "idler"):
            raise ValueError(f"filter arm must be 'signal' or 'idler', got {self.arm!r}")
        if not self.fwhm_nm > 0:  # NaN too
            raise ValueError(f"filter FWHM must be positive, got {self.fwhm_nm}")
        if not self.center_nm > 0:
            raise ValueError(f"filter center must be positive, got {self.center_nm}")


def transmission(f: FilterSpec, wavelength_nm):
    """Filter transmission in [0, 1] at ``wavelength_nm`` (scalar or array).

    Gaussian: exp[-(lam - lam0)^2 / (2 sigma^2)] with
    sigma = FWHM / (2 sqrt(2 ln 2)).  This is the angular-frequency
    Gaussian of the corresponding sigma_omega under the first-order
    lam <-> omega map at the filter center — evaluated consistently to
    first order, which keeps the half-maximum points at exactly
    lam0 +- FWHM/2.  Top-hat: 1 inside |lam - lam0| <= FWHM/2, else 0.
    """
    lam = np.asarray(wavelength_nm, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("wavelength must be positive")
    d = lam - f.center_nm
    if f.shape == "gaussian":
        sigma = f.fwhm_nm * _FWHM_TO_SIGMA
        out = np.exp(-(d * d) / (2.0 * sigma * sigma))
    else:
        out = np.where(np.abs(d) <= f.fwhm_nm / 2.0, 1.0, 0.0)
    return out if out.ndim else float(out)


def sample_spectrum(
    f: FilterSpec, pump_nm: float, n_slices: int = DEFAULT_SPECTRAL_SLICES
) -> tuple[tuple[float, float, float], ...]:
    """The filter's ``n_slices``-node Gauss rule as energy-conserving
    (lambda_s, lambda_i, weight) triples, in scan order.

    The nodes sit on the filtered arm; the partner follows from energy
    conservation.  A Gaussian filter takes Gauss-Hermite nodes
    lam0 + sqrt(2) sigma t_k with weights h_k / sqrt(pi), a top-hat
    Gauss-Legendre nodes lam0 + (FWHM/2) x_k on its support with weights
    w_k / 2 (Golub & Welsch, Math. Comp. 23, 221 (1969)).  Either rule
    integrates the normalised ``transmission`` times any polynomial of
    degree 2 n - 1 exactly; the weights are positive and sum to 1, and
    nothing is cut off.  For odd n the middle node is lam0 exactly.
    Raises ValueError for ``n_slices`` outside [1, 256] or a node not longer than the pump.
    """
    # numpy does not import these by itself
    from numpy.polynomial.hermite import hermgauss
    from numpy.polynomial.legendre import leggauss

    if not 1 <= n_slices <= MAX_SPECTRAL_SLICES:
        raise ValueError(f"n_slices must be in [1, {MAX_SPECTRAL_SLICES}], got {n_slices}")
    if f.shape == "gaussian":
        t, h = hermgauss(n_slices)
        offsets, weights = math.sqrt(2.0) * f.fwhm_nm * _FWHM_TO_SIGMA * t, h / math.sqrt(math.pi)
    else:
        x, w = leggauss(n_slices)
        offsets, weights = 0.5 * f.fwhm_nm * x, 0.5 * w
    triples = []
    for lam, w in zip(f.center_nm + offsets, weights):
        partner = idler_wavelength(pump_nm, float(lam))
        if f.arm == "signal":
            triples.append((float(lam), partner, float(w)))
        else:
            triples.append((partner, float(lam), float(w)))
    return tuple(triples)


@dataclass(frozen=True)
class JointDistribution:
    """2D non-negative intensity over signal x idler coordinates.

    ``plane`` is 'far' (momentum, axes in rad/m), 'near' (position, axes
    in meters) or 'camera' (camera position, axes in meters; see
    ``camera.CameraJPD``); ``axis`` tags the transverse axis.
    ``intensity`` is a ``RowBand``: signal rows, idler columns, and
    ``toarray()`` the dense matrix (the near field's band is of full
    width).  Intensities are not normalised.  It is the picture ``jid``
    and ``camera`` write; the statistics they print come from the moment
    engine (``moment_sums``).
    """

    plane: str
    axis: str
    axis_signal: np.ndarray
    axis_idler: np.ndarray
    intensity: RowBand

    def __post_init__(self) -> None:
        if self.plane not in ("far", "near", "camera"):
            raise ValueError(f"plane must be 'far', 'near' or 'camera', got {self.plane!r}")
        if self.axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {self.axis!r}")
        band = self.intensity
        if (band.data.shape[0], band.n_cols) != (self.axis_signal.size, self.axis_idler.size):
            raise ValueError("intensity shape does not match axis grids")
        if not np.all(np.isfinite(band.data)):
            raise ValueError("intensity contains non-finite entries")
        if np.any(band.data < 0):
            raise ValueError("intensity contains negative entries")
        for name, grid in (("axis_signal", self.axis_signal), ("axis_idler", self.axis_idler)):
            steps = np.diff(grid)
            if not (steps.size and steps[0] > 0
                    and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
                raise ValueError(f"{name} must be a uniform increasing grid")

    @property
    def d_signal(self) -> float:
        return float(self.axis_signal[1] - self.axis_signal[0])

    @property
    def d_idler(self) -> float:
        return float(self.axis_idler[1] - self.axis_idler[0])


@dataclass(frozen=True)
class Problem:
    """One run's slice-loop inputs: the nominal wavelengths, the crystal,
    the pump waist (m), the filter, the slice count, the grid settings,
    the kernel and the memory budget.

    ``RunConfig.build()`` assembles it; ``moment_sums``, the JID
    builders here and ``camera``'s slice builder take it with the
    transverse axis, and hand it down to ``biphoton.evaluate_grid``.
    ``sum_halfwidth`` S and ``diff_halfwidth`` D bound the sum and
    difference coordinates; ``None`` selects their defaults.  The moment
    engine samples D only; the square grids cover both.
    """

    wl: SpdcWavelengths
    crystal: CrystalSetup
    waist_m: float
    filt: FilterSpec
    n_slices: int = DEFAULT_SPECTRAL_SLICES
    grid_n: int = DEFAULT_GRID_N
    sum_halfwidth: float | None = None
    diff_halfwidth: float | None = None
    kernel: str = "sinc"
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES

    def __post_init__(self) -> None:
        if not self.waist_m > 0:  # NaN too
            raise ValueError(f"pump waist must be positive, got {self.waist_m}")

    @cached_property
    def slices(self) -> tuple[tuple[float, float, float], ...]:
        """``sample_spectrum``'s (lambda_s, lambda_i, weight) triples, in sampling order."""
        return sample_spectrum(self.filt, self.wl.pump_nm, self.n_slices)

    def _diff_extent(self) -> float:
        """D: ``diff_halfwidth``, or 5 phase-matching main-lobe widths."""
        if self.diff_halfwidth is not None:
            return self.diff_halfwidth
        return default_diff_halfwidth(self.wl, self.crystal)

    def square_grid(self) -> np.ndarray:
        """The one momentum grid both arms share on either axis: ``grid_n``
        uniform points over [-(S + D)/2, (S + D)/2].

        The pump envelope confines the *sum* coordinate q_s + q_i to a
        width ~2/w0, while the phase-matching kernel confines the
        *difference* coordinate to the much larger main-lobe width
        ~sqrt(4 pi k / L); the two differ by two orders of magnitude at
        typical parameters, so the square grid is sized from both.
        Default half-extents are 5x each scale (truncated mass < 1e-5):
        S = 10 / w0 and D from ``default_diff_halfwidth``.
        """
        s = self.sum_halfwidth
        if s is None:
            s = 5.0 * (2.0 / self.waist_m)
        half = 0.5 * (s + self._diff_extent())
        return np.linspace(-half, half, self.grid_n)

    def diff_grid(self) -> np.ndarray:
        """The moment engine's q_s - q_i grid: ``grid_n`` uniform points
        over [-D, D]."""
        d = self._diff_extent()
        return np.linspace(-d, d, self.grid_n)


#: Gauss-Hermite nodes in q_+ per slice.  Every factor of the moment
#: integrands but the Hermite weight is smooth in q_+, so 8 suffice: 16
#: move U by about 2e-12 at the defaults.  ``check_memory_budget``
#: charges them as grid rows.
_SUM_NODES = 8


def moment_sums(problem: Problem, axis: str) -> np.ndarray:
    """Far- and near-field raw moment sums of ``axis`` per spectral slice,
    from one pass over the slices on the (q_+, q_-) node grid (module
    docstring).

    Row k holds slice k of ``problem.slices``, unweighted: the sum of
    Psi^2; the sums of {q_s, q_i, q_s^2, q_i^2, q_s q_i} Psi^2 (far
    field); and the sums of (d_s Psi)^2, (d_i Psi)^2 and d_s Psi d_i Psi
    (near field).  Quadrature factors shared by every term are left out,
    so only ratios to the first column carry meaning.  Each slice forms
    its products one at a time in one scratch buffer, so it holds about
    ten node-grid arrays at most.

    Raises GridMemoryError if the node grid exceeds the memory budget and
    EvanescentInputError if any node momentum reaches the propagation
    cone.
    """
    from numpy.polynomial.hermite import hermgauss  # numpy does not import it by itself

    check_memory_budget(_SUM_NODES, problem.grid_n, problem.memory_budget_bytes)
    q_d = problem.diff_grid()
    t, h = hermgauss(_SUM_NODES)
    w0 = problem.waist_m
    q_plus = (math.sqrt(2.0) / w0 * t)[:, None]
    q_s = 0.5 * (q_plus + q_d)
    q_i = 0.5 * (q_plus - q_d)
    envelope_slope = -0.5 * w0 * w0 * q_plus  # E'(q_+) / E(q_+)
    node_weights = h[:, None]

    def slice_sums(pair: tuple[float, float]) -> list[float]:
        # node-grid arrays are dropped once used; all of them go on return
        u, b, da, db = _arm_arguments(q_s, q_i, axis, pair, problem.crystal, problem.wl)
        u += b  # a + b
        del b
        k, dk = _kernel_with_slope(u, problem.kernel)
        del u
        slope_k = envelope_slope * k
        g_s = np.multiply(dk, da, out=da)
        g_s += slope_k
        g_i = np.multiply(dk, db, out=db)
        g_i += slope_k
        del dk, slope_k
        k2 = node_weights * k
        k2 *= k
        scratch = k  # k is not read again
        sums = [k2.sum()]
        # each product formed in the scratch buffer, in the factor order
        # (k2 * q_s) * q_s, (node_weights * g_s) * g_s, ...
        for first, *rest in ((k2, q_s), (k2, q_i), (k2, q_s, q_s), (k2, q_i, q_i),
                             (k2, q_s, q_i), (node_weights, g_s, g_s),
                             (node_weights, g_i, g_i), (node_weights, g_s, g_i)):
            np.multiply(first, rest[0], out=scratch)
            for factor in rest[1:]:
                scratch *= factor
            sums.append(scratch.sum())
        return sums

    return np.array([slice_sums((lam_s, lam_i)) for lam_s, lam_i, _ in problem.slices])


def _slice_total(problem: Problem, rows) -> np.ndarray:
    """sum_k w_k rows[k] over ``problem.slices``, added in sampling order."""
    total = np.zeros(len(rows[0]))
    for (_, _, weight), row in zip(problem.slices, rows):
        total += weight * np.asarray(row)
    return total


def certify_axis(problem: Problem, axis: str) -> tuple[StatsSummary, StatsSummary, ReidReport]:
    """Near- and far-field inference of one axis and their Reid report.

    Both planes come from one ``moment_sums`` pass, its slices added with
    their quadrature weights (``_slice_total``): the far field from the
    momentum moments of Psi^2, the near field from the gradient moments,
    whose means are exactly 0.
    """
    total = _slice_total(problem, moment_sums(problem, axis))
    norm, q_s, q_i, q_ss, q_ii, q_si, g_ss, g_ii, g_si = total.tolist()
    summary = StatsSummary.from_sums
    near = reid_inference(summary("near", axis, norm, 0.0, 0.0, g_ss, g_ii, g_si))
    far = reid_inference(summary("far", axis, norm, q_s, q_i, q_ss, q_ii, q_si))
    return near, far, reid_product(near, far)


def _squared_bands(
    problem: Problem, axis: str, momenta: Callable[[int], tuple[np.ndarray, ...]], holding: str,
) -> list[RowBand]:
    """sum_slices w |Psi|^2 on each of one or more N x N pictures, from one
    pass over ``problem.slices`` that holds one slice band at a time.

    ``momenta(k)`` gives slice k's signal momenta and one idler grid per
    picture, and is called again where they are needed, so no slice's
    grids are held.  Each picture is a ``RowBand`` on the union of every
    slice's ``envelope_columns(power=2)`` windows, outside which every
    slice's square is +0.0.  The budget is checked once, before any
    evaluation, for one evaluation, the pictures (``holding`` names them)
    and one slice band (``GridMemoryError``).  Then each slice, in
    sampling order, is evaluated on each picture's windows, squared in
    place, weighted and added.
    """
    n = problem.grid_n
    bounds = None  # per picture: the union's first and stop column of each row
    for k in range(len(problem.slices)):
        q_s, *idlers = momenta(k)
        columns = np.array([envelope_columns(q_s, q_i, problem.waist_m, power=2) for q_i in idlers])
        if bounds is None:
            bounds = columns
        np.minimum(bounds[:, 0], columns[:, 0], out=bounds[:, 0])
        np.maximum(bounds[:, 1], columns[:, 1], out=bounds[:, 1])
    windows = [_windows(first, stop, n) for first, stop in bounds]
    widths = [width for _, width in windows]
    check_memory_budget(
        n, n, problem.memory_budget_bytes,
        # values and row offsets of each band
        held_bytes=sum(n * (8 * w + np.dtype(np.intp).itemsize) for w in (*widths, max(widths))),
        holding=f"{holding} and 1 slice band",
    )
    totals = [RowBand(np.zeros((n, width)), start, n) for start, width in windows]
    for k, (lam_s, lam_i, weight) in enumerate(problem.slices):
        q_s, *idlers = momenta(k)
        for total, q_i in zip(totals, idlers):
            pair = (lam_s, lam_i)
            term = evaluate_grid(q_s, q_i, problem, axis, pair, (total.start, total.width)).data
            np.multiply(term, term, out=term)  # the slice intensity on the picture's windows
            term *= weight
            np.add(total.data, term, out=total.data)
            del term  # before the next evaluation
    return totals


def far_field_jid(problem: Problem, axis: str) -> JointDistribution:
    """Spectrally integrated momentum-plane JID: sum_slices w |Psi|^2 on
    the square grid, as one ``RowBand``."""
    q = problem.square_grid()
    (band,) = _squared_bands(problem, axis, lambda k: (q, q), "1 far-field band")
    return JointDistribution(plane="far", axis=axis, axis_signal=q, axis_idler=q, intensity=band)


def position_grid(q_grid: np.ndarray) -> np.ndarray:
    """Conjugate (centered) position grid of a uniform momentum grid."""
    n = q_grid.size
    dq = float(q_grid[1] - q_grid[0])
    return 2.0 * math.pi * (np.arange(n) - n // 2) / (n * dq)


def _near_field_intensity(
    terms: Iterable[tuple[np.ndarray, float, float, float]], shape: tuple[int, int]
) -> np.ndarray:
    """sum of weight * |psi|^2 over ``(amp, dq_s, dq_i, weight)`` terms,
    where psi is the centered unitary transform of the real amplitude
    ``amp`` of ``shape``; in unshifted FFT order (``fftshift`` gives the
    centered grid).

    The input ``ifftshift`` only multiplies psi by a unit-modulus phase,
    so it is skipped.  ``amp`` is real, so a half-spectrum ``rfft2``
    suffices: the terms are summed on it, and |F[k, l]| = |F[-k, -l]|
    fills the missing columns of the sum.
    """
    n, m = shape
    h = m // 2 + 1
    total = np.zeros((n, h))
    term = np.empty((n, h))
    for amp, dq_s, dq_i, weight in terms:
        half = np.fft.rfft2(amp)
        np.multiply(half.real, half.real, out=term)
        np.multiply(half.imag, half.imag, out=half.imag)
        term += half.imag
        term *= (dq_s * dq_i / (2.0 * math.pi)) ** 2
        term *= weight
        total += term
    out = np.empty((n, m))
    out[:, :h] = total
    # columns h .. m-1 of row k are columns m-h .. 1 of row -k mod n
    mirror = total[:, m - h:0:-1]
    out[0, h:] = mirror[0]
    out[1:, h:] = mirror[:0:-1]
    return out


def near_field_jid(problem: Problem, axis: str) -> JointDistribution:
    """Position-plane JID: per-slice centered unitary 2D transform of the
    amplitude (coherent within the slice), |.|^2, then the weighted
    incoherent sum across slices."""
    q = problem.square_grid()
    dq = float(q[1] - q[0])
    terms = ((evaluate_grid(q, q, problem, axis, (s, i)).toarray(), dq, dq, w)
             for s, i, w in problem.slices)
    out = _near_field_intensity(terms, (q.size, q.size))
    x = position_grid(q)
    band = RowBand(np.fft.fftshift(out), np.zeros(q.size, dtype=np.intp), q.size)
    return JointDistribution(plane="near", axis=axis, axis_signal=x, axis_idler=x, intensity=band)
