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

JID builders (``far_field_jid``, ``near_field_jid``; ``jid``) give a
picture, a ``JointDistribution`` that yields ``RowBand`` row blocks.  The
far field is the stream the camera JPDs also take (``_squared_blocks``):
per block of rows, each slice evaluated by ``evaluate_grid`` on the union
of the slices' ``envelope_columns(power=2)`` windows, squared in place,
weighted and added; no picture is held.  The near field takes the moment
engine's (q_+ node x q_- grid) frame (``_node_grid``): no N x N array, no
2-D FFT; it holds its band.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.polynomial.hermite import hermgauss, hermvander
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval

from spdcsim.biphoton import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    RowBand,
    _ROW_BLOCK,
    _arm_arguments,
    _evaluation_bytes,
    _kernel,
    _kernel_with_slope,
    _row_blocks,
    _windows,
    check_memory_budget,
    default_diff_halfwidth,
    envelope_columns,
    evaluate_grid,
)
from spdcsim.dispersion import CrystalSetup, SpdcWavelengths, idler_wavelength
from spdcsim.stats import ReidReport, StatsSummary, reid_product

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
    if not np.all(lam > 0):  # NaN too
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
    ``intensity()`` yields the picture anew as ``RowBand`` row blocks in
    signal-row order (the far field's windows follow the anti-diagonal,
    the near field's the diagonal), checked by ``row_blocks()``; it is
    not normalised.  It is the picture ``jid`` and ``camera`` write; the
    statistics they print come from the moment engine (``moment_sums``).
    """

    plane: str
    axis: str
    axis_signal: np.ndarray
    axis_idler: np.ndarray
    intensity: Callable[[], Iterable[RowBand]]

    def __post_init__(self) -> None:
        if self.plane not in ("far", "near", "camera"):
            raise ValueError(f"plane must be 'far', 'near' or 'camera', got {self.plane!r}")
        if self.axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {self.axis!r}")
        for name, grid in (("axis_signal", self.axis_signal), ("axis_idler", self.axis_idler)):
            steps = np.diff(grid)
            if not (steps.size and steps[0] > 0
                    and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
                raise ValueError(f"{name} must be a uniform increasing grid")

    def row_blocks(self) -> Iterator[RowBand]:
        """``intensity()``'s blocks, each checked as it comes (ValueError): on
        the axis grids, finite and non-negative; together, every signal row."""
        rows = 0
        for block in self.intensity():
            rows += block.data.shape[0]
            if block.n_cols != self.axis_idler.size or rows > self.axis_signal.size:
                raise ValueError("intensity shape does not match axis grids")
            if not np.all(np.isfinite(block.data)):
                raise ValueError("intensity contains non-finite entries")
            if np.any(block.data < 0):
                raise ValueError("intensity contains negative entries")
            yield block
        if rows != self.axis_signal.size:
            raise ValueError("intensity shape does not match axis grids")

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
        uniform points over [-(S + D)/2, (S + D)/2], sized from the pump's
        sum width ~2/w0 and the kernel's two orders of magnitude wider
        difference width ~sqrt(4 pi k / L).  Default half-extents are 5x
        each scale (truncated mass < 1e-5): S = 10 / w0 and D from
        ``default_diff_halfwidth``.
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
#: move U by about 2e-12 at the defaults.
_SUM_NODES = 8


def _node_grid(q_plus: np.ndarray, q_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q_s = (q_+ + q_-)/2 and q_i = (q_+ - q_-)/2, where a slice's
    ``_arm_arguments`` are taken: a row per node ``q_plus``, a column per ``q_minus``."""
    return 0.5 * (q_plus[:, None] + q_minus), 0.5 * (q_plus[:, None] - q_minus)


def moment_sums(problem: Problem, axis: str) -> np.ndarray:
    """Far- and near-field raw moment sums of ``axis`` per spectral slice,
    from one pass over the slices on the (q_+, q_-) node grid (module
    docstring).

    Row k holds slice k of ``problem.slices``, unweighted: the sum of
    Psi^2; the sums of {q_s, q_i, q_s^2, q_i^2, q_s q_i} Psi^2 (far
    field); and the sums of (d_s Psi)^2, (d_i Psi)^2 and d_s Psi d_i Psi
    (near field).  Quadrature factors shared by every term are left out,
    so only ratios to the first column carry meaning.  Each slice forms
    its products one at a time in one scratch buffer: with q_s and q_i, 10
    node-grid arrays are charged (9.2 measured at a slice's peak), with the
    q_- grid and the rows.

    Raises GridMemoryError if those exceed the memory budget, before the
    grid is built, and EvanescentInputError if any node momentum reaches
    the propagation cone.
    """
    check_memory_budget(8 * ((10 * _SUM_NODES + 1) * problem.grid_n + 9 * len(problem.slices)),
                        problem.memory_budget_bytes, f"{_SUM_NODES} x {problem.grid_n} grid")
    q_d = problem.diff_grid()
    t, h = hermgauss(_SUM_NODES)
    w0 = problem.waist_m
    q_plus = math.sqrt(2.0) / w0 * t
    q_s, q_i = _node_grid(q_plus, q_d)
    envelope_slope = -0.5 * w0 * w0 * q_plus[:, None]  # E'(q_+) / E(q_+)
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

    rows = np.empty((len(problem.slices), 9))  # 72 bytes a slice, where 9 NumPy scalars hold 352
    for row, (lam_s, lam_i, _) in zip(rows, problem.slices):
        row[:] = slice_sums((lam_s, lam_i))
    return rows


def _slice_total(problem: Problem, rows) -> np.ndarray:
    """sum_k w_k rows[k] over ``problem.slices``, added in sampling order."""
    total = np.zeros(len(rows[0]))
    for (_, _, weight), row in zip(problem.slices, rows):
        total += weight * np.asarray(row)
    return total


def certify_axis(problem: Problem, axis: str) -> tuple[StatsSummary, StatsSummary, ReidReport]:
    """Near- and far-field summaries of one axis, whose properties give
    their inference, and their Reid report.

    Both planes come from one ``moment_sums`` pass, its slices added with
    their quadrature weights (``_slice_total``): the far field from the
    momentum moments of Psi^2, the near field from the gradient moments,
    whose means are exactly 0.
    """
    total = _slice_total(problem, moment_sums(problem, axis))
    norm, q_s, q_i, q_ss, q_ii, q_si, g_ss, g_ii, g_si = total.tolist()
    near = StatsSummary.from_sums("near", axis, norm, 0.0, 0.0, g_ss, g_ii, g_si)
    far = StatsSummary.from_sums("far", axis, norm, q_s, q_i, q_ss, q_ii, q_si)
    return near, far, reid_product(near, far)


def _squared_blocks(
    problem: Problem, axis: str, momenta: Callable[[int], tuple[np.ndarray, ...]], pictures: str,
) -> list[Callable[[], Iterator[RowBand]]]:
    """sum_slices w |Psi|^2 on each of one or more N x N pictures, each a
    stream of ``RowBand`` row blocks; no picture is held.

    ``momenta(k)`` gives slice k's signal momenta and one idler grid per
    picture, and is called again where they are needed.  A picture's
    windows are the union of every slice's ``envelope_columns(power=2)``
    windows, outside which every slice's square is +0.0.  First a
    UserWarning says when the grid step is wider than the pump width 2/w0,
    the budget is charged (``pictures`` names them), and each slice's
    grids, whose end momenta are their largest, are checked against the
    propagation cone.  Per block of ``_ROW_BLOCK`` rows, each slice in
    sampling order is evaluated on the block's windows, squared, weighted
    and added, as in the whole-picture sum.
    """
    q, pump_width = problem.square_grid(), 2.0 / problem.waist_m
    if q[1] - q[0] > pump_width:
        warnings.warn(f"square grid step {q[1] - q[0]:.3g} rad/m is wider than the pump width "
                      f"2/w0 = {pump_width:.3g} rad/m; raise grid.n to resolve the far-field "
                      f"and camera ridges", stacklevel=2)
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
    block, widths = min(_ROW_BLOCK, n), [width for _, width in windows]
    # each picture's row offsets, the square grid and a slice's momenta (5 arrays of
    # length n), two blocks of each (one added to, one handed out), one block's evaluation
    held = (8 * n * (len(widths) + 5) + 16 * block * sum(w + 1 for w in widths)
            + _evaluation_bytes(block, n, max(widths)))
    check_memory_budget(held, problem.memory_budget_bytes, f"{n} x {n} grid streaming {pictures}")
    for k, (lam_s, lam_i, _) in enumerate(problem.slices):
        q_s, *idlers = momenta(k)
        for q_i in idlers:
            _arm_arguments(q_s[[0, -1]], q_i[[0, -1]], axis, (lam_s, lam_i), problem.crystal,
                           problem.wl)

    def blocks(picture: int, start: np.ndarray, width: int) -> Iterator[RowBand]:
        for rows in _row_blocks(n):
            starts = start[rows]
            first, stop = starts.min(), starts.max() + width  # the block's column span
            total = np.zeros((starts.size, width))
            for k, (lam_s, lam_i, weight) in enumerate(problem.slices):
                q_s, *idlers = momenta(k)
                term = evaluate_grid(q_s[rows], idlers[picture][first:stop], problem, axis,
                                     (lam_s, lam_i), (starts - first, width)).data
                np.multiply(term, term, out=term)  # the slice intensity on the block's windows
                term *= weight
                np.add(total, term, out=total)
                del term  # before the next evaluation
            yield RowBand(total, starts, n)

    return [partial(blocks, p, start, width) for p, (start, width) in enumerate(windows)]


def far_field_jid(problem: Problem, axis: str) -> JointDistribution:
    """Spectrally integrated momentum-plane JID: sum_slices w |Psi|^2 on
    the square grid, streamed in row blocks (``_squared_blocks``)."""
    q = problem.square_grid()
    (picture,) = _squared_blocks(problem, axis, lambda k: (q, q), "1 far-field band")
    return JointDistribution(plane="far", axis=axis, axis_signal=q, axis_idler=q, intensity=picture)


def position_grid(q_grid: np.ndarray) -> np.ndarray:
    """Conjugate (centered) position grid of a uniform momentum grid."""
    n = q_grid.size
    dq = float(q_grid[1] - q_grid[0])
    return 2.0 * math.pi * (np.arange(n) - n // 2) / (n * dq)


#: Hermite nodes t = w0 q_+ / 2 and modes H_k(t) per near-field slice (12
#: modes or 32 nodes do not move the picture's mass in 10 digits), and the
#: largest share of its mass the band about x_s = x_i may leave out.
_NEAR_NODES, _NEAR_MODES, _NEAR_BAND_LOSS = 16, 8, 1e-6


def near_field_jid(problem: Problem, axis: str) -> JointDistribution:
    """Position-plane JID: sum_slices w |psi|^2, psi the centered unitary
    transform of the slice's amplitude, on ``position_grid`` of the square
    grid, held as one band about x_s = x_i and yielded in row blocks.

    Each slice's kernel gives Hermite modes c_k(q_-) from ``_NEAR_NODES``
    nodes q_+ = 2 t / w0 at q_- = (m - N/2) 2 dq, and each mode one N-point
    FFT, G_k, at X_- = (x_s - x_i) / 2 = l dx / 2.  As int exp(-t^2) H_k(t)
    exp(i a t) dt = sqrt(pi) (i a)^k exp(-a^2/4), with a = (x_s + x_i) / w0,
    psi = (sqrt(pi) / (2 pi w0)) exp(-a^2/4) sum_k (i a)^k G_k(l).  The mass
    at lag l is G(l)^H M G(l), M_jk = i^(k-j) int a^(j+k) exp(-a^2/2) da;
    the band keeps the fewest lags that leave out at most ``_NEAR_BAND_LOSS``
    of its weighted slice sum.  The budget is charged before the node grid
    is built and again, with the band, before the band is allocated.
    A UserWarning says when the picture holds less than
    1 - ``_NEAR_BAND_LOSS`` of that sum: its position window 2 pi / dq is
    too few pump waists wide, or the band is capped at (N - 1)//2 lags.
    """
    q = problem.square_grid()
    n, dq, w0 = q.size, float(q[1] - q[0]), problem.waist_m
    node = 8 * _NEAR_NODES * n

    def charge(width):  # bytes at the peak with a band ``width`` lags wide: the band and 7
        # arrays of length n, q_s, q_i, and the larger of a slice's kernel (7 node-grid arrays)
        # and its modes beside a block's a, cols, gathered modes and Horner sum (26 block arrays)
        block = 8 * min(_ROW_BLOCK, n) * width
        return 8 * n * (width + 8) + 2 * node + max(7 * node, node + 26 * block)

    check_memory_budget(charge(0), problem.memory_budget_bytes, f"{_NEAR_NODES} x {n} grid")
    t, h = hermgauss(_NEAR_NODES)
    q_s, q_i = _node_grid(2.0 / w0 * t, (np.arange(n) - n / 2) * (2.0 * dq))
    k = np.arange(_NEAR_MODES)
    # c_k = sum_j h_j H_k(t_j) K_j / (sqrt(pi) 2^k k!), times i^k 2 dq N sqrt(pi) / (2 pi w0)
    scale = [dq * n * 1j**j / (math.pi * w0 * 2.0**j * math.factorial(j)) for j in k]
    projection = (h[:, None] * hermvander(t, _NEAR_MODES - 1) * scale).T

    def modes(lam_s, lam_i):  # i^k G_k per lag in FFT order, less the (-1)^l all modes share
        a, b = _arm_arguments(q_s, q_i, axis, (lam_s, lam_i), problem.crystal, problem.wl)[:2]
        return np.fft.ifft(projection @ _kernel(a + b, problem.kernel), axis=1)

    # int a^m exp(-a^2/2) da / sqrt(2 pi) = (m - 1)!! for even m, 0 for odd
    moments = [math.prod(range(m - 1, 0, -2)) * (1 - m % 2) for m in range(2 * _NEAR_MODES)]
    gram = np.array(moments, dtype=float)[np.add.outer(k, k)]

    def lag_mass(g):  # G(l)^H M G(l) per lag
        return np.einsum("kl,kl->l", g.conj(), gram @ g).real

    profile = sum(weight * lag_mass(modes(lam_s, lam_i)) for lam_s, lam_i, weight in problem.slices)
    mass = np.bincount(np.minimum(np.arange(n), n - np.arange(n)), weights=profile)  # per |lag|
    beyond = np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)  # mass at |lag| > half, per half
    half = min(int(np.argmax(beyond <= _NEAR_BAND_LOSS * profile.sum())), (n - 1) // 2)
    width = 2 * half + 1
    check_memory_budget(charge(width), problem.memory_budget_bytes,
                        f"{n} x {n} grid holding 1 near-field band")
    x = position_grid(q)
    start = np.clip(np.arange(n) - half, 0, n - width)
    data = np.zeros((n, width))
    for lam_s, lam_i, weight in problem.slices:
        g = modes(lam_s, lam_i)
        for rows in _row_blocks(n):
            cols = start[rows, None] + np.arange(width)
            a = (x[rows, None] + x[cols]) / w0
            psi = polyval(a, g[:, (np.arange(n)[rows, None] - cols) % n], tensor=False)
            data[rows] += weight * (psi.real**2 + psi.imag**2) * np.exp(-0.5 * a * a)
            del cols, a, psi  # before the next block's
        del g  # before the next slice's kernel
    # a lag's entries sample a every 2 dx / w0, so the picture sums to
    # w0 sqrt(2 pi) / (2 dx) times the mass it holds, in ``profile``'s units
    window = 2.0 * math.pi / dq
    held = data.sum() * 2.0 * window / (n * w0 * math.sqrt(2.0 * math.pi))
    if held < (1.0 - _NEAR_BAND_LOSS) * profile.sum():
        warnings.warn(f"near-field picture misses {1.0 - held / profile.sum():.2g} of its mass: "
                      f"its position window 2 pi/dq = {window:.3g} m spans {window / w0:.3g} "
                      f"pump waists; raise grid.n to resolve the near-field picture", stacklevel=2)
    return JointDistribution(plane="near", axis=axis, axis_signal=x, axis_idler=x,
                             intensity=lambda: (RowBand(data[rows], start[rows], n)
                                                for rows in _row_blocks(n)))
