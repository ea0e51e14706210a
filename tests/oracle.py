"""Test-side oracles: the moments of a dense intensity matrix, the
moment engine's per-slice sums as plain whole-array expressions, the
near-field picture as a 2-D FFT of the dense square-grid amplitude and
as its Hermite-mode closed form on every entry, the camera's slices one
record each with their sums mapped in Python floats and their pixel
momenta, the far-field and camera pictures as whole bands from one pass
over the slices, a dense matrix as the full-width band a picture holds,
and a picture's row blocks stacked into one band and into its dense matrix.

The package takes every statistic from the moment engine; the tests
check it, and the matrix pictures, against the moments of a matrix
reduced here to the six raw sums that ``StatsSummary.from_sums`` takes.
"""

import math
from types import SimpleNamespace

import numpy as np
from numpy.polynomial.hermite import hermgauss, hermval

from spdcsim.biphoton import (
    RowBand,
    _arm_arguments,
    _kernel,
    _kernel_with_slope,
    _windows,
    envelope_columns,
    evaluate_grid,
)
from spdcsim.spectral import _SUM_NODES, position_grid
from spdcsim.spectral import moment_sums as engine_sums
from spdcsim.stats import StatsSummary, ridge_fit


def full_band(matrix):
    """``matrix`` as the ``RowBand`` of full width (every start 0)."""
    return RowBand(matrix, np.zeros(matrix.shape[0], dtype=np.intp), matrix.shape[1])


def one_block(matrix):
    """A ``JointDistribution`` intensity that yields ``matrix`` as one full-width block."""
    return lambda: [full_band(matrix)]


def flat_index(band):
    """Index of each ``band.data`` entry in the raveled n_rows x n_cols matrix."""
    rows = np.arange(band.data.shape[0])[:, None] * band.n_cols
    return rows + band.start[:, None] + np.arange(band.width)


def toarray(band):
    """The dense matrix a ``RowBand`` holds: +0.0 outside its windows."""
    out = np.zeros((band.data.shape[0], band.n_cols))
    out.reshape(-1)[flat_index(band)] = band.data
    return out


def stacked(picture):
    """A ``JointDistribution``'s checked row blocks stacked into one ``RowBand``."""
    blocks = list(picture.row_blocks())
    return RowBand(np.concatenate([b.data for b in blocks]),
                   np.concatenate([b.start for b in blocks]), blocks[0].n_cols)


def dense(picture):
    """A ``JointDistribution``'s dense matrix, from its row blocks."""
    return toarray(stacked(picture))


def squared_bands(problem, axis, momenta):
    """sum_slices w |Psi|^2 on each of one or more pictures as one whole
    ``RowBand`` each, from one slice-outer pass: ``momenta(k)`` gives slice
    k's signal momenta and one idler grid per picture; each picture's
    windows are the union of every slice's ``envelope_columns(power=2)``
    windows; each slice, in sampling order, is evaluated on every
    picture's windows over the whole grids, squared, weighted and added."""
    n = problem.grid_n
    bounds = None
    for k in range(len(problem.slices)):
        q_s, *idlers = momenta(k)
        columns = np.array([envelope_columns(q_s, q_i, problem.waist_m, power=2) for q_i in idlers])
        if bounds is None:
            bounds = columns
        np.minimum(bounds[:, 0], columns[:, 0], out=bounds[:, 0])
        np.maximum(bounds[:, 1], columns[:, 1], out=bounds[:, 1])
    totals = [RowBand(np.zeros((n, width)), start, n)
              for start, width in (_windows(first, stop, n) for first, stop in bounds)]
    for k, (lam_s, lam_i, weight) in enumerate(problem.slices):
        q_s, *idlers = momenta(k)
        for total, q_i in zip(totals, idlers):
            term = evaluate_grid(q_s, q_i, problem, axis, (lam_s, lam_i),
                                 (total.start, total.width)).data
            np.multiply(term, term, out=term)
            term *= weight
            np.add(total.data, term, out=total.data)
    return totals


def matrix_moments(plane, axis, axis_signal, axis_idler, intensity):
    """Means, variances and covariance of an unnormalised intensity over
    signal (rows) x idler (columns) coordinates: its six raw sums, each
    reduced by ``math.fsum`` from the marginals and from the idler
    coordinate summed along each row, handed to ``from_sums``.  Uniform
    cell areas cancel; a total that is not finite and positive raises
    DegenerateDistributionError there."""
    m_s, m_i = intensity.sum(axis=1), intensity.sum(axis=0)
    cross = intensity @ axis_idler
    return StatsSummary.from_sums(
        plane, axis, math.fsum(m_s),
        math.fsum(m_s * axis_signal), math.fsum(m_i * axis_idler),
        math.fsum(m_s * axis_signal * axis_signal), math.fsum(m_i * axis_idler * axis_idler),
        math.fsum(axis_signal * cross),
    )


def moment_sums(problem, axis):
    """``spectral.moment_sums`` with each slice's nine sums written as
    one expression per term, every node-grid product a new array; the
    engine forms them in one scratch buffer in the same operation order,
    so the two agree bit for bit."""
    q_d = problem.diff_grid()
    t, h = hermgauss(_SUM_NODES)
    w0 = problem.waist_m
    q_plus = (math.sqrt(2.0) / w0 * t)[:, None]
    q_s = 0.5 * (q_plus + q_d)
    q_i = 0.5 * (q_plus - q_d)
    envelope_slope = -0.5 * w0 * w0 * q_plus  # E'(q_+) / E(q_+)
    node_weights = h[:, None]
    rows = []
    for lam_s, lam_i, _ in problem.slices:
        a, b, da, db = _arm_arguments(
            q_s, q_i, axis, (lam_s, lam_i), problem.crystal, problem.wl
        )
        k, dk = _kernel_with_slope(a + b, problem.kernel)
        g_s = envelope_slope * k + dk * da
        g_i = envelope_slope * k + dk * db
        k2 = node_weights * k * k
        terms = (k2, k2 * q_s, k2 * q_i, k2 * q_s * q_s, k2 * q_i * q_i, k2 * q_s * q_i,
                 node_weights * g_s * g_s, node_weights * g_i * g_i, node_weights * g_s * g_i)
        rows.append([term.sum() for term in terms])
    return np.array(rows)


def near_field_intensity(terms, shape):
    """sum of weight * |psi|^2 over ``(amp, dq_s, dq_i, weight)`` terms,
    where psi is the centered unitary transform of the real amplitude
    ``amp`` of ``shape``,

        psi = (dq_s dq_i N M / (2 pi)) fftshift(ifft2(ifftshift(amp))),

    on conjugate grids x = 2 pi (index - N//2) / (N dq), so per-term
    Parseval holds to roundoff: sum |amp|^2 dq_s dq_i = sum |psi|^2 dx_s dx_i.
    Returned in unshifted FFT order (``fftshift`` gives the centered grid).

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


def fft_near_field(problem, axis):
    """The position grid and the near-field picture of ``spectral.near_field_jid``
    as a dense centered matrix: each slice's dense square-grid amplitude
    through ``near_field_intensity``, weighted and summed."""
    q = problem.square_grid()
    dq = float(q[1] - q[0])
    terms = ((toarray(evaluate_grid(q, q, problem, axis, (s, i))), dq, dq, w)
             for s, i, w in problem.slices)
    return position_grid(q), np.fft.fftshift(near_field_intensity(terms, (q.size, q.size)))


def mode_near_field(problem, axis):
    """The position grid and ``spectral.near_field_jid``'s closed form on
    every entry of the dense matrix, with no band, FFT or Horner: per
    slice, c_k(q_-) from 16 Hermite nodes, G_k(X_-) = 2 dq sum_m c_k[m]
    exp(i q_-m X_-) for every X_- = (x_s - x_i) / 2 of the grid, and

        psi = (sqrt(pi) / (2 pi w0)) exp(-a^2/4) sum_{k<8} (i a)^k G_k,

    a = (x_s + x_i) / w0; |psi|^2 weighted and summed."""
    q = problem.square_grid()
    n = q.size
    dq = float(q[1] - q[0])
    x = position_grid(q)
    w0 = problem.waist_m
    t, h = hermgauss(16)
    q_minus = (np.arange(n) - n / 2) * 2.0 * dq
    q_plus = (2.0 / w0 * t)[:, None]
    a = (x[:, None] + x[None, :]) / w0
    # X_- of every lag j - c, from -(n - 1) to n - 1, and each entry's lag index
    x_minus = 0.5 * np.arange(1 - n, n) * (x[1] - x[0])
    lag = np.subtract.outer(np.arange(n), np.arange(n)) + n - 1
    dft = np.exp(1j * np.outer(x_minus, q_minus)) * 2.0 * dq
    total = np.zeros((n, n))
    for lam_s, lam_i, weight in problem.slices:
        arms = _arm_arguments(0.5 * (q_plus + q_minus), 0.5 * (q_plus - q_minus), axis,
                              (lam_s, lam_i), problem.crystal, problem.wl)
        kernel = _kernel(arms[0] + arms[1], problem.kernel)
        psi = np.zeros((n, n), dtype=complex)
        for k in range(8):
            unit = np.zeros(k + 1)
            unit[k] = 1.0
            c_k = (h * hermval(t, unit)) @ kernel / (math.sqrt(math.pi) * 2.0**k * math.factorial(k))
            psi += (1j * a) ** k * (dft @ c_k)[lag]
        psi *= math.sqrt(math.pi) / (2.0 * math.pi * w0) * np.exp(-a * a / 4.0)
        total += weight * (psi.real**2 + psi.imag**2)
    return x, total


def mapped_sums(sums, a_s, a_i, b_i=0.0):
    """Raw sums of {1, Y_s, Y_i, Y_s^2, Y_i^2, Y_s Y_i} for Y_s = a_s u_s and
    Y_i = a_i u_i + b_i, from ``sums``, those of {1, u_s, u_i, u_s^2, u_i^2,
    u_s u_i}, in Python floats."""
    n, s, i, ss, ii, si = sums
    return (n, a_s * s, a_i * i + b_i * n, a_s * a_s * ss,
            a_i * a_i * ii + 2.0 * a_i * b_i * i + b_i * b_i * n, a_s * (a_i * si + b_i * s))


def camera_slices(problem, axis, focal_length_m, magnification=1.0):
    """Every slice of ``problem.slices`` on the camera, one namespace each,
    from the engine's far-field sums: its wavelengths and weight, each
    arm's scale M f lambda / (2 pi) (meters of camera coordinate per
    rad/m), on y the intercept of its own ridge fit (0.0 on x), and its
    camera-plane ``sums`` and ``corrected_sums`` (the idler rescaled by
    lambda_s / lambda_i and shifted by -scale_signal * intercept), each
    slice mapped on its own in Python floats."""
    slices = []
    for (lam_s, lam_i, weight), sums in zip(problem.slices,
                                            engine_sums(problem, axis)[:, :6].tolist()):
        intercept = 0.0
        if axis == "y":
            intercept = ridge_fit(StatsSummary.from_sums("far", axis, *sums)).intercept
        scale_s, scale_i = (magnification * focal_length_m / (2.0 * math.pi / (lam * 1e-9))
                            for lam in (lam_s, lam_i))
        camera = mapped_sums(sums, scale_s, scale_i)
        slices.append(SimpleNamespace(
            lambda_signal_nm=lam_s, lambda_idler_nm=lam_i, weight=weight,
            scale_signal=scale_s, scale_idler=scale_i, ridge_intercept=intercept, sums=camera,
            corrected_sums=mapped_sums(camera, 1.0, lam_s / lam_i, -(scale_s * intercept)),
        ))
    return slices


def weighted_total(slices, key):
    """sum_k w_k getattr(slice_k, key), added in sampling order in Python floats."""
    total = [0.0] * 6
    for cs in slices:
        total = [t + cs.weight * v for t, v in zip(total, getattr(cs, key))]
    return tuple(total)


def camera_momenta(q, central, cs):
    """The momenta of camera slice ``cs`` that land on the pixels ``q``
    mapped with ``central``'s scales: its signal momenta, and its
    uncorrected and corrected idler momenta."""
    to_signal = central.scale_signal / cs.scale_signal
    return (
        q * to_signal,
        q * (central.scale_idler / cs.scale_idler),
        (q - central.ridge_intercept) * to_signal + cs.ridge_intercept,
    )
