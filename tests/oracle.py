"""Test-side oracles: the moments of a dense intensity matrix, the
moment engine's per-slice sums as plain whole-array expressions, and a
dense matrix as the full-width band a picture holds.

The package takes every statistic from the moment engine; the tests
check it, and the matrix pictures, against the moments of a matrix
reduced here to the six raw sums that ``StatsSummary.from_sums`` takes.
"""

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from spdcsim.biphoton import RowBand, _arm_arguments, _kernel_with_slope
from spdcsim.spectral import _SUM_NODES
from spdcsim.stats import StatsSummary


def full_band(matrix):
    """``matrix`` as the ``RowBand`` of full width (every start 0)."""
    return RowBand(matrix, np.zeros(matrix.shape[0], dtype=np.intp), matrix.shape[1])


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
