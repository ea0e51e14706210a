"""Test-side oracle: the moments of a dense intensity matrix.

The package takes every statistic from the moment engine; the tests
check it, and the matrix pictures, against the moments of a matrix
reduced here to the six raw sums that ``StatsSummary.from_sums`` takes.
"""

import math

import numpy as np

from spdcsim.stats import StatsSummary


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
