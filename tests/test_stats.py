"""Moments, Reid inference, and ridge fits against closed-form Gaussians."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdcsim.spectral import JointDistribution
from spdcsim.stats import (
    DegenerateDistributionError,
    ProbabilityTable,
    StatsSummary,
    moments,
    normalize,
    reid_inference,
    reid_product,
    ridge_slope,
)


def make_jid(intensity, axis_s=None, axis_i=None, plane="far", axis="x"):
    n_s, n_i = intensity.shape
    if axis_s is None:
        axis_s = np.linspace(-1.0, 1.0, n_s)
    if axis_i is None:
        axis_i = np.linspace(-1.0, 1.0, n_i)
    return JointDistribution(plane, axis, axis_s, axis_i, intensity)


def bivariate_gaussian_table(rho, n=256, span=6.0, plane="far", axis="x"):
    """Unit-variance correlated Gaussian, discretized on +-span sigma."""
    a = np.linspace(-span, span, n)
    s = a[:, None]
    i = a[None, :]
    quad = (s * s - 2 * rho * s * i + i * i) / (2 * (1 - rho * rho))
    return normalize(make_jid(np.exp(-quad), a, a.copy(), plane=plane, axis=axis))


# -- normalize ----------------------------------------------------------------


def test_normalize_uniform():
    jid = make_jid(np.full((16, 16), 3.7))
    table = normalize(jid)
    da = table.d_signal * table.d_idler
    np.testing.assert_allclose(table.p, 1.0 / (16 * 16 * da), rtol=1e-12)


def test_normalize_scale_invariance():
    base = np.random.default_rng(3).random((32, 32))
    t1 = normalize(make_jid(base))
    t2 = normalize(make_jid(7.0 * base))
    np.testing.assert_allclose(t1.p, t2.p, rtol=1e-12)


def test_normalize_mass_is_one():
    rng = np.random.default_rng(11)
    jid = make_jid(rng.random((64, 48)), np.linspace(-2, 2, 64), np.linspace(-1, 1, 48))
    table = normalize(jid)
    mass = table.p.sum() * table.d_signal * table.d_idler
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_normalize_all_zero_raises():
    with pytest.raises(DegenerateDistributionError):
        normalize(make_jid(np.zeros((8, 8))))


def test_table_validates_mass():
    a = np.linspace(-1, 1, 8)
    with pytest.raises(ValueError):
        ProbabilityTable("far", "x", a, a.copy(), np.ones((8, 8)))


# -- moments ------------------------------------------------------------------


def test_separable_table_has_zero_covariance():
    a = np.linspace(-3, 3, 128)
    g = np.exp(-(a**2) / 2)
    table = normalize(make_jid(np.outer(g, g), a, a.copy()))
    s = moments(table)
    assert s.C_si == pytest.approx(0.0, abs=1e-10)
    assert s.mu_s == pytest.approx(0.0, abs=1e-12)


def test_mirroring_idler_flips_covariance():
    table = bivariate_gaussian_table(0.6, n=128)
    s = moments(table)
    flipped = ProbabilityTable(
        table.plane, table.axis, table.axis_signal, table.axis_idler,
        table.p[:, ::-1],
    )
    sf = moments(flipped)
    assert sf.C_si == pytest.approx(-s.C_si, rel=1e-9)
    assert sf.V_i == pytest.approx(s.V_i, rel=1e-12)


def test_bivariate_gaussian_moments():
    table = bivariate_gaussian_table(0.8, n=1024)
    s = moments(table)
    assert s.V_s == pytest.approx(1.0, rel=1e-3)
    assert s.V_i == pytest.approx(1.0, rel=1e-3)
    assert s.C_si == pytest.approx(0.8, rel=1e-3)


def test_marginal_equals_joint_computation():
    table = bivariate_gaussian_table(0.5, n=96)
    s = moments(table)
    # joint-based second moments, computed independently
    w = table.p / table.p.sum()
    ds = table.axis_signal - s.mu_s
    di = table.axis_idler - s.mu_i
    v_s = float((w.sum(axis=1) * ds * ds).sum())
    c = float((ds[:, None] * w * di[None, :]).sum())
    assert s.V_s == pytest.approx(v_s, rel=1e-12)
    assert s.C_si == pytest.approx(c, rel=1e-12)


@given(rho=st.floats(-0.95, 0.95))
@settings(max_examples=20, deadline=None)
def test_cauchy_schwarz(rho):
    s = moments(bivariate_gaussian_table(rho, n=64))
    assert s.C_si * s.C_si <= s.V_s * s.V_i * (1 + 1e-9)


# -- Reid inference -------------------------------------------------------------


def test_inference_no_correlation():
    s = StatsSummary("far", "x", 0.0, 0.0, 2.0, 3.0, 0.0)
    done = reid_inference(s)
    assert done.G == 0.0
    assert done.var_inferred == 3.0


def test_inference_perfect_correlation():
    c = math.sqrt(2.0 * 3.0)
    done = reid_inference(StatsSummary("far", "x", 0.0, 0.0, 2.0, 3.0, c))
    assert done.var_inferred == pytest.approx(0.0, abs=1e-12)


def test_inference_gaussian_correlation():
    done = reid_inference(moments(bivariate_gaussian_table(0.8, n=1024)))
    assert done.var_inferred == pytest.approx(0.36, rel=1e-3)
    assert done.G == pytest.approx(0.8, rel=1e-3)


def test_inference_degenerate_marginal():
    with pytest.raises(DegenerateDistributionError):
        reid_inference(StatsSummary("far", "x", 0.0, 0.0, 0.0, 1.0, 0.0))


def test_inferred_variance_never_exceeds_marginal():
    for rho in (-0.9, -0.3, 0.0, 0.4, 0.99):
        done = reid_inference(moments(bivariate_gaussian_table(rho, n=128)))
        assert 0.0 <= done.var_inferred <= done.V_i + 1e-12


def test_conditional_slice_oracle():
    # The linear inferred variance must agree with the direct estimate:
    # the column-mass-weighted mean of each signal column's idler variance.
    table = bivariate_gaussian_table(0.7, n=256)
    s = reid_inference(moments(table))
    a_i = table.axis_idler
    direct = []
    masses = []
    for col in table.p:
        m = col.sum()
        if m <= 0:
            continue
        mu = (col * a_i).sum() / m
        direct.append((col * (a_i - mu) ** 2).sum() / m)
        masses.append(m)
    direct_var = float(np.average(direct, weights=masses))
    assert s.var_inferred == pytest.approx(direct_var, rel=0.02)


# -- Reid product ----------------------------------------------------------------


def near_far_pair(var_near, var_far, rho=0.0, axis="x"):
    near = reid_inference(
        StatsSummary("near", axis, 0.0, 0.0, 1.0, var_near / (1 - rho**2), 0.0)
    )
    far = reid_inference(
        StatsSummary("far", axis, 0.0, 0.0, 1.0, var_far / (1 - rho**2), 0.0)
    )
    return near, far


def test_reid_product_basic():
    near, far = near_far_pair(1e-10, 1e8)
    report = reid_product(near, far)
    assert report.product == pytest.approx(
        math.sqrt(1e-10) * math.sqrt(1e8), rel=1e-12
    )
    assert report.certified == (report.product < 0.5)


def test_reid_product_axis_mismatch():
    near, _ = near_far_pair(1.0, 1.0, axis="x")
    _, far = near_far_pair(1.0, 1.0, axis="y")
    with pytest.raises(ValueError):
        reid_product(near, far)


def test_reid_product_plane_mismatch():
    near, far = near_far_pair(1.0, 1.0)
    with pytest.raises(ValueError):
        reid_product(far, near)


def test_reid_product_requires_inference():
    near = StatsSummary("near", "x", 0.0, 0.0, 1.0, 1.0, 0.0)
    far = StatsSummary("far", "x", 0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        reid_product(near, far)


def test_certification_flag():
    near, far = near_far_pair(0.04, 0.04)  # product 0.04 < 0.5
    assert reid_product(near, far).certified
    near, far = near_far_pair(1.0, 1.0)  # product 1.0 >= 0.5
    assert not reid_product(near, far).certified


# -- ridge fitting ----------------------------------------------------------------


def antidiagonal_table(n=64):
    a = np.linspace(-1.0, 1.0, n)
    intensity = np.zeros((n, n))
    # mass exactly on a_i = -a_s
    for k in range(n):
        intensity[k, n - 1 - k] = 1.0
    return normalize(make_jid(intensity, a, a.copy()))


def test_ridge_slope_antidiagonal():
    fit = ridge_slope(antidiagonal_table())
    assert fit.slope_principal_axis == pytest.approx(-1.0, rel=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert not fit.isotropic


def test_ridge_slope_transpose_inverts():
    table = bivariate_gaussian_table(0.6, n=128)
    fit = ridge_slope(table)
    transposed = ProbabilityTable(
        table.plane, table.axis, table.axis_idler, table.axis_signal,
        np.ascontiguousarray(table.p.T),
    )
    fit_t = ridge_slope(transposed)
    assert fit_t.slope_principal_axis == pytest.approx(1.0 / fit.slope_principal_axis, rel=1e-9)


def test_ridge_regression_method():
    table = bivariate_gaussian_table(0.8, n=256)
    fit = ridge_slope(table)
    s = moments(table)
    assert fit.slope_regression == pytest.approx(s.C_si / s.V_s, rel=1e-12)
    # the line is the principal axis through the centroid
    assert fit.intercept == s.mu_i - fit.slope_principal_axis * s.mu_s
    assert fit.slope_principal_axis != fit.slope_regression
    # symmetric unit-variance Gaussian: principal axis is the diagonal
    assert fit.slope_principal_axis == pytest.approx(1.0, abs=1e-9)


def test_ridge_isotropic_warns():
    table = bivariate_gaussian_table(0.0, n=128)
    with pytest.warns(UserWarning, match="isotropic"):
        fit = ridge_slope(table)
    assert fit.isotropic
