"""Moments, Reid inference, and ridge fits against closed-form Gaussians."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdcsim.stats import (
    REID_BOUND,
    DegenerateDistributionError,
    ReidReport,
    StatsSummary,
    reid_product,
    ridge_fit,
)

from oracle import matrix_moments


def grid(n):
    return np.linspace(-1.0, 1.0, n)


def bivariate_gaussian(rho, n=256, span=6.0):
    """Unit-variance correlated Gaussian intensity, discretized on
    +-span sigma: (axis, intensity), the same axis for both arms."""
    a = np.linspace(-span, span, n)
    s = a[:, None]
    i = a[None, :]
    quad = (s * s - 2 * rho * s * i + i * i) / (2 * (1 - rho * rho))
    return a, np.exp(-quad)


def gaussian_moments(rho, n=256):
    a, intensity = bivariate_gaussian(rho, n)
    return matrix_moments("far", "x", a, a, intensity)


# -- normalisation ----------------------------------------------------------------


def test_normalize_uniform():
    # a uniform intensity weighs every cell alike, whatever its value
    a = grid(16)
    s = matrix_moments("far", "x", a, a, np.full((16, 16), 3.7))
    assert s.mu_s == pytest.approx(0.0, abs=1e-15)
    assert s.V_s == pytest.approx(np.mean(a * a), rel=1e-12)
    assert s.V_i == pytest.approx(np.mean(a * a), rel=1e-12)
    assert s.C_si == pytest.approx(0.0, abs=1e-15)


def test_normalize_scale_invariance():
    base = np.random.default_rng(3).random((32, 32))
    a = grid(32)
    s1 = matrix_moments("far", "x", a, a, base)
    s7 = matrix_moments("far", "x", a, a, 7.0 * base)
    for name in ("mu_s", "mu_i", "V_s", "V_i", "C_si"):
        assert getattr(s7, name) == pytest.approx(getattr(s1, name), rel=1e-12)


def test_normalize_mass_is_one():
    # the moments are those of the density P = I / (sum(I) da_s da_i),
    # whose mass is one, on a non-square grid
    rng = np.random.default_rng(11)
    intensity = rng.random((64, 48))
    a_s, a_i = np.linspace(-2, 2, 64), np.linspace(-1, 1, 48)
    s = matrix_moments("far", "x", a_s, a_i, intensity)
    p = intensity / (intensity.sum() * (a_s[1] - a_s[0]) * (a_i[1] - a_i[0]))
    mass = p.sum() * (a_s[1] - a_s[0]) * (a_i[1] - a_i[0])
    assert mass == pytest.approx(1.0, abs=1e-12)
    cell = p * (a_s[1] - a_s[0]) * (a_i[1] - a_i[0])
    mu_s = float((cell.sum(axis=1) * a_s).sum())
    mu_i = float((cell.sum(axis=0) * a_i).sum())
    assert s.mu_s == pytest.approx(mu_s, rel=1e-12)
    assert s.mu_i == pytest.approx(mu_i, rel=1e-12)
    assert s.C_si == pytest.approx(float((cell * np.outer(a_s, a_i)).sum()) - mu_s * mu_i,
                                   rel=1e-9)


def test_normalize_all_zero_raises():
    with pytest.raises(DegenerateDistributionError):
        matrix_moments("far", "x", grid(8), grid(8), np.zeros((8, 8)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_moments_reject_non_finite_total(bad):
    intensity = np.ones((8, 8))
    intensity[3, 4] = bad
    with pytest.raises(DegenerateDistributionError):
        matrix_moments("far", "x", grid(8), grid(8), intensity)


# -- moments ------------------------------------------------------------------


def test_separable_table_has_zero_covariance():
    a = np.linspace(-3, 3, 128)
    g = np.exp(-(a**2) / 2)
    s = matrix_moments("far", "x", a, a, np.outer(g, g))
    assert s.C_si == pytest.approx(0.0, abs=1e-10)
    assert s.mu_s == pytest.approx(0.0, abs=1e-12)


def test_mirroring_idler_flips_covariance():
    a, intensity = bivariate_gaussian(0.6, n=128)
    s = matrix_moments("far", "x", a, a, intensity)
    sf = matrix_moments("far", "x", a, a, intensity[:, ::-1])
    assert sf.C_si == pytest.approx(-s.C_si, rel=1e-9)
    assert sf.V_i == pytest.approx(s.V_i, rel=1e-12)


def test_bivariate_gaussian_moments():
    s = gaussian_moments(0.8, n=1024)
    assert s.V_s == pytest.approx(1.0, rel=1e-3)
    assert s.V_i == pytest.approx(1.0, rel=1e-3)
    assert s.C_si == pytest.approx(0.8, rel=1e-3)


def test_marginal_equals_joint_computation():
    a, intensity = bivariate_gaussian(0.5, n=96)
    s = matrix_moments("far", "x", a, a, intensity)
    # joint-based second moments, computed independently
    w = intensity / intensity.sum()
    ds = a - s.mu_s
    di = a - s.mu_i
    v_s = float((w.sum(axis=1) * ds * ds).sum())
    c = float((ds[:, None] * w * di[None, :]).sum())
    assert s.V_s == pytest.approx(v_s, rel=1e-12)
    assert s.C_si == pytest.approx(c, rel=1e-12)


def test_summary_from_sums():
    # sums of a two-point distribution: (1, 2) with weight 1, (3, -2) with weight 3
    s = StatsSummary.from_sums("near", "y", 4.0, 10.0, -4.0, 28.0, 16.0, -16.0)
    assert (s.plane, s.axis) == ("near", "y")
    assert (s.mu_s, s.mu_i, s.V_s, s.V_i, s.C_si) == (2.5, -1.0, 0.75, 3.0, -1.5)


def test_point_mass_moments_stay_valid():
    # raw sums of a single off-centre cell cancel to roundoff, which may
    # fall on either side of 0; the summary must still be a valid one
    a_s, a_i = np.linspace(0.3, 7.9, 16), np.linspace(-2.2, 11.0, 16)
    for k in range(16):
        for l in range(16):
            intensity = np.zeros((16, 16))
            intensity[k, l] = 2.7
            s = matrix_moments("far", "x", a_s, a_i, intensity)
            assert s.mu_s == pytest.approx(a_s[k], rel=1e-15)
            assert 0.0 <= s.V_s <= 1e-14 * a_s[k] ** 2
            assert 0.0 <= s.V_i <= 1e-14 * a_i[l] ** 2


@given(rho=st.floats(-0.95, 0.95))
@settings(max_examples=20, deadline=None)
def test_cauchy_schwarz(rho):
    s = gaussian_moments(rho, n=64)
    assert s.C_si * s.C_si <= s.V_s * s.V_i * (1 + 1e-9)


# -- Reid inference -------------------------------------------------------------


def test_inference_no_correlation():
    s = StatsSummary("far", "x", 0.0, 0.0, 2.0, 3.0, 0.0)
    assert s.G == 0.0
    assert s.var_inferred == 3.0


def test_inference_perfect_correlation():
    c = math.sqrt(2.0 * 3.0)
    done = StatsSummary("far", "x", 0.0, 0.0, 2.0, 3.0, c)
    assert done.var_inferred == pytest.approx(0.0, abs=1e-12)


def test_inference_gaussian_correlation():
    done = gaussian_moments(0.8, n=1024)
    assert done.var_inferred == pytest.approx(0.36, rel=1e-3)
    assert done.G == pytest.approx(0.8, rel=1e-3)


def test_inference_degenerate_marginal():
    with pytest.raises(DegenerateDistributionError):
        StatsSummary("far", "x", 0.0, 0.0, 0.0, 1.0, 0.0).var_inferred


def test_zero_signal_variance_raises_from_width_and_json():
    # a summary always carries its inference, so printing one with V_s = 0 fails too
    s = StatsSummary("far", "x", 0.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(DegenerateDistributionError):
        s.width_inferred
    with pytest.raises(DegenerateDistributionError):
        s.to_json_dict()


def test_inferred_variance_negative_beyond_roundoff_raises():
    # Cauchy-Schwarz is checked to 1e-9 relative; inference to 1e-12 of V_i
    s = StatsSummary("far", "x", 0.0, 0.0, 1.0, 1.0, 1.0 + 1e-10)
    with pytest.raises(DegenerateDistributionError, match="beyond roundoff"):
        s.var_inferred


def test_inferred_variance_never_exceeds_marginal():
    for rho in (-0.9, -0.3, 0.0, 0.4, 0.99):
        done = gaussian_moments(rho, n=128)
        assert 0.0 <= done.var_inferred <= done.V_i + 1e-12


def test_conditional_slice_oracle():
    # The linear inferred variance must agree with the direct estimate:
    # the column-mass-weighted mean of each signal column's idler variance.
    a_i, intensity = bivariate_gaussian(0.7, n=256)
    s = matrix_moments("far", "x", a_i, a_i, intensity)
    direct = []
    masses = []
    for col in intensity:
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
    near = StatsSummary("near", axis, 0.0, 0.0, 1.0, var_near / (1 - rho**2), 0.0)
    far = StatsSummary("far", axis, 0.0, 0.0, 1.0, var_far / (1 - rho**2), 0.0)
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


def test_report_derives_product_and_flag_from_its_widths():
    report = ReidReport("y", 2.0, 0.2)
    assert list(vars(report)) == ["axis", "dx_inferred_m", "dq_inferred_radm"]
    assert report.product == pytest.approx(0.4, rel=1e-15)
    assert report.certified and report.to_json_dict()["bound"] == REID_BOUND
    assert not ReidReport("y", 2.0, 0.25).certified  # on the bound is not below it


def test_certification_flag():
    near, far = near_far_pair(0.04, 0.04)  # product 0.04 < 0.5
    assert reid_product(near, far).certified
    near, far = near_far_pair(1.0, 1.0)  # product 1.0 >= 0.5
    assert not reid_product(near, far).certified


# -- ridge fitting ----------------------------------------------------------------


def antidiagonal(n=64):
    """Mass exactly on a_i = -a_s: (axis, intensity)."""
    a = grid(n)
    return a, np.eye(n)[:, ::-1].copy()


def test_ridge_slope_antidiagonal():
    a, intensity = antidiagonal()
    fit = ridge_fit(matrix_moments("far", "x", a, a, intensity))
    assert fit.slope_principal_axis == pytest.approx(-1.0, rel=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert not fit.isotropic


def test_ridge_slope_transpose_inverts():
    a, intensity = bivariate_gaussian(0.6, n=128)
    fit = ridge_fit(matrix_moments("far", "x", a, a, intensity))
    fit_t = ridge_fit(matrix_moments("far", "x", a, a, intensity.T))
    assert fit_t.slope_principal_axis == pytest.approx(1.0 / fit.slope_principal_axis, rel=1e-9)


def test_ridge_regression_method():
    s = gaussian_moments(0.8, n=256)
    fit = ridge_fit(s)
    assert fit.slope_regression == pytest.approx(s.C_si / s.V_s, rel=1e-12)
    # the line is the principal axis through the centroid
    assert fit.intercept == s.mu_i - fit.slope_principal_axis * s.mu_s
    assert fit.slope_principal_axis != fit.slope_regression
    # symmetric unit-variance Gaussian: principal axis is the diagonal
    assert fit.slope_principal_axis == pytest.approx(1.0, abs=1e-9)


def test_ridge_isotropic_warns():
    s = gaussian_moments(0.0, n=128)
    with pytest.warns(UserWarning, match="isotropic"):
        fit = ridge_fit(s)
    assert fit.isotropic


def test_ridge_isotropic_warning_names_the_caller():
    s = gaussian_moments(0.0, n=128)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ridge_fit(s)
    assert [w.filename for w in caught] == [__file__]
