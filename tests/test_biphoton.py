"""Per-slice arm records of the phase mismatch, kernels, pump envelope,
and the block kernel of the amplitude."""

import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdcsim.biphoton import (
    EvanescentInputError,
    _ROW_BLOCK,
    _envelope_times_kernel,
    _kernel,
    _kernel_with_slope,
    _windows,
    envelope_columns,
    evaluate_grid,
    slice_arms,
)
from spdcsim.camera import camera_jpds
from spdcsim.config import RunConfig, load_config
from spdcsim.dispersion import CrystalSetup, SellmeierSet
from spdcsim.spectral import FilterSpec, certify_axis, sample_spectrum

import oracle

BBO = SellmeierSet.bbo()
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SINC_MIN = -0.21723362821122166  # global minimum of sin(u)/u


def make_setup(signal_nm=810.0, length_m=1e-3, waist_m=500e-6, **settings):
    """The collinear BBO run with a 5 nm filter on the signal;
    ``settings`` are further ``RunConfig`` fields (kernel, grid_n, ...)."""
    return RunConfig(signal_nm=signal_nm, length_mm=length_m * 1e3, waist_um=waist_m * 1e6,
                     **settings).build()


def nominal(problem):
    """The nominal (signal, idler) wavelength pair."""
    return (problem.wl.signal_nm, problem.wl.idler_nm)


def edge_pair():
    """The first (filter-edge) slice of a 5 nm filter at 780 nm: 1.59 FWHM off center."""
    lam_s, lam_i, _ = sample_spectrum(FilterSpec("gaussian", 780.0, 5.0), 405.0)[0]
    return (lam_s, lam_i)


# -- mismatch ---------------------------------------------------------------


def dk_z(problem, axis, q_s, q_i):
    """Longitudinal mismatch (a + b) / (L/2) of the nominal slice's
    ``slice_arms`` on ``axis`` at momenta q_s and q_i, the orthogonal
    components zero."""
    a, b, _, _ = slice_arms(problem, axis, nominal(problem))(q_s, q_i)
    return (a + b) / (problem.crystal.length_m / 2.0)


def amplitude_at(q_s, q_i, problem, axis, pair):
    """The block kernel ``evaluate_grid`` at the one point (q_s, q_i)."""
    q_s, q_i = np.array([q_s], dtype=float), np.array([q_i], dtype=float)
    a, b = slice_arms(problem, axis, pair)(q_s, q_i)[:2]
    values = evaluate_grid(a, q_s, (q_i, b), np.zeros((1, 1), dtype=np.intp), problem)
    return float(values[0, 0])


def test_mismatch_zero_at_aligned_point():
    problem = make_setup()
    # exact by re-centering
    assert float(dk_z(problem, "x", 0.0, 0.0)) == 0.0


def test_mismatch_against_paraxial_oracle():
    # Degenerate 810 nm, q_sx = -q_ix = 1e5 rad/m, y components zero.
    # Independent paraxial evaluation: q^2/(2 k_s) + q^2/(2 k_i).
    got = float(dk_z(make_setup(), "x", 1e5, -1e5))
    assert got == pytest.approx(776.4902952648699, rel=1e-12)
    assert got == pytest.approx(776.4785910710019, rel=1e-3)


def test_mismatch_x_mirror_symmetry():
    problem = make_setup()
    assert float(dk_z(problem, "x", 3e4, 1e4)) == float(dk_z(problem, "x", -3e4, -1e4))


def test_mismatch_y_walkoff_breaks_mirror_symmetry():
    problem = make_setup()
    a = dk_z(problem, "y", 3e4, 1e4)
    b = dk_z(problem, "y", -3e4, -1e4)
    assert float(a) != pytest.approx(float(b), rel=1e-6)


def test_mismatch_rejects_evanescent_input():
    with pytest.raises(EvanescentInputError):
        dk_z(make_setup(), "x", 2e7, 0.0)


@given(q=st.floats(-1e6, 1e6))
@settings(max_examples=25, deadline=None)
def test_mismatch_transverse_components_are_negated_sums(q):
    # The transverse mismatch -(q_s + q_i) enters only the pump envelope:
    # the amplitude is the envelope at q_s + q_i times the kernel.
    problem = make_setup(kernel="gauss")
    a, b, _, _ = slice_arms(problem, "x", nominal(problem))(q, 0.5 * q)
    w0 = problem.waist_m
    expected = np.exp(-(w0 * w0) * (-(q + 0.5 * q)) ** 2 / 4.0) * _kernel(a + b, "gauss")
    assert amplitude_at(q, 0.5 * q, problem, "x", nominal(problem)) == float(expected)


def test_exact_vs_paraxial_within_cone():
    # Agreement to 1e-3 relative for |q| <= 0.02 k, on both arms.
    problem = make_setup()
    k_s = 2 * math.pi * BBO.index_ordinary(810.0) / 810e-9
    for frac in (0.005, 0.01, 0.02):
        q = frac * k_s
        exact = dk_z(problem, "x", q, q)
        paraxial = q * q / (2 * k_s) + q * q / (2 * k_s)
        assert float(exact) == pytest.approx(paraxial, rel=1e-3)


# -- kernels ----------------------------------------------------------------


def sinc_squared(dk_z, length_m):
    """Phase-matching efficiency sinc^2(dk_z L / 2) from the amplitude kernel."""
    return _kernel(dk_z * (length_m / 2.0), "sinc") ** 2


def test_sinc_efficiency_peak_and_first_zero():
    L = 1e-3
    assert sinc_squared(0.0, L) == 1.0
    assert sinc_squared(2 * math.pi / L, L) < 1e-12


def test_sinc_efficiency_half_lobe():
    # dk_z L/2 = pi/2 -> sinc = 2/pi -> efficiency (2/pi)^2
    L = 2e-3
    dkz = math.pi / L
    assert sinc_squared(dkz, L) == pytest.approx((2 / math.pi) ** 2, rel=1e-12)


@given(dkz=st.floats(-1e6, 1e6), length_mm=st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_sinc_efficiency_bounded(dkz, length_mm):
    val = float(sinc_squared(dkz, length_mm * 1e-3))
    assert 0.0 <= val <= 1.0


PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def decimal_sinc(u: float) -> Decimal:
    """sin(u)/u of the double ``u`` to 50 digits: the sine's Taylor series
    in 60-digit arithmetic, after reduction by the nearest multiple of pi."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(u)  # exact
        k = (x / PI_60).to_integral_value()
        r = x - k * PI_60
        term = total = r
        n = 1
        while abs(term) > abs(total) * Decimal("1e-55"):
            n += 2
            term *= -r * r / (n * (n - 1))
            total += term
        return (-total if k % 2 else total) / x


def test_sinc_kernel_is_accurate_next_to_its_zeros():
    # Next to u = k pi sin(u)/u is small, and sin(pi x)/(pi x) at
    # x = u/pi, which rounds u on the way, is off by up to 5.8 relative
    # there.  At the doubles either side of k pi, k = 1 ... 40, and on a
    # grid over +-60 (0 excluded) sin(u)/u stays within 4.4e-16 relative
    # of a 50-digit sine (2.0e-16 measured).
    zeros = np.array([float(k * PI_60) for k in range(1, 41)])
    u = np.concatenate([np.nextafter(zeros, 0.0), zeros, np.nextafter(zeros, np.inf),
                        np.linspace(-60.0, 60.0, 2400)])
    got = _kernel(u, "sinc")
    error = [abs((Decimal(float(k)) - exact) / exact)
             for k, exact in zip(got, map(decimal_sinc, u))]
    assert max(error) <= Decimal("4.4e-16")


def envelope(q_sum, w0):
    """The pump-envelope factor of the amplitude: the kernel argument is 0."""
    idler = [np.array(float(q_sum)), np.array(0.0)]  # q_i = q_sum at q_s = 0, and b = 0
    return float(_envelope_times_kernel(0.0, 0.0, idler, w0, "gauss"))


def test_pump_envelope_values():
    w0 = 500e-6
    assert envelope(0.0, w0) == 1.0
    assert envelope(2.0 / w0, w0) == pytest.approx(math.exp(-1), rel=1e-12)
    assert envelope(-2.0 / w0, w0) == pytest.approx(math.exp(-1), rel=1e-12)


@given(q_sum=st.floats(-4e4, 4e4))
@settings(max_examples=50, deadline=None)
def test_pump_envelope_even_and_bounded(q_sum):
    w0 = 500e-6
    v = envelope(q_sum, w0)
    assert 0.0 < v <= 1.0
    assert v == envelope(-q_sum, w0)


def test_pump_envelope_underflows_cleanly():
    # Far outside the pump cone the Gaussian underflows to exactly 0.0
    # rather than raising.
    assert envelope(1e7, 500e-6) == 0.0


# -- pump waist ---------------------------------------------------------------


def test_pump_spec_rejects_nonpositive_waist():
    config = make_setup()
    for waist_um in (0.0, -500.0, math.nan):
        with pytest.raises(ValueError, match="waist"):
            replace(config, waist_um=waist_um)


# -- amplitude ---------------------------------------------------------------


def test_amplitude_peak_at_aligned_point():
    problem = make_setup()
    assert amplitude_at(0.0, 0.0, problem, "x", nominal(problem)) == 1.0


def test_amplitude_on_antidiagonal_is_kernel_only():
    # q_i = -q_s kills the envelope argument exactly.
    problem = make_setup()
    q = 2e5
    u = float(dk_z(problem, "x", q, -q)) * problem.crystal.length_m / 2
    expected = math.sin(u) / u
    assert amplitude_at(q, -q, problem, "x", nominal(problem)) == pytest.approx(
        expected, rel=1e-12
    )


def test_amplitude_decays_with_envelope():
    problem = make_setup()
    # Along the diagonal q_s = q_i the kernel stays near 1 for small q
    # and the envelope dominates: amplitude ~ exp(-w0^2 (2q)^2 / 4).
    q = 1.0 / problem.waist_m
    got = amplitude_at(q, q, problem, "x", nominal(problem))
    env = math.exp(-(problem.waist_m**2) * (2 * q) ** 2 / 4)
    assert got == pytest.approx(env, rel=1e-3)


@given(q=st.floats(-4e5, 4e5))
@settings(max_examples=40, deadline=None)
def test_amplitude_bounded(q):
    problem = make_setup()
    val = amplitude_at(q, 0.3 * q, problem, "y", nominal(problem))
    assert SINC_MIN - 1e-12 <= val <= 1.0


def test_gauss_kernel_matches_sinc_curvature():
    problem = make_setup()
    q = 8e4  # keeps the kernel argument u ~ 0.25, inside the O(u^2) regime
    a_sinc = amplitude_at(q, -q, problem, "x", nominal(problem))
    a_gauss = amplitude_at(q, -q, replace(problem, kernel="gauss"), "x", nominal(problem))
    u = float(dk_z(problem, "x", q, -q)) * problem.crystal.length_m / 2
    # Both agree with 1 - u^2/6 at small argument.
    assert a_sinc == pytest.approx(1 - u * u / 6, abs=1e-4)
    assert a_gauss == pytest.approx(1 - u * u / 6, abs=1e-4)


@pytest.mark.parametrize("kind", ["sinc", "gauss"])
def test_kernel_slope_matches_central_difference(kind):
    # either side of the sinc series threshold (1e-2), at 0 and on the tails
    u = np.array([0.0, 1e-7, -3e-3, 9.99e-3, 1.001e-2, -0.4, 1.0, 2.5, -7.0, 31.4])
    k, slope = _kernel_with_slope(u, kind)
    h = 1e-5
    fd = (_kernel(u + h, kind) - _kernel(u - h, kind)) / (2 * h)
    assert np.array_equal(k, _kernel(u, kind))
    assert np.max(np.abs(slope - fd)) < 1e-9


@pytest.mark.parametrize("axis", ["x", "y"])
def test_arm_slopes_match_central_difference(axis):
    problem = make_setup(signal_nm=780.0)
    pair = (781.5, problem.wl.idler_nm)  # the idler is not energy-matched; each arm stands alone
    arms = slice_arms(problem, axis, pair)
    q = np.linspace(-3e5, 3e5, 7)
    h = 100.0
    a, b, da, db = arms(q, -q)
    a_hi, b_hi, _, _ = arms(q + h, -q + h)
    a_lo, b_lo, _, _ = arms(q - h, -q - h)
    # the slopes are ~1e-5; arguments ~10 round to ~1e-15, so the central
    # difference carries ~1e-17 of rounding and ~1e-16 of truncation
    np.testing.assert_allclose(da, (a_hi - a_lo) / (2 * h), rtol=1e-7, atol=1e-13)
    np.testing.assert_allclose(db, (b_hi - b_lo) / (2 * h), rtol=1e-7, atol=1e-13)


def test_unknown_kernel_rejected():
    problem = make_setup(kernel="lorentzian")
    with pytest.raises(ValueError):
        amplitude_at(0.0, 0.0, problem, "x", nominal(problem))


def test_axis_other_than_x_or_y_rejected():
    """Every evaluation takes its axis through ``slice_arms``, which
    rejects all but "x" and "y" (a "z" was a y slice without the walk-off
    tilt)."""
    problem = make_setup(signal_nm=780.0, grid_n=64, n_slices=3)
    with pytest.raises(ValueError, match="axis must be 'x' or 'y', got 'z'"):
        slice_arms(problem, "z", nominal(problem))
    with pytest.raises(ValueError, match="axis must be 'x' or 'y', got 'z'"):
        certify_axis(problem, "z")
    with pytest.raises(ValueError, match="axis must be 'x' or 'y', got 'z'"):
        camera_jpds(problem, "z")


def with_crystal(monkeypatch, crystal, **settings):
    """``make_setup``'s config with ``crystal`` seeded as its derived crystal."""
    config = make_setup(**settings)
    monkeypatch.setitem(vars(config), "crystal", crystal)
    return config


def test_arm_arguments_carry_the_collinear_mismatch_of_the_cut(monkeypatch):
    # A cut 0.1 degree off the phase-matching angle: at q = 0 the per-arm
    # shares vanish and a + b is the cut's (L/2) dk_0.
    problem = make_setup(signal_nm=780.0)
    wl, crystal = problem.wl, problem.crystal
    detuned = CrystalSetup.at_angle(wl, BBO, crystal.length_m, crystal.theta_p + math.radians(0.1))
    assert crystal.collinear_mismatch == 0.0
    assert detuned.collinear_mismatch != 0.0
    zero = np.zeros(1)
    a, b, _, _ = slice_arms(with_crystal(monkeypatch, detuned, signal_nm=780.0), "x",
                            nominal(problem))(zero, zero)
    assert float(a[0] + b[0]) == pytest.approx(
        0.5 * crystal.length_m * detuned.collinear_mismatch, rel=1e-12
    )
    # dk_0 is a constant: it moves a alone, and neither slope
    shifted = with_crystal(monkeypatch, replace(crystal,
                                                collinear_mismatch=detuned.collinear_mismatch),
                           signal_nm=780.0)
    q = np.linspace(-3e5, 3e5, 7)
    for axis in ("x", "y"):
        a, b, da, db = slice_arms(problem, axis, nominal(problem))(q, -q)
        a2, b2, da2, db2 = slice_arms(shifted, axis, nominal(problem))(q, -q)
        np.testing.assert_allclose(a2 - a, 0.5 * crystal.length_m * detuned.collinear_mismatch,
                                   rtol=1e-12)
        assert np.array_equal(b2, b) and np.array_equal(da2, da) and np.array_equal(db2, db)


@pytest.mark.parametrize("detuned", [False, True], ids=["pm-angle", "detuned"])
@pytest.mark.parametrize("config", ["nondegenerate_780", "degenerate_810"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_slice_arms_equal_the_per_call_formula(axis, config, detuned):
    """Each slice's ``SliceArms`` gives, bit for bit and to the sign of
    zero, the four arguments ``oracle.arm_arguments`` computes from the
    Sellmeier set on the call: on scalars, on 1-D and on 2-D momenta, on a
    cut at and 0.5 degree off the phase-matching angle.  Next to each
    arm's propagation cone both raise EvanescentInputError at the same
    momenta."""
    cfg = replace(load_config(CONFIGS / f"{config}.yaml"), grid_n=64, n_slices=5)
    problem = cfg.build()
    if detuned:
        problem = replace(cfg, theta_deg=math.degrees(problem.crystal.theta_p) - 0.5).build()
        assert problem.crystal.collinear_mismatch != 0.0
    q = problem.square_grid()
    inputs = [(0.0, 0.0), (-3e5, 2.5e5), (q, q[::-1]), (q, -q),
              (np.add.outer(q[::8], q), np.subtract.outer(q[::8], q))]
    for lam_s, lam_i, _ in problem.slices:
        arms = slice_arms(problem, axis, (lam_s, lam_i))
        assert all(type(value) is float for value in vars(arms).values())
        for q_s, q_i in inputs:
            got = arms(q_s, q_i)
            expected = oracle.arm_arguments(q_s, q_i, axis, (lam_s, lam_i), problem.crystal,
                                            problem.wl)
            for g, e in zip(got, expected, strict=True):
                assert np.shape(g) == np.shape(e) and same_bits(g, e)
        for k, at_signal in ((arms.k_signal, True), (arms.k_idler, False)):
            for q_edge in (np.nextafter(k, 0.0), k, np.nextafter(k, np.inf), -k):
                momenta = (q_edge, 0.0) if at_signal else (0.0, q_edge)
                outcomes = []
                for run in (lambda: arms(*momenta),
                            lambda: oracle.arm_arguments(*momenta, axis, (lam_s, lam_i),
                                                         problem.crystal, problem.wl)):
                    try:
                        outcomes.append(run())
                    except EvanescentInputError:
                        outcomes.append(None)
                if outcomes[0] is None or outcomes[1] is None:
                    assert outcomes == [None, None]
                else:
                    assert all(same_bits(g, e) for g, e in zip(*outcomes))
                assert (outcomes[0] is None) == (q_edge * q_edge >= k * k)


# -- grids --------------------------------------------------------------------


def test_centered_slice_grid_shape():
    problem = make_setup(grid_n=256)
    q = problem.square_grid()
    assert q.size == 256
    assert q[0] == -q[-1]
    assert q[1] - q[0] > 0
    # grid must cover both correlation scales
    k_bar = 2 * math.pi * BBO.index_ordinary(810.0) / 810e-9
    dmax = 5 * math.sqrt(4 * math.pi * k_bar / problem.crystal.length_m)
    smax = 5 * 2 / problem.waist_m
    assert q[-1] == pytest.approx((smax + dmax) / 2, rel=1e-12)
    # the moment engine's difference grid spans the same default D
    assert problem.diff_extent() == pytest.approx(dmax, rel=1e-12)


def test_evaluate_grid_matches_pointwise():
    problem = make_setup(grid_n=64)
    q, pair = problem.square_grid(), nominal(problem)
    mat = oracle.toarray(oracle.kernel_band(q, q, problem, "y", pair))
    assert mat.shape == (64, 64)
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = int(rng.integers(0, 64))
        l = int(rng.integers(0, 64))
        pt = float(oracle.amplitude(q[k], q[l], problem, "y", pair))
        assert mat[k, l] == pt
    # the amplitude lives in a narrow band around the anti-diagonal
    # q_i = -q_s, which is q[63 - k] on this symmetric grid
    for k in rng.integers(0, 64, size=10):
        for l in range(max(62 - int(k), 0), min(66 - int(k), 64)):
            pt = float(oracle.amplitude(q[k], q[l], problem, "y", pair))
            assert pt != 0.0
            assert mat[k, l] == pt


def composed_amplitude(q, problem, axis, pair):
    """The amplitude on the square grid ``q`` as the plain product of its
    documented factors, exp(-w0^2 (q_s + q_i)^2 / 4) * kernel(dk_z L / 2),
    with dk_z computed here from the ordinary indices, one kernel call
    per point."""
    crystal, wl = problem.crystal, problem.wl

    def k(lam_nm):
        return 2.0 * math.pi * crystal.sellmeier.index_ordinary(lam_nm) / (lam_nm * 1e-9)

    q_s, q_i = q[:, None], q[None, :]
    tilt = math.tan(crystal.rho) if axis == "y" else 0.0
    k_s, k_i = k(pair[0]), k(pair[1])
    dk_z = (k(wl.signal_nm) - np.sqrt(k_s**2 - q_s**2) + q_s * tilt) + (
        k(wl.idler_nm) - np.sqrt(k_i**2 - q_i**2) + q_i * tilt
    )
    env = np.exp(-(problem.waist_m**2) * (q_s + q_i) ** 2 / 4.0)
    return env * _kernel(dk_z * (crystal.length_m / 2.0), problem.kernel)


@pytest.mark.parametrize("kernel", ["sinc", "gauss"])
@pytest.mark.parametrize("n", [256, 257])
@pytest.mark.parametrize("edge", [False, True], ids=["nominal", "filter-edge"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_evaluate_grid_matches_composed_amplitude(axis, edge, n, kernel):
    # Non-degenerate with walk-off; the filter-edge slice (2.5 FWHM off
    # center) has per-arm kernel arguments of ~100 rad that cancel in the sum.
    problem = make_setup(signal_nm=780.0, grid_n=n, kernel=kernel)
    q = problem.square_grid()
    pair = edge_pair() if edge else nominal(problem)
    got = oracle.toarray(oracle.kernel_band(q, q, problem, axis, pair))
    np.testing.assert_allclose(got, composed_amplitude(q, problem, axis, pair),
                               rtol=0, atol=1e-11)
    if n % 2 and not edge:
        # the odd grid holds q = 0, where the kernel argument is exactly 0
        assert got[n // 2, n // 2] == 1.0


def dense_amplitude(q_s, q_i, problem, axis, pair):
    """Every grid point evaluated by ``oracle.amplitude``, as one column x row broadcast."""
    return oracle.amplitude(q_s[:, None], q_i[None, :], problem, axis, pair)


#: Grid sizes around the row block: n x n on the square grid, and one
#: signal grid unlike its idler grid, as the camera's are.
BLOCK_SIZES = [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 7,
               (3 * _ROW_BLOCK + 7, 256)]


def block_grids(n, **settings):
    """The problem (``make_setup(**settings)``) and its (q_s, q_i) grids
    for ``n`` of ``BLOCK_SIZES`` or a square size: the n-point square grid
    for both, or for n = (n_s, n_i) the n_i-point square grid as the idler
    and n_s points over 0.97 of its span as the signal."""
    n_s, n_i = n if isinstance(n, tuple) else (n, n)
    problem = make_setup(grid_n=n_i, **settings)
    q_i = problem.square_grid()
    q_s = q_i if n_s == n_i else np.linspace(0.97 * q_i[0], 0.97 * q_i[-1], n_s)
    return problem, q_s, q_i


def same_bits(x, y):
    """Equal arrays whose zeros also agree in sign."""
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("waist_um", [20, 100, 500, 2000])
@pytest.mark.parametrize("kernel", ["sinc", "gauss"])
@pytest.mark.parametrize("n", [256, 257, *BLOCK_SIZES],
                         ids=lambda n: "x".join(map(str, n)) if isinstance(n, tuple) else None)
@pytest.mark.parametrize("edge", [False, True], ids=["nominal", "filter-edge"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_evaluate_grid_equals_dense_broadcast(axis, edge, n, kernel, waist_um):
    # The block kernel run over the grids' pump-envelope band, a row block
    # at a time (``oracle.kernel_band``).  The envelope band covers the
    # whole grid at 20 um, most of it at 100 um, ~10 % at 500 um, and fewer
    # columns than one row block at 2000 um.  The row counts fill one row
    # block short, exactly, and one over, and end in a partial block; the
    # band's entries match the dense ones to the sign of zero.
    problem, q_s, q_i = block_grids(n, signal_nm=780.0, waist_m=waist_um * 1e-6, kernel=kernel)
    pair = edge_pair() if edge else nominal(problem)
    band = oracle.kernel_band(q_s, q_i, problem, axis, pair)
    dense = dense_amplitude(q_s, q_i, problem, axis, pair)
    assert np.array_equal(oracle.toarray(band), dense)
    cols = band.start[:, None] + np.arange(band.width)
    assert same_bits(band.data, np.take_along_axis(dense, cols, axis=1))


@pytest.mark.parametrize("waist_um", [20, 500])
def test_evaluate_grid_band_is_the_envelope_windows(waist_um):
    # The widest envelope_columns window as one width, with a start per
    # row covering its own; at 20 um that is the whole grid.  The block
    # kernel gives one value per row and window column.
    problem = make_setup(waist_m=waist_um * 1e-6, grid_n=256)
    q = problem.square_grid()
    first, stop = envelope_columns(q, q, problem.waist_m)
    start, width = _windows(first, stop, q.size)
    assert width == np.max(stop - first)
    assert np.all(start <= first) and np.all(start + width >= stop)
    assert (width == q.size) == (waist_um == 20)
    rows = slice(0, _ROW_BLOCK)
    a, b = slice_arms(problem, "y", nominal(problem))(q, q)[:2]
    values = evaluate_grid(a[rows], q[rows], (q, b), start[rows, None] + np.arange(width),
                           problem)
    assert values.shape == (_ROW_BLOCK, width)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_evaluate_grid_on_given_windows(axis):
    # Given windows that cover the band's, each row holds the dense
    # amplitude on exactly those columns, bit for bit and to the sign of
    # zero, on grids around the row block too.
    for n in (256, *BLOCK_SIZES):
        problem, q_s, q_i = block_grids(n)
        pair = nominal(problem)
        band = oracle.kernel_band(q_s, q_i, problem, axis, pair)
        width = band.width + 20
        start = np.clip(band.start - 10, 0, q_i.size - width)
        got = oracle.kernel_band(q_s, q_i, problem, axis, pair, (start, width))
        cols = start[:, None] + np.arange(width)
        assert same_bits(got.data, np.take_along_axis(
            dense_amplitude(q_s, q_i, problem, axis, pair), cols, axis=1))
        assert np.array_equal(oracle.toarray(got), oracle.toarray(band))


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("kernel", ["sinc", "gauss"])
def test_evaluate_grid_working_set_is_one_row_block(kernel, n):
    # One call of the block kernel on a row block of the pump-envelope
    # band over the whole idler grid holds the two idler tables gathered
    # for the block (the first of them returned) and the kernel's
    # temporaries: under 8 block x width float64 arrays, where one gather
    # for all n rows holds 2 n x width.
    problem = make_setup(grid_n=n, kernel=kernel)
    q, pair = problem.square_grid(), nominal(problem)
    start, width = oracle.envelope_windows(q, q, problem)
    rows = slice(n // 2, n // 2 + _ROW_BLOCK)
    a, b = slice_arms(problem, "y", pair)(q, q)[:2]
    block = (a[rows], q[rows], (q, b), start[rows, None] + np.arange(width), problem)
    evaluate_grid(*block)
    tracemalloc.start()
    try:
        evaluate_grid(*block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n >= 16 * _ROW_BLOCK
    assert peak < 8 * _ROW_BLOCK * width * 8


def test_evaluate_grid_keeps_subnormal_envelope_edge():
    # float64 exp(-x) is subnormal, not 0, for x up to 745.14.  This grid
    # puts q_s + q_i exactly where w0^2 (q_s + q_i)^2 / 4 = 744.6, so the
    # band must reach past exponent 744 to keep those entries.
    problem = make_setup(waist_m=2000e-6)
    q_edge = math.sqrt(744.6) / problem.waist_m  # q_s = q_i = q_edge hits 744.6
    q = np.linspace(-1.28, 1.28, 257) * q_edge
    dense = dense_amplitude(q, q, problem, "x", nominal(problem))
    exponent = problem.waist_m**2 * (q[:, None] + q[None, :]) ** 2 / 4
    edge = (exponent > 744.0) & (exponent < 745.14)
    assert np.count_nonzero(dense[edge]) > 0
    band = oracle.kernel_band(q, q, problem, "x", nominal(problem))
    assert np.array_equal(oracle.toarray(band), dense)


@pytest.mark.parametrize("kernel", ["sinc", "gauss"])
def test_intensity_is_zero_outside_squared_envelope_columns(kernel):
    # The squared amplitude is subnormal, not 0, for envelope exponents up
    # to 372.57.  This grid puts q_s + q_i exactly where the exponent is
    # 372.4, so the power-2 columns must reach past exponent 372; outside
    # them the intensity must be exactly +0.0.
    problem = make_setup(waist_m=2000e-6, kernel=kernel)
    q_edge = math.sqrt(372.4) / problem.waist_m  # q_s = q_i = q_edge hits 372.4
    q = np.linspace(-1.28, 1.28, 257) * q_edge
    intensity = dense_amplitude(q, q, problem, "x", nominal(problem)) ** 2
    exponent = problem.waist_m**2 * (q[:, None] + q[None, :]) ** 2 / 4
    assert np.count_nonzero(intensity[(exponent > 372.0) & (exponent < 372.57)]) > 0
    first, stop = envelope_columns(q, q, problem.waist_m, power=2)
    cols = np.arange(q.size)
    outside = (cols < first[:, None]) | (cols >= stop[:, None])
    assert np.count_nonzero(outside) > 0
    assert np.all(intensity[outside] == 0.0)
    assert not np.any(np.signbit(intensity[outside]))


def test_evaluate_grid_checks_evanescent_columns_outside_band():
    # The idler grid reaches the propagation cone only in its outer
    # columns, far outside the envelope band of every signal row; the
    # evanescent check covers the whole idler grid the block kernel is
    # given all the same.
    problem = make_setup()
    wl = problem.wl
    k_i = 2 * math.pi * BBO.index_ordinary(wl.idler_nm) / (wl.idler_nm * 1e-9)
    q_s = np.linspace(-1e4, 1e4, 64)
    q_i = np.linspace(-1.1 * k_i, 1.1 * k_i, 257)
    evanescent = np.abs(q_i) >= k_i
    assert evanescent.any()
    assert np.all(np.abs(q_i[evanescent]) - 1e4 > 2 * math.sqrt(746.0) / problem.waist_m)
    with pytest.raises(EvanescentInputError):
        oracle.kernel_band(q_s, q_i, problem, "x", nominal(problem))


def test_evaluate_grid_point_inversion_symmetry():
    # Degenerate x-axis setup: no walk-off term, so the amplitude is
    # invariant under (q_s, q_i) -> (-q_s, -q_i).
    problem = make_setup(grid_n=33)
    q = problem.square_grid()
    mat = oracle.toarray(oracle.kernel_band(q, q, problem, "x", nominal(problem)))
    np.testing.assert_allclose(mat, mat[::-1, ::-1], rtol=0, atol=1e-15)


def test_degenerate_x_jid_is_antidiagonal():
    # Intensity-weighted principal axis of the momentum JID: slope -1.
    problem = make_setup(grid_n=512)
    qs = qi = problem.square_grid()
    weights = oracle.toarray(oracle.kernel_band(qs, qi, problem, "x", nominal(problem)))
    weights *= weights
    total = weights.sum()
    mu_s = (weights.sum(axis=1) * qs).sum() / total
    mu_i = (weights.sum(axis=0) * qi).sum() / total
    v_s = (weights.sum(axis=1) * (qs - mu_s) ** 2).sum() / total
    v_i = (weights.sum(axis=0) * (qi - mu_i) ** 2).sum() / total
    c = ((qs - mu_s)[:, None] * weights * (qi - mu_i)[None, :]).sum() / total
    cov = np.array([[v_s, c], [c, v_i]])
    evals, evecs = np.linalg.eigh(cov)
    principal = evecs[:, np.argmax(evals)]
    slope = principal[1] / principal[0]
    assert slope == pytest.approx(-1.0, abs=0.01)
