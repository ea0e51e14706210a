"""Per-arm phase mismatch, kernels, pump envelope, and amplitude grids."""

import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdcsim.biphoton import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    EvanescentInputError,
    GridMemoryError,
    RowBand,
    _ROW_BLOCK,
    _arm_arguments,
    _arm_dk_z,
    _envelope_times_kernel,
    _kernel,
    _kernel_with_slope,
    amplitude,
    envelope_columns,
    evaluate_grid,
)
from spdcsim.camera import camera_jpds
from spdcsim.dispersion import CrystalSetup, SellmeierSet, SpdcWavelengths
from spdcsim.spectral import FilterSpec, Problem, certify_axis, sample_spectrum

import oracle

BBO = SellmeierSet.bbo()
SINC_MIN = -0.21723362821122166  # global minimum of sin(u)/u


def make_setup(signal_nm=810.0, length_m=1e-3, waist_m=500e-6, **settings):
    """The collinear BBO problem with a 5 nm filter on the signal;
    ``settings`` are further ``Problem`` fields (kernel, grid_n, ...)."""
    wl = SpdcWavelengths.from_pump_signal(405.0, signal_nm)
    crystal = CrystalSetup.collinear(wl, BBO, length_m)
    return Problem(wl, crystal, waist_m, FilterSpec("gaussian", signal_nm, 5.0), **settings)


def nominal(problem):
    """The nominal (signal, idler) wavelength pair."""
    return (problem.wl.signal_nm, problem.wl.idler_nm)


def edge_pair():
    """The first (filter-edge) slice of a 5 nm filter at 780 nm: 1.59 FWHM off center."""
    lam_s, lam_i, _ = sample_spectrum(FilterSpec("gaussian", 780.0, 5.0), 405.0)[0]
    return (lam_s, lam_i)


# -- mismatch ---------------------------------------------------------------


def dk_z(q_s, q_i, wl, crystal, pair=None):
    """Longitudinal mismatch as the sum of the two arms' shares, for
    q_s = (q_sx, q_sy) and q_i = (q_ix, q_iy) at the (signal, idler)
    wavelengths ``pair`` (default nominal)."""
    if pair is None:
        pair = (wl.signal_nm, wl.idler_nm)
    share_s, _ = _arm_dk_z(crystal, pair[0], wl.signal_nm, *q_s)
    share_i, _ = _arm_dk_z(crystal, pair[1], wl.idler_nm, *q_i)
    return share_s + share_i


def test_mismatch_zero_at_aligned_point():
    problem = make_setup()
    # exact by re-centering
    assert float(dk_z((0.0, 0.0), (0.0, 0.0), problem.wl, problem.crystal)) == 0.0


def test_mismatch_against_paraxial_oracle():
    # Degenerate 810 nm, q_sx = -q_ix = 1e5 rad/m, y components zero.
    # Independent paraxial evaluation: q^2/(2 k_s) + q^2/(2 k_i).
    problem = make_setup()
    wl, crystal = problem.wl, problem.crystal
    got = float(dk_z((1e5, 0.0), (-1e5, 0.0), wl, crystal))
    assert got == pytest.approx(776.4902952648699, rel=1e-12)
    assert got == pytest.approx(776.4785910710019, rel=1e-3)


def test_mismatch_x_mirror_symmetry():
    problem = make_setup()
    wl, crystal = problem.wl, problem.crystal
    a = dk_z((3e4, 0.0), (1e4, 0.0), wl, crystal)
    b = dk_z((-3e4, 0.0), (-1e4, 0.0), wl, crystal)
    assert float(a) == float(b)


def test_mismatch_y_walkoff_breaks_mirror_symmetry():
    problem = make_setup()
    wl, crystal = problem.wl, problem.crystal
    a = dk_z((0.0, 3e4), (0.0, 1e4), wl, crystal)
    b = dk_z((0.0, -3e4), (0.0, -1e4), wl, crystal)
    assert float(a) != pytest.approx(float(b), rel=1e-6)


def test_mismatch_rejects_evanescent_input():
    problem = make_setup()
    wl, crystal = problem.wl, problem.crystal
    with pytest.raises(EvanescentInputError):
        dk_z((2e7, 0.0), (0.0, 0.0), wl, crystal)


@given(q=st.floats(-1e6, 1e6))
@settings(max_examples=25, deadline=None)
def test_mismatch_transverse_components_are_negated_sums(q):
    # The transverse mismatch -(q_s + q_i) enters only the pump envelope:
    # the amplitude is the envelope at q_s + q_i times the kernel.
    problem = make_setup(kernel="gauss")
    wl, crystal = problem.wl, problem.crystal
    a, b, _, _ = _arm_arguments(q, 0.5 * q, "x", nominal(problem), crystal, wl)
    w0 = problem.waist_m
    expected = np.exp(-(w0 * w0) * (-(q + 0.5 * q)) ** 2 / 4.0) * _kernel(a + b, "gauss")
    assert float(amplitude(q, 0.5 * q, problem, "x", nominal(problem))) == float(expected)


def test_exact_vs_paraxial_within_cone():
    # Agreement to 1e-3 relative for |q| <= 0.02 k, on both arms.
    problem = make_setup()
    wl, crystal = problem.wl, problem.crystal
    k_s = 2 * math.pi * BBO.index_ordinary(810.0) / 810e-9
    for frac in (0.005, 0.01, 0.02):
        q = frac * k_s
        exact = dk_z((q, 0.0), (q, 0.0), wl, crystal)
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
    problem = make_setup()
    for waist_m in (0.0, -500e-6, math.nan):
        with pytest.raises(ValueError, match="waist"):
            replace(problem, waist_m=waist_m)


# -- amplitude ---------------------------------------------------------------


def test_amplitude_peak_at_aligned_point():
    problem = make_setup()
    assert float(amplitude(0.0, 0.0, problem, "x", nominal(problem))) == 1.0


def test_amplitude_on_antidiagonal_is_kernel_only():
    # q_i = -q_s kills the envelope argument exactly.
    problem = make_setup()
    wl, crystal = problem.wl, problem.crystal
    q = 2e5
    u = float(dk_z((q, 0.0), (-q, 0.0), wl, crystal)) * crystal.length_m / 2
    expected = math.sin(u) / u
    assert float(amplitude(q, -q, problem, "x", nominal(problem))) == pytest.approx(
        expected, rel=1e-12
    )


def test_amplitude_decays_with_envelope():
    problem = make_setup()
    # Along the diagonal q_s = q_i the kernel stays near 1 for small q
    # and the envelope dominates: amplitude ~ exp(-w0^2 (2q)^2 / 4).
    q = 1.0 / problem.waist_m
    got = float(amplitude(q, q, problem, "x", nominal(problem)))
    env = math.exp(-(problem.waist_m**2) * (2 * q) ** 2 / 4)
    assert got == pytest.approx(env, rel=1e-3)


@given(q=st.floats(-4e5, 4e5))
@settings(max_examples=40, deadline=None)
def test_amplitude_bounded(q):
    problem = make_setup()
    val = float(amplitude(q, 0.3 * q, problem, "y", nominal(problem)))
    assert SINC_MIN - 1e-12 <= val <= 1.0


def test_gauss_kernel_matches_sinc_curvature():
    problem = make_setup()
    wl, crystal = problem.wl, problem.crystal
    q = 8e4  # keeps the kernel argument u ~ 0.25, inside the O(u^2) regime
    a_sinc = float(amplitude(q, -q, problem, "x", nominal(problem)))
    a_gauss = float(amplitude(q, -q, replace(problem, kernel="gauss"), "x", nominal(problem)))
    u = float(dk_z((q, 0.0), (-q, 0.0), wl, crystal)) * crystal.length_m / 2
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
    wl, crystal = problem.wl, problem.crystal
    pair = (781.5, wl.idler_nm)  # the idler is not energy-matched; each arm stands alone
    q = np.linspace(-3e5, 3e5, 7)
    h = 100.0
    a, b, da, db = _arm_arguments(q, -q, axis, pair, crystal, wl)
    a_hi, b_hi, _, _ = _arm_arguments(q + h, -q + h, axis, pair, crystal, wl)
    a_lo, b_lo, _, _ = _arm_arguments(q - h, -q - h, axis, pair, crystal, wl)
    # the slopes are ~1e-5; arguments ~10 round to ~1e-15, so the central
    # difference carries ~1e-17 of rounding and ~1e-16 of truncation
    np.testing.assert_allclose(da, (a_hi - a_lo) / (2 * h), rtol=1e-7, atol=1e-13)
    np.testing.assert_allclose(db, (b_hi - b_lo) / (2 * h), rtol=1e-7, atol=1e-13)


def test_unknown_kernel_rejected():
    problem = make_setup(kernel="lorentzian")
    with pytest.raises(ValueError):
        amplitude(0.0, 0.0, problem, "x", nominal(problem))


def test_axis_other_than_x_or_y_rejected():
    """Every evaluation takes its axis through ``_arm_arguments``, which
    rejects all but "x" and "y" (a "z" was a y slice without the walk-off
    tilt)."""
    problem = make_setup(signal_nm=780.0, grid_n=64, n_slices=3)
    q = problem.square_grid()
    with pytest.raises(ValueError, match="axis must be 'x' or 'y', got 'z'"):
        evaluate_grid(q, q, problem, "z", nominal(problem))
    with pytest.raises(ValueError, match="axis must be 'x' or 'y', got 'z'"):
        certify_axis(problem, "z")
    with pytest.raises(ValueError, match="axis must be 'x' or 'y', got 'z'"):
        camera_jpds(problem, "z", 0.25)


def test_arm_arguments_carry_the_collinear_mismatch_of_the_cut():
    # A cut 0.1 degree off the phase-matching angle: at q = 0 the per-arm
    # shares vanish and a + b is the cut's (L/2) dk_0.
    problem = make_setup(signal_nm=780.0)
    wl, crystal = problem.wl, problem.crystal
    detuned = CrystalSetup.at_angle(wl, BBO, crystal.length_m, crystal.theta_p + math.radians(0.1))
    assert crystal.collinear_mismatch == 0.0
    assert detuned.collinear_mismatch != 0.0
    zero = np.zeros(1)
    a, b, _, _ = _arm_arguments(zero, zero, "x", nominal(problem), detuned, wl)
    assert float(a[0] + b[0]) == pytest.approx(
        0.5 * crystal.length_m * detuned.collinear_mismatch, rel=1e-12
    )
    # dk_0 is a constant: it moves a alone, and neither slope
    shifted = replace(crystal, collinear_mismatch=detuned.collinear_mismatch)
    q = np.linspace(-3e5, 3e5, 7)
    for axis in ("x", "y"):
        a, b, da, db = _arm_arguments(q, -q, axis, nominal(problem), crystal, wl)
        a2, b2, da2, db2 = _arm_arguments(q, -q, axis, nominal(problem), shifted, wl)
        np.testing.assert_allclose(a2 - a, 0.5 * crystal.length_m * shifted.collinear_mismatch,
                                   rtol=1e-12)
        assert np.array_equal(b2, b) and np.array_equal(da2, da) and np.array_equal(db2, db)


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
    assert problem.diff_grid()[-1] == pytest.approx(dmax, rel=1e-12)


@pytest.mark.parametrize("bad", [
    np.array([-1.0, 0.5, 0.2, 1.0]) * 1e5,
    np.array([-1.0, 0.0, 0.0, 1.0]) * 1e5,
    np.linspace(-1e5, 1e5, 16).reshape(4, 4),
], ids=["not-increasing", "repeated-point", "not-1d"])
def test_evaluate_grid_rejects_unordered_grids(bad):
    # the column search of the envelope band needs 1-D increasing grids
    problem = make_setup()
    good = np.linspace(-1e5, 1e5, 16)
    for q_s, q_i in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="strictly increasing"):
            evaluate_grid(q_s, q_i, problem, "x", nominal(problem))


def test_evaluate_grid_matches_pointwise():
    problem = make_setup(grid_n=64)
    q, pair = problem.square_grid(), nominal(problem)
    mat = oracle.toarray(evaluate_grid(q, q, problem, "y", pair))
    assert mat.shape == (64, 64)
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = int(rng.integers(0, 64))
        l = int(rng.integers(0, 64))
        pt = float(amplitude(q[k], q[l], problem, "y", pair))
        assert mat[k, l] == pt
    # the amplitude lives in a narrow band around the anti-diagonal
    # q_i = -q_s, which is q[63 - k] on this symmetric grid
    for k in rng.integers(0, 64, size=10):
        for l in range(max(62 - int(k), 0), min(66 - int(k), 64)):
            pt = float(amplitude(q[k], q[l], problem, "y", pair))
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
    got = oracle.toarray(evaluate_grid(q, q, problem, axis, pair))
    np.testing.assert_allclose(got, composed_amplitude(q, problem, axis, pair),
                               rtol=0, atol=1e-11)
    if n % 2 and not edge:
        # the odd grid holds q = 0, where the kernel argument is exactly 0
        assert got[n // 2, n // 2] == 1.0


def dense_amplitude(q_s, q_i, problem, axis, pair):
    """Every grid point evaluated, as one column x row broadcast."""
    return amplitude(q_s[:, None], q_i[None, :], problem, axis, pair)


#: Grid sizes around ``evaluate_grid``'s row block: n x n on the square
#: grid, and one signal grid unlike its idler grid, as the camera's are.
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
    # The envelope band covers the whole grid at 20 um, most of it at
    # 100 um, ~10 % at 500 um, and fewer columns than one row block at 2000 um.
    # The row counts fill one row block short, exactly, and one over, and
    # end in a partial block; the band's entries match the dense ones to
    # the sign of zero.
    problem, q_s, q_i = block_grids(n, signal_nm=780.0, waist_m=waist_um * 1e-6, kernel=kernel)
    pair = edge_pair() if edge else nominal(problem)
    band = evaluate_grid(q_s, q_i, problem, axis, pair)
    dense = dense_amplitude(q_s, q_i, problem, axis, pair)
    assert np.array_equal(oracle.toarray(band), dense)
    cols = band.start[:, None] + np.arange(band.width)
    assert same_bits(band.data, np.take_along_axis(dense, cols, axis=1))


@pytest.mark.parametrize("waist_um", [20, 500])
def test_evaluate_grid_band_is_the_envelope_windows(waist_um):
    # Every row keeps one window as wide as the widest envelope_columns
    # window, covering its own; at 20 um that is the whole grid.
    problem = make_setup(waist_m=waist_um * 1e-6, grid_n=256)
    q = problem.square_grid()
    band = evaluate_grid(q, q, problem, "y", nominal(problem))
    first, stop = envelope_columns(q, q, problem.waist_m)
    assert isinstance(band, RowBand)
    assert band.n_cols == q.size and band.data.shape == (q.size, band.width)
    assert band.width == np.max(stop - first)
    assert np.all(band.start <= first) and np.all(band.start + band.width >= stop)
    assert (band.width == q.size) == (waist_um == 20)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_evaluate_grid_on_given_windows(axis):
    # Given windows that cover the band's, each row holds the dense
    # amplitude on exactly those columns, bit for bit and to the sign of
    # zero, on grids around the row block too; windows must give one
    # start per row and lie inside the idler grid.
    for n in (256, *BLOCK_SIZES):
        problem, q_s, q_i = block_grids(n)
        pair = nominal(problem)
        band = evaluate_grid(q_s, q_i, problem, axis, pair)
        width = band.width + 20
        start = np.clip(band.start - 10, 0, q_i.size - width)
        got = evaluate_grid(q_s, q_i, problem, axis, pair, (start, width))
        cols = start[:, None] + np.arange(width)
        assert np.array_equal(got.start, start) and got.width == width
        assert same_bits(got.data, np.take_along_axis(
            dense_amplitude(q_s, q_i, problem, axis, pair), cols, axis=1))
        assert np.array_equal(oracle.toarray(got), oracle.toarray(band))
        for bad in ((start[:-1], width), (np.full(q_s.size, -1), 4),
                    (np.full(q_s.size, q_i.size - 3), 4)):
            with pytest.raises(ValueError, match="windows must give one start per signal row"):
                evaluate_grid(q_s, q_i, problem, axis, pair, bad)


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("kernel", ["sinc", "gauss"])
def test_evaluate_grid_working_set_is_one_row_block(kernel, n):
    # Beside its band, evaluate_grid holds the two idler tables gathered
    # for one block of rows (with their column indices), the kernel's
    # sin(u)/u of the block and some 1-D arrays of the grid: under 8
    # block x width float64 arrays, where one gather for all n rows holds
    # 2 n x width.
    problem = make_setup(grid_n=n, kernel=kernel)
    q, pair = problem.square_grid(), nominal(problem)
    evaluate_grid(q, q, problem, "y", pair)
    tracemalloc.start()
    try:
        band = evaluate_grid(q, q, problem, "y", pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n >= 16 * _ROW_BLOCK
    assert peak - band.nbytes < 8 * _ROW_BLOCK * band.width * 8


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
    band = evaluate_grid(q, q, problem, "x", nominal(problem))
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
    # evanescent check covers the whole grid all the same.
    problem = make_setup()
    wl = problem.wl
    k_i = 2 * math.pi * BBO.index_ordinary(wl.idler_nm) / (wl.idler_nm * 1e-9)
    q_s = np.linspace(-1e4, 1e4, 64)
    q_i = np.linspace(-1.1 * k_i, 1.1 * k_i, 257)
    evanescent = np.abs(q_i) >= k_i
    assert evanescent.any()
    assert np.all(np.abs(q_i[evanescent]) - 1e4 > 2 * math.sqrt(746.0) / problem.waist_m)
    with pytest.raises(EvanescentInputError):
        evaluate_grid(q_s, q_i, problem, "x", nominal(problem))


def test_evaluate_grid_point_inversion_symmetry():
    # Degenerate x-axis setup: no walk-off term, so the amplitude is
    # invariant under (q_s, q_i) -> (-q_s, -q_i).
    problem = make_setup(grid_n=33)
    q = problem.square_grid()
    mat = oracle.toarray(evaluate_grid(q, q, problem, "x", nominal(problem)))
    np.testing.assert_allclose(mat, mat[::-1, ::-1], rtol=0, atol=1e-15)


def test_evaluate_grid_memory_budget():
    """On the 2048-point grid the pump band is 221 columns wide.  The
    charge is the band's values and row offsets, one 64-row block's 4
    arrays and 6 arrays of length N: 8 (2048 x 222 + 4 x 64 x 221 +
    6 x 2048) bytes, 3.99 MiB.  A 3 MiB budget stops it, 4 MiB runs it."""
    n, width = 2048, 221
    charge = 8 * (n * (width + 1) + 4 * 64 * width + 6 * n)
    assert 3 * 2**20 < charge <= 4 * 2**20 < DEFAULT_MEMORY_BUDGET_BYTES
    problem = make_setup(grid_n=n)
    q = problem.square_grid()
    with pytest.raises(GridMemoryError, match=r"^2048 x 2048 grid holding 1 slice band "
                       r"needs ~4 MiB \(budget 3 MiB\)$"):
        evaluate_grid(q, q, replace(problem, memory_budget_bytes=3 * 2**20), "x", nominal(problem))
    band = evaluate_grid(q, q, replace(problem, memory_budget_bytes=4 * 2**20), "x",
                         nominal(problem))
    assert band.width == width


def test_degenerate_x_jid_is_antidiagonal():
    # Intensity-weighted principal axis of the momentum JID: slope -1.
    problem = make_setup(grid_n=512)
    qs = qi = problem.square_grid()
    weights = oracle.toarray(evaluate_grid(qs, qi, problem, "x", nominal(problem)))
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
