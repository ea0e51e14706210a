"""Camera mapping, chromatic rescale, walk-off correction, resampling."""

import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spdcsim.camera
from spdcsim.biphoton import GridMemoryError, amplitude, envelope_columns, evaluate_grid
from spdcsim.camera import (
    CameraJPD,
    RowBand,
    _corrected,
    _slice_builder,
    camera_jpds,
    resample_conserving,
    slope_report,
)
from spdcsim.config import load_config
from spdcsim.dispersion import CrystalSetup, SellmeierSet, SpdcWavelengths
from spdcsim.spectral import FilterSpec, Problem, far_field_jid, sample_spectrum
from spdcsim.stats import ridge_fit

from oracle import matrix_moments

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BBO = SellmeierSet.bbo()
F = 0.25


def make_setup(signal_nm=780.0, length_m=1e-3, waist_m=500e-6, **settings):
    """The collinear BBO problem with a 5 nm Gaussian filter on the
    signal; ``settings`` are further ``Problem`` fields."""
    wl = SpdcWavelengths.from_pump_signal(405.0, signal_nm)
    crystal = CrystalSetup.collinear(wl, BBO, length_m)
    return Problem(wl, crystal, waist_m, FilterSpec("gaussian", signal_nm, 5.0), **settings)


def one_slice_problem(signal_nm=780.0, n=256):
    return make_setup(signal_nm=signal_nm, n_slices=1, grid_n=n)


def built_slices(problem, axis, magnification=1.0):
    """Every slice of ``problem`` on the camera, in sampling order, as
    ``camera_jpds`` builds it (the private builder)."""
    build = _slice_builder(problem, axis, F, magnification)
    return [build(k) for k in range(problem.n_slices)]


def camera_slice(axis="y", signal_nm=780.0, n=256):
    """The one camera slice of a monochromatic run, with its wavelengths."""
    problem = one_slice_problem(signal_nm=signal_nm, n=n)
    (cs,) = built_slices(problem, axis)
    return problem.wl, cs


def counting_evaluations(monkeypatch):
    """The list each ``evaluate_grid`` call of the camera appends to."""
    calls = []
    evaluate = spdcsim.camera.evaluate_grid
    monkeypatch.setattr(
        spdcsim.camera, "evaluate_grid", lambda *a: calls.append(a) or evaluate(*a)
    )
    return calls


# -- mapping ------------------------------------------------------------------


def test_camera_mapping_scale():
    wl, cs = camera_slice(n=64)
    assert cs.lambda_signal_nm == 780.0
    # Y = f lambda q / (2 pi)
    assert cs.scale_signal * 1e5 == pytest.approx(F * 780e-9 * 1e5 / (2 * math.pi), rel=1e-12)
    assert cs.scale_signal * 1e5 == pytest.approx(3.1036e-3, rel=1e-4)


def test_camera_mapping_validation(monkeypatch):
    """The focal length and the magnification must be finite and
    positive, on either axis; nothing is evaluated otherwise."""
    problem = one_slice_problem(n=64)
    calls = counting_evaluations(monkeypatch)
    for axis in ("x", "y"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="focal length must be finite and positive"):
                camera_jpds(problem, axis, bad)
            with pytest.raises(ValueError, match="magnification must be finite and positive"):
                camera_jpds(problem, axis, F, magnification=bad)
    assert calls == []


def test_map_to_camera_scales_axes():
    problem = one_slice_problem()
    jid = far_field_jid(problem, "y")
    (cs,) = built_slices(problem, "y")
    assert cs.y_signal[0] == pytest.approx(
        jid.axis_signal[0] * F * 780e-9 / (2 * math.pi), rel=1e-12
    )
    assert cs.y_idler[0] == pytest.approx(
        jid.axis_idler[0] * F * problem.wl.idler_nm * 1e-9 / (2 * math.pi), rel=1e-12
    )
    # intensities untouched, held as a band of the pump-envelope columns
    assert isinstance(cs.intensity, RowBand)
    assert np.array_equal(cs.intensity.toarray(), jid.intensity)
    assert np.count_nonzero(cs.intensity.data) == np.count_nonzero(jid.intensity)
    assert cs.intensity.nbytes < jid.intensity.nbytes / 8
    # on-axis point stays on axis
    mid = jid.axis_signal.size // 2
    assert cs.y_signal[mid] == jid.axis_signal[mid] * cs.scale_signal
    # the magnification scales both arms
    (magnified,) = built_slices(problem, "y", magnification=2.0)
    assert magnified.scale_signal == pytest.approx(2.0 * cs.scale_signal, rel=1e-15)
    np.testing.assert_allclose(magnified.y_idler, 2.0 * cs.y_idler, rtol=1e-15)


def test_ridge_intercept_is_the_slice_fit():
    """On y only, each slice's intercept is the ridge fit of its own
    momentum distribution: the moment engine's value lies within 1e-6 of
    the pump width 2/w0 of the fit of the slice's dense N x N intensity,
    at N = 1024 and 31 slices (measured at most 7.5e-7 and 8.1e-7 of it
    at 5 and 10 nm non-degenerate, 5.0e-7 degenerate)."""
    for name, fwhm_nm in (("nondegenerate_780", 5.0), ("nondegenerate_780", 10.0),
                          ("degenerate_810", None)):
        cfg = load_config(CONFIGS / f"{name}.yaml")
        if fwhm_nm is not None:
            cfg = replace(cfg, filter_fwhm_nm=fwhm_nm)
        problem = replace(cfg.build(), grid_n=1024, n_slices=31)
        q = problem.square_grid()
        spectrum = sample_spectrum(problem.filt, problem.wl.pump_nm, problem.n_slices)
        build = _slice_builder(problem, "y", F, 1.0)
        for k, (lam_s, lam_i, _) in enumerate(spectrum):
            cs = build(k)
            amp = evaluate_grid(q, q, problem, "y", (lam_s, lam_i)).toarray()
            dense = ridge_fit(matrix_moments("far", "y", q, q, amp * amp)).intercept
            assert abs(cs.ridge_intercept - dense) <= 1e-6 * (2.0 / problem.waist_m)
            assert cs.ridge_intercept != 0.0
    (cs_x,) = built_slices(one_slice_problem(), "x")
    assert cs_x.ridge_intercept is None


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("waist_um", [50, 500])
def test_slice_band_is_the_squared_amplitude(axis, waist_um):
    """Each slice's intensity is the square of ``amplitude`` on the
    power-2 ``envelope_columns`` windows, widened to one width, bit for
    bit.  The windows of the outer rows clip at the grid edge, most of
    them at 50 um."""
    problem = make_setup(waist_m=waist_um * 1e-6, n_slices=3, grid_n=256)
    q = problem.square_grid()
    first, stop = envelope_columns(q, q, problem.waist_m, power=2)
    width = int(np.max(stop - first))
    start = np.clip(first, 0, q.size - width)
    assert np.any(start < first)  # windows shifted back inside the grid
    build = _slice_builder(problem, axis, F, 1.0)
    for k, (lam_s, lam_i, _) in enumerate(
        sample_spectrum(problem.filt, problem.wl.pump_nm, problem.n_slices)
    ):
        amp = amplitude(q[:, None], q[None, :], problem, axis, (lam_s, lam_i))
        expected = np.take_along_axis(amp * amp, start[:, None] + np.arange(width), axis=1)
        band = build(k).intensity
        assert np.array_equal(band.start, start)
        assert np.array_equal(band.data, expected)
        assert np.array_equal(np.signbit(band.data), np.signbit(expected))


def test_degenerate_pair_has_identical_scales():
    wl, cs = camera_slice(signal_nm=810.0)
    assert np.array_equal(cs.y_signal, cs.y_idler)


# -- rescale (the x axis carries no walk-off: the rescale is all of it) ----------


def test_rescale_degenerate_is_identity():
    wl, cs = camera_slice(axis="x", signal_nm=810.0)
    rs = _corrected(cs)
    np.testing.assert_array_equal(rs.y_idler, cs.y_idler)


def test_rescale_factor_and_roundtrip():
    wl, cs = camera_slice(axis="x")
    rs = _corrected(cs)
    factor = 780.0 / wl.idler_nm
    assert factor == pytest.approx(0.925926, abs=1e-6)
    np.testing.assert_allclose(rs.y_idler, cs.y_idler * factor, rtol=1e-15)
    # invertible
    np.testing.assert_allclose(rs.y_idler / factor, cs.y_idler, rtol=1e-12)
    # after rescale both arms sit on the signal scale
    np.testing.assert_allclose(rs.y_idler, rs.y_signal, rtol=1e-15)
    # on y the same rescale comes first, then the fitted shift
    wl, cs = camera_slice(axis="y")
    shifted = cs.y_idler * factor - cs.scale_signal * cs.ridge_intercept
    assert np.array_equal(_corrected(cs).y_idler, shifted)


# -- walk-off correction --------------------------------------------------------


def test_fitted_shift_small_for_degenerate():
    wl, cs = camera_slice(axis="y", signal_nm=810.0)
    corr = _corrected(cs)
    # symmetric degenerate slice (rescale factor 1): fitted intercept well
    # under a grid cell
    cell = float(cs.y_idler[1] - cs.y_idler[0])
    assert abs(float(cs.y_idler[0] - corr.y_idler[0])) < cell


def test_fitted_shift_removes_nondegenerate_intercept():
    wl, cs = camera_slice(axis="y", signal_nm=780.0)
    corr = _corrected(cs)
    q_idler = corr.y_idler / corr.scale_signal  # the idler is on the signal scale
    fit = ridge_fit(matrix_moments(
        "far", "y", corr.y_signal / corr.scale_signal, q_idler, corr.intensity.toarray()
    ))
    cell_q = float(q_idler[1] - q_idler[0])
    assert abs(fit.intercept) < cell_q


# -- resampling ---------------------------------------------------------------


def full_band(values):
    """A dense matrix as a band of full width."""
    values = np.asarray(values, dtype=float)
    return RowBand(values, np.zeros(values.shape[0], dtype=np.intp), values.shape[1])


def resample_dense(values, src_axis, dst_axis, axis=1):
    """``resample_conserving`` of a dense matrix, as a dense matrix."""
    return resample_conserving(full_band(values), src_axis, dst_axis, axis=axis).toarray()


def test_resample_exact_for_linear_density():
    # Cell-averaging a piecewise-linear density reproduces linear data
    # exactly away from the clipped boundary cells.
    src = np.linspace(-1.0, 1.0, 128)
    vals = (3.0 + 2.0 * src)[None, :]
    out = resample_dense(vals, src, src, axis=1)
    np.testing.assert_allclose(out[:, 1:-1], vals[:, 1:-1], rtol=0, atol=1e-12)


def test_resample_conserves_mass():
    src = np.linspace(-5.0, 5.0, 257)
    dst = np.linspace(-6.0, 6.0, 193)  # covers the source
    vals = np.exp(-(src**2))[None, :]
    out = resample_dense(vals, src, dst, axis=1)
    mass_src = vals.sum() * (src[1] - src[0])
    mass_dst = out.sum() * (dst[1] - dst[0])
    assert mass_dst == pytest.approx(mass_src, rel=1e-6)


def test_resample_handles_scaled_axis():
    # density on a stretched axis lands back with the same mass
    src = np.linspace(-2.0, 2.0, 200)
    dst = np.linspace(-2.0, 2.0, 200)
    vals = np.exp(-(src**2) * 4)[None, :]
    out = resample_dense(vals, src * 0.9259, dst, axis=1)
    mass_src = vals.sum() * (src[1] - src[0]) * 0.9259
    mass_dst = out.sum() * (dst[1] - dst[0])
    assert mass_dst == pytest.approx(mass_src, rel=1e-6)


def test_resample_zero_outside_support():
    src = np.linspace(-1.0, 1.0, 64)
    dst = np.linspace(-4.0, 4.0, 64)
    out = resample_dense(np.ones((1, 64)), src, dst, axis=1)
    assert out[0, 0] == 0.0
    assert out[0, -1] == 0.0


def _reference_edges(axis):
    mid = 0.5 * (axis[1:] + axis[:-1])
    first = axis[0] - (axis[1] - axis[0]) / 2.0
    last = axis[-1] + (axis[-1] - axis[-2]) / 2.0
    return np.concatenate([[first], mid, [last]])


def reference_resample(values, src_axis, dst_axis, axis=1):
    """The cumulative-antiderivative form of the same map: the exact
    integral of the piecewise-linear density, differenced at the clipped
    destination edges."""
    if axis == 0:
        return reference_resample(values.T, src_axis, dst_axis, axis=1).T
    src = np.asarray(src_axis, dtype=float)
    d = np.asarray(values, dtype=float)
    h = np.diff(src)
    seg = 0.5 * (d[..., 1:] + d[..., :-1]) * h
    f_knots = np.concatenate(
        [np.zeros(d.shape[:-1] + (1,)), np.cumsum(seg, axis=-1)], axis=-1
    )
    edges = np.clip(_reference_edges(np.asarray(dst_axis, dtype=float)), src[0], src[-1])
    j = np.clip(np.searchsorted(src, edges, side="right") - 1, 0, src.size - 2)
    t = edges - src[j]
    slope = (d[..., j + 1] - d[..., j]) / h[j]
    f_edges = f_knots[..., j] + d[..., j] * t + 0.5 * slope * t * t
    masses = np.diff(f_edges, axis=-1)
    widths = np.diff(_reference_edges(np.asarray(dst_axis, dtype=float)))
    return masses / widths


# (rows, source knots, destination cells): even, odd, and non-square both ways
SHAPES = [(5, 64, 64), (5, 65, 65), (7, 48, 65), (7, 65, 48)]
# source centred on the destination; shifted so each sticks out of the
# other; shifted so most destination cells lie beyond the source
SHIFTS = [0.0, 0.5, -1.5]


def resample_case(shape, scale, shift, seed=0):
    rows, n_src, n_dst = shape
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size=(rows, n_src))
    src = scale * np.linspace(-1.0, 1.0, n_src) + shift
    dst = np.linspace(-1.0, 1.0, n_dst)
    return values, src, dst


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("scale", [0.9259, 1.0, 1.08])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_resample_matches_antiderivative_reference(shape, scale, shift, axis):
    values, src, dst = resample_case(shape, scale, shift)
    if axis == 0:
        values = values.T
    out = resample_dense(values, src, dst, axis=axis)
    ref = reference_resample(values, src, dst, axis=axis)
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("scale", [0.9259, 1.0, 1.08])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_resample_properties(shape, scale, shift):
    values, src, dst = resample_case(shape, scale, shift, seed=1)
    out = resample_dense(values, src, dst, axis=1)
    # the two axes are one map
    assert np.array_equal(resample_dense(values.T, src, dst, axis=0), out.T)
    assert out.min() >= 0.0
    # every cell wholly outside the source support is exactly empty
    edges = _reference_edges(dst)
    outside = (edges[1:] <= src[0]) | (edges[:-1] >= src[-1])
    assert np.all(out[:, outside] == 0.0)
    assert np.all(out[:, ~outside].max(axis=0) > 0.0)
    # mass inside the destination range: the exact integral of the
    # piecewise-linear density between the clipped outer edges
    lo, hi = max(edges[0], src[0]), min(edges[-1], src[-1])
    knots = np.concatenate([[lo], src[(src > lo) & (src < hi)], [hi]])
    for row, out_row in zip(values, out):
        density = np.interp(knots, src, row)
        mass = np.sum(0.5 * (density[1:] + density[:-1]) * np.diff(knots))
        assert np.sum(out_row * np.diff(edges)) == pytest.approx(mass, rel=1e-12)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("scale", [0.9259, 1.0, 1.08])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_resample_sparse_equals_dense(shape, scale, shift, axis):
    """A narrow ``RowBand``, the sparse form the camera holds, gives the
    result of the full-width band exactly, zeros' signs included."""
    values, src, dst = resample_case(shape, scale, shift, seed=2)
    if axis == 0:
        values = values.T
    n_rows, n_cols = values.shape
    # windows that slide from column 0 to column N - 1 down the rows, as
    # the camera's anti-diagonal band does, and an empty row
    width = max(2, n_cols // 4)
    first = np.arange(n_rows) * (n_cols - width) // (n_rows - 1)
    stop = first + width
    first[1] = stop[1] = n_cols // 2
    cols = np.arange(n_cols)
    values[(cols < first[:, None]) | (cols >= stop[:, None])] = 0.0
    values[values < 0.3] = 0.0  # scattered zeros inside the windows
    full = full_band(values)
    dense = resample_conserving(full, src, dst, axis=axis).toarray()
    narrow = full.narrowed(first, stop)
    assert narrow.width < n_cols and full.width == n_cols
    assert np.array_equal(narrow.toarray(), values)
    out = resample_conserving(narrow, src, dst, axis=axis)
    assert isinstance(out, RowBand)
    out = out.toarray()
    assert np.array_equal(out, dense)
    assert np.array_equal(np.signbit(out), np.signbit(dense))
    # narrowing a band to windows that stick out of its own fills +0.0
    shifted = narrow.narrowed(first + width // 2, stop + width // 2)
    assert np.array_equal(shifted.data, full.narrowed(first + width // 2, stop + width // 2).data)
    assert not np.any(np.signbit(shifted.data))


# -- accumulation and slopes -----------------------------------------------------


def build_jpds(signal_nm, n_slices, grid_n):
    """The uncorrected and the corrected y-axis JPD of ``camera_jpds``."""
    return camera_jpds(make_setup(signal_nm=signal_nm, n_slices=n_slices, grid_n=grid_n), "y", F)


def test_single_degenerate_slice_slope():
    jpd, _ = build_jpds(signal_nm=810.0, n_slices=1, grid_n=512)
    rep = slope_report(jpd)
    assert rep["slope_principal_axis"] == pytest.approx(-1.0, abs=0.01)
    assert not jpd.corrected


def test_uncorrected_nondegenerate_skew():
    raw, _ = build_jpds(signal_nm=780.0, n_slices=7, grid_n=512)
    rep = slope_report(raw)
    assert rep["slope_regression"] == pytest.approx(-0.92, abs=0.02)
    # analytic: the scale mismatch alone sets the slope to -lam_s/lam_i
    assert rep["slope_regression"] == pytest.approx(-780.0 / 842.4, rel=0.01)


def test_corrected_nondegenerate_restores_unit_slope():
    _, fixed = build_jpds(signal_nm=780.0, n_slices=7, grid_n=512)
    rep = slope_report(fixed)
    assert rep["slope_regression"] == pytest.approx(-1.0, abs=0.01)
    assert rep["corrected"]


def test_corrected_equals_uncorrected_for_degenerate_slice():
    unc, corr = build_jpds(signal_nm=810.0, n_slices=1, grid_n=256)
    # corrections are identities up to the sub-cell fitted shift
    unc, corr = unc.intensity.toarray(), corr.intensity.toarray()
    assert np.abs(corr - unc).max() <= 1e-6 * unc.max()


def test_pure_scaling_slope_relation():
    # A single slice's camera slope is the q-space slope times the
    # scale ratio (display orientation): pure coordinate scaling.
    problem = one_slice_problem(signal_nm=780.0, n=512)
    (cs,) = built_slices(problem, "y")
    far = far_field_jid(problem, "y")
    q_fit = ridge_fit(
        matrix_moments("far", "y", far.axis_signal, far.axis_idler, far.intensity)
    )
    q_display = 1.0 / q_fit.slope_principal_axis
    rep = slope_report(camera_jpds(problem, "y", F)[0])
    expected = q_display * cs.y_signal[-1] / cs.y_idler[-1]  # both arms share the q grid
    assert rep["slope_principal_axis"] == pytest.approx(expected, rel=0.01)


def test_accumulation_preserves_mass():
    problem = make_setup(signal_nm=780.0, n_slices=5, grid_n=256)
    _, jpd = camera_jpds(problem, "y", F)
    total_in = sum(
        cs.weight * cs.intensity.data.sum()
        * (cs.y_signal[1] - cs.y_signal[0]) * (cs.y_idler[1] - cs.y_idler[0])
        * (780.0 / 842.4)  # idler axis is rescaled by this factor first
        for cs in built_slices(problem, "y")
    )
    total_out = jpd.intensity.toarray().sum() * jpd.d_signal * jpd.d_idler
    assert total_out == pytest.approx(total_in, rel=1e-4)


def reference_accumulation(slices, corrected):
    """The slices summed with the reference resampler: signal resampled
    along rows, idler along columns, each slice weighted, onto the
    central slice's grid (corrected, for the corrected JPD); with the
    central slice."""
    terms = [_corrected(cs) for cs in slices] if corrected else slices
    central = terms[len(terms) // 2]
    total = np.zeros((central.y_signal.size, central.y_idler.size))
    for cs in terms:
        resampled = reference_resample(cs.intensity.toarray(), cs.y_idler, central.y_idler, axis=1)
        total += cs.weight * reference_resample(resampled, cs.y_signal, central.y_signal, axis=0)
    return total, central


@pytest.mark.parametrize("corrected", [False, True], ids=["uncorrected_jpd", "corrected_jpd"])
def test_accumulation_matches_reference_resampler(corrected):
    problem = make_setup(n_slices=7, grid_n=256)
    jpd = camera_jpds(problem, "y", F)[corrected]
    total, central = reference_accumulation(built_slices(problem, "y"), corrected)
    assert jpd.corrected is corrected
    np.testing.assert_array_equal(jpd.y_signal, central.y_signal)
    np.testing.assert_array_equal(jpd.y_idler, central.y_idler)
    assert np.abs(jpd.intensity.toarray() - total).max() <= 1e-12 * total.max()


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("n_slices", [1, 4, 5])
def test_camera_jpds_equal_list_accumulation(axis, n_slices):
    """Both JPDs of the one streamed pass equal the reference sum of the
    list of slices, on either axis and with magnification.  With 4
    slices the central slice, index 2, is not the middle of the scan."""
    problem = make_setup(n_slices=n_slices, grid_n=256)
    slices = built_slices(problem, axis, magnification=1.5)
    streamed = camera_jpds(problem, axis, F, magnification=1.5)
    for jpd, corrected in zip(streamed, (False, True)):
        total, central = reference_accumulation(slices, corrected)
        assert jpd.axis == axis
        assert jpd.corrected is corrected
        np.testing.assert_array_equal(jpd.y_signal, central.y_signal)
        np.testing.assert_array_equal(jpd.y_idler, central.y_idler)
        assert np.abs(jpd.intensity.toarray() - total).max() <= 1e-12 * total.max()
        assert jpd.slices == tuple((cs.lambda_signal_nm, cs.lambda_idler_nm, cs.weight)
                                   for cs in slices)
        assert len(jpd.slices) == n_slices


@pytest.mark.parametrize("axis", ["x", "y"])
def test_banded_totals_equal_dense_sum_bit_for_bit(axis):
    """Each JPD's band holds the values of adding every resampled slice,
    in sampling order, into a zeroed dense matrix, bit for bit, zeros'
    signs included; the total grows past the first slice's windows."""
    problem = make_setup(n_slices=5, grid_n=256)
    slices = built_slices(problem, axis)
    for jpd, corrected in zip(camera_jpds(problem, axis, F), (False, True)):
        terms = [_corrected(cs) for cs in slices] if corrected else slices
        central = terms[len(terms) // 2]
        dense = np.zeros((central.y_signal.size, central.y_idler.size))
        widths = []
        for cs in terms:
            band = resample_conserving(cs.intensity, cs.y_idler, central.y_idler, axis=1)
            band = resample_conserving(band, cs.y_signal, central.y_signal, axis=0)
            dense.reshape(-1)[band.flat_index()] += cs.weight * band.data
            widths.append(band.width)
        total = jpd.intensity.toarray()
        assert np.array_equal(total, dense)
        assert np.array_equal(np.signbit(total), np.signbit(dense))
        assert widths[0] < jpd.intensity.width < dense.shape[1]


@pytest.fixture(scope="module")
def default_jpds_512():
    """Both y JPDs of the shipped non-degenerate config at N = 512."""
    cfg = load_config(CONFIGS / "nondegenerate_780.yaml")
    problem = replace(cfg.build(), grid_n=512)
    return camera_jpds(problem, "y", cfg.focal_length_m, magnification=cfg.magnification)


def test_banded_totals_hold_under_a_quarter_of_dense(default_jpds_512):
    n = 512
    raw, fixed = default_jpds_512
    assert raw.intensity.nbytes + fixed.intensity.nbytes < (2 * n * n * 8) / 4


@pytest.fixture(scope="module")
def default_reports():
    """The slope reports of the shipped non-degenerate config, keyed by
    (axis, grid_n), in (uncorrected, corrected) order."""
    cfg = load_config(CONFIGS / "nondegenerate_780.yaml")
    reports = {}
    for axis in ("x", "y"):
        for grid_n in (256, 1024):
            problem = replace(cfg.build(), grid_n=grid_n)
            jpds = camera_jpds(problem, axis, cfg.focal_length_m, magnification=cfg.magnification)
            reports[axis, grid_n] = tuple(slope_report(jpd) for jpd in jpds)
    return reports


@pytest.mark.parametrize("axis", ["x", "y"])
def test_camera_slopes_are_the_moment_engines(default_reports, axis):
    """At N = 1024 the engine's camera sums give the regression slopes
    -0.925631 (uncorrected) and -0.999891 (corrected), and the
    principal-axis slopes -0.925742 and -1.000004, on either axis.  The
    corrected ridge passes through the origin to under 1e-9 m: on y the
    walk-off offset the slices share (-1.97e-6 m uncorrected) is gone."""
    raw, fixed = default_reports[axis, 1024]
    assert raw["slope_regression"] == pytest.approx(-0.925631, abs=1e-5)
    assert fixed["slope_regression"] == pytest.approx(-0.999891, abs=1e-5)
    assert raw["slope_principal_axis"] == pytest.approx(-0.925742, abs=1e-5)
    assert fixed["slope_principal_axis"] == pytest.approx(-1.000004, abs=1e-5)
    assert abs(fixed["intercept_m"]) < 1e-9


@pytest.mark.parametrize("axis", ["x", "y"])
def test_camera_slopes_do_not_depend_on_the_square_grid(default_reports, axis):
    """The reports at N = 256, where the square grid's step is wider than
    the pump width, equal those at N = 1024 to 1e-5 relative, and the
    corrected y ridge passes through the origin to under 1e-9 m."""
    for coarse, fine in zip(default_reports[axis, 256], default_reports[axis, 1024]):
        for key in ("slope_principal_axis", "slope_regression"):
            assert coarse[key] == pytest.approx(fine[key], rel=1e-5, abs=0.0)
    if axis == "y":
        assert abs(default_reports[axis, 256][1]["intercept_m"]) < 1e-9


def test_camera_jpd_rejects_negative_band_entries():
    band = RowBand(np.array([[0.5, -1e-300]]), np.zeros(1, dtype=np.intp), 3)
    axis = np.linspace(-1.0, 1.0, 3)
    with pytest.raises(ValueError, match="negative entries"):
        CameraJPD("y", axis[:1], axis, band, corrected=False, slices=(), sums=(1.0,) * 6)


def test_camera_jpds_hold_two_bands(monkeypatch):
    """No more than the kept central band and the current slice's band
    are alive when a band is built."""
    narrowed = RowBand.narrowed
    alive: list[weakref.ref] = []
    peak = []

    def tracked(band, *args):
        band = narrowed(band, *args)
        alive[:] = [ref for ref in alive if ref() is not None]
        alive.append(weakref.ref(band))
        peak.append(len(alive))
        return band

    monkeypatch.setattr(RowBand, "narrowed", tracked)
    camera_jpds(make_setup(n_slices=7, grid_n=64), "y", F)
    assert len(peak) == 7  # each slice is built once
    assert max(peak) == 2


def test_camera_slices_budget_checked_before_any_evaluation(monkeypatch):
    """At w0 = 20 um the pump band covers the 256 x 256 grid, so each held
    band costs a dense matrix plus its row offsets: one evaluation, the
    two JPDs and two bands need 7.004 MiB, so a 7 MiB budget is exceeded,
    and that is known before the first slice is evaluated."""
    n, slices = 256, 31
    held = n * n * 8 * (10 + 2) + 2 * (n * n * 8 + n * 8)
    assert 7 * 2**20 < held <= 8 * 2**20
    calls = counting_evaluations(monkeypatch)
    problem = make_setup(waist_m=20e-6, n_slices=slices, grid_n=n)
    with pytest.raises(GridMemoryError, match=r"^256 x 256 grid holding 2 camera JPDs "
                       r"and 2 slice bands needs ~7 MiB \(budget 7 MiB\)$"):
        camera_jpds(replace(problem, memory_budget_bytes=7 * 2**20), "y", F)
    assert calls == []
    # one MiB more holds the streaming pass
    raw, fixed = camera_jpds(replace(problem, memory_budget_bytes=8 * 2**20), "y", F)
    assert len(calls) == slices
    assert len(raw.slices) == len(fixed.slices) == slices
