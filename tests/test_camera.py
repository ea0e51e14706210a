"""Camera mapping, chromatic rescale, walk-off correction, pixel-centre
evaluation."""

import functools
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spdcsim.spectral
from spdcsim.biphoton import (
    GridMemoryError, RowBand, SliceArms, _windows, envelope_columns, slice_arms,
)
from spdcsim.camera import CameraJPD, camera_jpds, slope_report
from spdcsim.config import RunConfig, load_config
from spdcsim.spectral import far_field_jid
from spdcsim.stats import DegenerateDistributionError, StatsSummary, ridge_fit

import oracle
from oracle import camera_momenta, camera_slices, matrix_moments, weighted_total

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

F = RunConfig().focal_length_m  # the focal length every config here holds


def make_setup(signal_nm=780.0, length_m=1e-3, waist_m=500e-6, **settings):
    """The collinear BBO run with a 5 nm Gaussian filter on the
    signal; ``settings`` are further ``RunConfig`` fields."""
    return RunConfig(signal_nm=signal_nm, length_mm=length_m * 1e3, waist_um=waist_m * 1e6,
                     **settings).build()


def one_slice_problem(signal_nm=780.0, n=256):
    return make_setup(signal_nm=signal_nm, n_slices=1, grid_n=n)


def built_slices(problem, axis, magnification=1.0):
    """Every slice of ``problem`` on the camera, in sampling order, one
    record each (the oracle's per-slice builder)."""
    return camera_slices(problem, axis, F, magnification)


def camera_slice(axis="y", signal_nm=780.0, n=256):
    """The one camera slice of a monochromatic run, with its wavelengths."""
    problem = one_slice_problem(signal_nm=signal_nm, n=n)
    (cs,) = built_slices(problem, axis)
    return problem.wl, cs


def one_slice_jpds(axis="y", signal_nm=780.0, n=256):
    """The one camera slice of a monochromatic run and both its JPDs."""
    problem = one_slice_problem(signal_nm=signal_nm, n=n)
    (cs,) = built_slices(problem, axis)
    return cs, *camera_jpds(problem, axis)


def counting_evaluations(monkeypatch):
    """The list each ``evaluate_grid`` call of the camera's stream
    (``spectral._squared_blocks``) appends to."""
    calls = []
    evaluate = spdcsim.spectral.evaluate_grid
    monkeypatch.setattr(
        spdcsim.spectral, "evaluate_grid", lambda *a: calls.append(a) or evaluate(*a)
    )
    return calls


def evaluated_momenta(problem, axis, monkeypatch, magnification=1.0):
    """Both JPDs of ``camera_jpds`` and, per slice in sampling order, the
    signal, uncorrected idler and corrected idler momenta its
    ``evaluate_grid`` calls received (``counting_evaluations``) as the
    blocks were drawn, once per slice, JPD and block: the signal rows of
    each block, which cover the grid, and the idler momenta of the
    slice's table, the same in every block.  Each call gathers the
    block's windows, and its a and b are the slice's ``slice_arms`` on
    those momenta."""
    calls = counting_evaluations(monkeypatch)
    jpds = camera_jpds(replace(problem, magnification=magnification), axis)
    assert calls == []  # nothing is evaluated until the blocks are drawn
    momenta = [np.full((3, problem.grid_n), np.nan) for _ in problem.slices]
    for j, jpd in enumerate(jpds):
        row = 0
        for block in jpd.row_blocks():
            rows = slice(row, row + block.data.shape[0])
            row = rows.stop
            block_calls, calls[:] = calls[:], []
            assert len(block_calls) == len(problem.slices)
            for (lam_s, lam_i, _), got, (a, q_s, (q_i, b), index, _) in zip(
                    problem.slices, momenta, block_calls):
                assert np.array_equal(index, block.start[:, None] + np.arange(block.width))
                arms = slice_arms(problem, axis, (lam_s, lam_i))(q_s, q_i)
                assert np.array_equal(a, arms[0]) and np.array_equal(b, arms[1])
                for line, at, values in ((got[0], rows, q_s), (got[1 + j], slice(None), q_i)):
                    seen = ~np.isnan(line[at])
                    assert np.array_equal(line[at][seen], values[seen])
                    line[at] = values
    assert not any(np.isnan(got).any() for got in momenta)
    return jpds, momenta


# -- mapping ------------------------------------------------------------------


def test_camera_mapping_scale():
    wl, cs = camera_slice(n=64)
    assert cs.lambda_signal_nm == 780.0
    # Y = f lambda q / (2 pi)
    assert cs.scale_signal * 1e5 == pytest.approx(F * 780e-9 * 1e5 / (2 * math.pi), rel=1e-12)
    assert cs.scale_signal * 1e5 == pytest.approx(3.1036e-3, rel=1e-4)


def test_camera_mapping_validation(monkeypatch):
    """The focal length and the magnification must be finite and
    positive: no config holds another, so nothing is evaluated."""
    problem = one_slice_problem(n=64)
    calls = counting_evaluations(monkeypatch)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="focal length must be finite and positive"):
            replace(problem, focal_length_m=bad)
        with pytest.raises(ValueError, match="magnification must be finite and positive"):
            replace(problem, magnification=bad)
    assert calls == []


def test_map_to_camera_scales_axes():
    problem = one_slice_problem()
    jid = far_field_jid(problem, "y")
    (cs,) = built_slices(problem, "y")
    raw, _ = camera_jpds(problem, "y")
    assert raw.axis_signal[0] == pytest.approx(
        jid.axis_signal[0] * F * 780e-9 / (2 * math.pi), rel=1e-12
    )
    assert raw.axis_idler[0] == pytest.approx(
        jid.axis_idler[0] * F * problem.wl.idler_nm * 1e-9 / (2 * math.pi), rel=1e-12
    )
    # intensities untouched: the far field's row blocks of the
    # pump-envelope columns, under an eighth of the dense matrix
    assert all(isinstance(block, RowBand) for block in raw.row_blocks())
    raw_band, far_band = oracle.stacked(raw), oracle.stacked(jid)
    assert np.array_equal(raw_band.start, far_band.start)
    assert raw_band.width == far_band.width
    assert np.array_equal(raw_band.data, far_band.data)
    n = problem.grid_n
    assert raw_band.nbytes < n * n * 8 / 8
    # on-axis point stays on axis
    mid = jid.axis_signal.size // 2
    assert raw.axis_signal[mid] == jid.axis_signal[mid] * cs.scale_signal
    # the magnification scales both arms
    (magnified,) = built_slices(problem, "y", magnification=2.0)
    assert magnified.scale_signal == pytest.approx(2.0 * cs.scale_signal, rel=1e-15)
    magnified_raw, _ = camera_jpds(replace(problem, magnification=2.0), "y")
    np.testing.assert_allclose(magnified_raw.axis_idler, 2.0 * raw.axis_idler, rtol=1e-15)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_one_slice_far_field_is_the_uncorrected_camera_band(axis):
    """One stream gives both pictures: with one slice, whose momenta are
    the square grid's, the far-field band and the uncorrected camera band
    have equal starts, widths and values."""
    problem = one_slice_problem()
    far = oracle.stacked(far_field_jid(problem, axis))
    raw = oracle.stacked(camera_jpds(problem, axis)[0])
    assert raw.width == far.width
    assert np.array_equal(raw.start, far.start)
    assert np.array_equal(raw.data, far.data)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_slice_momenta_land_on_pixel_centres(axis, monkeypatch):
    """Mapped onto the camera with its own scales (and, corrected, its
    own idler rescale and intercept), the momenta each slice is evaluated
    at, block by block, are the JPDs' pixel centres, to 1e-12 of the
    grid's extent; they are the inverse camera map's
    (``reference_momenta``) to 1e-12 and the per-slice records'
    (``oracle.camera_momenta``) bit for bit; the central slice's
    uncorrected momenta are the square grid itself."""
    problem = make_setup(n_slices=5, grid_n=256)
    q = problem.square_grid()
    slices = built_slices(problem, axis)
    central = slices[2]
    (raw, fixed), momenta = evaluated_momenta(problem, axis, monkeypatch)
    for cs, evaluated in zip(slices, momenta):
        q_s, q_raw, q_fixed = evaluated
        span = cs.scale_signal * q[-1]
        for mapped, pixels in ((cs.scale_signal * q_s, raw.axis_signal),
                               (cs.scale_idler * q_raw, raw.axis_idler),
                               (cs.scale_signal * (q_fixed - cs.ridge_intercept), fixed.axis_idler)):
            assert np.abs(mapped - pixels).max() <= 1e-12 * span
            assert np.all(np.diff(mapped) > 0)
        for got, ref, old in zip(evaluated, reference_momenta(central, cs, q, q),
                                 camera_momenta(q, central, cs)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.array_equal(got, old)
    q_s, q_raw, _ = momenta[2]
    assert np.array_equal(q_s, q) and np.array_equal(q_raw, q)


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
        for cs, (lam_s, lam_i, _) in zip(built_slices(problem, "y"), problem.slices):
            amp = oracle.toarray(oracle.amplitude_band(q, q, problem, "y", (lam_s, lam_i)))
            dense = ridge_fit(matrix_moments("far", "y", q, q, amp * amp)).intercept
            assert abs(cs.ridge_intercept - dense) <= 1e-6 * (2.0 / problem.waist_m)
            assert cs.ridge_intercept != 0.0
    (cs_x,) = built_slices(one_slice_problem(), "x")
    assert cs_x.ridge_intercept == 0.0  # the x axis carries no walk-off


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("waist_um", [50, 500])
def test_slice_band_is_the_squared_amplitude(axis, waist_um):
    """Each JPD is the square of ``oracle.amplitude`` at every slice's pixel
    momenta (``oracle.camera_momenta``, which its evaluations received:
    ``test_slice_momenta_land_on_pixel_centres``), times the slice's
    weight, added in sampling order into a zeroed dense matrix, bit for
    bit, zeros' signs included.  Its windows are the union of the slices'
    power-2 ``envelope_columns`` windows, widened to one width; the
    windows of the outer rows clip at the grid edge, most of them at 50 um."""
    problem = make_setup(waist_m=waist_um * 1e-6, n_slices=3, grid_n=256)
    q = problem.square_grid()
    slices = built_slices(problem, axis)
    jpds = camera_jpds(problem, axis)
    for j, jpd in enumerate(jpds):
        dense = np.zeros((q.size, q.size))
        first, stop = np.full(q.size, q.size), np.zeros(q.size, dtype=int)
        for cs in slices:
            q_s, *idlers = camera_momenta(q, slices[1], cs)
            amp = oracle.amplitude(q_s[:, None], idlers[j][None, :], problem, axis,
                                   (cs.lambda_signal_nm, cs.lambda_idler_nm))
            dense += cs.weight * (amp * amp)
            f, s = envelope_columns(q_s, idlers[j], problem.waist_m, power=2)
            first, stop = np.minimum(first, f), np.maximum(stop, s)
        width = int(np.max(stop - first))
        start = np.clip(first, 0, q.size - width)
        assert np.any(start < first)  # windows shifted back inside the grid
        band = oracle.stacked(jpd)
        assert band.width == width
        assert np.array_equal(band.start, start)
        total = oracle.toarray(band)
        assert np.array_equal(total, dense)
        assert np.array_equal(np.signbit(total), np.signbit(dense))


def test_degenerate_pair_has_identical_scales():
    cs, raw, _ = one_slice_jpds(signal_nm=810.0)
    assert cs.scale_signal == cs.scale_idler
    assert np.array_equal(raw.axis_signal, raw.axis_idler)


# -- rescale (the x axis carries no walk-off: the rescale is all of it) ----------


def test_rescale_degenerate_is_identity():
    _, raw, fixed = one_slice_jpds(axis="x", signal_nm=810.0)
    np.testing.assert_array_equal(fixed.axis_idler, raw.axis_idler)


def test_rescale_factor_and_roundtrip():
    wl, _ = camera_slice(axis="x")
    _, raw, fixed = one_slice_jpds(axis="x")
    factor = 780.0 / wl.idler_nm
    assert factor == pytest.approx(0.925926, abs=1e-6)
    np.testing.assert_allclose(fixed.axis_idler, raw.axis_idler * factor, rtol=1e-15)
    # invertible
    np.testing.assert_allclose(fixed.axis_idler / factor, raw.axis_idler, rtol=1e-12)
    # after rescale both arms sit on the signal scale
    np.testing.assert_allclose(fixed.axis_idler, fixed.axis_signal, rtol=1e-15)
    # on y the same rescale comes first, then the fitted shift
    cs, raw, fixed = one_slice_jpds(axis="y")
    shifted = raw.axis_idler * factor - cs.scale_signal * cs.ridge_intercept
    assert np.array_equal(fixed.axis_idler, shifted)


# -- walk-off correction --------------------------------------------------------


def test_fitted_shift_small_for_degenerate():
    _, raw, fixed = one_slice_jpds(axis="y", signal_nm=810.0)
    # symmetric degenerate slice (rescale factor 1): fitted intercept well
    # under a grid cell
    cell = float(raw.axis_idler[1] - raw.axis_idler[0])
    assert abs(float(raw.axis_idler[0] - fixed.axis_idler[0])) < cell


def test_fitted_shift_removes_nondegenerate_intercept():
    cs, _, corr = one_slice_jpds(axis="y", signal_nm=780.0)
    q_idler = corr.axis_idler / cs.scale_signal  # the idler is on the signal scale
    fit = ridge_fit(matrix_moments(
        "far", "y", corr.axis_signal / cs.scale_signal, q_idler, oracle.dense(corr)
    ))
    cell_q = float(q_idler[1] - q_idler[0])
    assert abs(fit.intercept) < cell_q


# -- resampling onto the pixel grid ----------------------------------------------
#
# A slice is resampled onto the central slice's pixels by evaluation:
# ``oracle.camera_momenta`` gives the momenta that land on the pixel centres
# (the camera's, bit for bit: ``test_slice_momenta_land_on_pixel_centres``) and
# the block kernel ``evaluate_grid`` samples the slice there, on the power-2
# windows (``oracle.kernel_band`` runs it over whole grids).  The
# cases below move a signal pixel grid against the idler's and the band.


# (slices, signal pixels, idler pixels): even, odd, and non-square both ways
SHAPES = [(5, 64, 64), (5, 65, 65), (7, 48, 65), (7, 65, 48)]
# signal pixels centred on the idler's; shifted so the band leaves some
# rows; shifted so most rows miss the band
SHIFTS = [0.0, 0.5, -1.5]
SCALES = [0.9259, 1.0, 1.08]


@functools.lru_cache(maxsize=None)
def pixel_case(shape, scale, shift, axis):
    """A run of ``shape[0]`` slices on ``axis``, its camera slices, and
    pixel grids (in the central slice's momenta) of ``shape[1]`` signal
    and ``shape[2]`` idler pixels: the idler's over the square grid's
    extent, the signal's scaled by ``scale`` and moved by ``shift`` of
    that extent."""
    n_slices, n_signal, n_idler = shape
    problem = make_setup(n_slices=n_slices, grid_n=64)
    extent = problem.square_grid()[-1]
    q_signal = (scale * np.linspace(-1.0, 1.0, n_signal) + shift) * extent
    q_idler = np.linspace(-1.0, 1.0, n_idler) * extent
    return problem, tuple(built_slices(problem, axis)), q_signal, q_idler


def pixel_momenta(central, cs, q_signal, q_idler):
    """Slice ``cs``'s signal, uncorrected idler and corrected idler
    momenta on the pixel grids, from ``oracle.camera_momenta``."""
    return camera_momenta(q_signal, central, cs)[0], *camera_momenta(q_idler, central, cs)[1:]


def reference_pixels(central, q_signal, q_idler):
    """The pixel centres' camera coordinates: the signal, the uncorrected
    idler and the corrected idler (rescaled onto the signal scale, then
    shifted by the central slice's intercept)."""
    y_idler = central.scale_idler * q_idler
    factor = central.lambda_signal_nm / central.lambda_idler_nm
    return (central.scale_signal * q_signal, y_idler,
            y_idler * factor - central.scale_signal * central.ridge_intercept)


def reference_momenta(central, cs, q_signal, q_idler):
    """The momenta of slice ``cs`` whose camera coordinates, with its own
    scales (corrected: its idler rescaled by lambda_s/lambda_i, then
    shifted by its own intercept), are ``reference_pixels``."""
    y_signal, y_raw, y_fixed = reference_pixels(central, q_signal, q_idler)
    rescaled = cs.scale_idler * (cs.lambda_signal_nm / cs.lambda_idler_nm)
    return (y_signal / cs.scale_signal, y_raw / cs.scale_idler,
            (y_fixed + cs.scale_signal * cs.ridge_intercept) / rescaled)


def jpd_windows(q_s, q_i, problem):
    """The (start, width) windows of a JPD's power-2 band on these grids."""
    return _windows(*envelope_columns(q_s, q_i, problem.waist_m, power=2), q_i.size)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_resample_matches_antiderivative_reference(shape, scale, shift, axis):
    """Each slice's squared band on its JPD's windows, at the
    ``pixel_momenta`` of the pixels, equals the squared ``oracle.amplitude`` at
    the momenta the inverse camera map gives (``reference_momenta``), on
    axis x (0) and y (1), to 1e-12 of its peak; outside the windows both
    are zero."""
    problem, slices, q_signal, q_idler = pixel_case(shape, scale, shift, "xy"[axis])
    central = slices[len(slices) // 2]
    for cs in slices:
        pair = (cs.lambda_signal_nm, cs.lambda_idler_nm)
        q_s, *idlers = pixel_momenta(central, cs, q_signal, q_idler)
        ref_s, *ref_idlers = reference_momenta(central, cs, q_signal, q_idler)
        for q_i, ref_i in zip(idlers, ref_idlers):
            band = oracle.toarray(oracle.kernel_band(q_s, q_i, problem, "xy"[axis], pair,
                                                     jpd_windows(q_s, q_i, problem)))
            ref = oracle.amplitude(ref_s[:, None], ref_i[None, :], problem, "xy"[axis], pair)
            out, ref = band * band, ref * ref
            assert out.shape == ref.shape == (q_signal.size, q_idler.size)
            assert ref.max() > 0.0
            assert np.abs(out - ref).max() <= 1e-12 * ref.max()


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_resample_properties(shape, scale, shift):
    """On y, where the correction shifts: each slice's momenta are its
    pixels scaled by the central slice's wavelength over its own (the
    signal's for the signal and the corrected idler), uniform and
    increasing; the corrected idler is the signal's map plus one
    constant; the central slice's uncorrected momenta are the pixels
    themselves.  The squares are nonnegative and, outside the power-2
    windows, exactly +0.0."""
    problem, slices, q_signal, q_idler = pixel_case(shape, scale, shift, "y")
    central = slices[len(slices) // 2]
    span = np.abs(q_signal).max() + np.abs(q_idler).max()
    for cs in slices:
        q_s, q_raw, q_fixed = pixel_momenta(central, cs, q_signal, q_idler)
        ratio_s = central.lambda_signal_nm / cs.lambda_signal_nm
        ratio_i = central.lambda_idler_nm / cs.lambda_idler_nm
        offset = cs.ridge_intercept - ratio_s * central.ridge_intercept
        for mapped, expected in ((q_s, ratio_s * q_signal), (q_raw, ratio_i * q_idler),
                                 (q_fixed, ratio_s * q_idler + offset)):
            assert np.abs(mapped - expected).max() <= 1e-12 * span
            step = np.diff(mapped)
            assert np.all(step > 0)
            assert np.abs(step - step.mean()).max() <= 1e-9 * step.mean()
        if cs is central:
            assert np.array_equal(q_s, q_signal) and np.array_equal(q_raw, q_idler)
        pair = (cs.lambda_signal_nm, cs.lambda_idler_nm)
        for q_i in (q_raw, q_fixed):
            start, width = jpd_windows(q_s, q_i, problem)
            dense = oracle.amplitude(q_s[:, None], q_i[None, :], problem, "y", pair) ** 2
            assert dense.min() >= 0.0
            cols = np.arange(q_i.size)
            outside = (cols < start[:, None]) | (cols >= start[:, None] + width)
            assert np.any(outside)
            assert np.all(dense[outside] == 0.0) and not np.any(np.signbit(dense))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_resample_sparse_equals_dense(shape, scale, shift, axis):
    """A slice evaluated on its JPD's narrow windows, the sparse form the
    camera holds, equals the dense ``oracle.amplitude`` on the pixel momenta bit
    for bit inside them, zeros' signs included, and is +0.0 outside;
    full-width windows give the dense matrix; windows moved off the band
    still give the dense values at their own columns."""
    problem, slices, q_signal, q_idler = pixel_case(shape, scale, shift, "xy"[axis])
    central = slices[len(slices) // 2]
    n_cols = q_idler.size
    for cs in slices:
        pair = (cs.lambda_signal_nm, cs.lambda_idler_nm)
        q_s, *idlers = pixel_momenta(central, cs, q_signal, q_idler)
        for q_i in idlers:
            dense = oracle.amplitude(q_s[:, None], q_i[None, :], problem, "xy"[axis], pair)
            full = oracle.kernel_band(q_s, q_i, problem, "xy"[axis], pair,
                                      (np.zeros(q_s.size, dtype=np.intp), n_cols))
            assert full.width == n_cols
            assert np.array_equal(oracle.toarray(full), dense)
            assert np.array_equal(np.signbit(oracle.toarray(full)), np.signbit(dense))
            start, width = jpd_windows(q_s, q_i, problem)
            narrow = oracle.kernel_band(q_s, q_i, problem, "xy"[axis], pair, (start, width))
            assert narrow.width == width < n_cols
            cols = start[:, None] + np.arange(width)
            rows = np.arange(q_s.size)[:, None]
            assert np.array_equal(narrow.data, dense[rows, cols])
            assert np.array_equal(np.signbit(narrow.data), np.signbit(dense[rows, cols]))
            out = oracle.toarray(narrow)
            assert np.array_equal(out * out, dense * dense)
            inside = np.zeros(out.shape, dtype=bool)
            inside[rows, cols] = True
            assert np.all(out[~inside] == 0.0) and not np.any(np.signbit(out[~inside]))
            # windows that stick out of the band's
            moved = np.clip(start + width // 2, 0, n_cols - width)
            shifted = oracle.kernel_band(q_s, q_i, problem, "xy"[axis], pair, (moved, width))
            moved_cols = moved[:, None] + np.arange(width)
            assert np.array_equal(shifted.data, dense[rows, moved_cols])
            assert np.array_equal(np.signbit(shifted.data), np.signbit(dense[rows, moved_cols]))


# -- accumulation and slopes -----------------------------------------------------


def build_jpds(signal_nm, n_slices, grid_n):
    """The uncorrected and the corrected y-axis JPD of ``camera_jpds``."""
    return camera_jpds(make_setup(signal_nm=signal_nm, n_slices=n_slices, grid_n=grid_n), "y")


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
    unc, corr = oracle.dense(unc), oracle.dense(corr)
    assert np.abs(corr - unc).max() <= 1e-6 * unc.max()


def test_pure_scaling_slope_relation():
    # A single slice's camera slope is the q-space slope times the
    # scale ratio (display orientation): pure coordinate scaling.
    problem = one_slice_problem(signal_nm=780.0, n=512)
    (cs,) = built_slices(problem, "y")
    far = far_field_jid(problem, "y")
    q_fit = ridge_fit(
        matrix_moments("far", "y", far.axis_signal, far.axis_idler, oracle.dense(far))
    )
    q_display = 1.0 / q_fit.slope_principal_axis
    rep = slope_report(camera_jpds(problem, "y")[0])
    expected = q_display * cs.scale_signal / cs.scale_idler  # both arms share the q grid
    assert rep["slope_principal_axis"] == pytest.approx(expected, rel=0.01)


def square_grid_masses(problem, axis):
    """The uncorrected and the corrected JPD's mass as the slices give it
    on the square grid: each slice's squared band summed with its weight
    over its own camera cells (the corrected idler on the signal's
    scale)."""
    q = problem.square_grid()
    dq = q[1] - q[0]
    raw = fixed = 0.0
    for cs in built_slices(problem, axis):
        band = oracle.amplitude_band(q, q, problem, axis,
                                     (cs.lambda_signal_nm, cs.lambda_idler_nm))
        mass = cs.weight * np.sum(band.data * band.data) * (cs.scale_signal * dq) * dq
        raw += mass * cs.scale_idler
        fixed += mass * cs.scale_signal
    return raw, fixed


def pixel_mass(jpd):
    return oracle.stacked(jpd).data.sum() * jpd.d_signal * jpd.d_idler


def test_accumulation_preserves_mass():
    """At N = 1024, where the grid step is about the pump's r.m.s. width,
    the corrected JPD's mass equals the slices' masses on their own
    square camera grids to 1e-4.  (At N = 256 the step is twice that
    width and neither sum is resolved: the square-grid mass is 59 % above
    its converged value.)"""
    problem = make_setup(signal_nm=780.0, n_slices=5, grid_n=1024)
    _, jpd = camera_jpds(problem, "y")
    total_in = square_grid_masses(problem, "y")[1]
    total_out = oracle.dense(jpd).sum() * jpd.d_signal * jpd.d_idler
    assert total_out == pytest.approx(total_in, rel=1e-4)


def aperture_masses(problem, axis):
    """The uncorrected and the corrected JPD's mass as the slices give it
    on lattices of their own over the momenta the pixels cover
    (``reference_momenta``): N + 1 points per arm, each slice's own
    camera cells (the corrected idler on the signal's scale)."""
    q = problem.square_grid()
    slices = built_slices(problem, axis)
    central = slices[len(slices) // 2]
    masses = [0.0, 0.0]
    for cs in slices:
        pair = (cs.lambda_signal_nm, cs.lambda_idler_nm)
        q_s, *idlers = reference_momenta(central, cs, q, q)
        lattice_s = np.linspace(q_s[0], q_s[-1], q.size + 1)
        for k, (q_i, scale_i) in enumerate(zip(idlers, (cs.scale_idler, cs.scale_signal))):
            lattice_i = np.linspace(q_i[0], q_i[-1], q.size + 1)
            band = oracle.amplitude_band(lattice_s, lattice_i, problem, axis, pair)
            cells = (cs.scale_signal * (lattice_s[1] - lattice_s[0])
                     * scale_i * (lattice_i[1] - lattice_i[0]))
            masses[k] += cs.weight * np.sum(band.data * band.data) * cells
    return masses


def test_pixel_mass_is_converged():
    """At N >= 1024 each JPD's weighted mass on the pixel grid equals the
    mass on the slices' own (N + 1)-point lattices over the same momenta
    (``aperture_masses``) to 1e-8, and the mass at N = 1024 equals the
    mass at N = 2048 to 1e-6 (5 slices, y; measured 1.8e-9 and 1.6e-9
    against the lattices at N = 1024, 4.3e-10 and 3.5e-10 at 2048, 8.8e-7
    and 7.3e-7 between the grids, uncorrected and corrected).

    The JPDs do not hold the square-grid mass (``square_grid_masses``) to
    1e-6: they fall 2.7e-6 and 6.5e-7 short of it at both N.  Each
    off-centre slice's pixels cover momenta up to 0.85 % narrower than the
    square grid on one arm, which cuts the slice's ridge before the square
    grid does; the sinc kernel's tails there carry up to 1.9e-5 of that
    slice's mass (2e-9 with the Gaussian kernel), and the 5-node rule puts
    47 % of the weight off-centre (uniform slices over +-2.5 FWHM put 3 %
    there and fell 4.4e-7 short)."""
    masses = []
    for grid_n in (1024, 2048):
        problem = make_setup(n_slices=5, grid_n=grid_n)
        jpds = camera_jpds(problem, "y")
        for jpd, reference in zip(jpds, aperture_masses(problem, "y")):
            assert pixel_mass(jpd) == pytest.approx(reference, rel=1e-8)
        masses.append([pixel_mass(jpd) for jpd in jpds])
    for coarse, fine in zip(*masses):
        assert coarse == pytest.approx(fine, rel=1e-6)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("n_slices", [1, 4, 5])
def test_camera_jpds_equal_list_accumulation(axis, n_slices):
    """Both JPDs of the one streamed pass equal the weighted sum of the
    list of slices, each squared at the momenta of the inverse camera
    map (``reference_momenta``), on either axis and with magnification,
    to 1e-12 of the peak; their axes are the pixel centres.  Their sums
    equal, bit for bit, the engine's far-field sums mapped onto the camera
    one slice at a time in Python floats (corrected: mapped again onto the
    rescaled and shifted idler) and added with the weights in sampling
    order (``oracle.camera_slices``).  With 4 slices the central slice,
    index 2, is not the middle of the scan."""
    problem = make_setup(n_slices=n_slices, grid_n=256)
    q = problem.square_grid()
    slices = built_slices(problem, axis, magnification=1.5)
    central = slices[n_slices // 2]
    y_signal, *y_idlers = reference_pixels(central, q, q)
    streamed = camera_jpds(replace(problem, magnification=1.5), axis)
    for j, (jpd, corrected) in enumerate(zip(streamed, (False, True))):
        total = np.zeros((q.size, q.size))
        for cs in slices:
            q_s, *idlers = reference_momenta(central, cs, q, q)
            amp = oracle.amplitude(q_s[:, None], idlers[j][None, :], problem, axis,
                                   (cs.lambda_signal_nm, cs.lambda_idler_nm))
            total += cs.weight * (amp * amp)
        assert jpd.axis == axis
        assert jpd.corrected is corrected
        np.testing.assert_array_equal(jpd.axis_signal, y_signal)
        np.testing.assert_array_equal(jpd.axis_idler, y_idlers[j])
        assert np.abs(oracle.dense(jpd) - total).max() <= 1e-12 * total.max()
        assert jpd.sums == weighted_total(slices, ("sums", "corrected_sums")[j])
        assert jpd.slices == tuple((cs.lambda_signal_nm, cs.lambda_idler_nm, cs.weight)
                                   for cs in slices)
        assert len(jpd.slices) == n_slices


@pytest.fixture(scope="module")
def shipped_jpds():
    """Both JPDs of a shipped config with the filter FWHM set, from
    ``get(config, fwhm_nm, axis, grid_n)``; each is built once."""
    built = {}

    def get(name, fwhm_nm, axis, grid_n):
        key = name, fwhm_nm, axis, grid_n
        if key not in built:
            cfg = replace(load_config(CONFIGS / f"{name}.yaml"), filter_fwhm_nm=fwhm_nm)
            problem = replace(cfg.build(), grid_n=grid_n)
            built[key] = camera_jpds(problem, axis)
        return built[key]

    return get


def test_banded_totals_hold_under_a_quarter_of_dense(shipped_jpds):
    n = 512
    raw, fixed = shipped_jpds("nondegenerate_780", 5.0, "y", n)
    assert oracle.stacked(raw).nbytes + oracle.stacked(fixed).nbytes < (2 * n * n * 8) / 4


def inferred_signal_widths(jpd):
    """The signal width inferred from the idler, from the JPD's dense
    picture and from its engine sums."""
    n, s, i, ss, ii, si = jpd.sums
    engine = StatsSummary.from_sums("camera", jpd.axis, n, i, s, ii, ss, si)
    picture = matrix_moments(
        "camera", jpd.axis, jpd.axis_idler, jpd.axis_signal, oracle.dense(jpd).T
    )
    return picture.width_inferred, engine.width_inferred


@pytest.mark.parametrize(
    "name, fwhm_nm, axis, grid_n",
    [(name, fwhm_nm, axis, 1024) for name in ("nondegenerate_780", "degenerate_810")
     for fwhm_nm in (5.0, 10.0) for axis in ("x", "y")]
    + [("nondegenerate_780", 10.0, "y", 2048)],
)
def test_inferred_widths_are_the_moment_engines(shipped_jpds, name, fwhm_nm, axis, grid_n):
    """Each JPD's signal width inferred from the idler, taken from its
    picture, is the engine's to 1e-3 relative at N >= 1024.  The
    pictures resampled onto the central slice's grid read 2443.5 rad/m
    corrected at 5 nm and N = 1024 against the engine's 1999.8; at the
    pixel centres they read 1999.9 (under 1e-4 on every case here)."""
    for jpd in shipped_jpds(name, fwhm_nm, axis, grid_n):
        picture, engine = inferred_signal_widths(jpd)
        assert picture == pytest.approx(engine, rel=1e-3)


@pytest.fixture(scope="module")
def default_reports(shipped_jpds):
    """The slope reports of the shipped non-degenerate config, keyed by
    (axis, grid_n), in (uncorrected, corrected) order."""
    return {
        (axis, n): tuple(map(slope_report, shipped_jpds("nondegenerate_780", 5.0, axis, n)))
        for axis in ("x", "y") for n in (256, 1024)
    }


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
    """A camera JPD is a ``JointDistribution``: its row blocks must hold
    only finite, non-negative entries."""
    axis = np.linspace(-1.0, 1.0, 3)
    for bad, message in ((-1e-300, "negative entries"), (np.nan, "non-finite entries")):
        band = RowBand(np.array([[0.5, bad], [0.5, 0.5]]), np.zeros(2, dtype=np.intp), 3)
        jpd = CameraJPD("camera", "y", axis[:2], axis, lambda: [band],
                        corrected=False, slices=(), sums=(1.0,) * 6)
        with pytest.raises(ValueError, match=message):
            list(jpd.row_blocks())


@pytest.mark.parametrize("axis", ["x", "y"])
def test_collapsed_distribution_stops_before_any_evaluation(monkeypatch, axis):
    """With the Gaussian kernel on a crystal cut at 0 degrees every
    slice's intensity underflows to 0: on either axis the engine's sums
    stop the camera with one message before any slice is evaluated."""
    cfg = replace(load_config(None), theta_deg=0.0, kernel="gauss", grid_n=64, n_slices=3)
    calls = counting_evaluations(monkeypatch)
    with pytest.raises(DegenerateDistributionError,
                       match=r"^intensity total 0\.0 is not finite and positive$"):
        camera_jpds(cfg.build(), axis)
    assert calls == []


def test_camera_jpds_hold_one_slice_block_at_a_time(monkeypatch):
    """Neither JPD is held: the values of each slice's block
    ``evaluate_grid`` returns, on a JPD's windows, are dropped before the
    next is evaluated.  Each slice is evaluated once per JPD and block."""
    evaluate = spdcsim.spectral.evaluate_grid
    alive: list[weakref.ref] = []
    peak = []

    def tracked(*args):
        values = evaluate(*args)
        alive[:] = [ref for ref in alive if ref() is not None]
        alive.append(weakref.ref(values))
        peak.append(len(alive))
        return values

    monkeypatch.setattr(spdcsim.spectral, "evaluate_grid", tracked)
    for jpd in camera_jpds(make_setup(n_slices=7, grid_n=256), "y"):
        for _ in jpd.row_blocks():
            pass
    assert len(peak) == 2 * 7 * 4
    assert max(peak) == 1


def test_stream_calls_each_slice_arms_once_per_jpd(monkeypatch):
    """Both camera JPDs on the shipped non-degenerate config, N = 1024, 7
    slices: after the moment engine's one ``SliceArms`` call a slice on its
    8 x 96 node grid, the stream makes its plan with one call a slice and
    JPD on the whole pixel grids, 14, and drawing every block calls none:
    its 224 ``evaluate_grid`` calls, one a slice, JPD and block, only
    gather."""
    problem = load_config(CONFIGS / "nondegenerate_780.yaml").build()
    n = problem.grid_n
    assert (n, len(problem.slices)) == (1024, 7)
    shapes = []
    call = SliceArms.__call__
    monkeypatch.setattr(SliceArms, "__call__", lambda self, q_s, q_i: shapes.append(
        (np.shape(q_s), np.shape(q_i))) or call(self, q_s, q_i))
    evaluations = counting_evaluations(monkeypatch)
    jpds = camera_jpds(problem, "y")
    assert shapes == [((8, 96), (8, 96))] * 7 + [((n,), (n,))] * 14
    for jpd in jpds:
        for _ in jpd.row_blocks():
            pass
    assert len(shapes) == 21
    assert len(evaluations) == 2 * 7 * n // 64 == 224


def test_camera_slices_budget_checked_before_any_evaluation(monkeypatch):
    """At w0 = 20 um the pump band covers the 256 x 256 grid, so each
    JPD's blocks are 256 columns wide.  Each slice's momenta and plan (6
    arrays of length N: q_s, both idlers' q_i and b, and a), the grid,
    both JPDs' row offsets and one ``SliceArms`` call (10 arrays), two
    64-row blocks of each JPD with their row offsets, a block's window
    index and one sinc evaluation of a block (3.125 x 64 x 256) need
    1.40 MiB, so a 1 MiB budget is exceeded, and that is known before the
    first slice is evaluated."""
    n, slices = 256, 31
    held = 8 * ((6 * slices + 10) * n + 4 * 64 * (n + 1) + 64 * n) + 25 * 64 * n
    assert 2**20 < held <= 2 * 2**20
    calls = counting_evaluations(monkeypatch)
    problem = make_setup(waist_m=20e-6, n_slices=slices, grid_n=n)
    with pytest.raises(GridMemoryError, match=r"^256 x 256 grid streaming 2 camera JPDs "
                       r"needs ~2 MiB \(budget 1 MiB\)$"):
        camera_jpds(replace(problem, memory_budget_bytes=2**20), "y")
    assert calls == []
    # one MiB more holds the stream
    raw, fixed = camera_jpds(replace(problem, memory_budget_bytes=2 * 2**20), "y")
    for jpd in (raw, fixed):
        assert oracle.stacked(jpd).width == n
    assert len(calls) == 2 * slices * n // 64  # once per slice, JPD and block
    assert len(raw.slices) == len(fixed.slices) == slices
