"""Filter models, spectral sampling, and the far/near-field builders.

The Fourier machinery is validated against a correlated double-Gaussian
amplitude exp(-a(q_s+q_i)^2 - b(q_s-q_i)^2), whose joint intensity,
transform, and conditional widths are all closed-form:

    dq_cond = 1 / (2 sqrt(a+b))        (momentum plane)
    dx_cond = 2 sqrt(a b / (a+b))      (position plane)

so the product sqrt(ab)/(a+b) is 1/2 exactly when a = b and below it
otherwise.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from spdcsim import biphoton, spectral
from spdcsim.biphoton import _ROW_BLOCK, EvanescentInputError, GridMemoryError
from spdcsim.camera import camera_jpds
from spdcsim.config import RunConfig, load_config
from spdcsim.dispersion import SellmeierSet, SpdcWavelengths, idler_wavelength
from spdcsim.spectral import (
    MAX_SPECTRAL_SLICES,
    FilterSpec,
    JointDistribution,
    certify_axis,
    far_field_jid,
    moment_sums,
    near_field_jid,
    position_grid,
    sample_spectrum,
    transmission,
)
from spdcsim.stats import reid_product

import oracle
from oracle import matrix_moments, near_field_intensity

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SIGMA_PER_FWHM = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
#: the outermost node of the 64-node Gauss-Hermite rule, in FWHM from the center
WIDEST_NODE_FWHM = math.sqrt(2.0) * SIGMA_PER_FWHM * hermgauss(64)[0][-1]


def make_setup(signal_nm=810.0, length_m=1e-3, waist_m=500e-6, fwhm_nm=5.0, **settings):
    """The collinear BBO run with a Gaussian filter centered on the
    signal; ``settings`` are further ``RunConfig`` fields."""
    return RunConfig(signal_nm=signal_nm, length_mm=length_m * 1e3, waist_um=waist_m * 1e6,
                     filter_fwhm_nm=fwhm_nm, **settings).build()


def table_moments(axis_s, axis_i, intensity):
    """Means/variances/covariance of a 2D weight table (test-local)."""
    total = intensity.sum()
    ms = intensity.sum(axis=1)
    mi = intensity.sum(axis=0)
    mu_s = (ms * axis_s).sum() / total
    mu_i = (mi * axis_i).sum() / total
    v_s = (ms * (axis_s - mu_s) ** 2).sum() / total
    v_i = (mi * (axis_i - mu_i) ** 2).sum() / total
    c = ((axis_s - mu_s)[:, None] * intensity * (axis_i - mu_i)[None, :]).sum() / total
    return mu_s, mu_i, v_s, v_i, c


# -- transmission -------------------------------------------------------------


def test_gaussian_peak_and_half_maximum():
    f = FilterSpec("gaussian", 780.0, 6.0)
    assert transmission(f, 780.0) == 1.0
    assert transmission(f, 783.0) == pytest.approx(0.5, abs=1e-6)
    assert transmission(f, 777.0) == pytest.approx(0.5, abs=1e-6)


def test_tophat_support():
    f = FilterSpec("tophat", 810.0, 4.0)
    assert transmission(f, 810.0) == 1.0
    assert transmission(f, 812.0) == 1.0  # edge inclusive
    assert transmission(f, 814.0) == 0.0


def test_transmission_vectorized():
    f = FilterSpec("gaussian", 810.0, 5.0)
    lam = np.array([800.0, 810.0, 820.0])
    out = transmission(f, lam)
    assert out.shape == (3,)
    assert out[1] == 1.0
    assert out[0] == out[2]  # symmetric


@given(fwhm=st.floats(0.5, 10.0), d=st.floats(-20.0, 20.0))
@settings(max_examples=50, deadline=None)
def test_transmission_bounded(fwhm, d):
    for shape in ("gaussian", "tophat"):
        f = FilterSpec(shape, 800.0, fwhm)
        t = float(transmission(f, 800.0 + d))
        assert 0.0 <= t <= 1.0


def test_filterspec_validation():
    with pytest.raises(ValueError):
        FilterSpec("boxcar", 800.0, 5.0)
    with pytest.raises(ValueError):
        FilterSpec("gaussian", 800.0, -1.0)
    with pytest.raises(ValueError):
        FilterSpec("gaussian", 800.0, 5.0, arm="herald")
    with pytest.raises(ValueError):
        FilterSpec("gaussian", 780.0, math.nan)
    with pytest.raises(ValueError):
        FilterSpec("gaussian", math.nan, 5.0)
    for shape in ("gaussian", "tophat"):
        for wavelength in (math.nan, 0.0, np.array([780.0, math.nan])):
            with pytest.raises(ValueError, match="wavelength must be positive"):
                transmission(FilterSpec(shape, 780.0, 5.0), wavelength)


# -- sampling -----------------------------------------------------------------


def test_single_slice_is_center():
    f = FilterSpec("gaussian", 780.0, 5.0)
    s = sample_spectrum(f, 405.0, 1)
    assert len(s) == 1
    lam_s, lam_i, w = s[0]
    assert lam_s == 780.0
    assert lam_i == pytest.approx(842.4)
    assert w == 1.0


def test_gaussian_sampling_energy_conserving_and_symmetric():
    f = FilterSpec("gaussian", 780.0, 5.0)
    s = sample_spectrum(f, 405.0, 31)
    assert len(s) == 31
    for lam_s, lam_i, _ in s:
        assert math.isclose(1.0 / 405.0, 1.0 / lam_s + 1.0 / lam_i, rel_tol=1e-12)
    weights = [w for (_, _, w) in s]
    assert weights == pytest.approx(weights[::-1], rel=1e-12)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)
    offsets = np.array([l for (l, _, _) in s]) - 780.0
    np.testing.assert_allclose(offsets, -offsets[::-1], rtol=0.0, atol=1e-12)
    assert offsets[15] == 0.0 and max(weights) == weights[15]
    # the outermost Gauss-Hermite node, sqrt(2) sigma t_max: no cut-off support
    t_max = hermgauss(31)[0][-1]
    assert offsets[-1] == pytest.approx(math.sqrt(2.0) * SIGMA_PER_FWHM * 5.0 * t_max, rel=1e-12)


def test_tophat_sampling_gauss_legendre_on_support():
    f = FilterSpec("tophat", 810.0, 4.0)
    s = sample_spectrum(f, 405.0, 7)
    x, w = leggauss(7)
    lams = np.array([l for (l, _, _) in s])
    np.testing.assert_allclose(lams, 810.0 + 2.0 * x, rtol=1e-15)
    np.testing.assert_allclose([w for (_, _, w) in s], 0.5 * w, rtol=1e-15)
    assert np.all(transmission(f, lams) == 1.0)  # every node inside the support
    assert 808.0 < lams[0] and lams[-1] < 812.0


def test_idler_arm_sampling():
    f = FilterSpec("gaussian", 842.4, 5.0, arm="idler")
    s = sample_spectrum(f, 405.0, 5)
    # the nodes land on the idler slot; the signal follows
    idlers = np.array([li for (_, li, _) in s])
    t = hermgauss(5)[0]
    np.testing.assert_allclose(idlers - 842.4, math.sqrt(2.0) * SIGMA_PER_FWHM * 5.0 * t,
                               rtol=0.0, atol=1e-12)
    assert [ls for (ls, _, _) in s] == [idler_wavelength(405.0, li) for li in idlers]


@given(
    shape=st.sampled_from(["gaussian", "tophat"]),
    arm=st.sampled_from(["signal", "idler"]),
    center_nm=st.floats(420.0, 2000.0),
    width=st.floats(0.001, 0.99),
    n_slices=st.integers(1, 64),
)
@settings(max_examples=200, deadline=None)
def test_sampling_invariants(shape, arm, center_nm, width, n_slices):
    # n_slices triples, each energy conserving with a weight in (0, 1],
    # the weights summing to 1; the widest rule (64 Gauss-Hermite nodes)
    # stays above the 405 nm pump
    fwhm_nm = width * (center_nm - 405.0) / WIDEST_NODE_FWHM
    triples = sample_spectrum(FilterSpec(shape, center_nm, fwhm_nm, arm=arm), 405.0, n_slices)
    assert len(triples) == n_slices
    for lam_s, lam_i, w in triples:
        assert math.isclose(1.0 / 405.0, 1.0 / lam_s + 1.0 / lam_i, rel_tol=1e-10)
        assert 0.0 < w <= 1.0
    assert math.fsum(w for *_, w in triples) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("shape", ["gaussian", "tophat"])
def test_rule_is_capped_at_256_nodes(shape):
    # NumPy's Gauss-Hermite weights underflow near 370 nodes and are NaN at
    # 380; up to the cap every weight is a normal positive float
    f = FilterSpec(shape, 780.0, 5.0)
    triples = sample_spectrum(f, 405.0, MAX_SPECTRAL_SLICES)
    assert MAX_SPECTRAL_SLICES == len(triples) == 256
    assert all(np.isfinite(triples).ravel()) and all(w > 0 for *_, w in triples)
    assert math.fsum(w for *_, w in triples) == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError, match="n_slices must be in \\[1, 256\\], got 257"):
        sample_spectrum(f, 405.0, 257)


@pytest.mark.parametrize("arm", ["signal", "idler"])
@pytest.mark.parametrize("n_slices", [1, 2, 3, 4, 5, 7, 9])
@pytest.mark.parametrize("shape", ["gaussian", "tophat"])
def test_rule_integrates_the_filters_moments(shape, n_slices, arm):
    """sum_k w_k (lam_k - lam0)^2m is the filter's 2m-th moment for every
    2m <= 2n - 1: sigma^2m (2m - 1)!! for a Gaussian, found also by
    integrating ``transmission`` densely, and (FWHM/2)^2m / (2m + 1) for a
    top-hat.  The odd moments vanish."""
    center = 780.0 if arm == "signal" else idler_wavelength(405.0, 780.0)
    f = FilterSpec(shape, center, 5.0, arm=arm)
    triples = sample_spectrum(f, 405.0, n_slices)
    offsets = np.array([t[0 if arm == "signal" else 1] for t in triples]) - center
    weights = np.array([w for *_, w in triples])
    sigma = 5.0 * SIGMA_PER_FWHM
    # the transmission curve on +-12 sigma: the trapezoid rule is spectrally
    # accurate for a smooth integrand that has decayed to nothing there
    d = np.linspace(-12.0 * sigma, 12.0 * sigma, 24001)
    curve = transmission(f, center + d)
    for m in range(n_slices):  # 2m <= 2n - 1
        rule = np.sum(weights * offsets ** (2 * m))
        if shape == "gaussian":
            exact = sigma ** (2 * m) * math.prod(range(2 * m - 1, 0, -2))
            dense = np.sum(curve * d ** (2 * m)) / np.sum(curve)
            assert dense == pytest.approx(exact, rel=1e-10)
        else:
            exact = 2.5 ** (2 * m) / (2 * m + 1)
        assert rule == pytest.approx(exact, rel=1e-10)
        assert abs(np.sum(weights * offsets ** (2 * m + 1))) <= 1e-10 * (3.0 * sigma) ** (2 * m + 1)


@pytest.mark.parametrize("n_slices", [1, 3, 7, 31])
@pytest.mark.parametrize("shape", ["gaussian", "tophat"])
def test_middle_node_is_the_nominal_pair(shape, n_slices):
    # the camera's pixel map is slice n // 2: for odd n, the nominal pair bit for bit
    wl = SpdcWavelengths.from_pump_signal(405.0, 780.0)
    lam_s, lam_i, _ = sample_spectrum(FilterSpec(shape, wl.signal_nm, 5.0), wl.pump_nm,
                                      n_slices)[n_slices // 2]
    assert (lam_s, lam_i) == (wl.signal_nm, wl.idler_nm)


def reid_products(n_slices, axis, **fields):
    """U on ``axis`` at N = 512 from the shipped non-degenerate config with
    ``fields`` changed, at ``n_slices`` nodes."""
    cfg = replace(load_config(CONFIGS / "nondegenerate_780.yaml"), grid_n=512,
                  n_slices=n_slices, **fields)
    return certify_axis(cfg.build(), axis)[2].product


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("length_mm, fwhm_nm, rel", [(1.0, 5.0, 1e-10), (4.0, 10.0, 2e-10)],
                         ids=["1mm-5nm", "4mm-10nm"])
def test_gauss_hermite_7_nodes_converged(length_mm, fwhm_nm, rel, axis):
    # measured 7 against 9 nodes: 1e-12 at 1 mm and 5 nm; 1.1e-10 (x) and
    # 5e-11 (y) at 4 mm and 10 nm, where 9 nodes agree with 21 to 3e-12
    # and 31 uniform slices over +-2.5 FWHM are off by 3.5e-10
    fields = dict(length_mm=length_mm, filter_fwhm_nm=fwhm_nm)
    assert reid_products(7, axis, **fields) == pytest.approx(reid_products(9, axis, **fields),
                                                             rel=rel)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_gauss_legendre_5_nodes_converged_on_a_tophat(axis):
    # uniform slices converge only to first order on a top-hat
    fields = dict(filter_shape="tophat", length_mm=4.0, filter_fwhm_nm=10.0)
    assert reid_products(5, axis, **fields) == pytest.approx(reid_products(7, axis, **fields),
                                                             rel=1e-10)


# -- joint distributions ------------------------------------------------------


def test_jid_validation():
    """The plane, the axis and the grids are checked when a picture is
    built; the shapes and entries of its row blocks as they are drawn."""
    grid = np.linspace(-1.0, 1.0, 8)
    good = oracle.one_block(np.ones((8, 8)))
    assert np.array_equal(oracle.dense(JointDistribution("far", "x", grid, grid.copy(), good)),
                          np.ones((8, 8)))
    with pytest.raises(ValueError):
        JointDistribution("mid", "x", grid, grid.copy(), good)
    for bad in (-np.ones((8, 8)), np.full((8, 8), np.nan), np.ones((7, 8)), np.ones((9, 8)),
                np.ones((8, 7))):
        jid = JointDistribution("far", "x", grid, grid.copy(), oracle.one_block(bad))
        with pytest.raises(ValueError):
            list(jid.row_blocks())
    # a ~3 um position grid with one step 0.1 % long: the 3 nm excess is
    # below np.allclose's default atol, so the check must not rely on it
    x = position_grid(np.linspace(-1e6, 1e6, 8))
    JointDistribution("near", "x", x, x.copy(), good)
    x[5:] += 1e-3 * (x[1] - x[0])
    with pytest.raises(ValueError):
        JointDistribution("near", "x", x, x.copy(), good)


def test_single_slice_far_field_equals_squared_amplitude():
    problem = make_setup(n_slices=1, grid_n=64)
    jid = far_field_jid(problem, "x")
    q = problem.square_grid()
    pair = (problem.wl.signal_nm, problem.wl.idler_nm)
    amp = oracle.toarray(oracle.amplitude_band(q, q, problem, "x", pair))
    np.testing.assert_array_equal(oracle.dense(jid), amp * amp)


def test_spectral_sum_order_invariance():
    problem = make_setup(signal_nm=780.0, n_slices=7, grid_n=64)
    jid = far_field_jid(problem, "y")
    q = problem.square_grid()
    pieces = []
    for lam_s, lam_i, w in problem.slices:
        amp = oracle.toarray(oracle.amplitude_band(q, q, problem, "y", (lam_s, lam_i)))
        pieces.append(w * amp * amp)
    reversed_sum = sum(pieces[::-1])
    np.testing.assert_allclose(oracle.dense(jid), reversed_sum, rtol=1e-12)


def test_position_grid_conjugate():
    q = np.linspace(-1e5, 1e5, 128)
    x = position_grid(q)
    dq = q[1] - q[0]
    assert x[1] - x[0] == pytest.approx(2 * math.pi / (128 * dq), rel=1e-12)
    assert x[128 // 2] == 0.0


def test_parseval_per_slice():
    problem = make_setup(n_slices=1, grid_n=256)
    far = far_field_jid(problem, "x")
    x, near = oracle.fft_near_field(problem, "x")
    mass_far = oracle.stacked(far).data.sum() * far.d_signal * far.d_idler
    mass_near = near.sum() * (x[1] - x[0]) ** 2
    assert mass_near == pytest.approx(mass_far, rel=1e-9)


def per_slice_full_matrix_sums(problem, axis):
    """Reference: each slice's intensity built as a full matrix, then
    weight-summed (far: w |Psi|^2; near: w |psi|^2 from the Hermite-mode
    closed form on every entry, ``oracle.mode_near_field``)."""
    q = problem.square_grid()
    far = np.zeros((q.size, q.size))
    for lam_s, lam_i, weight in problem.slices:
        amp = oracle.toarray(oracle.amplitude_band(q, q, problem, axis, (lam_s, lam_i)))
        far += weight * (amp * amp)
    return far, oracle.mode_near_field(problem, axis)[1]


# grid_n -> the columns the far field evaluates per row: the power-2
# envelope windows, against 7 (N = 64, 65) and 55 (N = 512) in the power-1 band
FAR_WIDTHS = {64: 5, 65: 5, 512: 39}


@pytest.mark.parametrize("grid_n", FAR_WIDTHS)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_jid_builders_equal_per_slice_full_matrix_sum(grid_n, axis, monkeypatch):
    problem = make_setup(signal_nm=780.0, n_slices=5, grid_n=grid_n)
    far, near = per_slice_full_matrix_sums(problem, axis)
    widths = set()

    evaluate = spectral.evaluate_grid

    def recording(*args):
        values = evaluate(*args)
        widths.add(values.shape[1])
        return values

    monkeypatch.setattr(spectral, "evaluate_grid", recording)
    assert np.array_equal(oracle.dense(far_field_jid(problem, axis)), far)
    assert widths == {FAR_WIDTHS[grid_n]}
    monkeypatch.undo()
    # the band holds the closed form to roundoff (1e-14 of the peak
    # measured), and +0.0 off it; every position window here is under 4
    # pump waists wide, so the picture warns
    with pytest.warns(UserWarning, match="^near-field picture misses "):
        band = oracle.stacked(near_field_jid(problem, axis))
    inside = np.zeros(near.shape, dtype=bool)
    inside.reshape(-1)[oracle.flat_index(band)] = True
    got = oracle.toarray(band)
    assert np.max(np.abs(got - near)[inside]) <= 1e-12 * near.max()
    assert not np.any(got[~inside])


@pytest.mark.parametrize("grid_n", [1024, 2048])
def test_far_field_holds_one_row_block_at_a_time(grid_n):
    """No picture is held: drawn block by block, the far field holds its
    row offsets and the square grid, two ``_ROW_BLOCK``-row blocks and
    one block's evaluation (its gathers and 1-D tables): under 8 arrays of
    length N and 8 ``_ROW_BLOCK`` x w float64 arrays (beside the 8 of
    length N, 5.2 and 5.1 block arrays measured), where the whole band is
    N x w (0.6 and 2.4 MiB) and a dense matrix 8 and 32 MiB."""
    problem = make_setup(signal_nm=780.0, n_slices=5, grid_n=grid_n)
    list(far_field_jid(replace(problem, grid_n=64), "y").row_blocks())  # first calls untraced
    widths = set()
    tracemalloc.start()
    try:
        for block in far_field_jid(problem, "y").row_blocks():
            assert block.data.shape[0] == _ROW_BLOCK
            widths.add(block.width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (width,) = widths
    assert peak < 8 * (8 * grid_n + 8 * _ROW_BLOCK * width)


def test_far_field_budget_charges_its_band_before_any_evaluation(monkeypatch):
    """At N = 1024 the far-field stream is charged, before any slice is
    evaluated, its row offsets and 5 arrays of length N for the grid and
    momenta, two 64-row blocks of its 77 columns with their row offsets
    (2 x 64 x 78 floats), and one evaluation of a block over at most N
    columns (4 x 64 x 77 + 3 x 64 + 4 x 1024): 0.31 MiB.  A
    budget one byte short stops it before any slice is evaluated; the
    charge runs it, one evaluation per slice and block of rows."""
    calls = []
    evaluate = spectral.evaluate_grid
    monkeypatch.setattr(spectral, "evaluate_grid", lambda *a: calls.append(a) or evaluate(*a))
    n, width = 1024, 77
    charge = 8 * (6 * n + 2 * 64 * (width + 1) + 4 * 64 * width + 3 * 64 + 4 * n)
    assert charge == 321024
    problem = make_setup(signal_nm=780.0, n_slices=5, grid_n=n)
    with pytest.raises(GridMemoryError, match=r"^1024 x 1024 grid streaming 1 far-field band "
                       r"needs ~1 MiB \(budget 0 MiB\)$"):
        far_field_jid(replace(problem, memory_budget_bytes=charge - 1), "y")
    assert calls == []
    jid = far_field_jid(replace(problem, memory_budget_bytes=charge), "y")
    assert calls == []  # nothing is evaluated until the blocks are drawn
    assert oracle.stacked(jid).width == width
    assert len(calls) == 5 * n // 64


def test_sellmeier_indices_are_evaluated_once_per_slice_and_pass(monkeypatch):
    """Each slice's ``SliceArms`` holds its four wavenumbers.  The far field
    and both camera JPDs build theirs with their streams, so drawing every
    block evaluates no Sellmeier index, and the near field evaluates 4 per
    slice.  The shipped non-degenerate config, y, N = 1024, 7 slices, with
    D given so that the square grid evaluates none."""
    cfg = load_config(CONFIGS / "nondegenerate_780.yaml")
    problem = cfg.build()
    problem = replace(problem, diff_halfwidth=problem.diff_grid()[-1])
    calls = []
    index = SellmeierSet.index_ordinary
    monkeypatch.setattr(SellmeierSet, "index_ordinary",
                        lambda self, lam: calls.append(lam) or index(self, lam))
    pictures = (far_field_jid(problem, "y"), *camera_jpds(problem, "y"))
    calls.clear()
    drained(*pictures)
    assert calls == []
    near_field_jid(problem, "y")
    assert len(calls) == 4 * len(problem.slices) == 28


@pytest.mark.filterwarnings("ignore:square grid step")
@pytest.mark.parametrize("config", ["nondegenerate_780", "degenerate_810"])
@pytest.mark.parametrize("grid_n", [128, 1024])
@pytest.mark.parametrize("kernel", ["sinc", "gauss"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_streamed_blocks_equal_the_slice_outer_pass(axis, kernel, grid_n, config):
    """Every row block the far field and the camera (magnification 1.5)
    stream is, bit for bit, those rows of the whole band the slice-outer
    pass builds (``oracle.squared_bands``) at 1, 4 and 7 slices: each entry
    gets the same additions in the same order."""
    cfg = replace(load_config(CONFIGS / f"{config}.yaml"), kernel=kernel, grid_n=grid_n)
    for n_slices in (1, 4, 7):
        problem = replace(cfg, n_slices=n_slices).build()
        q = problem.square_grid()
        slices = oracle.camera_slices(problem, axis, cfg.focal_length_m, 1.5)
        central = slices[n_slices // 2]
        cases = (
            ((far_field_jid(problem, axis),), lambda k: (q, q)),
            (camera_jpds(replace(problem, magnification=1.5), axis),
             lambda k: oracle.camera_momenta(q, central, slices[k])),
        )
        for pictures, momenta in cases:
            wholes = oracle.squared_bands(problem, axis, momenta)
            for picture, whole in zip(pictures, wholes, strict=True):
                row = 0
                for block in picture.row_blocks():
                    rows = slice(row, row + _ROW_BLOCK)
                    assert block.n_cols == whole.n_cols and block.width == whole.width
                    assert np.array_equal(block.start, whole.start[rows])
                    assert block.data.tobytes() == whole.data[rows].tobytes()
                    row = rows.stop
                assert row == grid_n


def test_near_field_degenerate_ridge_positive():
    # Photons are born at the same transverse point: position JID ridge
    # has slope +1 (finite pump size correlates birth positions).
    with pytest.warns(UserWarning, match="^near-field picture misses "):  # 3.2 pump waists
        near = near_field_jid(make_setup(n_slices=1, grid_n=512), "x")
    mu_s, mu_i, v_s, v_i, c = table_moments(
        near.axis_signal, near.axis_idler, oracle.dense(near)
    )
    cov = np.array([[v_s, c], [c, v_i]])
    evals, evecs = np.linalg.eigh(cov)
    principal = evecs[:, np.argmax(evals)]
    slope = principal[1] / principal[0]
    assert slope == pytest.approx(1.0, abs=0.02)


def default_problem(**settings):
    """The shipped non-degenerate config, built, with ``settings`` replaced."""
    return replace(load_config(CONFIGS / "nondegenerate_780.yaml").build(), **settings)


@pytest.mark.parametrize("grid_n, n_slices", [(1024, 7), (2048, 5)])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_near_field_matches_the_fft_oracle_on_the_default_config(grid_n, n_slices, axis):
    """The band picture against the 2-D FFT of the dense amplitude.  They
    differ in two ways, and the bound adds both:
    - the q aperture: the FFT sees the square grid, the modes the strip
      |q_-| < N dq with q_+ unbounded; 1.5-1.7e-4 of the peak at N = 1024
      and 2048 whatever the band (ROADMAP finding 16);
    - the band: a lag it leaves out carries at most ``_NEAR_BAND_LOSS`` of
      the mass and the heaviest lag it keeps at least 1/width of it, so a
      left-out entry is at most _NEAR_BAND_LOSS x width of the peak
      (1.1e-4 at the 105-107 columns here).
    Measured: 1.53-1.75e-4."""
    problem = default_problem(grid_n=grid_n, n_slices=n_slices)
    jid = near_field_jid(problem, axis)
    x, fft = oracle.fft_near_field(problem, axis)
    assert np.array_equal(jid.axis_signal, x) and np.array_equal(jid.axis_idler, x)
    bound = 1.7e-4 + spectral._NEAR_BAND_LOSS * oracle.stacked(jid).width
    assert np.max(np.abs(oracle.dense(jid) - fft)) <= bound * fft.max()


@pytest.mark.parametrize("axis", ["x", "y"])
def test_near_field_mass_is_the_far_fields_within_the_band_bound(axis):
    """Parseval: the picture's mass is the far field's, less at most the
    ``_NEAR_BAND_LOSS`` its band leaves out (1 - 2.6e-7 measured on both
    axes at N = 1024)."""
    problem = default_problem()
    near, far = near_field_jid(problem, axis), far_field_jid(problem, axis)
    mass_near, mass_far = (oracle.stacked(j).data.sum() * j.d_signal * j.d_idler for j in (near, far))
    assert abs(mass_near / mass_far - 1.0) <= spectral._NEAR_BAND_LOSS


def test_near_field_holds_no_dense_matrix():
    """At N = 2048 the near field peaks under a quarter of one dense N x N
    float64 matrix, 8 of 32 MiB (4.95 MiB measured): its band of 105
    columns (1.66 MiB), the node grid and one row block."""
    problem = default_problem(grid_n=2048, n_slices=5)
    with pytest.warns(UserWarning, match="^near-field picture misses "):
        near_field_jid(replace(problem, grid_n=64), "y")  # first calls out of the trace
    tracemalloc.start()
    try:
        near = near_field_jid(problem, "y")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oracle.stacked(near).width == 105
    assert peak < 2048 * 2048 * 8 / 4


def test_near_field_budget_charges_its_node_grid_and_band():
    """At N = 1024 the near field is first charged its 16 x 1024 node grid
    at 9 arrays (q_s, q_i and one slice's kernel) and 8 arrays of length
    N: 1.19 MiB, which a 1 MiB budget stops before the grid is built.
    Then its band of 107 columns with row offsets, the 8 arrays of length
    N, 3 node-grid arrays (q_s, q_i and a slice's modes) and one 64-row
    block's 26 arrays (a, cols, gathered modes and their Horner sum):
    8 x 1024 x (107 + 8) + 3 x 131072 + 26 x 512 x 107 bytes, 2.63 MiB.
    A 2 MiB budget stops it there, 3 MiB runs it."""
    n, width, node = 1024, 107, 16 * 1024 * 8
    grid_charge = 8 * n * 8 + 9 * node
    band_charge = 8 * n * (width + 8) + 3 * node + 26 * 8 * 64 * width
    assert 2**20 < grid_charge <= 2 * 2**20 < band_charge <= 3 * 2**20
    problem = make_setup(signal_nm=780.0, n_slices=5, grid_n=n)
    with pytest.raises(GridMemoryError, match=r"^16 x 1024 grid needs ~2 MiB \(budget 1 MiB\)$"):
        near_field_jid(replace(problem, memory_budget_bytes=2**20), "y")
    with pytest.raises(GridMemoryError, match=r"^1024 x 1024 grid holding 1 near-field band "
                       r"needs ~3 MiB \(budget 2 MiB\)$"):
        near_field_jid(replace(problem, memory_budget_bytes=2 * 2**20), "y")
    near = near_field_jid(replace(problem, memory_budget_bytes=3 * 2**20), "y")
    assert oracle.stacked(near).width == width


def drained(*pictures):
    """Draw every row block of each picture, holding none."""
    for picture in pictures:
        for _ in picture.row_blocks():
            pass


@pytest.mark.parametrize(
    "path, n",
    [("moment_sums", n) for n in (512, 1024, 2048)]
    + [(path, n) for path in ("far_field_jid", "camera_jpds", "near_field_jid")
       for n in (64, 128, 256, 512, 1024, 2048, 4096)],
)
def test_budget_charge_bounds_the_traced_peak(monkeypatch, path, n):
    """Each path's largest budget charge is at least the peak ``tracemalloc``
    traces in a warm call, its pictures' blocks drawn inside the trace,
    and at most 1.5 times it: the shipped non-degenerate config, y, 5
    slices (1.011-1.442 times measured; at N = 64 the camera's charge, the
    moment engine's, clears its peak by 0.5 KiB)."""
    problem = default_problem(grid_n=n, n_slices=5)
    run = {
        "moment_sums": lambda: moment_sums(problem, "y"),
        "far_field_jid": lambda: drained(far_field_jid(problem, "y")),
        "camera_jpds": lambda: drained(*camera_jpds(problem, "y")),
        "near_field_jid": lambda: drained(near_field_jid(problem, "y")),
    }[path]
    charges = []
    check = biphoton.check_memory_budget

    def recording(needed_bytes, budget_bytes, grid):
        charges.append(needed_bytes)
        check(needed_bytes, budget_bytes, grid)

    monkeypatch.setattr(biphoton, "check_memory_budget", recording)
    monkeypatch.setattr(spectral, "check_memory_budget", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # unresolved pictures at N <= 512
        run()  # first-call allocations stay out of the trace
        charges.clear()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= max(charges) <= 1.5 * peak


# -- double-Gaussian oracle ----------------------------------------------------


def double_gaussian(q_s, q_i, a, b):
    s = q_s[:, None] + q_i[None, :]
    d = q_s[:, None] - q_i[None, :]
    return np.exp(-a * s * s - b * d * d)


def conditional_widths(axis_s, axis_i, intensity):
    _, _, v_s, v_i, c = table_moments(axis_s, axis_i, intensity)
    return math.sqrt(v_i - c * c / v_s)


def test_double_gaussian_transform_widths():
    a, b = 6.25e-10, 1.0e-10
    q = np.linspace(-2e5, 2e5, 512)
    amp = double_gaussian(q, q, a, b)
    dq = float(q[1] - q[0])
    x = position_grid(q)
    near = np.fft.fftshift(near_field_intensity([(amp, dq, dq, 1.0)], amp.shape))

    dq_cond = conditional_widths(q, q, amp * amp)
    dx_cond = conditional_widths(x, x, near)
    assert dq_cond == pytest.approx(1 / (2 * math.sqrt(a + b)), rel=0.01)
    assert dx_cond == pytest.approx(2 * math.sqrt(a * b / (a + b)), rel=0.01)
    # the product is analytic too, and below 1/2 for a != b
    product = dq_cond * dx_cond
    assert product == pytest.approx(math.sqrt(a * b) / (a + b), rel=0.01)
    assert product < 0.5


@pytest.mark.parametrize("shape", [(64, 64), (65, 65), (48, 65)])
def test_near_field_intensity_matches_centered_unitary_transform(shape):
    # the documented convention, written out with np.fft
    n, m = shape
    dq_s, dq_i = 1.3e3, 2.1e3
    amp = np.random.default_rng(3).standard_normal(shape)
    psi = (dq_s * dq_i * n * m / (2 * math.pi)) * np.fft.fftshift(
        np.fft.ifft2(np.fft.ifftshift(amp))
    )
    expected = np.abs(psi) ** 2
    got = np.fft.fftshift(near_field_intensity([(amp, dq_s, dq_i, 1.0)], amp.shape))
    assert got.shape == shape
    # relative to the peak: entries near zero carry only absolute roundoff
    assert np.max(np.abs(got - expected)) <= 1e-12 * expected.max()


def test_double_gaussian_minimum_uncertainty_case():
    # a = b factorizes the state; the width product sits on the 1/2 bound.
    a = b = 4.0e-10
    q = np.linspace(-2e5, 2e5, 512)
    amp = double_gaussian(q, q, a, b)
    dq = float(q[1] - q[0])
    x = position_grid(q)
    near = np.fft.fftshift(near_field_intensity([(amp, dq, dq, 1.0)], amp.shape))
    product = conditional_widths(q, q, amp * amp) * conditional_widths(x, x, near)
    assert product == pytest.approx(0.5, rel=0.01)


def test_near_field_double_gaussian_closed_form(monkeypatch):
    """Linear per-arm arguments a = c q_s, b = -c q_i under the gauss
    kernel (as in ``test_moment_engine_double_gaussian_oracle``) give
    Psi = exp(-A q_+^2 - B q_-^2), A = w0^2 / 4, B = c^2 / 6.  Its kernel
    does not vary with q_+, so only mode 0 is non-zero, and the picture
    is the double Gaussian of the closed forms above: conditional width
    2 sqrt(AB / (A + B)), mass int Psi^2 = pi / (4 sqrt(AB)).

    Its lag profile is a Gaussian, and the band keeps at least the z =
    4.89 standard deviations that leave out eps = 1e-6 of its mass, and
    with them eps + sqrt(2 / pi) z exp(-z^2 / 2) = 2.6e-5 of the variance
    of x_s - x_i: at most 1.3e-5 of the conditional width.  The mass is
    short by at most eps."""
    assert spectral._NEAR_BAND_LOSS == 1e-6  # the bounds are derived from it
    problem = make_setup(signal_nm=780.0, n_slices=1, kernel="gauss")
    d = problem.diff_grid()[-1]
    a_sum, b_diff = problem.waist_m**2 / 4.0, 32.0 / d**2  # Psi^2 is e^-64 at q_- = D
    c = math.sqrt(6.0 * b_diff)
    monkeypatch.setattr(spectral, "slice_arms", oracle.linear_arms(c))
    near = near_field_jid(problem, "x")
    intensity = oracle.dense(near)
    assert oracle.stacked(near).width < problem.grid_n // 10
    assert conditional_widths(near.axis_signal, near.axis_idler, intensity) == pytest.approx(
        2 * math.sqrt(a_sum * b_diff / (a_sum + b_diff)), rel=1.3e-5)
    mass = intensity.sum() * near.d_signal * near.d_idler
    assert mass == pytest.approx(math.pi / (4 * math.sqrt(a_sum * b_diff)), rel=1e-6)


# -- moment engine ---------------------------------------------------------------


def widths(report):
    return np.array([report.dx_inferred_m, report.dq_inferred_radm, report.product])


@pytest.mark.parametrize("axis", ["x", "y"])
def test_moment_engine_matches_fft_path_where_the_grid_resolves_the_pump(axis):
    # w0 = 100 um: the 1024-point square grid puts ~10 pixels across the
    # 2/w0 pump width and the gauss kernel decays inside it, so the FFT
    # path is itself converged (at w0 = 500 um its pixel is wider than
    # the pump and it is off by 1e-5).
    problem = make_setup(signal_nm=780.0, waist_m=100e-6, n_slices=3, grid_n=1024,
                         kernel="gauss")
    jid = far_field_jid(problem, axis)
    x, near = oracle.fft_near_field(problem, axis)
    far = matrix_moments("far", axis, jid.axis_signal, jid.axis_idler, oracle.dense(jid))
    near = matrix_moments("near", axis, x, x, near)
    expected = widths(reid_product(near, far))
    got = widths(certify_axis(problem, axis)[2])
    np.testing.assert_allclose(got, expected, rtol=1e-6, atol=0)


def test_moment_engine_eight_hermite_nodes_match_sixteen(monkeypatch):
    problem = make_setup(signal_nm=780.0, length_m=4e-3, fwhm_nm=10.0)
    eight = widths(certify_axis(problem, "y")[2])
    monkeypatch.setattr(spectral, "_SUM_NODES", 16)
    sixteen = widths(certify_axis(problem, "y")[2])
    np.testing.assert_allclose(eight, sixteen, rtol=1e-6, atol=0)


def test_moment_engine_double_gaussian_oracle(monkeypatch):
    """Linear per-arm arguments a = c q_s, b = -c q_i under the gauss
    kernel give Psi = exp(-A q_+^2 - B q_-^2) with A = w0^2 / 4 and
    B = c^2 / 6: the double Gaussian of the closed forms above, with
    closed-form gradients."""
    problem = make_setup(signal_nm=780.0, n_slices=1, kernel="gauss")
    d = problem.diff_grid()[-1]
    a_sum, b_diff = problem.waist_m**2 / 4.0, 32.0 / d**2  # Psi^2 is e^-64 at q_- = D
    c = math.sqrt(6.0 * b_diff)
    monkeypatch.setattr(spectral, "slice_arms", oracle.linear_arms(c))
    near, far, report = certify_axis(problem, "x")
    assert far.width_inferred == pytest.approx(1 / (2 * math.sqrt(a_sum + b_diff)), rel=1e-9)
    assert near.width_inferred == pytest.approx(
        2 * math.sqrt(a_sum * b_diff / (a_sum + b_diff)), rel=1e-9)
    assert report.product == pytest.approx(math.sqrt(a_sum * b_diff) / (a_sum + b_diff), rel=1e-9)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_moment_engine_near_means_are_exactly_zero(axis):
    problem = make_setup(signal_nm=780.0, n_slices=5, grid_n=256)
    near, far, _ = certify_axis(problem, axis)
    assert near.mu_s == 0.0 and near.mu_i == 0.0
    assert near.plane == "near" and far.plane == "far"


def test_moment_engine_rejects_evanescent_nodes():
    problem = make_setup(length_m=1e-7, n_slices=1, grid_n=64)  # D = 5 sqrt(4 pi k / L) >> k
    with pytest.raises(EvanescentInputError):
        moment_sums(problem, "x")


def test_moment_engine_charges_its_node_grid():
    """10 arrays of 8 nodes x n points, 80 bytes per point: 0.625 MiB at
    n = 1024, 1.25 MiB at n = 2048."""
    budget = 2**20
    moment_sums(make_setup(n_slices=1, grid_n=1024, memory_budget_bytes=budget), "x")
    with pytest.raises(GridMemoryError, match=r"^8 x 2048 grid needs"):
        moment_sums(make_setup(n_slices=1, grid_n=2048, memory_budget_bytes=budget), "x")


def test_moment_engine_checks_its_budget_before_building_its_grid():
    """The node grid is charged from ``grid_n`` before the q_- grid is
    built: at 2**22 points (a 32 MiB grid) and a 1 MiB budget the refusal
    peaks under 4 MiB (0.7 MiB measured)."""
    moment_sums(make_setup(n_slices=1, grid_n=64), "x")  # first calls out of the trace
    problem = make_setup(n_slices=1, grid_n=2**22, memory_budget_bytes=2**20)
    tracemalloc.start()
    try:
        with pytest.raises(GridMemoryError, match=r"^8 x 4194304 grid needs ~2593 MiB "
                           r"\(budget 1 MiB\)$"):
            moment_sums(problem, "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("config", ["nondegenerate_780", "degenerate_810"])
@pytest.mark.parametrize("n_slices", [1, 31])
@pytest.mark.parametrize("kernel", ["sinc", "gauss"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_moment_engine_equals_plain_expressions(axis, kernel, n_slices, config):
    # one scratch buffer per slice changes no bit of any sum
    cfg = replace(load_config(CONFIGS / f"{config}.yaml"), kernel=kernel, n_slices=n_slices)
    problem = cfg.build()
    assert np.array_equal(moment_sums(problem, axis), oracle.moment_sums(problem, axis))


@pytest.mark.parametrize("kernel", ["sinc", "gauss"])
def test_moment_engine_working_set_is_a_few_node_grids(kernel):
    # Each slice drops its node-grid arrays once used and forms its nine
    # products in one scratch buffer: the peak stays under 14 node grids
    # (8 x n float64 arrays), where whole-array products need about 29.
    problem = make_setup(signal_nm=780.0, grid_n=1024, kernel=kernel)
    moment_sums(problem, "y")  # first calls out of the trace
    tracemalloc.start()
    try:
        moment_sums(problem, "y")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * spectral._SUM_NODES * problem.grid_n * 8
