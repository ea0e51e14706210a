"""Index model, phase matching and walk-off against independently
computed reference values (hand-evaluated Sellmeier arithmetic and a
separate bisection solve, not this package)."""

import math

import pytest
from hypothesis import given, strategies as st

from spdcsim import dispersion
from spdcsim.dispersion import (
    CrystalSetup,
    PhaseMatchingError,
    SellmeierSet,
    SpdcWavelengths,
    WavelengthRangeError,
    effective_index,
    idler_wavelength,
    phase_matching_angle,
    walkoff_angle,
    wavevector_magnitude,
)

BBO = SellmeierSet.bbo()

# Frozen reference indices (independent evaluation of the Sellmeier form).
REF_INDICES = {
    ("o", 405.0): 1.69188689597686,
    ("o", 780.0): 1.6611691859752775,
    ("o", 810.0): 1.6602583173171748,
    ("o", 842.4): 1.6593532132920834,
    ("e", 405.0): 1.5671241459050829,
}


@pytest.mark.parametrize(("ray", "wavelength"), sorted(REF_INDICES, key=str))
def test_reference_indices(ray, wavelength):
    got = (
        BBO.index_ordinary(wavelength)
        if ray == "o"
        else BBO.index_extraordinary(wavelength)
    )
    assert got == pytest.approx(REF_INDICES[(ray, wavelength)], abs=1e-12)


def test_bbo_is_negative_uniaxial():
    # n_e < n_o across the visible/NIR window.
    for wl in (300.0, 405.0, 532.0, 810.0, 1000.0):
        assert BBO.index_extraordinary(wl) < BBO.index_ordinary(wl)


def test_wavevector_magnitude_frozen():
    k = wavevector_magnitude(BBO.index_ordinary(810.0), 810.0)
    assert k == pytest.approx(12878655.142580217, rel=1e-14)


def test_out_of_range_raises():
    with pytest.raises(WavelengthRangeError):
        BBO.index_ordinary(150.0)
    with pytest.raises(WavelengthRangeError):
        BBO.index_extraordinary(2000.0)


def test_validity_range_is_inclusive():
    lo, hi = BBO.range_um
    BBO.index_ordinary(lo * 1e3)
    BBO.index_ordinary(hi * 1e3)


# -- energy conservation ---------------------------------------------------


def test_idler_wavelength_nondegenerate():
    assert idler_wavelength(405.0, 780.0) == pytest.approx(842.4, abs=1e-9)


def test_idler_wavelength_degenerate():
    assert idler_wavelength(405.0, 810.0) == pytest.approx(810.0, abs=1e-12)


def test_idler_rejects_signal_shorter_than_pump():
    with pytest.raises(ValueError):
        idler_wavelength(405.0, 400.0)
    with pytest.raises(ValueError):
        idler_wavelength(405.0, math.nan)


@given(
    pump=st.floats(250.0, 500.0),
    signal=st.floats(505.0, 1500.0),
)
def test_energy_conservation_roundtrip(pump, signal):
    idler = idler_wavelength(pump, signal)
    assert idler > pump
    assert 1.0 / pump == pytest.approx(1.0 / signal + 1.0 / idler, rel=1e-12)


def test_wavelength_triple_validates():
    wl = SpdcWavelengths.from_pump_signal(405.0, 780.0)
    assert wl.idler_nm == pytest.approx(842.4)
    assert not wl.degenerate
    assert SpdcWavelengths.from_pump_signal(405.0, 810.0).degenerate
    with pytest.raises(ValueError):
        SpdcWavelengths(405.0, 780.0, 800.0)  # not energy conserving


# -- effective index and phase matching ------------------------------------


def test_effective_index_limits():
    n_o = BBO.index_ordinary(405.0)
    n_e = BBO.index_extraordinary(405.0)
    assert effective_index(BBO, 0.0, 405.0) == pytest.approx(n_o, rel=1e-15)
    assert effective_index(BBO, math.pi / 2, 405.0) == pytest.approx(n_e, rel=1e-15)


def test_effective_index_frozen_value():
    got = effective_index(BBO, math.radians(28.81), 405.0)
    assert got == pytest.approx(1.6602697446073016, abs=1e-12)


@given(theta=st.floats(0.0, math.pi / 2))
def test_effective_index_bounded_and_monotone_region(theta):
    n = effective_index(BBO, theta, 405.0)
    n_o = BBO.index_ordinary(405.0)
    n_e = BBO.index_extraordinary(405.0)
    assert n_e - 1e-12 <= n <= n_o + 1e-12


def test_phase_matching_angle_degenerate():
    wl = SpdcWavelengths.from_pump_signal(405.0, 810.0)
    theta = phase_matching_angle(wl, BBO)
    assert math.degrees(theta) == pytest.approx(28.815857436885036, abs=1e-9)


def test_phase_matching_angle_nondegenerate():
    wl = SpdcWavelengths.from_pump_signal(405.0, 780.0)
    theta = phase_matching_angle(wl, BBO)
    assert math.degrees(theta) == pytest.approx(28.796476857694966, abs=1e-9)


def test_phase_matching_angle_zeroes_collinear_mismatch():
    wl = SpdcWavelengths.from_pump_signal(405.0, 810.0)
    theta = phase_matching_angle(wl, BBO)
    k_p = wavevector_magnitude(effective_index(BBO, theta, 405.0), 405.0)
    k_s = wavevector_magnitude(BBO.index_ordinary(810.0), 810.0)
    assert k_p == pytest.approx(2.0 * k_s, rel=1e-12)


def test_phase_matching_angle_zeroes_nondegenerate_mismatch():
    wl = SpdcWavelengths.from_pump_signal(405.0, 780.0)
    theta = phase_matching_angle(wl, BBO)
    k_p = wavevector_magnitude(effective_index(BBO, theta, 405.0), 405.0)
    k_s = wavevector_magnitude(BBO.index_ordinary(780.0), 780.0)
    k_i = wavevector_magnitude(BBO.index_ordinary(wl.idler_nm), wl.idler_nm)
    assert k_p == pytest.approx(k_s + k_i, rel=1e-12)


@pytest.mark.parametrize("offset_tol, raises", [(10.0, True), (0.5, False)])
def test_phase_matching_check_catches_wrong_closed_form(monkeypatch, offset_tol, raises):
    # The returned angle is checked against the mismatch itself: a
    # closed form off by more than the tolerance is refused.
    wl = SpdcWavelengths.from_pump_signal(405.0, 780.0)
    tol = 1e-6
    shifted = phase_matching_angle(wl, BBO) + offset_tol * tol
    monkeypatch.setattr(dispersion, "_phase_matching_angle_closed", lambda wl, sell: shifted)
    if raises:
        with pytest.raises(PhaseMatchingError):
            phase_matching_angle(wl, BBO, agreement_tol_rad=tol)
    else:
        assert phase_matching_angle(wl, BBO, agreement_tol_rad=tol) == shifted


def test_phase_matching_unreachable_raises():
    # A fictitious barely-birefringent crystal cannot reach the condition.
    weak = SellmeierSet(
        ordinary=BBO.ordinary,
        extraordinary=(2.73, 0.01878, 0.01822, 0.01354),
        range_um=BBO.range_um,
    )
    wl = SpdcWavelengths.from_pump_signal(405.0, 810.0)
    with pytest.raises(PhaseMatchingError) as err:
        phase_matching_angle(wl, weak)
    # Residuals tell the caller which way it failed.
    assert err.value.residual_lo > 0
    assert err.value.residual_hi > 0


@pytest.mark.parametrize("ray", ["ordinary", "extraordinary"])
@pytest.mark.parametrize(
    "key, value",
    [("A", float("nan")), ("B", float("inf")), ("C", float("-inf")), ("A", None),
     ("A", "abc"), ("D", True), ("B", "0.018"), ("C", 10**400)],
    ids=["nan", "inf", "-inf", "null", "text", "bool", "quoted", "huge-int"],
)
def test_sellmeier_coefficient_must_be_finite_number(ray, key, value):
    def coefficients(coeffs):
        return dict(zip("ABCD", coeffs))

    doc = {
        "ordinary": coefficients(BBO.ordinary),
        "extraordinary": coefficients(BBO.extraordinary),
        "range_um": list(BBO.range_um),
    }
    assert SellmeierSet.from_mapping(doc).ordinary == BBO.ordinary
    doc[ray][key] = value
    with pytest.raises(ValueError) as err:
        SellmeierSet.from_mapping(doc)
    assert str(err.value) == f"{ray}.{key}: must be a finite number, got {value!r}"


# -- walk-off ---------------------------------------------------------------


def test_walkoff_at_quoted_cut_angle():
    rho = walkoff_angle(BBO, math.radians(27.80), 405.0)
    assert math.degrees(rho) == pytest.approx(4.415417541905931, abs=1e-9)


def test_walkoff_at_collinear_angles():
    wl_nd = SpdcWavelengths.from_pump_signal(405.0, 780.0)
    rho_nd = walkoff_angle(BBO, phase_matching_angle(wl_nd, BBO), 405.0)
    assert math.degrees(rho_nd) == pytest.approx(4.559789856660573, abs=1e-9)

    wl_d = SpdcWavelengths.from_pump_signal(405.0, 810.0)
    rho_d = walkoff_angle(BBO, phase_matching_angle(wl_d, BBO), 405.0)
    assert math.degrees(rho_d) == pytest.approx(4.562583724965406, abs=1e-9)


def test_walkoff_vanishes_along_axis():
    assert walkoff_angle(BBO, 0.0, 405.0) == 0.0


@given(theta=st.floats(1e-4, math.pi / 2 - 1e-4))
def test_walkoff_positive_for_negative_crystal(theta):
    assert walkoff_angle(BBO, theta, 405.0) > 0.0


def test_crystal_setup_collinear_factory():
    wl = SpdcWavelengths.from_pump_signal(405.0, 780.0)
    crystal = CrystalSetup.collinear(wl, BBO, 1e-3)
    assert crystal.length_m == 1e-3
    assert math.degrees(crystal.theta_p) == pytest.approx(28.796476857694966, abs=1e-9)
    assert math.degrees(crystal.rho) == pytest.approx(4.559789856660573, abs=1e-9)


def test_crystal_setup_rejects_bad_length():
    wl = SpdcWavelengths.from_pump_signal(405.0, 780.0)
    with pytest.raises(ValueError):
        CrystalSetup.at_angle(wl, BBO, 0.0, math.radians(28.8))
    with pytest.raises(ValueError, match="crystal length must be positive, got nan"):
        CrystalSetup.collinear(wl, BBO, math.nan)
