"""YAML run configuration: strict parsing and physics-object assembly.

A run config is a nested mapping with the sections below; every key is
optional (the defaults reproduce the canonical 405 nm -> 780/842.4 nm
configuration), but unknown keys anywhere are rejected with a
dotted-path error so typos cannot silently fall back to defaults.

    crystal:     material, sellmeier_file, length_mm, theta_deg
    pump:        wavelength_nm, waist_um
    wavelengths: degenerate, signal_nm
    filter:      shape, center_nm, fwhm_nm, arm
    grid:        n, sum_halfwidth, diff_halfwidth, memory_budget_mb
    spectral:    slices
    model:       kernel
    camera:      focal_length_m, magnification
    axes:        [x, y] (list or single string)
    sweep:       parameter, values
    output:      directory, formats

``RunConfig.build()`` assembles the one ``spectral.Problem`` every
slice loop takes, and enforces the physical invariants the schema
cannot see (positive lengths, valid wavelength ranges, phase matching,
a filter support above the pump wavelength); the command layer runs it
immediately after parsing.  ``certify_axis()`` is the one near+far
computation behind ``certify``, every ``sweep`` point and ``stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from spdcsim.dispersion import CrystalSetup, SellmeierSet, SpdcWavelengths, WavelengthRangeError
from spdcsim.spectral import (
    DEFAULT_GRID_N,
    DEFAULT_SPECTRAL_SLICES,
    FilterSpec,
    Problem,
    moment_sums,
    sample_spectrum,
)
from spdcsim.stats import ReidReport, StatsSummary, reid_inference, reid_product

__all__ = [
    "ConfigError", "RunConfig", "certify_axis", "load_config", "parse_config",
    "SWEEP_FIELDS", "SWEEPABLE", "SWEEP_DEFAULT_VALUES",
]


class ConfigError(ValueError):
    """A config file failed validation; the message is path-anchored."""


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _number(value, path, *, positive=False, nullable=False):
    if value is None:
        if nullable:
            return None
        _fail(path, "must be a number, got null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        _fail(path, f"must be finite, got {value!r}")
    if positive and out <= 0:
        _fail(path, f"must be positive, got {value!r}")
    return out


def _integer(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"must be an integer, got {value!r}")
    return value


def _boolean(value, path):
    if not isinstance(value, bool):
        _fail(path, f"must be true or false, got {value!r}")
    return value


def _choice(value, path, options):
    if value not in options:
        _fail(path, f"must be one of {sorted(options)}, got {value!r}")
    return value


def _string(value, path):
    if not isinstance(value, str):
        _fail(path, f"must be a string, got {value!r}")
    return value


def _section(mapping, name, known):
    raw = mapping.get(name)
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        _fail(name, f"must be a mapping, got {raw!r}")
    for key in raw:
        if key not in known:
            _fail(f"{name}.{key}", f"unknown key (expected one of {sorted(known)})")
    return raw


# sweepable parameter -> the RunConfig field a sweep point replaces
SWEEP_FIELDS = {
    "filter_fwhm_nm": "filter_fwhm_nm",
    "crystal_length_mm": "length_mm",
    "pump_waist_um": "waist_um",
}
SWEEPABLE = tuple(SWEEP_FIELDS)

# Representative value ladders bracketing the regimes of interest.
SWEEP_DEFAULT_VALUES = {
    "filter_fwhm_nm": (1.0, 2.0, 4.0, 6.0, 8.0, 10.0),
    "crystal_length_mm": (0.5, 1.0, 2.0, 4.0),
    "pump_waist_um": (100.0, 250.0, 500.0, 1000.0),
}

# accepted spellings of the sweepable parameters -> canonical names
_SWEEP_ALIASES = {
    "filter_fwhm": "filter_fwhm_nm",
    "crystal_length": "crystal_length_mm",
    "pump_waist": "pump_waist_um",
    **{name: name for name in SWEEPABLE},
}

_FORMATS = ("csv", "json", "bin")


@dataclass(frozen=True)
class RunConfig:
    crystal_material: str = "bbo"
    sellmeier_file: str | None = None
    length_mm: float = 1.0
    theta_deg: float | None = None
    pump_nm: float = 405.0
    waist_um: float = 500.0
    degenerate: bool = False
    signal_nm: float | None = None
    filter_shape: str = "gaussian"
    filter_center_nm: float | None = None
    filter_fwhm_nm: float = 5.0
    filter_arm: str = "signal"
    grid_n: int = DEFAULT_GRID_N
    sum_halfwidth: float | None = None
    diff_halfwidth: float | None = None
    memory_budget_mb: int = 2048
    n_slices: int = DEFAULT_SPECTRAL_SLICES
    kernel: str = "sinc"
    focal_length_m: float = 0.25
    magnification: float = 1.0
    axes: tuple[str, ...] = ("x", "y")
    sweep_parameter: str = "filter_fwhm_nm"
    sweep_values: tuple[float, ...] | None = None
    out_dir: str = "."
    out_formats: tuple[str, ...] = ("csv",)

    def __post_init__(self) -> None:
        for path, value, minimum in (
            ("grid.n", self.grid_n, 16),
            ("grid.memory_budget_mb", self.memory_budget_mb, 1),
            ("spectral.slices", self.n_slices, 1),
        ):
            if value < minimum:
                _fail(path, f"must be >= {minimum}, got {value}")
        if self.sweep_parameter not in SWEEP_FIELDS:
            _fail(
                "sweep.parameter",
                f"unknown sweep parameter {self.sweep_parameter!r}; "
                f"expected one of {SWEEPABLE}",
            )
        values = self.sweep_values
        if values is not None:
            if not values:
                _fail("sweep.values", "must be a non-empty list")
            if any(b <= a for a, b in zip(values, values[1:])):
                _fail("sweep.values", "must be strictly increasing")
        if not self.axes or any(a not in ("x", "y") for a in self.axes):
            _fail("axes", f"must be a non-empty list of 'x'/'y', got {list(self.axes)!r}")
        if len(set(self.axes)) != len(self.axes):
            _fail("axes", f"duplicate axis in {list(self.axes)}")

    @property
    def effective_signal_nm(self) -> float:
        if self.signal_nm is not None:
            return self.signal_nm
        return 2.0 * self.pump_nm if self.degenerate else 780.0

    @property
    def effective_sweep_values(self) -> tuple[float, ...]:
        if self.sweep_values is not None:
            return self.sweep_values
        return SWEEP_DEFAULT_VALUES[self.sweep_parameter]

    def build(self) -> Problem:
        """Assemble and validate the slice-loop inputs this config describes.

        Raises ConfigError, naming the key, for contradictions the schema
        cannot see (e.g. a degenerate flag fighting an explicit signal
        wavelength, a signal not longer than the pump, a pump angle outside
        [0, 90] degrees, or a filter whose sampled support reaches the pump
        wavelength); wavelengths outside the dispersion data and failed
        phase matching propagate as themselves.
        """
        if self.degenerate and self.signal_nm is not None:
            if abs(self.signal_nm - 2.0 * self.pump_nm) > 1e-9:
                _fail(
                    "wavelengths.signal_nm",
                    f"degenerate run requires signal = 2 x pump = "
                    f"{2.0 * self.pump_nm} nm, got {self.signal_nm}",
                )
        if self.sellmeier_file is not None:
            try:
                sell = SellmeierSet.from_file(self.sellmeier_file)
            except ValueError as exc:
                raise ConfigError(f"crystal.sellmeier_file: {exc}") from exc
        else:
            sell = SellmeierSet.bbo()
        try:
            wl = SpdcWavelengths.from_pump_signal(self.pump_nm, self.effective_signal_nm)
        except ValueError as exc:
            key = "pump.wavelength_nm" if self.signal_nm is None else "wavelengths.signal_nm"
            raise ConfigError(f"{key}: {exc}") from exc
        length_m = self.length_mm * 1e-3
        if self.theta_deg is None:
            crystal = CrystalSetup.collinear(wl, sell, length_m)
        else:
            try:
                crystal = CrystalSetup.at_angle(wl, sell, length_m, math.radians(self.theta_deg))
            except WavelengthRangeError:
                raise
            except ValueError as exc:
                raise ConfigError(f"crystal.theta_deg: {exc}") from exc
        center = self.filter_center_nm
        if center is None:
            center = wl.signal_nm if self.filter_arm == "signal" else wl.idler_nm
        filt = FilterSpec(self.filter_shape, center, self.filter_fwhm_nm, arm=self.filter_arm)
        try:
            sample_spectrum(filt, wl.pump_nm, self.n_slices)
        except ValueError as exc:
            key = "filter.fwhm_nm" if center > wl.pump_nm else "filter.center_nm"
            raise ConfigError(f"{key}: {exc}") from exc
        return Problem(
            wl, crystal, self.waist_um * 1e-6, filt,
            n_slices=self.n_slices, grid_n=self.grid_n,
            sum_halfwidth=self.sum_halfwidth, diff_halfwidth=self.diff_halfwidth,
            kernel=self.kernel, memory_budget_bytes=self.memory_budget_mb * 1024**2,
        )


def certify_axis(problem: Problem, axis: str) -> tuple[StatsSummary, StatsSummary, ReidReport]:
    """Near- and far-field inference of one axis and their Reid report.

    Both planes come from one ``spectral.moment_sums`` pass, its slices
    added with their filter weights in sampling order: the far field from
    the momentum moments of Psi^2, the near field from the gradient
    moments, whose means are exactly 0.
    """
    spectrum = sample_spectrum(problem.filt, problem.wl.pump_nm, problem.n_slices)
    total = np.zeros(9)
    for (_, _, weight), row in zip(spectrum, moment_sums(problem, axis)):
        total += weight * row
    norm, q_s, q_i, q_ss, q_ii, q_si, g_ss, g_ii, g_si = total.tolist()
    summary = StatsSummary.from_sums
    near = reid_inference(summary("near", axis, norm, 0.0, 0.0, g_ss, g_ii, g_si))
    far = reid_inference(summary("far", axis, norm, q_s, q_i, q_ss, q_ii, q_si))
    return near, far, reid_product(near, far)


_TOP_LEVEL = (
    "crystal", "pump", "wavelengths", "filter", "grid",
    "spectral", "model", "camera", "axes", "sweep", "output",
)


def parse_config(mapping: dict | None) -> RunConfig:
    """Validate a raw nested mapping into a RunConfig.

    Unknown keys at any level raise ConfigError naming the dotted path.
    """
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"top level must be a mapping, got {mapping!r}")
    for key in mapping:
        if key not in _TOP_LEVEL:
            _fail(key, f"unknown section (expected one of {sorted(_TOP_LEVEL)})")

    crystal = _section(mapping, "crystal", {"material", "sellmeier_file", "length_mm", "theta_deg"})
    pump = _section(mapping, "pump", {"wavelength_nm", "waist_um"})
    wavelengths = _section(mapping, "wavelengths", {"degenerate", "signal_nm"})
    filt = _section(mapping, "filter", {"shape", "center_nm", "fwhm_nm", "arm"})
    grid = _section(mapping, "grid", {"n", "sum_halfwidth", "diff_halfwidth", "memory_budget_mb"})
    spectral = _section(mapping, "spectral", {"slices"})
    model = _section(mapping, "model", {"kernel"})
    camera = _section(mapping, "camera", {"focal_length_m", "magnification"})
    sweep = _section(mapping, "sweep", {"parameter", "values"})
    output = _section(mapping, "output", {"directory", "formats"})

    axes_raw = mapping.get("axes", ["x", "y"])
    if isinstance(axes_raw, str):
        axes_raw = [axes_raw]
    if not isinstance(axes_raw, list):
        _fail("axes", f"must be a non-empty list of 'x'/'y', got {axes_raw!r}")

    parameter_raw = sweep.get("parameter", "filter_fwhm_nm")
    _choice(parameter_raw, "sweep.parameter", tuple(_SWEEP_ALIASES))
    values = sweep.get("values")
    if values is not None:
        if not isinstance(values, list):
            _fail("sweep.values", f"must be a non-empty list, got {values!r}")
        values = tuple(
            _number(v, f"sweep.values[{i}]", positive=True) for i, v in enumerate(values)
        )

    formats_raw = output.get("formats", ["csv"])
    if isinstance(formats_raw, str):
        formats_raw = [formats_raw]
    if not isinstance(formats_raw, list) or not formats_raw:
        _fail("output.formats", f"must be a non-empty list, got {formats_raw!r}")
    formats = tuple(_choice(f, "output.formats", _FORMATS) for f in formats_raw)

    sellmeier_file = crystal.get("sellmeier_file")
    if sellmeier_file is not None:
        sellmeier_file = _string(sellmeier_file, "crystal.sellmeier_file")

    return RunConfig(
        crystal_material=_choice(crystal.get("material", "bbo"), "crystal.material", ("bbo",)),
        sellmeier_file=sellmeier_file,
        length_mm=_number(crystal.get("length_mm", 1.0), "crystal.length_mm", positive=True),
        theta_deg=_number(crystal.get("theta_deg"), "crystal.theta_deg", nullable=True),
        pump_nm=_number(pump.get("wavelength_nm", 405.0), "pump.wavelength_nm", positive=True),
        waist_um=_number(pump.get("waist_um", 500.0), "pump.waist_um", positive=True),
        degenerate=_boolean(wavelengths.get("degenerate", False), "wavelengths.degenerate"),
        signal_nm=_number(wavelengths.get("signal_nm"), "wavelengths.signal_nm",
                          positive=True, nullable=True),
        filter_shape=_choice(filt.get("shape", "gaussian"), "filter.shape",
                             ("gaussian", "tophat")),
        filter_center_nm=_number(filt.get("center_nm"), "filter.center_nm",
                                 positive=True, nullable=True),
        filter_fwhm_nm=_number(filt.get("fwhm_nm", 5.0), "filter.fwhm_nm", positive=True),
        filter_arm=_choice(filt.get("arm", "signal"), "filter.arm", ("signal", "idler")),
        grid_n=_integer(grid.get("n", DEFAULT_GRID_N), "grid.n"),
        sum_halfwidth=_number(grid.get("sum_halfwidth"), "grid.sum_halfwidth",
                              positive=True, nullable=True),
        diff_halfwidth=_number(grid.get("diff_halfwidth"), "grid.diff_halfwidth",
                               positive=True, nullable=True),
        memory_budget_mb=_integer(grid.get("memory_budget_mb", 2048), "grid.memory_budget_mb"),
        n_slices=_integer(spectral.get("slices", DEFAULT_SPECTRAL_SLICES), "spectral.slices"),
        kernel=_choice(model.get("kernel", "sinc"), "model.kernel", ("sinc", "gauss")),
        focal_length_m=_number(camera.get("focal_length_m", 0.25),
                               "camera.focal_length_m", positive=True),
        magnification=_number(camera.get("magnification", 1.0),
                              "camera.magnification", positive=True),
        axes=tuple(axes_raw),
        sweep_parameter=_SWEEP_ALIASES[parameter_raw],
        sweep_values=values,
        out_dir=_string(output.get("directory", "."), "output.directory"),
        out_formats=formats,
    )


def load_config(path: str | Path | None) -> RunConfig:
    """Read and validate a YAML config file (None -> all defaults)."""
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    try:
        return parse_config(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
