"""YAML run configuration: strict parsing and physics-object assembly.

A run config is a nested mapping whose keys are the dotted keys of
``_KEYS`` (``crystal.length_mm``, ``axes``, ...); every key is optional
and takes its ``RunConfig`` field's default (the canonical 405 nm ->
780/842.4 nm configuration), but unknown keys anywhere are rejected with
a dotted-path error so typos cannot silently fall back to defaults.

The ``RunConfig`` is also the one record every slice loop takes.
``RunConfig.build()`` derives its physics objects and enforces the
invariants the schema cannot see (valid wavelength ranges, phase matching,
a filter support above the pump wavelength); the command layer runs it
immediately after parsing.  The budget is read in MiB and held in bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

from spdcsim.biphoton import DEFAULT_MEMORY_BUDGET_BYTES, default_diff_halfwidth
from spdcsim.dispersion import CrystalSetup, SellmeierSet, SpdcWavelengths, WavelengthRangeError
from spdcsim.spectral import (
    DEFAULT_GRID_N, DEFAULT_SPECTRAL_SLICES, MAX_SPECTRAL_SLICES, FilterSpec, sample_spectrum,
)

__all__ = [
    "ConfigError", "RunConfig", "load_config", "parse_config",
    "SWEEP_FIELDS", "SWEEP_DEFAULT_VALUES",
]


class ConfigError(ValueError):
    """A config file failed validation; the message is path-anchored."""


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _number(value, path):
    if value is None:
        _fail(path, "must be a number, got null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        _fail(path, f"must be finite, got {value!r}")
    return out


def _positive(value, path):
    out = _number(value, path)
    if out <= 0:
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


def _string(value, path):
    if not isinstance(value, str):
        _fail(path, f"must be a string, got {value!r}")
    return value


def _optional(check):
    """``check``, letting null through as None."""
    return lambda value, path: None if value is None else check(value, path)


def _choice(*options):
    def check(value, path):
        if value not in options:
            _fail(path, f"must be one of {sorted(options)}, got {value!r}")
        return value
    return check


# sweepable parameter -> the RunConfig field a sweep point replaces
SWEEP_FIELDS = {
    "filter_fwhm_nm": "filter_fwhm_nm",
    "crystal_length_mm": "length_mm",
    "pump_waist_um": "waist_um",
}

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
    **{name: name for name in SWEEP_FIELDS},
}


@dataclass(frozen=True)
class RunConfig:
    """One run's parameters (the fields, one per key of ``_KEYS``) and the
    record every slice loop takes.  ``wl``, ``crystal``, ``filt`` and
    ``slices`` are derived on first use and kept, once per config; a
    ``replace()``d config derives its own.  ``sum_halfwidth`` S and
    ``diff_halfwidth`` D bound the momentum grids (``None``: the defaults).
    """

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
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES
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
        for path, value, minimum, maximum in (
            ("grid.n", self.grid_n, 16, math.inf),
            # the budget in its key's whole MiB, rounded up: any positive budget passes
            ("grid.memory_budget_mb", -(-self.memory_budget_bytes // 2**20), 1, math.inf),
            ("spectral.slices", self.n_slices, 1, MAX_SPECTRAL_SLICES),
        ):
            if value < minimum:
                _fail(path, f"must be >= {minimum}, got {value}")
            if value > maximum:
                _fail(path, f"must be <= {maximum}, got {value}")
        if self.sweep_parameter not in SWEEP_FIELDS:
            _fail(
                "sweep.parameter",
                f"unknown sweep parameter {self.sweep_parameter!r}; "
                f"expected one of {tuple(SWEEP_FIELDS)}",
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
        for name, value in (("pump waist", self.waist_um), ("focal length", self.focal_length_m),
                            ("magnification", self.magnification)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

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

    @property
    def waist_m(self) -> float:
        return self.waist_um * 1e-6

    @cached_property
    def wl(self) -> SpdcWavelengths:
        """The nominal (pump, signal, idler) wavelengths."""
        try:
            return SpdcWavelengths.from_pump_signal(self.pump_nm, self.effective_signal_nm)
        except ValueError as exc:
            key = "pump.wavelength_nm" if self.signal_nm is None else "wavelengths.signal_nm"
            raise ConfigError(f"{key}: {exc}") from exc

    @cached_property
    def crystal(self) -> CrystalSetup:
        """The crystal, cut at ``theta_deg`` or else phase-matched for ``wl``."""
        if self.sellmeier_file is not None:
            try:
                sell = SellmeierSet.from_file(self.sellmeier_file)
            except ValueError as exc:
                raise ConfigError(f"crystal.sellmeier_file: {exc}") from exc
        else:
            sell = SellmeierSet.bbo()
        wl, length_m = self.wl, self.length_mm * 1e-3
        if self.theta_deg is None:
            return CrystalSetup.collinear(wl, sell, length_m)
        try:
            return CrystalSetup.at_angle(wl, sell, length_m, math.radians(self.theta_deg))
        except WavelengthRangeError:
            raise
        except ValueError as exc:
            raise ConfigError(f"crystal.theta_deg: {exc}") from exc

    @cached_property
    def filt(self) -> FilterSpec:
        """The filter, on its arm's nominal wavelength unless centred elsewhere."""
        center = self.filter_center_nm
        if center is None:
            center = self.wl.signal_nm if self.filter_arm == "signal" else self.wl.idler_nm
        return FilterSpec(self.filter_shape, center, self.filter_fwhm_nm, arm=self.filter_arm)

    @cached_property
    def slices(self) -> tuple[tuple[float, float, float], ...]:
        """``sample_spectrum``'s (lambda_s, lambda_i, weight) triples, in sampling order."""
        filt, pump_nm = self.filt, self.wl.pump_nm
        try:
            return sample_spectrum(filt, pump_nm, self.n_slices)
        except ValueError as exc:
            key = "filter.fwhm_nm" if filt.center_nm > pump_nm else "filter.center_nm"
            raise ConfigError(f"{key}: {exc}") from exc

    def _diff_extent(self) -> float:
        """D: ``diff_halfwidth``, or 5 phase-matching main-lobe widths."""
        if self.diff_halfwidth is not None:
            return self.diff_halfwidth
        return default_diff_halfwidth(self.wl, self.crystal)

    def square_grid(self) -> np.ndarray:
        """The one momentum grid both arms share on either axis: ``grid_n``
        uniform points over [-(S + D)/2, (S + D)/2], sized from the pump's
        sum width ~2/w0 and the kernel's two orders of magnitude wider
        difference width ~sqrt(4 pi k / L).  Default half-extents are 5x
        each scale (truncated mass < 1e-5): S = 10 / w0 and D from
        ``default_diff_halfwidth``.
        """
        s = self.sum_halfwidth
        if s is None:
            s = 5.0 * (2.0 / self.waist_m)
        half = 0.5 * (s + self._diff_extent())
        return np.linspace(-half, half, self.grid_n)

    def diff_grid(self) -> np.ndarray:
        """The moment engine's q_s - q_i grid: ``grid_n`` uniform points
        over [-D, D]."""
        d = self._diff_extent()
        return np.linspace(-d, d, self.grid_n)

    def build(self) -> RunConfig:
        """Derive what this config implies, check it, and return the config.

        Raises ConfigError, naming the key, for contradictions the schema
        cannot see (e.g. a degenerate flag fighting an explicit signal
        wavelength, a signal not longer than the pump, a pump angle outside
        [0, 90] degrees, or a filter whose outermost node reaches the pump
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
        self.crystal  # the Sellmeier set, the wavelengths and the cut
        self.slices  # the filter and its rule, once per config
        return self


def _axes(value, path):
    value = [value] if isinstance(value, str) else value
    if not isinstance(value, list):
        _fail(path, f"must be a non-empty list of 'x'/'y', got {value!r}")
    return tuple(value)


def _formats(value, path):
    value = [value] if isinstance(value, str) else value
    if not isinstance(value, list) or not value:
        _fail(path, f"must be a non-empty list, got {value!r}")
    return tuple(_choice("csv", "json", "bin")(f, path) for f in value)


def _sweep_parameter(value, path):
    return _SWEEP_ALIASES[_choice(*_SWEEP_ALIASES)(value, path)]


def _mebibytes(value, path):
    return _integer(value, path) * 2**20


def _sweep_values(value, path):
    if not isinstance(value, list):
        _fail(path, f"must be a non-empty list, got {value!r}")
    return tuple(_positive(v, f"{path}[{i}]") for i, v in enumerate(value))


#: dotted key -> (RunConfig field, check of the given value), in the order
#: the values are checked; the ranges the fields share with ``replace()``
#: are checked after them, in ``RunConfig.__post_init__``
_KEYS = {
    "axes": ("axes", _axes),
    "sweep.parameter": ("sweep_parameter", _sweep_parameter),
    "sweep.values": ("sweep_values", _optional(_sweep_values)),
    "output.formats": ("out_formats", _formats),
    "crystal.sellmeier_file": ("sellmeier_file", _optional(_string)),
    "crystal.material": ("crystal_material", _choice("bbo")),
    "crystal.length_mm": ("length_mm", _positive),
    "crystal.theta_deg": ("theta_deg", _optional(_number)),
    "pump.wavelength_nm": ("pump_nm", _positive),
    "pump.waist_um": ("waist_um", _positive),
    "wavelengths.degenerate": ("degenerate", _boolean),
    "wavelengths.signal_nm": ("signal_nm", _optional(_positive)),
    "filter.shape": ("filter_shape", _choice("gaussian", "tophat")),
    "filter.center_nm": ("filter_center_nm", _optional(_positive)),
    "filter.fwhm_nm": ("filter_fwhm_nm", _positive),
    "filter.arm": ("filter_arm", _choice("signal", "idler")),
    "grid.n": ("grid_n", _integer),
    "grid.sum_halfwidth": ("sum_halfwidth", _optional(_positive)),
    "grid.diff_halfwidth": ("diff_halfwidth", _optional(_positive)),
    "grid.memory_budget_mb": ("memory_budget_bytes", _mebibytes),
    "spectral.slices": ("n_slices", _integer),
    "model.kernel": ("kernel", _choice("sinc", "gauss")),
    "camera.focal_length_m": ("focal_length_m", _positive),
    "camera.magnification": ("magnification", _positive),
    "output.directory": ("out_dir", _string),
}


def _sections() -> dict[str, set[str]]:
    """Each top-level name -> its keys (none for a plain value, ``axes``),
    in the order of the RunConfig fields they set: the order of the checks."""
    key_of = {field: key for key, (field, _) in _KEYS.items()}
    sections: dict[str, set[str]] = {}
    for field in RunConfig.__dataclass_fields__:
        name, _, sub = key_of[field].partition(".")
        sections.setdefault(name, set()).update({sub} - {""})
    return sections


_SECTIONS = _sections()


def parse_config(mapping: dict | None) -> RunConfig:
    """Validate a raw nested mapping into a RunConfig.

    Unknown keys at any level raise ConfigError naming the dotted path;
    a key not given keeps its RunConfig default.
    """
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"top level must be a mapping, got {mapping!r}")
    for name in mapping:
        if name not in _SECTIONS:
            _fail(name, f"unknown section (expected one of {sorted(_SECTIONS)})")
    given = {name: value for name, value in mapping.items() if not _SECTIONS[name]}  # axes
    for name, known in _SECTIONS.items():
        raw = mapping[name] if name in mapping else None
        if not known or raw is None:
            continue
        if not isinstance(raw, dict):
            _fail(name, f"must be a mapping, got {raw!r}")
        for key in raw:
            if key not in known:
                _fail(f"{name}.{key}", f"unknown key (expected one of {sorted(known)})")
            given[f"{name}.{key}"] = raw[key]
    return RunConfig(**{
        field: check(given[key], key) for key, (field, check) in _KEYS.items() if key in given
    })


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
