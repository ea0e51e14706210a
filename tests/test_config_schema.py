"""The config key table: every dotted key, its exact error messages, and
the defaults that only ``RunConfig`` holds.

The messages below are literal strings, so a change to any check, to the
order the checks run in, or to a message's wording fails here.
"""

import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from spdcsim.biphoton import DEFAULT_MEMORY_BUDGET_BYTES
from spdcsim.config import _KEYS, ConfigError, RunConfig, load_config, parse_config

ROOT = Path(__file__).resolve().parents[1]

SWEEP_NAMES = ("['crystal_length', 'crystal_length_mm', 'filter_fwhm', 'filter_fwhm_nm', "
               "'pump_waist', 'pump_waist_um']")
TOP_NAMES = ("['axes', 'camera', 'crystal', 'filter', 'grid', 'model', 'output', 'pump', "
             "'spectral', 'sweep', 'wavelengths']")

FAULTS = [
    # one wrong value per dotted key
    ({"axes": 5}, "axes: must be a non-empty list of 'x'/'y', got 5"),
    ({"sweep": {"parameter": "pump_power"}},
     f"sweep.parameter: must be one of {SWEEP_NAMES}, got 'pump_power'"),
    ({"sweep": {"values": 2.0}}, "sweep.values: must be a non-empty list, got 2.0"),
    ({"output": {"formats": 5}}, "output.formats: must be a non-empty list, got 5"),
    ({"crystal": {"sellmeier_file": 5}}, "crystal.sellmeier_file: must be a string, got 5"),
    ({"crystal": {"material": "lbo"}}, "crystal.material: must be one of ['bbo'], got 'lbo'"),
    ({"crystal": {"length_mm": "long"}}, "crystal.length_mm: must be a number, got 'long'"),
    ({"crystal": {"theta_deg": "steep"}}, "crystal.theta_deg: must be a number, got 'steep'"),
    ({"pump": {"wavelength_nm": True}}, "pump.wavelength_nm: must be a number, got True"),
    ({"pump": {"waist_um": 0}}, "pump.waist_um: must be positive, got 0"),
    ({"wavelengths": {"degenerate": "yes"}},
     "wavelengths.degenerate: must be true or false, got 'yes'"),
    ({"wavelengths": {"signal_nm": -780.0}},
     "wavelengths.signal_nm: must be positive, got -780.0"),
    ({"filter": {"shape": "lorentzian"}},
     "filter.shape: must be one of ['gaussian', 'tophat'], got 'lorentzian'"),
    ({"filter": {"center_nm": math.nan}}, "filter.center_nm: must be finite, got nan"),
    ({"filter": {"fwhm_nm": None}}, "filter.fwhm_nm: must be a number, got null"),
    ({"filter": {"arm": "pump"}}, "filter.arm: must be one of ['idler', 'signal'], got 'pump'"),
    ({"grid": {"n": 1024.0}}, "grid.n: must be an integer, got 1024.0"),
    ({"grid": {"sum_halfwidth": 0.0}}, "grid.sum_halfwidth: must be positive, got 0.0"),
    ({"grid": {"diff_halfwidth": math.inf}}, "grid.diff_halfwidth: must be finite, got inf"),
    ({"grid": {"memory_budget_mb": 0}}, "grid.memory_budget_mb: must be >= 1, got 0"),
    ({"spectral": {"slices": True}}, "spectral.slices: must be an integer, got True"),
    ({"model": {"kernel": "lorentz"}},
     "model.kernel: must be one of ['gauss', 'sinc'], got 'lorentz'"),
    ({"camera": {"focal_length_m": "0.25"}},
     "camera.focal_length_m: must be a number, got '0.25'"),
    ({"camera": {"magnification": -1}}, "camera.magnification: must be positive, got -1"),
    ({"output": {"directory": None}}, "output.directory: must be a string, got None"),
    # the integer ranges RunConfig checks for replace() too
    ({"grid": {"n": 15}}, "grid.n: must be >= 16, got 15"),
    ({"spectral": {"slices": 0}}, "spectral.slices: must be >= 1, got 0"),
    # the top level
    ([], "top level must be a mapping, got []"),
    ({"lens": {"f": 0.1}}, f"lens: unknown section (expected one of {TOP_NAMES})"),
    # each section not a mapping, and an unknown key in it
    ({"crystal": "bbo"}, "crystal: must be a mapping, got 'bbo'"),
    ({"crystal": {"cut": 1}},
     "crystal.cut: unknown key (expected one of "
     "['length_mm', 'material', 'sellmeier_file', 'theta_deg'])"),
    ({"pump": [405]}, "pump: must be a mapping, got [405]"),
    ({"pump": {"power_mw": 50}},
     "pump.power_mw: unknown key (expected one of ['waist_um', 'wavelength_nm'])"),
    ({"wavelengths": 780}, "wavelengths: must be a mapping, got 780"),
    ({"wavelengths": {"idler_nm": 842.4}},
     "wavelengths.idler_nm: unknown key (expected one of ['degenerate', 'signal_nm'])"),
    ({"filter": True}, "filter: must be a mapping, got True"),
    ({"filter": {"width_nm": 5}},
     "filter.width_nm: unknown key (expected one of "
     "['arm', 'center_nm', 'fwhm_nm', 'shape'])"),
    ({"grid": [1024]}, "grid: must be a mapping, got [1024]"),
    ({"grid": {"N": 1024}},
     "grid.N: unknown key (expected one of "
     "['diff_halfwidth', 'memory_budget_mb', 'n', 'sum_halfwidth'])"),
    ({"spectral": 31}, "spectral: must be a mapping, got 31"),
    ({"spectral": {"n": 31}}, "spectral.n: unknown key (expected one of ['slices'])"),
    ({"model": "sinc"}, "model: must be a mapping, got 'sinc'"),
    ({"model": {"type": "sinc"}}, "model.type: unknown key (expected one of ['kernel'])"),
    ({"camera": 0.25}, "camera: must be a mapping, got 0.25"),
    ({"camera": {"shift_mode": "fit"}},
     "camera.shift_mode: unknown key (expected one of ['focal_length_m', 'magnification'])"),
    ({"sweep": ["values"]}, "sweep: must be a mapping, got ['values']"),
    ({"sweep": {"steps": 4}},
     "sweep.steps: unknown key (expected one of ['parameter', 'values'])"),
    ({"output": "out"}, "output: must be a mapping, got 'out'"),
    ({"output": {"dir": "out"}},
     "output.dir: unknown key (expected one of ['directory', 'formats'])"),
    # axes and output.formats as a string, a non-list and an empty list
    ({"axes": "z"}, "axes: must be a non-empty list of 'x'/'y', got ['z']"),
    ({"axes": {"x": 1}}, "axes: must be a non-empty list of 'x'/'y', got {'x': 1}"),
    ({"axes": []}, "axes: must be a non-empty list of 'x'/'y', got []"),
    ({"axes": ["x", "x"]}, "axes: duplicate axis in ['x', 'x']"),
    ({"output": {"formats": "xlsx"}},
     "output.formats: must be one of ['bin', 'csv', 'json'], got 'xlsx'"),
    ({"output": {"formats": {"csv": 1}}},
     "output.formats: must be a non-empty list, got {'csv': 1}"),
    ({"output": {"formats": []}}, "output.formats: must be a non-empty list, got []"),
    # sweep.values: not increasing, empty, a bad element
    ({"sweep": {"values": [2.0, 1.0]}}, "sweep.values: must be strictly increasing"),
    ({"sweep": {"values": [1.0, 1.0]}}, "sweep.values: must be strictly increasing"),
    ({"sweep": {"values": []}}, "sweep.values: must be a non-empty list"),
    ({"sweep": {"values": [1.0, "2"]}}, "sweep.values[1]: must be a number, got '2'"),
    ({"sweep": {"values": [1.0, -2.0]}}, "sweep.values[1]: must be positive, got -2.0"),
    # two faults: the first in checking order is the one reported
    ({"pump": [405], "crystal": [1]}, "crystal: must be a mapping, got [1]"),
    ({"output": 5, "sweep": 5}, "sweep: must be a mapping, got 5"),
    ({"crystal": {"length_mm": -1}, "axes": 5},
     "axes: must be a non-empty list of 'x'/'y', got 5"),
    ({"grid": {"n": 8}, "filter": {"shape": "x"}},
     "filter.shape: must be one of ['gaussian', 'tophat'], got 'x'"),
    ({"axes": [], "pump": {"waist_um": 0}}, "pump.waist_um: must be positive, got 0"),
    ({"crystal": {"material": "x", "sellmeier_file": 1}},
     "crystal.sellmeier_file: must be a string, got 1"),
    ({"output": {"directory": 1, "formats": "x"}},
     "output.formats: must be one of ['bin', 'csv', 'json'], got 'x'"),
    ({"sweep": {"values": [2.0, 1.0], "parameter": "x"}},
     f"sweep.parameter: must be one of {SWEEP_NAMES}, got 'x'"),
    ({"lens": 1, "pump": 5}, f"lens: unknown section (expected one of {TOP_NAMES})"),
    ({"pump": {"power_mw": 1, "waist_um": -1}},
     "pump.power_mw: unknown key (expected one of ['waist_um', 'wavelength_nm'])"),
    # the upper bound on spectral.slices
    ({"spectral": {"slices": 257}}, "spectral.slices: must be <= 256, got 257"),
]


@pytest.mark.parametrize("mapping, message", FAULTS)
def test_fault_message(mapping, message):
    with pytest.raises(ConfigError) as info:
        parse_config(mapping)
    assert str(info.value) == message


def test_every_field_has_exactly_one_dotted_key():
    targets = sorted(field for field, _ in _KEYS.values())
    assert targets == sorted(f.name for f in fields(RunConfig))


def test_shipped_configs_differ_from_the_defaults_only_where_they_say():
    """The empty config is the canonical non-degenerate run."""
    nondegenerate = load_config(ROOT / "configs" / "nondegenerate_780.yaml")
    assert replace(nondegenerate, signal_nm=None, out_dir=".") == RunConfig()
    degenerate = load_config(ROOT / "configs" / "degenerate_810.yaml")
    assert replace(degenerate, degenerate=False, out_dir=".") == RunConfig()
    assert RunConfig().build().memory_budget_bytes == DEFAULT_MEMORY_BUDGET_BYTES


def test_readme_names_every_key_in_its_section_row():
    rows = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        match = re.match(r"\|\s*`(\w+)`\s*\|(.*)\|\s*$", line)
        if match:
            rows[match[1]] = match[2]
    for key in _KEYS:
        section, _, name = key.partition(".")
        assert section in rows, key
        assert not name or re.search(rf"`{name}[`:]", rows[section]), key
