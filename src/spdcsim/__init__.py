"""Transverse spatial correlations and EPR certification for Type-I SPDC.

The pipeline, bottom to top:

- :mod:`spdcsim.dispersion` — Sellmeier indices, phase matching, walk-off
- :mod:`spdcsim.biphoton` — per-slice arm records of the phase mismatch,
  the phase-matching kernels and the pump envelope's band, and the block
  kernel that evaluates the two-photon amplitude on a picture's windows
- :mod:`spdcsim.spectral` — filters, spectral sampling, the moment engine
  that every printed statistic comes from, and the far/near-field JIDs,
  which are pictures only
- :mod:`spdcsim.stats` — summaries of the engine's raw sums, conditional
  inference, EPR width products, ridge fits
- :mod:`spdcsim.camera` — chromatic camera mapping and its compensation
- :mod:`spdcsim.sweep` — parameter studies over bandwidth/length/waist
- :mod:`spdcsim.config` / :mod:`spdcsim.cli` — YAML configs and the CLI;
  the ``RunConfig`` is also the one record every slice loop takes down to
  the amplitude, with the crystal, filter, spectral slices and momentum
  grids it derives
"""

from spdcsim.biphoton import EvanescentInputError, GridMemoryError
from spdcsim.camera import CameraJPD, camera_jpds, slope_report
from spdcsim.config import ConfigError, RunConfig, load_config, parse_config
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
)
from spdcsim.spectral import (
    FilterSpec,
    JointDistribution,
    far_field_jid,
    near_field_jid,
    sample_spectrum,
    transmission,
)
from spdcsim.stats import (
    DegenerateDistributionError,
    ReidReport,
    StatsSummary,
    reid_product,
    ridge_fit,
)
from spdcsim.sweep import SweepRow, run_sweep, rows_to_csv, trend_checks

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dispersion
    "CrystalSetup",
    "PhaseMatchingError",
    "SellmeierSet",
    "SpdcWavelengths",
    "WavelengthRangeError",
    "effective_index",
    "idler_wavelength",
    "phase_matching_angle",
    "walkoff_angle",
    # biphoton
    "EvanescentInputError",
    "GridMemoryError",
    # spectral
    "FilterSpec",
    "JointDistribution",
    "far_field_jid",
    "near_field_jid",
    "sample_spectrum",
    "transmission",
    # stats
    "DegenerateDistributionError",
    "ReidReport",
    "StatsSummary",
    "reid_product",
    "ridge_fit",
    # camera
    "CameraJPD",
    "camera_jpds",
    "slope_report",
    # sweep
    "SweepRow",
    "run_sweep",
    "rows_to_csv",
    "trend_checks",
    # config
    "ConfigError",
    "RunConfig",
    "load_config",
    "parse_config",
]
