"""Benchmark workloads: seeded configs, the CLI call, and output checks.

Every workload is one ``spdcsim`` command on a YAML config that this
module generates from the benchmark seed; the CLI never sees anything
else.  A config is a shipped one under ``configs/`` with the seeded
fields (and, for the sweep, the grid and sweep) overridden; seed 0
keeps the shipped signal wavelength and waist.  Other seeds
jitter the signal wavelength (775-790 nm, non-degenerate workloads) and
scale every pump waist by 0.8-1.0, so a change cannot be tuned to one
config.  Waists only shrink: a smaller waist widens the pump-limited
sum coordinate, so every seed stays as well resolved as seed 0.

Output checks use the tolerances of the repository's acceptance tests.

Why each workload:

* ``certify-nd-1024`` -- ``certify`` on both axes at N = 1024 with 31
  slices: the headline user action and the stats-only path (amplitude
  kernel plus far and near field, no camera, no files).
* ``camera-y-1024`` -- ``camera`` on y with CSV output: the far-only
  matrix path.  It runs no near-field transform, holds every slice
  matrix at once (memory shows here) and writes two matrix files.
* ``sweep-waist-2048`` -- a degenerate pump-waist sweep at N = 2048 with
  5 slices, through the separate ``sweep`` plumbing.  Its 32 MiB arrays
  shift the balance between kernel and FFT.  N stays at 2048 because
  1024 leaves the 1000 um point unresolved (U 0.0308 instead of 0.0080).
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import yaml
from spdcsim.sweep import trend_checks

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PUMP_NM = 405.0  # of both shipped configs
WAIST_LADDER_UM = (100.0, 250.0, 500.0, 1000.0)


@dataclass(frozen=True)
class Params:
    """The seeded physical inputs of one run."""

    signal_nm: float
    waist_scale: float

    @classmethod
    def from_seed(cls, seed: int) -> "Params":
        if seed == 0:
            return cls(signal_nm=780.0, waist_scale=1.0)
        rng = random.Random(seed)
        return cls(signal_nm=rng.uniform(775.0, 790.0), waist_scale=rng.uniform(0.8, 1.0))

    @property
    def idler_nm(self) -> float:
        return 1.0 / (1.0 / PUMP_NM - 1.0 / self.signal_nm)

    @property
    def waist_um(self) -> float:
        return 500.0 * self.waist_scale

    @property
    def sweep_waists_um(self) -> tuple[float, ...]:
        return tuple(w * self.waist_scale for w in WAIST_LADDER_UM)


def shipped(name: str) -> dict:
    return yaml.safe_load((CONFIGS / name).read_text(encoding="utf-8"))


def nondegenerate_yaml(p: Params) -> str:
    """configs/nondegenerate_780.yaml with the seeded signal and waist."""
    cfg = shipped("nondegenerate_780.yaml")
    cfg["wavelengths"]["signal_nm"] = p.signal_nm
    cfg["pump"]["waist_um"] = p.waist_um
    return yaml.safe_dump(cfg, sort_keys=False)


def sweep_yaml(p: Params) -> str:
    """configs/degenerate_810.yaml as a seeded pump-waist sweep on the x
    axis at N = 2048 with 5 slices."""
    cfg = shipped("degenerate_810.yaml")
    cfg["grid"]["n"] = 2048
    cfg["spectral"]["slices"] = 5
    cfg["axes"] = ["x"]
    cfg["sweep"] = {"parameter": "pump_waist_um", "values": list(p.sweep_waists_um)}
    return yaml.safe_dump(cfg, sort_keys=False)


def _near(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def check_certify(stdout: bytes, p: Params, out_dir: Path) -> list[str]:
    report = json.loads(stdout)
    problems = []
    for axis in ("x", "y"):
        r = report["axes"][axis]
        if not (r["reid_product"] < 0.5 and r["certified"] is True):
            problems.append(f"{axis}: U = {r['reid_product']} not certified below 0.5")
        dq_w0 = r["dq_inferred_radm"] * p.waist_um * 1e-6
        if not _near(dq_w0, 1.0, 0.01):
            problems.append(f"{axis}: dq_inferred * w0 = {dq_w0:.5f}, not within 1% of 1")
    if report["certified_all"] is not True:
        problems.append("certified_all is not true")
    return problems


def check_camera(stdout: bytes, p: Params, out_dir: Path) -> list[str]:
    report = json.loads(stdout)
    problems = []
    ratio = -p.signal_nm / p.idler_nm
    raw = report["uncorrected"]["slope_regression"]
    if not _near(raw, ratio, 0.01):
        problems.append(f"uncorrected slope {raw:.5f} not within 1% of {ratio:.5f}")
    fixed = report["corrected"]["slope_regression"]
    if not 0.99 <= abs(fixed) <= 1.01:
        problems.append(f"corrected |slope| {abs(fixed):.5f} outside [0.99, 1.01]")
    expected = ["camera_corrected_y.csv", "camera_uncorrected_y.csv"]
    if report["files"] != expected:
        problems.append(f"files {report['files']} != {expected}")
    for name in expected:
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"{name} missing or empty")
    return problems


def check_sweep(stdout: bytes, p: Params, out_dir: Path) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(stdout.decode("utf-8"))))
    problems = []
    waists = [float(r["swept_value"]) for r in rows]
    if waists != list(p.sweep_waists_um) or any(r["axis"] != "x" for r in rows):
        return [f"rows {[(r['swept_value'], r['axis']) for r in rows]} do not match the sweep"]
    points = [SimpleNamespace(axis=r["axis"], reid_product=float(r["reid_product"])) for r in rows]
    (trend,) = trend_checks(points, {"x": "decreasing"}, tolerance=0.02)
    if not trend.passed:
        problems.append(f"U not decreasing with waist at 2%: {trend.values}")
    for w_um, r in zip(waists, rows):
        dq_w0 = float(r["dq_inferred_radm"]) * w_um * 1e-6
        if not _near(dq_w0, 1.0, 0.01):
            problems.append(f"waist {w_um} um: dq * w0 = {dq_w0:.5f}, not within 1% of 1")
        if r["certified"] != "true":
            problems.append(f"waist {w_um} um: not certified")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    make_yaml: Callable[[Params], str]
    #: CLI arguments after ``spdcsim``, given the config path and an output dir
    cli_args: Callable[[str, str], list[str]]
    check: Callable[[bytes, Params, Path], list[str]]
    #: evaluate_grid calls = planes * axes * slices * points
    amplitude_calls: int
    #: outermost resample_conserving calls = 2 JPDs * 2 axes * slices
    resample_calls: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="certify-nd-1024",
            make_yaml=nondegenerate_yaml,
            cli_args=lambda cfg, out: ["certify", "--config", cfg],
            check=check_certify,
            amplitude_calls=2 * 2 * 31,
            resample_calls=0,
        ),
        Workload(
            name="camera-y-1024",
            make_yaml=nondegenerate_yaml,
            cli_args=lambda cfg, out: ["camera", "--config", cfg, "--axis", "y", "--out", out],
            check=check_camera,
            amplitude_calls=1 * 1 * 31,
            resample_calls=2 * 2 * 31,
        ),
        Workload(
            name="sweep-waist-2048",
            make_yaml=sweep_yaml,
            cli_args=lambda cfg, out: ["sweep", "--config", cfg],
            check=check_sweep,
            amplitude_calls=2 * 1 * 5 * 4,
            resample_calls=0,
        ),
    )
}
