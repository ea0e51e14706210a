"""Command-line front end.

Commands
--------
pm-angle   phase-matching angle, walk-off, and indices for a config
jid        compute one joint distribution, write it, print the stats JSON
stats      print the moment engine's statistics JSON for one plane/axis
certify    near+far inference per axis -> EPR width-product report
sweep      parameter sweep -> CSV (stdout, and a file with --out)
camera     uncorrected + corrected camera-plane JPD files + slope report

Conventions: stdout carries only the requested data (JSON with sorted
keys, or CSV); diagnostics go to stderr.  Outputs are byte-reproducible
for identical config and version.  Exit codes: 0 success; 2 config
error (including wavelengths outside the dispersion data's validity);
3 resource exhaustion (grid memory budget, file-system failures);
4 numerical degeneracy (no checked phase-matching angle, collapsed
distributions, evanescent grid corners).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

from spdcsim import __version__
from spdcsim.biphoton import EvanescentInputError, GridMemoryError
from spdcsim.camera import CameraJPD, camera_jpds, slope_report
from spdcsim.config import ConfigError, RunConfig, load_config
from spdcsim.dispersion import (
    PhaseMatchingError,
    WavelengthRangeError,
    effective_index,
)
from spdcsim.io import write_matrix_binary, write_matrix_csv, write_matrix_json
from spdcsim.spectral import JointDistribution, certify_axis, far_field_jid, near_field_jid
from spdcsim.stats import DegenerateDistributionError, ridge_fit
from spdcsim.sweep import SweepError, rows_to_csv, run_sweep

__all__ = ["main"]


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config)
    overrides = {}
    if getattr(args, "grid_n", None) is not None:
        overrides["grid_n"] = args.grid_n
    if getattr(args, "slices", None) is not None:
        overrides["n_slices"] = args.slices
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = str(args.out)
    if getattr(args, "format", None) is not None:
        overrides["out_formats"] = (args.format,)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _stats_payload(cfg: RunConfig, plane: str, axis: str) -> dict:
    """The moment engine's summary of one plane and axis, with inference
    fields, and the ridge fitted to its moments."""
    near, far, _ = certify_axis(cfg, axis)
    summary = near if plane == "near" else far
    fit = ridge_fit(summary)
    payload = summary.to_json_dict()
    payload.update(
        plane=summary.plane,
        axis=summary.axis,
        slope_principal_axis=fit.slope_principal_axis,
        slope_regression=fit.slope_regression,
        intercept=fit.intercept,
        isotropic=fit.isotropic,
    )
    return payload


def _write_matrix(directory: Path, stem: str, formats, picture: JointDistribution) -> list[str]:
    """Write ``picture`` in every format to ``directory``/``stem``.<format>,
    tagged with its plane and axis (and whether a camera JPD is corrected),
    each file from one pass over its row blocks."""
    meta = {"plane": picture.plane, "axis": picture.axis}
    if isinstance(picture, CameraJPD):
        meta["corrected"] = picture.corrected
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        path = directory / f"{stem}.{fmt}"
        args = (path, picture.axis_signal, picture.axis_idler, picture.row_blocks())
        if fmt == "bin":
            write_matrix_binary(*args)
        else:
            (write_matrix_csv if fmt == "csv" else write_matrix_json)(*args, meta=meta)
        written.append(path.name)
    return written


def cmd_pm_angle(args: argparse.Namespace) -> int:
    cfg = _config(args).build()
    crystal, wl, sell = cfg.crystal, cfg.wl, cfg.crystal.sellmeier
    _emit(
        {
            "pump_nm": wl.pump_nm,
            "signal_nm": wl.signal_nm,
            "idler_nm": wl.idler_nm,
            "theta_p_rad": crystal.theta_p,
            "theta_p_deg": math.degrees(crystal.theta_p),
            "walkoff_rad": crystal.rho,
            "walkoff_deg": math.degrees(crystal.rho),
            "n_o_signal": sell.index_ordinary(wl.signal_nm),
            "n_o_idler": sell.index_ordinary(wl.idler_nm),
            "n_pump_effective": effective_index(sell, crystal.theta_p, wl.pump_nm),
            "crystal_length_m": crystal.length_m,
        }
    )
    return 0


def cmd_jid(args: argparse.Namespace) -> int:
    cfg = _config(args).build()
    payload = _stats_payload(cfg, args.plane, args.axis)
    jid = (far_field_jid if args.plane == "far" else near_field_jid)(cfg, args.axis)
    files = _write_matrix(Path(cfg.out_dir), f"jid_{args.plane}_{args.axis}", cfg.out_formats, jid)
    stats_path = Path(cfg.out_dir) / f"jid_{args.plane}_{args.axis}_stats.json"
    stats_path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    files.append(stats_path.name)
    _emit({**payload, "files": sorted(files)})
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    _emit(_stats_payload(_config(args).build(), args.plane, args.axis))
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    cfg = _config(args).build()
    axes = (args.axis,) if args.axis else cfg.axes
    per_axis = {}
    for axis in axes:
        near, far, report = certify_axis(cfg, axis)
        per_axis[axis] = {
            **report.to_json_dict(),
            "near": near.to_json_dict(),
            "far": far.to_json_dict(),
        }
    _emit(
        {
            "axes": per_axis,
            "certified_all": all(v["certified"] for v in per_axis.values()),
        }
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config(args).build()  # surface config/physics errors before the long run
    if "bin" in cfg.out_formats:
        raise ConfigError("output.formats: sweep output supports csv or json, not bin")
    rows = run_sweep(cfg, convergence_check=args.check_convergence)
    texts = {
        fmt: json.dumps([asdict(r) for r in rows], sort_keys=True, indent=2) + "\n"
        if fmt == "json" else rows_to_csv(rows)
        for fmt in cfg.out_formats
    }
    sys.stdout.write(texts[cfg.out_formats[0]])
    if args.out is not None:
        directory = Path(cfg.out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for fmt, text in texts.items():
            (directory / f"sweep.{fmt}").write_text(text, encoding="utf-8")
    return 0


def cmd_camera(args: argparse.Namespace) -> int:
    cfg = _config(args).build()
    axis = args.axis or "y"
    raw, fixed = camera_jpds(cfg, axis)
    # before any file is written: a collapsed distribution exits 4 and writes none
    reports = {"uncorrected": slope_report(raw), "corrected": slope_report(fixed)}
    files = []
    for tag, jpd in (("uncorrected", raw), ("corrected", fixed)):
        files += _write_matrix(Path(cfg.out_dir), f"camera_{tag}_{axis}", cfg.out_formats, jpd)
    _emit(
        {
            **reports,
            "shift_mode": "fitted",  # always fitted; the key stays in the stdout contract
            "files": sorted(files),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcsim",
        description="Transverse spatial correlations and EPR certification "
        "for collinear type-I down-conversion sources.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, axis=True, axis_default=None, plane=False, out=True):
        p.add_argument("--config", type=Path, default=None, help="YAML run config")
        p.add_argument("--grid-n", type=int, default=None, dest="grid_n",
                       help="override grid points per axis")
        p.add_argument("--slices", type=int, default=None,
                       help="override spectral slice count")
        if axis:
            p.add_argument("--axis", choices=("x", "y"), default=axis_default)
        if plane:
            p.add_argument("--plane", choices=("far", "near"), default="far")
        if out:
            p.add_argument("--out", type=Path, default=None, help="output directory")
            p.add_argument("--format", choices=("csv", "json", "bin"), default=None)

    p = sub.add_parser("pm-angle", help="phase-matching angle and indices")
    common(p, axis=False, out=False)
    p.set_defaults(func=cmd_pm_angle)

    p = sub.add_parser("jid", help="compute and write one joint distribution")
    common(p, axis_default="x", plane=True)
    p.set_defaults(func=cmd_jid)

    p = sub.add_parser("stats", help="statistics JSON for one plane/axis")
    common(p, axis_default="x", plane=True, out=False)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("certify", help="near+far EPR width-product report")
    common(p, out=False)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    common(p, axis=False)
    p.add_argument("--check-convergence", action="store_true",
                   help="re-run extreme values at doubled grid resolution")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("camera", help="camera-plane JPDs and slope report")
    common(p)
    p.set_defaults(func=cmd_camera)

    return parser


#: (error classes, stderr label, exit code), as in the module docstring
_FAILURES = (
    ((ConfigError, WavelengthRangeError), "config error", 2),
    ((GridMemoryError, OSError), "resource error", 3),
    ((PhaseMatchingError, DegenerateDistributionError, EvanescentInputError),
     "numerical error", 4),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # each warning one stderr line, printed as it is issued
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except Exception as exc:
            # a failed sweep point exits as its cause does; the message names the value
            cause = exc.__cause__ if isinstance(exc, SweepError) else exc
            for classes, label, code in _FAILURES:
                if isinstance(cause, classes):
                    print(f"{label}: {exc}", file=sys.stderr)
                    return code
            raise


if __name__ == "__main__":
    sys.exit(main())
