"""Parameter sweeps: inferred widths and Reid products vs source settings.

A sweep scans one parameter of a run config — filter FWHM, crystal
length, or pump waist.  Each point is the config with that one field
replaced (``config.SWEEP_FIELDS``), built, and run through the same
per-axis near+far moments as ``certify`` (``spectral.certify_axis`` on
the ``spectral.moment_sums`` engine), so a one-value sweep reports
exactly what ``certify`` reports for the same config.  Rows come out ordered by
swept value, and the whole run is a pure function of the config, so
repeated runs are bitwise identical.

Swept values are quoted in the units the parameters are configured in
(nm for filter FWHM, mm for crystal length, um for pump waist); widths
in the output rows are um for position and rad/m for momentum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from spdcsim.config import SWEEP_FIELDS, RunConfig
from spdcsim.spectral import certify_axis

__all__ = [
    "SweepRow",
    "SweepError",
    "TrendCheck",
    "run_sweep",
    "rows_to_csv",
    "trend_checks",
    "CSV_HEADER",
]

CSV_HEADER = "swept_value,axis,dx_inferred_um,dq_inferred_radm,reid_product,certified"


class SweepError(RuntimeError):
    """A sweep aborted; the message identifies the offending value and the
    underlying error is chained as ``__cause__``."""


@dataclass(frozen=True)
class SweepRow:
    swept_value: float
    axis: str
    dx_inferred_um: float
    dq_inferred_radm: float
    reid_product: float
    certified: bool

    def __post_init__(self) -> None:
        if self.dx_inferred_um < 0 or self.dq_inferred_radm < 0:
            raise ValueError("widths must be non-negative")


def _sweep_row(cfg: RunConfig, value: float, axis: str) -> SweepRow:
    point = replace(cfg, **{SWEEP_FIELDS[cfg.sweep_parameter]: value})
    try:
        _, _, report = certify_axis(point.build(), axis)
    except Exception as exc:
        raise SweepError(
            f"sweep aborted at {cfg.sweep_parameter} = {value} (axis {axis}): {exc}"
        ) from exc
    return SweepRow(
        swept_value=value,
        axis=axis,
        dx_inferred_um=report.dx_inferred_m * 1e6,
        dq_inferred_radm=report.dq_inferred_radm,
        reid_product=report.product,
        certified=report.certified,
    )


def run_sweep(cfg: RunConfig, *, convergence_check: bool = False) -> list[SweepRow]:
    """Evaluate every (value, axis) point of the config's sweep, in order.

    Any failure in the underlying pipeline aborts the whole sweep with
    the offending value named.  With ``convergence_check`` the extreme
    values are re-run with ``grid_n`` doubled (the moment engine's
    difference-coordinate points) and a warning is issued if any
    reported position width moves by more than 1%.
    """
    values = cfg.effective_sweep_values
    rows = [_sweep_row(cfg, value, axis) for value in values for axis in cfg.axes]
    if convergence_check:
        fine = replace(cfg, grid_n=2 * cfg.grid_n)
        for coarse in (row for row in rows if row.swept_value in (values[0], values[-1])):
            refined = _sweep_row(fine, coarse.swept_value, coarse.axis)
            drift = abs(refined.dx_inferred_um - coarse.dx_inferred_um) / max(
                coarse.dx_inferred_um, 1e-300
            )
            if drift > 0.01:
                warnings.warn(
                    f"{cfg.sweep_parameter} = {coarse.swept_value} (axis {coarse.axis}): "
                    f"position width moves {drift:.1%} when the grid is doubled; results "
                    f"are not converged at grid_n = {cfg.grid_n}",
                    stacklevel=2,
                )
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Render rows in the documented CSV schema (deterministic floats)."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    repr(float(r.swept_value)),
                    r.axis,
                    repr(float(r.dx_inferred_um)),
                    repr(float(r.dq_inferred_radm)),
                    repr(float(r.reid_product)),
                    "true" if r.certified else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TrendCheck:
    """Verdict of one monotonicity/flatness predicate on a sweep column."""

    axis: str
    field: str
    kind: str
    passed: bool
    values: tuple[float, ...]


_TREND_KINDS = ("decreasing", "increasing", "nondecreasing", "nonincreasing", "flat")


def _check(values: list[float], kind: str, tol: float) -> bool:
    pairs = list(zip(values, values[1:]))
    if kind == "flat":
        mid = 0.5 * (max(values) + min(values))
        return (max(values) - min(values)) <= tol * abs(mid)
    if kind == "nondecreasing":
        return all(b >= a * (1 - tol) for a, b in pairs)
    if kind == "nonincreasing":
        return all(b <= a * (1 + tol) for a, b in pairs)
    if kind == "decreasing":
        # monotone within tolerance locally, and a real overall drop
        return all(b <= a * (1 + tol) for a, b in pairs) and values[-1] <= values[0] * (1 - tol)
    if kind == "increasing":
        return all(b >= a * (1 - tol) for a, b in pairs) and values[-1] >= values[0] * (1 + tol)
    raise ValueError(f"unknown trend kind {kind!r}; expected one of {_TREND_KINDS}")


def trend_checks(
    rows: list[SweepRow],
    expectation: dict[str, str],
    *,
    field: str = "reid_product",
    tolerance: float = 0.02,
) -> list[TrendCheck]:
    """Evaluate per-axis trend predicates over one column of a sweep.

    ``expectation`` maps axis -> predicate kind ('decreasing',
    'increasing', 'nondecreasing', 'nonincreasing', 'flat').  The
    tolerance is a relative band: e.g. 'flat' means total variation
    within ``tolerance`` of the mid value, and the monotone predicates
    allow per-step violations up to the same fraction.
    """
    if len(rows) < 2:
        raise ValueError("trend checks need at least two rows")
    out = []
    for axis, kind in expectation.items():
        values = [getattr(r, field) for r in rows if r.axis == axis]
        if len(values) < 2:
            raise ValueError(f"not enough rows for axis {axis!r}")
        out.append(
            TrendCheck(
                axis=axis,
                field=field,
                kind=kind,
                passed=_check(values, kind, tolerance),
                values=tuple(values),
            )
        )
    return out
