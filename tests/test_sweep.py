"""Sweep construction, execution, CSV rendering, and trend predicates.

Execution tests run the real pipeline at deliberately small grids
(128-256 points, 3 slices) — large-grid physics lives in the
acceptance suite.
"""

import math

import pytest

from spdcsim.config import RunConfig
from spdcsim.spectral import certify_axis
from spdcsim.sweep import (
    CSV_HEADER,
    SweepError,
    SweepRow,
    TrendCheck,
    rows_to_csv,
    run_sweep,
    trend_checks,
)


def small_cfg(**overrides):
    base = dict(
        sweep_parameter="filter_fwhm_nm",
        sweep_values=(2.0, 6.0),
        axes=("x",),
        n_slices=3,
        grid_n=128,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestSpecValidation:
    """A RunConfig handed to run_sweep is validated when it is made
    (RunConfig.__post_init__), the one place these rules live."""

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            run_sweep(small_cfg(sweep_parameter="pump_power"))

    def test_empty_values(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_sweep(small_cfg(sweep_values=()))

    def test_values_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            run_sweep(small_cfg(sweep_values=(2.0, 2.0, 6.0)))

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axes"):
            run_sweep(small_cfg(axes=("z",)))

    def test_signal_defaults(self):
        assert small_cfg().effective_signal_nm == 780.0
        assert small_cfg(degenerate=True).effective_signal_nm == 810.0
        assert small_cfg(signal_nm=800.0).effective_signal_nm == 800.0


class TestRunSweep:
    def test_row_ordering_value_major(self):
        rows = run_sweep(small_cfg(axes=("x", "y")))
        assert [(r.swept_value, r.axis) for r in rows] == [
            (2.0, "x"), (2.0, "y"), (6.0, "x"), (6.0, "y"),
        ]

    def test_single_point_matches_direct_pipeline(self):
        """A one-value sweep is exactly one pass of the plain pipeline."""
        row = run_sweep(small_cfg(sweep_values=(4.0,)))[0]

        config = RunConfig(signal_nm=780.0, filter_fwhm_nm=4.0, n_slices=3, grid_n=128).build()
        _, _, report = certify_axis(config, "x")

        assert row.dx_inferred_um == report.dx_inferred_m * 1e6
        assert row.dq_inferred_radm == report.dq_inferred_radm
        assert row.reid_product == report.product
        assert row.certified == report.certified

    def test_deterministic(self):
        cfg = small_cfg()
        assert run_sweep(cfg) == run_sweep(cfg)

    @pytest.mark.parametrize(
        "parameter,value,length_mm,waist_um",
        [
            ("crystal_length_mm", 2.0, 2.0, 500.0),
            ("pump_waist_um", 250.0, 1.0, 250.0),
        ],
    )
    def test_parameter_routing(self, parameter, value, length_mm, waist_um):
        """Each sweepable parameter lands in the right pipeline knob.

        Verified by equality against a hand-built single run — trend
        physics at realistic grids is exercised by the acceptance suite.
        """
        row = run_sweep(small_cfg(sweep_parameter=parameter, sweep_values=(value,)))[0]

        config = RunConfig(signal_nm=780.0, length_mm=length_mm, waist_um=waist_um, n_slices=3,
                           grid_n=128).build()
        _, _, report = certify_axis(config, "x")
        assert row.reid_product == report.product
        assert row.dx_inferred_um == report.dx_inferred_m * 1e6

    def test_abort_names_the_offending_value(self):
        cfg = small_cfg(signal_nm=1100.0)  # outside the dispersion data range
        with pytest.raises(SweepError, match=r"filter_fwhm_nm = 2\.0"):
            run_sweep(cfg)

    def test_convergence_check_leaves_rows_unchanged(self):
        import warnings

        cfg = small_cfg(sweep_values=(4.0,))
        plain = run_sweep(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            checked = run_sweep(cfg, convergence_check=True)
        assert checked == plain


class TestCsvRendering:
    def test_header_is_the_documented_schema(self):
        assert CSV_HEADER == (
            "swept_value,axis,dx_inferred_um,dq_inferred_radm,reid_product,certified"
        )

    def test_rendering(self):
        rows = [
            SweepRow(1.0, "x", 10.5, 2000.0, 0.021, True),
            SweepRow(2.0, "y", 30.25, 25000.0, 0.75625, False),
        ]
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "1.0,x,10.5,2000.0,0.021,true"
        assert lines[2] == "2.0,y,30.25,25000.0,0.75625,false"
        assert text.endswith("\n")

    def test_round_trip_floats(self):
        row = SweepRow(1.0, "x", 1.0 / 3.0, math.pi, 0.1 + 0.2, False)
        cells = rows_to_csv([row]).splitlines()[1].split(",")
        assert float(cells[2]) == row.dx_inferred_um
        assert float(cells[3]) == row.dq_inferred_radm
        assert float(cells[4]) == row.reid_product


def rows_from(values, axis="x", field="reid_product"):
    rows = []
    for i, v in enumerate(values):
        kwargs = dict(
            swept_value=float(i), axis=axis,
            dx_inferred_um=1.0, dq_inferred_radm=1.0, reid_product=1.0,
            certified=False,
        )
        kwargs[field] = v
        if field == "reid_product":
            kwargs["certified"] = v < 0.5
        rows.append(SweepRow(**kwargs))
    return rows


class TestTrendChecks:
    def test_decreasing_passes(self):
        (check,) = trend_checks(rows_from([1.0, 0.9, 0.5]), {"x": "decreasing"})
        assert check == TrendCheck("x", "reid_product", "decreasing", True, (1.0, 0.9, 0.5))

    def test_decreasing_rejects_local_bump(self):
        (check,) = trend_checks(rows_from([1.0, 1.05, 0.5]), {"x": "decreasing"})
        assert not check.passed

    def test_decreasing_tolerates_small_bump(self):
        (check,) = trend_checks(rows_from([1.0, 1.01, 0.5]), {"x": "decreasing"})
        assert check.passed  # within the 2% band

    def test_decreasing_needs_overall_drop(self):
        (check,) = trend_checks(rows_from([1.0, 0.995, 0.99]), {"x": "decreasing"})
        assert not check.passed  # monotone, but no real decrease

    def test_increasing(self):
        (check,) = trend_checks(rows_from([0.5, 0.9, 1.0]), {"x": "increasing"})
        assert check.passed
        (check,) = trend_checks(rows_from([0.5, 0.46, 1.0]), {"x": "increasing"})
        assert not check.passed

    def test_nondecreasing_allows_flat_runs(self):
        (check,) = trend_checks(rows_from([0.5, 0.5, 0.5]), {"x": "nondecreasing"})
        assert check.passed

    def test_nonincreasing(self):
        (check,) = trend_checks(rows_from([0.5, 0.5, 0.49]), {"x": "nonincreasing"})
        assert check.passed
        (check,) = trend_checks(rows_from([0.5, 0.52, 0.49]), {"x": "nonincreasing"})
        assert not check.passed

    def test_flat(self):
        (check,) = trend_checks(rows_from([1.0, 1.008, 0.992]), {"x": "flat"})
        assert check.passed
        (check,) = trend_checks(rows_from([1.0, 1.05, 0.99]), {"x": "flat"})
        assert not check.passed

    def test_other_field(self):
        (check,) = trend_checks(
            rows_from([3.0, 2.0, 1.0], field="dx_inferred_um"),
            {"x": "decreasing"},
            field="dx_inferred_um",
        )
        assert check.passed and check.field == "dx_inferred_um"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown trend kind"):
            trend_checks(rows_from([1.0, 0.5]), {"x": "wiggly"})

    def test_missing_axis_rows(self):
        with pytest.raises(ValueError, match="axis 'y'"):
            trend_checks(rows_from([1.0, 0.5], axis="x"), {"y": "decreasing"})

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least two"):
            trend_checks(rows_from([1.0]), {"x": "flat"})
