"""Config parsing: defaults, overrides, strict unknown-key rejection,
and assembly into validated physics objects."""

import math
from dataclasses import replace

import pytest

from spdcsim.config import ConfigError, RunConfig, load_config, parse_config
from spdcsim.spectral import certify_axis


class TestDefaults:
    def test_empty_mapping_is_the_canonical_run(self):
        cfg = parse_config({})
        assert cfg.pump_nm == 405.0
        assert cfg.effective_signal_nm == 780.0
        assert cfg.length_mm == 1.0
        assert cfg.waist_um == 500.0
        assert cfg.filter_fwhm_nm == 5.0
        assert cfg.grid_n == 1024
        assert cfg.n_slices == 7
        assert cfg.focal_length_m == 0.25
        assert cfg.axes == ("x", "y")

    def test_none_mapping_accepted(self):
        assert parse_config(None) == RunConfig()

    def test_degenerate_signal_follows_pump(self):
        cfg = parse_config({"wavelengths": {"degenerate": True}})
        assert cfg.effective_signal_nm == 810.0

    def test_explicit_signal_wins(self):
        cfg = parse_config({"wavelengths": {"signal_nm": 800.0}})
        assert cfg.effective_signal_nm == 800.0


class TestRejection:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="lens"):
            parse_config({"lens": {"f": 0.1}})

    def test_unknown_key_dotted_path(self):
        with pytest.raises(ConfigError, match=r"pump\.power_mw"):
            parse_config({"pump": {"power_mw": 50}})

    def test_wrong_type(self):
        with pytest.raises(ConfigError, match=r"crystal\.length_mm"):
            parse_config({"crystal": {"length_mm": "long"}})

    def test_negative_length(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config({"crystal": {"length_mm": -1.0}})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match=r"pump\.wavelength_nm"):
            parse_config({"pump": {"wavelength_nm": True}})

    def test_bad_enum(self):
        with pytest.raises(ConfigError, match=r"filter\.shape"):
            parse_config({"filter": {"shape": "lorentzian"}})

    def test_bad_axis(self):
        with pytest.raises(ConfigError, match="axes"):
            parse_config({"axes": ["x", "z"]})

    def test_duplicate_axes(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config({"axes": ["x", "x"]})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config({"pump": [405]})

    def test_sweep_values_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config({"sweep": {"values": [2.0, 1.0]}})

    def test_bad_format(self):
        with pytest.raises(ConfigError, match=r"output\.formats"):
            parse_config({"output": {"formats": ["xlsx"]}})


class TestParsing:
    def test_axes_single_string(self):
        assert parse_config({"axes": "y"}).axes == ("y",)

    def test_formats_single_string(self):
        assert parse_config({"output": {"formats": "bin"}}).out_formats == ("bin",)

    def test_sweep_parameter_aliases(self):
        for alias, canonical in [
            ("filter_fwhm", "filter_fwhm_nm"),
            ("crystal_length", "crystal_length_mm"),
            ("pump_waist", "pump_waist_um"),
            ("pump_waist_um", "pump_waist_um"),
        ]:
            cfg = parse_config({"sweep": {"parameter": alias}})
            assert cfg.sweep_parameter == canonical

    def test_sweep_spec_defaults_per_parameter(self):
        cfg = parse_config({"sweep": {"parameter": "crystal_length"}})
        assert cfg.effective_sweep_values == (0.5, 1.0, 2.0, 4.0)

    def test_int_values_coerced_to_float(self):
        cfg = parse_config({"crystal": {"length_mm": 2}})
        assert cfg.length_mm == 2.0 and isinstance(cfg.length_mm, float)


class TestBuild:
    def test_canonical_build(self):
        problem = RunConfig().build()
        assert problem.wl.idler_nm == pytest.approx(842.4, abs=0.05)
        # collinear angle the dispersion data actually gives for 405 -> 780
        assert math.degrees(problem.crystal.theta_p) == pytest.approx(28.7965, abs=0.01)
        assert problem.waist_m == 500e-6
        assert problem.filt.center_nm == 780.0

    def test_degenerate_build(self):
        problem = parse_config({"wavelengths": {"degenerate": True}}).build()
        assert problem.wl.signal_nm == problem.wl.idler_nm == 810.0
        assert math.degrees(problem.crystal.theta_p) == pytest.approx(28.81, abs=0.05)

    def test_idler_arm_filter_centers_on_idler(self):
        problem = parse_config({"filter": {"arm": "idler"}}).build()
        assert problem.filt.center_nm == problem.wl.idler_nm

    def test_degenerate_with_contradictory_signal(self):
        cfg = parse_config(
            {"wavelengths": {"degenerate": True, "signal_nm": 780.0}}
        )
        with pytest.raises(ConfigError, match="degenerate"):
            cfg.build()

    def test_unbuilt_contradictory_signal_raises_where_it_is_read(self):
        cfg = RunConfig(degenerate=True, signal_nm=780.0, grid_n=64, n_slices=3)
        message = ("wavelengths.signal_nm: degenerate run requires signal = "
                   "2 x pump = 810.0 nm, got 780.0")
        with pytest.raises(ConfigError) as raised:
            certify_axis(cfg, "x")
        assert str(raised.value) == message

    def test_explicit_angle(self):
        problem = parse_config({"crystal": {"theta_deg": 30.0}}).build()
        assert problem.crystal.theta_p == pytest.approx(math.radians(30.0))

    def test_cut_angle_detunes_the_product(self):
        """A cut off the phase-matching angle reaches U through dk_0."""
        def product(theta_deg):
            cfg = {} if theta_deg is None else {"crystal": {"theta_deg": theta_deg}}
            return certify_axis(parse_config(cfg).build(), "x")[2].product

        default = product(None)
        assert default == pytest.approx(0.0154295, abs=1e-6)
        theta_pm = math.degrees(RunConfig().build().crystal.theta_p)
        # the phase-matching angle, set explicitly, leaves dk_0 at roundoff
        assert product(theta_pm) == pytest.approx(default, rel=1e-11)
        assert product(theta_pm - 0.1) == pytest.approx(0.0234977, abs=1e-6)
        assert product(theta_pm + 0.1) == pytest.approx(0.016616, abs=1e-6)

    def test_zero_degree_cut_shifts_the_kernel_argument(self):
        problem = parse_config({"crystal": {"theta_deg": 0.0}}).build()
        half_length = 0.5 * problem.crystal.length_m
        assert half_length * problem.crystal.collinear_mismatch == pytest.approx(245.05, abs=0.01)
        assert RunConfig().build().crystal.collinear_mismatch == 0.0

    def test_grid_override_threads_through(self):
        """Every numerical key reaches its RunConfig field, and the
        grid settings reach its grid."""
        cfg = parse_config({
            "grid": {"n": 64, "sum_halfwidth": 1e4, "diff_halfwidth": 2e6,
                     "memory_budget_mb": 7},
            "spectral": {"slices": 5},
            "model": {"kernel": "gauss"},
        })
        problem = cfg.build()
        assert problem.n_slices == 5
        assert problem.grid_n == 64
        assert problem.sum_halfwidth == 1e4
        assert problem.diff_halfwidth == 2e6
        assert problem.kernel == "gauss"
        assert problem.memory_budget_bytes == 7 * 1024**2
        q = problem.square_grid()
        assert q.size == 64
        assert q[-1] == pytest.approx(0.5 * (1e4 + 2e6), rel=1e-12)
        assert problem.diff_extent() == 2e6


    def test_build_returns_the_config_itself(self):
        cfg = parse_config({"crystal": {"length_mm": 2.0}})
        assert cfg.build() is cfg

    def test_derived_objects_are_computed_once_per_config(self):
        cfg = RunConfig(grid_n=64, n_slices=3)
        for name in ("wl", "crystal", "filt", "slices"):
            assert getattr(cfg, name) is getattr(cfg, name), name
        assert cfg.build().crystal is cfg.crystal

    def test_derived_objects_follow_replace(self):
        """A replaced config derives its own objects, never its parent's."""
        cfg = RunConfig(grid_n=64, n_slices=3).build()
        longer = replace(cfg, length_mm=4.0)
        assert cfg.crystal.length_m == pytest.approx(1e-3)
        assert longer.crystal.length_m == pytest.approx(4e-3)
        # D, 5 sqrt(4 pi k / L), halves when L is four times longer
        assert longer.diff_extent() == pytest.approx(0.5 * cfg.diff_extent(), rel=1e-12)
        narrower = replace(cfg, filter_fwhm_nm=1.0)
        assert narrower.filt.fwhm_nm == 1.0 and cfg.filt.fwhm_nm == 5.0
        assert narrower.slices != cfg.slices
        assert replace(cfg, waist_um=250.0).waist_m == pytest.approx(250e-6)

    def test_memory_budget_is_held_in_bytes(self):
        """The key is MiB and the field bytes: any positive byte count is a
        budget, and none below one byte is."""
        assert RunConfig(memory_budget_bytes=1).memory_budget_bytes == 1
        assert parse_config({"grid": {"memory_budget_mb": 3}}).memory_budget_bytes == 3 * 2**20
        for bad, mib in ((0, 0), (-2 * 2**20, -2)):
            with pytest.raises(ConfigError) as info:
                RunConfig(memory_budget_bytes=bad)
            assert str(info.value) == f"grid.memory_budget_mb: must be >= 1, got {mib}"


class TestLoadFile:
    def test_load_yaml(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "pump:\n  wavelength_nm: 405.0\nwavelengths:\n  degenerate: true\n"
        )
        assert load_config(path).degenerate is True

    def test_load_none_gives_defaults(self):
        assert load_config(None) == RunConfig()

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("pump:\n  power_mw: 10\n")
        with pytest.raises(ConfigError, match="bad.yaml"):
            load_config(path)

    def test_invalid_yaml_reported(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("pump: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(path)

    def test_shipped_configs_parse_and_build(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1] / "configs"
        paths = sorted(root.glob("*.yaml"))
        assert {"nondegenerate_780.yaml", "degenerate_810.yaml"} <= {p.name for p in paths}
        for path in paths:
            cfg = load_config(path)
            problem = cfg.build()
            assert problem.crystal.length_m == pytest.approx(1e-3)
