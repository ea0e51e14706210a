"""End-to-end command-line tests.

Each test drives ``main()`` with real argv and captures stdout/stderr;
heavy commands run at deliberately tiny grids via --grid-n/--slices.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spdcsim
import spdcsim.camera
import spdcsim.spectral
import spdcsim.stats
from spdcsim.camera import camera_jpds
from spdcsim.cli import main
from spdcsim.config import load_config
from spdcsim.io import read_matrix_binary, read_matrix_csv
from spdcsim.spectral import far_field_jid

import oracle

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = ["--grid-n", "128", "--slices", "3"]


def fresh_python(script):
    """Run ``script`` in a new interpreter at the repository root, so its
    ``sys.modules`` holds only what the script imports."""
    src = str(Path(spdcsim.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_exports_resolve():
    for name in spdcsim.__all__:
        assert hasattr(spdcsim, name), name
    for info in pkgutil.iter_modules(spdcsim.__path__):
        module = importlib.import_module(f"spdcsim.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    deleted = {"ProbabilityTable", "normalize", "ridge_slope",
               "PhaseMismatch", "mismatch", "pump_envelope",
               "camera_slices", "uncorrected_jpd", "corrected_jpd",
               "rescale_idler", "walkoff_correct", "CameraSlice", "spectral_slices",
               "MomentSums", "moments", "marginal_moments", "resample_conserving",
               "SWEEPABLE", "GAUSSIAN_SUPPORT_FWHM", "Problem"}
    assert not deleted & set(spdcsim.__all__)
    for module in (spdcsim, spdcsim.camera, spdcsim.config, spdcsim.spectral, spdcsim.stats,
                   spdcsim.cli):
        assert not any(hasattr(module, name) for name in deleted), module.__name__
    # the band type lives in biphoton, the one evaluation shape; camera does not re-export it
    assert not hasattr(spdcsim.camera, "RowBand")
    assert not hasattr(spdcsim.biphoton.RowBand, "from_dense")


@pytest.mark.parametrize(
    "argv, derivations",
    [(("certify",), 1), (("camera", "--out"), 1), (("jid", "--plane", "far", "--out"), 1),
     (("sweep",), 13)],  # one per RunConfig.build(): 6 values x 2 axes and the up-front check
    ids=["certify", "camera", "jid-far", "sweep"],
)
def test_each_build_derives_the_spectral_rule_once(capsys, monkeypatch, tmp_path, argv,
                                                   derivations):
    calls = []

    def counted(*args, real=spdcsim.spectral.sample_spectrum):
        calls.append(args)
        return real(*args)

    for info in pkgutil.iter_modules(spdcsim.__path__):
        module = importlib.import_module(f"spdcsim.{info.name}")
        if hasattr(module, "sample_spectrum"):
            monkeypatch.setattr(module, "sample_spectrum", counted)
    out = (str(tmp_path),) if argv[-1] == "--out" else ()
    code, _, _ = run_cli(capsys, *argv, *out, "--grid-n", "64", "--slices", "3")
    assert code == 0
    assert len(calls) == derivations


class TestStartup:
    def test_import_and_pm_angle_load_no_scipy(self):
        script = (
            "import sys\n"
            "def scipy_modules():\n"
            "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "from spdcsim.cli import main\n"
            "assert not scipy_modules(), scipy_modules()\n"
            "assert main(['pm-angle', '--config', 'configs/degenerate_810.yaml']) == 0\n"
            "assert not scipy_modules(), scipy_modules()\n"
        )
        out = fresh_python(script)
        assert json.loads(out)["theta_p_deg"] == pytest.approx(28.81, abs=0.05)

    def test_moment_commands_load_no_scipy(self):
        """certify, sweep and stats run on the moment engine: no FFT, no SciPy."""
        fresh_python(
            "import sys\n"
            "from spdcsim.cli import main\n"
            "small = ['--grid-n', '64', '--slices', '3']\n"
            "for argv in (['certify'], ['sweep'], ['stats', '--plane', 'far'],\n"
            "             ['stats', '--plane', 'near']):\n"
            "    assert main(argv + small) == 0\n"
            "    loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "    assert not loaded, (argv, loaded)\n"
        )

    def test_certify_jid_and_camera_load_no_scipy(self, tmp_path):
        fresh_python(
            "import sys\n"
            "from spdcsim.cli import main\n"
            "small = ['--grid-n', '64', '--slices', '3']\n"
            f"out = ['--out', {str(tmp_path)!r}]\n"
            "for argv in (['certify'], ['jid', *out], ['jid', '--plane', 'near', *out],\n"
            "             ['camera', *out]):\n"
            "    assert main(argv + small) == 0\n"
            "    loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "    assert not loaded, (argv, loaded)\n"
        )


class TestPmAngle:
    def test_degenerate_angle(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "wavelengths:\n  degenerate: true\n")
        code, out, err = run_cli(capsys, "pm-angle", "--config", cfg)
        assert code == 0
        data = json.loads(out)
        assert data["theta_p_deg"] == pytest.approx(28.81, abs=0.05)
        assert data["signal_nm"] == data["idler_nm"] == 810.0
        assert err == ""

    def test_nondegenerate_idler_and_walkoff(self, capsys):
        code, out, _ = run_cli(capsys, "pm-angle")
        assert code == 0
        data = json.loads(out)
        assert data["idler_nm"] == pytest.approx(842.4, abs=0.05)
        assert 0.0 < data["walkoff_deg"] < 5.0

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "pump:\n  power_mw: 10\n")
        code, out, err = run_cli(capsys, "pm-angle", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "power_mw" in err

    def test_out_of_range_wavelength_exits_2(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "wavelengths:\n  signal_nm: 1100.0\n")
        code, out, err = run_cli(capsys, "pm-angle", "--config", cfg)
        assert code == 2
        assert out == ""


class TestJid:
    def test_writes_files_and_prints_stats(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "jid", "--plane", "far", "--axis", "x",
            "--out", str(out_dir), *SMALL,
        )
        assert code == 0
        data = json.loads(out)
        assert (out_dir / "jid_far_x.csv").exists()
        assert (out_dir / "jid_far_x_stats.json").exists()
        assert data["slope_principal_axis"] == pytest.approx(-1.0, abs=0.05)
        meta = read_matrix_csv(out_dir / "jid_far_x.csv")[3]
        assert meta["plane"] == "far" and meta["axis"] == "x"

    def test_binary_format(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "jid", "--format", "bin", "--out", str(out_dir), *SMALL,
        )
        assert code == 0
        _, _, matrix = read_matrix_binary(out_dir / "jid_far_x.bin")
        assert matrix.shape == (128, 128)
        assert np.all(matrix >= 0)

    def test_json_format_matches_per_element_floats(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "jid", "--format", "json", "--out", str(out_dir),
            "--grid-n", "64", "--slices", "3",
        )
        assert code == 0
        jid = far_field_jid(replace(load_config(None), grid_n=64, n_slices=3).build(), "x")
        blob = {
            "plane": "far",
            "axis": "x",
            "axis_signal": [float(v) for v in jid.axis_signal],
            "axis_idler": [float(v) for v in jid.axis_idler],
            "intensity": [[float(v) for v in row] for row in oracle.dense(jid)],
        }
        expected = json.dumps(blob, sort_keys=True) + "\n"
        assert (out_dir / "jid_far_x.json").read_text(encoding="utf-8") == expected

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            code, _, _ = run_cli(
                capsys, "jid", "--out", str(out_dir), *SMALL,
            )
            assert code == 0
        assert (a / "jid_far_x.csv").read_bytes() == (b / "jid_far_x.csv").read_bytes()
        assert (
            (a / "jid_far_x_stats.json").read_bytes()
            == (b / "jid_far_x_stats.json").read_bytes()
        )

    @pytest.mark.parametrize("plane", ["near", "far"])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_stats_sidecar_is_stats_stdout(self, capsys, tmp_path, plane, axis):
        """The sidecar holds the moment engine's statistics, byte for byte
        what ``stats`` prints for the same flags; ``jid`` prints them too,
        with the file list."""
        flags = ["--plane", plane, "--axis", axis, *SMALL]
        code, stats_out, _ = run_cli(capsys, "stats", *flags)
        assert code == 0
        code, jid_out, _ = run_cli(capsys, "jid", *flags, "--out", str(tmp_path))
        assert code == 0
        sidecar = tmp_path / f"jid_{plane}_{axis}_stats.json"
        assert sidecar.read_text(encoding="utf-8") == stats_out
        printed = json.loads(jid_out)
        assert printed.pop("files") == sorted([f"jid_{plane}_{axis}.csv", sidecar.name])
        assert printed == json.loads(stats_out)

    @pytest.mark.parametrize("grid_n", [64, 512, 1024, 2048])
    @pytest.mark.parametrize("config", ["nondegenerate_780", "degenerate_810"])
    def test_near_plane_warns_when_its_picture_is_unresolved(self, capsys, tmp_path, config,
                                                             grid_n):
        """Past its position window 2 pi/dq the near-field picture misses
        mass: 0.7 of its lag profile's at N = 64 (0.39 pump waists, the
        band capped at 63 lags) and 1.6e-3 at 512 (3.2 waists), against
        the band's 1e-6.  One warning line on stderr there, none at 1024
        (3e-10 past the band's share) or 2048; stdout and both files are
        written either way."""
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "jid", "--config", str(ROOT / "configs" / f"{config}.yaml"),
            "--plane", "near", "--grid-n", str(grid_n), "--format", "bin", "--out", str(out_dir),
        )
        assert code == 0
        assert json.loads(out)["files"] == ["jid_near_x.bin", "jid_near_x_stats.json"]
        if grid_n < 1024:
            (line,) = err.splitlines()
            assert line.startswith("warning: near-field picture misses ")
            assert line.endswith("; raise grid.n to resolve the near-field picture")
        else:
            assert err == ""

    def test_memory_budget_charges_the_far_field_band(self, capsys, tmp_path):
        """At w0 = 20 um the pump band covers the 512 x 512 grid, so the far
        field's blocks are 512 columns wide: ``jid --plane far`` is charged
        21 arrays of length N (its momenta, the plan of 5 slices, the grid,
        its row offsets and one ``SliceArms`` call), two 64-row blocks, a
        block's window index and one sinc evaluation of a block, 1.61 MiB,
        after the moment engine's 0.32 MiB.  At a 1 MiB budget it exits 3
        and writes nothing; at 2 MiB it runs."""
        n = 512
        charge = 8 * (21 * n + 2 * 64 * (n + 1) + 64 * n) + 25 * 64 * n
        assert 2**20 < charge <= 2 * 2**20
        for mb in (1, 2):
            cfg = write_config(tmp_path, f"pump:\n  waist_um: 20\n"
                                         f"grid:\n  n: {n}\n  memory_budget_mb: {mb}\n")
            out_dir = tmp_path / f"out{mb}"
            code, out, err = run_cli(capsys, "jid", "--config", cfg, "--slices", "5",
                                     "--axis", "y", "--format", "bin", "--out", str(out_dir))
            if mb == 1:
                assert code == 3
                assert out == ""
                assert err == ("resource error: 512 x 512 grid streaming 1 far-field band "
                               "needs ~2 MiB (budget 1 MiB)\n")
                assert not out_dir.exists()
            else:
                assert code == 0, err
                assert sorted(p.name for p in out_dir.iterdir()) == [
                    "jid_far_y.bin", "jid_far_y_stats.json",
                ]

    def test_malformed_config_writes_nothing(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "grid:\n  n: -4\n")
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "jid", "--config", cfg, "--out", str(out_dir),
        )
        assert code == 2
        assert not out_dir.exists()


class TestStats:
    def test_near_plane_stats(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--plane", "near", *SMALL)
        assert code == 0
        data = json.loads(out)
        assert data["plane"] == "near"
        assert data["V_s"] > 0 and data["width_inferred"] >= 0
        # near-field correlation: positive regression gain
        assert data["G"] > 0

    @pytest.mark.parametrize("command, fits", [
        (("stats", "--plane", "far"), 1),
        (("jid", "--plane", "far"), 1),
        (("camera", "--axis", "x"), 2),
    ], ids=["stats", "jid", "camera"])
    def test_isotropy_warning_is_one_line_per_fit(self, capsys, tmp_path, command, fits):
        """A degenerate source pumped at w0 = 2.2 um is nearly isotropic in
        the far field and on the camera: each ridge fit it prints warns in one
        ``warning:`` line on stderr, with no source path or code line."""
        cfg = write_config(tmp_path, "wavelengths:\n  degenerate: true\npump:\n  waist_um: 2.2\n")
        argv = [*command, "--config", cfg, "--grid-n", "256", "--slices", "3"]
        if command[0] != "stats":
            argv += ["--out", str(tmp_path / "out")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err.splitlines() == fits * [
            "warning: joint distribution is nearly isotropic; ridge orientation is undefined"]
        data = json.loads(out)
        fitted = [data["uncorrected"], data["corrected"]] if command[0] == "camera" else [data]
        assert all(fit["isotropic"] for fit in fitted)


class TestCertify:
    def test_both_axes_reported(self, capsys):
        code, out, _ = run_cli(capsys, "certify", *SMALL)
        assert code == 0
        data = json.loads(out)
        assert set(data["axes"]) == {"x", "y"}
        for report in data["axes"].values():
            assert report["reid_product"] >= 0
            assert report["certified"] == (report["reid_product"] < 0.5)
        assert data["certified_all"] == all(
            v["certified"] for v in data["axes"].values()
        )

    def test_single_axis_flag(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--axis", "x", *SMALL)
        assert code == 0
        assert set(json.loads(out)["axes"]) == {"x"}

    def test_cut_angle_reaches_the_report(self, capsys, tmp_path):
        # BBO does not phase-match at 0 degrees: the report must move
        _, default, _ = run_cli(capsys, "certify", "--axis", "x", *SMALL)
        cfg = write_config(tmp_path, "crystal:\n  theta_deg: 0\n")
        code, detuned, _ = run_cli(capsys, "certify", "--config", cfg, "--axis", "x", *SMALL)
        assert code == 0
        assert detuned != default


class TestSweep:
    def test_csv_to_stdout_and_file(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep:\n  parameter: filter_fwhm\n  values: [4.0]\naxes: x\n",
        )
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "sweep", "--config", cfg, "--out", str(out_dir), *SMALL,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "swept_value,axis,dx_inferred_um,dq_inferred_radm,reid_product,certified"
        )
        assert len(lines) == 2  # one value, one axis
        assert (out_dir / "sweep.csv").read_text() == out

    def test_every_listed_format_written(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep:\n  values: [4.0]\naxes: x\noutput:\n  formats: [csv, json]\n",
        )
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_dir), *SMALL)
        assert code == 0
        assert sorted(path.name for path in out_dir.iterdir()) == ["sweep.csv", "sweep.json"]
        assert (out_dir / "sweep.csv").read_text() == out  # stdout is the first format
        (row,) = json.loads((out_dir / "sweep.json").read_text())
        assert row["axis"] == "x" and row["swept_value"] == 4.0
        assert f"{row['reid_product']!r}" in out.splitlines()[1].split(",")

    def test_json_format(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path, "sweep:\n  values: [4.0]\naxes: x\n",
        )
        code, out, _ = run_cli(
            capsys, "sweep", "--config", cfg, "--format", "json", *SMALL,
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["swept_value"] == 4.0 and rows[0]["axis"] == "x"

    def test_bin_format_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "sweep:\n  values: [4.0]\n")
        code, out, err = run_cli(
            capsys, "sweep", "--config", cfg, "--format", "bin", *SMALL,
        )
        assert code == 2
        assert out == ""
        # bin is rejected wherever it appears in output.formats
        cfg = write_config(tmp_path, "sweep:\n  values: [4.0]\noutput:\n  formats: [csv, bin]\n")
        code, out, err = run_cli(capsys, "sweep", "--config", cfg, *SMALL)
        assert code == 2
        assert out == ""

    # sets every key the sweep once ignored: theta_deg, filter.center_nm
    # and both grid half-widths
    AGREEMENT = (
        "crystal:\n  theta_deg: 28.9\n"
        "filter:\n  center_nm: 781.0\n"
        "grid:\n  n: 128\n  sum_halfwidth: 40000.0\n  diff_halfwidth: 1500000.0\n"
        "spectral:\n  slices: 3\n"
        "axes: [x]\n"
        "sweep:\n  values: [5.0]\n"
    )

    def test_one_value_sweep_equals_certify(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.AGREEMENT)
        code, out, _ = run_cli(capsys, "certify", "--config", cfg)
        assert code == 0
        report = json.loads(out)["axes"]["x"]
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg, "--format", "json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["dx_inferred_um"] == report["dx_inferred_m"] * 1e6
        assert row["dq_inferred_radm"] == report["dq_inferred_radm"]
        assert row["reid_product"] == report["reid_product"]
        assert row["certified"] == report["certified"]

    def test_memory_budget_bounds_sweep_like_certify(self, capsys, tmp_path):
        """Every grid command reads the budget from the one RunConfig.  The
        moment engine behind stats, certify and sweep charges its fixed
        8 x 96 node grid, 0.06 MiB at any n: at n = 2048 and a 1 MiB budget
        all three run, and the sweep prints what certify prints."""
        cfg = write_config(tmp_path, self.AGREEMENT.replace(
            "  n: 128\n", "  n: 2048\n  memory_budget_mb: 1\n"))
        code, out, err = run_cli(capsys, "stats", "--config", cfg)
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, "certify", "--config", cfg)
        assert (code, err) == (0, "")
        report = json.loads(out)["axes"]["x"]
        code, out, err = run_cli(capsys, "sweep", "--config", cfg, "--format", "json")
        assert (code, err) == (0, "")
        (row,) = json.loads(out)
        assert row["reid_product"] == report["reid_product"]


@pytest.mark.parametrize("command", [("certify",), ("stats", "--plane", "near")],
                         ids=["certify", "stats-near"])
def test_statistics_do_not_depend_on_grid_n(capsys, command):
    """The moment engine's q_- rule is fixed, so ``grid.n`` sizes only the
    pictures: each statistic prints the same bytes at N = 16, 1024 and 4096."""
    outputs = set()
    for n in ("16", "1024", "4096"):
        code, out, err = run_cli(capsys, *command, "--grid-n", n)
        assert (code, err) == (0, "")
        outputs.add(out)
    assert len(outputs) == 1


class TestCamera:
    def test_memory_budget_covers_held_slices(self, capsys, tmp_path):
        """The camera holds no JPD, so a budget its streams fit in runs it:
        at N = 1024 and the defaults ``camera`` is charged 0.06 MiB for its
        engine pass, then 0.78 MiB for its streams, and at 1 MiB it writes
        both files.  At N = 2048 its streams need 1.55 MiB, so it exits 3
        naming them and writes nothing, while ``certify``, charged only
        the engine's fixed grid, runs."""
        for n in (1024, 2048):
            cfg = write_config(
                tmp_path, f"grid:\n  n: {n}\n  memory_budget_mb: 1\naxes: [y]\n"
            )
            out_dir = tmp_path / f"out{n}"
            certify = run_cli(capsys, "certify", "--config", cfg)
            code, out, err = run_cli(capsys, "camera", "--config", cfg, "--out", str(out_dir))
            assert certify[0] == 0
            if n == 1024:
                assert code == 0, err
                assert sorted(p.name for p in out_dir.iterdir()) == [
                    "camera_corrected_y.csv", "camera_uncorrected_y.csv",
                ]
            else:
                assert code == 3
                assert err == (f"resource error: {n} x {n} grid streaming 2 camera JPDs "
                               "needs ~2 MiB (budget 1 MiB)\n")
                assert out == ""
                assert not out_dir.exists()

    def test_memory_budget_charges_held_sparse_bytes(self, capsys, tmp_path, monkeypatch):
        """At w0 = 20 um the pump band covers the 256 x 256 grid, so each
        JPD's blocks are 256 columns wide.  The camera's streams are
        charged each slice's momenta and plan (6 arrays of length N), 10
        more arrays of length N, two 64-row blocks of each JPD, a block's
        window index and one sinc evaluation of a block; a budget one MiB
        below that charge stops before any slice is evaluated, and the
        charge itself runs, evaluating each slice once per JPD and block."""
        n, slices = 256, 31
        charge = 8 * ((6 * slices + 10) * n + 4 * 64 * (n + 1) + 64 * n) + 25 * 64 * n
        budget_mb = -(-charge // 2**20)
        assert (budget_mb - 1) * 2**20 < charge <= budget_mb * 2**20
        calls = []
        evaluate = spdcsim.spectral.evaluate_grid
        monkeypatch.setattr(
            spdcsim.spectral, "evaluate_grid", lambda *a: calls.append(a) or evaluate(*a)
        )
        for mb in (budget_mb - 1, budget_mb):
            cfg = write_config(
                tmp_path,
                f"pump:\n  waist_um: 20\ngrid:\n  n: {n}\n  memory_budget_mb: {mb}\n"
                f"spectral:\n  slices: {slices}\naxes: [y]\n",
            )
            out_dir = tmp_path / f"out{mb}"
            code, out, err = run_cli(capsys, "camera", "--config", cfg, "--out", str(out_dir))
            if mb < budget_mb:
                assert code == 3
                assert out == ""
                assert err.startswith(
                    "resource error: 256 x 256 grid streaming 2 camera JPDs "
                    f"needs ~{budget_mb} MiB (budget {mb} MiB)"
                )
                assert not out_dir.exists()
                assert calls == []
            else:
                assert code == 0, err
                assert len(calls) == 2 * slices * n // 64
                assert sorted(p.name for p in out_dir.iterdir()) == [
                    "camera_corrected_y.csv", "camera_uncorrected_y.csv",
                ]

    def test_memory_budget_charges_the_slice_plan(self, capsys, tmp_path, monkeypatch):
        """The camera's streams hold each slice's momenta and plan, 6 arrays
        of length N a slice: at N = 1024 with 31 slices they are charged
        ~2 MiB, over a 1 MiB budget that the moment engine's grid fits, so
        ``camera`` exits 3 naming the streams before any slice is
        evaluated, and writes nothing."""
        calls = []
        evaluate = spdcsim.spectral.evaluate_grid
        monkeypatch.setattr(
            spdcsim.spectral, "evaluate_grid", lambda *a: calls.append(a) or evaluate(*a)
        )
        cfg = write_config(tmp_path, "grid:\n  memory_budget_mb: 1\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "camera", "--config", cfg, "--grid-n", "1024",
                                 "--slices", "31", "--out", str(out_dir))
        assert code == 3
        assert out == ""
        assert err == ("resource error: 1024 x 1024 grid streaming 2 camera JPDs "
                       "needs ~2 MiB (budget 1 MiB)\n")
        assert calls == []
        assert not out_dir.exists()

    def test_csv_pictures_peak_under_2_mib_at_2048(self, capsys, tmp_path):
        """No JPD is held: ``camera --grid-n 2048`` writing CSV peaks under
        2 MiB in ``tracemalloc`` (1.2 MiB measured, most of it the moment
        engine's node grid), where holding both JPDs peaked at 9.1 MiB."""
        run_cli(capsys, "camera", "--out", str(tmp_path / "warm"), "--grid-n", "64",
                "--slices", "3")  # first calls out of the trace
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "camera", "--grid-n", "2048",
                                   "--out", str(tmp_path / "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 2 * 2**20

    def test_every_format_writes_the_dense_pictures_bytes(self, capsys, tmp_path):
        """With ``output.formats: [csv, bin, json]`` each file holds its
        JPD's dense matrix: the CSV of every entry's ``repr``, the binary
        layout of the row-major float64 matrix, and ``json.dumps`` of the
        tags, axes and rows with sorted keys."""
        cfg = write_config(tmp_path, "output:\n  formats: [csv, bin, json]\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "camera", "--config", cfg, "--out", str(out_dir), *SMALL)
        assert code == 0, err
        tags = ("uncorrected", "corrected")
        assert json.loads(out)["files"] == sorted(
            f"camera_{tag}_y.{fmt}" for tag in tags for fmt in ("csv", "bin", "json"))
        run = replace(load_config(None), grid_n=128, n_slices=3)
        jpds = camera_jpds(run.build(), "y")
        for tag, jpd in zip(tags, jpds):
            dense, stem = oracle.dense(jpd), out_dir / f"camera_{tag}_y"
            meta = {"plane": "camera", "axis": "y", "corrected": jpd.corrected}
            lines = [f"# {key}: {value}" for key, value in meta.items()]
            lines.append(",".join(["signal", *map(repr, jpd.axis_idler.tolist())]))
            lines += [",".join(map(repr, [coord, *row]))
                      for coord, row in zip(jpd.axis_signal.tolist(), dense.tolist())]
            assert stem.with_suffix(".csv").read_text(encoding="utf-8") == "\n".join(lines) + "\n"
            header = [jpd.axis_signal[0], jpd.axis_signal[-1], 128,
                      jpd.axis_idler[0], jpd.axis_idler[-1], 128]
            assert stem.with_suffix(".bin").read_bytes() == (
                b"SPDCJID1" + np.array(header, "<f8").tobytes() + dense.astype("<f8").tobytes())
            blob = {**meta, "axis_signal": jpd.axis_signal.tolist(),
                    "axis_idler": jpd.axis_idler.tolist(), "intensity": dense.tolist()}
            assert stem.with_suffix(".json").read_text(encoding="utf-8") == (
                json.dumps(blob, sort_keys=True) + "\n")

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_one_moment_engine_pass(self, capsys, tmp_path, monkeypatch, axis):
        """The slope sums, and on y the slice intercepts, come from one
        ``moment_sums`` call per run."""
        calls = []
        engine = spdcsim.camera.moment_sums
        monkeypatch.setattr(
            spdcsim.camera, "moment_sums", lambda *a: calls.append(a) or engine(*a)
        )
        code, _, err = run_cli(capsys, "camera", "--axis", axis, "--out", str(tmp_path), *SMALL)
        assert code == 0, err
        assert [a[1] for a in calls] == [axis]

    def test_files_and_slope_report(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "camera", "--axis", "y", "--out", str(out_dir), *SMALL,
        )
        assert code == 0
        data = json.loads(out)
        assert (out_dir / "camera_uncorrected_y.csv").exists()
        assert (out_dir / "camera_corrected_y.csv").exists()
        assert data["uncorrected"]["corrected"] is False
        assert data["corrected"]["corrected"] is True
        assert "fit_method" in data["corrected"]
        assert data["shift_mode"] == "fitted"
        # chromatic skew visible even at a coarse grid
        assert data["uncorrected"]["slope_regression"] > -1.0
        assert data["corrected"]["slope_regression"] == pytest.approx(-1.0, abs=0.05)

    def test_csv_matrices_read_back_as_accumulated(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "camera", "--axis", "y", "--out", str(out_dir), *SMALL,
        )
        assert code == 0
        cfg = replace(load_config(None), grid_n=128, n_slices=3)
        problem = cfg.build()
        jpds = camera_jpds(problem, "y")
        for tag, jpd in zip(("uncorrected", "corrected"), jpds):
            y_s, y_i, matrix, meta = read_matrix_csv(out_dir / f"camera_{tag}_y.csv")
            assert meta == {"plane": "camera", "axis": "y", "corrected": str(jpd.corrected)}
            assert np.array_equal(y_s, jpd.axis_signal)
            assert np.array_equal(y_i, jpd.axis_idler)
            assert np.array_equal(matrix, oracle.dense(jpd))

    def test_degenerate_no_skew(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "wavelengths:\n  degenerate: true\n")
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "camera", "--config", cfg, "--axis", "x",
            "--out", str(out_dir), *SMALL,
        )
        assert code == 0
        data = json.loads(out)
        assert data["uncorrected"]["slope_principal_axis"] == pytest.approx(-1.0, abs=0.01)
        assert data["corrected"]["slope_principal_axis"] == pytest.approx(-1.0, abs=0.01)

    def test_even_node_count_runs_and_writes_both_files(self, capsys, tmp_path):
        """With an even node count no node is the nominal pair; the pixel
        map is slice n // 2, the first node above the center."""
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "camera", "--out", str(out_dir), "--grid-n", "128",
                               "--slices", "4")
        assert code == 0
        report = json.loads(out)
        assert report["uncorrected"]["n_slices"] == 4
        for name in ("camera_corrected_y.csv", "camera_uncorrected_y.csv"):
            assert (out_dir / name).stat().st_size > 0


    @pytest.mark.parametrize("command, files, grid_n", [
        pytest.param(command, files, grid_n, id=f"{tag}{grid_n}")
        for tag, command, files in (
            ("", ("camera",), ["camera_corrected_y.csv", "camera_uncorrected_y.csv"]),
            ("jid-far-", ("jid", "--plane", "far"), ["jid_far_x.csv", "jid_far_x_stats.json"]),
        ) for grid_n in (256, 512, 1024)
    ])
    def test_warns_when_grid_step_exceeds_pump_width(self, capsys, tmp_path, command, files,
                                                     grid_n):
        """At the default config the square grid's step is 7.97e3 rad/m at
        N = 256, 3.98e3 at 512 and 1.99e3 at 1024, against the pump width
        2/w0 = 4e3 rad/m, so the grid's sum over the squared pump
        over-counts its mass by 2 exp(-2 pi^2 / (w0 dq)^2): 0.58, 1.4e-2
        and 4e-9.  The camera's and the far field's square-grid slice pass
        writes one warning line on stderr where that passes 1e-6, at 256
        and 512, and none at 1024; stdout stays the JSON report and every
        file is written."""
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, *command, "--out", str(out_dir), "--grid-n", str(grid_n), "--slices", "3",
        )
        assert code == 0
        assert json.loads(out)["files"] == files
        if grid_n < 1024:
            step, over = {256: ("7.97e+03", "0.58"), 512: ("3.98e+03", "0.014")}[grid_n]
            (line,) = err.splitlines()
            assert line.startswith(f"warning: square grid step {step} rad/m ")
            assert "pump width 2/w0 = 4e+03 rad/m" in line
            assert line.endswith(f"over-count the pump's mass by {over}; raise grid.n to "
                                 "resolve them")
        else:
            assert err == ""


class TestExitCodes:
    def test_missing_config_file_exits_3(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "pm-angle", "--config", str(tmp_path / "nope.yaml"),
        )
        assert code == 3  # unreadable file is a resource error
        assert out == ""

    def test_failing_sweep_point_exits_as_its_cause(self, capsys, tmp_path):
        """A sweep point fails as certify does on the same value (exit 4
        here), with one stderr line naming the value and no traceback."""
        common = "grid:\n  n: 64\nspectral:\n  slices: 1\naxes: [x]\n"
        cfg = write_config(tmp_path, "crystal:\n  length_mm: 0.0001\n" + common, "one.yaml")
        code, _, _ = run_cli(capsys, "certify", "--config", cfg)
        assert code == 4
        cfg = write_config(
            tmp_path,
            "sweep:\n  parameter: crystal_length_mm\n  values: [0.0001, 1.0]\n" + common,
        )
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 4
        assert out == ""
        assert err.startswith("numerical error: sweep aborted at crystal_length_mm = 0.0001")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "override, message",
        [(("--grid-n", "1"), "grid.n: must be >= 16, got 1"),
         (("--grid-n", "64", "--slices", "0"), "spectral.slices: must be >= 1, got 0"),
         (("--grid-n", "64", "--slices", "257"), "spectral.slices: must be <= 256, got 257")],
        ids=["grid-n-1", "slices-0", "slices-257"],
    )
    def test_bad_cli_override_exits_2(self, capsys, override, message):
        code, out, err = run_cli(capsys, "stats", *override)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("mode", ["fitted", "literal"])
    def test_camera_shift_mode_key_exits_2(self, capsys, tmp_path, mode):
        """The walk-off shift is always fitted; the key that chose it is gone."""
        cfg = write_config(tmp_path, f"camera:\n  shift_mode: {mode}\n")
        code, out, err = run_cli(capsys, "camera", "--config", cfg, "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ")
        assert "camera.shift_mode" in err

    @pytest.mark.parametrize(
        "coefficients",
        [
            "- 1.0\n- 2.0\n",
            "ordinary: {A: 2.7, B: 0.018, C: 0.018}\n"
            "extraordinary: {A: 2.4, B: 0.012, C: 0.016, D: 0.015}\n"
            "range_um: [0.2, 2.0]\n",
            *(
                "ordinary: {A: 2.7, B: 0.018, C: 0.018, D: 0.015}\n"
                "extraordinary: {A: 2.4, B: 0.012, C: 0.016, D: 0.015}\n"
                f"range_um: {rng}\n"
                for rng in ("[0.22]", "[0.22, 1.06, 2.0]", "[null, 1.06]", "0.22")
            ),
        ],
        ids=["list", "missing-coefficient", "range-one", "range-three", "range-null",
             "range-scalar"],
    )
    def test_bad_sellmeier_file_exits_2(self, capsys, tmp_path, coefficients):
        sell = write_config(tmp_path, coefficients, "sellmeier.yaml")
        cfg = write_config(tmp_path, f"crystal:\n  sellmeier_file: {sell}\n")
        code, out, err = run_cli(capsys, "pm-angle", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: crystal.sellmeier_file: ")

    @pytest.mark.parametrize(
        "value, shown",
        [(".nan", "nan"), (".inf", "inf"), ("null", "None"), ("abc", "'abc'"), ("true", "True")],
        ids=["nan", "inf", "null", "text", "bool"],
    )
    def test_non_numeric_sellmeier_coefficient_exits_2(self, capsys, tmp_path, value, shown):
        sell = write_config(
            tmp_path,
            f"ordinary: {{A: {value}, B: 0.018, C: 0.018, D: 0.015}}\n"
            "extraordinary: {A: 2.4, B: 0.012, C: 0.016, D: 0.015}\n"
            "range_um: [0.2, 2.0]\n",
            "sellmeier.yaml",
        )
        cfg = write_config(tmp_path, f"crystal:\n  sellmeier_file: {sell}\n")
        code, out, err = run_cli(capsys, "pm-angle", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err.strip() == ("config error: crystal.sellmeier_file: "
                               f"ordinary.A: must be a finite number, got {shown}")

    def test_non_utf8_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("# waist in \u00b5m\npump:\n  waist_um: 500\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "pm-angle", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {path}: not UTF-8 text")

    @pytest.mark.parametrize(
        "filt, key",
        [("fwhm_nm: 350", "fwhm_nm"), ("fwhm_nm: 400", "fwhm_nm"), ("center_nm: 300.0", "center_nm")],
        ids=["fwhm-350", "fwhm-400", "center-300"],
    )
    def test_filter_wider_than_the_spectrum_exits_2(self, capsys, tmp_path, filt, key):
        """The outermost of 5 Gauss-Hermite nodes lies 1.21 FWHM from the
        center, below the pump wavelength for a FWHM of 350 nm (at 355 nm)
        or 400 nm (at 295 nm); a center below the pump is named as the
        cause."""
        cfg = write_config(
            tmp_path, f"filter:\n  {filt}\ngrid:\n  n: 64\nspectral:\n  slices: 5\n"
        )
        code, out, err = run_cli(capsys, "certify", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: filter.{key}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "section, key",
        [
            ("crystal:\n  theta_deg: 100", "crystal.theta_deg"),
            ("crystal:\n  theta_deg: -5", "crystal.theta_deg"),
            ("pump:\n  wavelength_nm: 900", "pump.wavelength_nm"),
            ("wavelengths:\n  signal_nm: 300", "wavelengths.signal_nm"),
        ],
        ids=["theta-100", "theta-minus-5", "pump-900", "signal-300"],
    )
    def test_physics_range_contradiction_exits_2(self, capsys, tmp_path, section, key):
        """An angle outside [0, 90] degrees or a signal not longer than the
        pump is named by its key, without a traceback."""
        cfg = write_config(tmp_path, f"{section}\ngrid:\n  n: 64\nspectral:\n  slices: 3\n")
        code, out, err = run_cli(capsys, "certify", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {key}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "section, key",
        [
            ("pump:\n  waist_um: .nan", "pump.waist_um"),
            ("pump:\n  waist_um: .inf", "pump.waist_um"),
            ("crystal:\n  length_mm: .inf", "crystal.length_mm"),
            ("crystal:\n  theta_deg: -.inf", "crystal.theta_deg"),
            ("filter:\n  fwhm_nm: .nan", "filter.fwhm_nm"),
            ("pump:\n  waist_um: 1" + "0" * 400, "pump.waist_um"),
            ("sweep:\n  values: [1.0, .inf]", "sweep.values[1]"),
        ],
        ids=["waist-nan", "waist-inf", "length-inf", "theta-minus-inf", "fwhm-nan",
             "waist-huge-integer", "sweep-value-inf"],
    )
    def test_non_finite_number_exits_2(self, capsys, tmp_path, section, key):
        cfg = write_config(tmp_path, f"{section}\ngrid:\n  n: 64\nspectral:\n  slices: 3\n")
        code, out, err = run_cli(capsys, "certify", "--config", cfg)
        assert code == 2
        assert out == ""
        assert f"{key}: must be finite, got " in err
        assert err.count("\n") == 1

    def test_sweep_to_a_filter_wider_than_the_spectrum_exits_2(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            "grid:\n  n: 64\nspectral:\n  slices: 5\naxes: [x]\n"
            "sweep:\n  parameter: filter_fwhm_nm\n  values: [5.0, 400.0]\n",
        )
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: sweep aborted at filter_fwhm_nm = 400.0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["camera"], ["jid", "--plane", "far"]],
                             ids=["camera", "jid-far"])
    def test_evanescent_picture_exits_4_and_writes_nothing(self, capsys, tmp_path, command):
        """A sum half-width of 3e7 rad/m stretches the square grid past the
        propagation cone (k = 1.3e7 rad/m at 780 nm) while the moment
        engine's nodes stay inside it: the picture's check, before any
        block is drawn, exits 4 and no file is written."""
        cfg = write_config(tmp_path, "grid:\n  sum_halfwidth: 30000000.0\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, *command, "--config", cfg, "--out", str(out_dir), *SMALL)
        assert code == 4
        assert out == ""
        assert err.splitlines()[-1] == ("numerical error: transverse momentum at or beyond "
                                        "the propagation cone |q| >= k")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command",
        [["certify"], ["stats"], ["sweep"], ["camera"], ["camera", "--axis", "x"], ["jid"]],
        ids=["certify", "stats", "sweep", "camera", "camera-x", "jid"],
    )
    def test_collapsed_distribution_exits_4(self, capsys, tmp_path, command):
        """With the Gaussian kernel on a crystal cut at 0 degrees every
        slice's intensity underflows to 0: each statistic's sums reach
        ``StatsSummary.from_sums`` with a total of 0.0, which exits 4 with
        one stderr line (after any warning line),
        prints nothing and writes no file.  On x the camera has no slice
        intercepts to fit, so it is its JPDs' sums that stop it, before
        any slice is evaluated."""
        cfg = write_config(
            tmp_path, "crystal:\n  theta_deg: 0\nmodel:\n  kernel: gauss\n", "collapsed.yaml"
        )
        out_dir = tmp_path / "out"
        argv = [*command, "--config", cfg, "--grid-n", "64", "--slices", "3"]
        if command[0] in ("camera", "jid"):
            argv += ["--out", str(out_dir)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == ""
        *warnings, line = err.splitlines()
        assert all(w.startswith("warning: ") for w in warnings)
        assert line.startswith("numerical error: ")
        assert line.endswith("intensity total 0.0 is not finite and positive")
        assert not out_dir.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
