"""Round-trip and validation tests for the CSV/binary file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcsim.biphoton import RowBand
from spdcsim.io import (
    MAGIC,
    read_matrix_binary,
    read_matrix_csv,
    write_matrix_binary,
    write_matrix_csv,
)
from spdcsim.spectral import JointDistribution

from oracle import full_band


def make_jid(plane="far", axis="x", n=5, m=4, seed=0):
    rng = np.random.default_rng(seed)
    return JointDistribution(
        plane=plane,
        axis=axis,
        axis_signal=np.linspace(-2.0, 2.0, n),
        axis_idler=np.linspace(-1.5, 1.5, m),
        intensity=full_band(rng.uniform(0.0, 3.0, size=(n, m))),
    )


def write_csv(jid, path):
    write_matrix_csv(
        path, jid.axis_signal, jid.axis_idler, jid.intensity,
        meta={"plane": jid.plane, "axis": jid.axis},
    )


def write_binary(jid, path):
    write_matrix_binary(path, jid.axis_signal, jid.axis_idler, jid.intensity)


class TestCsv:
    def test_round_trip_preserves_everything(self, tmp_path):
        jid = make_jid(plane="near", axis="y")
        path = tmp_path / "jid.csv"
        write_csv(jid, path)
        axis_signal, axis_idler, matrix, meta = read_matrix_csv(path)
        assert meta["plane"] == "near"
        assert meta["axis"] == "y"
        # repr floats round-trip exactly, not merely approximately
        assert np.array_equal(axis_signal, jid.axis_signal)
        assert np.array_equal(axis_idler, jid.axis_idler)
        assert np.array_equal(matrix, jid.intensity.toarray())

    def test_rewrite_is_byte_identical(self, tmp_path):
        jid = make_jid(seed=7)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(jid, a)
        write_csv(jid, b)
        assert a.read_bytes() == b.read_bytes()

    def test_meta_comments_lead_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(
            path,
            np.linspace(0.0, 1.0, 3),
            np.linspace(0.0, 1.0, 3),
            full_band(np.ones((3, 3))),
            meta={"plane": "far", "axis": "x"},
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "# plane: far"
        assert lines[1] == "# axis: x"
        assert lines[2].startswith("signal,")

    @staticmethod
    def reference_csv(axis_signal, axis_idler, intensity, meta):
        """The per-element writer: every float through ``repr(float(v))``."""
        lines = [f"# {key}: {value}" for key, value in meta.items()]
        lines.append(",".join(["signal"] + [repr(float(v)) for v in axis_idler]))
        for coord, row in zip(axis_signal, intensity):
            lines.append(",".join([repr(float(coord))] + [repr(float(v)) for v in row]))
        return ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("case", ["banded", "transposed", "one_by_one", "zero_1x1"])
    def test_bytes_match_per_element_repr(self, tmp_path, case):
        tiny = np.nextafter(0.0, 1.0)
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0.0, 2.0, size=(6, 9))
        matrix[:, :2] = 0.0  # leading zeros
        matrix[:, 7:] = 0.0  # trailing zeros
        matrix[1] = 0.0  # an all-zero row
        matrix[2] = rng.uniform(0.5, 1.0, size=9)  # a fully nonzero row
        matrix[3, 0], matrix[3, 8], matrix[3, 4] = -0.0, -0.0, 0.0  # signed zeros
        matrix[4, 1], matrix[4, 6] = tiny, 3 * tiny  # subnormals at the span ends
        matrix[5, 2:7] = [0.0, -0.0, 1e-300, 0.0, 0.0]
        if case == "transposed":
            matrix = matrix.T  # non-contiguous
        elif case == "one_by_one":
            matrix = np.array([[0.25]])
        elif case == "zero_1x1":
            matrix = np.array([[0.0]])
        axis_signal = np.linspace(-1.0, 1.0, matrix.shape[0])
        axis_idler = np.linspace(-0.5, 0.5, matrix.shape[1])
        meta = {"plane": "camera", "axis": "y"}
        path = tmp_path / "m.csv"
        write_matrix_csv(path, axis_signal, axis_idler, full_band(matrix), meta=meta)
        assert path.read_bytes() == self.reference_csv(axis_signal, axis_idler, matrix, meta)
        assert b"-0.0" in path.read_bytes() or not np.signbit(matrix).any()

    @staticmethod
    def joined_csv(path, axis_signal, axis_idler, matrix, meta):
        """The whole-file writer: every line joined into one string, written once."""
        n = matrix.shape[1]
        printable = (matrix != 0) | np.signbit(matrix)
        first = np.where(printable.any(axis=1), printable.argmax(axis=1), n)
        stop = n - printable[:, ::-1].argmax(axis=1)
        lines = [f"# {key}: {value}" for key, value in meta.items()]
        lines.append(",".join(["signal", *map(repr, axis_idler.tolist())]))
        for coord, row, a, b in zip(axis_signal.tolist(), matrix, first.tolist(), stop.tolist()):
            cells = ["0.0"] * n
            cells[a:b] = map(repr, row[a:b].tolist())
            lines.append(repr(coord) + "," + ",".join(cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    def test_row_writes_match_joined_file(self, tmp_path):
        """Writing row by row gives the bytes of joining the file first."""
        rng = np.random.default_rng(11)
        matrix = rng.uniform(0.0, 2.0, size=(5, 8))
        matrix[:, :3] = 0.0  # leading zero runs
        matrix[:, 6:] = 0.0  # trailing zero runs
        matrix[1] = 0.0  # an all-zero row
        matrix[2, 4] = -0.0
        matrix[3, 0] = -0.0  # a -0.0 that opens a row's printed span
        axis_signal = np.linspace(-1.0, 1.0, 5)
        axis_idler = np.linspace(-0.7, 0.7, 8)
        meta = {"plane": "camera", "axis": "y", "corrected": True}
        rows, joined = tmp_path / "rows.csv", tmp_path / "joined.csv"
        write_matrix_csv(rows, axis_signal, axis_idler, full_band(matrix), meta=meta)
        self.joined_csv(joined, axis_signal, axis_idler, matrix, meta)
        assert rows.read_bytes() == joined.read_bytes()
        assert rows.read_bytes().count(b",-0.0,") == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# plane: far\n")
        with pytest.raises(ValueError, match="no matrix data"):
            read_matrix_csv(path)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            min_size=6, max_size=6,
        )
    )
    def test_values_survive_exactly(self, tmp_path_factory, values):
        jid = JointDistribution(
            plane="far", axis="x",
            axis_signal=np.linspace(-1.0, 1.0, 2),
            axis_idler=np.linspace(-1.0, 1.0, 3),
            intensity=full_band(np.array(values).reshape(2, 3)),
        )
        path = tmp_path_factory.mktemp("csv") / "h.csv"
        write_csv(jid, path)
        assert np.array_equal(read_matrix_csv(path)[2], jid.intensity.toarray())


class TestBinary:
    def test_round_trip(self, tmp_path):
        jid = make_jid(seed=3)
        path = tmp_path / "jid.bin"
        write_binary(jid, path)
        axis_signal, axis_idler, matrix = read_matrix_binary(path)
        assert np.array_equal(matrix, jid.intensity.toarray())
        assert np.allclose(axis_signal, jid.axis_signal, rtol=1e-12, atol=0.0)
        assert axis_signal[0] == jid.axis_signal[0]
        assert axis_signal[-1] == jid.axis_signal[-1]

    def test_default_tags(self, tmp_path):
        # The binary carries no tags and none are invented on read: the
        # caller supplies them, and a CSV written without them reads
        # back with an empty meta.
        jid = make_jid()
        path = tmp_path / "jid.bin"
        write_binary(jid, path)
        assert len(read_matrix_binary(path)) == 3
        csv_path = tmp_path / "untagged.csv"
        write_matrix_csv(csv_path, jid.axis_signal, jid.axis_idler, jid.intensity)
        assert read_matrix_csv(csv_path)[3] == {}

    def test_file_starts_with_magic(self, tmp_path):
        path = tmp_path / "jid.bin"
        write_binary(make_jid(), path)
        assert path.read_bytes()[:8] == MAGIC == b"SPDCJID1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAJID!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            read_matrix_binary(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "jid.bin"
        write_binary(make_jid(), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_matrix_binary(path)

    def test_rewrite_is_byte_identical(self, tmp_path):
        jid = make_jid(seed=11)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_binary(jid, a)
        write_binary(jid, b)
        assert a.read_bytes() == b.read_bytes()


# (starts, width) of bands on 9 columns: windows that touch column 0 and
# column n - 1, and the full width
BANDS = {
    "edges": ([0, 2, 5, 3, 1, 5, 4], 4),
    "full_width": ([0] * 7, 9),
}


def band_case(name):
    """A 7-row band with an all-zero row, -0.0 opening a window's printed
    run before +0.0 and inside a run, a window of only +0.0 and -0.0,
    and subnormals at a run's ends."""
    starts, width = BANDS[name]
    tiny = np.nextafter(0.0, 1.0)
    data = np.random.default_rng(5).uniform(0.5, 2.0, size=(7, width))
    data[1] = 0.0  # an all-zero row
    data[2, :3] = [-0.0, 0.0, 0.0]  # -0.0, then +0.0 before the nonzero run
    data[3, 1:3] = [-0.0, 0.0]  # signed zeros inside the run
    data[4] = 0.0
    data[4, width // 2] = -0.0  # the only printable entry
    data[5, 0], data[5, -1] = tiny, 3 * tiny
    data[6, -1] = 0.0  # a trailing +0.0 inside the window
    return RowBand(data, np.array(starts, dtype=np.intp), 9)


class TestBand:
    @pytest.mark.parametrize("name", sorted(BANDS))
    def test_band_writes_the_bytes_of_its_dense_matrix(self, tmp_path, name):
        """Each format writes a band as the dense matrix it holds, passed
        as the full-width band."""
        band = band_case(name)
        dense = band.toarray()
        assert np.signbit(dense).sum() == 3
        axis_signal = np.linspace(-1.0, 1.0, 7)
        axis_idler = np.linspace(-0.5, 0.5, 9)
        meta = {"plane": "camera", "axis": "y"}
        for tag, source in (("band", band), ("dense", full_band(dense))):
            write_matrix_csv(tmp_path / f"{tag}.csv", axis_signal, axis_idler, source, meta=meta)
            write_matrix_binary(tmp_path / f"{tag}.bin", axis_signal, axis_idler, source)
        for ext in ("csv", "bin"):
            assert (tmp_path / f"band.{ext}").read_bytes() == (tmp_path / f"dense.{ext}").read_bytes()
        assert (tmp_path / "band.csv").read_bytes() == TestCsv.reference_csv(
            axis_signal, axis_idler, dense, meta
        )
        matrix = read_matrix_binary(tmp_path / "band.bin")[2]
        assert np.array_equal(matrix, dense)
        assert np.array_equal(np.signbit(matrix), np.signbit(dense))

