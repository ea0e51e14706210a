"""Traced in-process run of one spdcsim CLI command.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py RESULT_JSON STDOUT_FILE -- CLI_ARGS...

Each layer's public function is wrapped at every ``spdcsim`` module
attribute that refers to it -- the names callers look it up through,
such as ``spdcsim.spectral.evaluate_grid`` and
``spdcsim.cli.near_field_jid`` -- so nothing in the package changes.
A wrapper records one span (layer, parent span, start, end) per call;
a direct recursive call stays inside its outer span.  Spans are kept in
memory and summed per layer when the command ends.  A layer's self time
is its span duration minus the time covered by its child spans.
RESULT_JSON gets the per-layer sums and the metrics ``LAYERS`` names.

A layer whose module or attribute no longer exists is listed under
``absent`` and reported with zero calls; it never stops the run.  The
command's stdout is captured and written byte for byte to STDOUT_FILE.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import os
import sys
import time
from pathlib import Path


def _array_bytes(result, args, kwargs) -> int:
    return result.nbytes


def _held_bytes(result, args, kwargs) -> int:
    return sum(cs.intensity.nbytes for cs in result)


def _file_bytes(result, args, kwargs) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _count(result, args, kwargs) -> int:
    return len(result)


#: unit of each aggregate a layer metric can report
AGGREGATE_UNITS = {
    "calls": "count",
    "self_s": "s",
    "self_ms_per_call": "ms",
    "mib": "MiB",  # summed size in bytes, in MiB
    "size": "count",  # summed size in items
}

#: (layer, defining module, attribute path, size of one call's work or None,
#:  reported metric -> aggregate).  ``cli.main``'s self time is the time
#:  that no other layer accounts for.
LAYERS = (
    ("cli.main", "spdcsim.cli", "main", None, {"cli.main.self_s": "self_s"}),
    ("config.load_config", "spdcsim.config", "load_config", None,
     {"config.load_config.self_s": "self_s"}),
    ("config.build", "spdcsim.config", "RunConfig.build", None, {"config.build.self_s": "self_s"}),
    ("biphoton.evaluate_grid", "spdcsim.biphoton", "evaluate_grid", _array_bytes, {
        "biphoton.evaluate_grid.calls": "calls",
        "biphoton.evaluate_grid.self_ms_per_call": "self_ms_per_call",
        "biphoton.evaluate_grid.out_mib": "mib",
    }),
    ("spectral.far_field_jid", "spdcsim.spectral", "far_field_jid", None,
     {"spectral.far_field_jid.self_s": "self_s"}),
    ("spectral.near_field_jid", "spdcsim.spectral", "near_field_jid", None,
     {"spectral.near_field_jid.self_s": "self_s"}),
    ("stats.normalize", "spdcsim.stats", "normalize", None, {"stats.normalize.self_s": "self_s"}),
    ("stats.moments", "spdcsim.stats", "moments", None, {"stats.moments.self_s": "self_s"}),
    ("stats.ridge_slope", "spdcsim.stats", "ridge_slope", None,
     {"stats.ridge_slope.self_s": "self_s"}),
    ("camera.camera_slices", "spdcsim.camera", "camera_slices", _held_bytes, {
        "camera.camera_slices.self_s": "self_s",
        "camera.held_mib": "mib",
    }),
    ("camera.uncorrected_jpd", "spdcsim.camera", "uncorrected_jpd", None,
     {"camera.uncorrected_jpd.self_s": "self_s"}),
    ("camera.corrected_jpd", "spdcsim.camera", "corrected_jpd", None,
     {"camera.corrected_jpd.self_s": "self_s"}),
    ("camera.walkoff_correct", "spdcsim.camera", "walkoff_correct", None,
     {"camera.walkoff_correct.self_s": "self_s"}),
    ("camera.slope_report", "spdcsim.camera", "slope_report", None,
     {"camera.slope_report.self_s": "self_s"}),
    ("camera.resample_conserving", "spdcsim.camera", "resample_conserving", None, {
        "camera.resample_conserving.calls": "calls",
        "camera.resample_conserving.self_ms_per_call": "self_ms_per_call",
    }),
    ("io.write_matrix_csv", "spdcsim.io", "write_matrix_csv", _file_bytes, {
        "io.write_matrix_csv.self_s": "self_s",
        "io.bytes_written_mib": "mib",
    }),
    ("sweep.run_sweep", "spdcsim.sweep", "run_sweep", _count, {
        "sweep.run_sweep.self_s": "self_s",
        "sweep.points": "size",
    }),
)

#: unit of every metric a traced run reports
UNITS = {
    metric: AGGREGATE_UNITS[agg] for *_, metrics in LAYERS for metric, agg in metrics.items()
}
UNITS["setup.import_s"] = "s"


class Tracer:
    """In-memory span recorder for one single-threaded command."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, parent index, start, end, size]
        self.stack: list[int] = []

    def wrap(self, layer: str, fn, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, self.stack[-1] if self.stack else None, time.perf_counter(), None, 0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if size is not None:
                try:
                    span[4] = size(result, args, kwargs)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    span[4] = 0
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every layer; return the layers that could not be found."""
        absent = []
        for layer, module_name, attr_path, size, _ in LAYERS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                absent.append(layer)
                continue
            wrapper = self.wrap(layer, original, size)
            if parents:
                setattr(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name == "spdcsim" or name.startswith("spdcsim."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        return absent

    def layers(self) -> dict[str, dict]:
        """Calls, self time and size (bytes or items) summed per layer."""
        child_time = [0.0] * len(self.spans)
        for layer, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {layer: {"calls": 0, "self_s": 0.0, "size": 0} for layer, *_ in LAYERS}
        for (layer, _, start, end, size), inner in zip(self.spans, child_time):
            agg = out[layer]
            agg["calls"] += 1
            agg["self_s"] += end - start - inner
            agg["size"] += size
        return out


def metrics(layers: dict[str, dict]) -> dict[str, float]:
    """The metrics ``LAYERS`` names, from the per-layer sums."""
    out = {}
    for layer, *_, reported in LAYERS:
        stats = layers[layer]
        for metric, agg in reported.items():
            if agg == "self_ms_per_call":
                out[metric] = 1e3 * stats["self_s"] / stats["calls"] if stats["calls"] else 0.0
            elif agg == "mib":
                out[metric] = stats["size"] / 2.0**20
            else:
                out[metric] = stats[agg]
    return out


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "cpu_count": os.cpu_count(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv: list[str]) -> int:
    result_path, stdout_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    t0 = time.perf_counter()
    import spdcsim.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    absent = tracer.install()
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        exit_code = spdcsim.cli.main(cli_args)
    finally:
        sys.stdout = real_stdout
    wall_s = time.perf_counter() - t0
    Path(stdout_path).write_bytes(captured.getvalue().encode("utf-8"))
    layers = tracer.layers()
    result = {
        "exit_code": exit_code,
        "wall_s": wall_s,
        "absent": absent,
        "layers": layers,
        "metrics": {**metrics(layers), "setup.import_s": import_s},
        "environment": _environment(),
    }
    Path(result_path).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
