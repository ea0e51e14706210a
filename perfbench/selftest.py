"""Self-tests of the benchmark, on seed 0 of every workload (or those named).

Usage (from the repository root):

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload it makes one untraced and one traced run and checks:

* every output check passes and the traced stdout is byte-identical to
  the untraced stdout;
* call counts match their formulas: ``evaluate_grid`` is called
  planes x axes x slices x points times (124 / 31 / 40), and the
  outermost ``resample_conserving`` 2 JPDs x 2 axes x slices times
  (124 on camera, 0 elsewhere);
* the self times of the named layers plus the import time cover the
  traced wall time (spawn to exit) to within ``COVERAGE_TOLERANCE``.
  ``cli.main`` is left out: its self time is the time no named layer
  accounts for, and it counts against the coverage;
* the metric names, units and workloads match ``BENCHMARK.json``.

Exits 1 if any check fails.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, UNITS, WORK, Run, remove_if_empty
from workloads import WORKLOADS

COVERAGE_TOLERANCE = 0.05


def check_workload(name: str, run: Run) -> list[str]:
    w = WORKLOADS[name]
    _, _, stdout = run.untraced(0)
    traced_wall, result = run.traced(0, stdout)
    problems = list(run.failures)
    if result is None:
        return problems
    metrics = result["metrics"]
    for metric, expected in (
        ("biphoton.evaluate_grid.calls", w.amplitude_calls),
        ("camera.resample_conserving.calls", w.resample_calls),
    ):
        if metrics[metric] != expected:
            problems.append(f"{metric} {metrics[metric]} != {expected}")
    named = sum(v["self_s"] for layer, v in result["layers"].items() if layer != "cli.main")
    covered = (named + metrics["setup.import_s"]) / traced_wall
    print(f"{name}: named layers' self + import time cover {covered:.2%} of the traced wall "
          f"{traced_wall:.3f} s; cli.main self {metrics['cli.main.self_s']:.3f} s")
    if not 1.0 - COVERAGE_TOLERANCE <= covered <= 1.0:
        problems.append(f"self times cover {covered:.2%} of the traced wall")
    return problems


def names_match_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    if listed != UNITS:
        problems.append(f"metrics differ from BENCHMARK.json: {set(listed.items()) ^ set(UNITS.items())}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    return problems


def main(names: list[str]) -> int:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
    failures = []
    try:
        failures += names_match_benchmark_json()
        for name in names or sorted(WORKLOADS):
            sub = work / name
            sub.mkdir()
            failures += [f"{name}: {p}" for p in check_workload(name, Run(name, 0, sub))]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        remove_if_empty(WORK)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
