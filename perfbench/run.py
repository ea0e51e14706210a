"""spdcsim benchmark: end-to-end timings of the real CLI, and per-layer traces.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop: one client, one command at a time.  The
benchmark writes the workload's config (generated from ``--seed``, see
``workloads.py``) and then:

* runs one untimed ``spdcsim pm-angle`` on the config, to warm the
  file cache;
* then, in rounds until ``--seconds`` have passed (at least one round),
  times ``SETUP_PER_ROUND`` ``pm-angle`` runs and then runs the
  workload's command as an untraced subprocess, checking every output.

With ``--trace 0`` it reports the medians of ``wall_s`` (spawn to exit)
and ``peak_rss_mib`` (the child's ``ru_maxrss``) over the workload's
runs, and ``setup_s``, the median wall time of the ``pm-angle`` runs:
interpreter start, imports, YAML parsing and the phase-matching solve.
Timing them in every round spreads them over the same minutes as the
workload's runs, so a slow spell of the machine weighs on both alike.
With ``--trace 1`` the rounds time no ``pm-angle``; each untraced run is
followed by a traced in-process run of the same command (``tracer.py``).
Its stdout must be byte-identical to the untraced stdout, and the
per-layer metrics are the medians over those traced runs.

Commands that exit non-zero, fail an output check, or (traced) differ
from the untraced stdout count as failed; ``fail_ratio`` is failed over
attempted.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything the benchmark
writes stays under ``perfbench/.work`` and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "spdcsim" / "cli.py").is_file():
    sys.exit(f"no spdcsim sources under {ROOT / 'src'}; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from workloads import WORKLOADS, Params  # noqa: E402

WORK = BENCH / ".work"
SETUP_PER_ROUND = 5
CLI = "import sys; from spdcsim.cli import main; sys.exit(main())"
MIB = 2.0**20

UNITS = {**tracer.UNITS, "trace.overhead_s": "s",
         "wall_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def spawn(argv: list[str], stdout_path: Path) -> tuple[float, float, int]:
    """Run ``argv`` from the repository root with ``src`` importable.

    Returns (wall seconds from spawn to exit, peak RSS in MiB, exit code).
    Stdout goes to ``stdout_path``, stderr to a sibling ``.err`` file.
    """
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / MIB, proc.returncode


def spdcsim(args: list[str], stdout_path: Path) -> tuple[float, float, int]:
    return spawn([sys.executable, "-c", CLI, *args], stdout_path)


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


class Run:
    """One benchmark run: its scratch directory, samples and failures."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.w = WORKLOADS[workload]
        self.params = Params.from_seed(seed)
        self.work = work
        self.config = work / "config.yaml"
        self.config.write_text(self.w.make_yaml(self.params), encoding="utf-8")
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))
            print(f"FAILED {what}: {problems}", file=sys.stderr)

    def pm_angle(self, i: int) -> float:
        out = self.work / f"pm-angle-{i}.out"
        wall, _, code = spdcsim(["pm-angle", "--config", rel(self.config)], out)
        problems = [] if code == 0 else [f"exit code {code}"]
        if not problems:
            try:
                json.loads(out.read_bytes())["theta_p_deg"]
            except (ValueError, KeyError) as exc:
                problems.append(f"bad pm-angle output: {exc!r}")
        self.record(f"pm-angle #{i}", problems)
        return wall

    def check(self, code: int, stdout: bytes, out_dir: Path) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            return self.w.check(stdout, self.params, out_dir)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def untraced(self, i: int) -> tuple[float, float, bytes]:
        out_dir = self.work / f"out-{i}"
        stdout_path = self.work / f"cli-{i}.out"
        wall, rss, code = spdcsim(self.w.cli_args(rel(self.config), rel(out_dir)), stdout_path)
        stdout = stdout_path.read_bytes()
        self.record(f"{self.w.name} #{i}", self.check(code, stdout, out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        print(f"{self.w.name} #{i}: {wall:.3f} s, {rss:.1f} MiB", file=sys.stderr)
        return wall, rss, stdout

    def traced(self, i: int, untraced_stdout: bytes) -> tuple[float, dict | None]:
        out_dir = self.work / f"out-{i}-traced"
        stdout_path = self.work / f"traced-{i}.out"
        result_path = self.work / f"traced-{i}.json"
        args = self.w.cli_args(rel(self.config), rel(out_dir))
        argv = [sys.executable, rel(BENCH / "tracer.py"), rel(result_path), rel(stdout_path), "--"]
        wall, _, code = spawn(argv + args, self.work / f"tracer-{i}.log")
        result = json.loads(result_path.read_text()) if code == 0 else None
        problems = []
        if result is None:
            problems.append(f"tracer exit code {code}")
        else:
            stdout = stdout_path.read_bytes()
            problems += self.check(result["exit_code"], stdout, out_dir)
            if stdout != untraced_stdout:
                problems.append("traced stdout differs from untraced stdout")
            print(f"traced environment: {result['environment']}", file=sys.stderr)
            if result["absent"]:
                print(f"absent layers (reported as zero): {result['absent']}", file=sys.stderr)
        self.record(f"{self.w.name} traced #{i}", problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall, result


def measure(run: Run, seconds: float, trace: bool) -> dict[str, float]:
    if not trace:
        run.pm_angle(0)  # warms the file cache; not timed
    setup, walls, rss, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        if not trace:
            for _ in range(SETUP_PER_ROUND):
                setup.append(run.pm_angle(len(setup) + 1))
        wall, peak, stdout = run.untraced(i)
        walls.append(wall)
        rss.append(peak)
        if trace:
            traced_wall, result = run.traced(i, stdout)
            if result is not None:
                layers.append({**result["metrics"], "trace.overhead_s": traced_wall - wall})
        i += 1
        if time.perf_counter() >= deadline:
            break
    if trace:
        if not layers:
            return {}
        return {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mib": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }


def remove_if_empty(directory: Path) -> None:
    try:
        directory.rmdir()
    except OSError:
        pass  # another run is still using it


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(args.workload, args.seed, work)
        metrics = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        remove_if_empty(WORK)
    failed = len(run.failures)
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6f} {UNITS[name]}")
    print(f"{'fail_ratio':45s} {failed / run.attempted:14.6f} ({failed}/{run.attempted} runs)")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
