"""Benchmark entry point for tritile.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from `src/`.
Every task runs in a fresh child process, one at a time, so import cost, the
library's lazy caches and peak memory belong to that task. Tasks repeat until
another one would overrun `--seconds`.

With `--trace 0` the last stdout line reports the end-to-end metrics, each a
median over the run's child processes, with times paced (see Session). With
`--trace 1` it runs untraced tasks for half the time, then one traced child
(setup and one task) whose spans give the per-layer metrics. Diagnostics go
to stderr. Exits 2 without a result when the checkout holds no tritile
source, and 1 when a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("walk", "count", "invariants", "heights")
END_TO_END = (("setup_s", "s"), ("task_s", "s"), ("peak_rss_mb", "MB"))
MIN_SETUPS = 5
PROBE_STEPS = 150_000
CHILD_TIMEOUT_S = 150
# One process, one thread: no BLAS pool behind numpy, no verification pool.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "TRITILE_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one child; setup_s spans child start to its inputs being ready."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), mode],
            cwd=ROOT, env=dict(os.environ, **CHILD_ENV), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("%s child timed out after %ds" % (mode, CHILD_TIMEOUT_S)) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("%s child exited with code %d" % (mode, proc.returncode))
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - start
    out["wall_s"] = time.monotonic() - start
    return out


class Session:
    """The children of one run, with the machine's pace measured around each.

    The machine is shared, and its speed drifts by tens of percent, within
    seconds and over minutes. Before the first child and after each one,
    the parent times a fixed integer loop. A child's pace is the mean of the
    probes on either side of it over the pinned reference probe time, and
    its times are divided by that pace: they read as seconds on the machine
    running at its pinned reference pace.
    """

    def __init__(self, workload: str, seed: int, reference_s: float):
        self.workload, self.seed, self.reference_s = workload, seed, reference_s
        self._last = self.probe()

    @staticmethod
    def probe() -> float:
        """Median time of three passes of the integer loop."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            x = 0
            for i in range(PROBE_STEPS):
                x = (x * 1103515245 + i) & 0xFFFFFFFF
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def spawn(self, mode: str) -> dict:
        out = spawn(self.workload, self.seed, mode)
        now = self.probe()
        out["pace"] = (self._last + now) / 2 / self.reference_s
        self._last = now
        return out

    def tasks(self, seconds: float) -> list[dict]:
        """Task children until the next one, at the median child wall time, would overrun."""
        t0 = time.monotonic()
        runs: list[dict] = []
        while True:
            runs.append(self.spawn("task"))
            typical = statistics.median(r["wall_s"] for r in runs)
            if time.monotonic() - t0 + typical > seconds:
                return runs


def paced(runs: list[dict], key: str) -> float:
    """Median over the children of a time divided by the child's pace."""
    return statistics.median(r[key] / r["pace"] for r in runs)


def check_digests(pinned: dict, workload: str, seed: int,
                  runs: list[dict]) -> tuple[int, int, dict]:
    """Every child must produce the same report bytes; the default seed's must
    also match the pinned digests. Returns (attempted, failed, digests)."""
    expected = pinned["digests"][workload] if seed == pinned["default_seed"] else {}
    digests = runs[0]["digests"]
    attempted = failed = 0
    for r in runs[1:]:
        attempted += 1
        if r["digests"] != digests:
            failed += 1
            print("report digests differ between runs of one seed: %r vs %r"
                  % (digests, r["digests"]), file=sys.stderr)
    for label, want in expected.items():
        attempted += 1
        if digests.get(label) != want:
            failed += 1
            print("report %s digest %s, pinned %s" % (label, digests.get(label), want),
                  file=sys.stderr)
    return attempted, failed, digests


def measure(args) -> dict:
    pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    session = Session(args.workload, args.seed, pinned["probe_reference_s"])
    if args.trace:
        runs = session.tasks(args.seconds / 2)
        traced = session.spawn("trace")
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = paced([traced], "task_s") / paced(runs, "task_s")
        units = LAYER_METRICS
        runs.append(traced)
    else:
        runs = session.tasks(args.seconds)
        setups = runs + [session.spawn("setup") for _ in range(MIN_SETUPS - len(runs))]
        values = {
            "setup_s": paced(setups, "setup_s"),
            "task_s": paced(runs, "task_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = END_TO_END
        print("unpaced medians: setup_s %.4f, task_s %.4f; pace %.3f"
              % (statistics.median(r["setup_s"] for r in setups),
                 statistics.median(r["task_s"] for r in runs),
                 statistics.median(r["pace"] for r in setups)), file=sys.stderr)

    attempted, failed, digests = check_digests(pinned, args.workload, args.seed, runs)
    for r in runs:
        attempted += r["attempted"]
        failed += r["failed"]
        for err in r["errors"]:
            print("failed: %s" % err, file=sys.stderr)
    print("tasks %d, units per task %s, digests %s"
          % (len(runs), sorted({r["units"] for r in runs}), json.dumps(digests, sort_keys=True)),
          file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tritile" / "__init__.py").is_file():
        print("no tritile source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except ChildFailed as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
