"""One fresh process of a benchmark run.

    python3 perfbench/child.py WORKLOAD SEED MODE

MODE is `setup` (import tritile and build the inputs), `task` (that, then
one task) or `trace` (the same as `task`, with every layer wrapped in spans).
The last line of standard output is one JSON object; CLI reports produced by
the task are captured, hashed and counted instead of printed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXIT_NO_PROGRAM = 3


def peak_rss_mb() -> float:
    """This process's peak resident memory since it started.

    The kernel's high-water mark of the current address space; getrusage's
    maxrss would also count the parent's memory inherited at fork.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


class Recorder:
    """Checks, report digests and report sizes of one task."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.report_bytes = 0

    def check(self, check_id: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(check_id)

    def cli(self, label: str, argv: list[str]) -> dict:
        """Run `tritile ARGV`, keep its report's digest, return the report payload."""
        import tritile.cli
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = tritile.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        data = buf.getvalue().encode("utf-8")
        self.report_bytes += len(data)
        self.check("cli/%s-exit" % label, code == 0)
        self.digests[label] = hashlib.sha256(data).hexdigest()
        return json.loads(data)["report"]

    def result(self, label: str, value) -> None:
        """Keep the digest of a library result, as canonical JSON."""
        data = json.dumps(value, sort_keys=True).encode("utf-8")
        self.digests[label] = hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import tritile
    except ImportError as exc:
        print("cannot import tritile from %s: %s" % (src, exc), file=sys.stderr)
        return EXIT_NO_PROGRAM
    import_s = time.perf_counter() - t0
    if Path(tritile.__file__).resolve().parent != src / "tritile":
        print("tritile was imported from %s, not %s" % (tritile.__file__, src), file=sys.stderr)
        return EXIT_NO_PROGRAM

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads
    setup, task = workloads.WORKLOADS[workload]

    inputs = setup(seed) if tracer is None else tracer.run_phase(tracing.SETUP, setup, seed)
    out: dict = {"ready": time.monotonic(), "import_s": import_s}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    rec = Recorder()
    t0 = time.perf_counter()
    try:
        units = task(inputs, rec) if tracer is None else tracer.run_phase(tracing.TASK, task, inputs, rec)
    except Exception as exc:  # a failed operation counts against the run, not the benchmark
        rec.attempted += 1
        rec.failed += 1
        rec.errors.append("%s raised %r" % (workload, exc))
        units = 0
    out.update(
        task_s=time.perf_counter() - t0,
        units=units,
        attempted=rec.attempted,
        failed=rec.failed,
        errors=rec.errors[:20],
        digests=rec.digests,
        peak_rss_mb=peak_rss_mb(),
    )
    if tracer is not None:
        tracer.measure_peaks()
        out["layers"] = tracing.layer_metrics(
            tracer, {"tritile.import.s": import_s, "cli.report_bytes": rec.report_bytes})
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / ("trace-%s-seed%d.json.gz" % (workload, seed)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
