"""One benchmark child: import the package, run one item, report as JSON.

Usage: python3 worker.py '<json spec>'

The spec names the workload, the package source directory, the item to
run (none for a set-up probe), whether to trace, and a scratch directory
for CLI output.  The child prints one JSON object on stdout: the
monotonic time at which the package was ready, its peak RSS, the item's
latency and outputs (or the error it raised), and, when traced, its spans
and per-function totals.

The speed of a shared host drifts by up to 2x within seconds, in CPU time
as much as in wall time.  So an untraced child samples it: from its start
until the item ends, every INTERVAL_S a signal handler times a fixed
pure-Python kernel (`Speedometer`).  The child reports, for the set-up and
for the item, the time spent outside the kernel and the speed
REF_KERNEL_S / (mean kernel time) over the samples taken in it; the runner
scales each time by that speed, to seconds at the reference speed.  The
mean of the kernel times, not of their inverses, so that the stalls the
host inflicts weigh on the speed as much as on the item.

Exits 2 without output when the package cannot be imported from the
given source directory.
"""

import contextlib
import functools
import gc
import io
import itertools
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

import items
import tracing

INTERVAL_S = 0.02
REF_KERNEL_S = 0.0006  # the kernel's time at the reference speed; sets only the scale
# the 48 signed permutation matrices, the point group of the cube
_CUBE = [
    tuple(tuple(signs[r] if c == perm[r] else 0 for c in range(3)) for r in range(3))
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
]


def _kernel() -> int:
    """Products of 3x3 integer matrices as nested tuples, kept in a dict: the
    package's kind of work, without the package.  Kernels with no function
    calls or generators tracked the package's slowdowns less well."""
    seen = {}
    for a in _CUBE[:6]:
        for b in _CUBE[::6]:
            ab = tuple(tuple(sum(a[r][k] * b[k][c] for k in range(3)) for c in range(3)) for r in range(3))
            seen.setdefault(ab, len(seen))
    return len(seen)


class Speedometer:
    """Samples the host's speed with `_kernel`, on a timer and at each mark."""

    def __init__(self):
        self.spent = 0.0  # seconds spent in the kernel so far
        self.samples: list[float] | None = []  # the kernel's time per sample; None once stopped

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def sample(self, *_signal_args) -> None:
        if self.samples is None:  # an alarm that was pending at stop()
            return
        # A collection the kernel's allocations set off would scan the
        # item's heap on the kernel's clock; left for later, the item pays it.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _kernel()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.spent += took
        self.samples.append(took)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples = None

    def mark(self) -> tuple[float, float, int]:
        """Sample (unless stopped); return the clock, kernel time and count."""
        if self.samples is None:
            return time.perf_counter(), 0.0, 0
        self.sample()
        return time.perf_counter(), self.spent, len(self.samples)

    def between(self, first: tuple, last: tuple) -> dict:
        """The time between two marks outside the kernel, and the speed over
        the samples from the first mark to the last (None if stopped)."""
        raw = last[0] - first[0] - (last[1] - first[1])
        return {"latency_s": raw, "speed": self.speed(first[2] - 1, last[2])}

    def speed(self, first: int = 0, last: int | None = None) -> float | None:
        samples = self.samples[first:last] if self.samples else None
        return REF_KERNEL_S * len(samples) / sum(samples) if samples else None



def _import_package(src: Path, kind: str):
    sys.path.insert(0, str(src))
    try:
        import honeycomb434

        if kind == "cli":
            import honeycomb434.cli  # noqa: F401
    except ImportError as exc:
        print(f"worker: cannot import honeycomb434 from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not Path(honeycomb434.__file__).resolve().is_relative_to(src.resolve()):
        print(f"worker: honeycomb434 came from {honeycomb434.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return honeycomb434


def _run_cli(hc, item: str, tmp_root: str, entry: dict, meter: Speedometer) -> dict:
    """Run one command in a fresh output directory; its latency is the time
    spent in `cli.main` alone."""
    out_dir = tempfile.mkdtemp(dir=tmp_root)
    try:
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = items.cli_argv(item, out_dir)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            first = meter.mark()
            code = hc.cli.main(argv)
            entry.update(meter.between(first, meter.mark()))
        files = {
            str(p.relative_to(out_dir)): p.read_text()
            for p in Path(out_dir).rglob("*")
            if p.is_file()
        }
        outputs = items.cli_outputs(code, stdout.getvalue(), out_dir, files)
        if code != 0:
            outputs["stderr"] = stderr.getvalue()
        return outputs
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _run_item(
    hc, workload: items.Workload, item: str, tmp_root: str, entry: dict, meter: Speedometer
) -> dict:
    if workload.kind == "cli":
        return _run_cli(hc, item, tmp_root, entry, meter)
    first = meter.mark()
    outputs = items.run_library_item(hc, item, workload.modulus, workload.theorem)
    entry.update(meter.between(first, meter.mark()))
    return outputs


def main() -> None:
    meter = Speedometer()
    meter.start()
    spec = json.loads(sys.argv[1])
    workload = items.WORKLOADS[spec["workload"]]
    hc = _import_package(Path(spec["src"]), workload.kind)
    meter.mark()
    ready = time.monotonic()
    setup = {"ready": ready, "setup_kernel_s": meter.spent, "setup_speed": meter.speed()}
    import numpy

    result = dict(setup, numpy=numpy.__version__)
    item = spec.get("item")
    if item is not None:
        recorder = tracing.Recorder() if spec["trace"] else None
        if recorder is not None:
            meter.stop()  # keep the kernel out of the spans
            tracing.install("honeycomb434", recorder)
        entry = result["entry"] = {"item": item}
        run = functools.partial(_run_item, hc, workload, item, spec["tmp"], entry, meter)
        first = meter.mark()
        try:
            entry["outputs"] = run() if recorder is None else recorder.item(item, run)
        except Exception:
            entry["error"] = traceback.format_exc()
            if "latency_s" not in entry:
                entry.update(meter.between(first, meter.mark()))
        if recorder is not None:
            result["trace"] = recorder.summary()
            result["spans"] = recorder.spans
    meter.stop()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
