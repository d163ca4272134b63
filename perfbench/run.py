"""Benchmark of honeycomb434: library pipelines and CLI commands, timed end
to end, with a separate traced run for per-layer numbers.

Usage (from the repository root):

    python3 perfbench/run.py --workload presets-n4 --seed 1 --seconds 40 --trace 0

Each workload is one closed-loop client: one item at a time, no threads.
Every item (a preset pipeline or a CLI command) runs in a fresh child
interpreter, as a user's script or command does, and children run one at a
time with single-threaded BLAS.  A fresh process per item also keeps an
item's latency independent of the items before it, which process-wide
caches and a growing heap would not.  The seed only permutes the order of
the items within each pass.  Passes repeat while another one fits in
`--seconds` (at least one is run); the time left is then filled with
single items that still fit, so short items get more samples than long
ones.  Times are scaled to a reference host speed, which each child
samples while it runs (`worker.Speedometer`): on a shared host the speed
drifts by up to 2x, and unscaled times of the same code taken minutes
apart differed by 1.7x.  `--trace 1` runs an untraced and a traced pass
per round, without the fill, and reports the per-layer metrics, including
the tracing overhead, in unscaled seconds.  Every item's outputs are
checked against
`reference.json` and the formulas in `items.check`; a failed item counts in
`failed` and does not stop the pass.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the metric names and units are those of
BENCHMARK.json.  Everything else, with the environment and every sample,
goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import items
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
TIME_LIMIT_S = 170  # the whole run, children included
SETUP_PROBES = 7  # extra interpreter starts per run, for the setup_s median
# A child may run this much slower than the last one of the same kind; the
# estimate keeps a run within `--seconds` on a host whose speed drifts.
SLOWDOWN = 1.25


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed item)."""


def _spawn(spec: dict, deadline: float) -> dict:
    """Run one worker child to completion; add its set-up time."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker exceeded the {TIME_LIMIT_S} s time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with code {proc.returncode}: {err.strip()[-2000:]}")
    try:
        result = json.loads(out)
    except ValueError:
        raise HarnessError(f"worker printed no result: {out[-2000:]!r}") from None
    result["setup_raw_s"] = result["ready"] - started - result["setup_kernel_s"]
    result["setup_s"] = result["setup_raw_s"] * result["setup_speed"]
    result["child_s"] = time.monotonic() - started
    return result


class Pass:
    """One pass over a workload's items, one child per item."""

    def __init__(self, children: list[dict], traced: bool):
        self.children = children
        self.traced = traced
        self.entries = [child["entry"] for child in children]
        self.wall_s = sum(entry["latency_s"] for entry in self.entries)  # unscaled
        self.rss_mb = max(child["rss_mb"] for child in children)


def _run_item(workload: str, item: str, trace: bool, deadline: float) -> dict:
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "src": str(SRC), "trace": trace, "tmp": str(OUT_DIR / "tmp")}
    return _spawn(dict(spec, item=item), deadline)


def _run_pass(workload: str, order: list[str], trace: bool, deadline: float) -> Pass:
    return Pass([_run_item(workload, item, trace, deadline) for item in order], trace)


def end_to_end(children: list[dict], setup: list[float]) -> dict[str, float]:
    """Every time from each item's typical latency: the median of its
    samples in the run, each scaled to the reference speed.  A pass's time
    is the sum of the typical latencies, so that every sample counts, not
    only those of the few whole passes that fit in a run."""
    samples, rss = defaultdict(list), defaultdict(list)
    for child in children:
        entry = child["entry"]
        samples[entry["item"]].append(entry["latency_s"] * entry["speed"])
        rss[entry["item"]].append(child["rss_mb"])
    typical = {item: statistics.median(values) for item, values in samples.items()}
    latencies = sorted(typical.values())
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(latencies),
        "cmd_s.p50": statistics.median(latencies),
        "cmd_s.p90": latencies[math.ceil(0.9 * len(latencies)) - 1],  # nearest rank
        "peak_rss_mb": max(statistics.median(values) for values in rss.values()),
    }
    for name in items.PRESETS:
        metrics[f"preset_s.{name}"] = sum(
            value for item, value in typical.items() if items.preset_of(item) == name
        )
    return metrics


def _pass_layers(p: Pass) -> dict[str, float]:
    """Per-layer values of one traced pass, summed over its children."""
    calls, self_s, counters = defaultdict(int), defaultdict(float), defaultdict(float)
    for child in p.children:
        trace = child["trace"]
        for name, value in trace["calls"].items():
            calls[name] += value
        for name, value in trace["self_s"].items():
            self_s[name] += value
        for name, value in trace["counters"].items():
            counters[name] += value
    out = {name: counters[name] for name in tracing.COUNTERS}
    for key in [*tracing.SPANNED, *tracing.COUNTED]:
        name = tracing.metric_prefix(*key)
        out[f"{name}.calls"] = calls[name]
        if key in tracing.SPANNED:
            out[f"{name}.self_s"] = self_s[name]
    kept, tried = counters["coloring.color_group.kept"], counters["coloring.color_group.tried"]
    out["coloring.color_group.kept_ratio"] = kept / tried if tried else 0.0
    actions = calls["coloring.color_action"]
    permuting = counters["coloring.color_action.permuting"]
    out["coloring.color_action.permuting_ratio"] = permuting / actions if actions else 0.0
    out["trace.spans"] = sum(len(child["spans"]) for child in p.children)
    return out


def per_layer(passes: list[Pass]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    untraced_wall = statistics.median([p.wall_s for p in passes if not p.traced])
    traced_wall = statistics.median([p.wall_s for p in traced])
    layers = [_pass_layers(p) for p in traced]
    metrics = {name: statistics.median([values[name] for values in layers]) for name in layers[0]}
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return metrics


def environment(numpy_version: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit or "unknown (not a git checkout)",
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """Run the workload; return every metric, the failures and the samples."""
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = {"workload": workload, "src": str(SRC)}
    _spawn(spec, deadline)  # not timed: lets the interpreter write its bytecode caches
    probes = [_spawn(spec, deadline) for _ in range(SETUP_PROBES)]

    rng = random.Random(seed)
    names = list(items.WORKLOADS[workload].items)
    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        order = rng.sample(names, len(names))
        passes.append(_run_pass(workload, order, False, deadline))
        if trace:
            passes.append(_run_pass(workload, order, True, deadline))
        now = time.monotonic()
        last = now - round_start
        if now - start + SLOWDOWN * last > seconds or now + SLOWDOWN * last > deadline:
            break
    # Fill the time left with single items that still fit, so that the
    # short items get more samples than the one-per-pass of the long ones.
    extra: list[dict] = []
    cost = {c["entry"]["item"]: c["child_s"] for p in passes for c in p.children}
    end = min(start + seconds, deadline)
    ran = not trace
    while ran:
        ran = False
        for item in rng.sample(names, len(names)):
            if time.monotonic() + SLOWDOWN * cost[item] <= end:
                extra.append(_run_item(workload, item, False, deadline))
                cost[item] = extra[-1]["child_s"]
                ran = True

    failures, failed = [], 0
    entries = [entry for p in passes for entry in p.entries] + [c["entry"] for c in extra]
    for entry in entries:
        if "error" in entry:
            problems = [f"{workload}/{entry['item']}: raised\n{entry['error']}"]
        else:
            problems = items.check(workload, entry["item"], entry["outputs"], reference)
        failed += bool(problems)
        failures += problems
    attempted = len(entries)
    children = probes + [c for p in passes for c in p.children] + extra
    untraced = [c for p in passes if not p.traced for c in p.children] + extra
    metrics = end_to_end(untraced, [c["setup_s"] for c in children])
    spans = []
    if trace:
        metrics.update(per_layer(passes))
        run_id = f"{workload}-seed{seed}-{time.time_ns()}"
        spans = [
            {"run_id": f"{run_id}/pass{i}/child{k}", "spans": child["spans"]}
            for i, p in enumerate(passes)
            if p.traced
            for k, child in enumerate(p.children)
        ]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(probes[0]["numpy"]),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "metrics": metrics,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "rss_mb": p.rss_mb,
             "latency_s_speed": {e["item"]: [e["latency_s"], e["speed"]] for e in p.entries}}
            for p in passes
        ],
        "extra_latency_s_speed": [
            [c["entry"]["item"], c["entry"]["latency_s"], c["entry"]["speed"]] for c in extra
        ],
        "setup_s": [c["setup_s"] for c in children],
        "setup_raw_s": [c["setup_raw_s"] for c in children],
        "spans": spans,
    }


def main(argv=None) -> int:
    # turn a termination request into SystemExit, so that _spawn stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(items.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        reference = json.loads((HERE / "reference.json").read_text())
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    except (HarnessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if spans:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    for problem in result["failures"][:20]:
        print(problem, file=sys.stderr)
    env = result["environment"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(result['passes'])} pass(es), {len(result['setup_s'])} set-ups")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"error_rate: {result['error_rate']} ({result['failed']} failed "
          f"of {result['attempted']} attempted)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(metrics):
        print(f"  {name:48s} {metrics[name]:.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
