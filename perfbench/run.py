"""Benchmark for axkatz: three seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: closed-forms, calculus-verify, cli-oneshot (see workloads.py).
Each is a closed loop: one client, one operation in flight, no threads.
The benchmark imports the package from ``src/`` of the checkout and stops
with exit code 2, printing no result, if it is missing.

Every time below is scaled to one reference machine speed (see Yardstick):
a fixed pure-Python kernel is timed every quarter second, and each measured
time is multiplied by REFERENCE_MS over the kernel's time around it.  The
unscaled figures are printed on the line before the result.  The benchmark
and the CLI processes it starts run on one CPU, the one the kernel times.

--trace 0 prints the end-to-end metrics:
  ops_per_s     median over passes of ops / summed op latency (closed loop, fixed mix)
  op_p50_ms     median operation latency
  op_p90_ms     90th percentile latency (at least 100 ops, so >= 10 beyond it)
  setup_s       median of seven set-ups: a fresh interpreter importing the
                package, generating the first pass's inputs, and a warm-up call
  peak_rss_mb   ru_maxrss (largest of this process and its children) after
                set-up and the first pass, so it does not grow with run length
  ok_frac       ops whose output was checked correct / ops attempted; the
                failure share is 1 - ok_frac, also given as failed / attempted
--trace 1 runs passes untraced for half the time, then the same passes with
every public package function wrapped, and prints the per-layer metrics of
the traced first pass (layers.py), the import layer from ``-X importtime``,
and the tracing overhead as traced minus untraced ops_per_s.  The traced and
untraced first passes must produce the same output digest.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it describe the machine, the inputs
and the outputs' digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 100
HARD_STOP_S = 150  # end the loop here even short of MIN_OPS, to exit within 180 s
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
REFERENCE_MS = 1.3  # the yardstick's time at the speed timings are scaled to
YARDSTICK_EVERY_S = 0.25


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_subprocess(args: list[str], env: dict) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return time.perf_counter() - start, proc.stderr


def import_layer(env: dict) -> dict[str, float]:
    """Medians, in ms, of a bare interpreter and of importing axkatz and its CLI."""
    bare, package, cli = [], [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(timed_subprocess(["-c", "pass"], env)[0] * 1e3)
        _, report = timed_subprocess(["-X", "importtime", "-c", "import axkatz.cli"], env)
        cumulative = {}
        for line in report.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e3
        package.append(cumulative["axkatz"])
        cli.append(cumulative["axkatz.cli"])
    return {
        "import.python_ms": statistics.median(bare),
        "import.axkatz_ms": statistics.median(package),
        "import.cli_ms": statistics.median(cli),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def yardstick_kernel() -> int:
    """Fixed interpreter work with no axkatz in it: tuple keys, dict updates, int arithmetic."""
    counts: dict = {}
    acc = 0
    for i in range(3000):
        key = (i % 97, i & 31)
        counts[key] = counts.get(key, 0) + 1
        acc = (acc * 31 + i) % 1000003
    return acc + len(counts)


class Yardstick:
    """The machine's current speed, from timing a fixed kernel every quarter second.

    On a 2-vCPU shared cloud VM (Intel Xeon, Python 3.11) the same Python
    code runs up to 1.6 times slower from one few-second stretch to the
    next, and every kind of work slows alike: an exhaustive verify_bound
    call kept within 5 % of a constant multiple of this kernel's time while
    both moved by 60 %.  So each measured time is scaled by REFERENCE_MS
    over the kernel's time around it: the timings report the program's
    speed at one fixed machine speed, and a change to the program still
    moves them in full, since the kernel runs none of its code.
    """

    def __init__(self):
        self.samples_ms: list[float] = []
        self.taken_at = -math.inf
        self.pending: list[float] = []  # unscaled seconds timed since the last sample
        self.scaled: list[float] = []

    def sample(self) -> None:
        # With the collector off, the kernel's time cannot depend on how
        # many objects the program keeps alive.
        enabled = gc.isenabled()
        gc.disable()
        times = []
        for _ in range(5):
            start = time.perf_counter()
            yardstick_kernel()
            times.append(time.perf_counter() - start)
        if enabled:
            gc.enable()
        self.record(statistics.median(times) * 1e3)

    def record(self, ms: float) -> None:
        self.samples_ms.append(ms)
        self.taken_at = time.perf_counter()
        if self.pending and len(self.samples_ms) > 1:
            # Times between two samples are scaled by the mean of the two.
            factor = REFERENCE_MS / statistics.fmean(self.samples_ms[-2:])
            self.scaled += [t * factor for t in self.pending]
            self.pending.clear()

    def before(self) -> None:
        """Take a sample when the last one is a quarter second old."""
        if time.perf_counter() - self.taken_at >= YARDSTICK_EVERY_S:
            self.sample()

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)

    def flush(self) -> list[float]:
        """Scaled times of everything added since the last flush, in order."""
        self.sample()
        out, self.scaled = self.scaled, []
        return out


class Loop:
    """Latencies, failures and the first pass's digest of a run of passes.

    ``latencies`` and ``pass_rates`` are scaled to the yardstick's reference
    speed; ``raw_latencies`` and ``raw_pass_rates`` are as the clock read them.
    """

    def __init__(self, yardstick: Yardstick):
        self.yardstick = yardstick
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.pass_rates: list[float] = []
        self.raw_pass_rates: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None

    def run_pass(self, wl, ops, tracer=None) -> None:
        digest = hashlib.sha256() if self.digest is None else None
        raw = []
        # The pass's inputs are frozen out of the cyclic collector, and no
        # output outlives its check, so a timed op pays only for collecting
        # what it allocates itself, not for the size of the benchmark's heap.
        gc.collect()
        gc.freeze()
        for op in ops:
            self.yardstick.before()
            if tracer is not None:
                tracer.recording = True
            start = time.perf_counter()
            try:
                out = wl.run(op)
                error = None
            except Exception as exc:  # a failed op is counted, the run goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.recording = False
            raw.append(elapsed)
            self.yardstick.add(elapsed)
            try:
                problem = error or wl.check(op, out)
            except Exception as exc:  # an output the check cannot handle is wrong
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                self.failed += 1
                self.problems.append(f"{op.kind}: {problem}")
            if digest is not None:
                record = error or wl.record(op, out)
                digest.update(json.dumps(record, sort_keys=True, default=str).encode() + b"\n")
            out = record = None
        gc.unfreeze()
        scaled = self.yardstick.flush()
        self.latencies += scaled
        self.raw_latencies += raw
        self.pass_rates.append(len(ops) / sum(scaled))
        self.raw_pass_rates.append(len(ops) / sum(raw))
        if digest is not None:
            self.digest = digest.hexdigest()[:16]

    @property
    def ops_per_s(self) -> float:
        """Median over passes of ops / summed latency: one slow pass does not move it."""
        return statistics.median(self.pass_rates)


def describe_machine() -> list[str]:
    load = ", ".join(f"{x:.2f}" for x in os.getloadavg())
    return [
        f"python {platform.python_version()} ({sys.executable})",
        f"nproc {os.cpu_count()}, load average at start {load}",
    ]


def load_package():
    """Import axkatz from src/ of this checkout; None when it is not there."""
    if not (SRC / "axkatz" / "__init__.py").is_file():
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import axkatz

    if Path(axkatz.__file__).resolve().parent != SRC / "axkatz":
        return None
    return axkatz


def measure(name: str, seed: int, seconds: float, trace: bool, min_ops: int = MIN_OPS):
    """Run one workload; returns (result object, lines describing the run)."""
    import workloads
    from layers import Tracer, layer_metrics

    env = child_env()
    lines = describe_machine()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[name](workdir, env)
        yardstick = Yardstick()
        raw_setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            yardstick.sample()
            start = time.perf_counter()
            timed_subprocess(["-c", wl.import_probe], env)
            first = wl.make_pass(seed, 0)
            wl.warm_up()
            raw_setups.append(time.perf_counter() - start)
            yardstick.add(raw_setups[-1])
        setups = yardstick.flush()
        lines.append(f"inputs (pass 0): {json.dumps(wl.properties(first))}")

        loop = Loop(yardstick)
        budget = seconds / 2 if trace else seconds
        start = time.perf_counter()
        passes = 0
        rss = None
        while True:
            ops = first if passes == 0 else wl.make_pass(seed, passes)
            loop.run_pass(wl, ops)
            passes += 1
            if rss is None:
                rss = peak_rss_mb()
            elapsed = time.perf_counter() - start
            enough = trace or len(loop.latencies) >= min_ops
            if (enough and elapsed >= budget) or elapsed >= HARD_STOP_S:
                break
        attempted, failed = len(loop.latencies), loop.failed
        lines.append(f"digest {name} seed {seed}: {loop.digest}")
        lines.append(f"{attempted} ops in {passes} passes")
        lats = sorted(loop.latencies)
        raw = sorted(loop.raw_latencies)
        ms = yardstick.samples_ms
        lines.append(
            f"yardstick {statistics.median(ms):.4f} ms median of {len(ms)} samples"
            f" ({min(ms):.4f}-{max(ms):.4f}), reference {REFERENCE_MS} ms; unscaled:"
            f" ops_per_s {statistics.median(loop.raw_pass_rates):.4f},"
            f" op_p50_ms {statistics.median(raw) * 1e3:.4f},"
            f" op_p90_ms {percentile(raw, 0.9) * 1e3:.4f},"
            f" setup_s {statistics.median(raw_setups):.4f}"
        )

        if not trace:
            metrics = {
                "ops_per_s": (loop.ops_per_s, "1/s"),
                "op_p50_ms": (statistics.median(lats) * 1e3, "ms"),
                "op_p90_ms": (percentile(lats, 0.9) * 1e3, "ms"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (rss, "MB"),
                "ok_frac": ((attempted - failed) / attempted, "frac"),
            }
            beyond = attempted - math.ceil(attempted * 0.9)
            lines.append(f"latency samples {attempted}, {beyond} beyond p90")
            correct = failed == 0
        else:
            tracer = Tracer()
            traced = Loop(yardstick)
            wl.tracer = tracer
            tracer.install()
            try:
                for index in range(passes):
                    traced.run_pass(wl, first if index == 0 else wl.make_pass(seed, index), tracer)
                    if index == 0:
                        snap = tracer.snapshot()
            finally:
                tracer.uninstall()
                wl.tracer = None
            overhead = traced.ops_per_s - loop.ops_per_s
            lines.append(
                f"traced digest: {traced.digest}; {snap['spans']} spans in pass 0;"
                f" ops_per_s untraced {loop.ops_per_s:.4f}, traced {traced.ops_per_s:.4f}"
            )
            metrics = dict(layer_metrics(snap))
            for key, value in import_layer(env).items():
                metrics[key] = (value, "ms")
            metrics["trace.overhead_ops_per_s"] = (overhead, "1/s")
            attempted += len(traced.latencies)
            failed += traced.failed
            loop.problems += traced.problems
            correct = failed == 0 and traced.digest == loop.digest
        for problem in loop.problems[:20]:
            lines.append(f"FAILED {problem}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so the work directory is removed and a
    # running child process is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Run on one CPU, as do the CLI processes started from here, so the
    # yardstick always times the CPU that the operations run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if load_package() is None:
        print(f"error: no axkatz package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
