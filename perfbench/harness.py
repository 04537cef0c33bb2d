"""Closed-loop measurement of one workload: one client, one op in flight.

``end_to_end`` times whole ops with tracing off and takes the peak
bytes of one op in a separate untimed pass. ``traced`` alternates
untraced ops with traced ones over the same inputs, then runs one op
under tracemalloc for per-call peaks. tracemalloc counts the Python
and NumPy allocations of this process, not its resident set size, and
it slows Python-heavy calls, so no timed op runs under it.
"""

import gc
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import PUBLIC

SETUPS = 3  # set-ups per run; setup_s is their median
# (name, unit) of every end-to-end metric, in report order. Op latency
# percentiles are printed beside them but not gated: see README.md.
END_TO_END = (
    ("items_per_s", "1/s"),
    ("peak_bytes", "bytes"),
    ("setup_s", "s"),
)


class Tally:
    """Ops attempted and failed; an op fails when it raises or its output is wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, wl, api, i, tracer=None):
        """Run and check op i; return its seconds, or None when it failed."""
        self.attempted += 1
        gc.collect()
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = wl.op(api, i)
            else:
                with tracer.span("op"):
                    out = wl.op(api, i)
            elapsed = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        if not wl.check(i, out):
            self.failed += 1
            print(f"op {i}: output check failed", file=sys.stderr)
            return None
        return elapsed


def set_up(wl, api, seed, workdir, tracer=None):
    """Set the workload up SETUPS times, each with one warm-up op; return the times.

    The benchmark's own references are built afterwards, untimed.
    """
    times = []
    for _ in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        wl.setup(api, seed, workdir)
        if tracer is not None:
            tracer.phase = "warmup"
        wl.op(api, 0)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.phase = "setup"
    wl.build_references()
    return times


def _peak_pass(tally, wl, api, tracer=None):
    """Run op 0 under tracemalloc; return its high-water mark in bytes."""
    tracemalloc.start()
    try:
        tally.run(wl, api, 0, tracer)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def end_to_end(wl, seed, seconds, workdir, tally):
    """Return the end-to-end metrics, the successful op times and the largest array."""
    setup_s = set_up(wl, PUBLIC, seed, workdir)
    op_s = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        elapsed = tally.run(wl, PUBLIC, i)
        if elapsed is not None:
            op_s.append(elapsed)
        i += 1
    # Traced only to see the arrays crossing each call; no span is timed,
    # and read_encoding keeps its own validation so the peak is the real one.
    recorder = Tracer(PUBLIC, split_read=False)
    recorder.phase = "memory"
    peak = _peak_pass(tally, wl, recorder.api)
    metrics = {
        "items_per_s": wl.items_per_op * len(op_s) / sum(op_s) if op_s else 0.0,
        "peak_bytes": peak,
        "setup_s": statistics.median(setup_s),
    }
    return metrics, op_s, recorder.largest_array


def traced(wl, seed, seconds, workdir, tally):
    """Return the per-layer metrics and the largest array."""
    tracer = Tracer(PUBLIC)
    set_up(wl, tracer.api, seed, workdir, tracer)
    tracer.phase = "op"
    untraced = []
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        j = i // 2  # a traced and an untraced op share each input
        if i % 2:
            tally.run(wl, tracer.api, j, tracer)
        elif (elapsed := tally.run(wl, PUBLIC, j)) is not None:
            untraced.append(elapsed)
        i += 1
    tracer.phase = "memory"
    tracer.measure_memory = True
    _peak_pass(tally, wl, tracer.api, tracer)
    return tracer.per_layer(untraced), tracer.largest_array


def tail_percentile(op_s):
    """The highest whole percentile above the median with ten samples beyond it."""
    if len(op_s) <= 20:
        return None
    q = int(100 * (1 - 10 / len(op_s)))
    return q, float(np.percentile(op_s, q)) * 1e3


def _cache_size(level):
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == str(level) and (
                index / "type"
            ).read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(largest_array_bytes):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "largest_array_bytes": largest_array_bytes,
    }
