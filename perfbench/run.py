"""Run one semtree benchmark workload and print its metrics.

From the root of a semtree checkout:

    python3 perfbench/run.py --workload train-c08 --seed 1 --seconds 20 --trace 0

The library is imported from the checkout's ``src/`` and the oracles
from ``tests/oracles.py``; nothing needs installing. Human-readable
lines come first; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones. The exit code is 0 only when every op's output
passed its check.
"""

import argparse
import ctypes
import ctypes.util
import json
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4  # mallopt parameters of glibc's malloc.h


def retain_freed_memory():
    """Make glibc keep freed memory for reuse instead of returning it to the kernel.

    By default glibc maps every block above its mmap threshold (at most 32 MB)
    on allocation and unmaps it on free, so each c08 op faults in hundreds of
    MB of fresh, zeroed pages. On a shared 2-vCPU Xeon VM that kernel work
    added 200-370 ms of system time to a train step of about 450 ms, and
    varied from step to step. With the heap kept, ops after the warm-up reuse
    pages already mapped and op times measure the library's own work;
    ``peak_bytes`` still measures its memory. Returns whether the setting
    took, for the environment line.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        no_maps = libc.mallopt(M_MMAP_MAX, 0) == 1
        return no_maps and libc.mallopt(M_TRIM_THRESHOLD, 2**31 - 1) == 1
    except (OSError, AttributeError):
        return False


def add_import_paths():
    """Put the checkout's src/ and tests/ on sys.path, or exit if they are absent."""
    src, tests = ROOT / "src", ROOT / "tests"
    for needed in (src / "semtree" / "__init__.py", tests / "oracles.py"):
        if not needed.is_file():
            sys.exit(f"run.py: {needed} not found; run from a semtree checkout")
    for path in (str(tests), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    add_import_paths()
    heap_retained = retain_freed_memory()

    import harness
    from spans import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    tally = harness.Tally()
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as workdir:
        if args.trace:
            values, largest = harness.traced(wl, args.seed, args.seconds, workdir, tally)
            units = [(name, unit) for name, unit, _ in PER_LAYER]
        else:
            values, op_s, largest = harness.end_to_end(
                wl, args.seed, args.seconds, workdir, tally
            )
            units = harness.END_TO_END

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}")
    env = harness.environment(largest) | {"heap_retained": heap_retained}
    print(f"env {json.dumps(env)}")
    for name, unit in units:
        print(f"{name} {values[name]} {unit}")
    if not args.trace:
        print(f"ops {len(op_s)} of {wl.items_per_op} {wl.items} each")
        if op_s:
            print(f"op_ms_p50 {statistics.median(op_s) * 1e3} ms")
        tail = harness.tail_percentile(op_s)
        if tail is not None:
            print(f"op_ms_p{tail[0]} {tail[1]} ms")
    print(f"failed_ratio {tally.failed / tally.attempted} ratio")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
