"""Throughput and footprint measurements for the batched transforms.

``run_bench`` times ``partition_scores``, ``map_labels`` and the loss
(``flatten_for_training`` plus ``cross_entropy``) on random inputs over
a given encoding and reports the median of several repeats (one warm-up
run is discarded), next to the byte counts of every tensor involved.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientMemory
from .transforms import (
    _check_count,
    _check_memory,
    cross_entropy,
    flatten_for_training,
    map_labels,
    partition_scores,
)
from .tree import TreeEncoding, measured_bytes, storage_bytes


def scores_bytes(batch: int, num_classes: int) -> int:
    """Bytes of a flat float32 score batch."""
    return batch * num_classes * 4


def partitioned_bytes(batch: int, num_levels: int, num_classes: int) -> int:
    """Bytes of a partitioned float32 score tensor."""
    return batch * num_levels * num_classes * 4


def labels_bytes(batch: int) -> int:
    """Bytes of a flat int64 label batch."""
    return batch * 8


def path_labels_bytes(batch: int, num_levels: int) -> int:
    """Bytes of an int64 path label batch."""
    return batch * num_levels * 8


@dataclass
class BenchReport:
    """Every number produced by one ``run_bench`` call."""

    num_classes: int
    num_levels: int
    batch_size: int
    reps: int
    scores_bytes: int
    partitioned_bytes: int
    labels_bytes: int
    path_labels_bytes: int
    encoding_bytes: int  # closed form at 1-byte bools, 8-byte ints
    encoding_bytes_in_memory: int
    partition_ns: int
    map_labels_ns: int
    loss_ns: int  # flatten_for_training plus cross_entropy

    def _pairs(self) -> list[tuple[str, str]]:
        ms = lambda ns: f"{ns / 1e6:.3f} ms"
        return [
            ("classes", str(self.num_classes)),
            ("levels", str(self.num_levels)),
            ("batch", str(self.batch_size)),
            ("reps", str(self.reps)),
            ("scores bytes", str(self.scores_bytes)),
            ("partitioned bytes", str(self.partitioned_bytes)),
            ("labels bytes", str(self.labels_bytes)),
            ("path label bytes", str(self.path_labels_bytes)),
            ("encoding bytes", str(self.encoding_bytes)),
            ("encoding bytes in memory", str(self.encoding_bytes_in_memory)),
            ("partition median", ms(self.partition_ns)),
            ("map labels median", ms(self.map_labels_ns)),
            ("loss median", ms(self.loss_ns)),
        ]

    def as_table(self) -> str:
        pairs = self._pairs()
        width = max(len(k) for k, _ in pairs)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs)

    def as_kv(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in vars(self).items())


def _median_ns(fn, reps: int) -> int:
    fn()  # warm-up, excluded from the median
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        out = fn()
        times.append(time.perf_counter_ns() - t0)
        del out
    return int(statistics.median(times))


def run_bench(
    enc: TreeEncoding, batch_size: int, reps: int, *, seed: int = 0
) -> BenchReport:
    """Measure the batched transforms over one encoding.

    Raises ``InsufficientMemory`` up front when the score tensors cannot
    fit in available memory.
    """
    _check_count("repetitions", reps, 3)
    _check_count("batch size", batch_size)
    _check_count("seed", seed, 0)
    n, L = enc.num_classes, enc.num_levels
    # Peak is the loss: the partitioned tensor it reads and the flattened
    # rows, at most one per sample and level, so at most that tensor's size
    # again. The loss's own scratch is a fixed size, whatever the batch.
    required = scores_bytes(batch_size, n) + 2 * partitioned_bytes(batch_size, L, n)
    _check_memory("benchmark", required)

    rng = np.random.default_rng(seed)
    try:
        scores = rng.standard_normal((batch_size, n), dtype=np.float32)
        labels = rng.integers(0, n, size=batch_size, dtype=np.int64)

        partition_ns = _median_ns(lambda: partition_scores(enc, scores), reps)
        map_labels_ns = _median_ns(lambda: map_labels(enc, labels), reps)
        parts, paths = partition_scores(enc, scores), map_labels(enc, labels)
        loss_ns = _median_ns(
            lambda: cross_entropy(flatten_for_training(parts, paths)), reps
        )
    except MemoryError as e:
        raise InsufficientMemory(
            f"benchmark ran out of memory for batch {batch_size} over "
            f"{n} classes and {L} levels"
        ) from e

    return BenchReport(
        num_classes=n,
        num_levels=L,
        batch_size=batch_size,
        reps=reps,
        scores_bytes=scores_bytes(batch_size, n),
        partitioned_bytes=partitioned_bytes(batch_size, L, n),
        labels_bytes=labels_bytes(batch_size),
        path_labels_bytes=path_labels_bytes(batch_size, L),
        encoding_bytes=storage_bytes(enc, 1, 8),
        encoding_bytes_in_memory=measured_bytes(enc),
        partition_ns=partition_ns,
        map_labels_ns=map_labels_ns,
        loss_ns=loss_ns,
    )
