"""Batched transforms between flat classifier space and the level-partitioned one.

``partition_scores`` lifts a batch of flat score vectors ``(b, n)`` into a
``(b, L, n)`` tensor where slice ``l`` keeps exactly the scores of the
classes living at depth ``l`` and holds the mask value everywhere else.
``map_labels`` turns flat labels into ancestral path rows, and
``flatten_for_training`` collapses both into per-level training rows with
the padding rows dropped. ``cross_entropy`` then scores those rows
without the mask value ever poisoning the arithmetic: its cost is one
pass that marks the entries that are not ``-inf`` plus work on those
entries alone. It reads each row's level from ``origin`` and finds a
level's live columns once, in its first row; a block of rows whose marks
match their levels' columns is gathered by them a row at a time, others
are scanned.

Every row is independent of the others, so ``partition_scores``,
``flatten_for_training``, ``cross_entropy`` and the softmax and decoders
in ``inference`` run over blocks of whole rows, shared out among one
thread per CPU the process may use (the loss makes at most ``_LOSS_RUNS``
runs of blocks, each over its own scratch). NumPy releases the
interpreter lock inside its loops, and every block writes its own rows of
one preallocated output, so results do not depend on the number of threads.
"""

import contextvars
import itertools
import numbers
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InconsistentRow,
    InsufficientMemory,
    LabelError,
    ParameterError,
    ShapeError,
    UnsupportedMaskValue,
)
from . import tree
from .tree import PAD, TreeEncoding

NEG_INF = float("-inf")

# The loss shares its blocks out as at most this many runs, each over its
# own scratch, so its working set does not grow with the CPU count.
_LOSS_RUNS = 2


def _workers() -> int:
    """Threads that run blocks: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _for_row_blocks(num_rows: int, row_entries: int, fn, *, per_thread=False):
    """``fn(lo, hi)`` over blocks of whole rows of ``range(num_rows)``; the
    results in row order.

    The blocks run on one thread per CPU this process may run on, so at
    most that many calls of ``fn`` run at once. A block holds at most
    ``tree._BLOCK_ENTRIES // row_entries`` rows (at least one), or with
    ``per_thread`` at least a thread's share of the rows, for kernels whose
    cost per block is Python overhead rather than cache misses. With one
    thread or one block, the blocks run in order on the calling thread.
    Otherwise they are made the same size, their count a multiple of the
    threads, and the caller and ``min(threads, blocks) - 1`` helper threads,
    started for this call and joined before it returns, take them in order
    until none are left, so no helper starts without a block to take.
    Concurrent callers each start their own helpers. The helpers run in
    copies of the caller's context, which carries NumPy's error state.
    Every block runs, then the exception of the first failing block, of any
    kind, is raised.
    """
    threads = _workers()
    size = max(1, tree._BLOCK_ENTRIES // max(1, row_entries))
    if per_thread:
        size = max(size, -(-num_rows // threads))
    count = -(-num_rows // size)
    if count <= 1 or threads == 1:
        return [fn(lo, min(lo + size, num_rows)) for lo in range(0, num_rows, size)]
    count = min(num_rows, -(-count // threads) * threads)
    bounds = [num_rows * i // count for i in range(count + 1)]
    todo = deque(range(count))
    results, errors = [None] * count, [None] * count

    def work():
        while True:
            try:
                i = todo.popleft()  # atomic: each block is taken once
            except IndexError:
                return
            try:
                results[i] = fn(bounds[i], bounds[i + 1])
            except BaseException as e:  # a helper's would end its thread
                errors[i] = e

    helpers = [
        threading.Thread(
            target=contextvars.copy_context().run, args=(work,), name="semtree-block"
        )
        for _ in range(min(threads, count) - 1)
    ]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    for e in errors:
        if e is not None:
            raise e
    return results


def _available_bytes() -> int | None:
    """Bytes the system can still hand out (Linux's MemAvailable, else its
    free pages), or None when that is not known."""
    try:
        with open("/proc/meminfo", "rb") as f:
            for line in f:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(what: str, nbytes: int) -> None:
    """Raise ``InsufficientMemory`` before ``what`` allocates ``nbytes``
    that the system does not have."""
    available = _available_bytes()
    if available is not None and nbytes > available:
        raise InsufficientMemory(
            f"{what} needs about {nbytes:,} bytes but only {available:,} "
            f"are available"
        )


def _check_mask_value(mask_value: float) -> float:
    if not isinstance(mask_value, numbers.Real):
        raise ParameterError("mask value must be a real number")
    mask_value = float(mask_value)
    if mask_value == float("inf"):
        raise UnsupportedMaskValue("+inf would dominate every masked softmax")
    return mask_value


def _check_array(name: str, a, ndim: int, *, floats: bool = True) -> np.ndarray:
    """``a`` as an ``ndim``-d array of integers, or of real floats when
    ``floats``.

    Any other dtype (bool, complex, object, strings, and floats where ids
    are wanted) or number of dimensions raises ``ShapeError`` naming it,
    rather than being cast or broadcast.
    """
    a = np.asarray(a)
    if not (
        np.issubdtype(a.dtype, np.integer)
        or floats and np.issubdtype(a.dtype, np.floating)
    ):
        kind = "integer or real float" if floats else "integers"
        raise ShapeError(f"{name} must be {kind}, not {a.dtype}")
    if a.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-d, got shape {a.shape}")
    return a


def _check_count(name: str, k, least: int = 1) -> None:
    """Refuse, with ``ParameterError``, a ``k`` that is not an integer of
    at least ``least``; a bool is not one."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < least:
        raise ParameterError(
            f"{name} must be an integer of at least {least}, got {k!r}"
        )


def _check_ids(ids: np.ndarray, num_classes: int) -> None:
    """Raise ``LabelError`` for the first id, in row-major order, outside
    ``[0, num_classes)``, naming its row."""
    bad = (ids < 0) | (ids >= num_classes)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), ids.shape)
        raise LabelError(int(at[0]), int(ids[at]), num_classes)


@dataclass(frozen=True)
class PartitionedScores:
    """Scores arranged per depth level, shape (batch, num_levels, num_classes)."""

    data: np.ndarray
    mask_value: float = NEG_INF

    @property
    def batch_size(self) -> int:
        return self.data.shape[0]

    @property
    def num_levels(self) -> int:
        return self.data.shape[1]

    @property
    def num_classes(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class PathLabels:
    """Ancestral path per sample, shape (batch, num_levels), PAD-terminated."""

    data: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.data.shape[0]

    @property
    def num_levels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FlatTrainingSet:
    """Per-level training rows with padding rows removed.

    ``origin[i] = (sample, level)`` records where row ``i`` came from,
    so losses can be traced back to the batch.
    """

    rows: np.ndarray  # (num_rows, num_classes)
    labels: np.ndarray  # (num_rows,) int64
    origin: np.ndarray  # (num_rows, 2) int64
    mask_value: float = NEG_INF

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]


class LossResult(NamedTuple):
    value: float
    per_row: np.ndarray


def partition_scores(
    enc: TreeEncoding, scores: np.ndarray, mask_value: float = NEG_INF
) -> PartitionedScores:
    """Expand flat scores (b, n) into per-level slices (b, L, n).

    Every score lands unchanged in the one slice owning its class, found
    by ``level_of``; all other positions hold ``mask_value``. Integer
    input is promoted to float64, real float input keeps its dtype, and
    any other dtype raises ``ShapeError``; a mask value that is not a
    real number raises ``ParameterError``. An output larger than the
    memory available raises ``InsufficientMemory`` before it is made.
    """
    mask_value = _check_mask_value(mask_value)
    scores = _check_array("scores", scores, 2)
    if scores.shape[1] != enc.num_classes:
        raise ShapeError(
            f"scores have {scores.shape[1]} columns, encoding has "
            f"{enc.num_classes} classes"
        )
    if np.issubdtype(scores.dtype, np.integer):
        scores = scores.astype(np.float64)
    if not np.isfinite(scores).all():
        raise ParameterError("scores must be finite")
    (b, n), L = scores.shape, enc.num_levels
    _check_memory("partition_scores", b * L * n * scores.itemsize)
    data = np.empty((b, L * n), dtype=scores.dtype)
    # Class c's score goes to column c of slice level_of[c]. Each block is
    # one 1-d scatter, numpy's fast path, through a flat index over the most
    # rows that _for_row_blocks gives a block; ``data[:, idx]`` would fill
    # one column at a time, touching b cache lines per class. A block is
    # filled with the mask value just before its scatter, while in cache.
    rows = min(b, max(1, tree._BLOCK_ENTRIES // (L * n)))
    idx = enc.level_of.astype(np.intp) * n + np.arange(n)
    idx = (np.arange(rows)[:, None] * (L * n) + idx).ravel()

    def fill(lo, hi):
        data[lo:hi] = mask_value
        data[lo:hi].reshape(-1)[idx[: (hi - lo) * n]] = scores[lo:hi].reshape(-1)

    _for_row_blocks(b, L * n, fill)
    return PartitionedScores(data=data.reshape(b, L, n), mask_value=mask_value)


def map_labels(enc: TreeEncoding, labels: np.ndarray) -> PathLabels:
    """Replace each flat label with its ancestral path row (b,) -> (b, L)."""
    labels = _check_array("labels", labels, 1, floats=False)
    _check_ids(labels, enc.num_classes)
    return PathLabels(data=enc.paths[labels].astype(np.int64))


def flatten_for_training(
    parts: PartitionedScores, path_labels: PathLabels
) -> FlatTrainingSet:
    """Collapse (b, L, n) scores and (b, L) path labels into training rows.

    Rows are laid out sample-major, level-minor; rows whose label is
    padding (the sample's path ended above that level) are dropped.
    Scores that are not 3-d integer or real float, or path labels that
    are not 2-d integers, raise ``ShapeError``, and rows larger than the
    memory available raise ``InsufficientMemory``.
    """
    data = _check_array("partitioned scores", parts.data, 3)
    labels = _check_array("path labels", path_labels.data, 2, floats=False)
    if data.shape[:2] != labels.shape:
        raise ShapeError(
            f"partitioned scores {data.shape[:2]} and path labels "
            f"{labels.shape} disagree on batch or levels"
        )
    b, L, n = data.shape
    flat_rows = data.reshape(b * L, n)
    flat_labels = labels.reshape(b * L)
    keep = np.nonzero(flat_labels != PAD)[0]
    sample, level = np.divmod(keep, L)
    origin = np.column_stack((sample, level)).astype(np.int64)
    _check_memory("flatten_for_training", keep.size * n * flat_rows.itemsize)
    rows = np.empty((keep.size, n), dtype=flat_rows.dtype)

    def gather(lo, hi):
        # keep holds valid row numbers, so "clip" only spares take a buffer.
        np.take(flat_rows, keep[lo:hi], axis=0, out=rows[lo:hi], mode="clip")

    _for_row_blocks(keep.size, n, gather)
    return FlatTrainingSet(
        rows=rows,
        labels=flat_labels[keep].astype(np.int64),
        origin=origin,
        mask_value=parts.mask_value,
    )


def _gather_by_level(block, cols, count, out):
    """The entries of each row of ``block`` at its level's columns, the
    sorted ``cols`` of that row or None, gathered in row order into the
    front of the float64 ``out``: each row's entry count, or None unless
    they are exactly the block's ``count`` live entries. Each row's entries
    come in column order, as a scan would find them.
    """
    if any(c is None for c in cols) or sum(c.size for c in cols) != count:
        return None
    at = 0
    for row, c in zip(block, cols):
        out[at : at + c.size] = row.take(c)
        at += c.size
    # As many entries as are live, none of them -inf: they are the live
    # ones. fmin passes over NaN, which would hide a -inf from min.
    return [c.size for c in cols] if np.fmin.reduce(out[:at]) != NEG_INF else None


def _log_sum_exp(vals, counts):
    """The log of the summed exponentials of each segment of the float64
    ``vals``, which holds, in order, segments of ``counts`` entries;
    ``vals`` is overwritten.

    Each segment is shifted by its max so exp never overflows. NaN or +inf
    in a segment makes its result non-finite, without numpy warning about
    inf - inf.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    m = np.maximum.reduceat(vals, starts)
    with np.errstate(invalid="ignore"):
        for lo, hi, top in zip(starts.tolist(), ends.tolist(), m):
            vals[lo:hi] -= top
    return np.log(np.add.reduceat(np.exp(vals, out=vals), starts)) + m


def cross_entropy(flat: FlatTrainingSet) -> LossResult:
    """Numerically stable cross entropy over the retained training rows.

    Only rows masked with ``-inf`` are supported: exp(-inf) is exactly
    zero, so excluded classes drop out of the normalizer. The cost is
    one pass over the rows that marks their live (not ``-inf``) entries,
    then float64 work on those entries alone. Every row of one level that
    ``flatten_for_training`` makes has the same live columns, its level's
    classes, so each level's are found once, in its first row, and the
    other rows are gathered by them, a row at a time, wherever the marks
    confirm they are exactly the live entries; elsewhere the marks are
    scanned row by row. Whole rows are taken in blocks of a fixed number of
    entries, shared out as at most ``_LOSS_RUNS`` runs of whole blocks,
    one thread each. The loss makes one scratch set per run before any
    thread starts: the marks of a block, and float64 values for a row or a
    gathered block, which hold rows' entries in row order until the next
    would not fit and are then reduced together. The working set beyond
    the ``O(num_rows)`` outputs therefore stays the same at any batch size
    and CPU count, and each row's loss is the same as over all rows at
    once, at any thread count.
    The per-row losses and their mean are returned. Rows must be 2-d
    integer or real float, labels 1-d integers, one per row, and
    ``origin`` 2-d integers, one ``(sample, level)`` pair per row; anything
    else raises ``ShapeError``.
    """
    if flat.mask_value != NEG_INF:
        raise UnsupportedMaskValue(
            "loss requires -inf masking; NaN or finite fills would "
            "corrupt the normalizer"
        )
    rows = _check_array("rows", flat.rows, 2)
    labels = _check_array("labels", flat.labels, 1, floats=False)
    num_rows, n = rows.shape
    if labels.size != num_rows:
        raise ShapeError(
            f"labels must be one per row, got {labels.size} for {num_rows} rows"
        )
    if num_rows == 0:
        raise ParameterError("cannot reduce a loss over zero rows")
    _check_ids(labels, n)
    label_scores = rows[np.arange(num_rows), labels].astype(np.float64)
    if not np.isfinite(label_scores).all():
        i = int(np.argmax(~np.isfinite(label_scores)))
        raise InconsistentRow(
            f"row {i}: the labeled class {int(labels[i]) + 1} is masked out"
        )
    origin = _check_array("origin", flat.origin, 2, floats=False)
    if origin.shape != (num_rows, 2):
        raise ShapeError(
            f"origin must be one (sample, level) pair per row, got shape "
            f"{origin.shape} for {num_rows} rows"
        )
    # exp(-inf) is 0, so only the live entries count: each row's are one
    # segment, never empty, as its label is live. A level keeps its first
    # row's live columns, the first rows taken in row order, while the
    # columns kept total at most n, so they never outnumber a row's
    # entries. The first rows are counted in order to find the levels that
    # keep theirs, then those rows are scanned in blocks.
    firsts, slots = np.unique(origin[:, 1], return_index=True, return_inverse=True)[1:]
    levels, kept = [], 0  # the slots of the levels that keep their columns
    for k in np.argsort(firsts).tolist():
        kept += np.count_nonzero(rows[firsts[k]] != NEG_INF)
        if kept > n:
            break
        levels.append(k)

    def scan(lo, hi):
        return [np.flatnonzero(rows[firsts[k]] != NEG_INF) for k in levels[lo:hi]]

    scanned = _for_row_blocks(len(levels), n, scan)
    columns = dict(zip(levels, itertools.chain.from_iterable(scanned)))
    del firsts, scanned
    # Whole rows go in blocks of about _BLOCK_ENTRIES entries, shared out
    # as at most _LOSS_RUNS runs, each one row of the runner with its own
    # scratch made before any starts: the working set is the same at any
    # batch and CPU count, and no two runs share scratch. A block whose
    # live entries are exactly its rows' level columns is gathered by
    # those, each row's in the order a scan finds them, so both give the
    # same segments; other blocks are scanned. The segments collect in
    # float64, in row order, until the next would not fit, then are
    # reduced together.
    step = max(1, tree._BLOCK_ENTRIES // n)
    num_blocks = -(-num_rows // step)
    per_block = min(step, num_rows)
    size = max(n, per_block * max(c.size for c in columns.values()))
    runs = min(_workers(), _LOSS_RUNS, num_blocks)
    scratch = [(np.empty((per_block, n), bool), np.empty(size)) for _ in range(runs)]
    lse = np.empty(num_rows)

    def run(r, _):
        marks, vals = scratch[r]
        first_block = num_blocks * r // runs
        at, counts, start = 0, [], first_block * step  # held: rows from start on

        def flush():
            nonlocal at, start
            lse[start : start + len(counts)] = _log_sum_exp(vals[:at], counts)
            at, start = 0, start + len(counts)
            counts.clear()

        for i in range(first_block, num_blocks * (r + 1) // runs):
            lo = i * step
            block = rows[lo : lo + step]
            live = marks[: block.shape[0]]
            np.not_equal(block, NEG_INF, out=live)
            count = np.count_nonzero(live)
            if at and at + count > size:  # a gathered block fits an empty buffer
                flush()
            cols = [columns.get(k) for k in slots[lo : lo + step].tolist()]
            found = _gather_by_level(block, cols, count, vals[at:])
            if found is not None:
                counts.extend(found)
                at += count
                continue
            for row, keep in zip(block, live):
                seg = row[keep]
                if at + seg.size > size:
                    flush()
                vals[at : at + seg.size] = seg
                at += seg.size
                counts.append(seg.size)
        if counts:
            flush()

    _for_row_blocks(runs, tree._BLOCK_ENTRIES, run)
    per_row = lse - label_scores
    if not np.isfinite(per_row).all():
        i = int(np.argmax(~np.isfinite(per_row)))
        raise InconsistentRow(f"row {i} produced a non-finite loss")
    return LossResult(value=float(per_row.mean()), per_row=per_row)
