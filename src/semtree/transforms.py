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
match their levels' columns is gathered by them, others are scanned.

Every row is independent of the others, so ``partition_scores``,
``flatten_for_training``, ``cross_entropy`` and the softmax and decoders
in ``inference`` run over blocks of whole rows, shared out among one
thread per CPU the process may use (at most ``_LOSS_RUNS`` for the loss,
whose threads each hold scratch). NumPy releases the interpreter lock
inside its loops, and every block writes its own rows of one
preallocated output, so results do not depend on the number of threads.
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
from .tree import _BLOCK_ENTRIES, PAD, TreeEncoding

NEG_INF = float("-inf")

# The loss runs at most this many runs of blocks at once, each over its
# own scratch, so its working set does not grow with the CPU count.
_LOSS_RUNS = 2

# Rows of a level narrower than this many columns are gathered and shifted
# a run of a block's rows at a time; wider rows are worth a call each.
_NARROW = 1024


def _workers() -> int:
    """Threads that run blocks: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _for_row_blocks(
    num_rows: int, row_entries: int, fn, *, per_thread=False, threads=None
):
    """``fn(lo, hi)`` over blocks of whole rows of ``range(num_rows)``; the
    results in row order.

    The blocks run on ``threads`` threads, by default one per CPU this
    process may run on, so at most that many calls of ``fn`` run at once.
    A block holds at most ``_BLOCK_ENTRIES // row_entries`` rows (at least
    one), or with ``per_thread`` at least a thread's share of the rows, for
    kernels whose cost per block is Python overhead rather than cache
    misses. With one thread or one block, the blocks run in order on the
    calling thread. Otherwise they are made the same size, their count a
    multiple of the threads, and the caller and ``threads - 1`` helper
    threads, started for this call and joined before it returns, take them
    in order until none are left. Concurrent callers each start their own
    helpers. The helpers run in copies of the caller's context, which
    carries NumPy's error state. Every block runs, then the exception of
    the first failing block, of any kind, is raised.
    """
    threads = threads or _workers()
    size = max(1, _BLOCK_ENTRIES // max(1, row_entries))
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
        for _ in range(threads - 1)
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
    # Class c's score goes to column c of slice level_of[c]. Indexing rows
    # too makes numpy fill one row at a time; ``data[:, idx]`` would fill
    # one column at a time, touching b cache lines per class. A block is
    # filled with the mask value just before its scatter, while in cache.
    idx = enc.level_of.astype(np.intp) * n + np.arange(n)

    def fill(lo, hi):
        data[lo:hi] = mask_value
        data[lo:hi][np.arange(hi - lo)[:, None], idx] = scores[lo:hi]

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


def _level_runs(slots, step):
    """The rows of each block of ``step`` rows sorted by level, in runs of
    rows of one level: ``(order, heads, run_slots, first)``. Run ``j`` is
    the rows ``order[heads[j]:heads[j + 1]]``, ascending, of the level
    whose slot (``slots`` gives each row's) is ``run_slots[j]``; block
    ``i`` holds runs ``first[i]`` to ``first[i + 1] - 1``.
    """
    num_rows = slots.size
    order = np.lexsort((slots, np.arange(num_rows) // step))
    ranked = slots[order]
    heads = np.ones(num_rows + 1, bool)  # a run starts at each place
    np.not_equal(ranked[1:], ranked[:-1], out=heads[1:num_rows])
    heads[::step] = True  # and at each block
    heads = np.flatnonzero(heads)
    starts = np.minimum(np.arange(-(-num_rows // step) + 1) * step, num_rows)
    return order, heads, ranked[heads[:-1]], np.searchsorted(heads, starts).tolist()


def _gather_by_level(block, lo, count, runs, idx, spread, out):
    """The entries of ``block``, the rows from ``lo`` on, at its rows' level
    columns, gathered into the front of ``out``: ``(rows, width)`` for each
    run of rows whose entries follow one another, or None unless they are
    exactly the block's ``count`` live entries.

    ``runs`` holds each level's rows in the block, ascending, and its
    sorted columns, or None. The rows of a level narrower than ``_NARROW``
    columns are taken together by flat indices, built in ``idx`` with
    ``spread`` as scratch; wider rows, or a level's one row, are taken one
    at a time. Each row's entries come in column order, as a scan would
    find them.
    """
    if any(c is None for _, c in runs) or (
        sum(r.size * c.size for r, c in runs) != count
    ):
        return None
    at, n, found = 0, block.shape[1], []
    for r, c in runs:
        # The indices are valid, so "clip" only spares take a buffer.
        if r.size > 1 and c.size < _NARROW:
            entries = r.size * c.size
            flat = idx[:entries].reshape(r.size, c.size)
            offsets = spread.view(np.intp)[:entries].reshape(flat.shape)
            np.copyto(flat, c)  # copyto broadcasts without a ufunc buffer
            np.copyto(offsets, ((r - lo) * n)[:, None])
            flat += offsets
            block.take(idx[:entries], out=out[at : at + entries], mode="clip")
            found.append((r, c.size))
            at += entries
            continue
        for i in r.tolist():
            block[i - lo].take(c, out=out[at : at + c.size], mode="clip")
            found.append(([i], c.size))
            at += c.size
    # As many entries as are live, none of them -inf: they are the live
    # ones. fmin passes over NaN, which would hide a -inf from min.
    return found if np.fmin.reduce(out[:at]) != NEG_INF else None


def _log_sum_exp(vals, runs, spread):
    """The log of the summed exponentials of each segment of the float64
    ``vals``, which holds, in order, ``len(rows)`` segments of ``width``
    entries for each ``(rows, width)`` of ``runs``; ``vals`` is overwritten.

    Each segment is shifted by its max so exp never overflows; a run of
    several segments takes its maxima spread over its entries in
    ``spread``. NaN or +inf in a segment makes its result non-finite,
    without numpy warning about inf - inf.
    """
    counts = [len(rows) for rows, _ in runs]
    widths = [width for _, width in runs]
    lengths = np.repeat(widths, counts)
    starts = np.cumsum(lengths) - lengths
    m = np.maximum.reduceat(vals, starts)
    at = i = 0
    with np.errstate(invalid="ignore"):
        for k, width in zip(counts, widths):
            seg = vals[at : at + k * width]
            if k == 1:
                seg -= m[i]
            else:
                tops = spread[: k * width]
                np.copyto(tops.reshape(k, width), m[i : i + k, None])
                seg -= tops
            at, i = at + k * width, i + k
    return np.log(np.add.reduceat(np.exp(vals, out=vals), starts)) + m


def _run_scratch(rows_per_block: int, n: int, widest: int):
    """Entries of the buffers that each run of the loss's blocks holds
    besides a block's marks, for rows of ``n`` entries whose widest level
    has ``widest`` columns: ``(narrow, most, size)``, the flat indices of a
    run of narrow rows (and as many float64 offsets or maxima), a gathered
    block, and float64 values for any row or gathered block."""
    most = rows_per_block * widest
    return rows_per_block * min(widest, _NARROW - 1), most, max(n, most)


def _loss_scratch_bytes(n: int, widest: int, itemsize: int) -> int:
    """At most the bytes ``cross_entropy`` holds beyond its ``O(num_rows)``
    outputs for rows of ``n`` entries of ``itemsize`` bytes whose widest
    level has ``widest`` columns: a column index per class, and for each of
    at most ``_LOSS_RUNS`` runs of blocks a block's marks and its run's
    scratch."""
    per_block = max(1, _BLOCK_ENTRIES // n)
    narrow, most, size = _run_scratch(per_block, n, widest)
    run = per_block * n + 16 * narrow + itemsize * most + 8 * size
    return 8 * n + _LOSS_RUNS * run


def cross_entropy(flat: FlatTrainingSet) -> LossResult:
    """Numerically stable cross entropy over the retained training rows.

    Only rows masked with ``-inf`` are supported: exp(-inf) is exactly
    zero, so excluded classes drop out of the normalizer. The cost is
    one pass over the rows that marks their live (not ``-inf``) entries,
    then float64 work on those entries alone. Every row of one level that
    ``flatten_for_training`` makes has the same live columns, its level's
    classes, so each level's are found once, in its first row, and the
    other rows are gathered by them wherever the marks confirm they are
    exactly the live entries (a block's rows of a narrow level together,
    wider rows one at a time); elsewhere the marks are scanned row by row.
    Whole rows are taken in blocks of a fixed number of entries, and at
    most ``_LOSS_RUNS`` threads each take a run of whole blocks with
    scratch made before any thread starts: the marks of a block, flat
    indices for its narrow rows, its gathered entries, and float64 values
    for at least a row, reduced together when full. The working set
    beyond the ``O(num_rows)`` outputs therefore
    stays the same at any batch size and CPU count, and each row's loss is
    the same as over all rows at once, at any thread count. The per-row
    losses and their mean are returned. Rows must be 2-d integer or real
    float, labels 1-d integers, one per row, and ``origin`` 2-d integers,
    one ``(sample, level)`` pair per row; anything else raises
    ``ShapeError``.
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
    # keep theirs, then those rows are scanned, a block of them a thread.
    threads = min(_workers(), _LOSS_RUNS)
    firsts, slots = np.unique(origin[:, 1], return_index=True, return_inverse=True)[1:]
    levels, kept = [], 0  # the slots of the levels that keep their columns
    for k in np.argsort(firsts).tolist():
        kept += np.count_nonzero(rows[firsts[k]] != NEG_INF)
        if kept > n:
            break
        levels.append(k)

    def scan(lo, hi):
        return [np.flatnonzero(rows[firsts[k]] != NEG_INF) for k in levels[lo:hi]]

    scanned = _for_row_blocks(len(levels), n, scan, threads=threads)
    columns = dict(zip(levels, itertools.chain.from_iterable(scanned)))
    del firsts, scanned
    # Whole rows go in blocks of about _BLOCK_ENTRIES entries, and each run
    # of whole blocks has scratch made before any starts, so the working
    # set is the same at any batch. A block whose live entries are exactly
    # its rows' level columns is gathered by those, each row's in the order
    # a scan finds them, so both give the same segments; other blocks are
    # scanned. The segments collect in float64 until the scratch is full,
    # then are reduced together.
    step = max(1, _BLOCK_ENTRIES // n)
    num_blocks = -(-num_rows // step)
    order, heads, run_slots, first = _level_runs(slots, step)
    del slots
    per_block = min(step, num_rows)
    widest = max(c.size for c in columns.values())
    narrow, most, size = _run_scratch(per_block, n, widest)
    threads = min(threads, num_blocks)
    spare = [
        (
            np.empty((per_block, n), bool),
            np.empty(narrow, np.intp),
            np.empty(narrow),
            np.empty(most, rows.dtype),
            np.empty(size),
        )
        for _ in range(threads)
    ]
    lse = np.empty(num_rows)

    def run(first_block, last_block):
        scratch = spare.pop()  # atomic: no two runs share a scratch
        marks, idx, spread, gathered, vals = scratch
        at, held = 0, []  # values held, and their (rows, width) runs

        def flush():
            nonlocal at
            rows_held = np.concatenate([r for r, _ in held])
            lse[rows_held] = _log_sum_exp(vals[:at], held, spread)
            at = 0
            held.clear()

        def add(entries, runs):
            nonlocal at
            if at + entries.size > size:
                flush()
            vals[at : at + entries.size] = entries
            at += entries.size
            held.extend(runs)

        try:
            for i in range(first_block, last_block):
                lo = i * step
                block = rows[lo : lo + step]
                live = marks[: block.shape[0]]
                np.not_equal(block, NEG_INF, out=live)
                count = np.count_nonzero(live)
                a, b = first[i], first[i + 1]
                bounds = heads[a : b + 1].tolist()
                runs = [
                    (order[x:y], columns.get(k))
                    for x, y, k in zip(bounds, bounds[1:], run_slots[a:b].tolist())
                ]
                found = _gather_by_level(block, lo, count, runs, idx, spread, gathered)
                if found is not None:
                    add(gathered[:count], found)
                    continue
                for j, keep in enumerate(live):
                    seg = block[j][keep]
                    add(seg, [([lo + j], seg.size)])
            if held:
                flush()
        finally:
            spare.append(scratch)

    _for_row_blocks(num_blocks, _BLOCK_ENTRIES, run, per_thread=True, threads=threads)
    per_row = lse - label_scores
    if not np.isfinite(per_row).all():
        i = int(np.argmax(~np.isfinite(per_row)))
        raise InconsistentRow(f"row {i} produced a non-finite loss")
    return LossResult(value=float(per_row.mean()), per_row=per_row)
