"""Batched transforms between flat classifier space and the level-partitioned one.

``partition_scores`` lifts a batch of flat score vectors ``(b, n)`` into a
``(b, L, n)`` tensor where slice ``l`` keeps exactly the scores of the
classes living at depth ``l`` and holds the mask value everywhere else.
``map_labels`` turns flat labels into ancestral path rows, and
``flatten_for_training`` collapses both into per-level training rows with
the padding rows dropped. ``cross_entropy`` then scores those rows
without the mask value ever poisoning the arithmetic: its cost is one
scan of the rows plus work on the entries that are not ``-inf``.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InconsistentRow,
    LabelError,
    ParameterError,
    ShapeError,
    UnsupportedMaskValue,
)
from .tree import PAD, TreeEncoding

NEG_INF = float("-inf")

# Entries per block of whole rows in the loss's log-sum-exp (at least one row).
_BLOCK_ENTRIES = 1 << 18


def _check_mask_value(mask_value: float) -> float:
    mask_value = float(mask_value)
    if mask_value == float("inf"):
        raise UnsupportedMaskValue("+inf would dominate every masked softmax")
    return mask_value


def _check_dtype(name: str, a, *, floats: bool = True) -> np.ndarray:
    """``a`` as an array of integers, or of real floats when ``floats``.

    Any other dtype (bool, complex, object, strings, and floats where ids
    are wanted) raises ``ShapeError`` naming it, rather than being cast.
    """
    a = np.asarray(a)
    if np.issubdtype(a.dtype, np.integer):
        return a
    if floats and np.issubdtype(a.dtype, np.floating):
        return a
    kind = "integer or real float" if floats else "integers"
    raise ShapeError(f"{name} must be {kind}, not {a.dtype}")


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
    any other dtype raises ``ShapeError``.
    """
    mask_value = _check_mask_value(mask_value)
    scores = _check_dtype("scores", scores)
    if scores.ndim != 2:
        raise ShapeError(f"scores must be 2-d, got shape {scores.shape}")
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
    data = np.full((b, L * n), mask_value, dtype=scores.dtype)
    # Class c's score goes to column c of slice level_of[c]. Indexing rows
    # too makes numpy fill one row at a time; ``data[:, idx]`` would fill
    # one column at a time, touching b cache lines per class.
    idx = enc.level_of.astype(np.intp) * n + np.arange(n)
    data[np.arange(b)[:, None], idx] = scores
    return PartitionedScores(data=data.reshape(b, L, n), mask_value=mask_value)


def map_labels(enc: TreeEncoding, labels: np.ndarray) -> PathLabels:
    """Replace each flat label with its ancestral path row (b,) -> (b, L)."""
    labels = _check_dtype("labels", labels, floats=False)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-d, got shape {labels.shape}")
    bad = (labels < 0) | (labels >= enc.num_classes)
    if bad.any():
        i = int(np.argmax(bad))
        raise LabelError(i, int(labels[i]), enc.num_classes)
    return PathLabels(data=enc.paths[labels].astype(np.int64))


def flatten_for_training(
    parts: PartitionedScores, path_labels: PathLabels
) -> FlatTrainingSet:
    """Collapse (b, L, n) scores and (b, L) path labels into training rows.

    Rows are laid out sample-major, level-minor; rows whose label is
    padding (the sample's path ended above that level) are dropped. Path
    labels that are not integers raise ``ShapeError``.
    """
    labels = _check_dtype("path labels", path_labels.data, floats=False)
    if parts.data.shape[:2] != labels.shape:
        raise ShapeError(
            f"partitioned scores {parts.data.shape[:2]} and path labels "
            f"{labels.shape} disagree on batch or levels"
        )
    b, L, n = parts.data.shape
    flat_rows = parts.data.reshape(b * L, n)
    flat_labels = labels.reshape(b * L)
    keep = np.nonzero(flat_labels != PAD)[0]
    sample, level = np.divmod(keep, L)
    origin = np.column_stack((sample, level)).astype(np.int64)
    return FlatTrainingSet(
        rows=flat_rows[keep],
        labels=flat_labels[keep].astype(np.int64),
        origin=origin,
        mask_value=parts.mask_value,
    )


def cross_entropy(flat: FlatTrainingSet) -> LossResult:
    """Numerically stable cross entropy over the retained training rows.

    Only rows masked with ``-inf`` are supported: exp(-inf) is exactly
    zero, so excluded classes drop out of the normalizer. The cost is
    one scan of the rows for their live (not ``-inf``) entries, then
    float64 work on those entries alone. Whole rows are taken in blocks
    of a fixed number of entries, so the working set beyond the
    ``O(num_rows)`` outputs stays the same at any batch size, and each
    row's loss is the same as over all rows at once. The per-row losses
    and their mean are returned. Rows must be integer or real
    float and labels integer; other dtypes raise ``ShapeError``.
    """
    if flat.mask_value != NEG_INF:
        raise UnsupportedMaskValue(
            "loss requires -inf masking; NaN or finite fills would "
            "corrupt the normalizer"
        )
    if flat.num_rows == 0:
        raise ParameterError("cannot reduce a loss over zero rows")
    rows = _check_dtype("rows", flat.rows)
    labels = _check_dtype("labels", flat.labels, floats=False)
    num_rows, n = rows.shape
    if (labels < 0).any() or (labels >= n).any():
        i = int(np.argmax((labels < 0) | (labels >= n)))
        raise LabelError(i, int(labels[i]), n)
    label_scores = rows[np.arange(num_rows), labels].astype(np.float64)
    if not np.isfinite(label_scores).all():
        i = int(np.argmax(~np.isfinite(label_scores)))
        raise InconsistentRow(
            f"row {i}: the labeled class {int(labels[i]) + 1} is masked out"
        )
    # exp(-inf) is 0, so only the live entries count. Row-major, each
    # row's live entries are one segment, never empty: its label is live.
    # Whole rows go in blocks of about _BLOCK_ENTRIES entries, so the mask,
    # indices and float64 values below stay that size at any batch; each
    # row is still one segment, summed in the same order.
    lse = np.empty(num_rows)
    step = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, num_rows, step):
        block = rows[lo : lo + step]
        # The indices go before the float64 work, to keep the peak low.
        live = np.flatnonzero(block != NEG_INF)
        starts = np.searchsorted(live, np.arange(block.shape[0]) * n)
        vals = np.ravel(block)[live].astype(np.float64)
        del live
        # Shift each segment by its max so exp never overflows. NaN or +inf
        # in a live entry makes the row's loss non-finite, and the check
        # below raises rather than numpy warning about inf - inf.
        m = np.maximum.reduceat(vals, starts)
        with np.errstate(invalid="ignore"):
            vals -= np.repeat(m, np.diff(starts, append=vals.size))
        sums = np.add.reduceat(np.exp(vals, out=vals), starts)
        lse[lo : lo + step] = np.log(sums) + m
    per_row = lse - label_scores
    if not np.isfinite(per_row).all():
        i = int(np.argmax(~np.isfinite(per_row)))
        raise InconsistentRow(f"row {i} produced a non-finite loss")
    return LossResult(value=float(per_row.mean()), per_row=per_row)
