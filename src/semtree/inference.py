"""Decoding: per-level probabilities and path predictions over an encoded tree.

The per-level softmax treats each depth slice of a partitioned score
tensor as its own distribution; masked classes get probability exactly
zero. On top of that sit three decoders:

* ``naive_decode``: per-level argmax, ignores tree structure entirely,
  so the levels of one sample may disagree on the branch taken.
* ``beam_decode``: walks root to leaf keeping the ``k`` best partial
  paths; every visited node is a candidate endpoint, so shorter paths
  compete with full-depth ones. With ``k >= num_classes`` nothing is
  ever pruned and the result is the exhaustive ranking.
* ``levenshtein_decode``: repairs a naive sequence by ranking every
  valid ancestral path by edit distance to it. Each path extends its
  parent's, so the edit-distance rows are shared along the tree and a
  sample costs n * (L + 1) DP cells; there is no limit on the batch.

Ties are broken in favor of the lexicographically smaller class
sequence throughout, so all decoders are deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptEncoding,
    LabelError,
    ParameterError,
    ShapeError,
    UnsupportedMaskValue,
)
from .tree import TreeEncoding, recover_parents
from .transforms import NEG_INF, PartitionedScores


@dataclass(frozen=True)
class LevelProbabilities:
    """Per-level distributions, shape (batch, num_levels, num_classes).

    Each (sample, level) slice sums to one over the classes of that
    level and is exactly zero elsewhere.
    """

    data: np.ndarray

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
class DecodedPath:
    """One ranked prediction: a root-to-node class sequence.

    ``score`` is the sum of per-level log probabilities (beam decoding),
    ``distance`` the edit distance to the naive sequence (levenshtein
    decoding); each decoder fills only its own field.
    """

    classes: tuple[int, ...]
    score: float | None = None
    distance: int | None = None


def softmax_levels(parts: PartitionedScores) -> LevelProbabilities:
    """Turn each depth slice into a probability distribution.

    Requires ``-inf`` or NaN masking: either drops out of the softmax
    exactly, whereas a finite fill would soak up probability mass.
    """
    mask_value = parts.mask_value
    if not (mask_value == NEG_INF or np.isnan(mask_value)):
        raise UnsupportedMaskValue(
            f"softmax needs -inf or NaN masking, got {mask_value!r}"
        )
    data = parts.data
    if np.isnan(mask_value):
        data = np.where(np.isnan(data), NEG_INF, data)
    live = (data > NEG_INF).any(axis=2)
    if not live.all():
        b, l = (int(x) for x in np.argwhere(~live)[0])
        raise CorruptEncoding(
            f"sample {b}, level {l + 1}: every class is masked out"
        )
    m = data.max(axis=2, keepdims=True)
    e = np.exp(data - m)
    probs = e / e.sum(axis=2, keepdims=True)
    return LevelProbabilities(data=probs)


def naive_decode(probs: LevelProbabilities) -> np.ndarray:
    """Most likely class per level, shape (batch, num_levels).

    The levels are decoded independently, so consecutive entries need
    not form a valid path. Ties go to the smaller class index.
    """
    return np.argmax(probs.data, axis=2).astype(np.int64)


def _children_lists(enc: TreeEncoding) -> list[list[int]]:
    parents = recover_parents(enc)
    children: list[list[int]] = [[] for _ in range(enc.num_classes)]
    for c in np.argsort(parents, kind="stable"):
        p = parents[c]
        if p >= 0:
            children[p].append(int(c))
    return children


def beam_decode(
    enc: TreeEncoding,
    probs: LevelProbabilities,
    k: int,
    *,
    length_normalize: bool = False,
) -> list[list[DecodedPath]]:
    """Top-k valid paths per sample by joint per-level log probability.

    A path's score is the sum of the log probabilities of its classes,
    each taken from the level slice of that class's depth; it is not
    normalized by length unless ``length_normalize`` is set. Every node
    reached by the beam counts as a candidate endpoint.
    """
    if k < 1:
        raise ParameterError(f"beam width must be at least 1, got {k}")
    if probs.data.ndim != 3 or probs.data.shape[1:] != (
        enc.num_levels,
        enc.num_classes,
    ):
        raise ShapeError(
            f"probabilities of shape {probs.data.shape} do not match an "
            f"encoding with {enc.num_classes} classes and "
            f"{enc.num_levels} levels"
        )
    children = _children_lists(enc)
    roots = [int(c) for c in np.nonzero(enc.level_of == 0)[0]]
    with np.errstate(divide="ignore"):
        logp = np.log(probs.data.astype(np.float64))

    results: list[list[DecodedPath]] = []
    for i in range(probs.batch_size):
        lp = logp[i]
        live = [(float(lp[0, r]), (r,)) for r in roots]
        pool = list(live)
        for level in range(1, enc.num_levels):
            if not live:
                break
            live.sort(key=lambda h: (-h[0], h[1]))
            del live[k:]
            grown = []
            for score, classes in live:
                for child in children[classes[-1]]:
                    grown.append((score + float(lp[level, child]), classes + (child,)))
            pool.extend(grown)
            live = grown
        if length_normalize:
            pool.sort(key=lambda h: (-h[0] / len(h[1]), h[1]))
        else:
            pool.sort(key=lambda h: (-h[0], h[1]))
        results.append(
            [DecodedPath(classes=classes, score=score) for score, classes in pool[:k]]
        )
    return results


def levenshtein(a, b) -> int:
    """Edit distance between two sequences, O(min(len)) memory."""
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[len(b)]


def _scan_levels(
    enc: TreeEncoding, naive: np.ndarray, probs: LevelProbabilities | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Every path's edit distance to each naive sequence, and its score.

    Returns the classes sorted by level, then the (b, n) distances and
    joint log probabilities (None without ``probs``), whose columns
    follow that order.
    """
    b, n, L = naive.shape[0], enc.num_classes, enc.num_levels
    # Columns of dist and score hold the classes sorted by level, so each
    # level is one slice; col maps a class back to its column.
    order = np.argsort(enc.level_of, kind="stable")
    starts = np.searchsorted(enc.level_of[order], np.arange(L + 1))
    col = np.empty(n, dtype=np.intp)
    col[order] = np.arange(n)
    # A cell is an edit distance between sequences of at most L entries, so
    # it never exceeds L, or L + 1 before a minimum.
    dtype = np.int16 if L < np.iinfo(np.int16).max else np.int32
    seq = naive.T[:, :, None]
    dist = np.empty((b, n), dtype=dtype)
    score = np.empty((b, n)) if probs is not None else None
    # The empty path's row: i deletions from the first i naive entries.
    rows = np.broadcast_to(np.arange(L + 1, dtype=dtype)[:, None, None], (L + 1, b, 1))
    for d in range(L):
        lo, hi = starts[d], starts[d + 1]
        cls = order[lo:hi]
        up = col[enc.paths[cls, d - 1]] if d else np.zeros(hi - lo, dtype=np.intp)
        # rows[i, s, j]: distance from sample s's first i entries to path j.
        prev = np.take(rows, up - (starts[d - 1] if d else 0), axis=2)
        # The path's last class is an extra entry (prev[i] + 1) or stands
        # against naive entry i (prev[i - 1] plus 1 on a mismatch).
        cur = prev + 1
        prev[:-1] += seq != cls
        np.minimum(cur[1:], prev[:-1], out=cur[1:])
        # The in-row chain cur[i] = min(cur[i], cur[i - 1] + 1), one position
        # at a time: over this axis, minimum.accumulate runs ~20x slower.
        for i in range(1, L + 1):
            np.minimum(cur[i], cur[i - 1] + 1, out=cur[i])
        rows = cur
        dist[:, lo:hi] = cur[L]
        if probs is not None:
            # Parent's score plus this level's term: the beam's summation order.
            with np.errstate(divide="ignore"):
                lp = np.log(probs.data[:, d, cls].astype(np.float64))
            score[:, lo:hi] = (score[:, up] if d else 0.0) + lp
    return order, dist, score


def levenshtein_decode(
    enc: TreeEncoding,
    naive: np.ndarray,
    k: int,
    *,
    probs: LevelProbabilities | None = None,
) -> list[list[DecodedPath]]:
    """Top-k valid paths per sample by edit distance to a naive sequence.

    Every ancestral path in the encoding is a candidate; ties on
    distance fall back to higher joint log probability when ``probs``
    is given, then to the lexicographically smaller sequence.

    A path is its parent's path plus one class, so a class's DP row
    (edit distances from each prefix of the naive sequence to the path)
    is its parent's row extended by one step, as in a trie. Rows are
    computed level by level for the whole batch at once: n * (L + 1)
    cells per sample, with only two levels of int16 rows alive. There
    is no limit on the batch: besides those rows, the decoder holds a
    few (batch, n) arrays.
    """
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    naive = np.asarray(naive)
    if naive.ndim != 2 or naive.shape[1] != enc.num_levels:
        raise ShapeError(
            f"naive sequences of shape {naive.shape} do not match "
            f"{enc.num_levels} levels"
        )
    if not np.issubdtype(naive.dtype, np.integer):
        raise ShapeError(f"naive sequences must be integers, got dtype {naive.dtype}")
    bad = (naive < 0) | (naive >= enc.num_classes)
    if bad.any():
        i = int(np.argwhere(bad)[0][0])
        raise LabelError(i, int(naive[i][np.argmax(bad[i])]), enc.num_classes)
    b = naive.shape[0]
    if probs is not None and probs.data.shape != (b, enc.num_levels, enc.num_classes):
        raise ShapeError(
            f"probabilities of shape {probs.data.shape} do not match "
            f"{b} naive sequences over this encoding"
        )

    n = enc.num_classes
    order, dist, score = _scan_levels(enc, naive, probs)

    # Rank by (distance, key, path); key is -score, or the path's rank among
    # all paths in lexicographic order when there are no scores.
    if probs is not None:
        key = -score
    else:
        lex = np.empty(n, dtype=np.intp)
        lex[np.lexsort(enc.paths.T[::-1])] = np.arange(n)
        key = np.broadcast_to(lex[order], (b, n))
    # Keep the paths closer than the k-th distance, and of those at it, every
    # one whose key is no worse than the one that fills the k-th place: with
    # the closer ones first, that key is the k-th smallest.
    k = min(k, n)
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    closer = dist < kth
    at = dist == kth
    tied = np.where(at, key, np.inf)
    tied[closer] = -np.inf
    tied.partition(k - 1, axis=1)
    keep = closer | (at & ~(key > tied[:, k - 1 : k]))
    s, c = np.nonzero(keep)
    classes = order[c]
    ranked = np.lexsort((*enc.paths[classes].T[::-1], key[s, c], dist[s, c], s))
    first = np.searchsorted(s, np.arange(b))
    top = ranked[first[:, None] + np.arange(k)]

    widths = enc.level_of + 1
    results: list[list[DecodedPath]] = []
    for picks in top.tolist():
        ranked_paths = []
        for j in picks:
            cls = classes[j]
            ranked_paths.append(
                DecodedPath(
                    classes=tuple(enc.paths[cls, : widths[cls]].tolist()),
                    score=float(score[s[j], c[j]]) if probs is not None else None,
                    distance=int(dist[s[j], c[j]]),
                )
            )
        results.append(ranked_paths)
    return results
