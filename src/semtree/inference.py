"""Decoding: per-level probabilities and path predictions over an encoded tree.

The per-level softmax treats each depth slice of a partitioned score
tensor as its own distribution; masked classes get probability exactly
zero. On top of that sit three decoders:

* ``naive_decode``: per-level argmax, ignores tree structure entirely,
  so the levels of one sample may disagree on the branch taken.
* ``beam_decode``: the exact top k valid root-to-node paths by joint
  log probability, found by a width-k beam down the levels, or with
  ``length_normalize`` by their mean, ranking every path.
* ``levenshtein_decode``: repairs a naive sequence by ranking every
  valid ancestral path by edit distance to it. Each path extends its
  parent's, so the edit-distance columns are shared along the tree; a
  column is held as two words of L bits, so a sample costs n steps of a
  few word operations each, and there is no limit on the batch.

The full rankings fill (batch, n) arrays level by level, each path's
entry from its parent's. One top-k routine then gathers each sample's
candidates, its paths no worse than the k-th, and cuts a tie at the k-th
place among those only; the beam works on its kept paths alone. Ties go to
the lexicographically smaller class sequence, so all are deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CorruptEncoding, ParameterError, ShapeError, UnsupportedMaskValue
from .tree import TreeEncoding
from .transforms import (
    NEG_INF,
    PartitionedScores,
    _check_array,
    _check_count,
    _check_ids,
    _check_memory,
    _for_row_blocks,
)


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

    ``score`` is the sum of per-level log probabilities (filled by
    ``beam_decode``, and by ``levenshtein_decode`` when given ``probs``);
    ``distance`` is the edit distance to the naive sequence (filled by
    ``levenshtein_decode`` only). A field not computed stays None.
    """

    classes: tuple[int, ...]
    score: float | None = None
    distance: int | None = None


def softmax_levels(parts: PartitionedScores) -> LevelProbabilities:
    """Turn each depth slice into a probability distribution.

    Requires ``-inf`` or NaN masking: either drops out of the softmax
    exactly, whereas a finite fill would soak up probability mass. Real
    float input keeps its dtype, integer input gives float64 and other
    dtypes raise ``ShapeError``. The output is the one (b, L, n) array
    made, so the peak is about the output's size; one larger than the
    memory available raises ``InsufficientMemory`` first. Slices are
    taken in blocks run side by side on one thread per CPU, each slice
    computed as on one thread. A slice with no live (not masked) class
    raises ``CorruptEncoding``, and otherwise one whose live scores hold
    NaN or ``+inf`` raises ``ParameterError``.
    """
    mask_value = parts.mask_value
    if not (mask_value == NEG_INF or np.isnan(mask_value)):
        raise UnsupportedMaskValue(
            f"softmax needs -inf or NaN masking, got {mask_value!r}"
        )
    data = _check_array("scores", parts.data, 3)
    b, L, n = data.shape
    dtype = np.float64 if np.issubdtype(data.dtype, np.integer) else data.dtype
    _check_memory("softmax_levels", b * L * n * np.dtype(dtype).itemsize)
    # One (b, L, n) buffer: each block's shift goes into it, from a copy made
    # there when the input is integer or NaN-masked; exp and the division
    # then work in place.
    out = np.empty((b * L, n), dtype=dtype)
    rows = data.reshape(b * L, n)
    copy = dtype != data.dtype or np.isnan(mask_value)

    def block(lo, hi):
        x, e = rows[lo:hi], out[lo:hi]
        if copy:
            np.copyto(e, x)
            e[np.isnan(e)] = NEG_INF
            x = e
        # fmax skips NaN, so a slice's max is -inf, or NaN, only when no
        # entry is live. A NaN or +inf beside a live entry survives the
        # shift as NaN and spoils the slice's sum, which is where it is
        # caught; the first such slice is returned.
        m = np.fmax.reduce(x, axis=1, keepdims=True)
        dead = ~(m[:, 0] > NEG_INF)
        if dead.any():
            s, l = divmod(lo + int(np.argmax(dead)), L)
            raise CorruptEncoding(
                f"sample {s}, level {l + 1}: every class is masked out"
            )
        with np.errstate(invalid="ignore"):
            np.subtract(x, m, out=e)
        np.exp(e, out=e)
        total = e.sum(axis=1, keepdims=True)
        if np.isnan(total.sum()):  # any NaN slice sum; no mask is kept
            return lo + int(np.argmax(np.isnan(total[:, 0])))
        e /= total
        return None

    # Every dead slice is reported before any NaN one: a block raises for
    # the first, and returns the second.
    spoiled = [r for r in _for_row_blocks(b * L, n, block) if r is not None]
    if spoiled:
        s, l = divmod(spoiled[0], L)
        raise ParameterError(
            f"sample {s}, level {l + 1}: a live score is NaN or +inf"
        )
    return LevelProbabilities(data=out.reshape(b, L, n))


def naive_decode(probs: LevelProbabilities) -> np.ndarray:
    """Most likely class per level, shape (batch, num_levels).

    The levels are decoded independently, so consecutive entries need
    not form a valid path. Ties go to the smaller class index. Probabilities
    that are neither integer nor real float, or not 3-d, raise
    ``ShapeError``; a NaN probability raises ``ParameterError``.
    """
    data = _check_array("probabilities", probs.data, 3)
    b, L, n = data.shape
    best = np.empty((b, L), dtype=np.intp)

    def block(lo, hi):
        np.argmax(data[lo:hi], axis=2, out=best[lo:hi])
        # argmax picks a slice's first NaN if it has one, so checking the
        # picked entries finds every NaN without a (b, L, n) mask.
        picked = np.take_along_axis(data[lo:hi], best[lo:hi, :, None], axis=2)
        bad = np.isnan(picked[:, :, 0])
        if bad.any():
            s, l = (int(x) for x in np.argwhere(bad)[0] + (lo, 0))
            raise ParameterError(
                f"sample {s}, level {l + 1}, class {int(best[s, l]) + 1}: "
                f"probability is NaN"
            )

    _for_row_blocks(b, L * n, block)
    return best.astype(np.int64)


def _probabilities(enc: TreeEncoding, probs: LevelProbabilities, batch: tuple):
    """``probs.data``, checked to be integer or real float (else
    ``ShapeError``) and of shape ``batch + (L, n)``."""
    data = _check_array("probabilities", probs.data, 3)
    want = batch + (enc.num_levels, enc.num_classes)
    if data.shape != want:
        raise ShapeError(
            f"probabilities of shape {data.shape} do not match "
            f"{want} (samples, levels, classes)"
        )
    return data


def _own_probs(enc: TreeEncoding, data: np.ndarray, first: int, out=None):
    """Each column's own-level probability, (batch, n) in the level layout,
    for the (batch, L, n) probabilities of samples ``first`` on; written
    to ``out`` when given.

    Only the n own-level probabilities per sample are gathered; one that is
    NaN or outside [0, 1] raises ``ParameterError``.
    """
    order = enc._layout.order
    levels = enc.level_of[order].astype(np.intp)
    # One flat gather gives contiguous rows, which np.partition needs to run
    # fast (over strided rows it is ~7x slower). The indices are valid, so
    # "clip" only spares take a buffer.
    flat = data.reshape(data.shape[0], enc.num_levels * enc.num_classes)
    p = np.take(flat, levels * enc.num_classes + order, axis=1, out=out, mode="clip")
    if not (p.min() >= 0 and p.max() <= 1):  # NaN fails both
        s, j = (int(x) for x in np.argwhere(~((p >= 0) & (p <= 1)))[0])
        raise ParameterError(
            f"sample {first + s}, level {levels[j] + 1}, class {order[j] + 1}: "
            f"probability {p[s, j]} is outside [0, 1]"
        )
    return p


def _log(p: np.ndarray) -> np.ndarray:
    """log p in float64, -inf where p is 0."""
    with np.errstate(divide="ignore"):
        return np.log(p, dtype=np.float64)


def _path_scores(enc: TreeEncoding, data: np.ndarray, first: int) -> np.ndarray:
    """Every path's joint log probability, (batch, n) in the encoding's
    level layout, for the (batch, L, n) probabilities of samples ``first``
    on.

    score[:, c] = score[:, parent(c)] + log p[:, level(c), c], level by
    level: the summation order of a root-to-leaf walk.
    """
    _, starts, up, *_ = enc._layout
    score = _log(_own_probs(enc, data, first))
    for d in range(1, enc.num_levels):
        lo, hi = starts[d], starts[d + 1]
        score[:, lo:hi] += np.take(score, up[lo:hi], axis=1)
    return score


def _by_samples(enc: TreeEncoding, b: int, decode) -> list[list[DecodedPath]]:
    """``decode(lo, hi)`` over blocks of samples, joined in sample order.

    A block's working set is a few (samples, n) arrays, and it pays Python
    overhead per level, so each thread takes one block.
    """
    enc._layout  # built once here, not by each block
    parts = _for_row_blocks(b, enc.num_classes, decode, per_thread=True)
    return [paths for part in parts for paths in part]


def _ranked(
    enc: TreeEncoding, primary, key, k: int, score=None, dist=None
) -> list[list[DecodedPath]]:
    """Each sample's k paths smallest by primary, then largest by key (a
    None key leaves ties to the path), then smallest by path, best first.

    All are (batch, n) in the level layout; ``score`` and ``dist`` fill the
    fields of the same name. Only each sample's candidates, its paths no
    worse by primary than the k-th, are read past ``primary``."""
    rank = enc._layout.rank
    b, n = primary.shape
    k = min(k, n)
    # A copy, so the (b, n) array that np.partition returns is freed.
    kth = np.partition(primary, k - 1, axis=1)[:, k - 1 : k].copy()
    # Row-major, as np.nonzero gives them, which is slower on a 2-d mask.
    s, c = np.divmod(np.flatnonzero(primary <= kth), n)
    p, tie = primary[s, c], rank[c] if key is None else -key[s, c]
    # A sample with more than k candidates has a tie at the k-th place. Of
    # the paths at it, keep each whose tie key is no worse than its row's
    # k-th smallest, with the paths ahead of that place at -inf.
    if s.size > b * k:
        ahead_first = np.where(p < kth[s, 0], -np.inf, tie)
        _, rows = _padded(b, s, ahead_first, np.inf)
        keep = ahead_first <= np.partition(rows, k - 1, axis=1)[s, k - 1]
        s, c, p, tie = s[keep], c[keep], p[keep], tie[keep]
    # Paths are distinct, and rank orders them as the paths themselves.
    ranked = np.lexsort((rank[c], tie, p, s))
    top = ranked[np.searchsorted(s, np.arange(b))[:, None] + np.arange(k)]
    s, c = s[top], c[top]
    score = None if score is None else score[s, c]
    return _paths(enc, c, score, None if dist is None else dist[s, c])


def _paths(enc: TreeEncoding, cols, score, dist) -> list[list[DecodedPath]]:
    """The paths ending at the (batch, k) layout columns ``cols``, each
    sample's in the given order, with ``score`` and ``dist`` (same shape,
    or None to leave the field unset)."""
    classes = enc._layout.order[cols]
    blank = np.full(cols.shape, None)
    samples = zip(
        enc.paths[classes].tolist(),
        (enc.level_of[classes] + 1).tolist(),
        (blank if score is None else score).tolist(),
        (blank if dist is None else dist).tolist(),
    )
    return [
        [DecodedPath(tuple(p[:w]), sc, d) for p, w, sc, d in zip(*sample)]
        for sample in samples
    ]


def _padded(b: int, s, values, fill):
    """Entry i's ``values[i]`` in row s[i] (s sorted) of a (b, most entries)
    matrix padded with ``fill``, and each row's first entry, then s.size."""
    first = np.searchsorted(s, np.arange(b + 1))
    rows = np.full((b, np.diff(first).max()), fill)
    rows[s, np.arange(s.size) - first[s]] = values
    return first, rows


def _best(b: int, k: int, s, score):
    """Each of b samples' k best entries: the highest scores, ties to the
    earlier entry.

    Entry i belongs to sample s[i], with s sorted, and has score score[i].
    Returns the (b, at most k) entry numbers, each sample's best first, and
    a mask that is False past the entries of a sample that has fewer.
    """
    # A stable sort per sample, padded with +inf, which sorts after every
    # entry (+inf too, since the entries come first).
    first, negated = _padded(b, s, -score, np.inf)
    top = np.argsort(negated, axis=1, kind="stable")[:, :k]
    return first[:-1, None] + top, top < np.diff(first)[:, None]


def _beam(enc: TreeEncoding, p: np.ndarray, k: int) -> list[list[DecodedPath]]:
    """``beam_decode``'s beam, from the (batch, n) own-level probabilities
    ``p`` in the level layout. Ties go to the smaller path rank.

    Only the candidates' probabilities are logged, and a child's score is
    its parent's plus its own log probability, the sum ``_path_scores``
    makes, so the scores are the same bit for bit.
    """
    _, starts, _, rank, ptr, kids, _ = enc._layout
    b, n = p.shape
    k = min(k, n)
    # Flat candidates, each sample's in path-rank order: the roots first.
    roots = starts[1]
    s = np.repeat(np.arange(b), roots)
    c = np.tile(np.arange(roots), b)
    score = _log(p[:, :roots].ravel())
    kept = []
    while s.size:
        at, real = _best(b, k, s, score)
        at = np.sort(at[real])  # back in (sample, path rank) order
        s, c, score = s[at], c[at], score[at]
        kept.append((s, c, score))
        # The children of every kept path, in path-rank order: those of a
        # path in column order, and a path's subtree ranks before the next.
        count = ptr[c + 1] - ptr[c]
        at = np.repeat(ptr[c] - np.cumsum(count) + count, count)
        c = kids[at + np.arange(at.size)]
        s = np.repeat(s, count)
        score = np.repeat(score, count) + _log(p[s, c])
    # The kept paths hold the global top k, so each sample has at least k.
    s, c, score = (np.concatenate(a) for a in zip(*kept))
    at = np.argsort(s * n + rank[c])
    s, c, score = s[at], c[at], score[at]
    at, _ = _best(b, k, s, score)
    return _paths(enc, c[at], score[at], None)


def beam_decode(
    enc: TreeEncoding,
    probs: LevelProbabilities,
    k: int,
    *,
    length_normalize: bool = False,
) -> list[list[DecodedPath]]:
    """Top-k valid paths per sample by joint per-level log probability.

    A path's score is the sum of the log probabilities of its classes,
    each taken from the level slice of that class's depth; every class
    ends one candidate path. Unnormalized, a width-k beam runs down the
    levels: each keeps a sample's k best paths among the children of the
    ones kept above, and then the kept paths of all levels are ranked
    together. That is exact: log probabilities are at most 0 and a path
    ranks after its ancestors, so every ancestor of a top-k path is itself
    in the top k. With ``length_normalize`` paths are ranked by score /
    length, which is not monotone that way, so all n paths are ranked.
    """
    _check_count("beam width", k)
    data = _probabilities(enc, probs, probs.data.shape[:1])
    if not length_normalize:
        # The gather and check run in blocks on every core. The beam's cost
        # is Python steps per level, not per sample, so it runs once for the
        # whole batch, on this thread.
        enc._layout  # built once here, before any helper thread
        b = data.shape[0]
        p = np.empty((b, enc.num_classes), dtype=data.dtype)
        _for_row_blocks(
            b,
            enc.num_classes,
            lambda lo, hi: _own_probs(enc, data[lo:hi], lo, out=p[lo:hi]),
            per_thread=True,
        )
        return _beam(enc, p, k) if b else []

    def decode(lo, hi):
        score = _path_scores(enc, data[lo:hi], lo)
        length = enc.level_of[enc._layout.order] + 1
        return _ranked(enc, -score / length, None, k, score=score)

    return _by_samples(enc, data.shape[0], decode)


def _scan_levels(enc: TreeEncoding, naive: np.ndarray) -> np.ndarray:
    """Every path's edit distance to each naive sequence, (batch, n) in the
    level layout.

    A path's DP column (distances from each naive prefix to the path) is
    kept as its vertical deltas, each -1, 0 or +1: bit i of ``pv`` (``mv``)
    is set where row i + 1 is one more (less) than row i. Extending a path
    by one class is then Myers's bit-vector step (JACM 46(3), 1999) in
    Hyyro's global form (2001): the top row grows by one per level, so the
    top horizontal delta shifted in is a 1. A word is the narrowest
    unsigned integer with at least L bits, or past 64 levels a Python int,
    whose infinite two's complement keeps the same operations right. Bits
    from L up only carry and shift upwards, so they never reach bit L - 1.
    """
    _, starts, up, *_, col = enc._layout
    b, L = naive.shape
    # A distance between sequences of at most L entries never exceeds L.
    dtype = np.int16 if L < np.iinfo(np.int16).max else np.int32
    words = (np.uint8, np.uint16, np.uint32, np.uint64)
    word = next((w for w in words if np.iinfo(w).bits >= L), object)
    bit = np.array([1 << i for i in range(L)], dtype=word)
    # Every array is class-major, (columns, b), so each gather below copies
    # whole rows. eqs[j, s]: bit i set where naive entry i of sample s is
    # column j's class.
    eqs = np.zeros((enc.num_classes, b), dtype=word)
    np.bitwise_or.at(eqs, (col[naive], np.arange(b)[:, None]), bit)
    # The empty path: i deletions from the first i naive entries.
    pv, mv = np.array((1 << L) - 1, dtype=word), np.array(0, dtype=word)
    score, top = dtype(L), bit[-1]
    dist = np.empty((enc.num_classes, b), dtype=dtype)
    for d in range(L):
        lo, hi = starts[d], starts[d + 1]
        if d:
            parent = up[lo:hi] - starts[d - 1]
            pv, mv = np.take(pv, parent, axis=0), np.take(mv, parent, axis=0)
            score = np.take(dist, up[lo:hi], axis=0)
        eq = eqs[lo:hi]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        # The bottom row, at bit L - 1, is the distance to the whole sequence.
        np.add(score, (ph & top) != 0, out=dist[lo:hi])
        dist[lo:hi] -= (mh & top) != 0
        ph = (ph << 1) | 1
        pv = (mh << 1) | ~(xv | ph)
        mv = ph & xv
    return np.ascontiguousarray(dist.T)


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

    A path is its parent's path plus one class, so a class's DP column
    (edit distances from each prefix of the naive sequence to the path)
    is its parent's column extended by one step, as in a trie. A column
    is held as its vertical deltas in two words of L bits, and one step
    is a dozen word operations (Myers's bit-vector algorithm). Columns
    are computed level by level for the whole batch at once, with only
    two levels of words alive. There is no limit on the batch: besides
    those words, the decoder holds a few (batch, n) arrays.
    """
    _check_count("k", k)
    naive = _check_array("naive sequences", naive, 2, floats=False)
    if naive.shape[1] != enc.num_levels:
        raise ShapeError(
            f"naive sequences of shape {naive.shape} do not match "
            f"{enc.num_levels} levels"
        )
    _check_ids(naive, enc.num_classes)
    data = None if probs is None else _probabilities(enc, probs, naive.shape[:1])

    def decode(lo, hi):
        score = None if data is None else _path_scores(enc, data[lo:hi], lo)
        dist = _scan_levels(enc, naive[lo:hi])
        return _ranked(enc, dist, score, k, score=score, dist=dist)

    return _by_samples(enc, naive.shape[0], decode)
