"""Reference implementations the tests compare the library against.

Everything here favors obviousness over speed: recursion, per-element
loops, full DP tables. None of it shares code with the package.
"""

import numpy as np


def depth_of(parents, c):
    p = int(parents[c])
    return 0 if p == -1 else depth_of(parents, p) + 1


def cycle_named(parents):
    """The class a cycle error names, or None for a forest.

    Walks up from each class in id order; the first walk that never
    reaches a root names the first class it visits twice.
    """
    for start in range(len(parents)):
        seen = []
        c = start
        while c != -1 and c not in seen:
            seen.append(c)
            c = int(parents[c])
        if c != -1:
            return c
    return None


def path_of(parents, c):
    p = int(parents[c])
    return [c] if p == -1 else path_of(parents, p) + [c]


def num_levels_of(parents):
    return max(depth_of(parents, c) for c in range(len(parents))) + 1


def build_masks(parents):
    n = len(parents)
    L = num_levels_of(parents)
    masks = [[True] * n for _ in range(L)]
    for c in range(n):
        masks[depth_of(parents, c)][c] = False
    return np.array(masks)


def build_paths(parents, pad=-1):
    n = len(parents)
    L = num_levels_of(parents)
    rows = []
    for c in range(n):
        p = path_of(parents, c)
        rows.append(p + [pad] * (L - len(p)))
    return np.array(rows)


def partition_elementwise(parents, scores, mask_value):
    scores = np.asarray(scores)
    b = scores.shape[0]
    n = len(parents)
    L = num_levels_of(parents)
    depths = [depth_of(parents, c) for c in range(n)]
    out = np.empty((b, L, n), dtype=scores.dtype)
    for i in range(b):
        for l in range(L):
            for c in range(n):
                out[i, l, c] = scores[i, c] if depths[c] == l else mask_value
    return out


def map_labels_elementwise(parents, labels, pad=-1):
    L = num_levels_of(parents)
    rows = []
    for y in labels:
        p = path_of(parents, int(y))
        rows.append(p + [pad] * (L - len(p)))
    return np.array(rows)


def flatten_elementwise(parts, path_labels, pad=-1):
    rows, labels, origin = [], [], []
    b, L, _ = parts.shape
    for i in range(b):
        for l in range(L):
            if path_labels[i][l] != pad:
                rows.append(parts[i, l])
                labels.append(path_labels[i][l])
                origin.append((i, l))
    return np.array(rows), np.array(labels), np.array(origin)


def softmax_dense(scores_row, members):
    """Softmax over a dense sub-vector, scattered back into a full row."""
    sub = np.array([scores_row[c] for c in members], dtype=np.float64)
    e = np.exp(sub - sub.max())
    p = e / e.sum()
    full = np.zeros(len(scores_row), dtype=np.float64)
    for c, v in zip(members, p):
        full[c] = v
    return full


def cross_entropy_dense(scores_row, members, label):
    """Cross entropy from a dense sub-vector, no masking involved."""
    sub = np.array([scores_row[c] for c in members], dtype=np.float64)
    m = sub.max()
    lse = np.log(np.exp(sub - m).sum()) + m
    return float(lse - np.float64(scores_row[label]))


def joint_log_prob(logp, path):
    """Per-level log probabilities summed left to right, like the decoders."""
    s = float(logp[0, path[0]])
    for d in range(1, len(path)):
        s = s + float(logp[d, path[d]])
    return s


def exhaustive_ranking(parents, logp, k, length_normalize=False):
    """Every class's full path, scored and ranked like the beam decoder."""
    hyps = []
    for c in range(len(parents)):
        path = path_of(parents, c)
        hyps.append((joint_log_prob(logp, path), tuple(path)))
    if length_normalize:
        hyps.sort(key=lambda h: (-h[0] / len(h[1]), h[1]))
    else:
        hyps.sort(key=lambda h: (-h[0], h[1]))
    return hyps[:k]


def lev_table(a, b):
    """Textbook full-matrix edit distance."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[m][n]


def nearest_paths(parents, seq, k, logp=None):
    """Rank every class's path by edit distance to seq, like the decoder.

    Returns (distance, path) or (distance, score, path) tuples in rank
    order, ties broken by score (when given) then lexicographically.
    """
    cands = []
    for c in range(len(parents)):
        path = path_of(parents, c)
        d = lev_table(seq, path)
        if logp is None:
            cands.append((d, tuple(path)))
        else:
            cands.append((d, -joint_log_prob(logp, path), tuple(path)))
    cands.sort()
    if logp is None:
        return cands[:k]
    return [(d, -neg, path) for d, neg, path in cands[:k]]


def csv_size_error(path, noun, fields, cap, width=None):
    """The refusal a CSV size check gives, or None, one line at a time.

    Skips blank and ``#`` comment lines, counts data lines times the
    first one's ``fields``, and with ``width`` names the first data line
    of another width.
    """
    rows = cols = 0
    with open(path, "rb") as f:
        for number, line in enumerate(f, 1):
            data = line.split(b"#", 1)[0]
            if not data.strip():
                continue
            if not cols or width is not None:
                cols = fields(data)
            if width is not None and cols != width:
                return f"{path}: line {number} holds {cols} {noun}, expected {width}"
            rows += 1
            if rows * cols > cap:
                return (
                    f"{path}: CSV holds at most {cap} {noun}, count reached "
                    f"{rows * cols}; use the binary format"
                )
    return None
