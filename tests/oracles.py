"""Reference implementations the tests compare the library against.

Everything here favors obviousness over speed: recursion, per-element
loops, full DP tables. None of it shares code with the package.
"""

import os

import numpy as np

from semtree import (
    CyclicTaxonomy,
    DanglingEdge,
    EdgeListError,
    MultiParentResolution,
    MultipleParents,
    ParsedTaxonomy,
    Taxonomy,
)


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


def partition_by_columns(enc, scores, mask_value):
    """The column-at-a-time scatter ``partition_scores`` used to make."""
    scores = np.asarray(scores)
    if not np.issubdtype(scores.dtype, np.floating):
        scores = scores.astype(np.float64)
    (b, n), L = scores.shape, enc.num_levels
    data = np.full((b, L * n), mask_value, dtype=scores.dtype)
    data[:, enc.level_of.astype(np.intp) * n + np.arange(n)] = scores
    return data.reshape(b, L, n)


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


def softmax_levels_reference(parts):
    """The per-level softmax with its three dense temporaries: the shift,
    its exponential and the quotient."""
    data = parts.data
    if np.isnan(parts.mask_value):
        data = np.where(np.isnan(data), -np.inf, data)
    m = data.max(axis=2, keepdims=True)
    e = np.exp(data - m)
    return e / e.sum(axis=2, keepdims=True)


def cross_entropy_dense(scores_row, members, label):
    """Cross entropy from a dense sub-vector, no masking involved."""
    sub = np.array([scores_row[c] for c in members], dtype=np.float64)
    m = sub.max()
    lse = np.log(np.exp(sub - m).sum()) + m
    return float(lse - np.float64(scores_row[label]))


def cross_entropy_whole_matrix(rows, labels):
    """Per-row losses from one pass over all rows at once: every live
    (not -inf) entry gathered as float64 and each row's segment reduced,
    so each row is summed in the same order as by a blocked pass."""
    num_rows, n = rows.shape
    live = np.flatnonzero(rows != -np.inf)
    starts = np.searchsorted(live, np.arange(num_rows) * n)
    vals = np.ravel(rows)[live].astype(np.float64)
    m = np.maximum.reduceat(vals, starts)
    vals = vals - np.repeat(m, np.diff(starts, append=vals.size))
    lse = np.log(np.add.reduceat(np.exp(vals), starts)) + m
    return lse - rows[np.arange(num_rows), labels].astype(np.float64)


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


def scan_levels_reference(enc, naive):
    """Every path's edit distance to each naive sequence, (batch, n) in the
    encoding's level layout: the trie-shared int16 DP that the decoder used
    before its bit-parallel scan, L + 1 cells per (sample, path)."""
    order, starts, up, *_ = enc._layout
    b, L = naive.shape
    # A cell is an edit distance between sequences of at most L entries, so
    # it never exceeds L, or L + 1 before a minimum.
    dtype = np.int16 if L < np.iinfo(np.int16).max else np.int32
    seq = naive.T[:, :, None]
    dist = np.empty((b, enc.num_classes), dtype=dtype)
    # The empty path's row, at column -1 (the roots' parent): i deletions
    # from the first i naive entries.
    rows = np.broadcast_to(np.arange(L + 1, dtype=dtype)[:, None, None], (L + 1, b, 1))
    for d in range(L):
        lo, hi = starts[d], starts[d + 1]
        cls = order[lo:hi]
        # rows[i, s, j]: distance from sample s's first i entries to path j.
        prev = np.take(rows, up[lo:hi] - (starts[d - 1] if d else -1), axis=2)
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
    return dist


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


def parse_edge_list_reference(source, policy="first"):
    """Edge-list parsing one line at a time, with dicts and sets.

    Same results and errors as ``semtree.parse_edge_list``, which must
    match it; the cycle check walks up from each class in id order.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as f:
            lines = f.readlines()
    else:
        lines = list(source)

    assignment = {}  # child id -> parent id, -1 for root
    order = []
    parents_seen = set()
    resolutions = []

    def parse_id(token, lineno):
        try:
            value = int(token)
        except ValueError:
            raise EdgeListError(
                f"line {lineno}: {token!r} is not an integer class id"
            ) from None
        if value < 1:
            raise EdgeListError(f"line {lineno}: class ids start at 1, got {value}")
        return value

    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) > 2:
            raise EdgeListError(
                f"line {lineno}: expected 'child parent' or a bare root id, "
                f"got {len(tokens)} fields"
            )
        child = parse_id(tokens[0], lineno)
        parent = parse_id(tokens[1], lineno) if len(tokens) == 2 else None
        key = -1 if parent is None else parent
        if child in assignment:
            if assignment[child] == key:
                raise EdgeListError(
                    f"line {lineno}: duplicate declaration of class {child}"
                )
            if policy == "reject":
                raise MultipleParents(
                    f"line {lineno}: class {child} already has "
                    f"{'a parent' if assignment[child] != -1 else 'a root line'}, "
                    f"cannot also assign "
                    f"{'parent ' + str(parent) if parent is not None else 'root'}"
                )
            resolutions.append(
                MultiParentResolution(
                    child=child - 1,
                    kept=assignment[child] - 1 if assignment[child] != -1 else -1,
                    dropped=key - 1 if key != -1 else -1,
                )
            )
            continue
        assignment[child] = key
        order.append(child)
        if parent is not None:
            parents_seen.add(parent)

    if not assignment:
        raise EdgeListError("edge list declares no classes")
    undeclared = parents_seen - assignment.keys()
    if undeclared:
        p = min(undeclared)
        child = next(c for c in order if assignment[c] == p)
        raise DanglingEdge(
            f"parent {p} of class {child} is never declared as a class"
        )
    n = len(assignment)
    if set(assignment) != set(range(1, n + 1)):
        missing = min(set(range(1, n + 1)) - set(assignment))
        raise EdgeListError(
            f"class ids must be contiguous from 1: {n} classes declared "
            f"but id {missing} is missing"
        )

    parents = [-1] * n
    for child, key in assignment.items():
        if key != -1:
            parents[child - 1] = key - 1
    named = cycle_named(parents)
    if named is not None:
        raise CyclicTaxonomy(f"cycle through class {named + 1}")
    return ParsedTaxonomy(
        taxonomy=Taxonomy(parents=np.array(parents)),
        resolutions=tuple(resolutions),
    )


def write_edge_list_reference(taxonomy, path):
    """The edge-list writer as one write per class."""
    parents = taxonomy.parents
    with open(path, "w", encoding="utf-8") as f:
        for c in range(taxonomy.num_classes):
            p = int(parents[c])
            if p == -1:
                f.write(f"{c + 1}\n")
            else:
                f.write(f"{c + 1}\t{p + 1}\n")


def generate_synthetic_reference(n, L, seed):
    """``semtree.generate_synthetic``'s parents, drawing each depth with a
    weight list rebuilt for every class and a float running sum.
    ``n >= L >= 1``."""
    parents = np.full(n, -1, dtype=np.int32)
    if L == 1:
        return parents
    for d in range(1, L):
        parents[d] = d - 1

    rng = np.random.default_rng(seed)
    pools = [[d] for d in range(L - 1)]
    for c in range(L, n):
        weights = [len(pool) for pool in pools]
        r = rng.random() * sum(weights)
        acc = 0.0
        d = L - 2
        for cand, w in enumerate(weights):
            acc += w
            if r < acc:
                d = cand
                break
        pool = pools[d]
        parents[c] = pool[int(rng.integers(len(pool)))]
        if d + 1 <= L - 2:
            pools[d + 1].append(c)
    return parents


def validate_reference(enc):
    """``semtree.validate``'s report as (kind, where, message) triples.

    Whole-matrix form: builds the (n, L) masks of real and in-range
    path entries and compares each child's path row with its parent's.
    """
    out = []
    add = out.append
    n, L = enc.num_classes, enc.num_levels
    masks, paths, level_of = enc.masks, enc.paths, enc.level_of

    level_ok = (level_of >= 0) & (level_of < L)
    for c in np.nonzero(~level_ok)[0]:
        add((
            "level-range",
            (int(c),),
            f"class {c + 1} has depth {int(level_of[c])}, outside [0, {L})",
        ))
    if out:
        return out

    unmask_counts = (~masks).sum(axis=0)
    for c in np.nonzero(unmask_counts != 1)[0]:
        add((
            "unmask-count",
            (int(c),),
            f"class {c + 1} is unmasked in {int(unmask_counts[c])} "
            f"level rows, expected exactly 1",
        ))
    wrong_level = masks[level_of, np.arange(n)]
    for c in np.nonzero(wrong_level)[0]:
        add((
            "level-mismatch",
            (int(c),),
            f"class {c + 1} is masked at its own depth level "
            f"{int(level_of[c]) + 1}",
        ))

    cols = np.arange(L)[None, :]
    real = cols <= level_of[:, None]
    in_range = (paths >= 0) & (paths < n)
    for c, l in zip(*np.nonzero(real & ~in_range)):
        add((
            "path-range",
            (int(c), int(l)),
            f"path row {c + 1} has non-class entry {int(paths[c, l])} "
            f"at level {l + 1}",
        ))
    for c, l in zip(*np.nonzero(~real & (paths != -1))):
        add((
            "path-pad-tail",
            (int(c), int(l)),
            f"path row {c + 1} should be padding from level "
            f"{int(level_of[c]) + 2} on, found {int(paths[c, l])} "
            f"at level {l + 1}",
        ))
    endpoint = paths[np.arange(n), level_of]
    for c in np.nonzero(endpoint != np.arange(n))[0]:
        add((
            "path-endpoint",
            (int(c),),
            f"path row {c + 1} ends in {int(endpoint[c]) + 1} "
            f"instead of the class itself",
        ))

    deep = np.nonzero(level_of > 0)[0]
    if deep.size:
        par = paths[deep, level_of[deep] - 1]
        par_valid = (par >= 0) & (par < n)
        good = deep[par_valid]
        par = par[par_valid].astype(np.intp)
        depth_ok = level_of[par] == level_of[good] - 1
        shared = cols < level_of[good][:, None]
        rows_equal = np.all(~shared | (paths[good] == paths[par]), axis=1)
        for c, p in zip(good[~(depth_ok & rows_equal)], par[~(depth_ok & rows_equal)]):
            add((
                "prefix",
                (int(c), int(p)),
                f"path row {c + 1} does not extend the path of its "
                f"parent {p + 1}",
            ))

    # Every shared path is scanned for, whatever came before.
    for l in range(L):
        members = np.nonzero(~masks[l])[0]
        if members.size == 0:
            continue
        in_row = ~masks[l]
        sub = paths[members]
        strict = cols < level_of[members][:, None]
        entry_ok = strict & (sub >= 0) & (sub < n)
        hits = np.zeros_like(entry_ok)
        hits[entry_ok] = in_row[sub[entry_ok]]
        for i, j in zip(*np.nonzero(hits)):
            a, b = int(sub[i, j]), int(members[i])
            add((
                "shared-path",
                (l, a, b),
                f"classes {a + 1} and {b + 1} lie on one ancestral "
                f"path but are both unmasked at level {l + 1}",
            ))
    return out
