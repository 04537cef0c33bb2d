"""The benchmark's workloads: fixed shapes, seeded inputs, one pipeline each.

Every pipeline is written once, as one function that reaches the
library only through ``api``. ``PUBLIC`` binds ``api`` to the public
semtree names themselves; the traced run binds it to wrappers that time
each call (see ``spans.py``). A later API change re-points one pipeline
function and nothing else.

Outputs are checked after the timer stops, against references this
file computes on its own in float64 and against ``tests/oracles.py``.
"""

import math
import os
from types import SimpleNamespace

import numpy as np

import oracles
import semtree
from semtree import fileio

PUBLIC = SimpleNamespace(
    SyntheticTreeSpec=semtree.SyntheticTreeSpec,
    generate_synthetic=semtree.generate_synthetic,
    encode=semtree.encode,
    validate=semtree.validate,
    partition_scores=semtree.partition_scores,
    map_labels=semtree.map_labels,
    flatten_for_training=semtree.flatten_for_training,
    cross_entropy=semtree.cross_entropy,
    softmax_levels=semtree.softmax_levels,
    naive_decode=semtree.naive_decode,
    beam_decode=semtree.beam_decode,
    levenshtein_decode=semtree.levenshtein_decode,
    parse_edge_list=semtree.parse_edge_list,
    write_encoding=fileio.write_encoding,
    read_encoding=fileio.read_encoding,
)

K = 5  # top-k width of both decoders
# Every workload runs on one fixed tree, as the tests' c08 tree does; the
# seed varies the batches and the file. A seeded tree would move the
# mean class depth, and with it the rows of a train step, by 7%.
TREE_SEED = 0
CHECK_ROWS = 2  # rows of each decoded batch compared against the oracles
LOSS_RTOL, LOSS_ATOL = 1e-6, 1e-9  # acceptance criterion c10
# Decoders work from float32 probabilities: each level's log-probability
# may be a few float32 ulps off the float64 reference, summed over levels.
SCORE_RTOL = 1e-6
SCORE_ATOL_PER_LEVEL = 4 * float(np.finfo(np.float32).eps)


# -- pipelines ---------------------------------------------------------------


def train_step(api, enc, scores, labels):
    """Flat scores and labels to the mean per-level cross entropy."""
    parts = api.partition_scores(enc, scores)
    paths = api.map_labels(enc, labels)
    return api.cross_entropy(api.flatten_for_training(parts, paths)).value


def beam_batch(api, enc, scores):
    """Flat scores to the top-k paths of each sample by beam search."""
    probs = api.softmax_levels(api.partition_scores(enc, scores))
    return api.beam_decode(enc, probs, K)


def lev_batch(api, enc, scores):
    """Flat scores to the top-k paths nearest each sample's naive sequence."""
    probs = api.softmax_levels(api.partition_scores(enc, scores))
    return api.levenshtein_decode(enc, api.naive_decode(probs), K, probs=probs)


def ingest(api, edge_path, enc_path):
    """Edge-list file to a validated encoding read back from disk."""
    taxonomy = api.parse_edge_list(edge_path).taxonomy
    enc = api.encode(taxonomy)
    api.write_encoding(enc, enc_path)
    return taxonomy, enc, api.read_encoding(enc_path)


def build_tree(api, num_classes, num_levels):
    spec = api.SyntheticTreeSpec(num_classes, num_levels, seed=TREE_SEED)
    taxonomy = api.generate_synthetic(spec)
    return taxonomy, api.encode(taxonomy)


# -- independent references --------------------------------------------------


def reference_depths(parents):
    """Depth of every class by pointer jumping, without semtree.encode."""
    depth = np.zeros(parents.size, dtype=np.int64)
    node = parents.astype(np.int64)
    while (up := node >= 0).any():
        depth[up] += 1
        node[up] = parents[node[up]]
    return depth


def level_lse(scores, depth, num_levels):
    """float64 log-sum-exp of each sample's scores over each level, (b, L)."""
    order = np.argsort(depth, kind="stable")
    starts = np.searchsorted(depth[order], np.arange(num_levels))
    sizes = np.diff(np.append(starts, depth.size))
    s = scores[:, order].astype(np.float64)
    m = np.maximum.reduceat(s, starts, axis=1)
    e = np.exp(s - np.repeat(m, sizes, axis=1))
    return np.log(np.add.reduceat(e, starts, axis=1)) + m


def ancestry(parents, c):
    path = []
    while c >= 0:
        path.append(int(c))
        c = parents[c]
    return path[::-1]


def rankings_match(got, want, num_levels):
    """Compare ranked (distance, score, classes) triples with a float tolerance.

    ``want`` is the oracle's ranking, longer than ``got`` so that a tie
    across the cut-off is visible. Position j must hold the oracle's
    distance and score, and a path the oracle ranks at that score.
    """
    atol = SCORE_ATOL_PER_LEVEL * num_levels

    def close(a, b):
        return math.isclose(a, b, rel_tol=SCORE_RTOL, abs_tol=atol)

    if len(got) != K or len({c for _, _, c in got}) != K:
        return False
    for (d, s, c), (wd, ws, _) in zip(got, want):
        if d != wd or not close(s, ws):
            return False
        if not any(c == wc for xd, xs, wc in want if xd == d and close(xs, ws)):
            return False
    return True


# -- workloads ---------------------------------------------------------------


class Train:
    """One train step at c08 scale: transforms do nearly all the work."""

    items = "samples"

    def __init__(self, num_classes, num_levels, batch, pool):
        self.n, self.L, self.batch, self.pool = num_classes, num_levels, batch, pool
        self.items_per_op = batch

    def setup(self, api, seed, workdir):
        self.taxonomy, self.enc = build_tree(api, self.n, self.L)
        rng = np.random.default_rng(seed)
        inputs = [
            (
                rng.standard_normal((self.batch, self.n), dtype=np.float32),
                rng.integers(0, self.n, size=self.batch),
            )
            for _ in range(self.pool)
        ]
        # A batch's cost and memory follow its training rows, the sum of
        # its labels' path lengths. Batch 0 serves the warm-up and the peak
        # pass, so make it the batch with the median number of rows.
        rows = [int((self.enc.level_of[labels] + 1).sum()) for _, labels in inputs]
        median = int(np.argsort(rows)[self.pool // 2])
        inputs.insert(0, inputs.pop(median))
        self.inputs = inputs

    def op(self, api, i):
        return train_step(api, self.enc, *self.inputs[i % self.pool])

    def build_references(self):
        parents = self.taxonomy.parents
        depth = reference_depths(parents)
        self.expected = []
        for scores, labels in self.inputs:
            lse = level_lse(scores, depth, self.L)
            rows = [
                lse[i, d] - np.float64(scores[i, c])
                for i, y in enumerate(labels)
                for d, c in enumerate(ancestry(parents, y))
            ]
            self.expected.append(float(np.mean(rows)))

    def check(self, i, loss):
        want = self.expected[i % self.pool]
        return math.isclose(loss, want, rel_tol=LOSS_RTOL, abs_tol=LOSS_ATOL)


class Infer:
    """One batch decoded by one pipeline: the per-sample decoder loops dominate."""

    items = "samples"

    def __init__(self, pipeline, num_classes, num_levels, batch, pool):
        self.pipeline = pipeline
        self.n, self.L, self.batch, self.pool = num_classes, num_levels, batch, pool
        self.items_per_op = batch

    def setup(self, api, seed, workdir):
        self.taxonomy, self.enc = build_tree(api, self.n, self.L)
        rng = np.random.default_rng(seed)
        self.inputs = [
            rng.standard_normal((self.batch, self.n), dtype=np.float32)
            for _ in range(self.pool)
        ]
        self.rows = [
            np.sort(rng.choice(self.batch, size=CHECK_ROWS, replace=False))
            for _ in range(self.pool)
        ]

    def op(self, api, i):
        return self.pipeline(api, self.enc, self.inputs[i % self.pool])

    def build_references(self):
        parents = self.taxonomy.parents
        depth = reference_depths(parents)
        cols = np.arange(self.n)
        self.expected = []
        for scores, rows in zip(self.inputs, self.rows):
            lse = level_lse(scores[rows], depth, self.L)
            wants = []
            for r, lse_r in zip(rows, lse):
                logp = np.full((self.L, self.n), -np.inf)
                logp[depth, cols] = scores[r] - lse_r[depth]
                if self.pipeline is beam_batch:
                    ranked = oracles.exhaustive_ranking(parents, logp, K + 5)
                    wants.append([(None, s, p) for s, p in ranked])
                else:
                    naive = np.argmax(logp, axis=1).tolist()
                    wants.append(oracles.nearest_paths(parents, naive, K + 5, logp))
            self.expected.append(wants)

    def check(self, i, decoded):
        if len(decoded) != self.batch:
            return False
        for r, want in zip(self.rows[i % self.pool], self.expected[i % self.pool]):
            got = [(h.distance, h.score, h.classes) for h in decoded[r]]
            if not rankings_match(got, want, self.L):
                return False
        return True


class Ingest:
    """Edge list to validated encoding file: tensor transforms stay idle."""

    items = "classes"

    def __init__(self, num_classes, num_levels):
        self.n, self.L = num_classes, num_levels
        self.items_per_op = num_classes

    def setup(self, api, seed, workdir):
        self.taxonomy, self.enc = build_tree(api, self.n, self.L)
        self.edge_path = os.path.join(workdir, "classes.edges")
        self.enc_path = os.path.join(workdir, "classes.htre")
        parents = self.taxonomy.parents.tolist()
        with open(self.edge_path, "w", encoding="utf-8") as f:
            for c in np.random.default_rng(seed).permutation(self.n).tolist():
                p = parents[c]
                f.write(f"{c + 1}\n" if p < 0 else f"{c + 1}\t{p + 1}\n")

    def op(self, api, i):
        return ingest(api, self.edge_path, self.enc_path)

    def build_references(self):
        self.depth = reference_depths(self.taxonomy.parents)

    def check(self, i, out):
        taxonomy, enc, read_back = out
        return (
            np.array_equal(taxonomy.parents, self.taxonomy.parents)
            and np.array_equal(enc.level_of, self.depth)
            and read_back == enc
        )


# The ROADMAP's fixed shapes: c08 is 117,659 classes over 20 levels.
WORKLOADS = {
    "train-c08": Train(117_659, 20, batch=16, pool=16),
    "infer-beam-10k": Infer(beam_batch, 10_000, 8, batch=64, pool=4),
    "infer-lev-10k": Infer(lev_batch, 10_000, 8, batch=64, pool=4),
    "ingest-c08": Ingest(117_659, 20),
}
