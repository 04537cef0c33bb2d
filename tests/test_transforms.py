"""Score partitioning, label mapping, flattening, and the training loss."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from helpers import random_taxonomy
from semtree import (
    NEG_INF,
    FlatTrainingSet,
    InconsistentRow,
    InsufficientMemory,
    LabelError,
    ParameterError,
    PathLabels,
    ShapeError,
    SyntheticTreeSpec,
    Taxonomy,
    UnsupportedMaskValue,
    cross_entropy,
    display_ids,
    encode,
    flatten_for_training,
    generate_synthetic,
    map_labels,
    partition_scores,
    softmax_levels,
    transforms,
)

TOY_LABELS_DISPLAY = np.array([4, 7, 2, 6, 3])
TOY_PATH_ROWS_DISPLAY = np.array(
    [
        [1, 4, -1],
        [1, 4, 7],
        [2, -1, -1],
        [2, 6, -1],
        [1, 3, -1],
    ]
)


def toy_scores(batch=5):
    return np.arange(batch * 9, dtype=np.float32).reshape(batch, 9) / 7.0


class TestPartitionScores:
    def test_every_score_placed_once(self, toy_encoding):
        scores = toy_scores(4)
        parts = partition_scores(toy_encoding, scores)
        assert parts.data.shape == (4, 3, 9)
        hits = parts.data == scores[:, None, :]
        np.testing.assert_array_equal(hits.sum(axis=1), np.ones((4, 9)))

    def test_mask_count_per_sample(self, toy_encoding):
        parts = partition_scores(toy_encoding, toy_scores(4))
        masked = np.isneginf(parts.data).reshape(4, -1).sum(axis=1)
        np.testing.assert_array_equal(masked, [18, 18, 18, 18])

    def test_placement_matches_levels(self, toy_encoding):
        scores = toy_scores(2)
        parts = partition_scores(toy_encoding, scores)
        for l in range(3):
            members = np.nonzero(~toy_encoding.masks[l])[0]
            np.testing.assert_array_equal(
                parts.data[:, l, members], scores[:, members]
            )

    def test_matches_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            tax = random_taxonomy(rng, max_classes=120, max_depth=5)
            enc = encode(tax)
            raw = rng.standard_normal((3, enc.num_classes)) * 100
            # Integer scores are promoted to float64; floats keep their dtype.
            for dtype, out in (
                (np.float32, np.float32),
                (np.float64, np.float64),
                (np.int32, np.float64),
            ):
                scores = raw.astype(dtype)
                for fill in (NEG_INF, float("nan"), 0.0, -1e9):
                    got = partition_scores(enc, scores, mask_value=fill)
                    want = oracles.partition_elementwise(
                        tax.parents, scores.astype(out), fill
                    )
                    assert got.data.dtype == out
                    assert np.array_equal(got.data, want, equal_nan=True)

    @pytest.mark.parametrize(
        "dtype", [np.float16, np.float32, np.float64, np.longdouble]
    )
    @pytest.mark.parametrize("fill", [NEG_INF, float("nan"), -7.5])
    def test_equals_column_scatter(self, dtype, fill):
        rng = np.random.default_rng(27)
        for _ in range(5):
            enc = encode(random_taxonomy(rng, max_classes=500, max_depth=7))
            scores = rng.standard_normal((9, enc.num_classes)).astype(dtype)
            got = partition_scores(enc, scores, mask_value=fill)
            want = oracles.partition_by_columns(enc, scores, fill)
            assert got.data.dtype == want.dtype
            assert np.array_equal(got.data, want, equal_nan=True)

    def test_preserves_float32(self, toy_encoding):
        parts = partition_scores(toy_encoding, toy_scores())
        assert parts.data.dtype == np.float32

    def test_preserves_float64(self, toy_encoding):
        parts = partition_scores(toy_encoding, toy_scores().astype(np.float64))
        assert parts.data.dtype == np.float64

    def test_promotes_integers(self, toy_encoding):
        parts = partition_scores(toy_encoding, np.ones((2, 9), dtype=np.int32))
        assert parts.data.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.complex64, bool, object, "<U32"])
    def test_refuses_non_real_dtypes(self, toy_encoding, dtype):
        scores = toy_scores(2).astype(dtype)
        with pytest.raises(ShapeError, match=re.escape(str(np.dtype(dtype)))):
            partition_scores(toy_encoding, scores)

    def test_nan_mask_value(self, toy_encoding):
        parts = partition_scores(toy_encoding, toy_scores(1), mask_value=float("nan"))
        assert np.isnan(parts.data[0, 0, 2])
        assert parts.data[0, 0, 0] == toy_scores(1)[0, 0]

    def test_finite_mask_value(self, toy_encoding):
        parts = partition_scores(toy_encoding, toy_scores(1), mask_value=0.0)
        assert parts.data[0, 0, 2] == 0.0

    def test_positive_infinity_rejected(self, toy_encoding):
        with pytest.raises(UnsupportedMaskValue):
            partition_scores(toy_encoding, toy_scores(1), mask_value=float("inf"))

    def test_wrong_rank(self, toy_encoding):
        with pytest.raises(ShapeError):
            partition_scores(toy_encoding, np.zeros(9))

    def test_wrong_width(self, toy_encoding):
        with pytest.raises(ShapeError):
            partition_scores(toy_encoding, np.zeros((2, 8)))

    def test_non_finite_scores(self, toy_encoding):
        bad = toy_scores(1)
        bad[0, 3] = np.inf
        with pytest.raises(ParameterError):
            partition_scores(toy_encoding, bad)
        bad[0, 3] = np.nan
        with pytest.raises(ParameterError):
            partition_scores(toy_encoding, bad)


class TestMapLabels:
    def test_worked_example(self, toy_encoding):
        labels = TOY_LABELS_DISPLAY - 1
        paths = map_labels(toy_encoding, labels)
        np.testing.assert_array_equal(
            display_ids(paths.data), TOY_PATH_ROWS_DISPLAY
        )

    def test_matches_reference(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            tax = random_taxonomy(rng, max_classes=200)
            enc = encode(tax)
            labels = rng.integers(0, enc.num_classes, size=16)
            got = map_labels(enc, labels)
            want = oracles.map_labels_elementwise(tax.parents, labels)
            np.testing.assert_array_equal(got.data, want)

    def test_output_dtype(self, toy_encoding):
        assert map_labels(toy_encoding, np.array([0])).data.dtype == np.int64

    def test_label_too_large(self, toy_encoding):
        with pytest.raises(LabelError) as info:
            map_labels(toy_encoding, np.array([0, 3, 9]))
        assert info.value.batch_index == 2
        assert info.value.value == 9
        assert info.value.num_classes == 9

    def test_label_negative(self, toy_encoding):
        with pytest.raises(LabelError) as info:
            map_labels(toy_encoding, np.array([-1, 0]))
        assert info.value.batch_index == 0

    def test_float_labels_rejected(self, toy_encoding):
        with pytest.raises(ShapeError):
            map_labels(toy_encoding, np.array([0.0, 1.0]))

    def test_wrong_rank(self, toy_encoding):
        with pytest.raises(ShapeError):
            map_labels(toy_encoding, np.array([[0], [1]]))


class TestFlatten:
    def test_worked_example_counts(self, toy_encoding):
        parts = partition_scores(toy_encoding, toy_scores())
        paths = map_labels(toy_encoding, TOY_LABELS_DISPLAY - 1)
        flat = flatten_for_training(parts, paths)
        assert flat.num_rows == 10
        assert parts.data.shape[0] * parts.data.shape[1] == 15

    def test_worked_example_label_sequence(self, toy_encoding):
        parts = partition_scores(toy_encoding, toy_scores())
        paths = map_labels(toy_encoding, TOY_LABELS_DISPLAY - 1)
        flat = flatten_for_training(parts, paths)
        np.testing.assert_array_equal(
            display_ids(flat.labels), [1, 4, 1, 4, 7, 2, 2, 6, 1, 3]
        )

    def test_rows_are_sample_major(self, toy_encoding):
        parts = partition_scores(toy_encoding, toy_scores())
        paths = map_labels(toy_encoding, TOY_LABELS_DISPLAY - 1)
        flat = flatten_for_training(parts, paths)
        order = [tuple(pair) for pair in flat.origin]
        assert order == sorted(order)

    def test_rows_match_origin(self, toy_encoding):
        parts = partition_scores(toy_encoding, toy_scores())
        paths = map_labels(toy_encoding, TOY_LABELS_DISPLAY - 1)
        flat = flatten_for_training(parts, paths)
        for i, (sample, level) in enumerate(flat.origin):
            np.testing.assert_array_equal(flat.rows[i], parts.data[sample, level])
            assert flat.labels[i] == paths.data[sample, level]

    def test_matches_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            tax = random_taxonomy(rng, max_classes=80, max_depth=5)
            enc = encode(tax)
            scores = rng.standard_normal((4, enc.num_classes), dtype=np.float32)
            labels = rng.integers(0, enc.num_classes, size=4)
            parts = partition_scores(enc, scores)
            paths = map_labels(enc, labels)
            flat = flatten_for_training(parts, paths)
            rows, want_labels, origin = oracles.flatten_elementwise(
                parts.data, paths.data
            )
            np.testing.assert_array_equal(flat.rows, rows)
            np.testing.assert_array_equal(flat.labels, want_labels)
            np.testing.assert_array_equal(flat.origin, origin)

    def test_shape_mismatch(self, toy_encoding):
        parts = partition_scores(toy_encoding, toy_scores(3))
        paths = map_labels(toy_encoding, np.array([0, 1]))
        with pytest.raises(ShapeError):
            flatten_for_training(parts, paths)

    def test_carries_mask_value(self, toy_encoding):
        parts = partition_scores(toy_encoding, toy_scores(), mask_value=float("nan"))
        paths = map_labels(toy_encoding, TOY_LABELS_DISPLAY - 1)
        assert np.isnan(flatten_for_training(parts, paths).mask_value)

    def test_refuses_non_integer_path_labels(self, toy_encoding):
        # Cast, these would keep the padding row of class 4 (6 rows, not 5)
        # and truncate the labels.
        parts = partition_scores(toy_encoding, toy_scores(2))
        paths = map_labels(toy_encoding, np.array([3, 6]))
        bad = PathLabels(data=paths.data.astype(np.float64) + 0.7)
        with pytest.raises(ShapeError, match="path labels must be integers, not float64"):
            flatten_for_training(parts, bad)


def _flat_from(enc, scores, labels, mask_value=NEG_INF):
    parts = partition_scores(enc, scores, mask_value=mask_value)
    return flatten_for_training(parts, map_labels(enc, labels))


class TestCrossEntropy:
    def test_matches_dense_reference(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            tax = random_taxonomy(rng, max_classes=100, max_depth=5)
            enc = encode(tax)
            depths = [oracles.depth_of(tax.parents, c) for c in range(enc.num_classes)]
            scores = rng.standard_normal((4, enc.num_classes), dtype=np.float32)
            labels = rng.integers(0, enc.num_classes, size=4)
            flat = _flat_from(enc, scores, labels)
            result = cross_entropy(flat)
            for i, (sample, level) in enumerate(flat.origin):
                members = [c for c in range(enc.num_classes) if depths[c] == level]
                want = oracles.cross_entropy_dense(
                    scores[sample].astype(np.float64), members, int(flat.labels[i])
                )
                assert result.per_row[i] == pytest.approx(want, rel=1e-6)

    def test_mean_and_sum(self, toy_encoding):
        # The value is the mean; a sum is the per-row losses' own sum.
        flat = _flat_from(toy_encoding, toy_scores(), TOY_LABELS_DISPLAY - 1)
        result = cross_entropy(flat)
        assert result.per_row.shape == (flat.num_rows,)
        assert result.value == result.per_row.mean()

    def test_losses_positive(self, toy_encoding):
        flat = _flat_from(toy_encoding, toy_scores(), TOY_LABELS_DISPLAY - 1)
        assert (cross_entropy(flat).per_row > 0).all()

    def test_stable_for_large_scores(self, toy_encoding):
        scores = toy_scores() * 1e4 + 3e4
        flat = _flat_from(toy_encoding, scores, TOY_LABELS_DISPLAY - 1)
        result = cross_entropy(flat)
        assert np.isfinite(result.per_row).all()
        assert np.isfinite(result.value)

    def test_stable_for_very_negative_scores(self, toy_encoding):
        scores = toy_scores() * 1e4 - 5e4
        flat = _flat_from(toy_encoding, scores, TOY_LABELS_DISPLAY - 1)
        assert np.isfinite(cross_entropy(flat).value)

    def test_rejects_nan_masking(self, toy_encoding):
        labels = TOY_LABELS_DISPLAY - 1
        flat = _flat_from(toy_encoding, toy_scores(), labels, mask_value=float("nan"))
        with pytest.raises(UnsupportedMaskValue):
            cross_entropy(flat)

    def test_rejects_finite_masking(self, toy_encoding):
        # The set's own mask value decides; a 0.0 fill once gave a wrong
        # loss with no error (2.5683 instead of 1.2495 on these scores).
        scores = np.random.default_rng(0).standard_normal((5, 9))
        for fill in (-1e9, 0.0):
            flat = _flat_from(
                toy_encoding, scores, TOY_LABELS_DISPLAY - 1, mask_value=fill
            )
            with pytest.raises(UnsupportedMaskValue):
                cross_entropy(flat)

    @pytest.mark.parametrize("dtype", [bool, np.complex128, object])
    def test_refuses_non_real_rows(self, toy_encoding, dtype):
        # Cast to float64, bool rows would give a mean loss of 2.290 here
        # where 1.054 is right, and complex rows would lose their imaginary
        # parts.
        flat = _flat_from(toy_encoding, toy_scores(), TOY_LABELS_DISPLAY - 1)
        bad = dataclasses.replace(flat, rows=flat.rows.astype(dtype))
        with pytest.raises(ShapeError, match=re.escape(str(np.dtype(dtype)))):
            cross_entropy(bad)

    def test_refuses_non_integer_labels(self, toy_encoding):
        flat = _flat_from(toy_encoding, toy_scores(), TOY_LABELS_DISPLAY - 1)
        bad = dataclasses.replace(flat, labels=flat.labels.astype(np.float64))
        with pytest.raises(ShapeError, match="labels must be integers, not float64"):
            cross_entropy(bad)

    def test_rejects_empty(self):
        flat = FlatTrainingSet(
            rows=np.zeros((0, 4)),
            labels=np.zeros(0, dtype=np.int64),
            origin=np.zeros((0, 2), dtype=np.int64),
        )
        with pytest.raises(ParameterError):
            cross_entropy(flat)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_out_of_range_label_names_its_row(self, label):
        # Only a set built by hand, or read back by read_flat, can hold one.
        flat = FlatTrainingSet(
            rows=np.zeros((3, 2)),
            labels=np.array([0, label, 1], dtype=np.int64),
            origin=np.zeros((3, 2), dtype=np.int64),
        )
        with pytest.raises(LabelError) as info:
            cross_entropy(flat)
        assert info.value.batch_index == 1
        assert info.value.value == label
        assert info.value.num_classes == 2

    def test_masked_label_is_inconsistent(self):
        flat = FlatTrainingSet(
            rows=np.array([[NEG_INF, 0.5]]),
            labels=np.array([0], dtype=np.int64),
            origin=np.array([[0, 0]], dtype=np.int64),
        )
        with pytest.raises(InconsistentRow):
            cross_entropy(flat)

    def test_arbitrary_masks_match_dense_reference(self):
        # -inf patterns that follow no level: the loss sees only live entries.
        rng = np.random.default_rng(25)
        for dtype in (np.float32, np.float64):
            rows = rng.standard_normal((40, 30)).astype(dtype) * 5
            rows[rng.random(rows.shape) < 0.7] = NEG_INF
            labels = rng.integers(0, 30, size=40)
            rows[np.arange(40), labels] = rng.standard_normal(40)
            rows[0] = NEG_INF
            rows[0, labels[0]] = 2.5  # only the label is live
            flat = _hand_built(rows, labels)
            result = cross_entropy(flat)
            assert result.per_row.dtype == np.float64
            assert result.per_row[0] == 0.0
            for i, row in enumerate(rows):
                members = np.flatnonzero(row != NEG_INF)
                want = oracles.cross_entropy_dense(
                    row.astype(np.float64), members, int(labels[i])
                )
                assert result.per_row[i] == pytest.approx(want, rel=1e-6, abs=1e-12)

    def test_non_finite_live_entry_is_inconsistent(self):
        for bad in (float("nan"), float("inf")):
            rows = np.array([[0.5, NEG_INF, 1.0], [NEG_INF, bad, 0.2]])
            flat = _hand_built(rows, [0, 2])
            with pytest.raises(InconsistentRow, match="row 1"):
                cross_entropy(flat)

    def test_peak_memory_below_rows(self):
        tax = generate_synthetic(SyntheticTreeSpec(10_000, 8, seed=0))
        enc = encode(tax)
        rng = np.random.default_rng(26)
        scores = rng.standard_normal((64, enc.num_classes), dtype=np.float32)
        labels = rng.integers(0, enc.num_classes, size=64)
        flat = _flat_from(enc, scores, labels)
        tracemalloc.start()
        try:
            cross_entropy(flat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < flat.rows.nbytes

    @pytest.mark.parametrize(
        "num_rows, n, block, dtype",
        [
            (600, 1000, None, np.float32),  # several blocks of the default size
            (41, 30, 100, np.float64),  # three rows a block, the last block short
            (7, 100, 64, np.float32),  # each row wider than one block
        ],
    )
    def test_blocks_equal_the_whole_matrix(self, monkeypatch, num_rows, n, block, dtype):
        if block is not None:
            monkeypatch.setattr(transforms, "_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(27)
        rows = (rng.standard_normal((num_rows, n)) * 5).astype(dtype)
        rows[rng.random(rows.shape) < 0.6] = NEG_INF
        labels = rng.integers(0, n, size=num_rows)
        rows[np.arange(num_rows), labels] = rng.standard_normal(num_rows)
        result = cross_entropy(_hand_built(rows, labels))
        want = oracles.cross_entropy_whole_matrix(rows, labels)
        np.testing.assert_array_equal(result.per_row, want)
        assert result.value == want.mean()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_toy_blocks_equal_the_whole_matrix(self, monkeypatch, toy_encoding, dtype):
        monkeypatch.setattr(transforms, "_BLOCK_ENTRIES", 2 * 9)
        scores = toy_scores().astype(dtype)
        flat = _flat_from(toy_encoding, scores, TOY_LABELS_DISPLAY - 1)
        want = oracles.cross_entropy_whole_matrix(flat.rows, flat.labels)
        np.testing.assert_array_equal(cross_entropy(flat).per_row, want)

    def test_peak_memory_does_not_grow_with_the_batch(self):
        # Every sample takes the same deepest label, so batch 256 is batch
        # 16 repeated and its blocks hold the same live entries; beyond them
        # it may only add its O(num_rows) arrays.
        tax = generate_synthetic(SyntheticTreeSpec(10_000, 8, seed=0))
        enc = encode(tax)
        scores = np.random.default_rng(28).standard_normal(
            (16, enc.num_classes), dtype=np.float32
        )
        labels = np.full(16, int(np.argmax(enc.level_of)))
        small = _flat_from(enc, scores, labels)
        large = FlatTrainingSet(
            rows=np.tile(small.rows, (16, 1)),
            labels=np.tile(small.labels, 16),
            origin=np.tile(small.origin, (16, 1)),
        )
        peaks = []
        for flat in (small, large):
            tracemalloc.start()
            try:
                cross_entropy(flat)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 64 * (large.num_rows - small.num_rows)


    @pytest.mark.parametrize("rows_per_block", [None, 3])
    def test_pipeline_rows_equal_the_whole_matrix(self, monkeypatch, rows_per_block):
        # The rows of one level are gathered by that level's columns; the
        # losses stay those of a scan of every row, bit for bit.
        rng = np.random.default_rng(29)
        for _ in range(20):
            enc = encode(random_taxonomy(rng, max_classes=300, max_depth=6))
            if rows_per_block:
                monkeypatch.setattr(
                    transforms, "_BLOCK_ENTRIES", rows_per_block * enc.num_classes
                )
            batch = int(rng.integers(1, 50))
            dtype = (np.float32, np.float64)[int(rng.integers(2))]
            scores = (rng.standard_normal((batch, enc.num_classes)) * 4).astype(dtype)
            labels = rng.integers(0, enc.num_classes, size=batch)
            flat = _flat_from(enc, scores, labels)
            want = oracles.cross_entropy_whole_matrix(flat.rows, flat.labels)
            np.testing.assert_array_equal(cross_entropy(flat).per_row, want)

    def test_narrow_rows_after_wide_ones_in_a_block(self, monkeypatch):
        # 1,500 roots (one wide level) and 40 children (a narrow one): a
        # block holds rows of both levels, each gathered by its own
        # level's columns, and every block is gathered.
        parents = np.concatenate((np.full(1_500, -1), np.arange(40)))
        enc = encode(Taxonomy(parents=parents))
        rng = np.random.default_rng(38)
        labels = rng.integers(0, 1_500, size=256)
        labels[::4] = rng.integers(1_500, 1_540, size=64)
        scores = rng.standard_normal((256, enc.num_classes), dtype=np.float32)
        flat = _flat_from(enc, scores, labels)
        gathered = _count_gathers(monkeypatch)
        result = cross_entropy(flat).per_row
        assert gathered and all(gathered)
        want = oracles.cross_entropy_whole_matrix(flat.rows, flat.labels)
        np.testing.assert_array_equal(result, want)

    def test_toy_and_10k_rows_are_gathered(self, monkeypatch, toy_encoding):
        rng = np.random.default_rng(30)
        enc = encode(generate_synthetic(SyntheticTreeSpec(10_000, 8, seed=0)))
        cases = [
            (toy_encoding, toy_scores(), TOY_LABELS_DISPLAY - 1),
            (
                enc,
                rng.standard_normal((64, enc.num_classes), dtype=np.float32),
                rng.integers(0, enc.num_classes, size=64),
            ),
        ]
        gathered = _count_gathers(monkeypatch)
        for enc, scores, labels in cases:
            flat = _flat_from(enc, scores, labels)
            result = cross_entropy(flat)
            assert gathered and all(gathered)
            want = oracles.cross_entropy_whole_matrix(flat.rows, flat.labels)
            np.testing.assert_array_equal(result.per_row, want)

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("change", ["extra", "masked", "moved"])
    def test_a_row_off_its_level_is_scanned(self, monkeypatch, change, first):
        # One row, the first of its level or a later one, gains a live entry,
        # loses one that is not its label, or both, keeping its count: its
        # block is scanned, others are still gathered, and each loss is the
        # scan's.
        monkeypatch.setattr(transforms, "_BLOCK_ENTRIES", 4 * 1_000)
        flat = _flat_1k(32, seed=31)
        at_level = np.flatnonzero(flat.origin[:, 1] == 5)
        i = at_level[0] if first else at_level[at_level.size // 2]
        rows = flat.rows.copy()
        live = np.flatnonzero(rows[i] != NEG_INF)
        if change in ("extra", "moved"):
            rows[i, np.argmax(rows[i] == NEG_INF)] = 0.5
        if change in ("masked", "moved"):
            rows[i, live[live != flat.labels[i]][0]] = NEG_INF
        gathered = _count_gathers(monkeypatch)
        result = cross_entropy(dataclasses.replace(flat, rows=rows)).per_row
        assert 0 < sum(gathered) < -(-flat.num_rows // 4)
        np.testing.assert_array_equal(
            result, oracles.cross_entropy_whole_matrix(rows, flat.labels)
        )
        assert result[i] != cross_entropy(flat).per_row[i]

    @pytest.mark.parametrize("origin", ["zeroed", "shuffled"])
    def test_origins_that_miss_their_rows_change_no_loss(self, monkeypatch, origin):
        monkeypatch.setattr(transforms, "_BLOCK_ENTRIES", 4 * 1_000)
        flat = _flat_1k(32, seed=32)
        if origin == "zeroed":
            wrong = np.zeros_like(flat.origin)
        else:
            wrong = flat.origin[np.random.default_rng(33).permutation(flat.num_rows)]
        result = cross_entropy(dataclasses.replace(flat, origin=wrong)).per_row
        want = oracles.cross_entropy_whole_matrix(flat.rows, flat.labels)
        np.testing.assert_array_equal(result, want)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_gathered_entry_names_its_row(self, monkeypatch, bad):
        # NaN and +inf are live, so these rows are gathered, not scanned.
        flat = _flat_1k(32, seed=34)
        rows = flat.rows.copy()
        at_level = np.flatnonzero(flat.origin[:, 1] == 5)
        for i in at_level[[3, 1]]:
            live = np.flatnonzero(rows[i] != NEG_INF)
            rows[i, live[live != flat.labels[i]][-1]] = bad
        gathered = _count_gathers(monkeypatch)
        with pytest.raises(
            InconsistentRow, match=f"^row {at_level[1]} produced a non-finite"
        ):
            cross_entropy(dataclasses.replace(flat, rows=rows))
        assert gathered and all(gathered)

    def test_a_level_for_every_row_keeps_the_peak_flat(self):
        # As test_peak_memory_does_not_grow_with_the_batch, but every row has
        # a level of its own, so each row's columns would be kept if the loss
        # did not stop keeping them once they number the classes.
        tax = generate_synthetic(SyntheticTreeSpec(10_000, 8, seed=0))
        enc = encode(tax)
        scores = np.random.default_rng(35).standard_normal(
            (16, enc.num_classes), dtype=np.float32
        )
        small = _flat_from(enc, scores, np.full(16, int(np.argmax(enc.level_of))))
        peaks = []
        for copies in (1, 16):
            rows = np.tile(small.rows, (copies, 1))
            own = np.column_stack((np.zeros(len(rows)), np.arange(len(rows))))
            flat = FlatTrainingSet(
                rows=rows,
                labels=np.tile(small.labels, copies),
                origin=own.astype(np.int64),
            )
            tracemalloc.start()
            try:
                cross_entropy(flat)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 64 * 15 * small.num_rows

    @pytest.mark.parametrize("threads", [1, 2, 4, 16])
    def test_peak_stays_flat_at_every_thread_count(self, monkeypatch, threads):
        # Each thread's scratch is made before any block runs, so the peak
        # does not depend on how the threads' blocks overlap.
        monkeypatch.setattr(transforms, "_workers", lambda: threads)
        enc = encode(generate_synthetic(SyntheticTreeSpec(10_000, 8, seed=0)))
        scores = np.random.default_rng(36).standard_normal(
            (16, enc.num_classes), dtype=np.float32
        )
        small = _flat_from(enc, scores, np.full(16, int(np.argmax(enc.level_of))))
        large = FlatTrainingSet(
            rows=np.tile(small.rows, (16, 1)),
            labels=np.tile(small.labels, 16),
            origin=np.tile(small.origin, (16, 1)),
        )
        peaks = [_traced_peak(cross_entropy, flat) for flat in (small, large)]
        assert peaks[1] - peaks[0] <= 64 * (large.num_rows - small.num_rows)

    def test_peak_memory_below_rows_on_many_cores(self, monkeypatch):
        # test_peak_memory_below_rows's set on 16 CPUs: the loss still holds
        # scratch for at most _LOSS_RUNS runs of blocks, not one per CPU,
        # within the estimate run_bench uses (plus the per-row outputs and
        # some Python bookkeeping).
        enc = encode(generate_synthetic(SyntheticTreeSpec(10_000, 8, seed=0)))
        rng = np.random.default_rng(26)
        scores = rng.standard_normal((64, enc.num_classes), dtype=np.float32)
        flat = _flat_from(enc, scores, rng.integers(0, enc.num_classes, size=64))
        peaks = {}
        for threads in (2, 16):
            monkeypatch.setattr(transforms, "_workers", lambda t=threads: t)
            peaks[threads] = _traced_peak(cross_entropy, flat)
        assert peaks[16] < flat.rows.nbytes
        assert peaks[16] <= peaks[2] + 16_000
        widest = int(np.bincount(enc.level_of).max())
        scratch = transforms._loss_scratch_bytes(enc.num_classes, widest)
        assert peaks[16] <= scratch + 64 * flat.num_rows + 64_000

    def test_c08_peak_holds_on_many_cores(self, monkeypatch, full_scale_tree):
        # Two runs' scratch (a block's marks, and float64 values for a
        # row's worth of entries) plus a column index per class: about
        # 3.4 MB at 117,659 classes x 20 levels, batch 16, however many
        # CPUs there are.
        monkeypatch.setattr(transforms, "_workers", lambda: 16)
        enc = full_scale_tree["encoding"]
        rng = np.random.default_rng(37)
        scores = rng.standard_normal((16, enc.num_classes), dtype=np.float32)
        flat = _flat_from(enc, scores, rng.integers(0, enc.num_classes, size=16))
        assert _traced_peak(cross_entropy, flat) <= 4_500_000


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _flat_1k(batch, seed):
    """Pipeline rows of ``batch`` samples at 1,000 classes x 6 levels, whose
    level 5 holds 519 classes."""
    enc = encode(generate_synthetic(SyntheticTreeSpec(1_000, 6, seed=0)))
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((batch, enc.num_classes), dtype=np.float32)
    return _flat_from(enc, scores, rng.integers(0, enc.num_classes, size=batch))


def _count_gathers(monkeypatch):
    """For each block of rows that the loss checks against their levels'
    columns, whether it then gathered them, in order."""
    gathered, real = [], transforms._gather_by_level

    def spy(*args):
        found = real(*args)
        gathered.append(found is not None)
        return found

    monkeypatch.setattr(transforms, "_gather_by_level", spy)
    return gathered


def _hand_built(rows, labels):
    labels = np.asarray(labels, dtype=np.int64)
    return FlatTrainingSet(
        rows=rows,
        labels=labels,
        origin=np.column_stack((np.arange(labels.size), np.zeros_like(labels))),
    )


class TestMemoryGuard:
    """Each large output is checked against the memory available before it
    is made; the limit is patched, so nothing large is allocated."""

    def test_each_output_is_checked_before_it_is_made(self, monkeypatch, toy_encoding):
        scores = toy_scores()  # float32, (5, 9)
        parts = partition_scores(toy_encoding, scores)
        paths = map_labels(toy_encoding, TOY_LABELS_DISPLAY - 1)  # 10 rows kept
        calls = [
            ("partition_scores", lambda: partition_scores(toy_encoding, scores), 540),
            ("softmax_levels", lambda: softmax_levels(parts), 540),
            ("flatten_for_training", lambda: flatten_for_training(parts, paths), 360),
        ]
        for name, call, nbytes in calls:
            monkeypatch.setattr(transforms, "_available_bytes", lambda: nbytes - 1)
            with pytest.raises(
                InsufficientMemory,
                match=f"{name} needs about {nbytes} bytes but only {nbytes - 1} are",
            ):
                call()
            monkeypatch.setattr(transforms, "_available_bytes", lambda: nbytes)
            call()

    def test_unknown_memory_is_not_checked(self, monkeypatch, toy_encoding):
        monkeypatch.setattr(transforms, "_available_bytes", lambda: None)
        assert partition_scores(toy_encoding, toy_scores()).data.shape == (5, 3, 9)

    def test_available_bytes_are_read(self):
        available = transforms._available_bytes()
        assert available is None or available > 0
