"""The acceptance gate: one test per advertised guarantee.

Each test runs end to end at its stated tolerance and records a line
for the summary block printed after the run, so a glance shows which
guarantees hold. Wall-clock limits are asserted inside the tests.
"""

import statistics
import time

import numpy as np
import pytest

import oracles
import semtree as st
from helpers import TOY_MASKS, TOY_PARENTS, TOY_PATHS_DISPLAY, random_taxonomy


def median_seconds(*fns, reps):
    """Median seconds of each call; every repetition times them all in turn,
    so a spell of load from elsewhere reaches each of them alike."""
    for fn in fns:
        fn()  # warm-up
    times = [[] for _ in fns]
    for _ in range(reps):
        for fn, spent in zip(fns, times):
            t0 = time.perf_counter_ns()
            fn()
            spent.append(time.perf_counter_ns() - t0)
    return [statistics.median(spent) / 1e9 for spent in times]


def test_c01_toy_encoding_is_golden(criterion):
    with criterion("c01", "toy forest encodes to the golden matrices in under 1s"):
        t0 = time.perf_counter()
        enc = st.encode(st.Taxonomy(parents=TOY_PARENTS))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert enc.num_levels == 3  # derived from the data, not configured
        assert enc.num_classes == 9
        np.testing.assert_array_equal(enc.masks, TOY_MASKS)
        np.testing.assert_array_equal(st.display_ids(enc.paths), TOY_PATHS_DISPLAY)


def test_c02_label_mapping_is_golden(criterion, toy_encoding):
    with criterion("c02", "flat labels map to the golden ancestral path rows"):
        labels = np.array([4, 7, 2, 6, 3]) - 1
        paths = st.map_labels(toy_encoding, labels)
        np.testing.assert_array_equal(
            st.display_ids(paths.data),
            [
                [1, 4, -1],
                [1, 4, 7],
                [2, -1, -1],
                [2, 6, -1],
                [1, 3, -1],
            ],
        )


def test_c03_partition_places_each_score_once(criterion, toy_encoding):
    with criterion("c03", "each score lands once at its level, 18 fills per sample"):
        rng = np.random.default_rng(65_003)
        scores = rng.standard_normal((4, 9), dtype=np.float32)
        parts = st.partition_scores(toy_encoding, scores)
        assert parts.data.shape == (4, 3, 9)
        # Unmasked positions carry the score bit for bit.
        np.testing.assert_array_equal(
            parts.data[:, toy_encoding.level_of, np.arange(9)], scores
        )
        # Everything else is the mask value: 27 - 9 = 18 cells per sample.
        masked = np.broadcast_to(toy_encoding.masks, parts.data.shape)
        assert np.isneginf(parts.data[masked]).all()
        per_sample = np.isneginf(parts.data).reshape(4, -1).sum(axis=1)
        np.testing.assert_array_equal(per_sample, [18, 18, 18, 18])


def test_c04_flatten_keeps_ten_of_fifteen(criterion, toy_encoding):
    with criterion("c04", "flattening keeps 10 of 15 rows in the worked example"):
        rng = np.random.default_rng(65_004)
        scores = rng.standard_normal((5, 9), dtype=np.float32)
        parts = st.partition_scores(toy_encoding, scores)
        paths = st.map_labels(toy_encoding, np.array([4, 7, 2, 6, 3]) - 1)
        flat = st.flatten_for_training(parts, paths)
        assert parts.data.shape[0] * parts.data.shape[1] == 15
        assert flat.num_rows == 10
        np.testing.assert_array_equal(
            st.display_ids(flat.labels), [1, 4, 1, 4, 7, 2, 2, 6, 1, 3]
        )


def test_c05_transforms_match_references_on_random_forests(criterion):
    with criterion(
        "c05", "transforms match reference implementations on 100 random forests"
    ):
        rng = np.random.default_rng(65_005)
        t0 = time.perf_counter()
        for _ in range(100):
            tax = random_taxonomy(rng, max_classes=1000, max_depth=8)
            enc = st.encode(tax)
            n = enc.num_classes
            depths = [oracles.depth_of(tax.parents, c) for c in range(n)]
            members = [
                [c for c in range(n) if depths[c] == l] for l in range(enc.num_levels)
            ]
            b = int(rng.integers(1, 5))
            scores = rng.standard_normal((b, n))
            labels = rng.integers(0, n, size=b)

            parts = st.partition_scores(enc, scores)
            np.testing.assert_array_equal(
                parts.data,
                oracles.partition_elementwise(tax.parents, scores, st.NEG_INF),
            )

            paths = st.map_labels(enc, labels)
            np.testing.assert_array_equal(
                paths.data, oracles.map_labels_elementwise(tax.parents, labels)
            )

            flat = st.flatten_for_training(parts, paths)
            ref_rows, ref_labels, ref_origin = oracles.flatten_elementwise(
                parts.data, paths.data
            )
            np.testing.assert_array_equal(flat.rows, ref_rows)
            np.testing.assert_array_equal(flat.labels, ref_labels)
            np.testing.assert_array_equal(flat.origin, ref_origin)

            probs = st.softmax_levels(parts)
            sample = int(rng.integers(0, b))
            for l in range(enc.num_levels):
                np.testing.assert_allclose(
                    probs.data[sample, l],
                    oracles.softmax_dense(scores[sample], members[l]),
                    rtol=1e-6,
                    atol=0,
                )

            result = st.cross_entropy(flat)
            for i, (s, l) in enumerate(flat.origin):
                want = oracles.cross_entropy_dense(
                    scores[s], members[l], int(flat.labels[i])
                )
                assert result.per_row[i] == pytest.approx(want, rel=1e-6)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0


def test_c06_decoders_match_exhaustive_references(criterion):
    with criterion("c06", "decoders agree with exhaustive references, ties included"):
        rng = np.random.default_rng(65_006)
        for _ in range(15):
            tax = random_taxonomy(rng, max_classes=120, max_depth=6)
            enc = st.encode(tax)
            n = enc.num_classes
            scores = rng.standard_normal((2, n), dtype=np.float32)
            probs = st.softmax_levels(st.partition_scores(enc, scores))
            with np.errstate(divide="ignore"):
                logp = np.log(probs.data.astype(np.float64))

            # Every beam hypothesis is a real ancestral path.
            for sample in st.beam_decode(enc, probs, k=4):
                for hyp in sample:
                    assert list(hyp.classes) == oracles.path_of(
                        tax.parents, hyp.classes[-1]
                    )

            # Full-width beam equals scoring every path, bit for bit.
            decoded = st.beam_decode(enc, probs, k=n)
            for i, sample in enumerate(decoded):
                want = oracles.exhaustive_ranking(tax.parents, logp[i], k=n)
                assert [(h.score, h.classes) for h in sample] == want

            # Nearest-path decoding equals the brute-force scan.
            naive = st.naive_decode(probs)
            got = st.levenshtein_decode(enc, naive, k=1)
            for i in range(2):
                want = oracles.nearest_paths(tax.parents, naive[i].tolist(), k=1)
                assert [(got[i][0].distance, got[i][0].classes)] == want


def test_c07_byte_accounting_matches_closed_forms(criterion, full_scale_tree):
    with criterion("c07", "benchmark byte accounting matches the closed-form sizes"):
        report = st.run_bench(full_scale_tree["encoding"], batch_size=100, reps=3)
        assert report.scores_bytes == 47_063_600
        assert report.partitioned_bytes == 941_272_000
        assert report.labels_bytes == 800
        assert report.path_labels_bytes == 16_000
        assert report.encoding_bytes == 21_178_620
        assert report.partition_ns > 0 and report.map_labels_ns > 0


def test_c08_large_scale_footprint_and_build_time(criterion, full_scale_tree):
    with criterion("c08", "117,659-class encoding stays under 40 MB, built in 30s"):
        enc = full_scale_tree["encoding"]
        assert enc.num_classes == 117_659
        assert enc.num_levels == 20
        assert st.measured_bytes(enc) <= 40 * 1024 * 1024
        assert full_scale_tree["encode_seconds"] < 30.0
        assert st.validate(enc).ok


def test_c09_cost_tracks_tensor_size_not_tree_size(criterion, full_scale_tree):
    with criterion("c09", "transform cost tracks tensor size, not tree size"):
        rng = np.random.default_rng(65_009)
        big = full_scale_tree["encoding"]
        small = st.encode(
            st.generate_synthetic(st.SyntheticTreeSpec(1000, 20, seed=1))
        )
        batch = 1000
        small_labels = rng.integers(0, small.num_classes, size=batch)
        big_labels = rng.integers(0, big.num_classes, size=batch)
        t_small, t_big = median_seconds(
            lambda: st.map_labels(small, small_labels),
            lambda: st.map_labels(big, big_labels),
            reps=15,
        )
        # Output rows are identical in size; a 118x larger tree may not
        # make the gather more than 2x slower.
        assert t_big / t_small <= 2.0

        enc_a = st.encode(st.generate_synthetic(st.SyntheticTreeSpec(2500, 10, seed=2)))
        enc_b = st.encode(st.generate_synthetic(st.SyntheticTreeSpec(5000, 20, seed=3)))
        scores_a = rng.standard_normal((40, 2500), dtype=np.float32)
        scores_b = rng.standard_normal((80, 5000), dtype=np.float32)
        t_a, t_b = median_seconds(
            lambda: st.partition_scores(enc_a, scores_a),
            lambda: st.partition_scores(enc_b, scores_b),
            reps=9,
        )
        size_ratio = (80 * 20 * 5000) / (40 * 10 * 2500)  # 8x the elements
        assert t_b / t_a <= 3.0 * size_ratio


def test_c10_loss_is_well_posed_at_scale(criterion):
    with criterion(
        "c10", "loss is finite and within 1e-6 of a dense reference on 10k rows"
    ):
        rng = np.random.default_rng(65_010)
        rows_checked = 0
        while rows_checked < 10_000:
            tax = random_taxonomy(rng, max_classes=200, max_depth=8)
            enc = st.encode(tax)
            n = enc.num_classes
            depths = [oracles.depth_of(tax.parents, c) for c in range(n)]
            members = [
                [c for c in range(n) if depths[c] == l] for l in range(enc.num_levels)
            ]
            scale = float(rng.choice([1.0, 10.0, 1e3, 3e4]))
            shift = float(rng.uniform(-1.0, 1.0)) * scale
            scores = rng.standard_normal((64, n)) * scale + shift
            labels = rng.integers(0, n, size=64)
            flat = st.flatten_for_training(
                st.partition_scores(enc, scores), st.map_labels(enc, labels)
            )
            result = st.cross_entropy(flat)
            assert np.isfinite(result.value)
            assert np.isfinite(result.per_row).all()
            assert (result.per_row >= 0).all()
            for i, (s, l) in enumerate(flat.origin):
                want = oracles.cross_entropy_dense(
                    scores[s], members[l], int(flat.labels[i])
                )
                assert result.per_row[i] == pytest.approx(want, rel=1e-6, abs=1e-9)
            rows_checked += flat.num_rows
        assert rows_checked >= 10_000
