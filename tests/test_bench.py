"""Benchmark harness: accounting formulas, timing fields, guard rails."""

import numpy as np
import pytest

from semtree import (
    InsufficientMemory,
    ParameterError,
    SyntheticTreeSpec,
    encode,
    generate_synthetic,
    run_bench,
)
from semtree import bench, transforms


@pytest.fixture(scope="module")
def small_encoding():
    return encode(generate_synthetic(SyntheticTreeSpec(300, 6, seed=8)))


class TestAccounting:
    def test_scores_bytes(self):
        assert bench.scores_bytes(100, 117_659) == 47_063_600

    def test_partitioned_bytes(self):
        assert bench.partitioned_bytes(100, 20, 117_659) == 941_272_000

    def test_labels_bytes(self):
        assert bench.labels_bytes(100) == 800

    def test_path_labels_bytes(self):
        assert bench.path_labels_bytes(100, 20) == 16_000


class TestRunBench:
    def test_report_fields(self, small_encoding):
        report = run_bench(small_encoding, batch_size=32, reps=3, seed=1)
        assert report.num_classes == 300
        assert report.num_levels == 6
        assert report.scores_bytes == 32 * 300 * 4
        assert report.partitioned_bytes == 32 * 6 * 300 * 4
        assert report.labels_bytes == 32 * 8
        assert report.path_labels_bytes == 32 * 6 * 8
        assert report.encoding_bytes == 9 * 6 * 300
        assert report.partition_ns > 0
        assert report.map_labels_ns > 0
        assert report.loss_ns > 0

    def test_deterministic_inputs(self, small_encoding):
        a = run_bench(small_encoding, 8, 3, seed=5)
        b = run_bench(small_encoding, 8, 3, seed=5)
        assert a.scores_bytes == b.scores_bytes

    def test_too_few_reps(self, small_encoding):
        with pytest.raises(ParameterError):
            run_bench(small_encoding, 8, 2)

    def test_bad_batch(self, small_encoding):
        with pytest.raises(ParameterError):
            run_bench(small_encoding, 0, 3)

    @pytest.mark.parametrize(
        "batch, reps",
        [(8, 3.5), (8, np.float64(3.0)), (8.0, 3), ("8", 3), (None, 3), (True, 3), (8, True)],
    )
    def test_non_integer_counts(self, small_encoding, batch, reps):
        with pytest.raises(ParameterError, match="integer"):
            run_bench(small_encoding, batch, reps)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_seeds_that_are_not_counts(self, small_encoding, seed):
        # -1 failed inside numpy and True passed as 1.
        with pytest.raises(ParameterError, match="seed must be an integer of at least 0"):
            run_bench(small_encoding, 8, 3, seed=seed)

    def test_memory_guard(self, small_encoding):
        with pytest.raises(InsufficientMemory, match="available"):
            run_bench(small_encoding, 10**12, 3)

    def test_memory_estimate_follows_the_blocked_loss(self, small_encoding, monkeypatch):
        # The scores, the partitioned tensor and the flattened rows; no
        # longer a third tensor's worth for the loss, whose scratch is a
        # fixed size at any batch.
        batch, n, L = 2000, small_encoding.num_classes, small_encoding.num_levels
        scores, parts = bench.scores_bytes(batch, n), bench.partitioned_bytes(batch, L, n)
        new = scores + 2 * parts
        old = scores + 3 * parts
        assert new < old
        monkeypatch.setattr(transforms, "_available_bytes", lambda: new - 1)
        with pytest.raises(InsufficientMemory, match=f"{new:,} bytes"):
            run_bench(small_encoding, batch, 3)
        monkeypatch.setattr(transforms, "_available_bytes", lambda: old - 1)
        assert run_bench(small_encoding, batch, 3).loss_ns > 0


class TestRendering:
    def test_table_lists_every_number(self, small_encoding):
        report = run_bench(small_encoding, 8, 3, seed=2)
        table = report.as_table()
        for needle in (
            "classes",
            "partition median",
            "loss median",
            str(report.partitioned_bytes),
        ):
            assert needle in table

    def test_kv_is_machine_friendly(self, small_encoding):
        report = run_bench(small_encoding, 8, 3, seed=2)
        lines = report.as_kv().splitlines()
        assert f"partitioned_bytes={report.partitioned_bytes}" in lines
        assert f"loss_ns={report.loss_ns}" in lines
        assert all("=" in line for line in lines)
