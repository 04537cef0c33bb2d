"""Round trips and corruption handling for every file format."""

import dataclasses
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import oracles
from helpers import TOY_PARENTS
from semtree import (
    FlatTrainingSet,
    FormatError,
    NEG_INF,
    PartitionedScores,
    PathLabels,
    ShapeError,
    Taxonomy,
    encode,
    flatten_for_training,
    map_labels,
    partition_scores,
)
from semtree import fileio


# Shapes one element over fileio.CSV_ELEMENT_CAP: two wide score rows, or
# one label per line.
OVER_CSV_CAP = {"scores": (2, 500_001), "labels": (1_000_001,)}


@pytest.fixture
def enc():
    return encode(Taxonomy(parents=TOY_PARENTS))


@pytest.fixture
def scores():
    rng = np.random.default_rng(61)
    return rng.standard_normal((5, 9)).astype(np.float32)


class TestEncodingFiles:
    def test_round_trip(self, enc, tmp_path):
        p = tmp_path / "tree.enc"
        fileio.write_encoding(enc, p)
        assert fileio.read_encoding(p) == enc

    def test_error_names_the_file(self, enc, tmp_path):
        p = tmp_path / "tree.enc"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError, match="tree.enc"):
            fileio.read_encoding(p)

    def test_checked_read_peaks_under_twice_the_file(self, full_scale_tree, tmp_path):
        p = tmp_path / "c08.enc"
        fileio.write_encoding(full_scale_tree["encoding"], p)
        tracemalloc.start()
        try:
            fileio.read_encoding(p, check=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The arrays read are 1.0x the file; validate's checks add the rest.
        assert peak < 2 * p.stat().st_size

    def test_write_peak_is_fixed(self, full_scale_tree, tmp_path):
        # Each array is written a block at a time; the two whole (n, L)
        # int32 copies of the 1-based shift peaked at 21.2 MB.
        enc = full_scale_tree["encoding"]
        tracemalloc.start()
        try:
            fileio.write_encoding(enc, tmp_path / "c08.enc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    def test_checked_read_peaks_near_the_file(self, full_scale_tree, tmp_path):
        # The arrays read are the file; the range check, the id shift and
        # validate each hold a block at a time (1.61x the file before).
        p = tmp_path / "c08.enc"
        fileio.write_encoding(full_scale_tree["encoding"], p)
        tracemalloc.start()
        try:
            fileio.read_encoding(p, check=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * p.stat().st_size

    def test_an_in_range_padded_write_makes_no_marks(self, enc, tmp_path):
        # Ids within PAD..n - 1 are all valid on write: min and max suffice.
        assert (enc.paths == -1).any()
        labels = PathLabels(data=np.array([[0, 2, -1], [1, 4, 8]]))
        with mock.patch.object(fileio, "_first", side_effect=AssertionError):
            fileio.write_encoding(enc, tmp_path / "tree.enc")
            fileio.write_path_labels(labels, tmp_path / "labels.bin")
        assert fileio.read_encoding(tmp_path / "tree.enc") == enc

    @pytest.mark.parametrize("entry", [9, -2])
    def test_path_entry_out_of_range_rejected_on_write(self, enc, tmp_path, entry):
        # Written as 1-based 10 (or -1, read back as padding) once.
        paths = enc.paths.copy()
        paths[8, 2] = entry
        bad = dataclasses.replace(enc, paths=paths)
        p = tmp_path / "tree.enc"
        where = f"HTRE payload array 2 entry {entry} at position 9, 3 is not in 0..8 or -1"
        with pytest.raises(ShapeError, match=re.escape(where)):
            fileio.write_encoding(bad, p)
        assert not p.exists()


class TestScoreFiles:
    def test_binary_round_trip(self, scores, tmp_path):
        p = tmp_path / "scores.bin"
        fileio.write_scores(scores, p)
        np.testing.assert_array_equal(fileio.read_scores(p), scores)

    def test_binary_header(self, scores, tmp_path):
        p = tmp_path / "scores.bin"
        fileio.write_scores(scores, p)
        magic, version, b, c = struct.unpack_from("<4sHII", p.read_bytes())
        assert (magic, version, b, c) == (b"HTSB", 1, 5, 9)

    def test_csv_round_trip(self, scores, tmp_path):
        p = tmp_path / "scores.csv"
        fileio.write_scores(scores, p)
        np.testing.assert_array_equal(fileio.read_scores(p), scores)

    def test_csv_single_row(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("0.5,1.5,2.5\n")
        got = fileio.read_scores(p)
        assert got.shape == (1, 3)

    @pytest.mark.parametrize("kind", ["scores", "labels"])
    def test_csv_cap_on_write(self, kind, tmp_path):
        big = np.zeros(OVER_CSV_CAP[kind], dtype=np.int64)
        with pytest.raises(FormatError, match=f"{kind}.*binary"):
            getattr(fileio, f"write_{kind}")(big, tmp_path / "big.csv")

    @pytest.mark.parametrize("kind", ["scores", "labels"])
    def test_csv_cap_on_read(self, kind, tmp_path):
        p = tmp_path / "big.csv"
        np.savetxt(p, np.ones(OVER_CSV_CAP[kind]), fmt="%d", delimiter=",")
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"{kind}.*binary"):
                getattr(fileio, f"read_{kind}")(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Parsing either file peaks near 18 MB or more; the refusal holds one
        # line of text.
        assert peak < 6 << 20

    def test_csv_skips_blank_and_comment_lines(self, tmp_path):
        p = tmp_path / "notes.csv"
        p.write_text("# two samples\n1.5,2\n\n3,4  # last\n")
        np.testing.assert_array_equal(fileio.read_scores(p), [[1.5, 2], [3, 4]])

    def test_csv_without_data_lines_names_the_file(self, tmp_path):
        # With no data line, the number of scores per sample is unknown.
        p = tmp_path / "empty.csv"
        p.write_text("# nothing\n\n")
        with pytest.raises(FormatError, match="^" + re.escape(f"{p}: no data lines")):
            fileio.read_scores(p)

    def test_csv_malformed(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,oops\n")
        with pytest.raises(FormatError):
            fileio.read_scores(p)

    def test_truncated_binary(self, scores, tmp_path):
        p = tmp_path / "scores.bin"
        fileio.write_scores(scores, p)
        p.write_bytes(p.read_bytes()[:-2])
        with pytest.raises(FormatError, match="bytes"):
            fileio.read_scores(p)

    def test_rejects_one_dimensional(self, tmp_path):
        with pytest.raises(ShapeError):
            fileio.write_scores(np.zeros(4), tmp_path / "x.bin")

    # Complex scores were written as their real part, bool ones as 0/1, and
    # strings and objects as the floats they parse to.
    @pytest.mark.parametrize("name", ["x.bin", "x.csv"])
    @pytest.mark.parametrize("dtype", [np.complex128, bool, object, str])
    def test_refuses_non_real_scores(self, scores, tmp_path, name, dtype):
        p = tmp_path / name
        bad = scores.astype(dtype)
        with pytest.raises(ShapeError, match=re.escape(str(bad.dtype))):
            fileio.write_scores(bad, p)
        assert not p.exists()

    @pytest.mark.parametrize("name", ["x.bin", "x.csv"])
    def test_float64_beyond_float32_rejected_on_write(self, tmp_path, name):
        # Cast to float32, 1e300 was written as inf with only a warning.
        p = tmp_path / name
        bad = np.zeros((2, 3))
        bad[1, 1], bad[1, 2], bad[0, 0] = 1e300, -1e300, np.inf
        array = "HTSB payload array 1" if name == "x.bin" else "scores"
        where = f"{array} entry 1e+300 at position 2, 2 is beyond float32's range"
        with pytest.raises(ShapeError, match=re.escape(where) + "$"):
            fileio.write_scores(bad, p)
        assert not p.exists()

    @pytest.mark.parametrize("name", ["x.bin", "x.csv"])
    def test_float64_within_float32_written_as_float32(self, tmp_path, name):
        # Its largest finite value, the infinities and NaN are kept.
        top = float(np.finfo(np.float32).max)
        wide = np.array([[top, -top, 0.1], [np.inf, -np.inf, np.nan]])
        p = tmp_path / name
        fileio.write_scores(wide, p)
        np.testing.assert_array_equal(fileio.read_scores(p), wide.astype(np.float32))


# How each CSV reader counts the fields of a line, and whether it wants one.
CSV_FIELDS = {
    "scores": (lambda line: line.count(b",") + 1, False),
    "labels": (lambda line: len(line.split()), True),
}


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=400, deadline=None)
@given(
    kind=hs.sampled_from(sorted(CSV_FIELDS)),
    lines=hs.lists(hs.text(alphabet="7,# \t\r\x0c", max_size=6), max_size=25),
    end=hs.sampled_from(["", "\n"]),
    cap=hs.integers(1, 12),
    chunk=hs.integers(1, 16),
)
def test_csv_scan_matches_line_by_line_reference(kind, lines, end, cap, chunk, csv_dir):
    # Tiny chunks and caps put chunk edges and the cap inside every case.
    p = csv_dir / f"{kind}.csv"
    p.write_text("\n".join(lines) + end, newline="")
    fields, one_per_line = CSV_FIELDS[kind]
    expected = oracles.csv_size_error(p, kind, fields, cap, 1 if one_per_line else None)
    with mock.patch.object(fileio, "CSV_ELEMENT_CAP", cap), mock.patch.object(
        fileio, "_CSV_CHUNK", chunk
    ):
        try:
            fileio._check_csv_size(p, kind, fields, one_per_line)
            got = None
        except FormatError as e:
            got = str(e)
    assert got == expected


class TestLabelFiles:
    def test_binary_round_trip(self, tmp_path):
        labels = np.array([3, 6, 1, 5, 2], dtype=np.int64)
        p = tmp_path / "labels.bin"
        fileio.write_labels(labels, p)
        np.testing.assert_array_equal(fileio.read_labels(p), labels)

    def test_stored_one_based(self, tmp_path):
        p = tmp_path / "labels.bin"
        fileio.write_labels(np.array([0, 8]), p)
        disk = np.frombuffer(p.read_bytes()[struct.calcsize("<4sHI") :], dtype="<i8")
        np.testing.assert_array_equal(disk, [1, 9])

    def test_csv_round_trip(self, tmp_path):
        labels = np.array([0, 4, 7], dtype=np.int64)
        p = tmp_path / "labels.csv"
        fileio.write_labels(labels, p)
        np.testing.assert_array_equal(fileio.read_labels(p), labels)

    def test_csv_is_one_based_text(self, tmp_path):
        p = tmp_path / "labels.csv"
        fileio.write_labels(np.array([0, 4]), p)
        assert p.read_text().split() == ["1", "5"]

    def test_csv_one_label_per_line(self, tmp_path):
        # "1 2 3" / "4 5 6" once read back as a (2, 3) array.
        p = tmp_path / "labels.csv"
        for text, line in (("1 2 3\n4 5 6\n", 1), ("# ids\n1\n\n4 5 6\n", 4)):
            p.write_text(text)
            where = rf"labels\.csv: line {line} holds 3 labels"
            with pytest.raises(FormatError, match=where):
                fileio.read_labels(p)

    def test_csv_without_data_lines_holds_no_labels(self, tmp_path):
        p = tmp_path / "labels.csv"
        for text in ("# nothing\n\n", ""):
            p.write_text(text)
            got = fileio.read_labels(p)
            assert got.dtype == np.int64 and got.shape == (0,)

    def test_zero_on_disk_rejected(self, tmp_path):
        p = tmp_path / "labels.bin"
        with open(p, "wb") as f:
            f.write(struct.pack("<4sHI", b"HTLB", 1, 2))
            f.write(np.array([1, 0], dtype="<i8").tobytes())
        with pytest.raises(FormatError, match="1-based"):
            fileio.read_labels(p)

    def test_negative_labels_rejected_on_write(self, tmp_path):
        # Named like every other id a writer refuses, binary or CSV.
        for name, array in (("x.bin", "HTLB payload array 1"), ("x.csv", "labels")):
            p = tmp_path / name
            where = f"{array} entry -1 at position 2 is not in 0.."
            with pytest.raises(ShapeError, match=re.escape(where) + "$"):
                fileio.write_labels(np.array([0, -1]), p)
            assert not p.exists()

    @pytest.mark.parametrize("name", ["x.bin", "x.csv"])
    def test_narrow_label_shifted_in_the_file_dtype(self, tmp_path, name):
        # int8 127 + 1 wrapped to -128, which read_labels refused.
        p = tmp_path / name
        fileio.write_labels(np.array([127], dtype=np.int8), p)
        np.testing.assert_array_equal(fileio.read_labels(p), [127])

    @pytest.mark.parametrize("name", ["x.bin", "x.csv"])
    @pytest.mark.parametrize(
        "label", [np.int64(2**63 - 1), np.uint64(2**63)], ids=["int64", "uint64"]
    )
    def test_label_beyond_int64_once_one_based_rejected(self, tmp_path, name, label):
        # Both were written as a negative 1-based label.
        p = tmp_path / name
        array = "HTLB payload array 1" if name == "x.bin" else "labels"
        where = f"{array} entry {int(label)} at position 2 does not fit in int64 once 1-based"
        with pytest.raises(ShapeError, match=re.escape(where) + "$"):
            fileio.write_labels(np.array([0, label, label], dtype=label.dtype), p)
        assert not p.exists()

    @pytest.mark.parametrize("name", ["x.bin", "x.csv"])
    def test_float_labels_rejected_on_write(self, tmp_path, name):
        p = tmp_path / name
        with pytest.raises(ShapeError, match="labels must be integers, not float64"):
            fileio.write_labels(np.array([0.7, 2.9]), p)
        assert not p.exists()

    @pytest.mark.parametrize("name", ["x.bin", "x.csv"])
    def test_two_dimensional_labels_rejected_on_write(self, tmp_path, name):
        p = tmp_path / name
        with pytest.raises(ShapeError, match=r"labels must be 1-d, got shape \(2, 1\)"):
            fileio.write_labels(np.array([[0], [1]]), p)
        assert not p.exists()

    @pytest.mark.parametrize(
        "text, fault",
        [("1\nx\n", "could not convert string 'x'"), ("1\n0\n", "1-based label 0")],
        ids=["not-an-integer", "zero"],
    )
    def test_bad_csv_label_names_the_file(self, tmp_path, text, fault):
        p = tmp_path / "labels.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match="^" + re.escape(f"{p}: {fault}")):
            fileio.read_labels(p)


class TestPathLabelFiles:
    def test_round_trip(self, enc, tmp_path):
        paths = map_labels(enc, np.array([3, 6, 1, 5, 2]))
        p = tmp_path / "paths.bin"
        fileio.write_path_labels(paths, p)
        got = fileio.read_path_labels(p)
        np.testing.assert_array_equal(got.data, paths.data)

    def test_padding_survives(self, enc, tmp_path):
        paths = map_labels(enc, np.array([0]))
        p = tmp_path / "paths.bin"
        fileio.write_path_labels(paths, p)
        np.testing.assert_array_equal(fileio.read_path_labels(p).data, [[0, -1, -1]])

    def test_wrong_rank_leaves_no_file(self, tmp_path):
        p = tmp_path / "paths.bin"
        with pytest.raises(ShapeError, match="dimensions"):
            fileio.write_path_labels(PathLabels(data=np.zeros(3, dtype=np.int64)), p)
        assert not p.exists()

    def test_float_labels_rejected_on_write(self, tmp_path):
        # They were written as [0, 2] and read back so.
        p = tmp_path / "paths.bin"
        with pytest.raises(ShapeError, match="HTPL payload array 1 .* float64"):
            fileio.write_path_labels(PathLabels(data=np.array([[0.7, 2.9]])), p)
        assert not p.exists()

    def test_id_below_padding_rejected_on_write(self, tmp_path):
        # Written as 1-based -4, which read_path_labels refused.
        p = tmp_path / "paths.bin"
        where = "HTPL payload array 1 entry -5 at position 1, 1 is not in 0.. or -1"
        with pytest.raises(ShapeError, match=re.escape(where)):
            fileio.write_path_labels(PathLabels(data=np.array([[-5, 1]])), p)
        assert not p.exists()

    def test_narrow_label_shifted_in_the_file_dtype(self, tmp_path):
        # uint8 255 + 1 wrapped to 0, which read_path_labels refused.
        p = tmp_path / "paths.bin"
        fileio.write_path_labels(PathLabels(data=np.array([[255]], dtype=np.uint8)), p)
        np.testing.assert_array_equal(fileio.read_path_labels(p).data, [[255]])

    def test_zero_entry_rejected(self, tmp_path):
        p = tmp_path / "paths.bin"
        with open(p, "wb") as f:
            f.write(struct.pack("<4sHII", b"HTPL", 1, 1, 2))
            f.write(np.array([1, 0], dtype="<i8").tobytes())
        with pytest.raises(FormatError):
            fileio.read_path_labels(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "paths.bin"
        p.write_bytes(struct.pack("<4sHII", b"HTSB", 1, 1, 2) + b"\x00" * 16)
        with pytest.raises(FormatError, match="HTPL"):
            fileio.read_path_labels(p)


class TestPartitionedFiles:
    def test_round_trip(self, enc, scores, tmp_path):
        parts = partition_scores(enc, scores)
        p = tmp_path / "parts.bin"
        fileio.write_partitioned(parts, p)
        got = fileio.read_partitioned(p)
        np.testing.assert_array_equal(got.data, parts.data)
        assert got.mask_value == NEG_INF

    def test_nan_mode(self, enc, scores, tmp_path):
        parts = partition_scores(enc, scores, mask_value=float("nan"))
        p = tmp_path / "parts.bin"
        fileio.write_partitioned(parts, p)
        got = fileio.read_partitioned(p)
        assert np.isnan(got.mask_value)
        np.testing.assert_array_equal(np.isnan(got.data), np.isnan(parts.data))

    def test_scalar_mode(self, enc, scores, tmp_path):
        parts = partition_scores(enc, scores, mask_value=-7.5)
        p = tmp_path / "parts.bin"
        fileio.write_partitioned(parts, p)
        got = fileio.read_partitioned(p)
        assert got.mask_value == -7.5
        np.testing.assert_array_equal(got.data, parts.data)

    def test_float64_beyond_float32_rejected_on_write(self, enc, scores, tmp_path):
        # Masked -inf entries pass; the finite 1e39 does not.
        parts = partition_scores(enc, scores.astype(np.float64))
        data = parts.data.copy()
        data[3, 2, 8] = 1e39
        p = tmp_path / "parts.bin"
        where = "HTPT payload array 1 entry 1e+39 at position 4, 3, 9 is beyond float32's range"
        with pytest.raises(ShapeError, match=re.escape(where) + "$"):
            fileio.write_partitioned(PartitionedScores(data=data), p)
        assert not p.exists()

    def test_bool_data_rejected_on_write(self, enc, scores, tmp_path):
        parts = partition_scores(enc, scores)
        bad = PartitionedScores(data=parts.data > 0)
        p = tmp_path / "parts.bin"
        with pytest.raises(ShapeError, match="HTPT payload array 1 .* bool"):
            fileio.write_partitioned(bad, p)
        assert not p.exists()

    def test_unknown_mode_rejected(self, tmp_path):
        p = tmp_path / "parts.bin"
        p.write_bytes(struct.pack("<4sHIIIBf", b"HTPT", 1, 1, 1, 1, 7, 0.0) + b"\x00" * 4)
        with pytest.raises(FormatError, match="mask mode"):
            fileio.read_partitioned(p)

    def test_length_check(self, enc, scores, tmp_path):
        parts = partition_scores(enc, scores)
        p = tmp_path / "parts.bin"
        fileio.write_partitioned(parts, p)
        p.write_bytes(p.read_bytes() + b"\x01")
        with pytest.raises(FormatError):
            fileio.read_partitioned(p)


class TestFlatFiles:
    def test_round_trip(self, enc, scores, tmp_path):
        parts = partition_scores(enc, scores)
        paths = map_labels(enc, np.array([3, 6, 1, 5, 2]))
        flat = flatten_for_training(parts, paths)
        p = tmp_path / "flat.bin"
        fileio.write_flat(flat, p)
        got = fileio.read_flat(p)
        np.testing.assert_array_equal(got.rows, flat.rows)
        np.testing.assert_array_equal(got.labels, flat.labels)
        np.testing.assert_array_equal(got.origin, flat.origin)
        assert got.mask_value == NEG_INF

    def test_mismatched_arrays_leave_no_file(self, tmp_path):
        flat = FlatTrainingSet(
            rows=np.zeros((2, 9), dtype=np.float32),
            labels=np.array([1, 2, 3]),
            origin=np.zeros((2, 2), dtype=np.int64),
        )
        p = tmp_path / "flat.bin"
        with pytest.raises(ShapeError, match="shape"):
            fileio.write_flat(flat, p)
        assert not p.exists()

    @pytest.mark.parametrize("field, array", [("labels", 2), ("origin", 3)])
    def test_float_ids_rejected_on_write(self, enc, scores, tmp_path, field, array):
        parts = partition_scores(enc, scores)
        flat = flatten_for_training(parts, map_labels(enc, np.array([3, 6, 1, 5, 2])))
        bad = dataclasses.replace(flat, **{field: getattr(flat, field) + 0.5})
        p = tmp_path / "flat.bin"
        with pytest.raises(ShapeError, match=f"HTFT payload array {array} .* float64"):
            fileio.write_flat(bad, p)
        assert not p.exists()

    @pytest.mark.parametrize(
        "field, array, value, at", [("labels", 2, -3, "2"), ("origin", 3, -2, "2, 1")]
    )
    def test_ids_out_of_range_rejected_on_write(
        self, enc, scores, tmp_path, field, array, value, at
    ):
        # Written as they were, read_flat then refused them.
        parts = partition_scores(enc, scores)
        flat = flatten_for_training(parts, map_labels(enc, np.array([3, 6, 1, 5, 2])))
        ids = getattr(flat, field).copy()
        ids[1] = value
        p = tmp_path / "flat.bin"
        where = f"HTFT payload array {array} entry {value} at position {at} is not in 0.."
        with pytest.raises(ShapeError, match=re.escape(where) + "$"):
            fileio.write_flat(dataclasses.replace(flat, **{field: ids}), p)
        assert not p.exists()

    def test_float64_beyond_float32_rejected_on_write(self, enc, scores, tmp_path):
        parts = partition_scores(enc, scores.astype(np.float64), mask_value=float("nan"))
        flat = flatten_for_training(parts, map_labels(enc, np.array([3, 6, 1, 5, 2])))
        rows = flat.rows.copy()
        rows[2, 0] = -3e38 * 10
        p = tmp_path / "flat.bin"
        where = "HTFT payload array 1 entry -3e+39 at position 3, 1 is beyond float32's range"
        with pytest.raises(ShapeError, match=re.escape(where) + "$"):
            fileio.write_flat(dataclasses.replace(flat, rows=rows), p)
        assert not p.exists()

    def test_labels_stored_one_based(self, enc, scores, tmp_path):
        parts = partition_scores(enc, scores[:1])
        paths = map_labels(enc, np.array([6]))
        flat = flatten_for_training(parts, paths)
        p = tmp_path / "flat.bin"
        fileio.write_flat(flat, p)
        header = struct.calcsize("<4sHIIBf")
        off = header + flat.rows.size * 4
        disk = np.frombuffer(p.read_bytes()[off : off + flat.num_rows * 8], dtype="<i8")
        np.testing.assert_array_equal(disk, [1, 4, 7])
