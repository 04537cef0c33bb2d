"""End-to-end runs of the command line interface."""

import numpy as np
import pytest

from helpers import TOY_EDGE_LINES
from semtree import fileio
from semtree.cli import main


@pytest.fixture
def edges(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("\n".join(TOY_EDGE_LINES) + "\n")
    return p


@pytest.fixture
def encoding_file(edges, tmp_path):
    p = tmp_path / "toy.enc"
    assert main(["encode", str(edges), "--out", str(p)]) == 0
    return p


@pytest.fixture
def scores_file(tmp_path):
    rng = np.random.default_rng(81)
    p = tmp_path / "scores.bin"
    fileio.write_scores(rng.standard_normal((5, 9)).astype(np.float32), p)
    return p


@pytest.fixture
def labels_file(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("4\n7\n2\n6\n3\n")
    return p


class TestEncode:
    def test_summary_line(self, edges, capsys):
        assert main(["encode", str(edges)]) == 0
        out = capsys.readouterr().out
        assert "encoded 9 classes over 3 levels" in out

    def test_dump_matrices(self, edges, capsys):
        assert main(["encode", str(edges), "--dump"]) == 0
        out = capsys.readouterr().out
        assert "masks 3 x 9" in out
        assert "0 0 1 1 1 1 1 1 1" in out
        assert "paths 9 x 3" in out
        assert "1 4 7" in out

    def test_multi_parent_first_reports(self, tmp_path, capsys):
        p = tmp_path / "multi.txt"
        p.write_text("1\n2\n3 1\n3 2\n")
        assert main(["encode", str(p)]) == 0
        out = capsys.readouterr().out
        assert "class 3: kept parent 1, dropped parent 2" in out

    def test_multi_parent_reject_fails(self, tmp_path, capsys):
        p = tmp_path / "multi.txt"
        p.write_text("1\n2\n3 1\n3 2\n")
        assert main(["encode", str(p), "--policy", "reject"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["encode", str(tmp_path / "nope.txt")]) == 1
        assert "error:" in capsys.readouterr().err


class TestTransforms:
    def test_scores_summary(self, encoding_file, scores_file, capsys):
        assert main(["transform-scores", str(encoding_file), str(scores_file)]) == 0
        assert "5 x 3 x 9" in capsys.readouterr().out

    def test_scores_written_only_on_out(self, encoding_file, scores_file, tmp_path, capsys):
        before = set(tmp_path.iterdir())
        assert main(["transform-scores", str(encoding_file), str(scores_file)]) == 0
        assert set(tmp_path.iterdir()) == before
        out = tmp_path / "parts.bin"
        assert (
            main(
                ["transform-scores", str(encoding_file), str(scores_file), "--out", str(out)]
            )
            == 0
        )
        assert out.exists()
        parts = fileio.read_partitioned(out)
        assert parts.data.shape == (5, 3, 9)

    def test_labels_dump_is_one_based(self, encoding_file, labels_file, capsys):
        assert main(["transform-labels", str(encoding_file), str(labels_file), "--dump"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "1 4 -1" in lines
        assert "1 4 7" in lines

    def test_label_out_of_range_message(self, encoding_file, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("4\n12\n")
        assert main(["transform-labels", str(encoding_file), str(bad)]) == 1
        err = capsys.readouterr().err
        assert "label 12" in err
        assert "entry 2" in err
        assert "1..9" in err

    def test_csv_scores_accepted(self, encoding_file, tmp_path, capsys):
        p = tmp_path / "scores.csv"
        np.savetxt(p, np.zeros((2, 9)), fmt="%.1f", delimiter=",")
        assert main(["transform-scores", str(encoding_file), str(p)]) == 0
        assert "2 x 3 x 9" in capsys.readouterr().out


class TestFlatten:
    def test_retained_line(self, encoding_file, scores_file, labels_file, tmp_path, capsys):
        parts = tmp_path / "parts.bin"
        paths = tmp_path / "paths.bin"
        main(["transform-scores", str(encoding_file), str(scores_file), "--out", str(parts)])
        main(["transform-labels", str(encoding_file), str(labels_file), "--out", str(paths)])
        capsys.readouterr()
        assert main(["flatten", str(parts), str(paths)]) == 0
        assert "retained 10 of 15 rows" in capsys.readouterr().out

    def test_writes_training_set_with_loss(
        self, encoding_file, scores_file, labels_file, tmp_path, capsys
    ):
        parts = tmp_path / "parts.bin"
        paths = tmp_path / "paths.bin"
        flat = tmp_path / "flat.bin"
        main(["transform-scores", str(encoding_file), str(scores_file), "--out", str(parts)])
        main(["transform-labels", str(encoding_file), str(labels_file), "--out", str(paths)])
        assert main(["flatten", str(parts), str(paths), "--out", str(flat), "--loss"]) == 0
        out = capsys.readouterr().out
        assert "mean loss" in out
        assert fileio.read_flat(flat).num_rows == 10


class TestDecode:
    def test_beam_output_shape(self, encoding_file, scores_file, capsys):
        assert (
            main(["decode", str(encoding_file), str(scores_file), "--k", "2"]) == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10  # 5 samples x 2 ranks
        first = lines[0].split()
        assert first[0] == "1" and first[1] == "1"
        float(first[2])  # score parses
        assert "." in first[2] and len(first[2].split(".")[1]) == 6

    def test_beam_paths_are_one_based(self, encoding_file, tmp_path, capsys):
        p = tmp_path / "peak.csv"
        np.savetxt(p, np.array([[9, 0, 0, 9, 0, 0, 9, 0, 0]]), fmt="%.1f", delimiter=",")
        assert main(["decode", str(encoding_file), str(p), "--k", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # Joint scores only fall as a path grows, so the prefixes rank first.
        assert lines[0].split()[3:] == ["1"]
        assert lines[1].split()[3:] == ["1", "4"]
        assert lines[2].split()[3:] == ["1", "4", "7"]

    def test_levenshtein_distances(self, encoding_file, tmp_path, capsys):
        p = tmp_path / "peak.csv"
        np.savetxt(p, np.array([[9, 0, 0, 9, 0, 0, 9, 0, 0]]), fmt="%.1f", delimiter=",")
        assert (
            main(
                ["decode", str(encoding_file), str(p), "--method", "levenshtein", "--k", "2"]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[2] == "0.000000"
        assert lines[0].split()[3:] == ["1", "4", "7"]

    def test_length_normalize_flag(self, encoding_file, scores_file, capsys):
        assert (
            main(
                [
                    "decode",
                    str(encoding_file),
                    str(scores_file),
                    "--k",
                    "3",
                    "--length-normalize",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out


class TestValidate:
    def test_valid_file(self, encoding_file, capsys):
        assert main(["validate", str(encoding_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_corrupt_content(self, encoding_file, capsys):
        data = bytearray(encoding_file.read_bytes())
        data[-1] = 0xFF  # last path entry becomes garbage
        encoding_file.write_bytes(bytes(data))
        assert main(["validate", str(encoding_file)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_invalid_invariants(self, encoding_file, capsys):
        # Swap two mask bytes so one class sits at the wrong level.
        data = bytearray(encoding_file.read_bytes())
        header = 14  # <4sHII
        data[header], data[header + 2] = data[header + 2], data[header]
        encoding_file.write_bytes(bytes(data))
        assert main(["validate", str(encoding_file)]) == 1
        out = capsys.readouterr().out
        assert "violations" in out


class TestBench:
    def test_table_output(self, capsys):
        assert (
            main(
                [
                    "bench",
                    "--classes", "200",
                    "--levels", "5",
                    "--batch", "16",
                    "--reps", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "partition median" in out
        assert "200" in out

    def test_kv_output(self, capsys):
        assert (
            main(
                [
                    "bench",
                    "--classes", "120",
                    "--levels", "4",
                    "--batch", "8",
                    "--reps", "3",
                    "--format", "kv",
                ]
            )
            == 0
        )
        assert "partition_ns=" in capsys.readouterr().out

    def test_negative_seed(self, capsys):
        # This ended in numpy's traceback ("expected non-negative integer").
        assert main(["bench", "--classes", "20", "--levels", "3", "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be an integer of at least 0")
