"""The ingest path at tiny block sizes: the same bytes, results and errors.

File writers and readers, ``validate`` and ``level_of`` work in blocks of
``tree._BLOCK_ENTRIES`` entries, and ``parse_edge_list`` in blocks of
lines of about as many characters. Each case here runs with 7 and 64
entries a block, so that every array of the toy fixtures and of small
random forests spans several blocks, and compares with the default size
or with the whole-matrix references; the edge lists are also read on one
thread and on three.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
import semtree as st
from helpers import random_taxonomy
from semtree import PathLabels, fileio, ingestion, transforms, tree
from test_formats import CASES, GOLDEN
from test_ingestion import PARSE_CASES, check_parse_matches_the_line_loop

BLOCKS = [7, 64]


@pytest.fixture(params=BLOCKS, ids=[f"{b}-entries" for b in BLOCKS])
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(tree, "_BLOCK_ENTRIES", request.param)
    return request.param


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes_written_and_read(small_blocks, name, tmp_path):
    write, read, fixture, same = CASES[name]
    p = tmp_path / name
    write(fixture, p)
    assert p.read_bytes() == bytes.fromhex(GOLDEN[name])
    same(read(p), fixture)


def _labels_with_two_faults(bad):
    labels = np.arange(100, dtype=np.int64) % 7
    labels[70], labels[90] = bad, bad
    return labels


def _path_labels_with_two_faults():
    data = np.zeros((40, 3), dtype=np.int64)
    data[:, 2] = -1
    data[30, 1], data[35, 0] = -5, -6
    return PathLabels(data=data)


def _scores_with_two_faults():
    scores = np.zeros((12, 9))
    scores[:, 0] = -np.inf  # passes, in every block
    scores[9, 4], scores[11, 1] = -1e300, 1e300
    return scores


def _encoding_file_with_two_faults(path, value=99):
    """An encoding file whose path rows 31 and 38 start with ``value``, the
    1-based id of no class."""
    enc = st.encode(st.generate_synthetic(st.SyntheticTreeSpec(40, 4)))
    fileio.write_encoding(enc, path)
    data = bytearray(path.read_bytes())
    header = fileio._FORMATS["encoding"].header.size
    n, L = enc.num_classes, enc.num_levels
    for row in (30, 37):
        at = header + n * L + 4 * row * L
        data[at : at + 4] = value.to_bytes(4, "little")
    path.write_bytes(bytes(data))


def _labels_file_with_two_faults(path):
    fileio.write_labels(np.arange(100) % 7, path)
    data = bytearray(path.read_bytes())
    for i in (70, 90):
        at = len(data) - 8 * (100 - i)
        data[at : at + 8] = (0).to_bytes(8, "little")
    path.write_bytes(bytes(data))


# name -> (setup(path) or None, call(path)); each call raises, and the
# first of its two faulty entries lies past the first block at both sizes.
FAULTS = {
    "labels-range": (None, lambda p: fileio.write_labels(_labels_with_two_faults(-1), p)),
    "labels-csv-range": (
        None,
        lambda p: fileio.write_labels(_labels_with_two_faults(-1), p.with_suffix(".csv")),
    ),
    "labels-int64": (
        None,
        lambda p: fileio.write_labels(_labels_with_two_faults(2**63 - 1), p),
    ),
    "path-labels-range": (
        None,
        lambda p: fileio.write_path_labels(_path_labels_with_two_faults(), p),
    ),
    "scores-float32": (None, lambda p: fileio.write_scores(_scores_with_two_faults(), p)),
    "partitioned-float32": (
        None,
        lambda p: fileio.write_partitioned(
            st.PartitionedScores(data=_scores_with_two_faults().reshape(12, 3, 3)), p
        ),
    ),
    "encoding-read": (_encoding_file_with_two_faults, fileio.read_encoding),
    # Every entry lies in PAD..n, so the read marks only the zeros.
    "encoding-read-zero": (
        lambda p: _encoding_file_with_two_faults(p, 0),
        fileio.read_encoding,
    ),
    "labels-read": (_labels_file_with_two_faults, fileio.read_labels),
}


def _error(case, path):
    setup, call = FAULTS[case]
    if setup is not None:
        setup(path)
    with pytest.raises((st.ShapeError, st.FormatError)) as info:
        call(path)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_first_fault_in_a_later_block_named_as_at_the_default_size(
    case, tmp_path, monkeypatch
):
    want = _error(case, tmp_path / "default")
    for block in BLOCKS:
        monkeypatch.setattr(tree, "_BLOCK_ENTRIES", block)
        assert _error(case, tmp_path / f"block-{block}") == (
            want[0],
            want[1].replace("default", f"block-{block}"),
        )


def test_named_faults_are_the_first_ones(tmp_path):
    messages = {case: _error(case, tmp_path / case)[1] for case in FAULTS}
    assert "entry -1 at position 71 is not in 0.." in messages["labels-range"]
    assert "entry -1 at position 71 is not in 0.." in messages["labels-csv-range"]
    assert "at position 71 does not fit in int64" in messages["labels-int64"]
    assert "entry -5 at position 31, 2 is not in" in messages["path-labels-range"]
    assert "entry -1e+300 at position 10, 5 is beyond" in messages["scores-float32"]
    assert "at position 10, 2, 2 is beyond" in messages["partitioned-float32"]
    assert "1-based path entry 99 at position 31, 1" in messages["encoding-read"]
    assert (
        "1-based path entry 0 at position 31, 1 is not in 1..40 or -1"
        in messages["encoding-read-zero"]
    )
    assert "1-based label 0 at position 71 " in messages["labels-read"]


def _corrupted(rng):
    """A small random encoding with up to three flipped masks or path entries."""
    enc = st.encode(random_taxonomy(rng, max_classes=30, max_depth=5))
    n, L = enc.num_classes, enc.num_levels
    masks, paths = enc.masks.copy(), enc.paths.copy()
    for _ in range(int(rng.integers(0, 4))):
        if rng.integers(2) == 0:
            masks[rng.integers(L), rng.integers(n)] ^= True
        else:
            paths[rng.integers(n), rng.integers(L)] = rng.integers(-2, n + 1)
    return st.TreeEncoding(masks=masks, paths=paths)


def test_validate_equals_the_reference(small_blocks):
    rng = np.random.default_rng(23)
    kinds = set()
    for _ in range(400):
        bad = _corrupted(rng)
        got = [(v.kind, v.where, v.message) for v in st.validate(bad).violations]
        want = oracles.validate_reference(bad)
        assert got == [t for t in want if t[0] not in ("level-mismatch", "shared-path")]
        kinds.update(kind for kind, _, _ in got)
    assert kinds == {
        "unmask-count", "path-range", "path-pad-tail", "path-endpoint", "prefix",
    }


def test_level_of_unchanged(small_blocks):
    rng = np.random.default_rng(31)
    for _ in range(100):
        enc = _corrupted(rng)
        fresh = dataclasses.replace(enc)
        assert fresh.level_of.dtype == np.int32
        np.testing.assert_array_equal(fresh.level_of, np.argmin(enc.masks, axis=0))


def test_strided_input_writes_its_contiguous_bytes(small_blocks, tmp_path):
    # A strided array goes in blocks of whole rows rather than flat runs.
    scores = np.arange(120, dtype=np.float64).reshape(12, 10)[::2, ::3]
    paths = np.arange(-1, 59).reshape(12, 5)[::3, ::2]  # PAD first
    for write, data, wrap in (
        (fileio.write_scores, scores, lambda a: a),
        (fileio.write_path_labels, paths, lambda a: PathLabels(data=a)),
    ):
        assert not data.flags.c_contiguous
        write(wrap(data), tmp_path / "strided")
        write(wrap(np.ascontiguousarray(data)), tmp_path / "contiguous")
        assert (tmp_path / "strided").read_bytes() == (tmp_path / "contiguous").read_bytes()


@settings(max_examples=200, deadline=None)
@given(**PARSE_CASES)
def test_parse_fuzz_in_blocks_matches_the_line_loop(lines, ends, as_file, merge, last_end):
    for block, threads in itertools.product(BLOCKS, [1, 3]):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree, "_BLOCK_ENTRIES", block)
            patch.setattr(transforms, "_workers", lambda: threads)
            check_parse_matches_the_line_loop(lines, ends, as_file, merge, last_end)


# Two parents of 2**62 and more in the first block and the larger one again
# in a later block, where ranking that block's own ids alone would give it
# the smaller one's code: a false duplicate of class 2's first line.
_HUGE_ACROSS_BLOCKS = [
    "1",
    "2 4611686018427387905",
    "3 4611686018427387906",
    "4 1",
    "5 1",
    "6 1",
    "2 4611686018427387906",
]


@pytest.mark.parametrize("block", [32, 64])
@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("as_file", [True, False], ids=["file", "lines"])
def test_huge_ids_ranked_over_all_blocks(block, threads, as_file, monkeypatch, tmp_path):
    source = _HUGE_ACROSS_BLOCKS
    if as_file:
        source = tmp_path / "edges.txt"
        source.write_text("".join(line + "\n" for line in _HUGE_ACROSS_BLOCKS))
    monkeypatch.setattr(tree, "_BLOCK_ENTRIES", block)
    monkeypatch.setattr(transforms, "_workers", lambda: threads)
    for policy in ("first", "reject"):
        with pytest.raises(st.SemtreeError) as got:
            st.parse_edge_list(source, policy)
        with pytest.raises(st.SemtreeError) as want:
            oracles.parse_edge_list_reference(source, policy)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        assert "duplicate" not in str(got.value)


def test_block_size_reaches_the_parse(small_blocks, monkeypatch, tmp_path):
    # A parse that read a binding the fixture does not patch would read
    # these 40 lines, about 200 characters, in one block.
    lines = ["1"] + [f"{c} {c // 2}" for c in range(2, 41)]
    path = tmp_path / "edges.txt"
    path.write_text("".join(line + "\n" for line in lines))
    calls, read_block = [], ingestion._read_block

    def spy(text):
        calls.append(text)
        return read_block(text)

    monkeypatch.setattr(ingestion, "_read_block", spy)
    for source in (lines, path):
        calls.clear()
        assert st.parse_edge_list(source).taxonomy.num_classes == 40
        assert len(calls) > 1
