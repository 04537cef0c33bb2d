"""Byte-exact golden files for the six binary formats, and damaged copies.

Each case writes the toy fixture and compares the file against bytes
kept here, then reads those bytes back. A change to the container code
that moves a single byte on disk fails here. The damaged copies check
that a reader raises nothing but ``FormatError``, and that it refuses a
huge declared size before allocating it.
"""

import contextlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import semtree as st
from helpers import TOY_PARENTS
from semtree import fileio

ENC = st.encode(st.Taxonomy(parents=TOY_PARENTS))
SCORES = np.arange(18, dtype=np.float32).reshape(2, 9) / 4
LABELS = np.array([6, 2], dtype=np.int64)
PATHS = st.map_labels(ENC, LABELS)
PARTS = st.partition_scores(ENC, SCORES, mask_value=-7.5)
FLAT = st.flatten_for_training(st.partition_scores(ENC, SCORES), PATHS)

GOLDEN = {
    "encoding": """
        4854524501000900000003000000000001010101010101010100000000010101
        01010101010100000001000000ffffffffffffffff02000000ffffffffffffff
        ff0100000003000000ffffffff0100000004000000ffffffff02000000050000
        00ffffffff0200000006000000ffffffff010000000400000007000000010000
        000400000008000000010000000400000009000000
    """,
    "scores": """
        4854534201000200000009000000000000000000803e0000003f0000403f0000
        803f0000a03f0000c03f0000e03f000000400000104000002040000030400000
        40400000504000006040000070400000804000008840
    """,
    "labels": """
        48544c4201000200000007000000000000000300000000000000
    """,
    "path_labels": """
        4854504c01000200000003000000010000000000000004000000000000000700
        00000000000001000000000000000300000000000000ffffffffffffffff
    """,
    "partitioned": """
        485450540100020000000300000009000000020000f0c0000000000000803e00
        00f0c00000f0c00000f0c00000f0c00000f0c00000f0c00000f0c00000f0c000
        00f0c00000003f0000403f0000803f0000a03f0000f0c00000f0c00000f0c000
        00f0c00000f0c00000f0c00000f0c00000f0c00000f0c00000c03f0000e03f00
        00004000001040000020400000f0c00000f0c00000f0c00000f0c00000f0c000
        00f0c00000f0c00000f0c00000f0c00000304000004040000050400000604000
        00f0c00000f0c00000f0c00000f0c00000f0c00000f0c00000f0c00000f0c000
        00f0c0000070400000804000008840
    """,
    "flat": """
        48544654010005000000090000000000000000000000000000803e000080ff00
        0080ff000080ff000080ff000080ff000080ff000080ff000080ff000080ff00
        00003f0000403f0000803f0000a03f000080ff000080ff000080ff000080ff00
        0080ff000080ff000080ff000080ff000080ff0000c03f0000e03f0000004000
        00104000002040000080ff000080ff000080ff000080ff000080ff000080ff00
        0080ff000080ff000080ff00003040000040400000504000006040000080ff00
        0080ff000080ff01000000000000000400000000000000070000000000000001
        0000000000000003000000000000000000000000000000000000000000000000
        0000000000000001000000000000000000000000000000020000000000000001
        00000000000000000000000000000001000000000000000100000000000000
    """,
}


def _same_encoding(got, want):
    assert got == want


def _same_data(got, want):
    np.testing.assert_array_equal(got.data, want.data)
    assert getattr(got, "mask_value", None) == getattr(want, "mask_value", None)


def _same_flat(got, want):
    np.testing.assert_array_equal(got.rows, want.rows)
    np.testing.assert_array_equal(got.labels, want.labels)
    np.testing.assert_array_equal(got.origin, want.origin)
    assert got.mask_value == want.mask_value


# name -> (writer, reader, fixture, assertion that a read-back equals the fixture)
CASES = {
    "encoding": (fileio.write_encoding, fileio.read_encoding, ENC, _same_encoding),
    "scores": (
        fileio.write_scores,
        fileio.read_scores,
        SCORES,
        np.testing.assert_array_equal,
    ),
    "labels": (
        fileio.write_labels,
        fileio.read_labels,
        LABELS,
        np.testing.assert_array_equal,
    ),
    "path_labels": (
        fileio.write_path_labels,
        fileio.read_path_labels,
        PATHS,
        _same_data,
    ),
    "partitioned": (
        fileio.write_partitioned,
        fileio.read_partitioned,
        PARTS,
        _same_data,
    ),
    "flat": (fileio.write_flat, fileio.read_flat, FLAT, _same_flat),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_writer_matches_golden_bytes(name, tmp_path):
    write, _, fixture, _ = CASES[name]
    p = tmp_path / name
    write(fixture, p)
    assert p.read_bytes().hex() == bytes.fromhex(GOLDEN[name]).hex()


@pytest.mark.parametrize("name", sorted(CASES))
def test_reader_accepts_golden_bytes(name, tmp_path):
    _, read, fixture, same = CASES[name]
    p = tmp_path / name
    p.write_bytes(bytes.fromhex(GOLDEN[name]))
    same(read(p), fixture)


def test_serialize_matches_golden_bytes():
    golden = bytes.fromhex(GOLDEN["encoding"])
    assert st.serialize(ENC) == golden
    assert st.deserialize(golden) == ENC


@hs.composite
def damaged_streams(draw):
    """(format name, golden bytes truncated, extended or bit-flipped)."""
    name = draw(hs.sampled_from(sorted(GOLDEN)))
    data = bytearray.fromhex(GOLDEN[name])
    how = draw(hs.sampled_from(("truncate", "extend", "flip")))
    if how == "truncate":
        del data[draw(hs.integers(0, len(data) - 1)) :]
    elif how == "extend":
        data += draw(hs.binary(min_size=1, max_size=64))
    else:
        for bit in draw(hs.lists(hs.integers(0, 8 * len(data) - 1), min_size=1)):
            data[bit // 8] ^= 1 << (bit % 8)
    return name, bytes(data)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None)
@given(case=damaged_streams())
def test_damaged_streams_raise_only_format_error(case, fuzz_dir):
    name, data = case
    p = fuzz_dir / name
    p.write_bytes(data)
    reads = [lambda: CASES[name][1](p)]
    if name == "encoding":
        reads += [
            lambda: fileio.read_encoding(p, check=False),
            lambda: st.deserialize(data),
            lambda: st.deserialize(data, check=False),
        ]
    for read in reads:
        with contextlib.suppress(st.FormatError):
            read()


TOP = 2**32 - 1
HUGE_HEADERS = {
    "encoding": struct.pack("<4sHII", b"HTRE", 1, TOP, TOP),
    "scores": struct.pack("<4sHII", b"HTSB", 1, TOP, TOP),
    "path_labels": struct.pack("<4sHII", b"HTPL", 1, TOP, TOP),
    "flat": struct.pack("<4sHIIBf", b"HTFT", 1, TOP, TOP, 0, 0.0),
}


@pytest.mark.parametrize("name", sorted(HUGE_HEADERS))
def test_huge_declared_size_is_refused_before_allocating(name, tmp_path):
    p = tmp_path / name
    p.write_bytes(HUGE_HEADERS[name].ljust(20, b"\0"))
    assert p.stat().st_size == 20
    tracemalloc.start()
    try:
        with pytest.raises(st.FormatError, match="expected"):
            CASES[name][1](p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
