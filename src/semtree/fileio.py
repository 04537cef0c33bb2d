"""Binary and CSV file formats, including the byte form of an encoding.

Every binary format is one entry of ``_FORMATS``: a four-byte magic, a
u16 version, u32 dimensions, optionally a mask mode and fill, then the
payload arrays, whose dtypes and shapes follow from the dimensions. All
of it is little-endian. One reader and one writer serve every entry.
The reader checks the declared length against the stream's size before
it allocates anything, so a stream with trailing or missing bytes is
rejected rather than partially decoded, and then reads each array in
place. Class ids on disk are 1-based with -1 as padding; every reader
hands back the 0-based in-memory form, range-checked and shifted in
place a block of ``tree._BLOCK_ENTRIES`` entries at a time, so a checked
c08 encoding read peaks at about 1.1x the file. The writer streams each
array in blocks of the same size, each converted on its own.

Score and label files may also be CSV (picked by the ``.csv``
extension) for small batches; the binary formats have no size cap.
"""

import contextlib
import functools
import io
import math
import os
import re
import struct
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import FormatError, ShapeError
from .tree import PAD, TreeEncoding, _blocks, validate
from .transforms import (
    NEG_INF,
    FlatTrainingSet,
    PartitionedScores,
    PathLabels,
    _check_array,
)

Pathish = Union[str, os.PathLike]

CSV_ELEMENT_CAP = 1_000_000
FORMAT_VERSION = 1


class _Array(NamedTuple):
    """One payload array, and the values its entries may take."""

    dtype: str
    shape: tuple[int, ...]
    name: str = ""  # how errors name an entry
    low: Optional[int] = None  # entries below low or above high are rejected
    high: Optional[int] = None
    pad: bool = False  # PAD is accepted besides low..high
    ids: bool = False  # 1-based class ids on disk, 0-based in memory


class _Format(NamedTuple):
    magic: bytes
    dims: int  # u32 dimensions in the header
    masked: bool  # a u8 mask mode and an f32 fill follow the dimensions
    layout: Callable[..., tuple[_Array, ...]]  # dimensions -> payload arrays

    @property
    def header(self) -> struct.Struct:
        return struct.Struct("<4sH" + "I" * self.dims + ("Bf" if self.masked else ""))


# fmt: off
_FORMATS = {
    "encoding": _Format(b"HTRE", 2, False, lambda n, L: (
        _Array("u1", (L, n), "mask byte", 0, 1),
        _Array("<i4", (n, L), "1-based path entry", 1, n, pad=True, ids=True),
    )),
    "scores": _Format(b"HTSB", 2, False, lambda b, c: (
        _Array("<f4", (b, c)),
    )),
    "labels": _Format(b"HTLB", 1, False, lambda b: (
        _Array("<i8", (b,), "1-based label", 1, ids=True),
    )),
    "path labels": _Format(b"HTPL", 2, False, lambda b, L: (
        _Array("<i8", (b, L), "1-based path label", 1, pad=True, ids=True),
    )),
    "partitioned": _Format(b"HTPT", 3, True, lambda b, L, c: (
        _Array("<f4", (b, L, c)),
    )),
    "flat": _Format(b"HTFT", 2, True, lambda rows, c: (
        _Array("<f4", (rows, c)),
        _Array("<i8", (rows,), "1-based label", 1, ids=True),
        _Array("<i8", (rows, 2), "origin index", 0),
    )),
}
# fmt: on


# Mask modes on disk: 0 is -inf, 1 is NaN, 2 is the fill that follows.
def _mask_mode(mask_value: float) -> tuple[int, float]:
    if mask_value == NEG_INF:
        return 0, 0.0
    if np.isnan(mask_value):
        return 1, 0.0
    # Finite fills are stored as f32, matching the payload precision.
    return 2, float(np.float32(mask_value))


def _mask_value(mode: int, fill: float) -> float:
    if mode > 2:
        raise FormatError(f"unknown mask mode {mode}")
    return (NEG_INF, float("nan"), float(fill))[mode]


# -- the container -------------------------------------------------------------


def _runs(a: np.ndarray):
    """(offset, run) pairs that cover a's entries in row-major order, where
    offset is the flat index of the run's first entry: runs of at most
    ``tree._BLOCK_ENTRIES`` entries of a C-contiguous array, else blocks of
    whole rows. Each run is a view."""
    if a.flags.c_contiguous:
        a = a.reshape(-1)
    row = math.prod(a.shape[1:])
    return ((rows.start * row, a[rows]) for rows in _blocks(len(a), row))


def _first(a: np.ndarray, flag) -> Optional[tuple]:
    """The index of a's first entry, in row-major order, that ``flag`` (a
    run of entries -> their marks) marks, or None."""
    for offset, run in _runs(a):
        marks = flag(run)
        if marks.any():
            return np.unravel_index(offset + int(np.argmax(marks)), a.shape)
    return None


def _position(at: tuple) -> str:
    return ", ".join(str(i + 1) for i in at)


def _outside(a: np.ndarray, name: str, low: int, high: Optional[int], pad: bool):
    """The message naming a's first entry outside low..high (PAD allowed
    with ``pad``), or None if there is none."""

    def flag(run):
        bad = run < low
        if high is not None:
            bad |= run > high
        if pad:
            bad &= run != PAD
        return bad

    # The two reductions need no temporaries, and marks are made one run
    # at a time. Within PAD..high, only an entry between PAD and low can
    # be outside: none can when low is PAD + 1 (ids on write), so the scan
    # is skipped, and on read (low 1) it marks only the zeros.
    if a.size == 0:
        return None
    if high is None or a.max() <= high:
        lowest = a.min()
        if lowest >= low:
            return None
        if pad and lowest >= PAD:
            if low <= PAD + 1:
                return None
            if low == PAD + 2:
                flag = functools.partial(np.equal, PAD + 1)
    if (at := _first(a, flag)) is None:
        return None
    valid = f"{low}..{'' if high is None else high}"
    return (
        f"{name} {int(a[at])} at position {_position(at)} "
        f"is not in " + (f"{valid} or {PAD}" if pad else valid)
    )


def _decode(a: np.ndarray, spec: _Array) -> None:
    """Reject entries outside the spec's range, then make ids 0-based in
    place, a run at a time."""
    if spec.low is None:
        return
    if message := _outside(a, spec.name, spec.low, spec.high, spec.pad):
        raise FormatError(message)
    if spec.ids:
        for _, run in _runs(a):
            run -= (run != PAD) if spec.pad else 1


_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _beyond_float32(run: np.ndarray) -> np.ndarray:
    """Marks the finite entries that float32 cannot hold."""
    bad = run > _FLOAT32_MAX
    bad |= run < -_FLOAT32_MAX
    bad &= np.isfinite(run)
    return bad


def _check_range(name: str, a: np.ndarray, spec: _Array) -> None:
    """Refuse, with ``ShapeError``, entries that the spec's reader would
    refuse once written, and entries that the spec's dtype cannot hold:
    ids 1-based, and finite floats beyond float32's range (``±inf`` and
    NaN are written as they are). Ids are checked in their 0-based form."""
    if spec.dtype == "<f4":
        # Only wider floats can overflow float32; they are scanned a run at a time.
        if a.dtype.kind == "f" and a.dtype.itemsize > 4:
            if (at := _first(a, _beyond_float32)) is not None:
                raise ShapeError(
                    f"{name} entry {float(a[at])} at position {_position(at)} "
                    f"is beyond float32's range"
                )
        return
    shift = 1 if spec.ids else 0
    high = None if spec.high is None else spec.high - shift
    if message := _outside(a, f"{name} entry", spec.low - shift, high, spec.pad):
        raise ShapeError(message)
    # The shift is done in the spec's dtype, so its largest value is no id.
    top = np.iinfo(spec.dtype).max - shift
    if a.size and np.iinfo(a.dtype).max > top and a.max() > top:
        at = _first(a, lambda run: run > top)
        raise ShapeError(
            f"{name} entry {int(a[at])} at position {_position(at)} does not "
            f"fit in {np.dtype(spec.dtype).name}" + (" once 1-based" if spec.ids else "")
        )


def _on_disk(run: np.ndarray, spec: _Array) -> np.ndarray:
    """A run of entries in the spec's dtype, ids shifted to 1-based in it;
    the shift works on a copy."""
    if not spec.ids:
        return np.ascontiguousarray(run, dtype=spec.dtype)
    run = run.astype(spec.dtype)
    run += (run != PAD) if spec.pad else 1
    return run


def _read(stream, size: int, fmt: _Format) -> list:
    """The payload arrays of a ``size``-byte stream, plus the mask value if any."""
    raw = stream.read(fmt.header.size)
    if len(raw) < fmt.header.size:
        raise FormatError("truncated stream: missing header")
    magic, version, *dims = fmt.header.unpack(raw)
    if magic != fmt.magic:
        raise FormatError(f"expected magic {fmt.magic.decode()}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    tail = []
    if fmt.masked:
        *dims, mode, fill = dims
        tail.append(_mask_value(mode, fill))
    specs = fmt.layout(*dims)
    expected = fmt.header.size + sum(
        math.prod(s.shape) * np.dtype(s.dtype).itemsize for s in specs
    )
    if size != expected:
        raise FormatError(f"stream holds {size} bytes, expected {expected}")
    arrays = []
    for spec in specs:
        a = np.empty(spec.shape, dtype=spec.dtype)
        # Buffered files and BytesIO fill the whole buffer unless the data ends.
        if stream.readinto(a.reshape(-1).view(np.uint8)) != a.nbytes:
            raise FormatError("truncated stream: payload ends early")
        _decode(a, spec)
        arrays.append(a)
    return arrays + tail


def _write(dest, fmt: _Format, dims: tuple, arrays, mask_value=None) -> None:
    """Write one container to a binary stream, or to a new file at a path.

    Each array must have the shape the table gives for ``dims``, be
    integer, or real float where the table stores floats, and hold only
    entries its reader accepts and its on-disk dtype holds. That is
    checked before a file is opened, so a mismatch leaves no file behind.
    Each array is then written in runs of ``tree._BLOCK_ENTRIES`` entries,
    each converted to the on-disk dtype (ids shifted to 1-based in it) on
    its own, so the call holds one run's copy besides its input: about
    1.3 MB for the c08 encoding.
    """
    if len(dims) != fmt.dims:
        raise ShapeError(
            f"{fmt.magic.decode()} payload array 1 has shape {tuple(dims)}, "
            f"expected {fmt.dims} dimensions"
        )
    specs = fmt.layout(*dims)
    for i, (spec, a) in enumerate(zip(specs, arrays, strict=True)):
        name = f"{fmt.magic.decode()} payload array {i + 1}"
        if np.shape(a) != spec.shape:
            raise ShapeError(f"{name} has shape {np.shape(a)}, expected {spec.shape}")
        # The u1 mask comes from a TreeEncoding, which holds it as bool.
        if spec.dtype != "u1":
            a = _check_array(name, a, len(spec.shape), floats=spec.dtype == "<f4")
            _check_range(name, a, spec)
    mode = _mask_mode(mask_value) if fmt.masked else ()
    is_path = isinstance(dest, (str, os.PathLike))
    with open(dest, "wb") if is_path else contextlib.nullcontext(dest) as stream:
        stream.write(fmt.header.pack(fmt.magic, FORMAT_VERSION, *dims, *mode))
        for spec, a in zip(specs, arrays):
            for _, run in _runs(np.asarray(a)):
                stream.write(_on_disk(run, spec))


def _read_file(path: Pathish, decode, *args):
    """``decode(stream, size, *args)`` over a file; its errors name the file."""
    try:
        with open(path, "rb") as f:
            return decode(f, os.fstat(f.fileno()).st_size, *args)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None


def _is_csv(path: Pathish) -> bool:
    return os.fspath(path).lower().endswith(".csv")


# -- encodings ---------------------------------------------------------------


def _read_tree(stream, size: int, check: bool) -> TreeEncoding:
    masks, paths = _read(stream, size, _FORMATS["encoding"])
    if 0 in paths.shape:
        raise FormatError("malformed header: zero dimension")
    enc = TreeEncoding(masks=masks.view(bool), paths=paths)
    if check:
        report = validate(enc)
        if not report.ok:
            raise FormatError(
                "stream decodes to an invalid encoding: "
                + report.violations[0].message
            )
    return enc


def _write_tree(dest, enc: TreeEncoding) -> None:
    dims = (enc.num_classes, enc.num_levels)
    _write(dest, _FORMATS["encoding"], dims, (enc.masks, enc.paths))


def serialize(enc: TreeEncoding) -> bytes:
    """Portable byte form: header, masks as 0/1 bytes, paths as 1-based i32."""
    out = io.BytesIO()
    _write_tree(out, enc)
    return out.getvalue()


def deserialize(data: bytes, check: bool = True) -> TreeEncoding:
    """Rebuild an encoding from its serialized form.

    With ``check`` (the default) the result must pass ``validate``;
    pass ``check=False`` to load a damaged encoding for inspection.
    """
    return _read_tree(io.BytesIO(data), len(data), check)


def write_encoding(enc: TreeEncoding, path: Pathish) -> None:
    _write_tree(path, enc)


def read_encoding(path: Pathish, check: bool = True) -> TreeEncoding:
    return _read_file(path, _read_tree, check)


# -- flat scores -------------------------------------------------------------


def write_scores(scores: np.ndarray, path: Pathish) -> None:
    scores = _check_array("scores", scores, 2)
    if _is_csv(path):
        (spec,) = _FORMATS["scores"].layout(*scores.shape)
        _check_range("scores", scores, spec)
        _csv_cap(scores.size, "scores")
        np.savetxt(path, scores.astype(np.float32), fmt="%.9g", delimiter=",")
        return
    _write(path, _FORMATS["scores"], scores.shape, (scores,))


def read_scores(path: Pathish) -> np.ndarray:
    if not _is_csv(path):
        (scores,) = _read_file(path, _read, _FORMATS["scores"])
        return scores
    if not _check_csv_size(path, "scores", lambda line: line.count(b",") + 1):
        raise FormatError(f"{path}: no data lines, so the score count is unknown")
    try:
        return np.loadtxt(path, delimiter=",", dtype=np.float32, ndmin=2)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def _csv_cap(size: int, noun: str, where: str = "") -> None:
    if size > CSV_ELEMENT_CAP:
        raise FormatError(
            f"{where}CSV holds at most {CSV_ELEMENT_CAP} {noun}, count reached "
            f"{size}; use the binary format"
        )


# A line ``loadtxt`` skips: blank, or a ``#`` after nothing but whitespace.
_SKIPPED_LINE = re.compile(rb"^[^\S\n]*(?:#|$)", re.M)
# A line it parses, and one of those with a second whitespace-separated field.
_DATA_LINE = re.compile(rb"^[^\S\n]*[^\s#].*", re.M)
_WIDE_LINE = re.compile(rb"^[^\S\n]*[^\s#]+[^\S\n]+[^\s#].*", re.M)
_CSV_CHUNK = 1 << 20


def _check_csv_size(
    path: Pathish,
    noun: str,
    fields: Callable[[bytes], int],
    one_per_line: bool = False,
) -> int:
    """Refuse a CSV beyond ``CSV_ELEMENT_CAP`` values before parsing it,
    and return its number of data lines.

    Counts the data lines (not blank, not a ``#`` comment, as ``loadtxt``
    skips) times the first one's ``fields``, counted the way the caller's
    ``loadtxt`` splits a line. With ``one_per_line``, every data line
    must hold one whitespace-separated field, and the first that does not
    is named by its 1-based line number. The file is scanned in chunks of
    1 MiB, each extended to the end of the line it stops in.
    """
    rows = cols = lines = 0
    with open(path, "rb") as f:
        while chunk := f.read(_CSV_CHUNK):
            chunk += f.readline()
            if not cols and (first := _DATA_LINE.search(chunk)):
                cols = 1 if one_per_line else fields(first.group().split(b"#", 1)[0])
            wide = _WIDE_LINE.search(chunk) if one_per_line else None
            # Data lines up to the wide line, where the cap may trip first;
            # the empty piece after a final newline counts as a skipped line.
            text = chunk[: wide.start()] if wide else chunk
            ahead = text.count(b"\n") + 1 - sum(1 for _ in _SKIPPED_LINE.finditer(text))
            limit = CSV_ELEMENT_CAP // cols if cols else 0
            if rows + ahead > limit:
                _csv_cap((limit + 1) * cols, noun, f"{path}: ")
            if wide:
                number = lines + chunk.count(b"\n", 0, wide.start()) + 1
                raise FormatError(
                    f"{path}: line {number} holds "
                    f"{fields(wide.group().split(b'#', 1)[0])} {noun}, expected 1"
                )
            rows += ahead
            lines += chunk.count(b"\n")
    return rows


# -- flat labels -------------------------------------------------------------


def write_labels(labels: np.ndarray, path: Pathish) -> None:
    labels = _check_array("labels", labels, 1, floats=False)
    if _is_csv(path):
        (spec,) = _FORMATS["labels"].layout(labels.size)
        _check_range("labels", labels, spec)
        _csv_cap(labels.size, "labels")
        np.savetxt(path, _on_disk(labels, spec), fmt="%d")
        return
    _write(path, _FORMATS["labels"], labels.shape, (labels,))


def read_labels(path: Pathish) -> np.ndarray:
    if not _is_csv(path):
        (labels,) = _read_file(path, _read, _FORMATS["labels"])
        return labels
    if not _check_csv_size(
        path, "labels", lambda line: len(line.split()), one_per_line=True
    ):
        return np.empty(0, dtype=np.int64)
    try:
        labels = np.loadtxt(path, dtype=np.int64, ndmin=1)
        (spec,) = _FORMATS["labels"].layout(labels.size)
        _decode(labels, spec)
    except (ValueError, FormatError) as e:
        raise FormatError(f"{path}: {e}") from None
    return labels


# -- path labels -------------------------------------------------------------


def write_path_labels(path_labels: PathLabels, path: Pathish) -> None:
    data = path_labels.data
    _write(path, _FORMATS["path labels"], data.shape, (data,))


def read_path_labels(path: Pathish) -> PathLabels:
    (data,) = _read_file(path, _read, _FORMATS["path labels"])
    return PathLabels(data=data)


# -- partitioned scores ------------------------------------------------------


def write_partitioned(parts: PartitionedScores, path: Pathish) -> None:
    data = parts.data
    _write(path, _FORMATS["partitioned"], data.shape, (data,), parts.mask_value)


def read_partitioned(path: Pathish) -> PartitionedScores:
    data, mask_value = _read_file(path, _read, _FORMATS["partitioned"])
    return PartitionedScores(data=data, mask_value=mask_value)


# -- flat training sets ------------------------------------------------------


def write_flat(flat: FlatTrainingSet, path: Pathish) -> None:
    arrays = (flat.rows, flat.labels, flat.origin)
    _write(path, _FORMATS["flat"], flat.rows.shape, arrays, flat.mask_value)


def read_flat(path: Pathish) -> FlatTrainingSet:
    rows, labels, origin, mask_value = _read_file(path, _read, _FORMATS["flat"])
    return FlatTrainingSet(
        rows=rows, labels=labels, origin=origin, mask_value=mask_value
    )
