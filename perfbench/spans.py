"""Spans around the public semtree calls, and the per-layer metrics built from them.

A ``Tracer`` hands out an ``api`` namespace whose functions are the
library's own, each wrapped in a span named ``<module>.<function>``;
the module is the layer. Spans are kept in memory and summarized when
the run ends. With ``measure_memory`` set, and ``tracemalloc`` running,
each span also records its call's allocation high-water mark.

``fileio.read_encoding`` is traced as ``read_encoding(check=False)``
followed by ``validate``, the same work ``read_encoding`` does inside,
so that the ``fileio`` and ``tree`` times separate.
"""

import dataclasses
import os
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from types import FunctionType, SimpleNamespace

import numpy as np

from semtree import FormatError

LAYERS = ("transforms", "inference", "tree", "ingestion", "fileio")
TIMED = (
    "transforms.partition_scores",
    "transforms.map_labels",
    "transforms.flatten_for_training",
    "transforms.cross_entropy",
    "inference.softmax_levels",
    "inference.beam_decode",
    "inference.naive_decode",
    "inference.levenshtein_decode",
    "ingestion.parse_edge_list",
    "ingestion.generate_synthetic",
    "tree.encode",
    "tree.validate",
    "fileio.write_encoding",
    "fileio.read_encoding",
)
PEAKED = (
    "transforms.partition_scores",
    "transforms.flatten_for_training",
    "transforms.cross_entropy",
    "inference.softmax_levels",
    "inference.beam_decode",
    "inference.levenshtein_decode",
    "ingestion.parse_edge_list",
)
# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{call}.ms", "ms", "lower") for call in TIMED]
    + [(f"{call}.peak_bytes", "bytes", "lower") for call in PEAKED]
    + [
        ("transforms.partition_scores.useful_ratio", "ratio", "higher"),
        ("transforms.flatten_for_training.rows_kept_ratio", "ratio", "higher"),
        ("fileio.read_encoding.peak_over_file", "ratio", "lower"),
    ]
    + [(f"{layer}.share", "ratio", "lower") for layer in LAYERS]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


@dataclasses.dataclass
class Span:
    name: str
    layer: str | None
    phase: str
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    peak_bytes: int | None = None


def array_bytes(obj):
    """Bytes of the largest NumPy array in obj, its tuple items or dataclass fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return max(map(array_bytes, obj), default=0)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        return max((array_bytes(getattr(obj, f.name)) for f in fields), default=0)
    return 0


def _read_then_validate(read_encoding, validate):
    """read_encoding(path) as its two halves, each in its own span."""

    def read(path):
        enc = read_encoding(path, check=False)
        report = validate(enc)
        if not report.ok:
            raise FormatError(f"{path}: {report.violations[0].message}")
        return enc

    return read


class Tracer:
    """Records a span per public call made through ``self.api``.

    ``phase`` tags new spans: ``setup`` and ``op`` spans give call
    times, ``op`` spans alone give layer shares, and ``memory`` spans
    (slowed by tracemalloc) give only peak bytes. ``split_read`` traces
    ``read_encoding`` as a read plus ``validate``.
    """

    def __init__(self, public, split_read=True):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.measure_memory = False
        self.counts: dict[str, float] = defaultdict(float)
        self.largest_array = 0
        self._open: list[int] = []
        wrapped = {
            name: self._wrap(fn) if isinstance(fn, FunctionType) else fn
            for name, fn in vars(public).items()
        }
        if split_read:
            wrapped["read_encoding"] = _read_then_validate(
                wrapped["read_encoding"], wrapped["validate"]
            )
        self.api = SimpleNamespace(**wrapped)

    @contextmanager
    def span(self, name, layer=None):
        parent = self._open[-1] if self._open else None
        s = Span(name, layer, self.phase, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"

        def traced(*args, **kwargs):
            with self.span(name, layer) as s:
                if self.measure_memory:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                out = fn(*args, **kwargs)
                if self.measure_memory:
                    s.peak_bytes = tracemalloc.get_traced_memory()[1] - base
            self._observe(fn.__name__, args, out)
            return out

        return traced

    def _observe(self, fn_name, args, out):
        """Counts taken at the call boundary, for ratios and the environment."""
        self.largest_array = max(
            self.largest_array, array_bytes(out), *map(array_bytes, args)
        )
        if self.phase != "op":
            return
        if fn_name == "partition_scores":
            self.counts["scores"] += np.size(args[1])
            self.counts["partition_elements"] += out.data.size
        elif fn_name == "flatten_for_training":
            b, L = args[0].data.shape[:2]
            self.counts["rows_kept"] += out.num_rows
            self.counts["rows"] += b * L
        elif fn_name == "read_encoding":
            self.counts["file_bytes"] = os.path.getsize(args[0])

    def per_layer(self, untraced_op_s):
        """Every per-layer metric; a call this workload never makes reads 0."""
        spans = self.spans
        child_s = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start

        times = defaultdict(list)
        peaks = {}
        self_s = defaultdict(float)
        errors = defaultdict(int)
        for i, s in enumerate(spans):
            if s.layer is None:
                continue
            errors[s.layer] += s.error
            if s.phase in ("setup", "op"):
                times[s.name].append(s.end - s.start)
            if s.phase == "op":
                self_s[s.layer] += s.end - s.start - child_s[i]
            if s.peak_bytes is not None:
                peaks[s.name] = max(peaks.get(s.name, 0), s.peak_bytes)
        ops = [s.end - s.start for s in spans if s.layer is None and s.phase == "op"]
        op_total = sum(ops)
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for call in TIMED:
            values[f"{call}.ms"] = (
                statistics.median(times[call]) * 1e3 if times[call] else 0.0
            )
        for call in PEAKED:
            values[f"{call}.peak_bytes"] = peaks.get(call, 0)
        values["transforms.partition_scores.useful_ratio"] = ratio(
            c["scores"], c["partition_elements"]
        )
        values["transforms.flatten_for_training.rows_kept_ratio"] = ratio(
            c["rows_kept"], c["rows"]
        )
        values["fileio.read_encoding.peak_over_file"] = ratio(
            peaks.get("fileio.read_encoding", 0), c["file_bytes"]
        )
        for layer in LAYERS:
            values[f"{layer}.share"] = ratio(self_s[layer], op_total)
        for layer in LAYERS:
            values[f"{layer}.errors"] = errors[layer]
        values["trace.overhead_ratio"] = (
            statistics.median(ops) / statistics.median(untraced_op_s)
            if ops and untraced_op_s
            else 0.0
        )
        return values
