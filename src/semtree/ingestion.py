"""Reading, writing and generating class forests.

The on-disk form is a plain text edge list with 1-based class ids: a
line with a single id declares a root, a line with ``child parent``
declares an edge, ``#`` starts a comment. Ids must be contiguous from 1
so they can double as array indices.

``generate_synthetic`` builds trees of a requested size and depth for
benchmarks: a spine guarantees one class per level, every other class
attaches below it, with every eligible parent equally likely.
"""

import bisect
import itertools
import os
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from .errors import (
    DanglingEdge,
    EdgeListError,
    MultipleParents,
    ParameterError,
    SemtreeError,
)
from .transforms import _check_count
from .tree import NO_PARENT, Taxonomy, class_depths


class MultiParentResolution(NamedTuple):
    """One dropped parent assignment (0-based ids, NO_PARENT for a root line)."""

    child: int
    kept: int
    dropped: int


class ParsedTaxonomy(NamedTuple):
    taxonomy: Taxonomy
    resolutions: tuple[MultiParentResolution, ...]


# The ASCII characters str.split() splits on; other whitespace is turned
# into spaces before the text becomes an array of character codes.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")] = True
_NON_ASCII_SPACE = re.compile(r"[^\S\x00-\x7f]")
# int() values at or above _BIG get codes above it that keep their order;
# every id of at most _MAX_DIGITS digits lies below it.
_BIG = 1 << 62
_MAX_DIGITS = 18
# A token as the arrays find one: ``\s`` is what _NON_ASCII_SPACE and
# _SPACE call whitespace.
_TOKEN = re.compile(r"\S+")


def _char_codes(text: str) -> np.ndarray:
    """One uint8 per character of ``text``; non-ASCII characters become
    a space (whitespace) or ``?`` (anything else)."""
    if not text.isascii():
        text = _NON_ASCII_SPACE.sub(" ", text)
    return np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)


def _token_values(text, codes, space, starts, stops):
    """Each token's id as an order-keeping int64 code, and which parsed.

    Tokens of at most ``_MAX_DIGITS`` ASCII digits are read by Horner's
    rule, one array step per digit position. The rest go through
    ``int()`` one by one, so they are accepted or refused exactly as
    ``int()`` does; values of ``_BIG`` and above are replaced by
    ``_BIG`` plus their rank, values below 1 by at most 0.
    """
    digits = codes - np.uint8(ord("0"))
    odd = np.flatnonzero(~space & (digits > 9))
    plain = (stops - starts) <= _MAX_DIGITS
    plain[np.searchsorted(starts, odd, side="right") - 1] = False
    values = np.zeros(starts.size, dtype=np.int64)
    ok = np.ones(starts.size, dtype=bool)
    s, e = starts[plain], stops[plain]
    v = values[plain]
    pos = np.empty_like(e)
    for back in range(int((e - s).max(initial=0)), 0, -1):
        np.subtract(e, back, out=pos)
        v *= 10
        v += np.where(pos >= s, digits.take(pos, mode="clip"), 0)
    values[plain] = v
    big_at, bigs = [], []
    for i in np.flatnonzero(~plain).tolist():
        try:
            value = int(text[starts[i] : stops[i]])
        except ValueError:
            ok[i] = False
            continue
        if value >= _BIG:
            big_at.append(i)
            bigs.append(value)
        else:
            values[i] = max(value, -1)
    if bigs:
        rank = np.unique(np.array(bigs, dtype=object), return_inverse=True)[1]
        values[big_at] = _BIG + rank
    return values, ok


def _records(source):
    """An edge list's text, comments cut, and per non-blank line (a record)
    its 0-based line number, the offset of its first token in the text, its
    token count, the value codes of its first two tokens (the second 0 for
    a bare id), and whether either of those two is not an id of at least 1.

    The per-character and per-token arrays stay in here, so they are freed
    before the caller works on the records.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as f:
            text = f.read()
        if "#" in text:
            text = re.sub(r"#[^\n]*", "", text)
        codes = _char_codes(text)
        ends = np.flatnonzero(codes == ord("\n"))
    else:
        lines = list(source)
        text = "\n".join(lines)
        if "#" in text:  # a comment runs to the end of its element
            lines = [line.partition("#")[0] for line in lines]
            text = "\n".join(lines)
        codes = _char_codes(text)
        sizes = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines))
        del lines
        ends = np.cumsum(sizes + 1) - 1  # where each element's separator sits

    space = _SPACE.take(codes)
    bounds = np.diff(space.view(np.int8), prepend=np.int8(1), append=np.int8(1))
    starts, stops = np.flatnonzero(bounds == -1), np.flatnonzero(bounds == 1)
    del bounds
    values, ok = _token_values(text, codes, space, starts, stops)
    del codes, space, stops
    token_line = np.searchsorted(ends, starts)
    head = np.flatnonzero(np.diff(token_line, prepend=-1))
    fields = np.diff(head, append=starts.size)
    second = np.minimum(head + 1, starts.size - 1)  # in bounds for a last bare id
    bad = ~ok | (values < 1)
    paired = fields >= 2
    key = np.where(paired, values[second], 0)
    faulty = bad[head] | (paired & bad[second])
    return text, token_line[head], starts[head], fields, values[head], key, faulty


def parse_edge_list(
    source: Union[str, os.PathLike, Iterable[str]],
    policy: str = "first",
) -> ParsedTaxonomy:
    """Parse an edge list into a taxonomy.

    ``policy`` decides what happens when a class is assigned more than
    one parent: ``"first"`` keeps the earliest assignment and records
    the others, ``"reject"`` raises ``MultipleParents``. Exact duplicate
    lines are an error under either policy.

    A file is read once, as UTF-8 text with universal newlines; an
    iterable gives one line per element, even when an element holds a
    newline. Comments are cut from the text before the array passes
    over its character codes: token bounds, their lines, their values
    and every fault, with Python only for tokens ``int()`` must judge
    (signs, underscores, non-ASCII digits, more than 18 digits). An
    error on a line names the earliest faulty line, 1-based, with the
    fault a line-by-line reading would meet first there; then come an
    empty list, an undeclared parent and a gap in the ids, in that
    order.
    """
    if policy not in ("first", "reject"):
        raise ParameterError(f"unknown multi-parent policy {policy!r}")
    text, line, start, fields, child, key, faulty = _records(source)

    def words(r, count):  # the first ``count`` tokens of record r
        found = _TOKEN.finditer(text, int(start[r]))
        return [m.group() for m in itertools.islice(found, count)]

    ids, group = np.unique(child, return_inverse=True)
    first = np.full(ids.size, child.size)
    np.minimum.at(first, group, np.arange(child.size))
    first_of = first[group]  # the record that first declared each child
    repeat = first_of != np.arange(child.size)
    duplicate = repeat & (key == key[first_of])
    fault = (fields > 2) | faulty | duplicate
    if policy == "reject":
        fault |= repeat
    # A record's flags depend only on earlier records, and those before the
    # first flagged one are sound, so it is where the line loop would stop.
    if fault.any():
        r = int(np.argmax(fault))
        raise _line_error(
            int(line[r]) + 1,
            int(fields[r]),
            words(r, min(int(fields[r]), 2)),
            bool(key[first_of[r]]),
            bool(duplicate[r]),
        )

    if not child.size:
        raise EdgeListError("edge list declares no classes")
    declared = np.flatnonzero(~repeat)
    keys = key[declared]
    dangling = (keys > 0) & ~np.isin(keys, ids)
    if dangling.any():
        r = declared[np.argmax(keys == keys[dangling].min())]
        named_child, named_parent = map(int, words(r, 2))
        raise DanglingEdge(
            f"parent {named_parent} of class {named_child} is never declared "
            f"as a class"
        )
    n = ids.size
    if ids[-1] != n:
        missing = int(np.argmax(ids != np.arange(1, n + 1))) + 1
        raise EdgeListError(
            f"class ids must be contiguous from 1: {n} classes declared "
            f"but id {missing} is missing"
        )

    parents = np.full(n, NO_PARENT, dtype=np.int32)
    parents[child[declared] - 1] = keys - 1  # a root's key 0 becomes NO_PARENT
    class_depths(parents)  # raises CyclicTaxonomy on a loop
    moved = np.flatnonzero(repeat)
    dropped = (key[moved] - 1).tolist()
    # A dropped parent of _BIG or more has a code, not its id: reread it.
    for i in np.flatnonzero(key[moved] >= _BIG).tolist():
        dropped[i] = int(words(int(moved[i]), 2)[1]) - 1
    resolutions = map(
        MultiParentResolution._make,
        zip(
            (child[moved] - 1).tolist(),
            (key[first_of[moved]] - 1).tolist(),
            dropped,
        ),
    )
    return ParsedTaxonomy(
        taxonomy=Taxonomy(parents=parents),
        resolutions=tuple(resolutions),
    )


def _line_error(
    lineno: int, fields: int, words: list[str], had_parent: bool, duplicate: bool
) -> SemtreeError:
    """The error the line-by-line reading raises on line ``lineno``.

    ``words`` are the line's tokens when it has at most two;
    ``had_parent`` tells whether the child's first declaration named a
    parent, and ``duplicate`` whether this line repeats it exactly.
    """
    if fields > 2:
        return EdgeListError(
            f"line {lineno}: expected 'child parent' or a bare root id, "
            f"got {fields} fields"
        )
    ids = []
    for token in words:
        try:
            value = int(token)
        except ValueError:
            return EdgeListError(f"line {lineno}: {token!r} is not an integer class id")
        if value < 1:
            return EdgeListError(f"line {lineno}: class ids start at 1, got {value}")
        ids.append(value)
    if duplicate:
        return EdgeListError(f"line {lineno}: duplicate declaration of class {ids[0]}")
    return MultipleParents(
        f"line {lineno}: class {ids[0]} already has "
        f"{'a parent' if had_parent else 'a root line'}, cannot also assign "
        f"{'parent ' + str(ids[1]) if len(ids) == 2 else 'root'}"
    )


def write_edge_list(taxonomy: Taxonomy, path: Union[str, os.PathLike]) -> None:
    """Write a taxonomy back out as a 1-based edge list.

    One line per class: ``child`` for a root, ``child<TAB>parent``
    otherwise.
    """
    with open(path, "w", encoding="utf-8") as f:
        for child, parent in enumerate(taxonomy.parents.tolist(), 1):
            if parent == NO_PARENT:
                f.write(f"{child}\n")
            else:
                f.write(f"{child}\t{parent + 1}\n")


@dataclass(frozen=True)
class SyntheticTreeSpec:
    """Shape of a generated forest."""

    num_classes: int
    num_levels: int
    seed: int = 0


def generate_synthetic(spec: SyntheticTreeSpec) -> Taxonomy:
    """Generate a deterministic random tree with the requested dimensions.

    Classes ``0..num_levels-1`` form a spine with one class per level,
    so the encoding of the result always has exactly ``num_levels``
    levels; the rest attach at random to classes above the deepest
    level. Identical specs yield identical taxonomies. Counts that are
    not integers of at least 1, or fewer classes than levels, raise
    ``ParameterError``.
    """
    n, L = spec.num_classes, spec.num_levels
    _check_count("number of classes", n)
    _check_count("number of levels", L)
    if n < L:
        raise ParameterError(
            f"cannot reach depth {L} with only {n} classes"
        )
    parents = np.full(n, NO_PARENT, dtype=np.int32)
    if L == 1:
        return Taxonomy(parents=parents)  # a forest of roots
    parents[1:L] = np.arange(L - 1)

    rng = np.random.default_rng(spec.seed)
    # pools[d] holds the classes at depth d that may still take children
    # (only depths up to L-2 may, so no child ever exceeds depth L-1).
    pools: list[list[int]] = [[d] for d in range(L - 1)]
    sizes = [1] * (L - 1)
    # Each class draws a depth weighted by its pool's size, then a class of
    # that pool, so every eligible parent is equally likely. One draw over
    # all of them would do the same, but give other trees for each seed.
    for c in range(L, n):
        bounds = list(itertools.accumulate(sizes))
        d = bisect.bisect_right(bounds, rng.random() * bounds[-1])
        pool = pools[d]
        parents[c] = pool[int(rng.integers(sizes[d]))]
        if d + 1 <= L - 2:
            pools[d + 1].append(c)
            sizes[d + 1] += 1
    return Taxonomy(parents=parents)
